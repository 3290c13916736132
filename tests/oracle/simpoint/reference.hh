/**
 * @file
 * Reference SimPoint clustering: the naive Lloyd loop and BIC sweep
 * exactly as they ran before the clustering engine was accelerated.
 * Every iteration assigns every point, rebuilds every centroid and
 * reduces the SSE; every k-means++ draw sums every term; the sweep
 * projects every interval, fits one (k, seed) pair after another and
 * measures one distance per phase member.
 *
 * This is an independent twin of sp::runKMeans and
 * sp::pickSimulationPoints.  It shares only the kernels (util/simd),
 * the projection matrix's draws and the BIC score with them, so it
 * pins down the results the engine must reproduce bit for bit (see
 * test_clustering_equiv).  Keep it boring; never optimize it.
 */

#ifndef XBSP_SIMPOINT_REFERENCE_HH
#define XBSP_SIMPOINT_REFERENCE_HH

#include "simpoint/kmeans.hh"
#include "simpoint/simpoint.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace xbsp::sp
{

/**
 * Work the reference did, counted by itself: it never touches the
 * process-wide stat registry, so the engine's counters can be
 * compared against these.
 */
struct ReferenceWork
{
    u64 distances = 0;  ///< sqDist evaluations in E-steps
    u64 mstepRows = 0;  ///< point rows accumulated by M-steps
    u64 initTerms = 0;  ///< terms summed by k-means++ draws
};

/**
 * One reference fit and the work it took.  The reference labels
 * every point on its own, so `result.owners` stays empty and
 * `labels` holds the label of each point.
 */
struct ReferenceFit
{
    KMeansResult result;
    std::vector<u32> labels;
    ReferenceWork work;
};

/** A reference BIC sweep and the work its fits took. */
struct ReferenceSweep
{
    SimPointResult result;
    ReferenceWork work;
};

/**
 * Project every interval of `fvs` through the matrix sp::project()
 * draws (same seed mix, same padded rows, same axpy per sparse
 * entry), one point after another with no duplicate grouping, each
 * into its own singleton class.  Against it test_clustering_equiv
 * checks that the engine's once-per-class projection is exact.
 */
ProjectedData referenceProject(const FrequencyVectorSet& fvs, u32 dims,
                               u64 seed);

/**
 * The naive Lloyd loop over `data` (its duplicate classes are
 * ignored).  Same contract as sp::runKMeans.
 */
ReferenceFit referenceKMeans(const ProjectedData& data, u32 k, Rng& rng,
                             const KMeansOptions& options = {});

/**
 * The naive SimPoint sweep: normalize a copy of `fvs`, project every
 * interval, fit every (k, seed) pair serially, pick k by BIC and
 * build the phases.  Same contract as sp::pickSimulationPoints,
 * without the artifact store.
 */
ReferenceSweep referenceSimPoints(const FrequencyVectorSet& fvs,
                                  const SimPointOptions& options);

} // namespace xbsp::sp

#endif // XBSP_SIMPOINT_REFERENCE_HH
