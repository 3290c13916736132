/**
 * @file
 * Weighted k-means (SimPoint step 3).  Points carry weights (interval
 * instruction counts), so variable-length intervals influence
 * centroids proportionally to the execution they represent, per
 * SimPoint 3.0's VLI support.
 */

#ifndef XBSP_SIMPOINT_KMEANS_HH
#define XBSP_SIMPOINT_KMEANS_HH

#include <vector>

#include "simpoint/projection.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace xbsp::sp
{

/** Centroid seeding strategy. */
enum class InitMethod
{
    KMeansPlusPlus,  ///< D^2 seeding (default; well-behaved on the
                     ///< small interval sets used here)
    RandomPartition  ///< random labels then M-step (SimPoint classic)
};

/** Iteration limits, seeding choice and E-step acceleration. */
struct KMeansOptions
{
    u32 maxIterations = 100;
    InitMethod init = InitMethod::KMeansPlusPlus;

    /**
     * Accelerate the E-step with Hamerly distance bounds (and, when
     * the data carries duplicate-class structure, one distance
     * computation per class instead of per point), and skip the work
     * whose result is already fixed: M-steps rebuild only clusters
     * whose membership changed, a converged fit reuses its last
     * E-step, and k-means++ draws skip points whose term is zero.
     * Every skip is proven: whatever is computed uses the same
     * arithmetic on the same operands in the same order as the naive
     * loop, so labels, centroids, SSE and iteration counts are
     * bit-identical either way (asserted by
     * tests/test_clustering_equiv.cc).
     */
    bool accelerate = true;
};

/** One clustering of the projected data. */
struct KMeansResult
{
    u32 k = 0;
    std::vector<u32> labels;           ///< per point
    std::size_t stride = 0;            ///< doubles between centroid rows
    simd::AlignedVec centroids;        ///< k x stride, row-major, padded
    std::vector<double> clusterWeight; ///< sum of member weights
    double weightedSse = 0.0;          ///< sum w * dist^2
    u32 iterations = 0;
    bool converged = false;

    /** Doubles between centroid row starts (tolerates unset stride). */
    std::size_t
    rowStride(u32 dims) const
    {
        return stride ? stride : dims;
    }

    /** Raw padded centroid row (kernel operand). */
    const double*
    centroidRow(u32 c, u32 dims) const
    {
        return centroids.data() +
               static_cast<std::size_t>(c) * rowStride(dims);
    }

    /** Centroid row accessor over the true (unpadded) dimensions. */
    std::span<const double>
    centroid(u32 c, u32 dims) const
    {
        return {centroidRow(c, dims), dims};
    }
};

/**
 * Run Lloyd's algorithm with weights until labels stabilize or
 * maxIterations.  Empty clusters are re-seeded with the point
 * farthest from its centroid.  k is clamped to the point count.
 */
KMeansResult runKMeans(const ProjectedData& data, u32 k, Rng& rng,
                       const KMeansOptions& options = KMeansOptions{});

} // namespace xbsp::sp

#endif // XBSP_SIMPOINT_KMEANS_HH
