/**
 * @file
 * Weighted k-means (SimPoint step 3).  Points carry weights (interval
 * instruction counts), so variable-length intervals influence
 * centroids proportionally to the execution they represent, per
 * SimPoint 3.0's VLI support.
 */

#ifndef XBSP_SIMPOINT_KMEANS_HH
#define XBSP_SIMPOINT_KMEANS_HH

#include <memory>
#include <span>
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

/** Iteration limit and seeding choice. */
struct KMeansOptions
{
    u32 maxIterations = 100;
    InitMethod init = InitMethod::KMeansPlusPlus;
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
 * Centroid rows and weights computed by the M-steps of one sweep, shared by all of its fits.  While a fit's labels are
 * kept per duplicate class, a cluster's row and weight depend only on
 * the set of classes it owns, so the memo keys them by that set
 * (compared exactly) and a fit reaching a set any fit of the sweep
 * already built copies its bits instead of summing its members.  It
 * is bound to one ProjectedData, safe to share between concurrent
 * fits, and freed with the sweep.
 */
class MStepMemo
{
  public:
    explicit MStepMemo(const ProjectedData& data);
    ~MStepMemo();
    MStepMemo(const MStepMemo&) = delete;
    MStepMemo& operator=(const MStepMemo&) = delete;

    /** The data every fit sharing this memo must cluster. */
    const ProjectedData& data() const { return source; }

    struct Table;  ///< defined in kmeans.cc
    Table& entries() { return *table; }

  private:
    const ProjectedData& source;
    std::unique_ptr<Table> table;
};

/**
 * Run Lloyd's algorithm with weights until labels stabilize or
 * maxIterations.  Empty clusters are re-seeded with the point
 * farthest from its centroid.  k is clamped to the point count.
 *
 * `data` must carry its duplicate classes and a current run index
 * (project() attaches both; a point with no duplicate is a class of
 * its own, and ProjectedData::buildRunIndex() indexes hand-built
 * data); without them the call panics.
 *
 * The loop skips the work whose result is already fixed: the E-step
 * runs under Hamerly distance bounds, once per duplicate class;
 * labels are kept per class between E-steps; M-steps rebuild only
 * clusters whose membership changed (or copy them from `memo`), one
 * same-class run at a time; the SSE is reduced once per fit; and each
 * k-means++ draw finds the class of its pick from blocked sums over
 * class pairs (plusPlusDraw()).  Every skip is proven: whatever is
 * computed uses the same arithmetic on the same operands in the same
 * order as the naive Lloyd loop, or provably gives its result, so
 * labels, centroids, SSE and iteration counts are bit-identical to
 * it (the reference in tests/oracle/simpoint, compared by
 * tests/test_clustering_equiv.cc).
 *
 * The fits of one sweep may share a `memo` built over the same
 * `data`; results are the same with or without it.
 */
KMeansResult runKMeans(const ProjectedData& data, u32 k, Rng& rng,
                       const KMeansOptions& options = KMeansOptions{},
                       MStepMemo* memo = nullptr);

/**
 * One k-means++ draw, as runKMeans() seeds with it: the duplicate
 * class `classOf[pick]` of the point the sequential D^2 draw picks.
 * Point i's term is t_i = weights[i] * minDist[classOf[i]], or
 * weights[i] when `minDist` is empty (the first draw).  The
 * sequential draw sums the terms in point order to T, sets
 * r = u * T, picks index 0 if r <= 0, else subtracts the terms in
 * point order from r and picks the first i where r <= 0, or the last
 * point if none.
 *
 * The result is certified from blocked sums over the block pairs
 * (blockPairs()) and a scan of only the points near the crossing;
 * the sequential draw runs only when that cannot prove the class
 * (`kmeans.init.fallbacks`).
 * `kmeans.init.terms` counts the terms both add in point order.
 * Either way the class is the sequential draw's, for any u in [0, 1)
 * and any weights and distances, NaN and infinities included.
 */
u32 plusPlusDraw(std::span<const double> weights,
                 std::span<const double> minDist,
                 std::span<const u32> classOf, double u);

} // namespace xbsp::sp

#endif // XBSP_SIMPOINT_KMEANS_HH
