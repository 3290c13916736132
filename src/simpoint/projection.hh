/**
 * @file
 * Random linear projection (SimPoint step 2): reduce the
 * high-dimensional basic-block vectors to a small number of
 * dimensions (default 15) with a dense random matrix whose entries
 * are uniform in [-1, 1).  Distances are approximately preserved
 * (Johnson-Lindenstrauss), which is all k-means needs.
 */

#ifndef XBSP_SIMPOINT_PROJECTION_HH
#define XBSP_SIMPOINT_PROJECTION_HH

#include <span>
#include <vector>

#include "simpoint/fvec.hh"
#include "util/simd/simd.hh"
#include "util/types.hh"

namespace xbsp::sp
{

/** Points per block of a k-means++ draw's blocked sum. */
inline constexpr std::size_t drawBlock = 256;

/**
 * The (class, weight) pairs a k-means++ draw sums its blocks over.
 * Block b, points [b * drawBlock, (b + 1) * drawBlock), owns pairs
 * [start[b], start[b + 1]): one per class with a member in the block,
 * in order of its first member there, whose weight is the sum of
 * those members' weights in point order.  In exact arithmetic a
 * block's sum of terms w_i * minDist[classOf[i]] is the sum of
 * weight[p] * minDist[cls[p]] over its pairs; the certified draw's
 * window covers the rounding between the two (kmeans.cc,
 * drawClass()).
 */
struct BlockPairs
{
    std::vector<u32> start;      ///< blocks + 1 offsets into cls/weight
    std::vector<u32> cls;        ///< class of each pair
    std::vector<double> weight;  ///< its members' weights, summed
};

/** The block pairs of points with `weights` under `classOf`. */
BlockPairs blockPairs(std::span<const double> weights,
                      std::span<const u32> classOf);

/**
 * Projected data: one dense, padded row per duplicate class plus
 * per-point weights and class ids.  Rows of one class are
 * bit-identical, so a point's row *is* its class's row and is stored
 * once: `classRows` holds `classes() x stride` doubles however many
 * points share them.  Rows are padded with +0.0 to
 * `stride = simd::padded(dims)` doubles and the storage is 32-byte
 * aligned, so the lane kernels run tail-free over whole rows
 * (padding is bit-transparent — see util/simd).
 */
struct ProjectedData
{
    u32 dims = 0;
    std::size_t count = 0;        ///< points
    std::size_t stride = 0;       ///< doubles between row starts
    simd::AlignedVec classRows;   ///< classes() x stride, row-major
    std::vector<double> weights;  ///< per point; sums to count

    /**
     * Duplicate-class structure (project() always attaches it):
     * classOf[i] is the duplicate class of point i, classFirst[c] the
     * lowest point index in class c.  Per-class computations stand in
     * exactly for per-point ones (see kmeans.cc).  Data without
     * duplicates has one singleton class per point.
     */
    std::vector<u32> classOf;
    std::vector<u32> classFirst;

    /**
     * Run index (buildRunIndex() derives it from classOf and weights;
     * rebuild it after changing either).  Run r is the points
     * [runStart[r], runStart[r + 1]), a maximal stretch of
     * consecutive points in one class, so its members share one row;
     * `pairs` are the k-means++ block pairs.  The M-step accumulates
     * whole runs and k-means++ sums pairs (kmeans.cc).
     */
    std::vector<u32> runStart;
    BlockPairs pairs;

    /**
     * Size zero-filled padded storage for `classCount` rows and unit
     * weights for `points` points.
     */
    void
    allocate(std::size_t points, std::size_t classCount, u32 d)
    {
        dims = d;
        count = points;
        stride = simd::padded(d);
        classRows.assign(classCount * stride, 0.0);
        weights.assign(points, 1.0);
    }

    /** Number of duplicate classes. */
    std::size_t classes() const { return classFirst.size(); }

    /** Derive `runStart` and `pairs` from classOf and weights. */
    void buildRunIndex();

    /** Number of runs (0 before buildRunIndex()). */
    std::size_t
    runs() const
    {
        return runStart.empty() ? 0 : runStart.size() - 1;
    }

    /**
     * The run index spans exactly `count` points: it was built, and
     * no point was added or removed since.
     */
    bool
    runIndexCurrent() const
    {
        const std::size_t blocks = (count + drawBlock - 1) / drawBlock;
        return runs() > 0 && runStart.front() == 0 &&
               runStart.back() == count &&
               pairs.start.size() == blocks + 1 &&
               pairs.start.back() == pairs.cls.size() &&
               pairs.cls.size() == pairs.weight.size();
    }

    /** Doubles between row starts (tolerates unset stride). */
    std::size_t rowStride() const { return stride ? stride : dims; }

    /** Raw padded row of class `c` (kernel operand). */
    const double*
    classRow(std::size_t c) const
    {
        return classRows.data() + c * rowStride();
    }

    double*
    classRow(std::size_t c)
    {
        return classRows.data() + c * rowStride();
    }

    /** Raw padded row of point `i`: its class's row. */
    const double* row(std::size_t i) const { return classRow(classOf[i]); }

    /** Point `i`'s row over the true (unpadded) dimensions. */
    std::span<const double>
    point(std::size_t i) const
    {
        return {row(i), dims};
    }
};

/**
 * Project normalized frequency vectors to `dims` dimensions.  The
 * projection matrix is generated deterministically from `seed`.
 * Point weights are the interval instruction lengths rescaled to sum
 * to the number of points (so BIC formulas keep their usual scale).
 *
 * The set's stored rows are its duplicate classes (after
 * FrequencyVectorSet::normalize(), which folds rows that divided to
 * equal bits): class c is stored row c, `classOf` is `fvs.rowOf`, and
 * one vector per class is pushed through the projection matrix.  That
 * row is every member's row — bit-identical to projecting each
 * member (equal sparse vectors feed identical arithmetic) — so it is
 * stored once, at a fraction of the multiplies and memory, with the
 * class structure the clustering layer reads it through, and with
 * the run index (ProjectedData::buildRunIndex()).  Adds to the
 * `dedup.*` statistics.
 */
ProjectedData project(const FrequencyVectorSet& fvs, u32 dims,
                      u64 seed);

/**
 * Squared Euclidean distance between a row and a centroid, under the
 * pinned 4-lane reduction order of util/simd (bit-identical at any
 * --jobs).
 */
double sqDist(std::span<const double> a, std::span<const double> b);

} // namespace xbsp::sp

#endif // XBSP_SIMPOINT_PROJECTION_HH
