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
 * Rows are grouped into duplicate classes first (FrequencyVectorSet::
 * dedup) and one vector per class is pushed through the projection
 * matrix.  That row is every member's row — bit-identical to
 * projecting each member (equal sparse vectors feed identical
 * arithmetic) — so it is stored once, at a fraction of the
 * multiplies and memory, with the class structure the clustering
 * layer reads it through.
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
