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
 * Dense, row-major projected data plus per-point weights.  Rows are
 * padded with +0.0 to `stride = simd::padded(dims)` doubles and the
 * storage is 32-byte aligned, so the lane kernels run tail-free
 * over whole rows (padding is bit-transparent — see util/simd).
 */
struct ProjectedData
{
    u32 dims = 0;
    std::size_t count = 0;
    std::size_t stride = 0;       ///< doubles between row starts
    simd::AlignedVec points;      ///< count x stride, row-major
    std::vector<double> weights;  ///< per point; sums to count

    /**
     * Duplicate-class structure (project() always attaches it):
     * classOf[i] is the duplicate class of point i, classFirst[c] the
     * lowest point index in class c.  Rows of one class are
     * bit-identical, so per-class computations stand in exactly for
     * per-point ones (see kmeans.cc).  Data without duplicates has
     * one singleton class per point.
     */
    std::vector<u32> classOf;
    std::vector<u32> classFirst;

    /** Size `count` x `dims` zero-filled padded storage. */
    void
    allocate(std::size_t n, u32 d)
    {
        dims = d;
        count = n;
        stride = simd::padded(d);
        points.assign(n * stride, 0.0);
        weights.assign(n, 1.0);
    }

    /** Doubles between row starts (tolerates unset stride). */
    std::size_t rowStride() const { return stride ? stride : dims; }

    /** Raw padded row (kernel operand). */
    const double*
    row(std::size_t i) const
    {
        return points.data() + i * rowStride();
    }

    double* row(std::size_t i) { return points.data() + i * rowStride(); }

    /** Row accessor over the true (unpadded) dimensions. */
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
 * dedup), only one vector per class is pushed through the projection
 * matrix and the resulting row is copied to the class members —
 * bit-identical to projecting each member (equal sparse vectors feed
 * identical arithmetic) at a fraction of the multiplies — and the
 * class structure is attached to the result for the clustering layer.
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
