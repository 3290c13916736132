/**
 * @file
 * Lane-shaped kernels for the clustering hot paths: squared
 * distance, batched point-vs-centroids distance, axpy (one row, or
 * one row over a run of weights) and pinned sums over dense double
 * rows.
 *
 * **Determinism contract.**  Every reduction uses the *pinned 4-lane
 * order*: element i is accumulated into lane `i % 4` (elements in
 * increasing i order within each lane) and the four lane partials
 * are combined as `(l0 + l1) + (l2 + l3)`.  Elementwise kernels
 * (axpy, axpyRun) have no reduction and are defined elementwise.  All
 * arithmetic is plain IEEE-754 multiply/add, **never FMA**: a fused
 * multiply-add rounds once where mul+add rounds twice, so fusing
 * would change bits, and the golden report digests depend on these
 * exact bits.  The build pins `-ffp-contract=off` so the compiler
 * cannot fuse behind our back.  The 4-lane shape is also one
 * compilers can auto-vectorize without reassociating.
 *
 * **Padding.**  Rows padded with +0.0 to a multiple of the lane
 * count are transparent: a zero element contributes `(0-0)^2 = +0.0`
 * to a lane (sqDist/sum accumulators are never -0.0, so adding +0.0
 * is an exact no-op) and `w * 0.0 = +0.0` to an axpy destination that
 * holds +0.0.  Hence a kernel over a padded row of length
 * `padded(dims)` returns the same bits as over the unpadded `dims`
 * prefix — callers pad once (ProjectedData/KMeansResult rows) and
 * kernels then run tail-free.
 *
 * All kernels tolerate n == 0 (sqDist/sum return +0.0, axpy is a
 * no-op) and arbitrary, unpadded lengths.
 */

#ifndef XBSP_UTIL_SIMD_SIMD_HH
#define XBSP_UTIL_SIMD_SIMD_HH

#include <cstddef>
#include <new>
#include <string_view>
#include <vector>

namespace xbsp::simd
{

/** Reduction lanes of the pinned kernel semantics. */
inline constexpr std::size_t kLanes = 4;

/** Row alignment (bytes) of padded matrices: one 4-double vector. */
inline constexpr std::size_t kAlign = 32;

/** `n` rounded up to a multiple of the lane count. */
constexpr std::size_t
padded(std::size_t n)
{
    return (n + kLanes - 1) / kLanes * kLanes;
}

/**
 * Minimal aligned allocator so padded matrices hand the kernels
 * 32-byte-aligned rows without a custom container.
 */
template <typename T, std::size_t Align = kAlign>
struct AlignedAllocator
{
    using value_type = T;

    // The non-type Align parameter defeats allocator_traits' default
    // rebind deduction; spell it out.
    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    AlignedAllocator() = default;

    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept
    {
    }

    T*
    allocate(std::size_t n)
    {
        return static_cast<T*>(::operator new(
            n * sizeof(T), std::align_val_t(Align)));
    }

    void
    deallocate(T* p, std::size_t n) noexcept
    {
        ::operator delete(p, n * sizeof(T), std::align_val_t(Align));
    }

    template <typename U>
    bool
    operator==(const AlignedAllocator<U, Align>&) const noexcept
    {
        return true;
    }
};

/** Dense double storage with rows alignable to kAlign. */
using AlignedVec = std::vector<double, AlignedAllocator<double>>;

/** Squared Euclidean distance over n doubles (pinned reduction). */
double sqDist(const double* a, const double* b, std::size_t n);

/**
 * Distances from one point row to k matrix rows spaced `stride`
 * doubles apart, each over the first n doubles; out[c] is exactly
 * sqDist(point, rows + c * stride, n).
 */
void sqDistBatch(const double* point, const double* rows, std::size_t k,
                 std::size_t n, std::size_t stride, double* out);

/** dst[i] = dst[i] + a * src[i] for i in [0, n), elementwise. */
void axpy(double* dst, const double* src, double a, std::size_t n);

/**
 * One row added `count` times with weights `w`: for each i in
 * [0, count) in turn, dst[d] = dst[d] + w[i] * src[d] for d in
 * [0, n).  Every element sees the same operations in the same order
 * as `count` successive axpy(dst, src, w[i], n) calls, so the bits
 * are theirs, but dst is loaded and stored once: eight elements at a
 * time stay in registers across the whole run (the unrolled lane
 * loops keep them there; rolled, GCC keeps them on the stack).
 * Inline, so the M-step's run walk (sp::runKMeans) keeps it in its
 * loop.
 */
inline void
axpyRun(double* dst, const double* src, const double* w,
        std::size_t count, std::size_t n)
{
    constexpr std::size_t width = 8;
    std::size_t d = 0;
    for (; d + width <= n; d += width) {
        double acc[width];
        double x[width];
#pragma GCC unroll 8
        for (std::size_t l = 0; l < width; ++l) {
            acc[l] = dst[d + l];
            x[l] = src[d + l];
        }
        for (std::size_t i = 0; i < count; ++i) {
            const double a = w[i];
#pragma GCC unroll 8
            for (std::size_t l = 0; l < width; ++l)
                acc[l] = acc[l] + a * x[l];
        }
#pragma GCC unroll 8
        for (std::size_t l = 0; l < width; ++l)
            dst[d + l] = acc[l];
    }
    for (; d < n; ++d) {
        double acc = dst[d];
        for (std::size_t i = 0; i < count; ++i)
            acc = acc + w[i] * src[d];
        dst[d] = acc;
    }
}

/** Sum of n doubles under the pinned reduction order. */
double sum(const double* a, std::size_t n);

/**
 * Stateless name check kept for perfbench's xbspbench, its only
 * caller: true for "auto", "on", "scalar" and "off" (there is one
 * kernel set, so every accepted name means the same thing); warns
 * and returns false on anything else.
 */
bool select(std::string_view mode);

} // namespace xbsp::simd

#endif // XBSP_UTIL_SIMD_SIMD_HH
