/**
 * @file
 * Bit-exactness guard for the clustering kernels: every reduction
 * must return the *same bits* as a naive loop written here that
 * accumulates element i into lane `i % 4` and combines the lanes as
 * `(l0 + l1) + (l2 + l3)` — on odd lengths, ±0.0, denormals, empty
 * and single-element inputs — axpyRun must equal one axpy per
 * weight, and padding rows with +0.0 must be exactly transparent.
 * The golden report digests rest on these bits; test_clustering_equiv
 * checks them end to end.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "util/rng.hh"
#include "util/simd/simd.hh"

using namespace xbsp;

namespace
{

u64
bits(double v)
{
    u64 out;
    std::memcpy(&out, &v, sizeof(out));
    return out;
}

/** Lengths hitting every tail residue plus a few large sizes. */
const std::size_t kLengths[] = {0,  1,  2,  3,  4,   5,   7,  8,
                                9,  11, 13, 16, 31,  33,  64, 100,
                                255, 1023};

simd::AlignedVec
randomVec(std::size_t n, u64 seed)
{
    Rng rng(seed);
    simd::AlignedVec v(n);
    for (double& x : v)
        x = rng.nextDouble(-3.0, 3.0);
    return v;
}

/** The pinned order, spelled out one element at a time. */
double
laneSum(const double* a, const double* b, std::size_t n)
{
    double lane[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
        const double term = b ? (a[i] - b[i]) * (a[i] - b[i]) : a[i];
        lane[i % 4] = lane[i % 4] + term;
    }
    return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

} // namespace

TEST(Simd, SqDistMatchesPinnedLaneOrder)
{
    for (const std::size_t n : kLengths) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const simd::AlignedVec a = randomVec(n, 1000 + n);
        const simd::AlignedVec b = randomVec(n, 2000 + n);
        EXPECT_EQ(bits(simd::sqDist(a.data(), b.data(), n)),
                  bits(laneSum(a.data(), b.data(), n)));
    }
}

TEST(Simd, SumAndAxpyMatchPinnedLaneOrder)
{
    for (const std::size_t n : kLengths) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const simd::AlignedVec a = randomVec(n, 3000 + n);
        EXPECT_EQ(bits(simd::sum(a.data(), n)),
                  bits(laneSum(a.data(), nullptr, n)));

        const simd::AlignedVec src = randomVec(n, 4000 + n);
        simd::AlignedVec dst = randomVec(n, 5000 + n);
        const simd::AlignedVec before = dst;
        simd::axpy(dst.data(), src.data(), 1.7, n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(bits(dst[i]), bits(before[i] + 1.7 * src[i]))
                << "i=" << i;
    }
}

/**
 * axpyRun is one axpy per weight, bit for bit: every run length from
 * 0 to 300, unpadded and padded row lengths around the 8-element
 * register block, and weights that are 0, -0, subnormal, negative or
 * near 2^1000, mixed with ordinary ones.
 */
TEST(Simd, AxpyRunMatchesSuccessiveAxpy)
{
    const double denorm = std::numeric_limits<double>::denorm_min();
    const double special[] = {0.0,    -0.0,         denorm,
                              -denorm, 37 * denorm, 0x1p-1030,
                              0x1p1000, -0x1.8p999, 0x1.fffp1000};
    Rng rng(8080);
    for (const std::size_t dims : {1ul, 3ul, 7ul, 8ul, 9ul, 15ul, 17ul}) {
        for (const std::size_t n : {dims, simd::padded(dims)}) {
            simd::AlignedVec src = randomVec(dims, 9000 + dims);
            src.resize(n, +0.0);
            for (std::size_t count = 0; count <= 300; ++count) {
                SCOPED_TRACE("n=" + std::to_string(n) +
                             " count=" + std::to_string(count));
                std::vector<double> w(count);
                for (double& v : w) {
                    v = rng.nextBelow(3) == 0
                            ? special[rng.nextBelow(std::size(special))]
                            : rng.nextDouble(0.0, 2.0);
                }
                simd::AlignedVec want =
                    count % 2 ? randomVec(n, count) : simd::AlignedVec(n);
                simd::AlignedVec got = want;
                for (const double v : w)
                    simd::axpy(want.data(), src.data(), v, n);
                simd::axpyRun(got.data(), src.data(), w.data(), count, n);
                for (std::size_t d = 0; d < n; ++d)
                    ASSERT_EQ(bits(got[d]), bits(want[d])) << "d=" << d;
            }
        }
    }
}

TEST(Simd, BatchMatchesSingleRowKernel)
{
    for (const std::size_t dims : {1ul, 3ul, 8ul, 15ul}) {
        const std::size_t stride = simd::padded(dims);
        const std::size_t k = 7;
        const simd::AlignedVec point = randomVec(stride, 42 + dims);
        simd::AlignedVec rows(k * stride, 0.0);
        for (std::size_t c = 0; c < k; ++c) {
            const simd::AlignedVec row = randomVec(dims, 77 * c + dims);
            std::copy(row.begin(), row.end(),
                      rows.begin() + c * stride);
        }
        std::vector<double> out(k, -1.0);
        simd::sqDistBatch(point.data(), rows.data(), k, stride, stride,
                          out.data());
        for (std::size_t c = 0; c < k; ++c) {
            SCOPED_TRACE("dims=" + std::to_string(dims) +
                         " c=" + std::to_string(c));
            EXPECT_EQ(bits(out[c]),
                      bits(simd::sqDist(point.data(),
                                        rows.data() + c * stride,
                                        stride)));
        }
    }
}

TEST(Simd, SpecialValuesMatchPinnedLaneOrder)
{
    const double denorm = std::numeric_limits<double>::denorm_min();
    const simd::AlignedVec a{+0.0, -0.0, denorm,  -denorm, 1e-308,
                             -0.0, +0.0, -denorm, denorm};
    const simd::AlignedVec b{-0.0, +0.0, -denorm, denorm,  -1e-308,
                             +0.0, -0.0, denorm,  -denorm};
    for (std::size_t n = 0; n <= a.size(); ++n) {
        SCOPED_TRACE("n=" + std::to_string(n));
        EXPECT_EQ(bits(simd::sqDist(a.data(), b.data(), n)),
                  bits(laneSum(a.data(), b.data(), n)));
        EXPECT_EQ(bits(simd::sum(a.data(), n)),
                  bits(laneSum(a.data(), nullptr, n)));
    }
}

TEST(Simd, EmptyAndSingleElementInputs)
{
    // n == 0: exactly +0.0, never -0.0 or garbage.
    EXPECT_EQ(bits(simd::sqDist(nullptr, nullptr, 0)), bits(+0.0));
    EXPECT_EQ(bits(simd::sum(nullptr, 0)), bits(+0.0));
    simd::axpy(nullptr, nullptr, 2.0, 0); // must not touch memory
    simd::axpyRun(nullptr, nullptr, nullptr, 0, 0);

    const double a = 1.5, b = -0.25;
    EXPECT_EQ(bits(simd::sqDist(&a, &b, 1)), bits((a - b) * (a - b)));
    EXPECT_EQ(bits(simd::sum(&a, 1)), bits(a));
}

TEST(Simd, PaddingWithPositiveZeroIsTransparent)
{
    for (const std::size_t n : {1ul, 3ul, 5ul, 13ul, 15ul}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const std::size_t padded = simd::padded(n);
        simd::AlignedVec a = randomVec(n, 6000 + n);
        simd::AlignedVec b = randomVec(n, 7000 + n);
        a.resize(padded, +0.0);
        b.resize(padded, +0.0);
        EXPECT_EQ(bits(simd::sqDist(a.data(), b.data(), padded)),
                  bits(simd::sqDist(a.data(), b.data(), n)));
        EXPECT_EQ(bits(simd::sum(a.data(), padded)),
                  bits(simd::sum(a.data(), n)));

        // axpy over the padded length must leave +0.0 padding intact.
        simd::AlignedVec dst(padded, +0.0);
        simd::axpy(dst.data(), a.data(), -2.5, padded);
        for (std::size_t i = n; i < padded; ++i)
            EXPECT_EQ(bits(dst[i]), bits(+0.0)) << "i=" << i;
    }
}

TEST(Simd, SelectChecksNames)
{
    for (const char* mode : {"auto", "on", "scalar", "off"})
        EXPECT_TRUE(simd::select(mode)) << mode;
    for (const char* mode : {"avx2", "neon", "bogus-mode", ""})
        EXPECT_FALSE(simd::select(mode)) << mode;
}
