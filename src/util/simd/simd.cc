#include "util/simd/simd.hh"

#include "util/logging.hh"

namespace xbsp::simd
{

double
sqDist(const double* a, const double* b, std::size_t n)
{
    double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l) {
            const double d = a[i + l] - b[i + l];
            acc[l] = acc[l] + d * d;
        }
    }
    for (; i < n; ++i) {
        const double d = a[i] - b[i];
        acc[i % kLanes] = acc[i % kLanes] + d * d;
    }
    return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

void
sqDistBatch(const double* point, const double* rows, std::size_t k,
            std::size_t n, std::size_t stride, double* out)
{
    for (std::size_t c = 0; c < k; ++c)
        out[c] = sqDist(point, rows + c * stride, n);
}

void
axpy(double* dst, const double* src, double a, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = dst[i] + a * src[i];
}

double
sum(const double* a, std::size_t n)
{
    double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l)
            acc[l] = acc[l] + a[i + l];
    }
    for (; i < n; ++i)
        acc[i % kLanes] = acc[i % kLanes] + a[i];
    return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

bool
select(std::string_view mode)
{
    if (mode == "auto" || mode == "on" || mode == "scalar" ||
        mode == "off")
        return true;
    warn("unknown simd mode '{}' (auto|on|scalar|off)", mode);
    return false;
}

} // namespace xbsp::simd
