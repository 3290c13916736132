#include "util/stats.hh"

#include <cmath>

#include "util/logging.hh"

namespace xbsp
{

double
mean(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
stddev(std::span<const double> xs)
{
    if (xs.size() < 2)
        return 0.0;
    const double m = mean(xs);
    double acc = 0.0;
    for (double x : xs)
        acc += (x - m) * (x - m);
    return std::sqrt(acc / static_cast<double>(xs.size()));
}

double
weightedMean(std::span<const double> xs, std::span<const double> ws)
{
    if (xs.size() != ws.size())
        panic("weightedMean: {} values vs {} weights",
              xs.size(), ws.size());
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        num += xs[i] * ws[i];
        den += ws[i];
    }
    return den != 0.0 ? num / den : 0.0;
}

double
relativeError(double truth, double estimate)
{
    if (truth == 0.0)
        return std::fabs(estimate - truth);
    return std::fabs((truth - estimate) / truth);
}

double
signedRelativeError(double truth, double estimate)
{
    if (truth == 0.0)
        return estimate - truth;
    return (estimate - truth) / truth;
}

void
RunningStat::add(double x)
{
    if (n == 0) {
        lo = hi = x;
    } else {
        if (x < lo)
            lo = x;
        if (x > hi)
            hi = x;
    }
    ++n;
    sum += x;
    sumSq += x * x;
}

double
RunningStat::stddev() const
{
    if (n < 2)
        return 0.0;
    const double m = mean();
    const double var = sumSq / static_cast<double>(n) - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

} // namespace xbsp
