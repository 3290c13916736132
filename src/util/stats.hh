/**
 * @file
 * Small numeric helpers shared by the clustering code and the
 * experiment harness: means, weighted means, relative errors and a
 * streaming accumulator.
 */

#ifndef XBSP_UTIL_STATS_HH
#define XBSP_UTIL_STATS_HH

#include <cstddef>
#include <span>
#include <vector>

namespace xbsp
{

/** Arithmetic mean; returns 0 for an empty span. */
double mean(std::span<const double> xs);

/** Population standard deviation; returns 0 for fewer than 2 items. */
double stddev(std::span<const double> xs);

/**
 * Weighted arithmetic mean.  Weights need not be normalized; the
 * function divides by their sum.  Returns 0 when the weight sum is 0.
 */
double weightedMean(std::span<const double> xs,
                    std::span<const double> ws);

/**
 * Relative error |(truth - estimate) / truth|, the error metric used
 * throughout the paper's evaluation.  Returns the absolute difference
 * when truth == 0 to stay finite.
 */
double relativeError(double truth, double estimate);

/**
 * Signed bias (estimate - truth) / truth, used for the per-phase bias
 * tables (Tables 2 and 3), where the *sign* of the error matters.
 */
double signedRelativeError(double truth, double estimate);

/** Streaming mean/min/max/stddev accumulator. */
class RunningStat
{
  public:
    /** Fold one sample into the accumulator. */
    void add(double x);

    /** Number of samples seen. */
    std::size_t count() const { return n; }

    /** Mean of samples seen (0 if none). */
    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }

    /** Population standard deviation of samples seen. */
    double stddev() const;

    /** Smallest sample seen (0 if none). */
    double min() const { return n ? lo : 0.0; }

    /** Largest sample seen (0 if none). */
    double max() const { return n ? hi : 0.0; }

  private:
    std::size_t n = 0;
    double sum = 0.0;
    double sumSq = 0.0;
    double lo = 0.0;
    double hi = 0.0;
};

} // namespace xbsp

#endif // XBSP_UTIL_STATS_HH
