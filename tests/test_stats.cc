/**
 * @file
 * Unit tests for the numeric helper functions.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/stats.hh"

using namespace xbsp;

TEST(Stats, Mean)
{
    std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
    EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, Stddev)
{
    std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_NEAR(stddev(xs), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(stddev(std::vector<double>{3.0}), 0.0);
}

TEST(Stats, WeightedMean)
{
    std::vector<double> xs{1.0, 3.0};
    std::vector<double> ws{1.0, 3.0};
    EXPECT_DOUBLE_EQ(weightedMean(xs, ws), 2.5);
    std::vector<double> zeros{0.0, 0.0};
    EXPECT_DOUBLE_EQ(weightedMean(xs, zeros), 0.0);
}

TEST(Stats, WeightedMeanSizeMismatchPanics)
{
    std::vector<double> xs{1.0, 3.0};
    std::vector<double> ws{1.0};
    EXPECT_DEATH((void)weightedMean(xs, ws), "weights");
}

TEST(Stats, RelativeError)
{
    EXPECT_DOUBLE_EQ(relativeError(2.0, 1.0), 0.5);
    EXPECT_DOUBLE_EQ(relativeError(2.0, 3.0), 0.5);
    EXPECT_DOUBLE_EQ(relativeError(2.0, 2.0), 0.0);
    // Zero truth falls back to absolute difference.
    EXPECT_DOUBLE_EQ(relativeError(0.0, 0.25), 0.25);
}

TEST(Stats, SignedRelativeError)
{
    EXPECT_DOUBLE_EQ(signedRelativeError(2.0, 1.0), -0.5);
    EXPECT_DOUBLE_EQ(signedRelativeError(2.0, 3.0), 0.5);
}

TEST(Stats, RunningStat)
{
    RunningStat rs;
    EXPECT_EQ(rs.count(), 0u);
    EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
    for (double x : {2.0, 4.0, 6.0})
        rs.add(x);
    EXPECT_EQ(rs.count(), 3u);
    EXPECT_DOUBLE_EQ(rs.mean(), 4.0);
    EXPECT_DOUBLE_EQ(rs.min(), 2.0);
    EXPECT_DOUBLE_EQ(rs.max(), 6.0);
    EXPECT_NEAR(rs.stddev(), std::sqrt(8.0 / 3.0), 1e-12);
}
