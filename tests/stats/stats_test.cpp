/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "src/stats/stats.hpp"

namespace ringsim::stats {
namespace {

TEST(Counter, StartsAtZero)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, IncrementAndReset)
{
    Counter c;
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Sampler, EmptyIsSafe)
{
    Sampler s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Sampler, MeanAndSum)
{
    Sampler s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_EQ(s.count(), 4u);
}

TEST(Sampler, VarianceMatchesTextbook)
{
    Sampler s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    // Population variance is 4; sample variance is 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Sampler, MinMax)
{
    Sampler s;
    s.add(5);
    s.add(-2);
    s.add(3);
    EXPECT_EQ(s.min(), -2.0);
    EXPECT_EQ(s.max(), 5.0);
}

TEST(Sampler, Reset)
{
    Sampler s;
    s.add(1);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(Sampler, LargeStreamStable)
{
    Sampler s;
    for (int i = 0; i < 100000; ++i)
        s.add(7.0);
    EXPECT_NEAR(s.mean(), 7.0, 1e-9);
    EXPECT_NEAR(s.variance(), 0.0, 1e-9);
}

TEST(Histogram, BucketsAndEdges)
{
    Histogram h(0.0, 10.0, 5);
    EXPECT_EQ(h.buckets(), 5u);
    EXPECT_DOUBLE_EQ(h.bucketLo(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketLo(4), 8.0);
}

TEST(Histogram, CountsIntoRightBuckets)
{
    Histogram h(0.0, 10.0, 5);
    h.add(0.5);
    h.add(1.9);
    h.add(2.0);
    h.add(9.99);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, UnderOverflow)
{
    Histogram h(0.0, 10.0, 5);
    h.add(-1.0);
    h.add(10.0);
    h.add(100.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, QuantileUniform)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(i + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 2.0);
}

TEST(Histogram, Reset)
{
    Histogram h(0.0, 1.0, 2);
    h.add(0.5);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.bucketCount(0), 0u);
}

TEST(HistogramDeathTest, BadGeometryPanics)
{
    EXPECT_DEATH(Histogram(1.0, 0.0, 4), "hi > lo");
    EXPECT_DEATH(Histogram(0.0, 1.0, 0), "bucket");
}

} // namespace
} // namespace ringsim::stats
