/**
 * @file
 * Lightweight statistics primitives used by every simulator component.
 *
 * Deliberately small: counters, running means (Welford) and
 * histograms.
 */

#ifndef RINGSIM_STATS_STATS_HPP
#define RINGSIM_STATS_STATS_HPP

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/units.hpp"

namespace ringsim::stats {

/** Monotonically increasing event counter. */
class Counter
{
  public:
    /** Increment by @p n (default 1). */
    void inc(Count n = 1) { value_ += n; }

    /** Current count. */
    Count value() const { return value_; }

    /** Reset to zero. */
    void reset() { value_ = 0; }

  private:
    Count value_ = 0;
};

/**
 * Running sample statistics: count, mean, variance (Welford's online
 * algorithm), min and max. Used for latency distributions.
 */
class Sampler
{
  public:
    /** Record one sample. */
    void add(double x);

    /** Number of samples recorded. */
    Count count() const { return count_; }

    /** Sample mean (0 when empty). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Unbiased sample variance (0 with < 2 samples). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Sum of all samples. */
    double sum() const { return sum_; }

    /** Smallest sample (+inf when empty). */
    double min() const { return min_; }

    /** Largest sample (-inf when empty). */
    double max() const { return max_; }

    /** Discard all samples. */
    void reset();

  private:
    Count count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-width linear histogram with underflow/overflow buckets.
 */
class Histogram
{
  public:
    /**
     * @param lo lower edge of the first bucket.
     * @param hi upper edge of the last bucket.
     * @param buckets number of equal-width buckets between lo and hi.
     */
    Histogram(double lo, double hi, size_t buckets);

    /** Record one sample. */
    void add(double x);

    /** Count in bucket @p i (0-based). */
    Count bucketCount(size_t i) const;

    /** Samples below the first bucket. */
    Count underflow() const { return underflow_; }

    /** Samples at or above the last bucket edge. */
    Count overflow() const { return overflow_; }

    /** Total samples including under/overflow. */
    Count total() const { return total_; }

    /** Number of buckets. */
    size_t buckets() const { return counts_.size(); }

    /** Lower edge of bucket @p i. */
    double bucketLo(size_t i) const;

    /** Value below which fraction @p q of samples fall (approximate). */
    double quantile(double q) const;

    /** Discard all samples. */
    void reset();

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<Count> counts_;
    Count underflow_ = 0;
    Count overflow_ = 0;
    Count total_ = 0;
};

} // namespace ringsim::stats

#endif // RINGSIM_STATS_STATS_HPP
