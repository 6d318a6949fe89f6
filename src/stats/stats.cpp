#include "stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace ringsim::stats {

void
Sampler::add(double x)
{
    ++count_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
Sampler::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
Sampler::stddev() const
{
    return std::sqrt(variance());
}

void
Sampler::reset()
{
    *this = Sampler();
}

Histogram::Histogram(double lo, double hi, size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0)
{
    if (buckets == 0 || hi <= lo)
        panic("Histogram requires hi > lo and at least one bucket");
    width_ = (hi - lo) / static_cast<double>(buckets);
}

void
Histogram::add(double x)
{
    ++total_;
    if (x < lo_) {
        ++underflow_;
    } else if (x >= hi_) {
        ++overflow_;
    } else {
        auto idx = static_cast<size_t>((x - lo_) / width_);
        if (idx >= counts_.size())
            idx = counts_.size() - 1;
        ++counts_[idx];
    }
}

Count
Histogram::bucketCount(size_t i) const
{
    if (i >= counts_.size())
        panic("Histogram bucket %zu out of range", i);
    return counts_[i];
}

double
Histogram::bucketLo(size_t i) const
{
    return lo_ + width_ * static_cast<double>(i);
}

double
Histogram::quantile(double q) const
{
    if (total_ == 0)
        return lo_;
    q = std::clamp(q, 0.0, 1.0);
    auto target = static_cast<Count>(q * static_cast<double>(total_));
    Count seen = underflow_;
    if (seen > target)
        return lo_;
    for (size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (seen > target) {
            // Linear interpolation inside the bucket.
            Count before = seen - counts_[i];
            double frac = counts_[i]
                ? static_cast<double>(target - before) /
                      static_cast<double>(counts_[i])
                : 0.0;
            return bucketLo(i) + frac * width_;
        }
    }
    return hi_;
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    underflow_ = overflow_ = total_ = 0;
}

} // namespace ringsim::stats
