/**
 * @file
 * Statistics primitives: counters, mean accumulators, and log-linear
 * histograms with quantile queries (used for the 95th-percentile tail
 * latency of Figure 11).
 */

#ifndef HADES_COMMON_STATS_HH_
#define HADES_COMMON_STATS_HH_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "common/types.hh"

namespace hades::stats
{

/** Running mean/min/max accumulator. */
class Accumulator
{
  public:
    void
    add(double v)
    {
        sum_ += v;
        count_ += 1;
        min_ = count_ == 1 ? v : std::min(min_, v);
        max_ = count_ == 1 ? v : std::max(max_, v);
    }

    /** Fold another accumulator's samples into this one. */
    void
    merge(const Accumulator &o)
    {
        if (o.count_ == 0)
            return;
        if (count_ == 0) {
            *this = o;
            return;
        }
        sum_ += o.sum_;
        count_ += o.count_;
        min_ = std::min(min_, o.min_);
        max_ = std::max(max_, o.max_);
    }

    double mean() const { return count_ ? sum_ / double(count_) : 0.0; }
    std::uint64_t count() const { return count_; }
    double min() const { return min_; }
    double max() const { return max_; }

    void reset() { *this = Accumulator{}; }

  private:
    double sum_ = 0;
    std::uint64_t count_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/**
 * Log-linear histogram over non-negative 64-bit values.
 *
 * Each power-of-two decade is split into kSubBuckets linear buckets,
 * giving a bounded relative error on quantiles (< 1/kSubBuckets) with a
 * small fixed memory footprint -- the same scheme HdrHistogram uses.
 */
class Histogram
{
  public:
    static constexpr int kSubBuckets = 32;
    static constexpr int kDecades = 50;

    void
    add(std::uint64_t v)
    {
        acc_.add(double(v));
        buckets_[indexOf(v)] += 1;
    }

    std::uint64_t count() const { return acc_.count(); }
    double mean() const { return acc_.mean(); }

    /** Value at quantile q in [0,1]; returns a bucket-representative. */
    std::uint64_t
    quantile(double q) const
    {
        if (acc_.count() == 0)
            return 0;
        auto target = static_cast<std::uint64_t>(q * double(acc_.count()));
        if (target >= acc_.count())
            target = acc_.count() - 1;
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < buckets_.size(); ++i) {
            seen += buckets_[i];
            if (seen > target)
                return representative(i);
        }
        return representative(buckets_.size() - 1);
    }

    std::uint64_t p50() const { return quantile(0.50); }
    std::uint64_t p95() const { return quantile(0.95); }
    std::uint64_t p99() const { return quantile(0.99); }

    void
    reset()
    {
        acc_.reset();
        buckets_.fill(0);
    }

    /** Merge another histogram into this one. */
    void
    merge(const Histogram &other)
    {
        for (std::size_t i = 0; i < buckets_.size(); ++i)
            buckets_[i] += other.buckets_[i];
        acc_.merge(other.acc_);
    }

  private:
    static std::size_t
    indexOf(std::uint64_t v)
    {
        if (v < kSubBuckets)
            return static_cast<std::size_t>(v);
        int msb = 63 - std::countl_zero(v);
        int decade = msb - 4; // log2(kSubBuckets) - 1
        auto sub =
            static_cast<std::size_t>((v >> decade) & (kSubBuckets - 1));
        auto idx = static_cast<std::size_t>(decade) * kSubBuckets + sub +
                   kSubBuckets;
        return std::min(idx, std::size_t{kDecades * kSubBuckets - 1});
    }

    static std::uint64_t
    representative(std::size_t idx)
    {
        if (idx < kSubBuckets)
            return idx;
        idx -= kSubBuckets;
        auto decade = static_cast<int>(idx / kSubBuckets);
        auto sub = idx % kSubBuckets;
        // sub = (v >> decade) & 31 still carries the leading bit of v
        // (it always falls in [16, 32)), so the representative is just
        // sub scaled back up.
        return std::uint64_t{sub} << decade;
    }

    Accumulator acc_;
    std::array<std::uint64_t, kDecades * kSubBuckets> buckets_{};
};

} // namespace hades::stats

#endif // HADES_COMMON_STATS_HH_
