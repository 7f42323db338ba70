// Log-linear histogram: power-of-two major buckets, each split into eight
// linear sub-buckets (HdrHistogram's layout in miniature).
//
// Constant memory (496 buckets covers the full uint64 range), and relative
// error within a bucket is bounded by 1/8 (a pure power-of-two layout would
// allow 2x), which makes the reported quantiles usable for regression
// tracking. Values are unitless;
// the metric name carries the unit (rule of the house: "_ns", "_bytes").
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

namespace barb::telemetry {

class Histogram {
 public:
  static constexpr int kSubBucketBits = 3;
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBucketBits;  // 8
  // Values 0..7 are exact; above that, 8 sub-buckets per power of two up to
  // 2^63: 8 + (63 - 3) * 8 + 8 = 496 buckets.
  static constexpr int kNumBuckets = 496;

  void record(std::uint64_t value) {
    ++counts_[index_of(value)];
    ++count_;
    sum_ += static_cast<double>(value);
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  // Convenience for floating-point samples; negatives clamp to zero.
  void record_double(double value) {
    if (value < 0) value = 0;
    record(static_cast<std::uint64_t>(std::llround(value)));
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }

  // Quantile estimate, q in [0, 1]; linear interpolation inside the bucket,
  // clamped to the exact observed [min, max].
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(count_);
    double cum = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      const double c = static_cast<double>(counts_[static_cast<std::size_t>(i)]);
      if (c == 0) continue;
      if (cum + c >= target) {
        const double frac = c == 0 ? 0.0 : (target - cum) / c;
        const double lo = static_cast<double>(bucket_lower(i));
        const double hi = static_cast<double>(bucket_upper(i));
        const double v = lo + frac * (hi - lo);
        return std::clamp(v, static_cast<double>(min_), static_cast<double>(max_));
      }
      cum += c;
    }
    return static_cast<double>(max_);
  }

  void clear() {
    counts_.fill(0);
    count_ = 0;
    sum_ = 0;
    min_ = ~0ull;
    max_ = 0;
  }

  // Visits every non-empty bucket as (lower, upper, count), ascending.
  template <typename Fn>
  void for_each_bucket(Fn&& fn) const {
    for (int i = 0; i < kNumBuckets; ++i) {
      const std::uint64_t c = counts_[static_cast<std::size_t>(i)];
      if (c != 0) fn(bucket_lower(i), bucket_upper(i), c);
    }
  }

  static int index_of(std::uint64_t value) {
    if (value < kSubBuckets) return static_cast<int>(value);
    const int exponent = 63 - __builtin_clzll(value);
    const std::uint64_t sub =
        (value >> (exponent - kSubBucketBits)) - kSubBuckets;  // 0..7
    return static_cast<int>(kSubBuckets) +
           (exponent - kSubBucketBits) * static_cast<int>(kSubBuckets) +
           static_cast<int>(sub);
  }

  static std::uint64_t bucket_lower(int index) {
    if (index < static_cast<int>(kSubBuckets)) return static_cast<std::uint64_t>(index);
    const int block = (index - static_cast<int>(kSubBuckets)) / static_cast<int>(kSubBuckets);
    const int sub = (index - static_cast<int>(kSubBuckets)) % static_cast<int>(kSubBuckets);
    return (kSubBuckets + static_cast<std::uint64_t>(sub)) << block;
  }

  static std::uint64_t bucket_upper(int index) {
    if (index < static_cast<int>(kSubBuckets)) return static_cast<std::uint64_t>(index) + 1;
    const int block = (index - static_cast<int>(kSubBuckets)) / static_cast<int>(kSubBuckets);
    return bucket_lower(index) + (1ull << block);
  }

 private:
  std::array<std::uint64_t, kNumBuckets> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

}  // namespace barb::telemetry
