// Online statistics and histogram utilities used by the metric collectors:
// per-operation blocking-time accumulators (throughput figures), prefetch
// distance series (Fig. 7) and latency percentiles for the ablations.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

namespace ckpt::util {

/// Reservoir of raw samples with exact percentiles. Fine for the volumes we
/// record (hundreds of operations per shot).
class SampleSeries {
 public:
  void Add(double x) { samples_.push_back(x); }
  void Reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] const std::vector<double>& samples() const noexcept { return samples_; }

  /// Exact percentile with linear interpolation; p in [0, 100].
  [[nodiscard]] double Percentile(double p) const;
  [[nodiscard]] double Sum() const;
  [[nodiscard]] double Mean() const;
  [[nodiscard]] double Min() const;
  [[nodiscard]] double Max() const;

 private:
  std::vector<double> samples_;
};

/// Fixed-edge latency histogram in seconds, the one histogram shape of
/// every report: the per-stage times in RankMetrics and the durability-lag
/// family alike. Bucket i counts samples in (kEdgesS[i-1], kEdgesS[i]] (the
/// OpenMetrics `le` convention); the last bucket is +Inf. Half-decade edges
/// from 1 us to 100 s, so sub-100 us stage times keep their own buckets.
class Histogram {
 public:
  static constexpr double kEdgesS[] = {
      1e-6,   3.16e-6, 1e-5,  3.16e-5, 1e-4, 3.16e-4, 1e-3, 3.16e-3, 0.01,
      0.0316, 0.1,     0.316, 1.0,     3.16, 10.0,    31.6, 100.0};
  /// Bucket count including the trailing +Inf bucket.
  static constexpr std::size_t kBuckets = std::size(kEdgesS) + 1;
  using Counts = std::array<std::uint64_t, kBuckets>;

  /// Bucket of a `seconds` sample: the first whose upper edge covers it,
  /// else the +Inf bucket.
  [[nodiscard]] static std::size_t BucketOf(double seconds) noexcept {
    return static_cast<std::size_t>(
        std::lower_bound(std::begin(kEdgesS), std::end(kEdgesS), seconds) -
        std::begin(kEdgesS));
  }
  /// A histogram over already-bucketed counts (the engine's lag cells).
  [[nodiscard]] static Histogram FromCounts(const Counts& counts,
                                            double sum_s) noexcept;

  void Add(double seconds) noexcept {
    ++counts_[BucketOf(seconds)];
    ++total_;
    sum_ += seconds;
  }
  void Merge(const Histogram& other) noexcept;

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// Sum of the samples, in seconds.
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return total_ ? sum_ / static_cast<double>(total_) : 0.0;
  }
  [[nodiscard]] const Counts& counts() const noexcept { return counts_; }
  /// Upper edge of the bucket holding the p-th percentile sample (nearest
  /// rank), p in [0, 100]. A sample in the +Inf bucket reports the last
  /// finite edge, a lower bound. 0 when empty.
  [[nodiscard]] double Percentile(double p) const noexcept;

 private:
  Counts counts_{};
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

/// Formats a byte rate as a human-readable string ("25.0 GB/s").
[[nodiscard]] std::string FormatRate(double bytes_per_sec);
/// Formats a byte size ("4.0 MB").
[[nodiscard]] std::string FormatBytes(double bytes);

}  // namespace ckpt::util
