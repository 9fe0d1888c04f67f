// Online statistics and histogram utilities used by the metric collectors:
// per-operation blocking-time accumulators (throughput figures), prefetch
// distance series (Fig. 7) and latency percentiles for the ablations.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
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

/// Log-bucketed histogram for latency distributions: buckets are uniform in
/// log10(x) with `buckets_per_decade` buckets per decade over [lo, hi).
/// Values below lo (including non-positive) land in the first bucket,
/// values >= hi in the last. Defaults cover 100ns..1000s in seconds — wide
/// enough for any per-stage latency the engine measures.
class LogHistogram {
 public:
  explicit LogHistogram(double lo = 1e-7, double hi = 1e3,
                        std::size_t buckets_per_decade = 4);

  void Add(double x) noexcept;
  /// Accumulates another histogram with the same shape; mismatched shapes
  /// fold into min/max/total only (counts of `other` are re-added by value
  /// bucket using each bucket's lower edge).
  void Merge(const LogHistogram& other) noexcept;

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t num_buckets() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const { return counts_.at(i); }
  /// Lower edge of bucket i in value units.
  [[nodiscard]] double bucket_lo(std::size_t i) const noexcept;
  [[nodiscard]] double min() const noexcept { return total_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return total_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return total_ ? sum_ / static_cast<double>(total_) : 0.0;
  }
  /// Approximate percentile (bucket lower-edge interpolation); p in [0,100].
  [[nodiscard]] double Percentile(double p) const noexcept;

  [[nodiscard]] bool SameShape(const LogHistogram& other) const noexcept {
    return lo_ == other.lo_ && buckets_per_decade_ == other.buckets_per_decade_ &&
           counts_.size() == other.counts_.size();
  }

 private:
  double lo_, log_lo_;
  std::size_t buckets_per_decade_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Formats a byte rate as a human-readable string ("25.0 GB/s").
[[nodiscard]] std::string FormatRate(double bytes_per_sec);
/// Formats a byte size ("4.0 MB").
[[nodiscard]] std::string FormatBytes(double bytes);

}  // namespace ckpt::util
