#include "util/stats.hpp"

#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace ckpt::util {

double SampleSeries::Percentile(double p) const {
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double SampleSeries::Sum() const {
  return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

double SampleSeries::Mean() const {
  return samples_.empty() ? 0.0 : Sum() / static_cast<double>(samples_.size());
}

double SampleSeries::Min() const {
  return samples_.empty() ? 0.0 : *std::min_element(samples_.begin(), samples_.end());
}

double SampleSeries::Max() const {
  return samples_.empty() ? 0.0 : *std::max_element(samples_.begin(), samples_.end());
}

LogHistogram::LogHistogram(double lo, double hi, std::size_t buckets_per_decade)
    : lo_(lo), log_lo_(std::log10(lo)), buckets_per_decade_(buckets_per_decade) {
  if (lo <= 0 || hi <= lo || buckets_per_decade == 0) {
    throw std::invalid_argument(
        "LogHistogram requires 0 < lo < hi and buckets_per_decade > 0");
  }
  const double decades = std::log10(hi) - log_lo_;
  const auto buckets = static_cast<std::size_t>(
      std::ceil(decades * static_cast<double>(buckets_per_decade)));
  counts_.assign(std::max<std::size_t>(buckets, 1), 0);
}

void LogHistogram::Add(double x) noexcept {
  std::size_t idx = 0;
  if (x >= lo_) {
    const double pos =
        (std::log10(x) - log_lo_) * static_cast<double>(buckets_per_decade_);
    idx = std::min(static_cast<std::size_t>(std::max(pos, 0.0)),
                   counts_.size() - 1);
  }
  ++counts_[idx];
  ++total_;
  sum_ += x;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void LogHistogram::Merge(const LogHistogram& other) noexcept {
  if (other.total_ == 0) return;
  if (SameShape(other)) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  } else {
    // Shape mismatch (e.g. ranks built with different bounds): re-bucket by
    // each source bucket's lower edge so no sample is silently lost.
    for (std::size_t i = 0; i < other.counts_.size(); ++i) {
      const std::uint64_t n = other.counts_[i];
      if (n == 0) continue;
      const double edge = other.bucket_lo(i);
      const double pos =
          (std::log10(std::max(edge, lo_)) - log_lo_) *
          static_cast<double>(buckets_per_decade_);
      const std::size_t idx =
          std::min(static_cast<std::size_t>(std::max(pos, 0.0)),
                   counts_.size() - 1);
      counts_[idx] += n;
    }
  }
  total_ += other.total_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double LogHistogram::bucket_lo(std::size_t i) const noexcept {
  return std::pow(10.0, log_lo_ + static_cast<double>(i) /
                            static_cast<double>(buckets_per_decade_));
}

double LogHistogram::Percentile(double p) const noexcept {
  if (total_ == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      (p / 100.0) * static_cast<double>(total_));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen > target) return bucket_lo(i);
  }
  return bucket_lo(counts_.size() - 1);
}

namespace {
std::string FormatWithUnits(double value, const char* const* units, int nunits) {
  int u = 0;
  while (value >= 1000.0 && u + 1 < nunits) {
    value /= 1000.0;
    ++u;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f %s", value, units[u]);
  return buf;
}
}  // namespace

std::string FormatRate(double bytes_per_sec) {
  static const char* const kUnits[] = {"B/s", "KB/s", "MB/s", "GB/s", "TB/s"};
  return FormatWithUnits(bytes_per_sec, kUnits, 5);
}

std::string FormatBytes(double bytes) {
  static const char* const kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  return FormatWithUnits(bytes, kUnits, 5);
}

}  // namespace ckpt::util
