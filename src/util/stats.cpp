#include "util/stats.hpp"

#include <cmath>
#include <cstdio>
#include <numeric>

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

Histogram Histogram::FromCounts(const Counts& counts, double sum_s) noexcept {
  Histogram h;
  h.counts_ = counts;
  for (const std::uint64_t n : counts) h.total_ += n;
  h.sum_ = sum_s;
  return h;
}

void Histogram::Merge(const Histogram& other) noexcept {
  for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  total_ += other.total_;
  sum_ += other.sum_;
}

double Histogram::Percentile(double p) const noexcept {
  if (total_ == 0) return 0.0;
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(p / 100.0 * static_cast<double>(total_))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b + 1 < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= target) return kEdgesS[b];
  }
  return kEdgesS[kBuckets - 2];
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
