#include "ledger.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

// Nearest rank (1-based) of percentile p among n samples, computed in
// hundredths of a percent so that e.g. p99 of 1000 samples is exactly 990.
std::size_t NearestRank(std::size_t n, double p) {
  const auto hundredths = static_cast<std::uint64_t>(std::llround(p * 100.0));
  const std::uint64_t rank = (hundredths * n + 9999) / 10000;
  return static_cast<std::size_t>(std::clamp<std::uint64_t>(rank, 1, n));
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t k = NearestRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

TailSummary Summarize(const std::vector<double>& samples) {
  TailSummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.p50 = Percentile(samples, 50.0);
  for (const double p : {90.0, 99.0, 99.9, 99.99}) {
    if (SamplesBeyond(s.count, p) < TailSummary::kMinBeyond) break;
    s.tail_p = p;
  }
  if (s.tail_p > 0) s.tail = Percentile(samples, s.tail_p);
  return s;
}

std::int64_t SelfTimeNs(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start_ns = std::max(c.start_ns, parent.start_ns);
    c.end_ns = std::min(c.end_ns, parent.end_ns);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start_ns < b.start_ns; });
  std::int64_t covered = 0;
  std::int64_t reach = parent.start_ns;  // end of the union so far
  for (const Interval& c : children) {
    if (c.end_ns <= c.start_ns || c.end_ns <= reach) continue;
    covered += c.end_ns - std::max(c.start_ns, reach);
    reach = c.end_ns;
  }
  return (parent.end_ns - parent.start_ns) - covered;
}

std::array<double, kNumLinks> LinkBandwidths(const ckpt::sim::TopologyConfig& cfg) {
  std::array<double, kNumLinks> bw{};
  bw[kD2d] = static_cast<double>(cfg.d2d_bw);
  bw[kPcieD2h] = static_cast<double>(cfg.pcie_link_bw);
  bw[kPcieH2d] = static_cast<double>(cfg.pcie_link_bw);
  bw[kHostMem] = static_cast<double>(cfg.host_mem_bw);
  bw[kNvme] = static_cast<double>(cfg.nvme_drive_bw);
  bw[kPfs] = static_cast<double>(cfg.pfs_bw);
  return bw;
}

SolBound SpeedOfLight(const SolInput& in) {
  SolBound b;
  const double terminal_s = in.terminal.busy_s();
  b.shot_s = in.forward_compute_s + in.backward_compute_s;
  if (in.wait_for_flush) {
    for (const LinkLoad& l : in.links) b.shot_s = std::max(b.shot_s, l.busy_s());
    b.shot_s = std::max(b.shot_s, terminal_s + in.backward_compute_s);
  }
  b.drain_s = std::max(0.0, terminal_s - in.forward_s);
  return b;
}

}  // namespace perfbench
