// Pure arithmetic of the benchmark's ledger: percentiles with a tail rule,
// span self time, and the speed-of-light bound of a shot. Kept free of the
// engine so the rules can be tested on hand-built inputs.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "simgpu/topology.hpp"

namespace perfbench {

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`; 0 when empty.
[[nodiscard]] double Percentile(std::vector<double> samples, double p);

/// Median of `values` (mean of the middle two for even counts); 0 when empty.
[[nodiscard]] double Median(std::vector<double> values);

/// Samples strictly beyond the nearest-rank position of percentile `p` in a
/// set of `n` samples.
[[nodiscard]] std::size_t SamplesBeyond(std::size_t n, double p);

/// A timing distribution as the benchmark reports it: the median, the
/// highest percentile of the ladder {90, 99, 99.9, 99.99} that still has at
/// least kMinBeyond samples beyond it, and the sample count.
struct TailSummary {
  static constexpr std::size_t kMinBeyond = 10;
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_p = 0.0;  ///< 0 when no ladder percentile qualifies
  double tail = 0.0;
};
[[nodiscard]] TailSummary Summarize(const std::vector<double>& samples);

/// Half-open time interval in nanoseconds.
struct Interval {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// A span's self time: its duration minus the part of it covered by the
/// union of its children's intervals (children are clipped to the parent,
/// and overlapping children are counted once).
[[nodiscard]] std::int64_t SelfTimeNs(Interval parent,
                                      std::vector<Interval> children);

/// Simulated link classes of a node, each a set of identical limiters.
enum LinkClass : int { kD2d, kPcieD2h, kPcieH2d, kHostMem, kNvme, kPfs, kNumLinks };
inline constexpr std::array<const char*, kNumLinks> kLinkNames = {
    "d2d", "pcie_d2h", "pcie_h2d", "host_mem", "nvme", "pfs"};

/// Bandwidth of one instance of each link class (0 = unlimited).
[[nodiscard]] std::array<double, kNumLinks> LinkBandwidths(
    const ckpt::sim::TopologyConfig& cfg);

/// One link class: the bytes its busiest instance admitted during the shot
/// and the bandwidth of one instance.
struct LinkLoad {
  std::string name;
  std::uint64_t busiest_bytes = 0;
  double bytes_per_sec = 0.0;

  [[nodiscard]] double busy_s() const {
    return bytes_per_sec > 0 ? static_cast<double>(busiest_bytes) / bytes_per_sec
                             : 0.0;
  }
};

struct SolInput {
  double forward_compute_s = 0.0;   ///< compute sleeps of the forward pass
  double backward_compute_s = 0.0;  ///< compute sleeps of the backward pass
  /// Measured time from the shot's start to the last Checkpoint() return:
  /// no drain starts earlier.
  double forward_s = 0.0;
  /// WAIT protocol: the backward pass starts only once the history is
  /// durable, so every byte crosses its links inside the shot.
  bool wait_for_flush = false;
  std::vector<LinkLoad> links;  ///< all traffic, busiest instance per class
  /// The terminal tier's link carrying only the history it must make
  /// durable, on its busiest instance.
  LinkLoad terminal;
};

struct SolBound {
  double shot_s = 0.0;   ///< no shot can finish faster than this
  double drain_s = 0.0;  ///< no drain can finish faster than this
};

/// Speed-of-light bound of a shot: each link moves its busiest instance's
/// bytes at full bandwidth and compute sleeps are a floor. Under WAIT every
/// byte crosses its links inside the shot and the backward pass follows the
/// terminal link's drain; without WAIT flushes may trail the shot, so only
/// compute bounds it. The drain ends no earlier than the terminal link can
/// move the history, counted from the shot's start.
[[nodiscard]] SolBound SpeedOfLight(const SolInput& in);

}  // namespace perfbench
