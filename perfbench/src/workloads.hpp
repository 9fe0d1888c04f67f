// The benchmark's named workloads and one measured repetition of them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "probes.hpp"
#include "rtm/workload.hpp"

namespace perfbench {

/// Rank threads per shot: one per simulated GPU, a closed loop each.
inline constexpr int kRanks = 4;

struct Workload {
  std::string name;
  std::string tiers;          ///< core::ParseTierStack spec
  std::string terminal;       ///< terminal tier name
  std::string terminal_link;  ///< simulated link the terminal tier pays
  ckpt::rtm::ShotConfig shot;
};

/// The workload called `name`, or nullptr.
[[nodiscard]] const Workload* FindWorkload(std::string_view name);

/// (name, unit) of every per-layer metric, in report order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
LayerMetricUnits();

/// Name of the per-layer metric that RunRep cannot fill: traced minus
/// untraced shot time, computed over a whole run.
inline constexpr const char* kTraceOverheadMetric = "trace.overhead_shot_s";

/// Everything one repetition (set up, shot, drain, check) measured.
struct RepResult {
  bool traced = false;
  double setup_s = 0.0;
  double shot_s = 0.0;
  /// Time from a rank's last Checkpoint() return until its whole history
  /// is on the terminal tier, the longest over ranks. Under WAIT this is the
  /// WaitForFlushes() call; without WAIT the history may be durable before
  /// the shot ends, and the call returns at once.
  double drain_s = 0.0;
  double longest_wait_call_s = 0.0;  ///< longest WaitForFlushes() call
  double cpu_s = 0.0;
  double ckpt_MBps = 0.0;
  double restore_MBps = 0.0;
  std::vector<double> ckpt_us;     ///< every Checkpoint() call
  std::vector<double> restore_us;  ///< every Restore() call
  std::vector<double> durable_lag_ms;
  /// Per-layer metrics; filled by traced repetitions only.
  std::map<std::string, double> layer;

  std::uint64_t attempted = 0;  ///< calls the rank threads and drain made
  std::uint64_t failed = 0;     ///< failed calls + bad restores + not durable
  std::string first_error;
};

/// Sets up a fresh cluster and engine for `w`, runs one shot with inputs
/// drawn from `rep_seed`, drains every rank, checks the history, and tears
/// everything down. A non-null `tracer` records spans and fills `layer`.
[[nodiscard]] RepResult RunRep(const Workload& w, std::uint64_t rep_seed,
                               Tracer* tracer);

}  // namespace perfbench
