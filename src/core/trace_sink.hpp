// Trace/metrics export: turns the util::trace ring buffers into a Chrome
// trace-event JSON file (load in Perfetto / chrome://tracing to see
// flush/prefetch overlap as one track per engine thread per rank) and
// RankMetrics into a machine-readable metrics snapshot. Also hosts the
// validator the tests and the CI trace checker share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.hpp"
#include "util/json.hpp"
#include "util/status.hpp"
#include "util/trace.hpp"

namespace ckpt::core {

class Engine;

/// Renders a trace snapshot as Chrome trace-event JSON:
/// `{"traceEvents":[...]}` with complete spans (ph "X"), thread-scoped
/// instants (ph "i") and process/thread name metadata. pid = rank
/// (rank-less events land on pid 0), tid = ring-buffer id; events are
/// sorted by begin timestamp within each track. Timestamps are µs since
/// the trace epoch.
[[nodiscard]] std::string ChromeTraceJson(const util::trace::TraceSnapshot& snap);
/// Convenience: Collect() + render.
[[nodiscard]] std::string ChromeTraceJson();
/// Renders the current trace to `path` (parent directory must exist).
util::Status WriteChromeTrace(const std::string& path);

/// Renders one rank's metrics as a JSON object: blocking-time series
/// summaries, all counters, per-tier vectors keyed by `tier_names`, the
/// per-stage and durability-lag histograms and the Fig. 7 restore series.
[[nodiscard]] std::string MetricsJson(const RankMetrics& m,
                                      const std::vector<std::string>& tier_names);

/// Full engine snapshot: `{"tiers":[...],"ranks":[...],"merged":{...},
/// "remote_tiers":[...]}`, each rank entry carrying its `tenant`. Uses
/// Engine::MetricsSnapshot, so it is safe while the engine is running.
[[nodiscard]] std::string MetricsSnapshotJson(const Engine& engine);
util::Status WriteMetricsSnapshot(const Engine& engine, const std::string& path);

/// Structural validation result for an emitted Chrome trace.
struct TraceCheck {
  bool ok = false;
  std::string error;                 ///< first violation, empty when ok
  std::size_t events = 0;            ///< non-metadata events
  std::size_t spans = 0;             ///< complete (ph "X") events
  std::size_t instants = 0;          ///< ph "i" events
  std::size_t tracks = 0;            ///< distinct (pid, tid) pairs
  /// Complete-span count per category ("lifecycle", "flush", ...).
  std::map<std::string, std::size_t> spans_per_category;

  // Lineage flow events (ph "s"/"t"/"f" bound by id).
  std::size_t flow_starts = 0;       ///< ph "s" events
  std::size_t flow_steps = 0;        ///< ph "t" events
  std::size_t flow_finishes = 0;     ///< ph "f" events
  std::size_t flows = 0;             ///< distinct flow ids
  std::size_t flows_dangling = 0;    ///< ids started but never finished
  std::size_t flows_unbound = 0;     ///< "f" without a prior "s" (wraps only)
  std::size_t wraps = 0;             ///< per-thread trace:wrap drop markers
  /// Flow-event count per category ("lifecycle", "flush", ...).
  std::map<std::string, std::size_t> flows_per_category;

  /// Per-track rollup backing `trace_check --summary`.
  struct TrackStats {
    int pid = 0;
    std::uint64_t tid = 0;
    std::string name;           ///< thread_name metadata when present
    std::size_t events = 0;     ///< non-metadata events on the track
    std::size_t spans = 0;
    double total_dur_us = 0.0;  ///< sum of span durations on the track
    double max_dur_us = 0.0;    ///< longest single span on the track
  };
  /// One entry per track, ordered by (pid, tid).
  std::vector<TrackStats> track_stats;

  [[nodiscard]] std::size_t spans_in(std::string_view cat) const {
    auto it = spans_per_category.find(std::string(cat));
    return it == spans_per_category.end() ? 0 : it->second;
  }
  [[nodiscard]] std::size_t flows_in(std::string_view cat) const {
    auto it = flows_per_category.find(std::string(cat));
    return it == flows_per_category.end() ? 0 : it->second;
  }
};

/// Parses `json_text` and checks it is a well-formed, non-empty Chrome
/// trace whose per-track begin timestamps are monotonically non-decreasing,
/// whose spans carry non-negative durations, and whose pid/tid and flow
/// args (tier, rank, version, bytes) are integers in their types' ranges.
[[nodiscard]] TraceCheck ValidateChromeTrace(std::string_view json_text);
/// The same checks over an already-parsed document.
[[nodiscard]] TraceCheck ValidateChromeTrace(const util::json::Value& doc);

}  // namespace ckpt::core
