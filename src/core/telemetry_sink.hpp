// Telemetry exposition: turns Engine probe readings and util::telemetry
// sample windows into consumable text — OpenMetrics/Prometheus exposition
// for scrapers, window JSON for flight-recorder dumps, and the per-shot
// critical-path attribution embedded in bench reports. Also hosts the
// OpenMetrics validator the tests and the `telemetry_check` CLI share.
//
// Exposition format follows the OpenMetrics text format: every family is
// declared with `# HELP`/`# TYPE` before its samples, counter samples carry
// the `_total` suffix, label values are escaped, and the payload ends with
// `# EOF`. Example:
//   # TYPE ckpt_tier_bytes_used gauge
//   ckpt_tier_bytes_used{tier="gpu",tenant="default",rank="0"} 1048576
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"
#include "util/telemetry.hpp"

namespace ckpt::core {

class Engine;

/// Tier labels for exposition, by stack index (TierStack::name).
[[nodiscard]] std::vector<std::string> TelemetryTierNames(const Engine& engine);

/// Builds one immutable telemetry sample by probing every rank of `engine`
/// (lock-free; see Engine::Probe).
[[nodiscard]] util::telemetry::SamplePtr BuildTelemetrySample(
    const Engine& engine, std::uint64_t seq);

/// Store-level counters of `engine`'s remote/aggregating durable tiers
/// (storage::ObjectStore::CollectStats). Empty when no durable store in the
/// stack reports stats.
[[nodiscard]] std::vector<util::telemetry::RemoteTierSample> CollectRemoteTiers(
    const Engine& engine);

/// JSON array of the same counters (`[]` when no durable store reports
/// stats), for embedding in metrics snapshots.
[[nodiscard]] std::string RemoteTiersJson(const Engine& engine);

/// Renders `s` in OpenMetrics text format. `tier_names` labels the per-tier
/// families; indices beyond the vector fall back to "tierN".
[[nodiscard]] std::string OpenMetricsText(
    const util::telemetry::TelemetrySample& s,
    const std::vector<std::string>& tier_names);

/// Convenience: probe `engine` now (a fresh one-off sample) and render it.
/// Used by scrape entry points when no sampler is running.
[[nodiscard]] std::string OpenMetricsText(const Engine& engine);

/// Renders the ring's current window as JSON, oldest sample first:
/// `{"capacity":...,"total":...,"samples":[{"ts_ns":...,"seq":...,
/// "ranks":[...],"remote_tiers":[...]}]}`. Lock-free (SampleRing::Window).
[[nodiscard]] std::string TelemetryWindowJson(
    const util::telemetry::SampleRing& ring,
    const std::vector<std::string>& tier_names = {});

/// Per-shot critical-path attribution (DESIGN.md §11): where the wall time
/// of a run went, per rank and merged — application compute vs. checkpoint
/// blocking vs. restore blocking vs. WAIT-mode flush barriers, plus the
/// reservation waits and per-tier flush-stage seconds behind them.
/// `wall_s` is the caller-measured wall time of the shot; compute_s is
/// derived as wall_s minus the application-thread blocking components,
/// clamped at 0.
[[nodiscard]] std::string CriticalPathJson(const Engine& engine, double wall_s);

/// Structural validation result for an OpenMetrics payload.
struct TelemetryCheck {
  bool ok = false;
  std::string error;        ///< first violation, empty when ok
  std::size_t families = 0; ///< `# TYPE` declarations
  std::size_t samples = 0;  ///< sample lines
  bool eof = false;         ///< payload ends with `# EOF`
  /// Family name -> declared type ("gauge", "counter", ...).
  std::map<std::string, std::string> family_type;
  /// Sample key (name + label block as emitted) -> parsed value.
  std::map<std::string, double> values;
};

/// Parses and validates one OpenMetrics payload: metric/label name charsets,
/// escape sequences in label values, TYPE-before-samples ordering, the
/// `_total` convention for counters, finite (and for counters non-negative)
/// values, and the trailing `# EOF` marker.
[[nodiscard]] TelemetryCheck ValidateOpenMetrics(std::string_view text);

/// Cross-scrape counter monotonicity: every counter sample present in
/// `prev` must still be present in `cur` with a value >= the previous one.
[[nodiscard]] util::Status CheckCounterMonotonic(const TelemetryCheck& prev,
                                                 const TelemetryCheck& cur);

}  // namespace ckpt::core
