// Background telemetry sampler + stall watchdog (DESIGN.md §11).
//
// One TelemetrySampler owns a jthread that periodically snapshots every
// rank's probe cells (Engine::Probe — relaxed atomic reads, never the rank
// lock) into an immutable TelemetrySample published to a lock-free
// SampleRing. Scrapers (OpenMetrics exposition, flight-recorder dumps)
// read the ring without coordinating with the sampler.
//
// On every tick the watchdog inspects the new sample against its per-rank
// detector state:
//   * FSM dwell      — pending-state records exist and the newest FSM
//                      transition stamp has not moved for > stall_ms;
//   * flush progress — a tier's flush queue is non-empty but its landed-byte
//                      counter did not move for `stall_windows` consecutive
//                      samples;
//   * reserve livelock — the stale-eviction-plan counter kept rising for
//                      `stall_windows` consecutive samples.
// A trip charges Engine::NoteStall, emits a `health:stall` trace instant,
// and (once per run, when an out path is configured) dumps the flight
// recorder: `<out>.trace.json`, `<out>.window.json`, `<out>.openmetrics.txt`
// and `<out>.metrics.json`. Detectors latch per (rank, reason[, tier]) and
// re-arm when the condition clears, so a persistent stall trips once, not
// once per tick. In strict mode a trip also marks the run failed
// (strict_tripped()), which the C API surfaces from VELOCX_Finalize.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "util/telemetry.hpp"

namespace ckpt::core {

class TelemetrySampler {
 public:
  struct Options {
    std::int64_t period_ms = 100;   ///< sampler tick period
    std::size_t window = 128;       ///< ring capacity in samples
    bool watchdog = true;           ///< run the stall detectors each tick
    std::int64_t stall_ms = 2000;   ///< FSM dwell bound
    int stall_windows = 3;          ///< consecutive no-progress samples K
    bool strict = false;            ///< a trip fails the run
    std::string out_path;           ///< flight-recorder dump path prefix
    /// When false the constructor does not start the sampling thread;
    /// tests drive ticks explicitly through SampleNow().
    bool start_thread = true;

    /// Copies the process-global util::telemetry::settings().
    [[nodiscard]] static Options FromGlobalConfig();
  };

  /// Starts sampling `engine` (unless opts.start_thread is false). The
  /// engine must outlive the sampler.
  TelemetrySampler(Engine& engine, Options opts);
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Stops the sampling thread (idempotent), then records one final sample
  /// so the window always covers the end of the run.
  void Stop();

  /// Takes one sample synchronously (also runs the watchdog). Safe
  /// concurrently with the sampling thread.
  void SampleNow();

  /// Renders the newest sample as OpenMetrics text (sampling first if the
  /// ring is still empty).
  [[nodiscard]] std::string ScrapeOpenMetrics();

  [[nodiscard]] const util::telemetry::SampleRing& ring() const {
    return ring_;
  }
  [[nodiscard]] std::uint64_t stalls_detected() const {
    return stalls_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool strict_tripped() const {
    return strict_tripped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool flight_dumped() const {
    return flight_dumped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const Options& options() const noexcept { return opts_; }

 private:
  /// Per-(rank, tier) flush-progress detector state.
  struct TierWatch {
    bool inited = false;
    std::uint64_t last_flush_bytes = 0;
    int streak = 0;      ///< consecutive no-progress samples
    std::int64_t freeze_since_ts = 0;  ///< sample ts the freeze began
    bool latched = false;
  };
  /// Per-rank detector state.
  struct RankWatch {
    bool dwell_valid = false;
    std::int64_t dwell_stamp = 0;     ///< last_transition_ns last seen
    std::int64_t dwell_since_ts = 0;  ///< sample ts the stamp was first seen
    bool fsm_latched = false;
    bool stale_inited = false;
    std::uint64_t last_plans_stale = 0;
    int stale_streak = 0;
    std::int64_t stale_since_ts = 0;  ///< sample ts the stale run began
    bool reserve_latched = false;
    std::vector<TierWatch> tiers;
  };

  void Tick();
  void RunWatchdog(const util::telemetry::TelemetrySample& cur);
  void Trip(int rank, int tier, Engine::StallKind kind,
            const util::telemetry::TelemetrySample& cur);
  void FlightDump();

  Engine& engine_;
  Options opts_;
  std::vector<std::string> tier_names_;
  util::telemetry::SampleRing ring_;

  /// Serializes Tick() between the sampling thread and SampleNow() callers;
  /// also guards seq_/watch_. Never held while readers scrape.
  std::mutex tick_mu_;
  std::uint64_t seq_ = 0;
  std::vector<RankWatch> watch_;

  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<bool> strict_tripped_{false};
  std::atomic<bool> flight_dumped_{false};

  std::jthread thread_;  ///< last member: starts sampling at construction
};

}  // namespace ckpt::core
