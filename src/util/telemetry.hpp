// Live telemetry substrate: a fixed-capacity ring of timestamped engine
// samples with lock-free readers, plus the process-global sampler
// configuration. Where util::trace answers "what happened" after the fact,
// this layer answers "what is happening now": the sampler thread
// (core::TelemetrySampler) periodically snapshots per-rank/per-tier gauges
// and counters into TelemetrySample records that scrapers (OpenMetrics
// exposition, the stall watchdog, flight-recorder dumps) read without
// touching any engine lock.
//
// Design:
//   * SampleRing stores std::atomic<std::shared_ptr<const TelemetrySample>>
//     slots. The writer publishes a fully-built immutable sample with one
//     atomic store; readers load slots lock-free and either see a complete
//     sample or none. No reader ever blocks the sampler (and vice versa).
//   * Samples are immutable after publication, so a scrape that overlaps a
//     ring wrap at worst sees a mix of old and new samples — each of them
//     internally consistent.
//
// Configuration, seeded from the environment on first use (config-file keys
// via Configure() override the seed, same precedence as util::trace):
//   CKPT_TELEMETRY            1|on|true starts the sampler with the engine
//   CKPT_TELEMETRY_PERIOD_MS  sampler tick period (default 100)
//   CKPT_TELEMETRY_WINDOW     ring capacity in samples (default 128)
//   CKPT_TELEMETRY_OUT        flight-recorder dump path prefix
//   CKPT_TELEMETRY_WATCHDOG   0|off disables the stall watchdog (default on)
//   CKPT_TELEMETRY_STALL_MS   FSM dwell bound before a stall trips (default 2000)
//   CKPT_TELEMETRY_STALL_WINDOWS  consecutive no-progress windows K (default 3)
//   CKPT_TELEMETRY_STRICT     1|on: a watchdog trip fails the run
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace ckpt::util::telemetry {

/// Per-tier gauges/counters inside one rank's sample. For cache tiers all
/// fields are live; durable tiers report only the flush byte counter.
struct TierSample {
  std::uint64_t bytes_used = 0;       ///< cache bytes resident (gauge)
  std::uint64_t bytes_capacity = 0;   ///< cache capacity (gauge)
  std::uint64_t flush_queue_depth = 0;  ///< queued + in-flight flush work
  std::uint64_t flush_bytes = 0;      ///< cumulative bytes landed (counter)
  std::uint64_t restores = 0;         ///< cumulative restores served (counter)
  /// Durability-lag histogram of a durable tier; all zero for cache tiers.
  Histogram lag;
};

/// One rank's slice of a sample. Counter fields are cumulative since engine
/// start; a scraper derives rates from consecutive samples.
struct RankSample {
  int rank = -1;
  /// Owning tenant's name ("default" in single-tenant engines).
  std::string tenant;
  /// FSM-state occupancy histogram, indexed by core::CkptState.
  std::vector<std::uint64_t> state_occupancy;
  std::int64_t last_transition_ns = 0;  ///< trace-epoch ns of newest FSM edge
  std::uint64_t restore_queue_depth = 0;
  std::uint64_t reserve_rounds = 0;
  std::uint64_t reserve_plans_stale = 0;
  std::uint64_t reserve_snapshot_reuse = 0;
  std::uint64_t reserve_quota_waits = 0;
  std::uint64_t flush_retries = 0;
  std::uint64_t fetch_retries = 0;
  std::uint64_t tier_degradations = 0;
  std::uint64_t checkpoints_lost = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t restores = 0;
  std::uint64_t bytes_checkpointed = 0;
  std::uint64_t bytes_restored = 0;
  std::uint64_t watchdog_stalls = 0;
  // Lineage outcome counters (DESIGN.md §14).
  // objects_inflight = admitted - terminated, clamped.
  std::uint64_t objects_admitted = 0;
  std::uint64_t objects_durable = 0;
  std::uint64_t objects_degraded = 0;
  std::uint64_t objects_lost = 0;
  std::uint64_t objects_erased = 0;
  std::vector<TierSample> tiers;  ///< one entry per stack tier
};

/// One remote/aggregating durable tier's store-level counters (see
/// storage::StoreStats). Present only for durable tiers whose store chain
/// reports stats; stacks without a remote tier leave `remote_tiers` empty.
struct RemoteTierSample {
  int tier = -1;             ///< stack index of the durable tier
  std::string tier_name;     ///< stack name ("remote", ...)
  std::uint64_t remote_puts = 0;
  std::uint64_t remote_gets = 0;
  std::uint64_t remote_parts = 0;
  std::uint64_t remote_part_retries = 0;
  std::uint64_t remote_put_bytes = 0;
  std::uint64_t remote_get_bytes = 0;
  std::uint64_t agg_member_puts = 0;
  std::uint64_t agg_group_puts = 0;
  std::uint64_t agg_group_put_failures = 0;
  std::uint64_t agg_size_flushes = 0;
  std::uint64_t agg_deadline_flushes = 0;
  std::uint64_t agg_gets_from_pending = 0;
  std::uint64_t agg_group_reclaims = 0;
  std::uint64_t agg_pending_members = 0;  ///< gauge
  std::uint64_t agg_pending_bytes = 0;    ///< gauge
};

/// One timestamped engine snapshot. Immutable once published to the ring.
struct TelemetrySample {
  std::int64_t ts_ns = 0;   ///< trace-epoch timestamp (util::trace::Now)
  std::uint64_t seq = 0;    ///< 0-based sample index since sampler start
  std::vector<RankSample> ranks;
  /// Engine-wide (not per-rank: the store is shared) remote-tier counters.
  std::vector<RemoteTierSample> remote_tiers;
};

using SamplePtr = std::shared_ptr<const TelemetrySample>;

/// Fixed-capacity ring of published samples. One writer (the sampler
/// thread), any number of lock-free readers.
class SampleRing {
 public:
  explicit SampleRing(std::size_t capacity)
      : slots_(capacity > 0 ? capacity : 1) {}

  SampleRing(const SampleRing&) = delete;
  SampleRing& operator=(const SampleRing&) = delete;

  /// Publishes `s` as the newest sample. Writer-side only.
  void Push(SamplePtr s) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    slots_[h % slots_.size()].store(std::move(s), std::memory_order_release);
    head_.store(h + 1, std::memory_order_release);
  }

  /// Newest published sample, or nullptr before the first Push.
  [[nodiscard]] SamplePtr Latest() const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    if (h == 0) return nullptr;
    return slots_[(h - 1) % slots_.size()].load(std::memory_order_acquire);
  }

  /// Current window, oldest first. Entries published concurrently with the
  /// read may straddle a wrap; nulls and out-of-order seq are filtered so
  /// the result is always a consistent ascending-seq window.
  [[nodiscard]] std::vector<SamplePtr> Window() const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::size_t cap = slots_.size();
    const std::uint64_t n = h < cap ? h : cap;
    std::vector<SamplePtr> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = h - n; i < h; ++i) {
      SamplePtr s = slots_[i % cap].load(std::memory_order_acquire);
      if (s == nullptr) continue;
      if (!out.empty() && s->seq <= out.back()->seq) continue;
      out.push_back(std::move(s));
    }
    return out;
  }

  /// Samples ever published (monotonic counter, not window size).
  [[nodiscard]] std::uint64_t total() const {
    return head_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  std::vector<std::atomic<SamplePtr>> slots_;
  std::atomic<std::uint64_t> head_{0};
};

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail
/// True when live sampling is requested. One relaxed load, any thread.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Sampler/watchdog configuration knobs (see file header for env seeds).
struct Settings {
  bool enabled = false;
  std::int64_t period_ms = 100;
  std::size_t window = 128;
  std::string out_path;
  bool watchdog = true;
  std::int64_t stall_ms = 2000;
  int stall_windows = 3;
  bool strict = false;
};

/// Applies a full configuration (config-file keys override the env seed).
/// `period_ms`/`window`/`stall_ms`/`stall_windows` of 0 keep current values;
/// an empty `out_path` keeps the current path.
void Configure(const Settings& s);
/// Current effective settings (env-seeded, then Configure()-overridden).
[[nodiscard]] Settings settings();

/// Convenience accessors over settings().
[[nodiscard]] std::int64_t period_ms();
[[nodiscard]] std::size_t window();
[[nodiscard]] std::string out_path();

}  // namespace ckpt::util::telemetry
