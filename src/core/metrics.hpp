// Per-rank metric collection matching the paper's evaluation metrics
// (§5.3.5): application-observed blocking time of checkpoint and restore
// operations (throughput figures 5/6/8/9), per-iteration restore rate and
// prefetch distance (figure 7), plus cache/engine telemetry used by the
// ablations.
#pragma once

#include <cstdint>
#include <vector>

#include "util/stats.hpp"

namespace ckpt::core {

/// One restore operation's data point for the Fig. 7 series.
struct RestorePoint {
  std::uint64_t iteration = 0;       ///< restore index within the shot
  std::uint64_t version = 0;
  double blocking_s = 0.0;           ///< app-observed blocking time
  std::uint64_t bytes = 0;
  std::uint64_t prefetch_distance = 0;  ///< successor ckpts already on GPU
};

struct RankMetrics {
  // Blocking seconds per operation, as observed by the application thread.
  util::SampleSeries ckpt_block_s;
  util::SampleSeries restore_block_s;

  std::uint64_t bytes_checkpointed = 0;
  std::uint64_t bytes_restored = 0;

  std::uint64_t restores_waited_promotion = 0;  // blocked on T_PF

  // Per-tier telemetry, indexed by TierStack position (the default stack's
  // Tier names for the baselines; empty until a runtime sizes them).
  // restores_from_tier counts where each served restore was read from.
  std::vector<std::uint64_t> restores_from_tier;
  std::vector<std::uint64_t> flush_bytes_to_tier;  // flushed bytes landing on
                                                   // each tier
  // Eviction observability for mixed-policy stacks: victims dropped from
  // each cache tier and the bytes they covered. Durable positions stay 0 —
  // durable tiers never evict.
  std::vector<std::uint64_t> evictions_from_tier;
  std::vector<std::uint64_t> evicted_bytes_from_tier;

  // Prefetch engine telemetry.
  std::uint64_t prefetch_promotions = 0;   // upward copies completed
  std::uint64_t prefetch_gpu_hits = 0;     // hint target already on GPU
  std::uint64_t prefetch_aborts = 0;       // promotion aborted to direct path

  // Cache reservation telemetry: time blocked waiting for evictability.
  double reserve_wait_write_s = 0.0;     // checkpoint/flush reservations
  double reserve_wait_prefetch_s = 0.0;  // promotion reservations
  std::uint64_t reserve_rounds = 0;      // plan/re-plan iterations
  std::uint64_t reserve_plans_stale = 0; // off-lock plans invalidated at
                                         // commit time (re-planned at once)
  std::uint64_t reserve_snapshot_reuse = 0;  // replan rounds that reused the
                                             // previous fragment snapshot
  // Tenant admission telemetry (DESIGN.md §12).
  std::uint64_t reserve_quota_waits = 0;  // rounds blocked on tenant quota
  double reserve_wait_quota_s = 0.0;      // time parked on quota headroom

  // Flush pipeline telemetry.
  std::uint64_t flushes_completed = 0;
  std::uint64_t flushes_cancelled = 0;     // condition (5) skips
  double wait_for_flush_s = 0.0;           // WAIT-mode barrier time

  // Failure model / degraded mode telemetry (DESIGN.md §8).
  std::uint64_t flush_retries = 0;      // extra durable-store write attempts
  std::uint64_t flush_failures = 0;     // store writes that failed for good
  std::uint64_t tier_degradations = 0;  // ckpts durable at a shallower tier
                                        // than the configured terminal tier
  std::uint64_t fetch_retries = 0;      // extra durable-store read attempts
  std::uint64_t fetch_fallbacks = 0;    // reads served by the other durable
                                        // tier after the preferred one failed
  std::uint64_t checkpoints_lost = 0;   // records that entered FLUSH_FAILED

  // Telemetry watchdog verdicts (DESIGN.md §11): stalls the sampler's
  // health checks detected on this rank, total and by detector.
  std::uint64_t watchdog_stalls = 0;
  std::uint64_t watchdog_fsm_stalls = 0;      // FSM dwell bound exceeded
  std::uint64_t watchdog_flush_stalls = 0;    // flush queue, no byte progress
  std::uint64_t watchdog_reserve_stalls = 0;  // eviction-plan livelock

  // Per-stage latency distributions (seconds). The scalar accumulators
  // above give totals; these show the shape — a bimodal flush stage (fast
  // overlap vs. backlog stall) is invisible in a sum.
  util::Histogram promotion_hist;      // prefetch promotion copy time
  util::Histogram reserve_round_hist;  // one eviction plan/commit round
  // Stage copy latency per cache tier, indexed by TierStack position
  // (sized by the engine alongside the per-tier counter vectors).
  std::vector<util::Histogram> flush_stage_hist;

  // Lineage accounting (DESIGN.md §14): per-object terminal outcomes and
  // the put -> durable-ack window.
  std::uint64_t objects_admitted = 0;   // records created by Checkpoint()
  std::uint64_t objects_durable = 0;    // reached the configured terminal tier
  std::uint64_t objects_degraded = 0;   // durable short of the terminal tier
  std::uint64_t objects_lost = 0;       // entered FLUSH_FAILED with no copy
  std::uint64_t objects_erased = 0;     // record erased before any outcome
  // Durability lag (put -> per-tier durable ack), indexed by TierStack
  // position: the engine's lag cells, copied by MetricsSnapshot(); cache
  // positions stay zero. Never-durable objects (lost/erased) charge
  // nothing — the family measures ack latency, not failure rate (those
  // have their own counters above).
  std::vector<util::Histogram> durability_lag;

  // Engine init cost (slow pinned host-cache allocation, §5.4.2).
  double init_s = 0.0;

  std::vector<RestorePoint> restore_series;

  /// Throughput = bytes / total blocking seconds (the figures' metric).
  [[nodiscard]] double CkptThroughput() const {
    const double t = ckpt_block_s.Sum();
    return t > 0 ? static_cast<double>(bytes_checkpointed) / t : 0.0;
  }
  [[nodiscard]] double RestoreThroughput() const {
    const double t = restore_block_s.Sum();
    return t > 0 ? static_cast<double>(bytes_restored) / t : 0.0;
  }

  void Merge(const RankMetrics& other);
};

}  // namespace ckpt::core
