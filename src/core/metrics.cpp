#include "core/metrics.hpp"

namespace ckpt::core {

void RankMetrics::Merge(const RankMetrics& other) {
  for (double s : other.ckpt_block_s.samples()) ckpt_block_s.Add(s);
  for (double s : other.restore_block_s.samples()) restore_block_s.Add(s);
  bytes_checkpointed += other.bytes_checkpointed;
  bytes_restored += other.bytes_restored;
  restores_waited_promotion += other.restores_waited_promotion;
  const auto merge_per_tier = [](std::vector<std::uint64_t>& into,
                                 const std::vector<std::uint64_t>& from) {
    if (into.size() < from.size()) into.resize(from.size(), 0);
    for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
  };
  merge_per_tier(restores_from_tier, other.restores_from_tier);
  merge_per_tier(flush_bytes_to_tier, other.flush_bytes_to_tier);
  merge_per_tier(evictions_from_tier, other.evictions_from_tier);
  merge_per_tier(evicted_bytes_from_tier, other.evicted_bytes_from_tier);
  promotion_hist.Merge(other.promotion_hist);
  reserve_round_hist.Merge(other.reserve_round_hist);
  // Same size-reconciliation rule as the counter vectors: grow to the
  // larger stack before accumulating.
  const auto merge_each = [](auto& into, const auto& from) {
    if (into.size() < from.size()) into.resize(from.size());
    for (std::size_t i = 0; i < from.size(); ++i) into[i].Merge(from[i]);
  };
  merge_each(flush_stage_hist, other.flush_stage_hist);
  merge_each(durability_lag, other.durability_lag);
  objects_admitted += other.objects_admitted;
  objects_durable += other.objects_durable;
  objects_degraded += other.objects_degraded;
  objects_lost += other.objects_lost;
  objects_erased += other.objects_erased;
  reserve_wait_write_s += other.reserve_wait_write_s;
  reserve_wait_prefetch_s += other.reserve_wait_prefetch_s;
  reserve_rounds += other.reserve_rounds;
  reserve_plans_stale += other.reserve_plans_stale;
  reserve_snapshot_reuse += other.reserve_snapshot_reuse;
  reserve_quota_waits += other.reserve_quota_waits;
  reserve_wait_quota_s += other.reserve_wait_quota_s;
  prefetch_promotions += other.prefetch_promotions;
  prefetch_gpu_hits += other.prefetch_gpu_hits;
  prefetch_aborts += other.prefetch_aborts;
  flushes_completed += other.flushes_completed;
  flushes_cancelled += other.flushes_cancelled;
  wait_for_flush_s += other.wait_for_flush_s;
  flush_retries += other.flush_retries;
  flush_failures += other.flush_failures;
  tier_degradations += other.tier_degradations;
  fetch_retries += other.fetch_retries;
  fetch_fallbacks += other.fetch_fallbacks;
  checkpoints_lost += other.checkpoints_lost;
  watchdog_stalls += other.watchdog_stalls;
  watchdog_fsm_stalls += other.watchdog_fsm_stalls;
  watchdog_flush_stalls += other.watchdog_flush_stalls;
  watchdog_reserve_stalls += other.watchdog_reserve_stalls;
  init_s += other.init_s;
  restore_series.insert(restore_series.end(), other.restore_series.begin(),
                        other.restore_series.end());
}

}  // namespace ckpt::core
