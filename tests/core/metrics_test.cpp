#include "core/metrics.hpp"

#include <gtest/gtest.h>

namespace ckpt::core {
namespace {

TEST(RankMetricsTest, ThroughputMath) {
  RankMetrics m;
  EXPECT_EQ(m.CkptThroughput(), 0.0);  // no samples: no divide-by-zero
  EXPECT_EQ(m.RestoreThroughput(), 0.0);
  m.ckpt_block_s.Add(0.5);
  m.ckpt_block_s.Add(0.5);
  m.bytes_checkpointed = 100 << 20;
  EXPECT_DOUBLE_EQ(m.CkptThroughput(), (100 << 20) / 1.0);
  m.restore_block_s.Add(0.25);
  m.bytes_restored = 50 << 20;
  EXPECT_DOUBLE_EQ(m.RestoreThroughput(), (50 << 20) / 0.25);
}

TEST(RankMetricsTest, MergeAccumulatesEverything) {
  RankMetrics a;
  a.ckpt_block_s.Add(1.0);
  a.bytes_checkpointed = 10;
  a.restores_from_tier = {1};
  a.prefetch_promotions = 2;
  a.flushes_cancelled = 3;
  a.reserve_wait_write_s = 0.5;
  a.flush_retries = 1;
  a.flush_failures = 2;
  a.tier_degradations = 3;
  a.fetch_retries = 4;
  a.fetch_fallbacks = 5;
  a.checkpoints_lost = 6;
  a.restore_series.push_back({0, 7, 64, 2});
  a.restore_block_s.Add(0.1);

  RankMetrics b;
  b.ckpt_block_s.Add(2.0);
  b.bytes_checkpointed = 20;
  b.restores_from_tier = {4};
  b.prefetch_promotions = 5;
  b.flushes_cancelled = 6;
  b.reserve_wait_write_s = 1.5;
  b.flush_retries = 10;
  b.flush_failures = 20;
  b.tier_degradations = 30;
  b.fetch_retries = 40;
  b.fetch_fallbacks = 50;
  b.checkpoints_lost = 60;
  b.restore_series.push_back({1, 8, 128, 3});
  b.restore_block_s.Add(0.2);

  a.Merge(b);
  EXPECT_EQ(a.ckpt_block_s.size(), 2u);
  EXPECT_DOUBLE_EQ(a.ckpt_block_s.Sum(), 3.0);
  EXPECT_EQ(a.bytes_checkpointed, 30u);
  EXPECT_EQ(a.restores_from_tier, (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(a.prefetch_promotions, 7u);
  EXPECT_EQ(a.flushes_cancelled, 9u);
  EXPECT_DOUBLE_EQ(a.reserve_wait_write_s, 2.0);
  EXPECT_EQ(a.flush_retries, 11u);
  EXPECT_EQ(a.flush_failures, 22u);
  EXPECT_EQ(a.tier_degradations, 33u);
  EXPECT_EQ(a.fetch_retries, 44u);
  EXPECT_EQ(a.fetch_fallbacks, 55u);
  EXPECT_EQ(a.checkpoints_lost, 66u);
  ASSERT_EQ(a.restore_series.size(), 2u);
  EXPECT_EQ(a.restore_series[1].version, 8u);
  EXPECT_EQ(a.restore_series[1].prefetch_distance, 3u);
  // Each point's blocking time stays at the same index of restore_block_s.
  ASSERT_EQ(a.restore_block_s.size(), 2u);
  EXPECT_DOUBLE_EQ(a.restore_block_s.samples()[1], 0.2);
}

TEST(RankMetricsTest, MergeReconcilesMismatchedTierVectorLengths) {
  // Regression: merging metrics from engines built on different-depth
  // TierStacks (e.g. a 2-tier host-only stack into a 4-tier default stack)
  // must grow the shorter vectors instead of dropping the deep tiers'
  // counters or indexing out of range.
  RankMetrics shallow;  // engine on a 2-position stack, 1 cache tier
  shallow.restores_from_tier = {1, 2};
  shallow.flush_bytes_to_tier = {10, 20};
  shallow.evictions_from_tier = {3, 0};
  shallow.evicted_bytes_from_tier = {30, 0};
  shallow.flush_stage_hist.resize(1);
  shallow.flush_stage_hist[0].Add(0.5);

  RankMetrics deep;  // engine on a 4-position stack, 3 cache tiers
  deep.restores_from_tier = {5, 6, 7, 8};
  deep.flush_bytes_to_tier = {50, 60, 70, 80};
  deep.evictions_from_tier = {1, 1, 1, 0};
  deep.evicted_bytes_from_tier = {2, 2, 2, 0};
  deep.flush_stage_hist.resize(3);
  deep.flush_stage_hist[2].Add(0.25);

  // Shorter absorbing longer grows to the longer stack.
  RankMetrics a = shallow;
  a.Merge(deep);
  ASSERT_EQ(a.restores_from_tier.size(), 4u);
  EXPECT_EQ(a.restores_from_tier[0], 6u);
  EXPECT_EQ(a.restores_from_tier[1], 8u);
  EXPECT_EQ(a.restores_from_tier[2], 7u);  // deep tail preserved
  EXPECT_EQ(a.restores_from_tier[3], 8u);
  ASSERT_EQ(a.flush_bytes_to_tier.size(), 4u);
  EXPECT_EQ(a.flush_bytes_to_tier[3], 80u);
  ASSERT_EQ(a.flush_stage_hist.size(), 3u);
  EXPECT_EQ(a.flush_stage_hist[0].total(), 1u);
  EXPECT_EQ(a.flush_stage_hist[2].total(), 1u);

  // Longer absorbing shorter keeps its own tail untouched.
  RankMetrics b = deep;
  b.Merge(shallow);
  ASSERT_EQ(b.restores_from_tier.size(), 4u);
  EXPECT_EQ(b.restores_from_tier[0], 6u);
  EXPECT_EQ(b.restores_from_tier[2], 7u);
  EXPECT_EQ(b.restores_from_tier[3], 8u);
  ASSERT_EQ(b.flush_stage_hist.size(), 3u);
  EXPECT_EQ(b.flush_stage_hist[0].total(), 1u);
  EXPECT_DOUBLE_EQ(b.flush_stage_hist[0].sum(), 0.5);
  EXPECT_EQ(b.flush_stage_hist[2].total(), 1u);

  // Merging into a fresh (empty-vector) target adopts the source's sizes.
  RankMetrics fresh;
  fresh.Merge(deep);
  EXPECT_EQ(fresh.restores_from_tier, deep.restores_from_tier);
  EXPECT_EQ(fresh.evicted_bytes_from_tier, deep.evicted_bytes_from_tier);
  ASSERT_EQ(fresh.flush_stage_hist.size(), 3u);
}

TEST(RankMetricsTest, MergeAccumulatesLatencyHistograms) {
  RankMetrics a;
  a.reserve_round_hist.Add(1e-4);
  a.durability_lag.resize(2);  // position 0 is a cache tier: no samples
  a.durability_lag[1].Add(0.002);
  a.durability_lag[1].Add(0.5);
  RankMetrics b;
  b.promotion_hist.Add(5e-3);
  b.reserve_round_hist.Add(2e-4);
  b.durability_lag.resize(3);
  b.durability_lag[1].Add(0.002);
  a.Merge(b);
  EXPECT_EQ(a.promotion_hist.total(), 1u);
  EXPECT_EQ(a.reserve_round_hist.total(), 2u);
  EXPECT_DOUBLE_EQ(a.reserve_round_hist.sum(), 1e-4 + 2e-4);
  ASSERT_EQ(a.durability_lag.size(), 3u);
  EXPECT_EQ(a.durability_lag[0].total(), 0u);
  const util::Histogram& lag = a.durability_lag[1];
  EXPECT_EQ(lag.counts()[util::Histogram::BucketOf(0.002)], 2u);
  EXPECT_EQ(lag.counts()[util::Histogram::BucketOf(0.5)], 1u);
  EXPECT_EQ(lag.total(), 3u);
  EXPECT_DOUBLE_EQ(lag.sum(), 0.002 + 0.5 + 0.002);
  EXPECT_EQ(a.durability_lag[2].total(), 0u);
}

TEST(RankMetricsTest, MergeWithEmpty) {
  RankMetrics a;
  a.bytes_restored = 5;
  RankMetrics empty;
  a.Merge(empty);
  EXPECT_EQ(a.bytes_restored, 5u);
  empty.Merge(a);
  EXPECT_EQ(empty.bytes_restored, 5u);
}

TEST(RestorePointTest, FieldsRoundTrip) {
  RestorePoint p{3, 42, 1024, 7};
  EXPECT_EQ(p.iteration, 3u);
  EXPECT_EQ(p.version, 42u);
  EXPECT_EQ(p.bytes, 1024u);
  EXPECT_EQ(p.prefetch_distance, 7u);
}

}  // namespace
}  // namespace ckpt::core
