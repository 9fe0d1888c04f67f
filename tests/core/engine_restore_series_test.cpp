// Fig. 7 observability: every Restore appends a RestorePoint carrying the
// prefetch distance seen at restore entry and the blocking time. These tests
// pin down the two interesting paths — a restore served straight from
// prefetched-and-pinned GPU copies, and a restore that arrives while the
// prefetcher's promotion of the same version is still in flight.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

#include "rtm/workload.hpp"  // FillPattern / CheckPattern helpers
#include "storage/mem_store.hpp"

namespace ckpt::core {
namespace {

using rtm::CheckPattern;
using rtm::FillPattern;

class RestoreSeriesTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kCkptSize = 64 << 10;

  /// Small caches: the GPU cache fits 4 checkpoints of `ckpt_size`, the
  /// host cache 16.
  void Build(std::uint64_t ckpt_size = kCkptSize, int ranks = 1,
             sim::TopologyConfig topo = sim::TopologyConfig::Testing()) {
    engine_.reset();  // must go before the cluster it references
    cluster_ = std::make_unique<sim::Cluster>(topo);
    ssd_ = std::make_shared<storage::MemStore>();
    pfs_ = std::make_shared<storage::MemStore>();
    engine_ = std::make_unique<Engine>(
        *cluster_,
        TierStack::Default(ssd_, pfs_, 4 * ckpt_size, 16 * ckpt_size).value(),
        EngineOptions{}, ranks);
  }

  void WriteCkpt(sim::Rank rank, Version v, std::uint64_t size = kCkptSize) {
    auto p = cluster_->device(rank).Allocate(size);
    ASSERT_TRUE(p.ok()) << p.status();
    FillPattern(rank, v, *p, size);
    ASSERT_TRUE(engine_->Checkpoint(rank, v, *p, size).ok());
    ASSERT_TRUE(cluster_->device(rank).Free(*p).ok());
  }

  void RestoreAndVerify(sim::Rank rank, Version v,
                        std::uint64_t size = kCkptSize) {
    auto p = cluster_->device(rank).Allocate(size);
    ASSERT_TRUE(p.ok()) << p.status();
    auto st = engine_->Restore(rank, v, *p, size);
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_TRUE(CheckPattern(rank, v, *p, size));
    ASSERT_TRUE(cluster_->device(rank).Free(*p).ok());
  }

  /// Spin until `pred` holds or ~5 s elapse.
  template <typename Pred>
  static bool WaitFor(Pred pred) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!pred()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::shared_ptr<storage::MemStore> ssd_;
  std::shared_ptr<storage::MemStore> pfs_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(RestoreSeriesTest, GpuHitRestoresRecordPrefetchDistance) {
  Build();
  WriteCkpt(0, 0);
  WriteCkpt(0, 1);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  // Both versions still fit in the 4-slot GPU cache: the prefetcher turns
  // each hint into a pinned GPU hit.
  ASSERT_TRUE(engine_->PrefetchEnqueue(0, 0).ok());
  ASSERT_TRUE(engine_->PrefetchEnqueue(0, 1).ok());
  ASSERT_TRUE(engine_->PrefetchStart(0).ok());
  ASSERT_TRUE(WaitFor([&] { return engine_->PrefetchDistance(0) == 2; }))
      << "prefetcher never pinned both hinted versions";

  RestoreAndVerify(0, 0);
  RestoreAndVerify(0, 1);

  const RankMetrics m = engine_->MetricsSnapshot(0);
  EXPECT_GE(m.prefetch_gpu_hits, 2u);
  EXPECT_GE(m.restores_from_tier.at(0), 2u);  // the GPU cache tier
  ASSERT_EQ(m.restore_series.size(), 2u);
  // First restore entered with both hinted successors pinned; the second
  // with one left (v0's pin was released when it was consumed).
  EXPECT_EQ(m.restore_series[0].iteration, 0u);
  EXPECT_EQ(m.restore_series[0].version, 0u);
  EXPECT_EQ(m.restore_series[0].bytes, kCkptSize);
  EXPECT_EQ(m.restore_series[0].prefetch_distance, 2u);
  EXPECT_GT(m.restore_series[0].blocking_s, 0.0);
  EXPECT_EQ(m.restore_series[1].version, 1u);
  EXPECT_EQ(m.restore_series[1].prefetch_distance, 1u);
  EXPECT_GT(m.restore_series[1].blocking_s, 0.0);
  // The blocking time also lands in the restore blocking series.
  EXPECT_EQ(m.restore_block_s.size(), 2u);
}

TEST_F(RestoreSeriesTest, WaitedPromotionRestoreIsRecorded) {
  // With the Testing topology's unlimited links a promotion completes at
  // memcpy speed and the READ_IN_PROGRESS window is unobservable. Throttle
  // the PCIe link so the 512 KiB host->GPU promotion takes tens of
  // milliseconds, then race a few rounds of fresh versions until a Restore
  // demonstrably arrived while the prefetcher's claim was still in flight.
  constexpr std::uint64_t kBigCkpt = 512 << 10;
  sim::TopologyConfig topo = sim::TopologyConfig::Testing();
  topo.pcie_link_bw = 8ull << 20;  // 8 MB/s: ~64 ms per promotion
  Build(kBigCkpt, /*ranks=*/1, topo);
  bool waited = false;
  for (Version base = 0; base < 800 && !waited; base += 100) {
    // Fill the 4-slot GPU cache past capacity so `base` gets evicted from
    // the device tier (it survives on host/SSD).
    for (Version v = base; v < base + 6; ++v) WriteCkpt(0, v, kBigCkpt);
    ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
    ASSERT_FALSE(engine_->ResidentOnIndex(0, base, Tier::kGpu))
        << "expected version " << base << " to be evicted from the GPU tier";

    // Hint a still-resident version first so the restore below observes a
    // non-zero prefetch distance, then the evicted one to force a promotion.
    ASSERT_TRUE(engine_->PrefetchEnqueue(0, base + 5).ok());
    ASSERT_TRUE(engine_->PrefetchEnqueue(0, base).ok());
    ASSERT_TRUE(engine_->PrefetchStart(0).ok());

    // The claim flips the record to READ_IN_PROGRESS before the host->GPU
    // copy runs; restore immediately to land inside that window.
    if (!WaitFor([&] {
          auto st = engine_->StateOf(0, base);
          return st.ok() && *st == CkptState::kReadInProgress;
        })) {
      continue;  // promotion finished before we ever saw the claim
    }
    const std::uint64_t waited_before =
        engine_->MetricsSnapshot(0).restores_waited_promotion;
    RestoreAndVerify(0, base, kBigCkpt);
    const RankMetrics m = engine_->MetricsSnapshot(0);
    if (m.restores_waited_promotion == waited_before) continue;  // lost race

    waited = true;
    ASSERT_FALSE(m.restore_series.empty());
    const RestorePoint& p = m.restore_series.back();
    EXPECT_EQ(p.version, base);
    EXPECT_EQ(p.bytes, kBigCkpt);
    // The hit on base+5 was processed before the claim on base, so the
    // waited restore entered with at least one pinned successor.
    EXPECT_GE(p.prefetch_distance, 1u);
    EXPECT_GT(p.blocking_s, 0.0);
  }
  EXPECT_TRUE(waited)
      << "never caught a restore inside the promotion window in 8 rounds";
}

TEST_F(RestoreSeriesTest, ColdRestoreRecordsZeroDistance) {
  Build();
  WriteCkpt(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  // No hints, no prefetcher: the series still records the restore, with a
  // zero prefetch distance.
  RestoreAndVerify(0, 0);
  const RankMetrics m = engine_->MetricsSnapshot(0);
  ASSERT_EQ(m.restore_series.size(), 1u);
  EXPECT_EQ(m.restore_series[0].prefetch_distance, 0u);
  EXPECT_GT(m.restore_series[0].blocking_s, 0.0);
}

}  // namespace
}  // namespace ckpt::core
