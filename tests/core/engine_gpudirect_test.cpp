// Tests of the GPUDirect Storage extension (paper §6 future work): flushes
// and promotions move directly between the GPU cache and the SSD store,
// never staging through the pinned host cache.
#include <gtest/gtest.h>

#include <thread>

#include "core/engine.hpp"
#include "rtm/workload.hpp"
#include "storage/mem_store.hpp"
#include "util/clock.hpp"

namespace ckpt::core {
namespace {

using rtm::CheckPattern;
using rtm::FillPattern;

class GpuDirectTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kSize = 32 << 10;

  void Build(EngineOptions opts,
             sim::TopologyConfig topo = sim::TopologyConfig::Testing()) {
    engine_.reset();
    cluster_ = std::make_unique<sim::Cluster>(topo);
    ssd_ = std::make_shared<storage::MemStore>();
    pfs_ = std::make_shared<storage::MemStore>();
    engine_ = std::make_unique<Engine>(*cluster_, Stack(), opts, 1);
  }

  /// The default stack over ssd_ and pfs_ (PFS-less when null).
  TierStack Stack() const {
    return TierStack::Default(ssd_, pfs_, 4 * kSize, 8 * kSize, terminal_)
        .value();
  }

  EngineOptions Direct() {
    EngineOptions opts;
    opts.gpudirect = true;
    return opts;
  }

  void WriteCkpt(Version v) {
    auto buf = *cluster_->device(0).Allocate(kSize);
    FillPattern(0, v, buf, kSize);
    ASSERT_TRUE(engine_->Checkpoint(0, v, buf, kSize).ok());
    ASSERT_TRUE(cluster_->device(0).Free(buf).ok());
  }

  void RestoreAndVerify(Version v) {
    auto buf = *cluster_->device(0).Allocate(kSize);
    auto st = engine_->Restore(0, v, buf, kSize);
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_TRUE(CheckPattern(0, v, buf, kSize));
    ASSERT_TRUE(cluster_->device(0).Free(buf).ok());
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::shared_ptr<storage::MemStore> ssd_;
  std::shared_ptr<storage::MemStore> pfs_;
  std::unique_ptr<Engine> engine_;
  Tier terminal_ = Tier::kSsd;
};

TEST_F(GpuDirectTest, FlushBypassesHostCache) {
  Build(Direct());
  WriteCkpt(0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kSsd));
  // The defining property: the host cache is never touched by the flush.
  EXPECT_FALSE(engine_->ResidentOnIndex(0, 0, Tier::kHost));
  EXPECT_EQ(engine_->CacheUsed(0, Tier::kHost), 0u);
  auto state = engine_->StateOf(0, 0);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, CkptState::kFlushed);
}

TEST_F(GpuDirectTest, TerminalPfsStillReached) {
  terminal_ = Tier::kPfs;
  Build(Direct());
  WriteCkpt(0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  EXPECT_TRUE(ssd_->Exists({0, 0}));
  EXPECT_TRUE(pfs_->Exists({0, 0}));
}

TEST_F(GpuDirectTest, HistoryBeyondGpuCacheRoundTrips) {
  Build(Direct());
  constexpr int kN = 24;
  for (Version v = 0; v < kN; ++v) WriteCkpt(v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  EXPECT_EQ(ssd_->Keys().size(), static_cast<std::size_t>(kN));
  EXPECT_EQ(engine_->CacheUsed(0, Tier::kHost), 0u);
  for (int v = kN - 1; v >= 0; --v) RestoreAndVerify(static_cast<Version>(v));
}

TEST_F(GpuDirectTest, PromotionsGoStoreToGpuDirectly) {
  Build(Direct());
  constexpr int kN = 16;
  for (Version v = 0; v < kN; ++v) WriteCkpt(v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  for (Version v = 0; v < kN; ++v) {
    ASSERT_TRUE(engine_->PrefetchEnqueue(0, v).ok());
  }
  ASSERT_TRUE(engine_->PrefetchStart(0).ok());
  for (Version v = 0; v < kN; ++v) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    RestoreAndVerify(v);
  }
  const auto& m = engine_->metrics(0);
  EXPECT_GT(m.prefetch_promotions + m.prefetch_gpu_hits, 0u);
  // The host tier is never involved.
  EXPECT_EQ(m.restores_from_tier.at(Tier::kHost), 0u);
  EXPECT_EQ(engine_->CacheUsed(0, Tier::kHost), 0u);
}

TEST_F(GpuDirectTest, DirectRestoreSkipsPinnedStaging) {
  // With a modeled pinned-allocation cost, the non-GDS direct-store read
  // pays a staging-arena registration; the GDS path must not.
  sim::TopologyConfig topo = sim::TopologyConfig::Testing();
  topo.pinned_alloc_bw = 1 << 20;  // 32 KiB pin ~ 31 ms, very visible
  Build(Direct(), topo);
  constexpr int kN = 8;  // > GPU cache, ends up store-only
  for (Version v = 0; v < kN; ++v) WriteCkpt(v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  const util::Stopwatch sw;
  RestoreAndVerify(0);  // evicted from GPU cache; store-only
  EXPECT_LT(sw.ElapsedSec(), 0.02);  // no 31 ms pinning penalty
  EXPECT_EQ(engine_->metrics(0).restores_from_tier.at(Tier::kSsd), 1u);
}

TEST_F(GpuDirectTest, DiscardAfterRestoreStillCancelsFlushes) {
  auto opts = Direct();
  opts.discard_after_restore = true;
  Build(opts);
  WriteCkpt(0);
  RestoreAndVerify(0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  const auto& m = engine_->metrics(0);
  EXPECT_EQ(m.flushes_cancelled + m.flushes_completed, 1u);
}

TEST_F(GpuDirectTest, WorksUnderWorkloadDriver) {
  Build(Direct());
  engine_.reset();
  core::EngineOptions opts = Direct();
  sim::TopologyConfig topo = sim::TopologyConfig::Testing();
  topo.gpus_per_node = 2;
  topo.hbm_capacity = 8 << 20;
  cluster_ = std::make_unique<sim::Cluster>(topo);
  ssd_ = std::make_shared<storage::MemStore>();
  pfs_.reset();
  engine_ = std::make_unique<Engine>(*cluster_, Stack(), opts, 2);
  rtm::ShotConfig shot;
  shot.num_ckpts = 16;
  shot.verify = true;
  shot.read_order = rtm::ReadOrder::kIrregular;
  shot.compute_interval = std::chrono::microseconds(100);
  shot.trace.num_snapshots = 16;
  shot.trace.uniform_size = kSize;
  auto result = rtm::RunShot(*cluster_, *engine_, shot, 2);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->verify_failures, 0u);
}

}  // namespace
}  // namespace ckpt::core
