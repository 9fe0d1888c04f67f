// Behavioural tests of hint-aware eviction at the engine level: the §4.1.6
// policy must retain the checkpoints that will be restored *first*, which
// no recency-based policy does.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/engine.hpp"
#include "rtm/workload.hpp"
#include "storage/mem_store.hpp"

namespace ckpt::core {
namespace {

using rtm::FillPattern;

class EvictionBehaviorTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kSize = 32 << 10;
  static constexpr int kGpuSlots = 4;

  void Build(EvictionKind kind, std::uint64_t gpu_bytes = kGpuSlots * kSize,
             std::uint64_t host_bytes = 32 * kSize) {
    engine_.reset();
    cluster_ = std::make_unique<sim::Cluster>(sim::TopologyConfig::Testing());
    ssd_ = std::make_shared<storage::MemStore>();
    pfs_ = std::make_shared<storage::MemStore>();
    EngineOptions opts;
    opts.eviction = kind;
    engine_ = std::make_unique<Engine>(
        *cluster_,
        TierStack::Default(ssd_, pfs_, gpu_bytes, host_bytes).value(), opts, 1);
  }

  void WriteCkpt(Version v) {
    auto buf = *cluster_->device(0).Allocate(kSize);
    FillPattern(0, v, buf, kSize);
    ASSERT_TRUE(engine_->Checkpoint(0, v, buf, kSize).ok());
    ASSERT_TRUE(cluster_->device(0).Free(buf).ok());
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::shared_ptr<storage::MemStore> ssd_;
  std::shared_ptr<storage::MemStore> pfs_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(EvictionBehaviorTest, ScoreRetainsFirstToBeRestored) {
  Build(EvictionKind::kScore);
  constexpr int kN = 8;
  // Sequential restore order announced before the forward pass: version 0
  // will be read FIRST, so under hint-aware eviction the early versions
  // must survive in the GPU cache while late ones get evicted on arrival.
  for (Version v = 0; v < kN; ++v) {
    ASSERT_TRUE(engine_->PrefetchEnqueue(0, v).ok());
  }
  for (Version v = 0; v < kN; ++v) {
    WriteCkpt(v);
    ASSERT_TRUE(engine_->WaitForFlushes(0).ok());  // make evictability deterministic
  }
  // v0..v2 (nearest restore hints) must still be GPU-resident; at most one
  // of the middle versions beyond the 4 slots can be.
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kGpu));
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 1, Tier::kGpu));
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 2, Tier::kGpu));
  // The farthest-from-head versions were sacrificed (v7 was just written
  // and fills the 4th slot; v3..v6 lost their slots to protect v0..v2).
  EXPECT_FALSE(engine_->ResidentOnIndex(0, 4, Tier::kGpu));
  EXPECT_FALSE(engine_->ResidentOnIndex(0, 5, Tier::kGpu));
}

TEST_F(EvictionBehaviorTest, FifoEvictsFirstToBeRestoredInstead) {
  // The same workload under FIFO keeps the *newest* writes — exactly the
  // wrong set for a sequential replay. This is the ablation's mechanism.
  Build(EvictionKind::kFifo);
  constexpr int kN = 8;
  for (Version v = 0; v < kN; ++v) {
    ASSERT_TRUE(engine_->PrefetchEnqueue(0, v).ok());
  }
  for (Version v = 0; v < kN; ++v) {
    WriteCkpt(v);
    ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  }
  EXPECT_FALSE(engine_->ResidentOnIndex(0, 0, Tier::kGpu));
  EXPECT_FALSE(engine_->ResidentOnIndex(0, 1, Tier::kGpu));
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 6, Tier::kGpu));
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 7, Tier::kGpu));
}

TEST_F(EvictionBehaviorTest, UnhintedCheckpointsEvictBeforeHinted) {
  Build(EvictionKind::kScore);
  // Hint only versions 0 and 1; fill the cache with 0..3, then write 4.
  ASSERT_TRUE(engine_->PrefetchEnqueue(0, 0).ok());
  ASSERT_TRUE(engine_->PrefetchEnqueue(0, 1).ok());
  for (Version v = 0; v < 4; ++v) {
    WriteCkpt(v);
  }
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  WriteCkpt(4);  // must evict an *unhinted* one (2 or 3), never 0/1
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kGpu));
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 1, Tier::kGpu));
  EXPECT_TRUE(!engine_->ResidentOnIndex(0, 2, Tier::kGpu) ||
              !engine_->ResidentOnIndex(0, 3, Tier::kGpu));
}

TEST_F(EvictionBehaviorTest, ConsumedEvictsBeforeFlushedUnhinted) {
  Build(EvictionKind::kScore);
  for (Version v = 0; v < 4; ++v) WriteCkpt(v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  // Consume version 2: it becomes the preferred victim.
  auto buf = *cluster_->device(0).Allocate(kSize);
  ASSERT_TRUE(engine_->Restore(0, 2, buf, kSize).ok());
  WriteCkpt(4);
  EXPECT_FALSE(engine_->ResidentOnIndex(0, 2, Tier::kGpu));
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kGpu));
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 1, Tier::kGpu));
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 3, Tier::kGpu));
  ASSERT_TRUE(cluster_->device(0).Free(buf).ok());
}

TEST_F(EvictionBehaviorTest, LruRefreshesRecencyOnPrefetchPromotion) {
  // Regression: a prefetch promotion is a *read access* and must refresh the
  // promoted checkpoint's lru_seq. Before the fix only the direct Restore
  // path touched it, so a just-promoted checkpoint kept its creation-time
  // sequence and LRU on a deeper tier evicted it as the "coldest" entry.
  Build(EvictionKind::kLru, /*gpu_bytes=*/2 * kSize, /*host_bytes=*/4 * kSize);
  for (Version v = 0; v < 4; ++v) {
    WriteCkpt(v);
    ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  }
  // GPU (2 slots) holds v2,v3; host (4 slots) holds v0..v3 with LRU order
  // v0 < v1 < v2 < v3.
  ASSERT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kHost));
  ASSERT_TRUE(engine_->ResidentOnIndex(0, 1, Tier::kHost));

  // Promote v0 host -> GPU through the prefetcher: this access makes v0 the
  // hottest checkpoint, so v1 becomes the actually-coldest.
  ASSERT_TRUE(engine_->PrefetchEnqueue(0, 0).ok());
  ASSERT_TRUE(engine_->PrefetchStart(0).ok());
  for (int i = 0; i < 2000 && !engine_->ResidentOnIndex(0, 0, Tier::kGpu);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kGpu));

  // v4's flush stages into the full host tier and must evict exactly one
  // checkpoint: the coldest by *access* time is v1, not the just-read v0.
  WriteCkpt(4);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, Tier::kHost));
  EXPECT_FALSE(engine_->ResidentOnIndex(0, 1, Tier::kHost));
}

TEST_F(EvictionBehaviorTest, ImportFromPfsWhenSsdLost) {
  Build(EvictionKind::kScore);
  // Simulate a checkpoint that survives only on the PFS (node SSD wiped
  // after a node replacement): the engine must import and restore it.
  std::vector<std::byte> blob(kSize);
  FillPattern(0, 77, blob.data(), kSize);
  ASSERT_TRUE(pfs_->Put({0, 77}, blob.data(), kSize).ok());
  auto size = engine_->RecoverSize(0, 77);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, kSize);
  auto buf = *cluster_->device(0).Allocate(kSize);
  ASSERT_TRUE(engine_->Restore(0, 77, buf, kSize).ok());
  EXPECT_TRUE(rtm::CheckPattern(0, 77, buf, kSize));
  ASSERT_TRUE(cluster_->device(0).Free(buf).ok());
}

}  // namespace
}  // namespace ckpt::core
