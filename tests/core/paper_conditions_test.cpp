// The five conditions of the paper's problem formulation (§2), each pinned
// by an explicit test against the engine:
//   (1) a checkpoint request blocks only until the data is in the GPU cache;
//   (2) a checkpoint can be read back while its flushes are still pending;
//   (3) the runtime may prefetch along the announced restore order;
//   (4) a prefetched checkpoint is evicted only after consumption;
//   (5) consumed+discardable checkpoints need not complete pending flushes.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/engine.hpp"
#include "rtm/workload.hpp"
#include "storage/mem_store.hpp"
#include "util/clock.hpp"

namespace ckpt::core {
namespace {

using rtm::CheckPattern;
using rtm::FillPattern;

constexpr std::uint64_t kSize = 64 << 10;

struct Stack {
  std::unique_ptr<sim::Cluster> cluster;
  std::shared_ptr<storage::MemStore> ssd;
  std::unique_ptr<Engine> engine;
};

Stack Build(std::uint64_t gpu_bytes, std::uint64_t host_bytes,
            sim::TopologyConfig topo, EngineOptions opts = {}) {
  Stack s;
  s.cluster = std::make_unique<sim::Cluster>(topo);
  s.ssd = std::make_shared<storage::MemStore>();
  s.engine = std::make_unique<Engine>(
      *s.cluster,
      TierStack::Default(s.ssd, nullptr, gpu_bytes, host_bytes).value(), opts,
      1);
  return s;
}

TEST(PaperConditionsTest, Condition1CheckpointBlocksOnlyForGpuCacheCopy) {
  // Throttle everything below the GPU cache hard; the checkpoint call must
  // still return at D2D speed because flushing is asynchronous. The payload
  // spans many transfer chunks so the limiter debt model genuinely shapes
  // the flush (a single-chunk transfer is admitted instantly).
  constexpr std::uint64_t kBig = 512 << 10;  // 8 chunks
  sim::TopologyConfig topo = sim::TopologyConfig::Testing();
  topo.pcie_link_bw = 4 << 20;   // D2H: 512 KiB ~ 110 ms
  topo.nvme_drive_bw = 4 << 20;  // SSD: another ~110 ms
  Stack s = Build(4 * kBig, 8 * kBig, topo);  // room: no eviction wait either
  auto buf = *s.cluster->device(0).Allocate(kBig);
  FillPattern(0, 0, buf, kBig);
  const util::Stopwatch sw;
  ASSERT_TRUE(s.engine->Checkpoint(0, 0, buf, kBig).ok());
  EXPECT_LT(sw.ElapsedSec(), 0.05) << "blocked on an asynchronous flush";
  ASSERT_TRUE(s.engine->WaitForFlushes(0).ok());  // the flush itself is slow
  EXPECT_GT(s.engine->metrics(0).wait_for_flush_s, 0.05);
  ASSERT_TRUE(s.cluster->device(0).Free(buf).ok());
}

TEST(PaperConditionsTest, Condition2ReadBackWhileFlushesPending) {
  sim::TopologyConfig topo = sim::TopologyConfig::Testing();
  topo.nvme_drive_bw = 256 << 10;  // SSD flush of 64 KiB takes ~250 ms
  Stack s = Build(4 * kSize, 8 * kSize, topo);
  auto buf = *s.cluster->device(0).Allocate(kSize);
  FillPattern(0, 0, buf, kSize);
  ASSERT_TRUE(s.engine->Checkpoint(0, 0, buf, kSize).ok());
  // Immediately read it back: must succeed from the cache long before the
  // SSD flush can have finished.
  const util::Stopwatch sw;
  ASSERT_TRUE(s.engine->Restore(0, 0, buf, kSize).ok());
  EXPECT_LT(sw.ElapsedSec(), 0.1);
  EXPECT_TRUE(CheckPattern(0, 0, buf, kSize));
  // The condition under test is *where* the read was served from, and the
  // GPU-cache copy stays resident either way — assert that directly instead
  // of racing the asynchronous flush to a "not yet durable" residency check.
  const RankMetrics m = s.engine->metrics(0);
  EXPECT_EQ(m.restores_from_tier.at(0), 1u)
      << "read-back was not served by the fast cache tier";
  ASSERT_TRUE(s.engine->WaitForFlushes(0).ok());
  ASSERT_TRUE(s.cluster->device(0).Free(buf).ok());
}

TEST(PaperConditionsTest, Condition3PrefetchFollowsAnnouncedOrder) {
  Stack s = Build(4 * kSize, 16 * kSize, sim::TopologyConfig::Testing());
  auto buf = *s.cluster->device(0).Allocate(kSize);
  for (Version v = 0; v < 12; ++v) {
    FillPattern(0, v, buf, kSize);
    ASSERT_TRUE(s.engine->Checkpoint(0, v, buf, kSize).ok());
  }
  ASSERT_TRUE(s.engine->WaitForFlushes(0).ok());
  // Announce 5 then 9: the prefetcher must promote exactly along the queue.
  ASSERT_TRUE(s.engine->PrefetchEnqueue(0, 5).ok());
  ASSERT_TRUE(s.engine->PrefetchEnqueue(0, 9).ok());
  ASSERT_TRUE(s.engine->PrefetchStart(0).ok());
  const util::Stopwatch sw;
  while (s.engine->PrefetchDistance(0) < 2 && sw.ElapsedSec() < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(s.engine->ResidentOnIndex(0, 5, Tier::kGpu));
  EXPECT_TRUE(s.engine->ResidentOnIndex(0, 9, Tier::kGpu));
  ASSERT_TRUE(s.cluster->device(0).Free(buf).ok());
}

TEST(PaperConditionsTest, Condition4PrefetchedPinnedUntilConsumed) {
  Stack s = Build(4 * kSize, 16 * kSize, sim::TopologyConfig::Testing());
  auto buf = *s.cluster->device(0).Allocate(kSize);
  for (Version v = 0; v < 8; ++v) {
    FillPattern(0, v, buf, kSize);
    ASSERT_TRUE(s.engine->Checkpoint(0, v, buf, kSize).ok());
  }
  ASSERT_TRUE(s.engine->WaitForFlushes(0).ok());
  ASSERT_TRUE(s.engine->PrefetchEnqueue(0, 0).ok());
  ASSERT_TRUE(s.engine->PrefetchStart(0).ok());
  const util::Stopwatch sw;
  while (!s.engine->ResidentOnIndex(0, 0, Tier::kGpu) &&
         sw.ElapsedSec() < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(s.engine->ResidentOnIndex(0, 0, Tier::kGpu));
  // Now write more checkpoints: evictions must victimize anything but the
  // pinned version 0, which stays resident until it is consumed.
  for (Version v = 8; v < 16; ++v) {
    FillPattern(0, v, buf, kSize);
    ASSERT_TRUE(s.engine->Checkpoint(0, v, buf, kSize).ok());
  }
  EXPECT_TRUE(s.engine->ResidentOnIndex(0, 0, Tier::kGpu))
      << "prefetched checkpoint evicted before consumption";
  ASSERT_TRUE(s.engine->Restore(0, 0, buf, kSize).ok());  // consume
  EXPECT_TRUE(CheckPattern(0, 0, buf, kSize));
  ASSERT_TRUE(s.cluster->device(0).Free(buf).ok());
}

TEST(PaperConditionsTest, Condition5DiscardableConsumedSkipsFlushes) {
  sim::TopologyConfig topo = sim::TopologyConfig::Testing();
  topo.nvme_drive_bw = 256 << 10;  // slow SSD so the flush is still pending
  EngineOptions opts;
  opts.discard_after_restore = true;
  Stack s = Build(4 * kSize, 8 * kSize, topo, opts);
  auto buf = *s.cluster->device(0).Allocate(kSize);
  FillPattern(0, 0, buf, kSize);
  ASSERT_TRUE(s.engine->Checkpoint(0, 0, buf, kSize).ok());
  ASSERT_TRUE(s.engine->Restore(0, 0, buf, kSize).ok());  // consume right away
  const util::Stopwatch sw;
  ASSERT_TRUE(s.engine->WaitForFlushes(0).ok());
  // Either the flush chain was skipped (fast barrier) or had already passed
  // the point of no return; the cancelled counter tells us which.
  const auto& m = s.engine->metrics(0);
  if (m.flushes_cancelled == 1) {
    EXPECT_LT(sw.ElapsedSec(), 0.2) << "cancelled flush still waited";
    EXPECT_FALSE(s.ssd->Exists({0, 0}));
  } else {
    EXPECT_EQ(m.flushes_completed, 1u);
  }
  ASSERT_TRUE(s.cluster->device(0).Free(buf).ok());
}

// Regression for the interleaved-pinning deadlock: a producer writing with
// the prefetcher live (hints known and started up front) must never find
// every cache slot pinned.
TEST(PaperConditionsTest, InterleavedProducerNeverStarvedByPins) {
  Stack s = Build(4 * kSize, 12 * kSize, sim::TopologyConfig::Testing());
  auto buf = *s.cluster->device(0).Allocate(kSize);
  ASSERT_TRUE(s.engine->PrefetchStart(0).ok());  // prefetcher live from t=0
  constexpr int kN = 24;
  for (Version v = 0; v < kN; ++v) {
    ASSERT_TRUE(s.engine->PrefetchEnqueue(0, v).ok());
  }
  // Forward pass with the prefetcher pinning behind us the whole time.
  for (Version v = 0; v < kN; ++v) {
    FillPattern(0, v, buf, kSize);
    ASSERT_TRUE(s.engine->Checkpoint(0, v, buf, kSize).ok());
    // The pin cap (75% of 4 slots = 3) must hold at every instant.
    EXPECT_LE(s.engine->PrefetchDistance(0), 3u);
  }
  for (Version v = 0; v < kN; ++v) {
    ASSERT_TRUE(s.engine->Restore(0, v, buf, kSize).ok());
    ASSERT_TRUE(CheckPattern(0, v, buf, kSize));
  }
  ASSERT_TRUE(s.cluster->device(0).Free(buf).ok());
}

}  // namespace
}  // namespace ckpt::core
