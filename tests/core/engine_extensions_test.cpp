// Tests of the engine extensions: demand-weighted host cache partitions and
// asynchronous pinned-cache initialization ([Maurya et al., HiPC'22]).
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

/// The default stack over a fresh in-memory SSD store, without a PFS tier.
TierStack SsdStack(std::uint64_t gpu_bytes, std::uint64_t host_bytes) {
  return TierStack::Default(std::make_shared<storage::MemStore>(), nullptr,
                            gpu_bytes, host_bytes)
      .value();
}

TEST(HostCacheWeightsTest, WeightedRunRoundTripsWithSkewedLoad) {
  sim::TopologyConfig topo = sim::TopologyConfig::Testing();
  topo.gpus_per_node = 2;
  topo.hbm_capacity = 16 << 20;
  sim::Cluster cluster(topo);
  EngineOptions opts;
  opts.host_cache_weights = {3.0, 1.0};  // rank 0 writes 3x the data
  // 512 KiB is the per-rank baseline host share.
  Engine engine(cluster, SsdStack(128 << 10, 512 << 10), opts, 2);

  // Skewed load: rank 0 writes 24 checkpoints, rank 1 writes 8.
  std::vector<std::jthread> threads;
  for (sim::Rank r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      const int n = r == 0 ? 24 : 8;
      auto buf = *cluster.device(r).Allocate(64 << 10);
      for (Version v = 0; v < static_cast<Version>(n); ++v) {
        FillPattern(r, v, buf, 64 << 10);
        ASSERT_TRUE(engine.Checkpoint(r, v, buf, 64 << 10).ok());
      }
      ASSERT_TRUE(engine.WaitForFlushes(r).ok());
      for (int v = n - 1; v >= 0; --v) {
        ASSERT_TRUE(
            engine.Restore(r, static_cast<Version>(v), buf, 64 << 10).ok());
        ASSERT_TRUE(CheckPattern(r, static_cast<Version>(v), buf, 64 << 10));
      }
      ASSERT_TRUE(cluster.device(r).Free(buf).ok());
    });
  }
  threads.clear();
  // Rank 0's larger partition retains more of its history in host RAM.
  EXPECT_GT(engine.CacheUsed(0, Tier::kHost),
            engine.CacheUsed(1, Tier::kHost));
}

TEST(HostCacheWeightsTest, WeightedPartitionsStillFunctionalWhenTiny) {
  sim::Cluster cluster(sim::TopologyConfig::Testing());
  EngineOptions opts;
  opts.host_cache_weights = {0.0, 1.0};  // rank 0 weighted to zero: clamps
  Engine engine(cluster, SsdStack(128 << 10, 256 << 10), opts, 2);
  auto buf = *cluster.device(0).Allocate(32 << 10);
  FillPattern(0, 0, buf, 32 << 10);
  ASSERT_TRUE(engine.Checkpoint(0, 0, buf, 32 << 10).ok());
  ASSERT_TRUE(engine.WaitForFlushes(0).ok());
  ASSERT_TRUE(engine.Restore(0, 0, buf, 32 << 10).ok());
  EXPECT_TRUE(CheckPattern(0, 0, buf, 32 << 10));
  ASSERT_TRUE(cluster.device(0).Free(buf).ok());
}

TEST(AsyncPinInitTest, ConstructionReturnsBeforeRegistrationFinishes) {
  sim::TopologyConfig topo = sim::TopologyConfig::Testing();
  topo.pinned_alloc_bw = 8 << 20;  // 4 MiB host cache -> ~500 ms to pin
  sim::Cluster cluster(topo);
  EngineOptions opts;
  opts.async_pin_init = true;
  TierStack stack = SsdStack(256 << 10, 4 << 20);
  const util::Stopwatch sw;
  Engine engine(cluster, std::move(stack), opts, 1);
  // Synchronous init would block ~500 ms; async returns immediately.
  EXPECT_LT(sw.ElapsedSec(), 0.2);
  EXPECT_LT(engine.metrics(0).init_s, 0.2);

  // Checkpoints into the GPU cache work right away...
  auto buf = *cluster.device(0).Allocate(64 << 10);
  FillPattern(0, 0, buf, 64 << 10);
  const util::Stopwatch ckpt_sw;
  ASSERT_TRUE(engine.Checkpoint(0, 0, buf, 64 << 10).ok());
  EXPECT_LT(ckpt_sw.ElapsedSec(), 0.2);  // did not wait for pinning

  // ...and flushes land once registration completes.
  ASSERT_TRUE(engine.WaitForFlushes(0).ok());
  EXPECT_TRUE(engine.ResidentOnIndex(0, 0, Tier::kHost));
  EXPECT_TRUE(engine.ResidentOnIndex(0, 0, Tier::kSsd));
  ASSERT_TRUE(engine.Restore(0, 0, buf, 64 << 10).ok());
  EXPECT_TRUE(CheckPattern(0, 0, buf, 64 << 10));
  ASSERT_TRUE(cluster.device(0).Free(buf).ok());
}

TEST(AsyncPinInitTest, SynchronousInitPaysUpfront) {
  sim::TopologyConfig topo = sim::TopologyConfig::Testing();
  topo.pinned_alloc_bw = 8 << 20;
  sim::Cluster cluster(topo);
  EngineOptions opts;
  opts.async_pin_init = false;
  TierStack stack = SsdStack(256 << 10, 4 << 20);
  const util::Stopwatch sw;
  Engine engine(cluster, std::move(stack), opts, 1);
  EXPECT_GT(sw.ElapsedSec(), 0.3);  // the §5.4.2 slow-init effect
  EXPECT_GT(engine.metrics(0).init_s, 0.3);
}

TEST(AsyncPinInitTest, ShutdownDuringRegistrationIsClean) {
  sim::TopologyConfig topo = sim::TopologyConfig::Testing();
  topo.pinned_alloc_bw = 4 << 20;  // slow: shutdown lands mid-registration
  sim::Cluster cluster(topo);
  EngineOptions opts;
  opts.async_pin_init = true;
  auto engine =
      std::make_unique<Engine>(cluster, SsdStack(128 << 10, 4 << 20), opts, 1);
  engine->Shutdown();  // must join the pin thread without deadlock
  engine.reset();
}

TEST(AsyncPinInitTest, FullShotUnderWorkloadDriver) {
  sim::TopologyConfig topo = sim::TopologyConfig::Testing();
  topo.gpus_per_node = 2;
  topo.hbm_capacity = 8 << 20;
  topo.pinned_alloc_bw = 64 << 20;
  sim::Cluster cluster(topo);
  EngineOptions opts;
  opts.async_pin_init = true;
  Engine engine(cluster, SsdStack(128 << 10, 1 << 20), opts, 2);
  rtm::ShotConfig shot;
  shot.num_ckpts = 16;
  shot.verify = true;
  shot.compute_interval = std::chrono::microseconds(100);
  shot.trace.num_snapshots = 16;
  shot.trace.uniform_size = 32 << 10;
  auto result = rtm::RunShot(cluster, engine, shot, 2);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->verify_failures, 0u);
}

}  // namespace
}  // namespace ckpt::core
