// Shutdown-ordering regression tests: repeated engine start/stop cycles
// with work in flight must never hang a background-thread join or race the
// stop flag against a condition-variable wait.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "rtm/workload.hpp"
#include "storage/mem_store.hpp"

namespace ckpt::core {
namespace {

constexpr std::uint64_t kCkptSize = 64 << 10;

/// The default stack over `ssd` and `pfs` with small caches: the GPU cache
/// fits 4 checkpoints, the host 16.
TierStack SmallStack(std::shared_ptr<storage::ObjectStore> ssd,
                     std::shared_ptr<storage::ObjectStore> pfs) {
  return TierStack::Default(std::move(ssd), std::move(pfs), 4 * kCkptSize,
                            16 * kCkptSize)
      .value();
}

void WriteOne(sim::Cluster& cluster, Engine& engine, sim::Rank rank, Version v,
              std::uint64_t size = kCkptSize) {
  auto p = cluster.device(rank).Allocate(size);
  ASSERT_TRUE(p.ok()) << p.status();
  rtm::FillPattern(rank, v, *p, size);
  ASSERT_TRUE(engine.Checkpoint(rank, v, *p, size).ok());
  ASSERT_TRUE(cluster.device(rank).Free(*p).ok());
}

// Shutdown() abandons queued flush work but accounts for all of it: every
// admitted object reached a lineage terminal (admitted == durable +
// degraded + lost + erased) and no queue depth stays counted.
void ExpectNothingInFlight(const Engine& engine) {
  for (sim::Rank r = 0; r < engine.num_ranks(); ++r) {
    const RankMetrics m = engine.MetricsSnapshot(r);
    EXPECT_EQ(m.objects_admitted, m.objects_durable + m.objects_degraded +
                                      m.objects_lost + m.objects_erased)
        << "rank " << r;
    const auto probe = engine.Probe(r);
    for (std::size_t t = 0; t < probe.tiers.size(); ++t) {
      EXPECT_EQ(probe.tiers[t].flush_queue_depth, 0u)
          << "rank " << r << " tier " << t;
    }
  }
}

TEST(EngineShutdownTest, RepeatedStartStopWithFlushesInFlight) {
  sim::Cluster cluster(sim::TopologyConfig::Testing());
  auto ssd = std::make_shared<storage::MemStore>();
  auto pfs = std::make_shared<storage::MemStore>();
  for (int i = 0; i < 20; ++i) {
    Engine engine(cluster, SmallStack(ssd, pfs), {}, 2);
    for (sim::Rank r = 0; r < 2; ++r) {
      WriteOne(cluster, engine, r, static_cast<Version>(i));
    }
    // No WaitForFlushes: shutdown races the D2H/H2F pipelines on purpose.
    engine.Shutdown();
    engine.Shutdown();  // idempotent
    ExpectNothingInFlight(engine);
  }
}

TEST(EngineShutdownTest, HandOffRefusedByAClosedQueueEndsTheObject) {
  // The GPU tier's flush worker is mid-copy over a slow PCIe link when
  // Shutdown() closes the host tier's queue: the hand-off after the copy is
  // refused, and the object must still end (erased) with no depth left.
  constexpr std::uint64_t kBig = 1 << 20;  // 16 chunks, ~940 ms at 1 MiB/s
  sim::TopologyConfig topo = sim::TopologyConfig::Testing();
  topo.pcie_link_bw = 1 << 20;
  sim::Cluster cluster(topo);
  Engine engine(cluster,
                TierStack::Default(std::make_shared<storage::MemStore>(),
                                   std::make_shared<storage::MemStore>(),
                                   2 * kBig, 4 * kBig)
                    .value(),
                {}, 1);
  WriteOne(cluster, engine, 0, 0, kBig);
  const util::RateLimiter& d2h = cluster.topology().pcie_link(
      cluster.topology().gpu_of_rank(0), sim::Topology::LinkDir::kD2H);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (d2h.admitted_bytes() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the GPU tier's flush copy never started";
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_LT(d2h.admitted_bytes(), kBig) << "the copy finished before Shutdown";
  engine.Shutdown();
  ExpectNothingInFlight(engine);
  const RankMetrics m = engine.MetricsSnapshot(0);
  EXPECT_EQ(m.objects_admitted, 1u);
  EXPECT_EQ(m.objects_erased, 1u);
  EXPECT_EQ(m.flushes_cancelled, 1u);
}

TEST(EngineShutdownTest, ImmediateShutdownAfterConstruction) {
  sim::Cluster cluster(sim::TopologyConfig::Testing());
  auto ssd = std::make_shared<storage::MemStore>();
  auto pfs = std::make_shared<storage::MemStore>();
  for (int i = 0; i < 20; ++i) {
    Engine engine(cluster, SmallStack(ssd, pfs), {}, 2);
    engine.Shutdown();
  }
}

TEST(EngineShutdownTest, RepeatedStartStopWithAsyncPinInit) {
  sim::Cluster cluster(sim::TopologyConfig::Testing());
  auto ssd = std::make_shared<storage::MemStore>();
  auto pfs = std::make_shared<storage::MemStore>();
  for (int i = 0; i < 20; ++i) {
    Engine engine(cluster, SmallStack(ssd, pfs), {}, 2);
    if (i % 2 == 0) {
      // Stop right after the first write, and on alternate rounds right
      // after construction, with nothing queued.
      WriteOne(cluster, engine, 0, static_cast<Version>(i));
    }
    engine.Shutdown();
  }
}

TEST(EngineShutdownTest, ConcurrentShutdownCallsAreSafe) {
  sim::Cluster cluster(sim::TopologyConfig::Testing());
  auto ssd = std::make_shared<storage::MemStore>();
  auto pfs = std::make_shared<storage::MemStore>();
  for (int i = 0; i < 10; ++i) {
    Engine engine(cluster, SmallStack(ssd, pfs), {}, 2);
    WriteOne(cluster, engine, 0, 0);
    std::thread a([&] { engine.Shutdown(); });
    std::thread b([&] { engine.Shutdown(); });
    a.join();
    b.join();
  }
}

TEST(EngineShutdownTest, ShutdownWithPrefetcherWaitingOnHints) {
  sim::Cluster cluster(sim::TopologyConfig::Testing());
  auto ssd = std::make_shared<storage::MemStore>();
  auto pfs = std::make_shared<storage::MemStore>();
  for (int i = 0; i < 10; ++i) {
    Engine engine(cluster, SmallStack(ssd, pfs), {}, 1);
    WriteOne(cluster, engine, 0, 0);
    // Hint a version that never gets written: T_PF spins on its wait loop
    // and must still observe the stop flag promptly.
    ASSERT_TRUE(engine.PrefetchEnqueue(0, 99).ok());
    ASSERT_TRUE(engine.PrefetchStart(0).ok());
    engine.Shutdown();
  }
}

TEST(EngineShutdownTest, BlockedApiCallsUnblockOnShutdown) {
  sim::Cluster cluster(sim::TopologyConfig::Testing());
  auto ssd = std::make_shared<storage::MemStore>();
  auto pfs = std::make_shared<storage::MemStore>();
  Engine engine(cluster, SmallStack(ssd, pfs), {}, 1);
  WriteOne(cluster, engine, 0, 0);
  std::thread waiter([&] {
    // Either outcome is fine (flushes may finish first); the call must
    // return rather than block past shutdown.
    (void)engine.WaitForFlushes(0);
  });
  engine.Shutdown();
  waiter.join();
}

}  // namespace
}  // namespace ckpt::core
