// Stress and failure-injection tests for the engine: randomized op
// interleavings, hint-deviation torture, shutdown mid-flight, and
// parameterized integrity sweeps across cache geometries.
#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "rtm/workload.hpp"
#include "storage/mem_store.hpp"
#include "util/rng.hpp"

namespace ckpt::core {
namespace {

using rtm::CheckPattern;
using rtm::FillPattern;

struct Stack {
  // Declaration order matters: engine is destroyed first (it references
  // the cluster).
  std::unique_ptr<sim::Cluster> cluster;
  std::shared_ptr<storage::MemStore> ssd;
  std::unique_ptr<Engine> engine;
};

Stack Build(std::uint64_t gpu_bytes, std::uint64_t host_bytes, int ranks = 1,
            sim::TopologyConfig topo = sim::TopologyConfig::Testing()) {
  Stack s;
  s.cluster = std::make_unique<sim::Cluster>(topo);
  s.ssd = std::make_shared<storage::MemStore>();
  s.engine = std::make_unique<Engine>(
      *s.cluster,
      TierStack::Default(s.ssd, nullptr, gpu_bytes, host_bytes).value(),
      EngineOptions{}, ranks);
  return s;
}

TEST(EngineStressTest, RandomizedInterleavedWriteReadHint) {
  Stack s = Build(6 * (32 << 10), 20 * (32 << 10));
  auto& engine = *s.engine;
  auto& dev = s.cluster->device(0);

  std::mt19937_64 rng(99);
  std::vector<Version> written;
  std::vector<Version> unread;
  Version next = 0;
  auto buf = *dev.Allocate(32 << 10);
  bool started = false;

  for (int op = 0; op < 600; ++op) {
    const int kind = static_cast<int>(rng() % 10);
    if (kind < 4 || unread.empty()) {
      // write a new version
      const Version v = next++;
      const std::uint64_t size = (8 << 10) * (1 + rng() % 3);  // 8/16/24 KiB
      FillPattern(0, v, buf, size);
      ASSERT_TRUE(engine.Checkpoint(0, v, buf, size).ok());
      written.push_back(v);
      unread.push_back(v);
    } else if (kind < 8) {
      // read a random unread version (often deviating from hints)
      const std::size_t idx = rng() % unread.size();
      const Version v = unread[idx];
      unread.erase(unread.begin() + static_cast<std::ptrdiff_t>(idx));
      auto size = engine.RecoverSize(0, v);
      ASSERT_TRUE(size.ok());
      ASSERT_TRUE(engine.Restore(0, v, buf, 32 << 10).ok());
      EXPECT_TRUE(CheckPattern(0, v, buf, *size)) << "version " << v;
    } else if (kind == 8 && !unread.empty()) {
      // hint a random future read
      ASSERT_TRUE(engine.PrefetchEnqueue(0, unread[rng() % unread.size()]).ok());
      if (!started) {
        ASSERT_TRUE(engine.PrefetchStart(0).ok());
        started = true;
      }
    } else {
      ASSERT_TRUE(engine.WaitForFlushes(0).ok());
    }
  }
  // Drain: read everything left, verify.
  for (Version v : unread) {
    auto size = engine.RecoverSize(0, v);
    ASSERT_TRUE(size.ok());
    ASSERT_TRUE(engine.Restore(0, v, buf, 32 << 10).ok());
    EXPECT_TRUE(CheckPattern(0, v, buf, *size));
  }
  ASSERT_TRUE(engine.WaitForFlushes(0).ok());
  ASSERT_TRUE(dev.Free(buf).ok());
}

TEST(EngineStressTest, HintDeviationTortureReadsBackwardsOfHints) {
  Stack s = Build(4 * (16 << 10), 8 * (16 << 10));
  constexpr int kN = 40;
  auto buf = *s.cluster->device(0).Allocate(16 << 10);
  // Hint order 0..N, then read N..0: every single restore deviates and the
  // prefetcher must keep aborting claims without wedging.
  for (Version v = 0; v < kN; ++v) {
    ASSERT_TRUE(s.engine->PrefetchEnqueue(0, v).ok());
  }
  for (Version v = 0; v < kN; ++v) {
    FillPattern(0, v, buf, 16 << 10);
    ASSERT_TRUE(s.engine->Checkpoint(0, v, buf, 16 << 10).ok());
  }
  ASSERT_TRUE(s.engine->PrefetchStart(0).ok());
  for (int v = kN - 1; v >= 0; --v) {
    ASSERT_TRUE(
        s.engine->Restore(0, static_cast<Version>(v), buf, 16 << 10).ok());
    EXPECT_TRUE(CheckPattern(0, static_cast<Version>(v), buf, 16 << 10));
  }
  ASSERT_TRUE(s.cluster->device(0).Free(buf).ok());
}

TEST(EngineStressTest, ShutdownWhileFlushesAndPrefetchesInFlight) {
  sim::TopologyConfig topo = sim::TopologyConfig::Testing();
  topo.pcie_link_bw = 8 << 20;  // slow enough that work is still in flight
  topo.nvme_drive_bw = 8 << 20;
  Stack s = Build(8 * (64 << 10), 16 * (64 << 10), 1, topo);
  auto buf = *s.cluster->device(0).Allocate(64 << 10);
  for (Version v = 0; v < 8; ++v) {
    FillPattern(0, v, buf, 64 << 10);
    ASSERT_TRUE(s.engine->Checkpoint(0, v, buf, 64 << 10).ok());
    ASSERT_TRUE(s.engine->PrefetchEnqueue(0, v).ok());
  }
  ASSERT_TRUE(s.engine->PrefetchStart(0).ok());
  s.engine->Shutdown();  // must terminate promptly, no deadlock, no crash
  EXPECT_EQ(s.engine->Checkpoint(0, 99, buf, 64 << 10).code(),
            util::ErrorCode::kShutdown);
  ASSERT_TRUE(s.cluster->device(0).Free(buf).ok());
}

TEST(EngineStressTest, ManyRanksManyThreadsSharedDrives) {
  sim::TopologyConfig topo = sim::TopologyConfig::Testing();
  topo.gpus_per_node = 8;
  topo.hbm_capacity = 8 << 20;
  topo.nvme_drive_bw = 64 << 20;  // real contention across rank pairs
  Stack s = Build(4 * (16 << 10), 8 * (16 << 10), 8, topo);
  std::vector<std::jthread> threads;
  for (sim::Rank r = 0; r < 8; ++r) {
    threads.emplace_back([&, r] {
      auto buf = *s.cluster->device(r).Allocate(16 << 10);
      for (Version v = 0; v < 24; ++v) {
        FillPattern(r, v, buf, 16 << 10);
        ASSERT_TRUE(s.engine->Checkpoint(r, v, buf, 16 << 10).ok());
      }
      ASSERT_TRUE(s.engine->WaitForFlushes(r).ok());
      for (int v = 23; v >= 0; --v) {
        ASSERT_TRUE(
            s.engine->Restore(r, static_cast<Version>(v), buf, 16 << 10).ok());
        ASSERT_TRUE(CheckPattern(r, static_cast<Version>(v), buf, 16 << 10));
      }
      ASSERT_TRUE(s.cluster->device(r).Free(buf).ok());
    });
  }
  threads.clear();
  for (sim::Rank r = 0; r < 8; ++r) {
    EXPECT_EQ(s.engine->metrics(r).bytes_restored, 24u * (16 << 10));
  }
}

// Parameterized integrity sweep: (gpu slots, host slots, order, variable).
using Geometry = std::tuple<int, int, rtm::ReadOrder, bool>;

class EngineGeometryTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(EngineGeometryTest, FullShotIntegrity) {
  const auto [gpu_slots, host_slots, order, variable] = GetParam();
  constexpr std::uint64_t kSlot = 24 << 10;
  Stack s = Build(static_cast<std::uint64_t>(gpu_slots) * kSlot,
                  static_cast<std::uint64_t>(host_slots) * kSlot);
  constexpr int kN = 24;
  auto rng = util::MakeRng(5);
  std::vector<std::uint64_t> sizes;
  for (int i = 0; i < kN; ++i) {
    sizes.push_back(variable ? (4 << 10) + 256 * (rng() % 80) : kSlot);
  }
  auto buf = *s.cluster->device(0).Allocate(kSlot);
  for (Version v = 0; v < kN; ++v) {
    FillPattern(0, v, buf, sizes[v]);
    ASSERT_TRUE(s.engine->Checkpoint(0, v, buf, sizes[v]).ok());
  }
  ASSERT_TRUE(s.engine->WaitForFlushes(0).ok());
  rtm::ShotConfig oc;
  oc.num_ckpts = kN;
  oc.read_order = order;
  for (Version v : rtm::MakeRestoreOrder(oc, 0)) {
    ASSERT_TRUE(s.engine->PrefetchEnqueue(0, v).ok());
  }
  ASSERT_TRUE(s.engine->PrefetchStart(0).ok());
  for (Version v : rtm::MakeRestoreOrder(oc, 0)) {
    ASSERT_TRUE(s.engine->Restore(0, v, buf, kSlot).ok());
    EXPECT_TRUE(CheckPattern(0, v, buf, sizes[v])) << "version " << v;
  }
  ASSERT_TRUE(s.cluster->device(0).Free(buf).ok());
}

std::string GeometryName(const ::testing::TestParamInfo<Geometry>& info) {
  const int g = std::get<0>(info.param);
  const int h = std::get<1>(info.param);
  const rtm::ReadOrder o = std::get<2>(info.param);
  const bool var = std::get<3>(info.param);
  return "gpu" + std::to_string(g) + "_host" + std::to_string(h) + "_" +
         std::string(rtm::to_string(o)) + (var ? "_variable" : "_uniform");
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, EngineGeometryTest,
    ::testing::Combine(
        ::testing::Values(2, 4, 8),     // GPU cache slots
        ::testing::Values(6, 16),       // host cache slots
        ::testing::Values(rtm::ReadOrder::kSequential, rtm::ReadOrder::kReverse,
                          rtm::ReadOrder::kIrregular),
        ::testing::Bool()),             // variable sizes
    GeometryName);

}  // namespace
}  // namespace ckpt::core
