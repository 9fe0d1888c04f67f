#include "simgpu/copy.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "util/clock.hpp"

namespace ckpt::sim {
namespace {

class CopyTest : public ::testing::Test {
 protected:
  static std::vector<std::byte> Pattern(std::size_t n, std::uint8_t seed) {
    std::vector<std::byte> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<std::byte>((i * 31 + seed) & 0xff);
    }
    return v;
  }
};

TEST_F(CopyTest, MovesBytesExactly) {
  Topology topo(TopologyConfig::Testing());
  const auto src = Pattern(300 << 10, 7);  // multiple chunks + remainder
  std::vector<std::byte> dst(src.size());
  ASSERT_TRUE(ThrottledMemcpy(topo, {0, 0}, dst.data(), src.data(), src.size(),
                              MemcpyKind::kD2H)
                  .ok());
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
}

TEST_F(CopyTest, RejectsNullAndZero) {
  Topology topo(TopologyConfig::Testing());
  std::byte b;
  EXPECT_FALSE(ThrottledMemcpy(topo, {0, 0}, nullptr, &b, 1, MemcpyKind::kD2D).ok());
  EXPECT_FALSE(ThrottledMemcpy(topo, {0, 0}, &b, nullptr, 1, MemcpyKind::kD2D).ok());
  EXPECT_FALSE(ThrottledMemcpy(topo, {0, 0}, &b, &b, 0, MemcpyKind::kD2D).ok());
}

TEST_F(CopyTest, ThrottleEnforcesDuration) {
  TopologyConfig cfg = TopologyConfig::Testing();
  cfg.pcie_link_bw = 4 << 20;  // 4 MiB/s
  cfg.copy_latency_ns = 0;
  Topology topo(cfg);
  const auto src = Pattern(1 << 20, 1);  // 1 MiB at 4 MiB/s ~ 250 ms
  std::vector<std::byte> dst(src.size());
  const util::Stopwatch sw;
  ASSERT_TRUE(ThrottledMemcpy(topo, {0, 0}, dst.data(), src.data(), src.size(),
                              MemcpyKind::kD2H)
                  .ok());
  EXPECT_GT(sw.ElapsedSec(), 0.15);
  EXPECT_LT(sw.ElapsedSec(), 2.0);
}

TEST_F(CopyTest, D2DIsFasterThanPcie) {
  TopologyConfig cfg = TopologyConfig::Testing();
  cfg.d2d_bw = 0;              // unlimited
  cfg.pcie_link_bw = 8 << 20;  // slow
  cfg.copy_latency_ns = 0;
  Topology topo(cfg);
  const auto src = Pattern(2 << 20, 2);
  std::vector<std::byte> dst(src.size());

  util::Stopwatch sw;
  ASSERT_TRUE(ThrottledMemcpy(topo, {0, 0}, dst.data(), src.data(), src.size(),
                              MemcpyKind::kD2D)
                  .ok());
  const double d2d = sw.ElapsedSec();
  sw.Restart();
  ASSERT_TRUE(ThrottledMemcpy(topo, {0, 0}, dst.data(), src.data(), src.size(),
                              MemcpyKind::kH2D)
                  .ok());
  const double h2d = sw.ElapsedSec();
  EXPECT_GT(h2d, d2d * 3);
}

TEST_F(CopyTest, SharedPcieLinkContention) {
  TopologyConfig cfg = TopologyConfig::Testing();
  cfg.gpus_per_node = 2;  // both GPUs share one link
  cfg.pcie_link_bw = 16 << 20;
  cfg.copy_latency_ns = 0;
  Topology topo(cfg);
  const std::size_t n = 2 << 20;
  const auto src = Pattern(n, 3);
  std::vector<std::byte> d1(n), d2(n);

  // Alone: ~125 ms for 2 MiB at 16 MiB/s.
  util::Stopwatch sw;
  ASSERT_TRUE(
      ThrottledMemcpy(topo, {0, 0}, d1.data(), src.data(), n, MemcpyKind::kD2H).ok());
  const double alone = sw.ElapsedSec();

  // Together on the shared link: each sees roughly half the bandwidth.
  sw.Restart();
  {
    std::jthread other([&] {
      ASSERT_TRUE(ThrottledMemcpy(topo, {0, 1}, d2.data(), src.data(), n,
                                  MemcpyKind::kD2H)
                      .ok());
    });
    ASSERT_TRUE(ThrottledMemcpy(topo, {0, 0}, d1.data(), src.data(), n,
                                MemcpyKind::kD2H)
                    .ok());
  }
  const double together = sw.ElapsedSec();
  EXPECT_GT(together, alone * 1.5);
}

TEST_F(CopyTest, LatencyAppliedPerOperation) {
  TopologyConfig cfg = TopologyConfig::Testing();
  cfg.copy_latency_ns = 5'000'000;  // 5 ms
  Topology topo(cfg);
  std::byte a{}, b{};
  const util::Stopwatch sw;
  ASSERT_TRUE(ThrottledMemcpy(topo, {0, 0}, &a, &b, 1, MemcpyKind::kD2D).ok());
  EXPECT_GT(sw.ElapsedSec(), 0.004);
}

TEST_F(CopyTest, ChargeHelpersConsumeBandwidth) {
  TopologyConfig cfg = TopologyConfig::Testing();
  cfg.nvme_drive_bw = 4 << 20;
  cfg.pfs_bw = 4 << 20;
  cfg.pcie_link_bw = 4 << 20;
  cfg.host_mem_bw = 0;
  cfg.d2d_bw = 4 << 20;
  cfg.copy_latency_ns = 0;
  Topology topo(cfg);
  for (auto charge : {+[](const Topology& t) { ChargeNvme(t, 0, 1 << 20); },
                      +[](const Topology& t) { ChargePfs(t, 1 << 20); },
                      +[](const Topology& t) { ChargePcie(t, {0, 0}, 1 << 20); },
                      +[](const Topology& t) { ChargeD2D(t, {0, 0}, 1 << 20); }}) {
    const util::Stopwatch sw;
    charge(topo);
    EXPECT_GT(sw.ElapsedSec(), 0.1);  // 1 MiB at 4 MiB/s ~ 250 ms
  }
}

TEST_F(CopyTest, ChargesPayOnTheCallingThreadsIoTag) {
  Topology topo(TopologyConfig::Testing());  // unlimited links still count
  const auto src = Pattern(200 << 10, 3);
  std::vector<std::byte> dst(src.size());
  {
    const util::ScopedIoTag outer({.flow = 2, .io_class = util::IoClass::kFlush});
    ASSERT_TRUE(ThrottledMemcpy(topo, {0, 0}, dst.data(), src.data(),
                                src.size(), MemcpyKind::kD2H)
                    .ok());
    {
      const util::ScopedIoTag inner({.flow = 5});
      ChargeNvme(topo, 0, 1 << 20);
      EXPECT_EQ(util::CurrentIoTag().flow, 5);
    }
    // The inner scope restored the outer tag.
    EXPECT_EQ(util::CurrentIoTag().flow, 2);
    EXPECT_EQ(util::CurrentIoTag().io_class, util::IoClass::kFlush);
    ChargePfs(topo, 1 << 10);
  }
  // Untagged again: flow 0, weight 1, demand.
  EXPECT_EQ(util::CurrentIoTag().flow, 0);
  EXPECT_EQ(util::CurrentIoTag().weight, 1.0);
  EXPECT_EQ(util::CurrentIoTag().io_class, util::IoClass::kDemand);
  ChargeNvme(topo, 0, 4 << 10);
  // Another thread does not see this thread's tag.
  const util::ScopedIoTag here({.flow = 7});
  std::thread([&topo] { ChargePfs(topo, 2 << 10); }).join();

  const auto& pcie = topo.pcie_link({0, 0}, Topology::LinkDir::kD2H);
  EXPECT_EQ(pcie.admitted_bytes(2), src.size());
  EXPECT_EQ(topo.host_mem({0, 0}).admitted_bytes(2), src.size());
  EXPECT_EQ(topo.nvme_for_rank(0).admitted_bytes(5), 1u << 20);
  EXPECT_EQ(topo.nvme_for_rank(0).admitted_bytes(0), 4u << 10);
  EXPECT_EQ(topo.pfs().admitted_bytes(2), 1u << 10);
  EXPECT_EQ(topo.pfs().admitted_bytes(0), 2u << 10);
  EXPECT_EQ(topo.pfs().admitted_bytes(7), 0u);
}

}  // namespace
}  // namespace ckpt::sim
