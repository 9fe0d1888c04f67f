#include "storage/throttled_store.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "storage/mem_store.hpp"
#include "util/clock.hpp"

namespace ckpt::storage {
namespace {

TEST(ThrottledStoreTest, DelegatesAllOperations) {
  auto inner = std::make_shared<MemStore>();
  int writes = 0, reads = 0;
  ThrottledStore store(
      inner, [&](const ObjectKey&, std::uint64_t) { ++writes; },
      [&](const ObjectKey&, std::uint64_t) { ++reads; });

  std::vector<std::byte> blob(128, std::byte{0x5a});
  ASSERT_TRUE(store.Put({0, 1}, blob.data(), blob.size()).ok());
  EXPECT_TRUE(store.Exists({0, 1}));
  EXPECT_EQ(*store.Size({0, 1}), 128u);
  std::vector<std::byte> out(128);
  ASSERT_TRUE(store.Get({0, 1}, out.data(), out.size()).ok());
  EXPECT_EQ(out, blob);
  EXPECT_EQ(store.Keys().size(), 1u);
  EXPECT_EQ(store.TotalBytes(), 128u);
  ASSERT_TRUE(store.Erase({0, 1}).ok());
  EXPECT_EQ(writes, 1);
  EXPECT_EQ(reads, 1);
}

TEST(ThrottledStoreTest, GetOnMissingObjectSkipsCharge) {
  auto inner = std::make_shared<MemStore>();
  int reads = 0;
  ThrottledStore store(inner, nullptr,
                       [&](const ObjectKey&, std::uint64_t) { ++reads; });
  std::byte b;
  EXPECT_FALSE(store.Get({9, 9}, &b, 1).ok());
  EXPECT_EQ(reads, 0);  // bandwidth not charged for a failed lookup
}

TEST(ThrottledStoreTest, ChargeSeesObjectSizeNotBufferSize) {
  auto inner = std::make_shared<MemStore>();
  std::uint64_t charged = 0;
  ThrottledStore store(inner, nullptr,
                       [&](const ObjectKey&, std::uint64_t n) { charged = n; });
  std::vector<std::byte> blob(100, std::byte{1});
  ASSERT_TRUE(store.Put({0, 0}, blob.data(), blob.size()).ok());
  std::vector<std::byte> out(500);
  ASSERT_TRUE(store.Get({0, 0}, out.data(), out.size()).ok());
  EXPECT_EQ(charged, 100u);
}

TEST(ThrottledStoreTest, SsdFactoryThrottlesByDriveBandwidth) {
  sim::TopologyConfig cfg = sim::TopologyConfig::Testing();
  cfg.nvme_drive_bw = 4 << 20;  // 4 MiB/s
  sim::Topology topo(cfg);
  auto store = MakeSsdStore(topo, std::make_shared<MemStore>());
  std::vector<std::byte> blob(1 << 20, std::byte{2});  // ~250 ms
  const util::Stopwatch sw;
  ASSERT_TRUE(store->Put({0, 0}, blob.data(), blob.size()).ok());
  EXPECT_GT(sw.ElapsedSec(), 0.15);
}

TEST(ThrottledStoreTest, PfsFactoryThrottlesGlobally) {
  sim::TopologyConfig cfg = sim::TopologyConfig::Testing();
  cfg.pfs_bw = 4 << 20;
  sim::Topology topo(cfg);
  auto store = MakePfsStore(topo, std::make_shared<MemStore>());
  std::vector<std::byte> blob(1 << 20, std::byte{3});
  const util::Stopwatch sw;
  ASSERT_TRUE(store->Put({0, 0}, blob.data(), blob.size()).ok());
  std::vector<std::byte> out(1 << 20);
  ASSERT_TRUE(store->Get({0, 0}, out.data(), out.size()).ok());
  EXPECT_GT(sw.ElapsedSec(), 0.3);  // two 1 MiB transfers at 4 MiB/s
}

TEST(ThrottledStoreTest, DifferentRanksUseDifferentDrives) {
  sim::TopologyConfig cfg = sim::TopologyConfig::Testing();
  cfg.gpus_per_node = 8;
  cfg.nvme_drives_per_node = 4;
  cfg.nvme_drive_bw = 8 << 20;
  sim::Topology topo(cfg);
  auto store = MakeSsdStore(topo, std::make_shared<MemStore>());
  std::vector<std::byte> blob(1 << 20, std::byte{4});
  // Ranks 0 and 1 stripe to different drives: each drive's limiter carries
  // exactly its own rank's bytes.
  util::RateLimiter& drive0 = topo.nvme_for_rank(0);
  util::RateLimiter& drive1 = topo.nvme_for_rank(1);
  ASSERT_NE(&drive0, &drive1);
  ASSERT_TRUE(store->Put({0, 0}, blob.data(), blob.size()).ok());
  ASSERT_TRUE(store->Put({0, 1}, blob.data(), blob.size()).ok());
  ASSERT_TRUE(store->Put({1, 1}, blob.data(), blob.size()).ok());
  EXPECT_EQ(drive0.admitted_bytes(), 2 * blob.size());
  EXPECT_EQ(drive1.admitted_bytes(), blob.size());
}

}  // namespace
}  // namespace ckpt::storage
