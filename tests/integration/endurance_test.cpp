// Endurance / soak tests: one engine instance serving several consecutive
// shots (an RTM ensemble runs hundreds of shots per process) must show no
// state drift — cache accounting returns to steady state, every round trips
// verify, and the durable store grows exactly with the written history.
#include <gtest/gtest.h>

#include "compress/compressed_store.hpp"
#include "core/engine.hpp"
#include "rtm/workload.hpp"
#include "storage/checksum_store.hpp"
#include "storage/mem_store.hpp"

namespace ckpt::core {
namespace {

using rtm::CheckPattern;
using rtm::FillPattern;

TEST(EnduranceTest, ThreeConsecutiveShotsOnOneEngine) {
  sim::Cluster cluster(sim::TopologyConfig::Testing());
  auto ssd = std::make_shared<storage::MemStore>();
  constexpr std::uint64_t kGpuBytes = 4 * (24 << 10);
  constexpr std::uint64_t kHostBytes = 12 * (24 << 10);
  Engine engine(cluster,
                TierStack::Default(ssd, nullptr, kGpuBytes, kHostBytes).value(),
                {}, 1);
  auto buf = *cluster.device(0).Allocate(24 << 10);

  constexpr int kPerShot = 20;
  for (int shot = 0; shot < 3; ++shot) {
    const Version base = static_cast<Version>(shot * kPerShot);
    for (Version v = base; v < base + kPerShot; ++v) {
      ASSERT_TRUE(engine.PrefetchEnqueue(0, v).ok());
    }
    for (Version v = base; v < base + kPerShot; ++v) {
      FillPattern(0, v, buf, 24 << 10);
      ASSERT_TRUE(engine.Checkpoint(0, v, buf, 24 << 10).ok());
    }
    ASSERT_TRUE(engine.WaitForFlushes(0).ok());
    ASSERT_TRUE(engine.PrefetchStart(0).ok());
    for (Version v = base; v < base + kPerShot; ++v) {
      ASSERT_TRUE(engine.Restore(0, v, buf, 24 << 10).ok());
      ASSERT_TRUE(CheckPattern(0, v, buf, 24 << 10)) << "shot " << shot;
    }
    // Steady state between shots: caches bounded, store holds all history.
    EXPECT_LE(engine.CacheUsed(0, Tier::kGpu), kGpuBytes);
    EXPECT_LE(engine.CacheUsed(0, Tier::kHost), kHostBytes);
    EXPECT_EQ(ssd->Keys().size(),
              static_cast<std::size_t>((shot + 1) * kPerShot));
  }
  EXPECT_EQ(engine.metrics(0).bytes_restored,
            3u * kPerShot * (24 << 10));
  ASSERT_TRUE(cluster.device(0).Free(buf).ok());
}

TEST(EnduranceTest, EngineOverChecksummedCompressedStore) {
  // The full decorated durable tier under the engine: every flush is
  // compressed + CRC'd, every store-path restore decompresses + verifies.
  sim::Cluster cluster(sim::TopologyConfig::Testing());
  auto mem = std::make_shared<storage::MemStore>();
  auto checksummed = std::make_shared<storage::ChecksumStore>(mem);
  auto compressed = std::make_shared<compress::CompressedStore>(
      checksummed, compress::CodecKind::kDeltaRle);
  Engine engine(
      cluster,
      TierStack::Default(compressed, nullptr, 2 * (32 << 10), 4 * (32 << 10))
          .value(),
      {}, 1);
  auto buf = *cluster.device(0).Allocate(32 << 10);
  constexpr int kN = 16;  // history >> caches: store reads guaranteed
  for (Version v = 0; v < kN; ++v) {
    FillPattern(0, v, buf, 32 << 10);
    ASSERT_TRUE(engine.Checkpoint(0, v, buf, 32 << 10).ok());
  }
  ASSERT_TRUE(engine.WaitForFlushes(0).ok());
  for (Version v = 0; v < kN; ++v) {
    ASSERT_TRUE(engine.Restore(0, v, buf, 32 << 10).ok());
    ASSERT_TRUE(CheckPattern(0, v, buf, 32 << 10));
  }
  EXPECT_GT(checksummed->verified(), 0u);
  EXPECT_EQ(checksummed->failures(), 0u);
  // RecoverSize must see logical (uncompressed) sizes through the stack.
  EXPECT_EQ(*engine.RecoverSize(0, 0), 32u << 10);
  ASSERT_TRUE(cluster.device(0).Free(buf).ok());
}

TEST(EnduranceTest, CorruptionOnDiskSurfacesAsIoError) {
  sim::Cluster cluster(sim::TopologyConfig::Testing());
  auto mem = std::make_shared<storage::MemStore>();
  auto checksummed = std::make_shared<storage::ChecksumStore>(mem);
  EngineOptions opts;
  opts.discard_after_restore = false;
  Engine engine(
      cluster,
      TierStack::Default(checksummed, nullptr, 2 * (16 << 10), 2 * (16 << 10))
          .value(),
      opts, 1);
  auto buf = *cluster.device(0).Allocate(16 << 10);
  // Fill caches past v0 so v0 lives only on the (corruptible) store.
  for (Version v = 0; v < 8; ++v) {
    FillPattern(0, v, buf, 16 << 10);
    ASSERT_TRUE(engine.Checkpoint(0, v, buf, 16 << 10).ok());
  }
  ASSERT_TRUE(engine.WaitForFlushes(0).ok());
  ASSERT_FALSE(engine.ResidentOnIndex(0, 0, Tier::kGpu));
  ASSERT_FALSE(engine.ResidentOnIndex(0, 0, Tier::kHost));

  // Flip one stored bit of v0.
  std::vector<std::byte> framed(*mem->Size({0, 0}));
  ASSERT_TRUE(mem->Get({0, 0}, framed.data(), framed.size()).ok());
  framed[64] ^= std::byte{1};
  ASSERT_TRUE(mem->Put({0, 0}, framed.data(), framed.size()).ok());

  const auto st = engine.Restore(0, 0, buf, 16 << 10);
  EXPECT_EQ(st.code(), util::ErrorCode::kIoError)
      << "corrupt checkpoint restored silently: " << st;
  ASSERT_TRUE(cluster.device(0).Free(buf).ok());
}

}  // namespace
}  // namespace ckpt::core
