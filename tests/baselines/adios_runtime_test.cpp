#include "baselines/adios/adios_runtime.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "rtm/workload.hpp"
#include "storage/mem_store.hpp"

namespace ckpt::adios {
namespace {

using rtm::CheckPattern;
using rtm::FillPattern;

class AdiosRuntimeTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kCkptSize = 64 << 10;

  void Build(AdiosOptions opts, int ranks = 1) {
    runtime_.reset();
    cluster_ = std::make_unique<sim::Cluster>(sim::TopologyConfig::Testing());
    ssd_ = std::make_shared<storage::MemStore>();
    runtime_ =
        std::make_unique<AdiosRuntime>(*cluster_, ssd_, opts, ranks);
  }

  AdiosOptions Small() {
    AdiosOptions opts;
    opts.host_buffer_bytes = 4 * kCkptSize;
    opts.bounce_bytes = kCkptSize;
    return opts;
  }

  void WriteCkpt(sim::Rank rank, core::Version v, std::uint64_t size = kCkptSize) {
    auto buf = cluster_->device(rank).Allocate(size);
    ASSERT_TRUE(buf.ok());
    FillPattern(rank, v, *buf, size);
    ASSERT_TRUE(runtime_->Checkpoint(rank, v, *buf, size).ok());
    ASSERT_TRUE(cluster_->device(rank).Free(*buf).ok());
  }

  void RestoreAndVerify(sim::Rank rank, core::Version v,
                        std::uint64_t size = kCkptSize) {
    auto buf = cluster_->device(rank).Allocate(size);
    ASSERT_TRUE(buf.ok());
    auto st = runtime_->Restore(rank, v, *buf, size);
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_TRUE(CheckPattern(rank, v, *buf, size));
    ASSERT_TRUE(cluster_->device(rank).Free(*buf).ok());
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::shared_ptr<storage::MemStore> ssd_;
  std::unique_ptr<AdiosRuntime> runtime_;
};

TEST_F(AdiosRuntimeTest, RoundTripThroughBufferOrFile) {
  Build(Small());
  WriteCkpt(0, 0);
  RestoreAndVerify(0, 0);
}

TEST_F(AdiosRuntimeTest, DrainReachesSsd) {
  Build(Small());
  for (core::Version v = 0; v < 3; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(runtime_->WaitForFlushes(0).ok());
  EXPECT_EQ(ssd_->Keys().size(), 3u);
  EXPECT_EQ(runtime_->metrics(0).flushes_completed, 3u);
}

TEST_F(AdiosRuntimeTest, PoolPressureBlocksThenProceeds) {
  // Pool of 4 checkpoints; write 12: puts must block on buffer-full and
  // drain, never fail, and everything lands on the SSD.
  Build(Small());
  for (core::Version v = 0; v < 12; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(runtime_->WaitForFlushes(0).ok());
  EXPECT_EQ(ssd_->Keys().size(), 12u);
  for (int v = 11; v >= 0; --v) RestoreAndVerify(0, static_cast<core::Version>(v));
}

TEST_F(AdiosRuntimeTest, OversizePoolObjectWritesThrough) {
  Build(Small());
  const std::uint64_t big = 8 * kCkptSize;  // > pool
  WriteCkpt(0, 0, big);
  EXPECT_TRUE(ssd_->Exists({0, 0}));
  RestoreAndVerify(0, 0, big);
}

TEST_F(AdiosRuntimeTest, HintsAreAcceptedAndIgnored) {
  Build(Small());
  EXPECT_TRUE(runtime_->PrefetchEnqueue(0, 5).ok());
  EXPECT_TRUE(runtime_->PrefetchStart(0).ok());
  WriteCkpt(0, 5);
  RestoreAndVerify(0, 5);
  EXPECT_EQ(runtime_->metrics(0).prefetch_promotions, 0u);
}

TEST_F(AdiosRuntimeTest, DuplicateAndUnknown) {
  Build(Small());
  WriteCkpt(0, 1);
  auto buf = cluster_->device(0).Allocate(kCkptSize);
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(runtime_->Checkpoint(0, 1, *buf, kCkptSize).code(),
            util::ErrorCode::kAlreadyExists);
  EXPECT_EQ(runtime_->Restore(0, 42, *buf, kCkptSize).code(),
            util::ErrorCode::kNotFound);
  EXPECT_EQ(runtime_->Restore(0, 1, *buf, 10).code(),
            util::ErrorCode::kInvalidArgument);
  ASSERT_TRUE(cluster_->device(0).Free(*buf).ok());
}

TEST_F(AdiosRuntimeTest, RecoverSizeAndRestartFromStore) {
  Build(Small());
  WriteCkpt(0, 3);
  ASSERT_TRUE(runtime_->WaitForFlushes(0).ok());
  EXPECT_EQ(*runtime_->RecoverSize(0, 3), kCkptSize);
  runtime_ = std::make_unique<AdiosRuntime>(*cluster_, ssd_, Small(), 1);
  EXPECT_EQ(*runtime_->RecoverSize(0, 3), kCkptSize);
  RestoreAndVerify(0, 3);
  EXPECT_EQ(runtime_->metrics(0).restores_from_tier.at(core::Tier::kSsd), 1u);
}

TEST_F(AdiosRuntimeTest, RestoreFromBufferCountsAsHostHit) {
  AdiosOptions opts = Small();
  opts.host_buffer_bytes = 64 * kCkptSize;  // keep everything buffered
  Build(opts);
  WriteCkpt(0, 0);
  RestoreAndVerify(0, 0);
  const auto& m = runtime_->metrics(0);
  EXPECT_EQ(std::accumulate(m.restores_from_tier.begin(),
                            m.restores_from_tier.end(), std::uint64_t{0}),
            1u);
}

TEST_F(AdiosRuntimeTest, MultiRankConcurrent) {
  Build(Small(), 2);
  std::jthread t0([&] {
    for (core::Version v = 0; v < 8; ++v) WriteCkpt(0, v);
    for (core::Version v = 0; v < 8; ++v) RestoreAndVerify(0, v);
  });
  std::jthread t1([&] {
    for (core::Version v = 0; v < 8; ++v) WriteCkpt(1, v);
    for (core::Version v = 0; v < 8; ++v) RestoreAndVerify(1, v);
  });
}

}  // namespace
}  // namespace ckpt::adios
