#include "baselines/uvm/uvm_runtime.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "rtm/workload.hpp"
#include "storage/mem_store.hpp"

namespace ckpt::uvm {
namespace {

using rtm::CheckPattern;
using rtm::FillPattern;

class UvmRuntimeTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kCkptSize = 64 << 10;

  void Build(UvmRuntimeOptions opts, int ranks = 1) {
    runtime_.reset();
    cluster_ = std::make_unique<sim::Cluster>(sim::TopologyConfig::Testing());
    ssd_ = std::make_shared<storage::MemStore>();
    runtime_ = std::make_unique<UvmRuntime>(*cluster_, ssd_, opts, ranks);
  }

  UvmRuntimeOptions Small() {
    UvmRuntimeOptions opts;
    opts.uvm.device_cache_bytes = 4 * kCkptSize;
    opts.uvm.page_size = 8 << 10;
    opts.uvm.fault_latency_ns = 0;
    return opts;
  }

  void WriteCkpt(sim::Rank rank, core::Version v) {
    auto buf = cluster_->device(rank).Allocate(kCkptSize);
    ASSERT_TRUE(buf.ok());
    FillPattern(rank, v, *buf, kCkptSize);
    ASSERT_TRUE(runtime_->Checkpoint(rank, v, *buf, kCkptSize).ok());
    ASSERT_TRUE(cluster_->device(rank).Free(*buf).ok());
  }

  void RestoreAndVerify(sim::Rank rank, core::Version v) {
    auto buf = cluster_->device(rank).Allocate(kCkptSize);
    ASSERT_TRUE(buf.ok());
    auto st = runtime_->Restore(rank, v, *buf, kCkptSize);
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_TRUE(CheckPattern(rank, v, *buf, kCkptSize));
    ASSERT_TRUE(cluster_->device(rank).Free(*buf).ok());
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::shared_ptr<storage::MemStore> ssd_;
  std::unique_ptr<UvmRuntime> runtime_;
};

TEST_F(UvmRuntimeTest, RoundTripManagedMemory) {
  Build(Small());
  WriteCkpt(0, 0);
  RestoreAndVerify(0, 0);
}

TEST_F(UvmRuntimeTest, HistoryBeyondDeviceCache) {
  Build(Small());
  for (core::Version v = 0; v < 16; ++v) WriteCkpt(0, v);
  for (int v = 15; v >= 0; --v) RestoreAndVerify(0, static_cast<core::Version>(v));
  const auto stats = runtime_->uvm_stats(0);
  EXPECT_GT(stats.pages_evicted, 0u);  // device cache churned
}

TEST_F(UvmRuntimeTest, FlushesReachSsd) {
  Build(Small());
  for (core::Version v = 0; v < 4; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(runtime_->WaitForFlushes(0).ok());
  EXPECT_EQ(ssd_->Keys().size(), 4u);
  EXPECT_EQ(runtime_->metrics(0).flushes_completed, 4u);
}

TEST_F(UvmRuntimeTest, DuplicateAndUnknownVersions) {
  Build(Small());
  WriteCkpt(0, 1);
  auto buf = cluster_->device(0).Allocate(kCkptSize);
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(runtime_->Checkpoint(0, 1, *buf, kCkptSize).code(),
            util::ErrorCode::kAlreadyExists);
  EXPECT_EQ(runtime_->Restore(0, 99, *buf, kCkptSize).code(),
            util::ErrorCode::kNotFound);
  ASSERT_TRUE(cluster_->device(0).Free(*buf).ok());
}

TEST_F(UvmRuntimeTest, PrefetchHintsPromoteRegions) {
  Build(Small());
  constexpr int kN = 8;
  for (core::Version v = 0; v < kN; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(runtime_->WaitForFlushes(0).ok());
  for (core::Version v = 0; v < kN; ++v) {
    ASSERT_TRUE(runtime_->PrefetchEnqueue(0, v).ok());
  }
  ASSERT_TRUE(runtime_->PrefetchStart(0).ok());
  for (core::Version v = 0; v < kN; ++v) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    RestoreAndVerify(0, v);
  }
  EXPECT_GT(runtime_->metrics(0).prefetch_promotions, 0u);
  EXPECT_GT(runtime_->uvm_stats(0).prefetched_pages, 0u);
}

TEST_F(UvmRuntimeTest, RecoverSizeFromRecordsAndStore) {
  Build(Small());
  WriteCkpt(0, 0);
  auto s = runtime_->RecoverSize(0, 0);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, kCkptSize);
  EXPECT_FALSE(runtime_->RecoverSize(0, 9).ok());
}

TEST_F(UvmRuntimeTest, RestartFromStoreAfterRebuild) {
  Build(Small());
  WriteCkpt(0, 0);
  ASSERT_TRUE(runtime_->WaitForFlushes(0).ok());
  runtime_ = std::make_unique<UvmRuntime>(*cluster_, ssd_, Small(), 1);
  RestoreAndVerify(0, 0);
  EXPECT_GT(runtime_->metrics(0).bytes_restored, 0u);
}

TEST_F(UvmRuntimeTest, DiscardAfterRestoreSkipsFlush) {
  auto opts = Small();
  opts.discard_after_restore = true;
  Build(opts);
  WriteCkpt(0, 0);
  RestoreAndVerify(0, 0);
  ASSERT_TRUE(runtime_->WaitForFlushes(0).ok());
  const auto& m = runtime_->metrics(0);
  EXPECT_EQ(m.flushes_cancelled + m.flushes_completed, 1u);
}

TEST_F(UvmRuntimeTest, MultiRankIsolation) {
  Build(Small(), 2);
  WriteCkpt(0, 0);
  WriteCkpt(1, 0);
  RestoreAndVerify(1, 0);  // patterns differ per rank; cross-talk would fail
  RestoreAndVerify(0, 0);
}

TEST_F(UvmRuntimeTest, MetricsPopulated) {
  Build(Small());
  WriteCkpt(0, 0);
  RestoreAndVerify(0, 0);
  const auto& m = runtime_->metrics(0);
  EXPECT_EQ(m.ckpt_block_s.size(), 1u);
  EXPECT_EQ(m.restore_block_s.size(), 1u);
  EXPECT_EQ(m.bytes_checkpointed, kCkptSize);
  EXPECT_EQ(m.restore_series.size(), 1u);
}

}  // namespace
}  // namespace ckpt::uvm
