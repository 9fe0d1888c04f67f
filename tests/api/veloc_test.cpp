// Tests of the VELOC-style API surface, including the Listing-1 usage
// pattern from the paper (reverse-order replay with prefetch hints).
#include "api/veloc.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "rtm/workload.hpp"
#include "storage/mem_store.hpp"

namespace ckpt::api {
namespace {

using rtm::CheckPattern;
using rtm::FillPattern;

class VelocApiTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kSize = 32 << 10;

  void SetUp() override {
    engine_.reset();
    cluster_ = std::make_unique<sim::Cluster>(sim::TopologyConfig::Testing());
    ssd_ = std::make_shared<storage::MemStore>();
    engine_ = std::make_unique<core::Engine>(
        *cluster_,
        core::TierStack::Default(ssd_, nullptr, 4 * kSize, 16 * kSize).value(),
        core::EngineOptions{}, 1);
    client_ = std::make_unique<VelocClient>(*engine_, *cluster_, 0);
  }

  void TearDown() override {
    client_.reset();
    engine_.reset();
  }

  sim::BytePtr DevAlloc(std::uint64_t n) {
    auto p = cluster_->device(0).Allocate(n);
    EXPECT_TRUE(p.ok());
    return *p;
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::shared_ptr<storage::MemStore> ssd_;
  std::unique_ptr<core::Engine> engine_;
  std::unique_ptr<VelocClient> client_;
};

TEST_F(VelocApiTest, SingleRegionRoundTrip) {
  sim::BytePtr buf = DevAlloc(kSize);
  ASSERT_TRUE(client_->MemProtect(1, buf, kSize).ok());
  FillPattern(0, 0, buf, kSize);
  ASSERT_TRUE(client_->Checkpoint("ckpt", 0).ok());
  FillPattern(0, 99, buf, kSize);  // clobber
  ASSERT_TRUE(client_->Restart(0).ok());
  EXPECT_TRUE(CheckPattern(0, 0, buf, kSize));
}

TEST_F(VelocApiTest, Listing1ReverseReplayWithHints) {
  // The exact structure of the paper's Listing 1.
  constexpr int kNumCkpts = 12;
  sim::BytePtr ptr = DevAlloc(kSize);

  for (int ver = kNumCkpts - 1; ver >= 0; --ver) {
    ASSERT_TRUE(client_->PrefetchEnqueue(static_cast<core::Version>(ver)).ok());
  }
  ASSERT_TRUE(client_->MemProtect(1, ptr, kSize).ok());
  for (int ver = 0; ver < kNumCkpts; ++ver) {
    FillPattern(0, static_cast<core::Version>(ver), ptr, kSize);  // "compute"
    ASSERT_TRUE(client_->Checkpoint("shot", static_cast<core::Version>(ver)).ok());
  }
  ASSERT_TRUE(client_->PrefetchStart().ok());
  for (int ver = kNumCkpts - 1; ver >= 0; --ver) {
    auto size = client_->RecoverSize(static_cast<core::Version>(ver), 1);
    ASSERT_TRUE(size.ok());
    ASSERT_TRUE(client_->MemProtect(1, ptr, *size).ok());
    ASSERT_TRUE(client_->Restart(static_cast<core::Version>(ver)).ok());
    EXPECT_TRUE(CheckPattern(0, static_cast<core::Version>(ver), ptr, *size));
  }
}

TEST_F(VelocApiTest, MultiRegionPackAndUnpack) {
  sim::BytePtr a = DevAlloc(8 << 10);
  sim::BytePtr b = DevAlloc(16 << 10);
  ASSERT_TRUE(client_->MemProtect(1, a, 8 << 10).ok());
  ASSERT_TRUE(client_->MemProtect(2, b, 16 << 10).ok());
  FillPattern(0, 1, a, 8 << 10);
  FillPattern(0, 2, b, 16 << 10);
  ASSERT_TRUE(client_->Checkpoint("multi", 0).ok());
  FillPattern(0, 77, a, 8 << 10);
  FillPattern(0, 78, b, 16 << 10);
  ASSERT_TRUE(client_->Restart(0).ok());
  EXPECT_TRUE(CheckPattern(0, 1, a, 8 << 10));
  EXPECT_TRUE(CheckPattern(0, 2, b, 16 << 10));
}

TEST_F(VelocApiTest, RecoverSizePerRegion) {
  sim::BytePtr a = DevAlloc(8 << 10);
  sim::BytePtr b = DevAlloc(16 << 10);
  ASSERT_TRUE(client_->MemProtect(1, a, 8 << 10).ok());
  ASSERT_TRUE(client_->MemProtect(2, b, 16 << 10).ok());
  ASSERT_TRUE(client_->Checkpoint("multi", 0).ok());
  EXPECT_EQ(*client_->RecoverSize(0, 1), 8u << 10);
  EXPECT_EQ(*client_->RecoverSize(0, 2), 16u << 10);
  EXPECT_FALSE(client_->RecoverSize(0, 3).ok());
}

TEST_F(VelocApiTest, ProtectValidation) {
  EXPECT_FALSE(client_->MemProtect(1, nullptr, 10).ok());
  sim::BytePtr buf = DevAlloc(64);
  EXPECT_FALSE(client_->MemProtect(1, buf, 0).ok());
  EXPECT_FALSE(client_->Checkpoint("x", 0).ok());  // nothing protected
  EXPECT_FALSE(client_->Restart(0).ok());
}

TEST_F(VelocApiTest, UnprotectRemovesRegion) {
  sim::BytePtr buf = DevAlloc(kSize);
  ASSERT_TRUE(client_->MemProtect(1, buf, kSize).ok());
  ASSERT_TRUE(client_->MemUnprotect(1).ok());
  EXPECT_FALSE(client_->MemUnprotect(1).ok());
  EXPECT_FALSE(client_->Checkpoint("x", 0).ok());
}

TEST_F(VelocApiTest, ReProtectDifferentSizeAcrossVersions) {
  sim::BytePtr buf = DevAlloc(kSize);
  ASSERT_TRUE(client_->MemProtect(1, buf, 8 << 10).ok());
  FillPattern(0, 0, buf, 8 << 10);
  ASSERT_TRUE(client_->Checkpoint("v", 0).ok());
  ASSERT_TRUE(client_->MemProtect(1, buf, 16 << 10).ok());
  FillPattern(0, 1, buf, 16 << 10);
  ASSERT_TRUE(client_->Checkpoint("v", 1).ok());
  EXPECT_EQ(*client_->RecoverSize(0, 1), 8u << 10);
  EXPECT_EQ(*client_->RecoverSize(1, 1), 16u << 10);
  ASSERT_TRUE(client_->MemProtect(1, buf, 8 << 10).ok());
  ASSERT_TRUE(client_->Restart(0).ok());
  EXPECT_TRUE(CheckPattern(0, 0, buf, 8 << 10));
}

TEST_F(VelocApiTest, WaitForFlushesPersists) {
  sim::BytePtr buf = DevAlloc(kSize);
  ASSERT_TRUE(client_->MemProtect(1, buf, kSize).ok());
  FillPattern(0, 0, buf, kSize);
  ASSERT_TRUE(client_->Checkpoint("w", 0).ok());
  ASSERT_TRUE(client_->WaitForFlushes().ok());
  EXPECT_TRUE(ssd_->Exists({0, 0}));
  EXPECT_GT(client_->metrics().flushes_completed, 0u);
}

}  // namespace
}  // namespace ckpt::api
