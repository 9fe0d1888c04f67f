#include "rtm/workload.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "core/engine.hpp"
#include "storage/mem_store.hpp"

namespace ckpt::rtm {
namespace {

TEST(RestoreOrderTest, SequentialAndReverse) {
  ShotConfig cfg;
  cfg.num_ckpts = 5;
  cfg.read_order = ReadOrder::kSequential;
  EXPECT_EQ(MakeRestoreOrder(cfg, 0),
            (std::vector<core::Version>{0, 1, 2, 3, 4}));
  cfg.read_order = ReadOrder::kReverse;
  EXPECT_EQ(MakeRestoreOrder(cfg, 0),
            (std::vector<core::Version>{4, 3, 2, 1, 0}));
}

TEST(RestoreOrderTest, IrregularIsPermutationAndDeterministic) {
  ShotConfig cfg;
  cfg.num_ckpts = 64;
  cfg.read_order = ReadOrder::kIrregular;
  const auto order = MakeRestoreOrder(cfg, 3);
  EXPECT_EQ(order, MakeRestoreOrder(cfg, 3));        // deterministic
  EXPECT_NE(order, MakeRestoreOrder(cfg, 4));        // rank-dependent
  std::set<core::Version> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), 64u);                     // a permutation
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 63u);
  // Not the identity or the reverse.
  std::vector<core::Version> identity(64);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_NE(order, identity);
}

TEST(PatternTest, FillAndCheckAgree) {
  std::vector<std::byte> buf(4096 + 3);  // odd tail exercises byte path
  FillPattern(2, 7, buf.data(), buf.size());
  EXPECT_TRUE(CheckPattern(2, 7, buf.data(), buf.size()));
  EXPECT_FALSE(CheckPattern(2, 8, buf.data(), buf.size()));  // wrong version
  EXPECT_FALSE(CheckPattern(3, 7, buf.data(), buf.size()));  // wrong rank
  buf[100] ^= std::byte{1};
  EXPECT_FALSE(CheckPattern(2, 7, buf.data(), buf.size()));  // corruption
}

class WorkloadRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_.reset();  // must go before the cluster it references
    sim::TopologyConfig topo = sim::TopologyConfig::Testing();
    topo.gpus_per_node = 4;
    topo.hbm_capacity = 8 << 20;
    cluster_ = std::make_unique<sim::Cluster>(topo);
    ssd_ = std::make_shared<storage::MemStore>();
    engine_ = std::make_unique<core::Engine>(
        *cluster_,
        core::TierStack::Default(ssd_, nullptr, 256 << 10, 1 << 20).value(),
        core::EngineOptions{}, 4);
  }

  ShotConfig SmallShot() {
    ShotConfig cfg;
    cfg.num_ckpts = 12;
    cfg.compute_interval = std::chrono::microseconds(200);
    cfg.verify = true;
    cfg.trace.num_snapshots = 12;
    cfg.trace.uniform_size = 32 << 10;
    cfg.trace.min_size = 4 << 10;
    cfg.trace.max_size = 64 << 10;
    cfg.trace.plateau_mean = 40 << 10;
    cfg.trace.ramp_start_mean = 8 << 10;
    return cfg;
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::shared_ptr<storage::MemStore> ssd_;
  std::unique_ptr<core::Engine> engine_;
};

TEST_F(WorkloadRunTest, ReverseShotVerifies) {
  auto cfg = SmallShot();
  cfg.read_order = ReadOrder::kReverse;
  cfg.hint_mode = HintMode::kAll;
  auto result = RunShot(*cluster_, *engine_, cfg, 4);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->verify_failures, 0u);
  EXPECT_EQ(result->per_rank.size(), 4u);
  for (const auto& m : result->per_rank) {
    EXPECT_EQ(m.ckpt_block_s.size(), 12u);
    EXPECT_EQ(m.restore_block_s.size(), 12u);
  }
  EXPECT_GT(result->MeanCkptThroughput(), 0.0);
  EXPECT_GT(result->MeanRestoreThroughput(), 0.0);
  EXPECT_NEAR(result->AggCkptThroughput(),
              result->MeanCkptThroughput() * 4, 1e-6);
}

TEST_F(WorkloadRunTest, AllOrdersAndHintModesVerify) {
  for (ReadOrder order : {ReadOrder::kSequential, ReadOrder::kReverse,
                          ReadOrder::kIrregular}) {
    for (HintMode hints : {HintMode::kNone, HintMode::kSingle, HintMode::kAll}) {
      SetUp();  // fresh engine per combination (versions are immutable)
      auto cfg = SmallShot();
      cfg.read_order = order;
      cfg.hint_mode = hints;
      auto result = RunShot(*cluster_, *engine_, cfg, 4);
      ASSERT_TRUE(result.ok())
          << to_string(order) << "/" << to_string(hints) << ": "
          << result.status();
      EXPECT_EQ(result->verify_failures, 0u)
          << to_string(order) << "/" << to_string(hints);
    }
  }
}

TEST_F(WorkloadRunTest, VariableSizesWithWaitMode) {
  auto cfg = SmallShot();
  cfg.size_mode = SizeMode::kVariable;
  cfg.read_order = ReadOrder::kIrregular;
  cfg.wait_for_flush = true;
  auto result = RunShot(*cluster_, *engine_, cfg, 4);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->verify_failures, 0u);
  // WAIT mode: everything durable before restores started.
  EXPECT_EQ(ssd_->Keys().size(), 4u * 12u);
  for (const auto& m : result->per_rank) {
    EXPECT_GE(m.wait_for_flush_s, 0.0);
  }
}

TEST_F(WorkloadRunTest, TightlyCoupledBarriers) {
  auto cfg = SmallShot();
  cfg.coupling = Coupling::kTightlyCoupled;
  auto result = RunShot(*cluster_, *engine_, cfg, 4);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->verify_failures, 0u);
}

TEST_F(WorkloadRunTest, RejectsBadRankCount) {
  auto cfg = SmallShot();
  EXPECT_FALSE(RunShot(*cluster_, *engine_, cfg, 0).ok());
  EXPECT_FALSE(RunShot(*cluster_, *engine_, cfg, 99).ok());
}

TEST_F(WorkloadRunTest, MergedMetricsSumPerRank) {
  auto cfg = SmallShot();
  auto result = RunShot(*cluster_, *engine_, cfg, 4);
  ASSERT_TRUE(result.ok());
  std::uint64_t bytes = 0;
  for (const auto& m : result->per_rank) bytes += m.bytes_checkpointed;
  EXPECT_EQ(result->merged.bytes_checkpointed, bytes);
  EXPECT_EQ(result->total_bytes, bytes);
}

}  // namespace
}  // namespace ckpt::rtm
