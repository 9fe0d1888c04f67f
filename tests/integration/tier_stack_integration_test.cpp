// End-to-end coverage of config-driven N-tier stacks: a host-only 3-tier
// stack and a 5-tier stack with a second durable stage must complete full
// RTM shots with verified data through the same harness the benches use,
// and a permanent failure of the deepest durable tier must degrade
// durability to the next surviving durable tier instead of losing data.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "core/engine.hpp"
#include "core/tier_stack.hpp"
#include "harness/experiment.hpp"
#include "rtm/workload.hpp"
#include "storage/faulty_store.hpp"
#include "storage/mem_store.hpp"

namespace ckpt::harness {
namespace {

sim::TopologyConfig FastTopo() {
  sim::TopologyConfig topo = sim::TopologyConfig::Scaled();
  topo.gpus_per_node = 4;
  topo.hbm_capacity = 16 << 20;
  topo.d2d_bw = 0;
  topo.pcie_link_bw = 800 << 20;
  topo.host_mem_bw = 0;
  topo.nvme_drive_bw = 400 << 20;
  topo.pfs_bw = 200 << 20;
  topo.device_alloc_bw = 0;
  topo.pinned_alloc_bw = 0;
  topo.copy_latency_ns = 0;
  return topo;
}

ExperimentConfig BaseConfig() {
  ExperimentConfig cfg;
  cfg.topology = FastTopo();
  cfg.num_ranks = 4;
  cfg.shot.num_ckpts = 16;
  cfg.shot.compute_interval = std::chrono::microseconds(100);
  cfg.shot.verify = true;
  cfg.shot.read_order = rtm::ReadOrder::kReverse;
  cfg.shot.hint_mode = rtm::HintMode::kAll;
  cfg.shot.trace.num_snapshots = 16;
  cfg.shot.trace.uniform_size = 48 << 10;
  cfg.shot.trace.min_size = 8 << 10;
  cfg.shot.trace.max_size = 96 << 10;
  cfg.shot.trace.plateau_mean = 56 << 10;
  cfg.shot.trace.ramp_start_mean = 12 << 10;
  return cfg;
}

TEST(TierStackIntegration, HostOnlyThreeTierStackRoundTrips) {
  ExperimentConfig cfg = BaseConfig();
  // No device cache at all: checkpoints land in the pinned host tier and
  // promotions are host-to-host — the engine must not assume a GPU tier.
  cfg.tiers = "host:cache:1Mi,ssd:durable,pfs:durable";
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->shot.verify_failures, 0u);
  EXPECT_EQ(result->shot.merged.bytes_restored,
            result->shot.merged.bytes_checkpointed);
  EXPECT_GT(result->restore_MBps_mean, 0.0);
  // Every restore was served by one of the stack's three tiers, none of
  // them a device cache.
  const auto& served = result->shot.merged.restores_from_tier;
  ASSERT_EQ(served.size(), 3u);
  EXPECT_EQ(std::accumulate(served.begin(), served.end(), std::uint64_t{0}),
            result->shot.merged.restore_block_s.size());
}

TEST(TierStackIntegration, FiveTierStackWithSecondDurableStageRoundTrips) {
  ExperimentConfig cfg = BaseConfig();
  cfg.tiers =
      "gpu:gpucache:256Ki,host:cache:1Mi,ssd:durable,pfs:durable,"
      "archive:durable";
  cfg.terminal_tier_name = "pfs";
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->shot.verify_failures, 0u);
  EXPECT_EQ(result->shot.merged.bytes_restored,
            result->shot.merged.bytes_checkpointed);
  EXPECT_EQ(result->shot.merged.tier_degradations, 0u);
}

TEST(TierStackIntegration, IrregularReadsOnDeepStack) {
  ExperimentConfig cfg = BaseConfig();
  cfg.tiers =
      "gpu:gpucache:256Ki,host:cache:1Mi,ssd:durable,pfs:durable,"
      "archive:durable";
  cfg.terminal_tier_name = "archive";
  cfg.shot.read_order = rtm::ReadOrder::kIrregular;
  cfg.shot.size_mode = rtm::SizeMode::kVariable;
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->shot.verify_failures, 0u);
}

TEST(TierStackIntegration, DeadTerminalTierDegradesButShotCompletes) {
  ExperimentConfig cfg = BaseConfig();
  cfg.tiers = "gpu:gpucache:256Ki,host:cache:1Mi,ssd:durable,pfs:durable";
  cfg.terminal_tier_name = "pfs";
  // The deepest durable tier is dead from the start: every flush exhausts
  // its retries there, degrades durability to the SSD tier, and the shot
  // must still round-trip every checkpoint.
  cfg.tier_store_factory =
      [](const std::string&, const std::string&,
         int ordinal) -> util::StatusOr<std::shared_ptr<storage::ObjectStore>> {
    auto mem = std::make_shared<storage::MemStore>();
    if (ordinal != 1) return std::shared_ptr<storage::ObjectStore>(mem);
    auto faulty = std::make_shared<storage::FaultyStore>(
        mem, storage::FaultyStore::Options{});
    faulty->SetDown(true);
    return std::shared_ptr<storage::ObjectStore>(faulty);
  };
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->shot.verify_failures, 0u);
  EXPECT_EQ(result->shot.merged.bytes_restored,
            result->shot.merged.bytes_checkpointed);
  EXPECT_GT(result->shot.merged.tier_degradations, 0u);
  EXPECT_EQ(result->shot.merged.checkpoints_lost, 0u);
}

TEST(TierStackIntegration, MixedPolicyStackRoundTripsWithPerTierEvictions) {
  // The tentpole scenario: a score-driven GPU tier over a FIFO host tier,
  // undersized so both evict, run end-to-end through the RTM harness. Both
  // cache tiers must report evictions, durable tiers must report none, and
  // the shot must still verify every byte.
  ExperimentConfig cfg = BaseConfig();
  cfg.tiers =
      "gpu:gpucache:256Ki:score,host:cache:512Ki:fifo,ssd:durable,pfs:durable";
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->shot.verify_failures, 0u);
  EXPECT_EQ(result->shot.merged.bytes_restored,
            result->shot.merged.bytes_checkpointed);
  const core::RankMetrics& m = result->shot.merged;
  ASSERT_EQ(m.evictions_from_tier.size(), 4u);
  ASSERT_EQ(m.evicted_bytes_from_tier.size(), 4u);
  // 16 ckpts x 48Ki per rank vs 256Ki GPU / 512Ki host: both tiers evict.
  EXPECT_GT(m.evictions_from_tier[0], 0u);
  EXPECT_GT(m.evictions_from_tier[1], 0u);
  EXPECT_GT(m.evicted_bytes_from_tier[0], 0u);
  EXPECT_GT(m.evicted_bytes_from_tier[1], 0u);
  EXPECT_EQ(m.evictions_from_tier[2], 0u);  // durable tiers never evict
  EXPECT_EQ(m.evictions_from_tier[3], 0u);
}

TEST(TierStackIntegration, UnknownPolicyNameFailsInitWithInvalidArgument) {
  ExperimentConfig cfg = BaseConfig();
  cfg.tiers = "gpu:gpucache:256Ki:belady,host:cache:1Mi,ssd:durable";
  auto result = RunExperiment(cfg);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::ErrorCode::kInvalidArgument);
  EXPECT_NE(result.status().ToString().find("unknown eviction policy"),
            std::string::npos)
      << result.status();
}

// --- Direct engine coverage on custom stacks ------------------------------

class TierStackEngineTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kCkptSize = 64 << 10;

  void Build(core::TierStack stack, core::EngineOptions opts = {},
             int ranks = 1) {
    engine_.reset();  // must go before the cluster it references
    cluster_ = std::make_unique<sim::Cluster>(sim::TopologyConfig::Testing());
    opts.flush_retry.initial_backoff = std::chrono::microseconds(50);
    opts.flush_retry.max_backoff = std::chrono::microseconds(200);
    opts.fetch_retry.initial_backoff = std::chrono::microseconds(50);
    opts.fetch_retry.max_backoff = std::chrono::microseconds(200);
    engine_ = std::make_unique<core::Engine>(*cluster_, std::move(stack), opts,
                                             ranks);
  }

  void WriteCkpt(sim::Rank rank, core::Version v,
                 std::uint64_t size = kCkptSize) {
    auto buf = cluster_->device(rank).Allocate(size);
    ASSERT_TRUE(buf.ok()) << buf.status();
    rtm::FillPattern(rank, v, *buf, size);
    ASSERT_TRUE(engine_->Checkpoint(rank, v, *buf, size).ok());
    ASSERT_TRUE(cluster_->device(rank).Free(*buf).ok());
  }

  void RestoreAndVerify(sim::Rank rank, core::Version v,
                        std::uint64_t size = kCkptSize) {
    auto buf = cluster_->device(rank).Allocate(size);
    ASSERT_TRUE(buf.ok()) << buf.status();
    auto st = engine_->Restore(rank, v, *buf, size);
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_TRUE(rtm::CheckPattern(rank, v, *buf, size))
        << "data corruption for version " << v;
    ASSERT_TRUE(cluster_->device(rank).Free(*buf).ok());
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<core::Engine> engine_;
};

TEST_F(TierStackEngineTest, HostOnlyStackCheckpointsAndRestores) {
  auto stack = core::ParseTierStack("host:cache:512Ki,ssd:durable", "",
                                    /*factory=*/{});
  ASSERT_TRUE(stack.ok()) << stack.status();
  Build(std::move(*stack));
  for (core::Version v = 0; v < 4; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  // No device tier exists: the host cache is stack index 0.
  EXPECT_FALSE(engine_->tiers().is_device(0));
  EXPECT_GT(engine_->CacheUsed(0, 0), 0u);
  for (core::Version v = 0; v < 4; ++v) {
    EXPECT_TRUE(engine_->ResidentOnIndex(0, v, 1));  // durable on "ssd"
    RestoreAndVerify(0, v);
  }
}

TEST_F(TierStackEngineTest, DeepestDurableFailureDegradesToNextDurable) {
  // 5-tier stack whose terminal "archive" tier is permanently down: flushes
  // must settle on the deepest *surviving* durable tier ("pfs"), generically
  // — not on a hard-coded host/SSD pair.
  auto archive_mem = std::make_shared<storage::MemStore>();
  auto archive = std::make_shared<storage::FaultyStore>(
      archive_mem, storage::FaultyStore::Options{});
  archive->SetDown(true);
  std::vector<core::TierDesc> tiers;
  tiers.push_back({"gpu", core::TierKind::kCache, core::CacheMedium::kDevice,
                   4 * kCkptSize, nullptr});
  tiers.push_back({"host", core::TierKind::kCache,
                   core::CacheMedium::kPinnedHost, 16 * kCkptSize, nullptr});
  tiers.push_back({"ssd", core::TierKind::kDurable,
                   core::CacheMedium::kPinnedHost, 0,
                   std::make_shared<storage::MemStore>()});
  tiers.push_back({"pfs", core::TierKind::kDurable,
                   core::CacheMedium::kPinnedHost, 0,
                   std::make_shared<storage::MemStore>()});
  tiers.push_back({"archive", core::TierKind::kDurable,
                   core::CacheMedium::kPinnedHost, 0, archive});
  auto stack = core::TierStack::Create(std::move(tiers), "archive");
  ASSERT_TRUE(stack.ok()) << stack.status();
  Build(std::move(*stack));

  WriteCkpt(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());  // degraded, not failed
  auto tier = engine_->DurableTierIndexOf(0, 0);
  ASSERT_TRUE(tier.ok()) << tier.status();
  EXPECT_EQ(*tier, engine_->tiers().IndexOf("pfs"));
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, 2));   // ssd copy
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, 3));   // pfs copy
  EXPECT_FALSE(engine_->ResidentOnIndex(0, 0, 4));  // archive never reached
  const core::RankMetrics& m = engine_->metrics(0);
  EXPECT_GT(m.tier_degradations, 0u);
  EXPECT_EQ(m.checkpoints_lost, 0u);
  RestoreAndVerify(0, 0);
}

TEST_F(TierStackEngineTest, InitResolvesPerTierPoliciesAgainstTheGlobalKnob) {
  // gpu names "score" explicitly, host stays silent: after Init the silent
  // tier must have inherited the engine-wide default (lru here), and the
  // stack summary must show the concrete per-tier mix.
  auto stack = core::ParseTierStack(
      "gpu:gpucache:256Ki:score,host:cache:1Mi,ssd:durable", "",
      /*factory=*/{});
  ASSERT_TRUE(stack.ok()) << stack.status();
  core::EngineOptions opts;
  opts.eviction = core::EvictionKind::kLru;
  Build(std::move(*stack), opts);
  EXPECT_EQ(engine_->tiers().policy(0), core::EvictionKind::kScore);
  EXPECT_EQ(engine_->tiers().policy(1), core::EvictionKind::kLru);
  EXPECT_EQ(engine_->tiers().ToString(),
            "gpu(256Ki,score)>host(1Mi,lru)>ssd*");
  WriteCkpt(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  RestoreAndVerify(0, 0);
}

TEST_F(TierStackEngineTest, PerTierMetricsTrackTheConfiguredStack) {
  auto stack = core::ParseTierStack(
      "gpu:gpucache:256Ki,host:cache:1Mi,ssd:durable,pfs:durable", "pfs",
      /*factory=*/{});
  ASSERT_TRUE(stack.ok()) << stack.status();
  Build(std::move(*stack));
  for (core::Version v = 0; v < 3; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  const core::RankMetrics m = engine_->metrics(0);
  ASSERT_EQ(m.flush_bytes_to_tier.size(), 4u);
  ASSERT_EQ(m.restores_from_tier.size(), 4u);
  // Every checkpoint reached both durable tiers (terminal = pfs).
  EXPECT_EQ(m.flush_bytes_to_tier[2], 3 * kCkptSize);
  EXPECT_EQ(m.flush_bytes_to_tier[3], 3 * kCkptSize);
  RestoreAndVerify(0, 0);
  // metrics() returns a snapshot, so re-read after the restore.
  const core::RankMetrics after = engine_->metrics(0);
  std::uint64_t served = 0;
  for (std::uint64_t n : after.restores_from_tier) served += n;
  EXPECT_EQ(served, 1u);
}

}  // namespace
}  // namespace ckpt::harness
