// End-to-end coverage of the S3-shaped remote terminal tier: full RTM shots
// through the harness on a gpu>host>ssd>remote stack, with and without
// group aggregation, plus the telemetry contract — remote/aggregation
// families appear (and validate) exactly when a remote tier is configured,
// and stay absent (byte-level) otherwise.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/engine.hpp"
#include "core/telemetry_sink.hpp"
#include "core/tier_stack.hpp"
#include "harness/experiment.hpp"
#include "rtm/workload.hpp"
#include "storage/mem_store.hpp"
#include "storage/remote_store.hpp"
#include "util/json.hpp"

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
  cfg.shot.num_ckpts = 12;
  cfg.shot.compute_interval = std::chrono::microseconds(100);
  cfg.shot.verify = true;
  cfg.shot.read_order = rtm::ReadOrder::kReverse;
  cfg.shot.hint_mode = rtm::HintMode::kAll;
  cfg.shot.trace.num_snapshots = 12;
  cfg.shot.trace.uniform_size = 48 << 10;
  cfg.shot.trace.min_size = 8 << 10;
  cfg.shot.trace.max_size = 96 << 10;
  cfg.shot.trace.plateau_mean = 56 << 10;
  cfg.shot.trace.ramp_start_mean = 12 << 10;
  return cfg;
}

constexpr const char* kRemoteStack =
    "gpu:gpucache:256Ki;host:cache:1Mi;ssd:durable:mem;"
    "remote:durable:s3://bucket?lat_us=20&part=16Ki";
// deadline_ms=0: only count-seals, so the group arithmetic below is exact
// (48 member puts / group=4 -> 12 group objects). The deadline flusher is
// exercised by FaultInjectedRemoteStackStillVerifies and the unit tests.
constexpr const char* kRemoteStackAggregated =
    "gpu:gpucache:256Ki;host:cache:1Mi;ssd:durable:mem;"
    "remote:durable:s3://bucket?lat_us=20&part=16Ki&group=4&deadline_ms=0";

TEST(RemoteIntegration, RemoteTerminalStackRoundTrips) {
  ExperimentConfig cfg = BaseConfig();
  cfg.tiers = kRemoteStack;
  cfg.terminal_tier_name = "remote";
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->shot.verify_failures, 0u);
  EXPECT_EQ(result->shot.merged.bytes_restored,
            result->shot.merged.bytes_checkpointed);
  EXPECT_EQ(result->shot.merged.checkpoints_lost, 0u);
  EXPECT_EQ(result->shot.merged.tier_degradations, 0u);
  // The bench-report metrics snapshot carries the remote tier counters.
  const std::string& json = result->metrics_json;
  EXPECT_NE(json.find("\"remote_tiers\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"remote_puts\""), std::string::npos);
}

TEST(RemoteIntegration, AggregationCutsTerminalPutsByGroupFactor) {
  // Identical shots, aggregation off vs on (group=4): the aggregated run
  // must land at most 1/4 the remote objects (plus the final partial
  // groups) while still verifying every byte. This is the acceptance
  // experiment ISSUE.md's bench trajectory records.
  ExperimentConfig off = BaseConfig();
  off.tiers = kRemoteStack;
  off.terminal_tier_name = "remote";
  auto off_result = RunExperiment(off);
  ASSERT_TRUE(off_result.ok()) << off_result.status();
  EXPECT_EQ(off_result->shot.verify_failures, 0u);

  ExperimentConfig on = BaseConfig();
  on.tiers = kRemoteStackAggregated;
  on.terminal_tier_name = "remote";
  auto on_result = RunExperiment(on);
  ASSERT_TRUE(on_result.ok()) << on_result.status();
  EXPECT_EQ(on_result->shot.verify_failures, 0u);
  EXPECT_EQ(on_result->shot.merged.bytes_restored,
            on_result->shot.merged.bytes_checkpointed);

  const auto remote_puts = [](const std::string& json) -> std::uint64_t {
    const std::size_t at = json.find("\"remote_puts\":");
    EXPECT_NE(at, std::string::npos) << json;
    if (at == std::string::npos) return 0;
    return std::strtoull(json.c_str() + at + 14, nullptr, 10);
  };
  const auto durable_objects = [](const std::string& json) -> std::uint64_t {
    auto doc = util::json::Parse(json);
    EXPECT_TRUE(doc.ok()) << doc.status();
    if (!doc.ok()) return 0;
    const util::json::Value* merged = doc->Find("merged");
    const util::json::Value* lineage =
        merged != nullptr ? merged->Find("lineage") : nullptr;
    const util::json::Value* durable =
        lineage != nullptr ? lineage->Find("durable") : nullptr;
    EXPECT_NE(durable, nullptr) << json;
    return durable != nullptr
               ? static_cast<std::uint64_t>(durable->as_number())
               : 0;
  };
  const std::uint64_t puts_off = remote_puts(off_result->metrics_json);
  const std::uint64_t puts_on = remote_puts(on_result->metrics_json);
  // 4 ranks x 12 ckpts. Conservation: the harness drains before
  // Shutdown(), so every object reaches the terminal tier, one remote put
  // each without aggregation and one group object per 4 members (count
  // seals only) with it.
  EXPECT_EQ(puts_off, 48u);
  EXPECT_EQ(puts_off, durable_objects(off_result->metrics_json));
  EXPECT_EQ(puts_on * 4, puts_off);
  EXPECT_EQ(durable_objects(on_result->metrics_json), puts_off);
}

TEST(RemoteIntegration, FaultInjectedRemoteStackStillVerifies) {
  ExperimentConfig cfg = BaseConfig();
  cfg.tiers =
      "gpu:gpucache:256Ki;host:cache:1Mi;ssd:durable:mem;"
      "remote:durable:s3://bucket?lat_us=20&part=16Ki&fail=0.2&group=4&"
      "deadline_ms=25";
  cfg.terminal_tier_name = "remote";
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->shot.verify_failures, 0u);
  EXPECT_EQ(result->shot.merged.checkpoints_lost, 0u);
  // Per-part transient faults at 20% must surface as part retries.
  const std::string& json = result->metrics_json;
  const std::size_t at = json.find("\"remote_part_retries\":");
  ASSERT_NE(at, std::string::npos) << json;
  EXPECT_GT(std::strtoull(json.c_str() + at + 22, nullptr, 10), 0u);
}

// Drives an engine over `spec` for a few checkpoints and returns a direct
// OpenMetrics scrape of it.
std::string ScrapeStack(sim::Cluster& cluster, const std::string& spec,
                        const std::string& terminal) {
  constexpr std::uint64_t kCkptSize = 64 << 10;
  const core::TierStoreFactory factory =
      [&](const std::string&, const std::string& backend,
          int) -> util::StatusOr<std::shared_ptr<storage::ObjectStore>> {
    if (backend.substr(0, 5) == "s3://") {
      auto remote = storage::OpenRemoteBackend(backend, &cluster.topology());
      if (!remote.ok()) return remote.status();
      return std::move(*remote);
    }
    return std::shared_ptr<storage::ObjectStore>(
        std::make_shared<storage::MemStore>());
  };
  auto stack = core::ParseTierStack(spec, terminal, factory);
  EXPECT_TRUE(stack.ok()) << stack.status();
  if (!stack.ok()) return {};
  core::EngineOptions opts;
  core::Engine engine(cluster, std::move(*stack), opts, /*num_ranks=*/1);
  for (std::uint64_t v = 0; v < 4; ++v) {
    auto buf = cluster.device(0).Allocate(kCkptSize);
    EXPECT_TRUE(buf.ok()) << buf.status();
    if (!buf.ok()) return {};
    rtm::FillPattern(0, v, *buf, kCkptSize);
    EXPECT_TRUE(engine.Checkpoint(0, v, *buf, kCkptSize).ok());
    EXPECT_TRUE(cluster.device(0).Free(*buf).ok());
  }
  EXPECT_TRUE(engine.WaitForFlushes(0).ok());
  return core::OpenMetricsText(engine);
}

TEST(RemoteIntegration, OpenMetricsGatingKeepsNonRemoteExpositionIdentical) {
  // Every scrape declares the ckpt_remote_*/ckpt_agg_* families; a
  // remote-tier engine samples them per remote tier, a mem-only stack
  // declares them with no samples, and both validate as OpenMetrics.
  sim::Cluster cluster(sim::TopologyConfig::Testing());
  const std::string with_remote = ScrapeStack(
      cluster,
      "gpu:gpucache:256Ki;host:cache:1Mi;"
      "remote:durable:s3://bucket?lat_us=0&group=4&deadline_ms=0",
      "remote");
  ASSERT_FALSE(with_remote.empty());
  const auto ck = core::ValidateOpenMetrics(with_remote);
  ASSERT_TRUE(ck.ok) << ck.error;
  EXPECT_NE(with_remote.find("ckpt_remote_puts_total{tier=\"remote\"}"),
            std::string::npos)
      << with_remote;
  EXPECT_NE(with_remote.find("ckpt_agg_member_puts_total{tier=\"remote\"}"),
            std::string::npos);
  EXPECT_NE(with_remote.find("ckpt_agg_pending_bytes{tier=\"remote\"}"),
            std::string::npos);

  const std::string without_remote = ScrapeStack(
      cluster, "gpu:gpucache:256Ki;host:cache:1Mi;ssd:durable:mem", "");
  ASSERT_FALSE(without_remote.empty());
  const auto mem_ck = core::ValidateOpenMetrics(without_remote);
  ASSERT_TRUE(mem_ck.ok) << mem_ck.error;
  for (const char* family :
       {"ckpt_remote_puts", "ckpt_remote_parts", "ckpt_agg_member_puts",
        "ckpt_agg_group_puts", "ckpt_agg_pending_members",
        "ckpt_agg_pending_bytes"}) {
    EXPECT_EQ(ck.family_type.count(family), 1u) << family;
    EXPECT_EQ(mem_ck.family_type.count(family), 1u) << family;
  }
  for (const auto& [key, value] : mem_ck.values) {
    EXPECT_NE(key.rfind("ckpt_remote_", 0), 0u) << key;
    EXPECT_NE(key.rfind("ckpt_agg_", 0), 0u) << key;
  }
}

}  // namespace
}  // namespace ckpt::harness
