// Multi-tenant service layer (DESIGN.md §12): the tenants= grammar, the
// registry's rank-block assignment, engine-level quota admission and close
// semantics, tenant-labeled telemetry, and the reserve path's fragment
// snapshot reuse across consecutive stale replan rounds.
#include "core/tenant.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/telemetry_sink.hpp"
#include "core/trace_sink.hpp"
#include "rtm/workload.hpp"
#include "simgpu/copy.hpp"
#include "storage/mem_store.hpp"
#include "storage/throttled_store.hpp"
#include "util/json.hpp"

namespace ckpt::core {
namespace {

using rtm::CheckPattern;
using rtm::FillPattern;

// --- tenants= grammar --------------------------------------------------

TEST(ParseTenantSpecsTest, EmptyTextIsLegacySingleTenantMode) {
  auto specs = ParseTenantSpecs("");
  ASSERT_TRUE(specs.ok());
  EXPECT_TRUE(specs->empty());
}

TEST(ParseTenantSpecsTest, ParsesNamesQuotasAndWeights) {
  auto specs = ParseTenantSpecs("rtm:24Mi;synth:8Mi:0.5; third : 0 ");
  ASSERT_TRUE(specs.ok());
  ASSERT_EQ(specs->size(), 3u);
  EXPECT_EQ((*specs)[0].name, "rtm");
  EXPECT_EQ((*specs)[0].quota_bytes, 24ull << 20);
  EXPECT_DOUBLE_EQ((*specs)[0].weight, 1.0);
  EXPECT_EQ((*specs)[1].name, "synth");
  EXPECT_EQ((*specs)[1].quota_bytes, 8ull << 20);
  EXPECT_DOUBLE_EQ((*specs)[1].weight, 0.5);
  EXPECT_EQ((*specs)[2].name, "third");
  EXPECT_EQ((*specs)[2].quota_bytes, 0u);  // 0 = unlimited
}

TEST(ParseTenantSpecsTest, RejectsMalformedEntries) {
  EXPECT_FALSE(ParseTenantSpecs("noquota").ok());
  EXPECT_FALSE(ParseTenantSpecs(":1Mi").ok());
  EXPECT_FALSE(ParseTenantSpecs("a:notasize").ok());
  EXPECT_FALSE(ParseTenantSpecs("a:1Mi:0").ok());     // weight must be > 0
  EXPECT_FALSE(ParseTenantSpecs("a:1Mi:-2").ok());
  EXPECT_FALSE(ParseTenantSpecs("a:1Mi;a:2Mi").ok()); // duplicate name
}

// --- TenantRegistry -----------------------------------------------------

TEST(TenantRegistryTest, AssignsContiguousRankBlocksInOrder) {
  TenantRegistry reg(8);
  auto a = reg.Open(TenantSpec{.name = "a"}, 3);
  auto b = reg.Open(TenantSpec{.name = "b"}, 5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, 0);
  EXPECT_EQ(*b, 1);
  for (int r = 0; r < 3; ++r) EXPECT_EQ(reg.tenant_of(r), *a);
  for (int r = 3; r < 8; ++r) EXPECT_EQ(reg.tenant_of(r), *b);
  EXPECT_EQ(reg.tenant_of(8), kNoTenant);
  EXPECT_EQ(reg.tenant_of(-1), kNoTenant);
  EXPECT_EQ(reg.count(), 2);
  EXPECT_EQ(reg.assigned_ranks(), 8);
  EXPECT_EQ(reg.FindByName("b"), *b);
  EXPECT_EQ(reg.FindByName("zzz"), kNoTenant);
}

TEST(TenantRegistryTest, RejectsOverCommitAndDuplicates) {
  TenantRegistry reg(4);
  ASSERT_TRUE(reg.Open(TenantSpec{.name = "a"}, 3).ok());
  EXPECT_FALSE(reg.Open(TenantSpec{.name = "b"}, 2).ok());  // 1 rank left
  EXPECT_FALSE(reg.Open(TenantSpec{.name = "a"}, 1).ok());  // duplicate
  EXPECT_FALSE(reg.Open(TenantSpec{.name = ""}, 1).ok());
  EXPECT_FALSE(reg.Open(TenantSpec{.name = "w", .weight = 0.0}, 1).ok());
}

TEST(TenantRegistryTest, CloseIsSingleShotAndKeepsCtxReadable) {
  TenantRegistry reg(2);
  auto id = reg.Open(TenantSpec{.name = "a"}, 2);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(reg.Close(*id).ok());
  EXPECT_EQ(reg.Close(*id).code(), util::ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(reg.Close(99).ok());
  const TenantCtx* ctx = reg.Get(*id);
  ASSERT_NE(ctx, nullptr);
  EXPECT_FALSE(ctx->open.load());
  EXPECT_EQ(reg.tenant_of(0), *id);  // ranks stay assigned
}

// --- Engine integration -------------------------------------------------

class TenantEngineTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kCkptSize = 64 << 10;

  /// Small caches: the GPU cache fits 4 checkpoints, the host 16.
  void Build(EngineOptions opts, int ranks,
             const std::string& tenants = "") {
    if (!tenants.empty()) {
      auto specs = ParseTenantSpecs(tenants);
      ASSERT_TRUE(specs.ok()) << specs.status();
      opts.tenants = std::move(*specs);
    }
    engine_.reset();  // must go before the cluster it references
    sim::TopologyConfig topo = sim::TopologyConfig::Testing();
    topo.gpus_per_node = std::max(topo.gpus_per_node, ranks);
    cluster_ = std::make_unique<sim::Cluster>(topo);
    ssd_ = std::make_shared<storage::MemStore>();
    pfs_ = std::make_shared<storage::MemStore>();
    engine_ = std::make_unique<Engine>(
        *cluster_,
        TierStack::Default(ssd_, pfs_, 4 * kCkptSize, 16 * kCkptSize).value(),
        opts, ranks);
  }

  void WriteCkpt(sim::Rank rank, Version v) {
    auto buf = cluster_->device(rank).Allocate(kCkptSize);
    ASSERT_TRUE(buf.ok());
    FillPattern(rank, v, *buf, kCkptSize);
    ASSERT_TRUE(engine_->Checkpoint(rank, v, *buf, kCkptSize).ok());
    ASSERT_TRUE(cluster_->device(rank).Free(*buf).ok());
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::shared_ptr<storage::MemStore> ssd_;
  std::shared_ptr<storage::MemStore> pfs_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(TenantEngineTest, LegacyModeOpensOneDefaultTenantOverAllRanks) {
  Build({}, 2);
  EXPECT_FALSE(engine_->multi_tenant());
  const TenantRegistry& reg = engine_->tenant_registry();
  EXPECT_EQ(reg.count(), 1);
  EXPECT_EQ(engine_->TenantOf(0), kDefaultTenant);
  EXPECT_EQ(engine_->TenantOf(1), kDefaultTenant);
  // The implicit tenant is labeled like any other: every rank sample of the
  // scrape carries tenant="default".
  EXPECT_EQ(engine_->TenantLabelOf(0), "default");
  EXPECT_EQ(engine_->TenantLabelOf(1), "default");
  const TelemetryCheck check = ValidateOpenMetrics(OpenMetricsText(*engine_));
  ASSERT_TRUE(check.ok) << check.error;
  std::size_t rank_samples = 0;
  for (const auto& [key, value] : check.values) {
    if (key.find("rank=\"") == std::string::npos) continue;
    ++rank_samples;
    EXPECT_NE(key.find("tenant=\"default\",rank=\""), std::string::npos)
        << key;
  }
  EXPECT_GT(rank_samples, 0u);
  EXPECT_EQ(check.values.at("ckpt_checkpoints_total{tenant=\"default\",rank=\"1\"}"),
            0.0);
}

TEST_F(TenantEngineTest, TenantsSplitRanksIntoContiguousBlocks) {
  Build({}, 4, "a:1Mi;b:2Mi:0.5");
  EXPECT_TRUE(engine_->multi_tenant());
  const TenantRegistry& reg = engine_->tenant_registry();
  ASSERT_EQ(reg.count(), 2);
  EXPECT_EQ(engine_->TenantOf(0), 0);
  EXPECT_EQ(engine_->TenantOf(1), 0);
  EXPECT_EQ(engine_->TenantOf(2), 1);
  EXPECT_EQ(engine_->TenantOf(3), 1);
  EXPECT_EQ(engine_->TenantLabelOf(0), "a");
  EXPECT_EQ(engine_->TenantLabelOf(3), "b");
  EXPECT_EQ(reg.Get(1)->spec.quota_bytes, 2ull << 20);
  EXPECT_DOUBLE_EQ(reg.Get(1)->spec.weight, 0.5);
}

TEST_F(TenantEngineTest, UnevenSplitGivesRemainderToEarlierTenants) {
  Build({}, 5, "a:0;b:0");
  const TenantRegistry& reg = engine_->tenant_registry();
  ASSERT_EQ(reg.count(), 2);
  EXPECT_EQ(reg.Get(0)->num_ranks, 3);
  EXPECT_EQ(reg.Get(1)->num_ranks, 2);
  EXPECT_EQ(reg.assigned_ranks(), 5);
}

TEST_F(TenantEngineTest, ClosedTenantRejectsTrafficNeighborUnaffected) {
  Build({}, 2, "a:0;b:0");
  WriteCkpt(0, 0);
  WriteCkpt(1, 0);
  ASSERT_TRUE(engine_->CloseTenant(0).ok());
  auto buf = cluster_->device(0).Allocate(kCkptSize);
  ASSERT_TRUE(buf.ok());
  const util::Status ckpt = engine_->Checkpoint(0, 1, *buf, kCkptSize);
  EXPECT_EQ(ckpt.code(), util::ErrorCode::kFailedPrecondition);
  EXPECT_EQ(engine_->Restore(0, 0, *buf, kCkptSize).code(),
            util::ErrorCode::kFailedPrecondition);
  EXPECT_EQ(engine_->PrefetchEnqueue(0, 0).code(),
            util::ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(cluster_->device(0).Free(*buf).ok());
  // Tenant b's ranks keep full service.
  WriteCkpt(1, 1);
  // Double close fails cleanly.
  EXPECT_EQ(engine_->CloseTenant(0).code(),
            util::ErrorCode::kFailedPrecondition);
}

TEST_F(TenantEngineTest, QuotaTenantIsCappedWhileUnlimitedNeighborRuns) {
  // Tenant a: 2-checkpoint quota. Tenant b: unlimited. Both write a long
  // series; a's cache residency must never exceed its quota while b keeps
  // its full working set.
  EngineOptions opts;
  Build(opts, 2, "a:128Ki;b:0");
  const std::uint64_t quota = 128 << 10;
  for (Version v = 0; v < 12; ++v) {
    WriteCkpt(0, v);
    WriteCkpt(1, v);
    EXPECT_LE(engine_->TenantCacheUsed(0), quota)
        << "tenant a over quota after version " << v;
  }
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  ASSERT_TRUE(engine_->WaitForFlushes(1).ok());
  EXPECT_LE(engine_->TenantCacheUsed(0), quota);
  EXPECT_GT(engine_->TenantCacheUsed(1), quota);  // b kept its bigger set
  const RankMetrics mb = engine_->MetricsSnapshot(1);
  // Quota pressure never crosses the tenant boundary: b is unlimited, so
  // its reserve path must not take a single quota wait.
  EXPECT_EQ(mb.reserve_quota_waits, 0u);
  // Every checkpoint still round-trips (quota sheds flushed copies, not
  // durability).
  for (Version v = 0; v < 12; ++v) {
    auto buf = cluster_->device(0).Allocate(kCkptSize);
    ASSERT_TRUE(buf.ok());
    ASSERT_TRUE(engine_->Restore(0, v, *buf, kCkptSize).ok());
    EXPECT_TRUE(CheckPattern(0, v, *buf, kCkptSize));
    ASSERT_TRUE(cluster_->device(0).Free(*buf).ok());
  }
}

TEST_F(TenantEngineTest, QuotaIsRecheckedWhenAnotherReservationCommitsFirst) {
  // Forces the interleaving deterministically: rank 0's reservation passes
  // the quota check at the top of its round, and before it commits, rank 1
  // of the same tenant commits two checkpoints that fill the quota. The
  // commit hook runs on rank 0's thread with rank 0's lock held, exactly
  // between the planning and the commit; rank 1 has its own lock.
  struct Race {
    std::thread::id writer;
    std::atomic<bool> armed{false};
    std::atomic<bool> fired{false};
    std::atomic<int> neighbor_failures{0};
  };
  const auto race = std::make_shared<Race>();
  race->writer = std::this_thread::get_id();
  EngineOptions opts;
  opts.test_force_stale_plan = [this, race](int) {
    if (std::this_thread::get_id() != race->writer || !race->armed ||
        race->fired.exchange(true)) {
      return false;
    }
    auto buf = cluster_->device(1).Allocate(kCkptSize);
    if (!buf.ok()) {
      ++race->neighbor_failures;
      return false;
    }
    for (Version v = 0; v < 2; ++v) {
      FillPattern(1, v, *buf, kCkptSize);
      if (!engine_->Checkpoint(1, v, *buf, kCkptSize).ok()) {
        ++race->neighbor_failures;
      }
    }
    (void)cluster_->device(1).Free(*buf);
    return false;  // rank 0's plan is still geometrically valid
  };
  Build(opts, 2, "a:128Ki");  // one tenant over both ranks
  const std::uint64_t quota = 128 << 10;
  race->armed = true;
  WriteCkpt(0, 0);
  ASSERT_TRUE(race->fired);
  EXPECT_EQ(race->neighbor_failures, 0);
  EXPECT_LE(engine_->TenantCacheUsed(0), quota)
      << "rank 0 committed on top of rank 1's quota-filling reservations";
  EXPECT_GE(engine_->MetricsSnapshot(0).reserve_plans_stale, 1u);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  ASSERT_TRUE(engine_->WaitForFlushes(1).ok());
  EXPECT_LE(engine_->TenantCacheUsed(0), quota);
  auto buf = cluster_->device(0).Allocate(kCkptSize);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(engine_->Restore(0, 0, *buf, kCkptSize).ok());
  EXPECT_TRUE(CheckPattern(0, 0, *buf, kCkptSize));
  ASSERT_TRUE(cluster_->device(0).Free(*buf).ok());
}

// --- Satellite: fragment snapshot reuse across stale replans ------------

TEST_F(TenantEngineTest, StaleReplanRoundsReuseTheFragmentSnapshot) {
  // Force the first two commit attempts stale without touching the table:
  // the geometry is unchanged, so rounds 1 and 2 must reuse round 0's
  // snapshot instead of re-copying the fragment list.
  EngineOptions opts;
  opts.test_force_stale_plan = [](int round) { return round < 2; };
  Build(opts, 1);
  WriteCkpt(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  const RankMetrics m = engine_->MetricsSnapshot(0);
  // Each reservation (the checkpoint's and any cascade flush's) loses two
  // rounds to the forced-stale hook; the table never changed in between, so
  // every stale round must have reused the snapshot rather than rebuilt it.
  EXPECT_GE(m.reserve_plans_stale, 2u);
  EXPECT_EQ(m.reserve_snapshot_reuse, m.reserve_plans_stale);
  EXPECT_GE(m.reserve_rounds, 3u);
}

TEST_F(TenantEngineTest, VersionChangeBetweenRoundsRebuildsSnapshot) {
  // Consistency check for the reuse gate: a fresh engine's first write has
  // no prior snapshot, so a single non-stale reservation never reuses.
  Build({}, 1);
  WriteCkpt(0, 0);
  const RankMetrics m = engine_->MetricsSnapshot(0);
  EXPECT_EQ(m.reserve_snapshot_reuse, 0u);
}

// --- Tenant-labeled telemetry -------------------------------------------

TEST_F(TenantEngineTest, TenantLabeledScrapeIsValidOpenMetrics) {
  Build({}, 2, "a:1Mi;b:0");
  WriteCkpt(0, 0);
  WriteCkpt(1, 0);
  const std::string text = OpenMetricsText(*engine_);
  const TelemetryCheck check = ValidateOpenMetrics(text);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_NE(text.find("tenant=\"a\",rank=\"0\""), std::string::npos);
  EXPECT_NE(text.find("tenant=\"b\",rank=\"1\""), std::string::npos);
  // The new reserve families are declared and sampled.
  EXPECT_EQ(check.family_type.at("ckpt_reserve_snapshot_reuse"), "counter");
  EXPECT_EQ(check.family_type.at("ckpt_reserve_quota_waits"), "counter");
}

TEST_F(TenantEngineTest, TenantNamesAreEscapedInLabels) {
  Build({}, 1, "we\"ird:0");
  const std::string text = OpenMetricsText(*engine_);
  const TelemetryCheck check = ValidateOpenMetrics(text);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_NE(text.find("tenant=\"we\\\"ird\""), std::string::npos);
}

TEST(TenantTelemetryGoldenTest, InvalidTenantLabeledPayloadsAreRejected) {
  // Golden invalid payloads around the tenant label: the validator must
  // reject them rather than let a malformed scrape pass --require-label.
  const struct {
    const char* text;
    const char* why;
  } kCases[] = {
      {"# HELP m x\n# TYPE m gauge\nm{tenant=\"a} 1\n# EOF\n",
       "unterminated label value"},
      {"# HELP m x\n# TYPE m gauge\nm{tenant=\"a\\q\"} 1\n# EOF\n",
       "illegal escape in label value"},
      {"# HELP m x\n# TYPE m gauge\nm{2tenant=\"a\"} 1\n# EOF\n",
       "label name starts with a digit"},
      {"# HELP m x\n# TYPE m gauge\nm{tenant=\"a\"tenant=\"b\"} 1\n# EOF\n",
       "missing comma between labels"},
      {"# HELP m x\n# TYPE m gauge\nm{tenant=a} 1\n# EOF\n",
       "unquoted label value"},
  };
  for (const auto& c : kCases) {
    const TelemetryCheck check = ValidateOpenMetrics(c.text);
    EXPECT_FALSE(check.ok) << "should reject: " << c.why;
  }
}

TEST_F(TenantEngineTest, MetricsJsonCarriesTenantAttribution) {
  Build({}, 2, "a:0;b:0");
  WriteCkpt(0, 0);
  const std::string json = MetricsSnapshotJson(*engine_);
  EXPECT_NE(json.find("\"tenant\":\"a\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"reserve_snapshot_reuse\""), std::string::npos);
  EXPECT_NE(json.find("\"reserve_quota_waits\""), std::string::npos);
  // A single-tenant engine attributes every rank entry to "default".
  Build({}, 2);
  const auto doc = util::json::Parse(MetricsSnapshotJson(*engine_));
  ASSERT_TRUE(doc.ok()) << doc.status();
  const util::json::Value* ranks = doc->Find("ranks");
  ASSERT_NE(ranks, nullptr);
  ASSERT_EQ(ranks->as_array().size(), 2u);
  for (const auto& rank : ranks->as_array()) {
    ASSERT_NE(rank.Find("tenant"), nullptr);
    EXPECT_EQ(rank.Find("tenant")->as_string(), "default");
  }
}

// --- I/O classes and tenant weights on the storage link (DESIGN.md §12.3)

/// The ranks share one slow NVMe drive and every other link is unlimited.
/// The SSD is the only durable tier, so every flush put and every direct
/// restore crosses the drive.
class StorageLinkTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kChunk = sim::kCopyChunk;

  void Build(int ranks, std::uint64_t drive_bw, const std::string& tenants) {
    EngineOptions opts;
    auto specs = ParseTenantSpecs(tenants);
    ASSERT_TRUE(specs.ok()) << specs.status();
    opts.tenants = std::move(*specs);
    sim::TopologyConfig topo = sim::TopologyConfig::Testing();
    topo.gpus_per_node = std::max(topo.gpus_per_node, ranks);
    topo.nvme_drives_per_node = 1;
    topo.nvme_drive_bw = drive_bw;
    cluster_ = std::make_unique<sim::Cluster>(topo);
    engine_ = std::make_unique<Engine>(
        *cluster_,
        TierStack::Default(storage::MakeSsdStore(cluster_->topology(), ssd_),
                           /*pfs=*/nullptr, 8 << 20, 8 << 20)
            .value(),
        opts, ranks);
  }

  void WriteCkpt(sim::Rank rank, Version v, std::uint64_t size) {
    auto buf = cluster_->device(rank).Allocate(size);
    ASSERT_TRUE(buf.ok());
    FillPattern(rank, v, *buf, size);
    ASSERT_TRUE(engine_->Checkpoint(rank, v, *buf, size).ok());
    ASSERT_TRUE(cluster_->device(rank).Free(*buf).ok());
  }

  [[nodiscard]] util::RateLimiter& drive() const {
    return cluster_->topology().nvme_for_rank(0);
  }

  /// Polls until the drive has admitted `bytes` in total.
  void WaitForDriveBytes(std::uint64_t bytes) const {
    while (drive().admitted_bytes() < bytes) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  std::shared_ptr<storage::MemStore> ssd_ =
      std::make_shared<storage::MemStore>();
  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<Engine> engine_;  // declared last: destroyed first
};

TEST_F(StorageLinkTest, RestoreReadIsAdmittedBeforeQueuedFlushChunks) {
  // v0 is on the SSD from an earlier run; v1..v8 queue 2 MiB of flush puts
  // on a 4 MiB/s drive. Restore(v0) reads 1 MiB from the same drive as
  // demand, so each of its chunks is admitted before the flush chunk queued
  // ahead of it: the drive admits at most a few flush chunks while the
  // restore runs (FIFO admission would alternate, about 1 MiB), and flush
  // bytes are still queued when it returns.
  constexpr std::uint64_t kRestore = 1 << 20;
  constexpr std::uint64_t kFlushCkpt = 256 << 10;
  constexpr int kFlushes = 8;
  std::vector<std::byte> v0(kRestore);
  FillPattern(0, 0, v0.data(), kRestore);
  ASSERT_TRUE(ssd_->Put({0, 0}, v0.data(), kRestore).ok());
  Build(1, 4 << 20, "");
  for (Version v = 1; v <= kFlushes; ++v) WriteCkpt(0, v, kFlushCkpt);
  WaitForDriveBytes(1);  // the first flush chunk is on the drive

  auto buf = cluster_->device(0).Allocate(kRestore);
  ASSERT_TRUE(buf.ok());
  const std::uint64_t before = drive().admitted_bytes();
  ASSERT_TRUE(engine_->Restore(0, 0, *buf, kRestore).ok());
  const std::uint64_t after = drive().admitted_bytes();
  EXPECT_TRUE(CheckPattern(0, 0, *buf, kRestore));
  ASSERT_TRUE(cluster_->device(0).Free(*buf).ok());

  EXPECT_LE(after - before - kRestore, 4 * kChunk)
      << "flush bytes admitted while the restore read the drive";
  EXPECT_LT(after - kRestore, kFlushes * kFlushCkpt)
      << "the flush backlog drained before the restore returned";
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  EXPECT_EQ(drive().admitted_bytes(), kRestore + kFlushes * kFlushCkpt);
}

TEST_F(StorageLinkTest, TenantWeightsHoldOnTheSharedDrive) {
  // Tenants a (weight 1) and b (weight 0.5) share one 8 MiB/s drive. a
  // queues 4 MiB of flush puts and b 2 MiB, so at 2:1 both stay backlogged
  // until the end. Between 1 MiB and 4.5 MiB of drive traffic, a's
  // admitted bytes over b's read 2. Large objects keep the gaps between
  // one put and the next, where a flow briefly has nothing queued, few.
  Build(2, 8 << 20, "a:0;b:0:0.5");
  constexpr std::uint64_t kSize = 1 << 20;
  for (Version v = 0; v < 4; ++v) {
    WriteCkpt(0, v, kSize);
    if (v < 2) WriteCkpt(1, v, kSize);
  }
  WaitForDriveBytes(1 << 20);
  const std::uint64_t a0 = drive().admitted_bytes(0);
  const std::uint64_t b0 = drive().admitted_bytes(1);
  WaitForDriveBytes(9 << 19);
  const std::uint64_t a1 = drive().admitted_bytes(0);
  const std::uint64_t b1 = drive().admitted_bytes(1);
  ASSERT_LT(a1, 4 * kSize) << "a's backlog ran dry inside the window";
  ASSERT_LT(b1, 2 * kSize) << "b's backlog ran dry inside the window";
  ASSERT_GT(b1, b0);
  EXPECT_NEAR(static_cast<double>(a1 - a0) / static_cast<double>(b1 - b0),
              2.0, 0.3);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  ASSERT_TRUE(engine_->WaitForFlushes(1).ok());
  EXPECT_EQ(drive().admitted_bytes(0), 4 * kSize);
  EXPECT_EQ(drive().admitted_bytes(1), 2 * kSize);
}

}  // namespace
}  // namespace ckpt::core
