// Per-checkpoint lineage tests (DESIGN.md §14): the conservation invariant
// (every admitted object terminates in exactly one of durable / degraded /
// lost / erased) under quiet and concurrent-storm conditions, durability-lag
// accounting (and its exclusion of never-durable objects), flow-event
// emission and validation, and the lineage families every engine exposes,
// whose durability-lag counts agree between the metrics JSON and the scrape.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/telemetry_sink.hpp"
#include "core/trace_sink.hpp"
#include "rtm/workload.hpp"
#include "storage/faulty_store.hpp"
#include "storage/mem_store.hpp"
#include "util/json.hpp"
#include "util/trace.hpp"

namespace ckpt::core {
namespace {

using rtm::FillPattern;
using storage::FaultyStore;

#ifdef CKPT_TRACE_DISABLED
#define SKIP_IF_TRACE_COMPILED_OUT() \
  GTEST_SKIP() << "built with CKPT_TRACE_DISABLED"
#else
#define SKIP_IF_TRACE_COMPILED_OUT() (void)0
#endif

class LineageTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kCkptSize = 64 << 10;

  void SetUp() override {
    util::trace::Disable();
    util::trace::ResetBuffers();
  }
  void TearDown() override {
    engine_.reset();  // before the cluster
    util::trace::Disable();
    util::trace::ResetBuffers();
  }

  void Build(int ranks = 1, bool faulty_durable = false) {
    engine_.reset();
    cluster_ = std::make_unique<sim::Cluster>(sim::TopologyConfig::Testing());
    EngineOptions opts;
    opts.flush_retry.initial_backoff = std::chrono::microseconds(50);
    opts.flush_retry.max_backoff = std::chrono::microseconds(200);
    opts.fetch_retry.initial_backoff = std::chrono::microseconds(50);
    opts.fetch_retry.max_backoff = std::chrono::microseconds(200);
    auto mem = std::make_shared<storage::MemStore>();
    std::shared_ptr<storage::ObjectStore> ssd = mem;
    if (faulty_durable) {
      faulty_ = std::make_shared<FaultyStore>(mem, FaultyStore::Options{});
      ssd = faulty_;
    }
    engine_ = std::make_unique<Engine>(
        *cluster_,
        TierStack::Default(ssd, std::make_shared<storage::MemStore>(),
                           4 * kCkptSize, 16 * kCkptSize)
            .value(),
        opts, ranks);
  }

  void WriteCkpt(sim::Rank rank, Version v) {
    auto buf = cluster_->device(rank).Allocate(kCkptSize);
    ASSERT_TRUE(buf.ok()) << buf.status();
    FillPattern(rank, v, *buf, kCkptSize);
    ASSERT_TRUE(engine_->Checkpoint(rank, v, *buf, kCkptSize).ok());
    ASSERT_TRUE(cluster_->device(rank).Free(*buf).ok());
  }

  static std::uint64_t Terminated(const RankMetrics& m) {
    return m.objects_durable + m.objects_degraded + m.objects_lost +
           m.objects_erased;
  }

  static std::uint64_t LagTotal(const RankMetrics& m) {
    std::uint64_t n = 0;
    for (const auto& h : m.durability_lag) n += h.total();
    return n;
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::shared_ptr<FaultyStore> faulty_;
  std::unique_ptr<Engine> engine_;
};

// --- Conservation ---------------------------------------------------------

TEST_F(LineageTest, EveryAdmittedObjectTerminatesDurable) {
  Build();
  constexpr Version kN = 8;
  for (Version v = 0; v < kN; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());

  const RankMetrics m = engine_->MetricsSnapshot(0);
  EXPECT_EQ(m.objects_admitted, kN);
  EXPECT_EQ(m.objects_durable, kN);
  EXPECT_EQ(m.objects_degraded, 0u);
  EXPECT_EQ(m.objects_lost, 0u);
  EXPECT_EQ(m.objects_erased, 0u);
  EXPECT_EQ(Terminated(m), m.objects_admitted);
  // Every durable object contributed exactly one durability-lag sample.
  EXPECT_EQ(LagTotal(m), kN);
}

TEST_F(LineageTest, ConservationHoldsUnderConcurrentCkptRestoreStorm) {
  // TSan target: writers admit versions while readers restore and the
  // flush/evict pipeline retires them; afterwards the ledger must balance
  // exactly — no object unaccounted, none double-counted.
  Build(/*ranks=*/2);
  constexpr Version kN = 32;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (sim::Rank rank = 0; rank < 2; ++rank) {
    threads.emplace_back([&, rank] {
      for (Version v = 0; v < kN; ++v) {
        auto buf = cluster_->device(rank).Allocate(kCkptSize);
        EXPECT_TRUE(buf.ok()) << buf.status();
        if (!buf.ok()) return;
        FillPattern(rank, v, *buf, kCkptSize);
        EXPECT_TRUE(engine_->Checkpoint(rank, v, *buf, kCkptSize).ok());
        EXPECT_TRUE(cluster_->device(rank).Free(*buf).ok());
      }
    });
    threads.emplace_back([&, rank] {
      // Restores race the writers; failures (not-yet-written or already
      // superseded versions) are expected and irrelevant to conservation.
      Version v = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto buf = cluster_->device(rank).Allocate(kCkptSize);
        if (!buf.ok()) continue;
        (void)engine_->Restore(rank, v % kN, *buf, kCkptSize);
        (void)cluster_->device(rank).Free(*buf);
        v += 7;
      }
    });
  }
  threads[0].join();
  threads[2].join();
  stop.store(true, std::memory_order_relaxed);
  threads[1].join();
  threads[3].join();

  for (sim::Rank rank = 0; rank < 2; ++rank) {
    ASSERT_TRUE(engine_->WaitForFlushes(rank).ok());
    const RankMetrics m = engine_->MetricsSnapshot(rank);
    EXPECT_EQ(m.objects_admitted, kN) << "rank " << rank;
    EXPECT_EQ(Terminated(m), m.objects_admitted) << "rank " << rank;
    EXPECT_EQ(m.objects_lost, 0u) << "rank " << rank;
    // Lag samples come only from objects that reached a durable tier: at
    // least every durable object, never more than one per terminated one.
    EXPECT_GE(LagTotal(m), m.objects_durable) << "rank " << rank;
    EXPECT_LE(LagTotal(m), Terminated(m)) << "rank " << rank;
  }
}

// --- Fault-injected durability outcomes -----------------------------------

TEST_F(LineageTest, FailedDurablePutsDegradeAndSkipLagHistogram) {
  // Dead durable backend: flushes exhaust retries, objects stay durable
  // only in cache (degraded). Never-durable objects must not contribute a
  // durability-lag sample — the histogram measures time-to-durable, and
  // these never got there.
  Build(/*ranks=*/1, /*faulty_durable=*/true);
  faulty_->SetDown(true);
  constexpr Version kN = 6;
  for (Version v = 0; v < kN; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());

  const RankMetrics m = engine_->MetricsSnapshot(0);
  EXPECT_EQ(m.objects_admitted, kN);
  EXPECT_EQ(m.objects_degraded, kN);
  EXPECT_EQ(m.objects_durable, 0u);
  EXPECT_EQ(Terminated(m), m.objects_admitted);
  EXPECT_EQ(LagTotal(m), 0u);  // never durable-acked
}

TEST_F(LineageTest, RecoveredBackendRecordsLagOnlyForDurableObjects) {
  Build(/*ranks=*/1, /*faulty_durable=*/true);
  faulty_->SetDown(true);
  WriteCkpt(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  faulty_->SetDown(false);
  WriteCkpt(0, 1);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());

  const RankMetrics m = engine_->MetricsSnapshot(0);
  EXPECT_EQ(m.objects_admitted, 2u);
  EXPECT_EQ(m.objects_degraded, 1u);
  EXPECT_EQ(m.objects_durable, 1u);
  EXPECT_EQ(LagTotal(m), 1u);  // only the object that became durable
}

// --- Flow events ----------------------------------------------------------

TEST_F(LineageTest, FlowEventsStitchAdmitToTerminal) {
  SKIP_IF_TRACE_COMPILED_OUT();
  util::trace::Enable();
  Build();
  constexpr Version kN = 6;
  for (Version v = 0; v < kN; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());

  const std::string json = ChromeTraceJson();
  const TraceCheck check = ValidateChromeTrace(json);
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_GE(check.flows, static_cast<std::size_t>(kN));
  EXPECT_GE(check.flow_starts, static_cast<std::size_t>(kN));
  EXPECT_GE(check.flow_finishes, static_cast<std::size_t>(kN));
  EXPECT_EQ(check.flows_dangling, 0u);
  EXPECT_EQ(check.flows_unbound, 0u);
  EXPECT_GT(check.flows_in("lifecycle"), 0u);
  EXPECT_GT(check.flows_in("flush"), 0u);
  EXPECT_NE(json.find("ckpt:admit"), std::string::npos);
  EXPECT_NE(json.find("flow:durable"), std::string::npos);
  EXPECT_NE(json.find("hop:"), std::string::npos);
  EXPECT_NE(json.find("ack:"), std::string::npos);
}

// --- Flow validation (ValidateChromeTrace) --------------------------------

std::string WrapTrace(const std::string& events) {
  return R"({"traceEvents":[)" + events + "]}";
}

TEST(FlowValidationTest, FinishWithoutStartIsAnError) {
  const TraceCheck check = ValidateChromeTrace(WrapTrace(
      R"({"name":"flow:durable","cat":"lifecycle","ph":"f","bp":"e","id":"0xabc","bind_id":"0xabc","pid":0,"tid":1,"ts":10,"args":{}})"));
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("terminates without a start"), std::string::npos)
      << check.error;
}

TEST(FlowValidationTest, DuplicateTerminationIsAnError) {
  const TraceCheck check = ValidateChromeTrace(WrapTrace(
      R"({"name":"ckpt:admit","cat":"lifecycle","ph":"s","id":"0x1","bind_id":"0x1","pid":0,"tid":1,"ts":1,"args":{}},)"
      R"({"name":"flow:durable","cat":"lifecycle","ph":"f","bp":"e","id":"0x1","bind_id":"0x1","pid":0,"tid":1,"ts":2,"args":{}},)"
      R"({"name":"flow:erased","cat":"lifecycle","ph":"f","bp":"e","id":"0x1","bind_id":"0x1","pid":0,"tid":1,"ts":3,"args":{}})"));
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("duplicate terminations"), std::string::npos)
      << check.error;
}

TEST(FlowValidationTest, FinishBeforeStartTimestampIsAnError) {
  const TraceCheck check = ValidateChromeTrace(WrapTrace(
      R"({"name":"flow:durable","cat":"lifecycle","ph":"f","bp":"e","id":"0x1","bind_id":"0x1","pid":0,"tid":1,"ts":1,"args":{}},)"
      R"({"name":"ckpt:admit","cat":"lifecycle","ph":"s","id":"0x1","bind_id":"0x1","pid":0,"tid":2,"ts":5,"args":{}})"));
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("terminates before its start"), std::string::npos)
      << check.error;
}

TEST(FlowValidationTest, WrapMarkerDowngradesUnboundFinishes) {
  // A ring wrap can drop a flow's start while its finish survives; with a
  // trace:wrap marker present that is evidence loss, not a leak.
  const TraceCheck check = ValidateChromeTrace(WrapTrace(
      R"({"name":"trace:wrap","cat":"health","ph":"i","s":"t","pid":0,"tid":1,"ts":0,"args":{"a":12}},)"
      R"({"name":"flow:durable","cat":"lifecycle","ph":"f","bp":"e","id":"0x1","bind_id":"0x1","pid":0,"tid":1,"ts":10,"args":{}})"));
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.wraps, 1u);
  EXPECT_EQ(check.flows_unbound, 1u);
  EXPECT_EQ(check.flows_dangling, 0u);
}

TEST(FlowValidationTest, OutOfRangeIntegersAreAnError) {
  // Each field the validator or the lineage stitcher casts to an integer
  // type: a negative, fractional or huge value is rejected by name.
  const std::pair<std::string, std::string> cases[] = {
      {R"("pid":-1,"tid":1)", "pid"},
      {R"("pid":0.5,"tid":1)", "pid"},
      {R"("pid":0,"tid":1e30)", "tid"},
      {R"("pid":0,"tid":1,"args":{"version":1e30})", "args.version"},
      {R"("pid":0,"tid":1,"args":{"bytes":-8})", "args.bytes"},
      {R"("pid":0,"tid":1,"args":{"tier":2.5})", "args.tier"},
      {R"("pid":0,"tid":1,"args":{"rank":3e9})", "args.rank"},
  };
  for (const auto& [fields, name] : cases) {
    const TraceCheck check = ValidateChromeTrace(WrapTrace(
        R"({"name":"ckpt:admit","cat":"lifecycle","ph":"s","id":"0x1",)" +
        fields + R"(,"ts":1})"));
    EXPECT_FALSE(check.ok) << fields;
    EXPECT_NE(check.error.find("invalid " + name), std::string::npos)
        << fields << ": " << check.error;
  }
  // The engine's own sentinels stay valid: no tier, and rank-less groups.
  const TraceCheck check = ValidateChromeTrace(WrapTrace(
      R"({"name":"agg:open","cat":"flush","ph":"s","id":"0x1","pid":0,)"
      R"("tid":1,"ts":1,"args":{"tier":-1,"rank":-1,"version":0,"bytes":0}})"));
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(FlowValidationTest, DanglingFlowsAreCountedNotFatal) {
  const TraceCheck check = ValidateChromeTrace(WrapTrace(
      R"({"name":"ckpt:admit","cat":"lifecycle","ph":"s","id":"0x1","bind_id":"0x1","pid":0,"tid":1,"ts":1,"args":{}})"));
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.flows, 1u);
  EXPECT_EQ(check.flows_dangling, 1u);
}

// --- Lineage by default -------------------------------------------------

TEST_F(LineageTest, DefaultOptionsTrackEveryObjectToDurable) {
  // Lineage has no switch: a default-constructed engine on the default
  // stack keeps the ledger and the exposition families.
  constexpr int kRanks = 2;
  constexpr Version kN = 5;
  engine_.reset();
  cluster_ = std::make_unique<sim::Cluster>(sim::TopologyConfig::Testing());
  engine_ = std::make_unique<Engine>(
      *cluster_,
      TierStack::Default(std::make_shared<storage::MemStore>(),
                         std::make_shared<storage::MemStore>())
          .value(),
      EngineOptions{}, kRanks);
  for (sim::Rank rank = 0; rank < kRanks; ++rank) {
    for (Version v = 0; v < kN; ++v) WriteCkpt(rank, v);
    ASSERT_TRUE(engine_->WaitForFlushes(rank).ok());
  }
  const TelemetryCheck check = ValidateOpenMetrics(OpenMetricsText(*engine_));
  ASSERT_TRUE(check.ok) << check.error;
  for (sim::Rank rank = 0; rank < kRanks; ++rank) {
    const RankMetrics m = engine_->MetricsSnapshot(rank);
    EXPECT_EQ(m.objects_admitted, kN) << "rank " << rank;
    EXPECT_EQ(m.objects_durable, kN) << "rank " << rank;
    EXPECT_EQ(Terminated(m), m.objects_admitted) << "rank " << rank;
    const std::string rank_label = "rank=\"" + std::to_string(rank) + "\"";
    bool objects = false;
    bool lag = false;
    for (const auto& [key, v] : check.values) {
      if (key.find(rank_label) == std::string::npos) continue;
      objects |= key.rfind("ckpt_objects_total{", 0) == 0;
      lag |= key.rfind("ckpt_durability_lag_seconds_count{", 0) == 0;
    }
    EXPECT_TRUE(objects) << "rank " << rank << " scrape lacks ckpt_objects";
    EXPECT_TRUE(lag) << "rank " << rank
                     << " scrape lacks ckpt_durability_lag_seconds";
  }
}

TEST_F(LineageTest, LineageOnExposesObjectsAndDurabilityLagFamilies) {
  Build();
  constexpr Version kN = 5;
  for (Version v = 0; v < kN; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());

  const std::string text = OpenMetricsText(*engine_);
  const TelemetryCheck check = ValidateOpenMetrics(text);
  ASSERT_TRUE(check.ok) << check.error;
  ASSERT_TRUE(check.family_type.count("ckpt_objects"));
  ASSERT_TRUE(check.family_type.count("ckpt_objects_inflight"));
  ASSERT_TRUE(check.family_type.count("ckpt_durability_lag_seconds"));
  EXPECT_EQ(check.family_type.at("ckpt_durability_lag_seconds"), "histogram");

  double admitted = 0, durable = 0, lag_count = 0, inflight = 0;
  double inf_bucket = 0;
  for (const auto& [key, v] : check.values) {
    if (key.rfind("ckpt_objects_total{outcome=\"admitted\"", 0) == 0)
      admitted += v;
    if (key.rfind("ckpt_objects_total{outcome=\"durable\"", 0) == 0)
      durable += v;
    if (key.rfind("ckpt_durability_lag_seconds_count", 0) == 0) lag_count += v;
    if (key.rfind("ckpt_objects_inflight", 0) == 0) inflight += v;
    if (key.rfind("ckpt_durability_lag_seconds_bucket", 0) == 0 &&
        key.find("le=\"+Inf\"") != std::string::npos) {
      inf_bucket += v;
    }
  }
  EXPECT_EQ(admitted, static_cast<double>(kN));
  EXPECT_EQ(durable, static_cast<double>(kN));
  EXPECT_EQ(lag_count, static_cast<double>(kN));
  EXPECT_EQ(inflight, 0.0);
  // Cumulative histogram: the +Inf bucket equals the count.
  EXPECT_EQ(inf_bucket, lag_count);
}

TEST_F(LineageTest, MetricsJsonLagTotalsMatchScrapeCounts) {
  // The metrics JSON and the scrape render the same lag cells: per durable
  // tier, the merged `durability_lag_s.<tier>.total` equals the scrape's
  // ckpt_durability_lag_seconds_count summed over ranks — and both stay 0
  // when no object ever became durable.
  constexpr int kRanks = 2;
  constexpr Version kN = 4;
  for (const bool down : {false, true}) {
    SCOPED_TRACE(down ? "durable backend down" : "durable backend up");
    Build(kRanks, /*faulty_durable=*/true);
    faulty_->SetDown(down);
    for (sim::Rank rank = 0; rank < kRanks; ++rank) {
      for (Version v = 0; v < kN; ++v) WriteCkpt(rank, v);
      ASSERT_TRUE(engine_->WaitForFlushes(rank).ok());
    }
    const auto json = util::json::Parse(MetricsSnapshotJson(*engine_));
    ASSERT_TRUE(json.ok()) << json.status();
    const util::json::Value* merged = json->Find("merged");
    ASSERT_NE(merged, nullptr);
    const util::json::Value* lag = merged->Find("durability_lag_s");
    ASSERT_NE(lag, nullptr);
    const TelemetryCheck scrape =
        ValidateOpenMetrics(OpenMetricsText(*engine_));
    ASSERT_TRUE(scrape.ok) << scrape.error;

    const TierStack& stack = engine_->tiers();
    double acks = 0;
    for (std::size_t i = 0; i < stack.size(); ++i) {
      if (!stack.is_durable(static_cast<TierIndex>(i))) continue;
      const std::string tier(stack.name(i));
      const util::json::Value* h = lag->Find(tier);  // absent: no samples
      const double json_total =
          h != nullptr ? h->Find("total")->as_number(-1) : 0.0;
      double scrape_count = 0;
      for (sim::Rank rank = 0; rank < kRanks; ++rank) {
        const std::string key = "ckpt_durability_lag_seconds_count{tier=\"" +
                                tier + "\",tenant=\"default\",rank=\"" +
                                std::to_string(rank) + "\"}";
        ASSERT_TRUE(scrape.values.count(key)) << key;
        scrape_count += scrape.values.at(key);
      }
      EXPECT_EQ(json_total, scrape_count) << "tier " << tier;
      acks += json_total;
    }
    EXPECT_EQ(acks, down ? 0.0 : static_cast<double>(kRanks * kN));
  }
}

// --- OpenMetrics histogram validation (pure format) -----------------------

TEST(OpenMetricsHistogramTest, SuffixedSamplesResolveToTheFamily) {
  const TelemetryCheck check = ValidateOpenMetrics(
      "# HELP my_lag how long\n"
      "# TYPE my_lag histogram\n"
      "my_lag_bucket{le=\"0.1\"} 1\n"
      "my_lag_bucket{le=\"+Inf\"} 2\n"
      "my_lag_sum 0.35\n"
      "my_lag_count 2\n"
      "# EOF\n");
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.family_type.at("my_lag"), "histogram");
  EXPECT_EQ(check.values.at("my_lag_count"), 2.0);
}

TEST(OpenMetricsHistogramTest, BareSampleOfHistogramFamilyIsAnError) {
  const TelemetryCheck check = ValidateOpenMetrics(
      "# TYPE my_lag histogram\n"
      "my_lag 2\n"
      "# EOF\n");
  EXPECT_FALSE(check.ok);
}

TEST(OpenMetricsHistogramTest, UndeclaredBucketSampleIsAnError) {
  const TelemetryCheck check = ValidateOpenMetrics(
      "# TYPE my_lag histogram\n"
      "other_bucket{le=\"1\"} 1\n"
      "# EOF\n");
  EXPECT_FALSE(check.ok);
}

}  // namespace
}  // namespace ckpt::core
