// Telemetry exposition and sampler tests: sample building from engine
// probes, OpenMetrics rendering + golden-format validation, cross-scrape
// counter monotonicity, window JSON, critical-path attribution, and the
// watchdog's healthy-run behavior (zero trips under normal operation).
#include "core/telemetry_sink.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/telemetry_sampler.hpp"
#include "rtm/workload.hpp"
#include "storage/mem_store.hpp"
#include "util/json.hpp"

namespace ckpt::core {
namespace {

using rtm::FillPattern;
using util::telemetry::RankSample;
using util::telemetry::SamplePtr;
using util::telemetry::TelemetrySample;

class TelemetryTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kCkptSize = 64 << 10;

  void Build(int ranks = 2) {
    engine_.reset();
    cluster_ = std::make_unique<sim::Cluster>(sim::TopologyConfig::Testing());
    engine_ = std::make_unique<Engine>(
        *cluster_,
        TierStack::Default(std::make_shared<storage::MemStore>(),
                           std::make_shared<storage::MemStore>(),
                           4 * kCkptSize, 16 * kCkptSize)
            .value(),
        EngineOptions{}, ranks);
  }

  void WriteCkpt(sim::Rank rank, Version v) {
    auto buf = cluster_->device(rank).Allocate(kCkptSize);
    ASSERT_TRUE(buf.ok()) << buf.status();
    FillPattern(rank, v, *buf, kCkptSize);
    ASSERT_TRUE(engine_->Checkpoint(rank, v, *buf, kCkptSize).ok());
    ASSERT_TRUE(cluster_->device(rank).Free(*buf).ok());
  }

  void RestoreCkpt(sim::Rank rank, Version v) {
    auto buf = cluster_->device(rank).Allocate(kCkptSize);
    ASSERT_TRUE(buf.ok()) << buf.status();
    ASSERT_TRUE(engine_->Restore(rank, v, *buf, kCkptSize).ok());
    ASSERT_TRUE(cluster_->device(rank).Free(*buf).ok());
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<Engine> engine_;
};

// --- Sample building ------------------------------------------------------

TEST_F(TelemetryTest, BuildTelemetrySampleReflectsEngineActivity) {
  Build(/*ranks=*/2);
  for (Version v = 0; v < 3; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  RestoreCkpt(0, 2);

  const SamplePtr s = BuildTelemetrySample(*engine_, /*seq=*/7);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->seq, 7u);
  EXPECT_GT(s->ts_ns, 0);
  ASSERT_EQ(s->ranks.size(), 2u);

  const RankSample& r0 = s->ranks[0];
  EXPECT_EQ(r0.rank, 0);
  EXPECT_EQ(r0.checkpoints, 3u);
  EXPECT_EQ(r0.restores, 1u);
  EXPECT_EQ(r0.bytes_checkpointed, 3 * kCkptSize);
  EXPECT_EQ(r0.bytes_restored, kCkptSize);
  EXPECT_GT(r0.last_transition_ns, 0);
  ASSERT_EQ(r0.tiers.size(), 4u);  // gpu, host, ssd, pfs
  EXPECT_GT(r0.tiers[0].bytes_capacity, 0u);
  EXPECT_GT(r0.tiers[0].bytes_used, 0u);
  // Everything waited durable: the terminal tier saw all three objects.
  EXPECT_EQ(r0.tiers[2].flush_bytes, 3 * kCkptSize);
  // Occupancy histogram covers every record.
  std::uint64_t occupancy = 0;
  for (std::uint64_t n : r0.state_occupancy) occupancy += n;
  EXPECT_EQ(occupancy, 3u);

  // The idle rank is all zeros but structurally identical.
  const RankSample& r1 = s->ranks[1];
  EXPECT_EQ(r1.checkpoints, 0u);
  ASSERT_EQ(r1.tiers.size(), 4u);
}

TEST_F(TelemetryTest, RestoreQueueDepthCountsPendingHints) {
  Build(/*ranks=*/1);
  constexpr Version kN = 5;
  for (Version v = 0; v < kN; ++v) WriteCkpt(0, v);
  for (Version v = 0; v < kN; ++v) {
    ASSERT_TRUE(engine_->PrefetchEnqueue(0, v).ok());
  }
  EXPECT_EQ(engine_->Probe(0).restore_queue_depth, kN);
  ASSERT_TRUE(engine_->PrefetchStart(0).ok());
  for (Version v = 0; v < kN; ++v) RestoreCkpt(0, v);
  EXPECT_EQ(engine_->Probe(0).restore_queue_depth, 0u);
}

// --- OpenMetrics exposition ----------------------------------------------

TEST_F(TelemetryTest, OpenMetricsScrapeValidatesAndCarriesCounters) {
  Build(/*ranks=*/2);
  for (Version v = 0; v < 3; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());

  const std::string text = OpenMetricsText(*engine_);
  const TelemetryCheck check = ValidateOpenMetrics(text);
  ASSERT_TRUE(check.ok) << check.error << "\n" << text;
  EXPECT_TRUE(check.eof);
  EXPECT_GT(check.families, 10u);
  EXPECT_GT(check.samples, 20u);
  EXPECT_EQ(check.family_type.at("ckpt_checkpoints"), "counter");
  EXPECT_EQ(check.family_type.at("ckpt_tier_bytes_used"), "gauge");
  // Every rank sample carries its tenant: "default" in a single-tenant
  // engine.
  EXPECT_EQ(check.values.at("ckpt_checkpoints_total{tenant=\"default\",rank=\"0\"}"),
            3.0);
  EXPECT_EQ(check.values.at("ckpt_checkpoints_total{tenant=\"default\",rank=\"1\"}"),
            0.0);
  EXPECT_EQ(
      check.values.at("ckpt_watchdog_stalls_total{tenant=\"default\",rank=\"0\"}"),
      0.0);
  // Tier families are labeled with the stack's tier names.
  EXPECT_GT(check.values.at("ckpt_tier_flush_bytes_total{tier=\"ssd\","
                            "tenant=\"default\",rank=\"0\"}"),
            0.0);
}

TEST(OpenMetricsValidatorTest, AcceptsAMinimalWellFormedPayload) {
  const char* text =
      "# TYPE ckpt_checkpoints counter\n"
      "ckpt_checkpoints_total{rank=\"0\"} 3\n"
      "# TYPE ckpt_restore_queue_depth gauge\n"
      "ckpt_restore_queue_depth{rank=\"0\"} 0\n"
      "# EOF\n";
  const TelemetryCheck check = ValidateOpenMetrics(text);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.families, 2u);
  EXPECT_EQ(check.samples, 2u);
}

TEST(OpenMetricsValidatorTest, RejectsMalformedPayloads) {
  const struct {
    const char* what;
    const char* text;
  } kCases[] = {
      {"missing EOF", "# TYPE a gauge\na 1\n"},
      {"blank line", "# TYPE a gauge\n\na 1\n# EOF\n"},
      {"content after EOF", "# TYPE a gauge\na 1\n# EOF\na 2\n"},
      {"undeclared family", "a 1\n# EOF\n"},
      {"counter without _total", "# TYPE a counter\na 1\n# EOF\n"},
      {"gauge with _total", "# TYPE a gauge\na_total 1\n# EOF\n"},
      {"TYPE after samples", "# TYPE a gauge\na 1\n# TYPE a counter\n# EOF\n"},
      {"duplicate sample", "# TYPE a gauge\na 1\na 2\n# EOF\n"},
      {"negative counter", "# TYPE a counter\na_total -1\n# EOF\n"},
      {"non-finite value", "# TYPE a gauge\na nan\n# EOF\n"},
      {"bad metric name", "# TYPE 9a gauge\n9a 1\n# EOF\n"},
      {"bad label escape", "# TYPE a gauge\na{l=\"x\\t\"} 1\n# EOF\n"},
      {"unterminated labels", "# TYPE a gauge\na{l=\"x\" 1\n# EOF\n"},
      {"no samples", "# TYPE a gauge\n# EOF\n"},
  };
  for (const auto& c : kCases) {
    const TelemetryCheck check = ValidateOpenMetrics(c.text);
    EXPECT_FALSE(check.ok) << "expected rejection: " << c.what;
    EXPECT_FALSE(check.error.empty()) << c.what;
  }
}

TEST(OpenMetricsValidatorTest, EscapedLabelValuesParse) {
  const char* text =
      "# TYPE a gauge\n"
      "a{l=\"quote \\\" slash \\\\ nl \\n\"} 1\n"
      "# EOF\n";
  const TelemetryCheck check = ValidateOpenMetrics(text);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST_F(TelemetryTest, CountersAreMonotonicAcrossScrapes) {
  Build(/*ranks=*/1);
  WriteCkpt(0, 0);
  const TelemetryCheck first = ValidateOpenMetrics(OpenMetricsText(*engine_));
  ASSERT_TRUE(first.ok) << first.error;
  WriteCkpt(0, 1);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  const TelemetryCheck second = ValidateOpenMetrics(OpenMetricsText(*engine_));
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(CheckCounterMonotonic(first, second).ok());
  // Reversed order must be flagged: the checkpoint counters went backwards.
  const util::Status backwards = CheckCounterMonotonic(second, first);
  EXPECT_FALSE(backwards.ok());
  EXPECT_NE(backwards.ToString().find("went backwards"), std::string::npos)
      << backwards;
}

// --- Window JSON and critical path ---------------------------------------

TEST_F(TelemetryTest, WindowJsonParsesWithAscendingSeq) {
  Build(/*ranks=*/1);
  TelemetrySampler::Options opts;
  opts.start_thread = false;
  TelemetrySampler sampler(*engine_, opts);
  WriteCkpt(0, 0);
  sampler.SampleNow();
  WriteCkpt(0, 1);
  sampler.SampleNow();
  sampler.SampleNow();

  const std::string json =
      TelemetryWindowJson(sampler.ring(), TelemetryTierNames(*engine_));
  auto doc = util::json::Parse(json);
  ASSERT_TRUE(doc.ok()) << doc.status() << "\n" << json;
  const auto& root = doc->as_object();
  EXPECT_EQ(root.at("capacity").as_number(), 128.0);
  EXPECT_EQ(root.at("total").as_number(), 3.0);
  const auto& samples = root.at("samples").as_array();
  ASSERT_EQ(samples.size(), 3u);
  double prev_seq = -1.0;
  for (const auto& s : samples) {
    const double seq = s.as_object().at("seq").as_number();
    EXPECT_GT(seq, prev_seq);
    prev_seq = seq;
    const auto& ranks = s.as_object().at("ranks").as_array();
    ASSERT_EQ(ranks.size(), 1u);
    EXPECT_EQ(ranks[0].as_object().at("tenant").as_string(), "default");
    EXPECT_EQ(ranks[0].as_object().at("tiers").as_array().size(), 4u);
    // No remote tier on this stack: present, and empty.
    EXPECT_TRUE(s.as_object().at("remote_tiers").is_array());
    EXPECT_TRUE(s.as_object().at("remote_tiers").as_array().empty());
  }
}

TEST_F(TelemetryTest, CriticalPathJsonBreaksDownWallTime) {
  Build(/*ranks=*/2);
  for (Version v = 0; v < 3; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  RestoreCkpt(0, 2);

  const std::string json = CriticalPathJson(*engine_, /*wall_s=*/1.5);
  auto doc = util::json::Parse(json);
  ASSERT_TRUE(doc.ok()) << doc.status() << "\n" << json;
  const auto& root = doc->as_object();
  EXPECT_EQ(root.at("wall_s").as_number(), 1.5);
  const auto& ranks = root.at("ranks").as_array();
  ASSERT_EQ(ranks.size(), 2u);
  const auto& r0 = ranks[0].as_object();
  EXPECT_EQ(r0.at("rank").as_number(), 0.0);
  const auto& breakdown = r0.at("breakdown").as_object();
  EXPECT_GT(breakdown.at("ckpt_block_s").as_number(), 0.0);
  EXPECT_GT(breakdown.at("restore_block_s").as_number(), 0.0);
  EXPECT_GE(breakdown.at("compute_s").as_number(), 0.0);
  EXPECT_GE(breakdown.at("blocked_frac").as_number(), 0.0);
  EXPECT_LE(breakdown.at("blocked_frac").as_number(), 1.0);
  // Per-stage flush seconds, one entry per cache tier: the waited flushes
  // pushed every checkpoint through the gpu stage.
  EXPECT_GT(breakdown.at("flush_stage_s").as_object().at("gpu").as_number(),
            0.0);
  // Merged view sums the per-rank components over the stacked wall budget.
  const auto& merged = root.at("merged").as_object();
  EXPECT_EQ(merged.at("wall_s").as_number(), 3.0);  // 1.5 s x 2 ranks
  EXPECT_GT(merged.at("ckpt_block_s").as_number(), 0.0);
}

// --- Sampler / watchdog ---------------------------------------------------

TEST_F(TelemetryTest, HealthyRunTripsNoStalls) {
  Build(/*ranks=*/1);
  TelemetrySampler::Options opts;
  opts.start_thread = false;
  opts.stall_ms = 50;  // tight dwell bound: fine, every sample is quiescent
  // Not 1: flush_queue_depth is decremented when the worker's iteration is
  // fully disposed of, which is after FinishFlush wakes WaitForFlushes. A
  // single sample can therefore glimpse depth>0 with already-landed bytes;
  // that one-sample race is exactly why the knob's default is 3.
  opts.stall_windows = 2;
  TelemetrySampler sampler(*engine_, opts);
  for (Version v = 0; v < 4; ++v) {
    WriteCkpt(0, v);
    // Sample at quiescent points only: with flushes drained there is no
    // pending FSM state and no queued flush, so even these tight bounds
    // cannot false-trip when a loaded machine stretches the loop body
    // past stall_ms of wall time.
    ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
    sampler.SampleNow();
  }
  sampler.SampleNow();
  EXPECT_EQ(sampler.stalls_detected(), 0u);
  EXPECT_FALSE(sampler.strict_tripped());
  EXPECT_FALSE(sampler.flight_dumped());
  EXPECT_EQ(sampler.ring().total(), 5u);

  const TelemetryCheck check = ValidateOpenMetrics(sampler.ScrapeOpenMetrics());
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(
      check.values.at("ckpt_watchdog_stalls_total{tenant=\"default\",rank=\"0\"}"),
      0.0);
}

TEST_F(TelemetryTest, BackgroundSamplerPublishesPeriodically) {
  Build(/*ranks=*/1);
  TelemetrySampler::Options opts;
  opts.period_ms = 2;
  TelemetrySampler sampler(*engine_, opts);
  WriteCkpt(0, 0);
  // Wait until the thread has demonstrably ticked a few times.
  for (int i = 0; i < 500 && sampler.ring().total() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(sampler.ring().total(), 3u);
  sampler.Stop();
  const std::uint64_t at_stop = sampler.ring().total();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(sampler.ring().total(), at_stop);  // stopped means stopped
  EXPECT_EQ(sampler.stalls_detected(), 0u);
}

}  // namespace
}  // namespace ckpt::core
