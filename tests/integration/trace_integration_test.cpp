// End-to-end observability check (the PR's acceptance test): run a small
// RTM experiment with tracing on, render the Chrome trace, and assert the
// validator finds at least one complete span for every stage of the
// checkpoint lifecycle — plus that the harness's embedded metrics snapshot
// is well-formed JSON carrying the Fig. 7 series and stage histograms.
#include "core/trace_sink.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "util/json.hpp"
#include "util/trace.hpp"

namespace ckpt::core {
namespace {

#ifdef CKPT_TRACE_DISABLED
#define SKIP_IF_TRACE_COMPILED_OUT() \
  GTEST_SKIP() << "built with CKPT_TRACE_DISABLED"
#else
#define SKIP_IF_TRACE_COMPILED_OUT() (void)0
#endif

/// A small experiment that still exercises every traced path: 16 ckpts
/// against an 8-slot GPU cache forces evictions during the write phase and
/// promotions during the reverse-order restore phase.
harness::ExperimentConfig SmallTracedExperiment() {
  harness::ExperimentConfig cfg;
  cfg.topology = sim::TopologyConfig::Testing();
  cfg.num_ranks = 2;
  cfg.gpu_cache_bytes = 256 << 10;
  cfg.host_cache_bytes = 1 << 20;
  cfg.shot.num_ckpts = 16;
  cfg.shot.trace.num_snapshots = 16;
  cfg.shot.trace.uniform_size = 32 << 10;
  // Long enough that the prefetcher is scheduled before the backward pass
  // ends: at 100 us per restore the application could restore all 16
  // versions before T_PF promoted one, leaving no prefetch span.
  cfg.shot.compute_interval = std::chrono::milliseconds(1);
  cfg.shot.verify = true;
  return cfg;
}

class TraceIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::trace::Disable();
    util::trace::ResetBuffers();
  }
  void TearDown() override {
    util::trace::Disable();
    util::trace::ResetBuffers();
  }
};

TEST_F(TraceIntegrationTest, ExperimentEmitsCompleteSpansForEveryStage) {
  SKIP_IF_TRACE_COMPILED_OUT();
  util::trace::Enable();
  auto result = harness::RunExperiment(SmallTracedExperiment());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->shot.verify_failures, 0u);

  const std::string json = ChromeTraceJson();
  const TraceCheck check = ValidateChromeTrace(json);
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_GT(check.events, 0u);
  // One track per engine thread per rank plus the app threads: strictly
  // more than one track proves per-thread attribution works.
  EXPECT_GT(check.tracks, 1u);
  // At least one *complete* span per traced subsystem.
  EXPECT_GE(check.spans_in("lifecycle"), 1u) << json.substr(0, 400);
  EXPECT_GE(check.spans_in("flush"), 1u);
  EXPECT_GE(check.spans_in("prefetch"), 1u);
  EXPECT_GE(check.spans_in("eviction"), 1u);
  EXPECT_GE(check.spans_in("app"), 1u);
}

TEST_F(TraceIntegrationTest, WriteChromeTraceRoundTripsThroughDisk) {
  SKIP_IF_TRACE_COMPILED_OUT();
  util::trace::Enable();
  auto result = harness::RunExperiment(SmallTracedExperiment());
  ASSERT_TRUE(result.ok()) << result.status();

  const std::string path = ::testing::TempDir() + "ckpt_trace_roundtrip.json";
  auto st = WriteChromeTrace(path);
  ASSERT_TRUE(st.ok()) << st;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const TraceCheck check = ValidateChromeTrace(buf.str());
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_GT(check.spans, 0u);
}

TEST_F(TraceIntegrationTest, ValidatorAggregatesPerTrackStats) {
  SKIP_IF_TRACE_COMPILED_OUT();
  util::trace::Enable();
  auto result = harness::RunExperiment(SmallTracedExperiment());
  ASSERT_TRUE(result.ok()) << result.status();

  const TraceCheck check = ValidateChromeTrace(ChromeTraceJson());
  ASSERT_TRUE(check.ok) << check.error;
  ASSERT_FALSE(check.track_stats.empty());
  EXPECT_EQ(check.track_stats.size(), check.tracks);
  std::size_t events = 0, spans = 0;
  bool saw_named_track = false;
  for (std::size_t i = 0; i < check.track_stats.size(); ++i) {
    const TraceCheck::TrackStats& t = check.track_stats[i];
    EXPECT_GT(t.events, 0u);  // metadata-only tracks are excluded
    EXPECT_LE(t.spans, t.events);
    EXPECT_GE(t.total_dur_us, t.max_dur_us);
    EXPECT_GE(t.max_dur_us, 0.0);
    if (t.spans > 0) EXPECT_GT(t.max_dur_us, 0.0);
    if (!t.name.empty()) saw_named_track = true;
    if (i > 0) {  // ordered by (pid, tid) for stable --summary output
      const TraceCheck::TrackStats& p = check.track_stats[i - 1];
      EXPECT_TRUE(p.pid < t.pid || (p.pid == t.pid && p.tid < t.tid));
    }
    events += t.events;
    spans += t.spans;
  }
  // Engine worker threads announce themselves via SetThreadName.
  EXPECT_TRUE(saw_named_track);
  // Per-track tallies partition the global ones.
  EXPECT_EQ(events, check.events);
  EXPECT_EQ(spans, check.spans);
}

TEST_F(TraceIntegrationTest, HarnessEmbedsParseableMetricsSnapshot) {
  // Metrics are recorded unconditionally, so this holds even in the
  // CKPT_TRACE_DISABLED build.
  auto result = harness::RunExperiment(SmallTracedExperiment());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->metrics_json.empty());

  auto parsed = util::json::Parse(result->metrics_json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const util::json::Value* tiers = parsed->Find("tiers");
  ASSERT_NE(tiers, nullptr);
  EXPECT_FALSE(tiers->as_array().empty());
  const util::json::Value* ranks = parsed->Find("ranks");
  ASSERT_NE(ranks, nullptr);
  EXPECT_EQ(ranks->as_array().size(), 2u);
  const util::json::Value* merged = parsed->Find("merged");
  ASSERT_NE(merged, nullptr);
  // The Fig. 7 restore series made it through: one point per restore,
  // carrying prefetch_distance and blocking seconds.
  const util::json::Value* series = merged->Find("restore_series");
  ASSERT_NE(series, nullptr);
  ASSERT_FALSE(series->as_array().empty());
  const util::json::Value& point = series->as_array().front();
  EXPECT_NE(point.Find("prefetch_distance"), nullptr);
  EXPECT_NE(point.Find("blocking_s"), nullptr);
  // Per-stage latency histograms keyed by tier name, and the checkpoint
  // blocking series.
  ASSERT_NE(merged->Find("flush_stage_hist"), nullptr);
  EXPECT_NE(merged->Find("ckpt_block_s"), nullptr);
  // Every histogram — per-stage and durability lag — has one JSON shape:
  // seconds throughout, buckets as [upper edge, count] pairs.
  ASSERT_NE(merged->Find("durability_lag_s"), nullptr);
  std::vector<const util::json::Value*> hists = {
      merged->Find("promotion_hist"), merged->Find("reserve_round_hist")};
  for (const auto& [tier, h] : merged->Find("flush_stage_hist")->as_object()) {
    hists.push_back(&h);
  }
  for (const auto& [tier, h] : merged->Find("durability_lag_s")->as_object()) {
    hists.push_back(&h);
  }
  ASSERT_GT(hists.size(), 3u);
  std::size_t sampled = 0;
  for (const util::json::Value* h : hists) {
    ASSERT_NE(h, nullptr);
    for (const char* key : {"total", "sum", "mean", "p50", "p95"}) {
      ASSERT_NE(h->Find(key), nullptr) << key;
      EXPECT_TRUE(h->Find(key)->is_number()) << key;
    }
    ASSERT_NE(h->Find("buckets"), nullptr);
    double count = 0;
    for (const auto& bucket : h->Find("buckets")->as_array()) {
      ASSERT_EQ(bucket.as_array().size(), 2u);
      const util::json::Value& le = bucket.as_array()[0];
      EXPECT_TRUE(le.is_number() || le.as_string() == "+Inf");
      count += bucket.as_array()[1].as_number();
    }
    EXPECT_EQ(count, h->Find("total")->as_number());
    if (count > 0) ++sampled;
  }
  EXPECT_GT(sampled, 0u);
  // The default stack has no remote tier: the list is present and empty.
  ASSERT_NE(parsed->Find("remote_tiers"), nullptr);
  EXPECT_TRUE(parsed->Find("remote_tiers")->is_array());
  EXPECT_TRUE(parsed->Find("remote_tiers")->as_array().empty());
}

TEST_F(TraceIntegrationTest, ValidatorRejectsMalformedTraces) {
  EXPECT_FALSE(ValidateChromeTrace("").ok);
  EXPECT_FALSE(ValidateChromeTrace("not json").ok);
  EXPECT_FALSE(ValidateChromeTrace("{\"traceEvents\": 3}").ok);
  EXPECT_FALSE(ValidateChromeTrace("{\"traceEvents\": []}").ok);  // empty
  // A span with a negative duration must be flagged.
  EXPECT_FALSE(
      ValidateChromeTrace(
          R"({"traceEvents":[{"name":"x","cat":"flush","ph":"X","ts":1.0,)"
          R"("dur":-2.0,"pid":0,"tid":1}]})")
          .ok);
}

}  // namespace
}  // namespace ckpt::core
