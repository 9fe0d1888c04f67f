// End-to-end telemetry tests: concurrent OpenMetrics scrapes against a live
// engine under checkpoint load, and the forced-stall path — a gated
// terminal store freezes the flush pipeline through the harness's
// tier_store_factory hook, the watchdog trips, and the flight recorder
// drops its four artifacts. This is the test-side of the CI `telemetry`
// job's forced-stall leg.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/telemetry_sampler.hpp"
#include "core/telemetry_sink.hpp"
#include "harness/experiment.hpp"
#include "rtm/workload.hpp"
#include "storage/mem_store.hpp"
#include "util/json.hpp"
#include "util/telemetry.hpp"
#include "util/trace.hpp"

namespace ckpt {
namespace {

/// Terminal store whose Put blocks until the gate opens: freezes the flush
/// pipeline (queue depth > 0, landed bytes frozen) without failing any
/// operation, which is exactly the hang signature the watchdog hunts.
class GatedStore : public storage::ObjectStore {
 public:
  explicit GatedStore(std::shared_ptr<storage::ObjectStore> inner)
      : inner_(std::move(inner)) {}

  ~GatedStore() override { Open(); }

  void Open() {
    {
      std::lock_guard lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  util::Status Put(const storage::ObjectKey& key, sim::ConstBytePtr data,
                   std::uint64_t size) override {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [this] { return open_; });
    lk.unlock();
    return inner_->Put(key, data, size);
  }
  util::Status Get(const storage::ObjectKey& key, sim::BytePtr dst,
                   std::uint64_t size) override {
    return inner_->Get(key, dst, size);
  }
  util::StatusOr<std::uint64_t> Size(
      const storage::ObjectKey& key) const override {
    return inner_->Size(key);
  }
  bool Exists(const storage::ObjectKey& key) const override {
    return inner_->Exists(key);
  }
  util::Status Erase(const storage::ObjectKey& key) override {
    return inner_->Erase(key);
  }
  std::vector<storage::ObjectKey> Keys() const override {
    return inner_->Keys();
  }
  std::uint64_t TotalBytes() const override { return inner_->TotalBytes(); }

 private:
  std::shared_ptr<storage::ObjectStore> inner_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

bool ReadFile(const std::string& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream buf;
  buf << f.rdbuf();
  out = buf.str();
  return true;
}

class TelemetryIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::trace::Disable();
    util::trace::ResetBuffers();
  }
  void TearDown() override {
    util::telemetry::Settings off;
    off.enabled = false;
    util::telemetry::Configure(off);
    util::trace::Disable();
    util::trace::ResetBuffers();
  }
};

// Scrape-under-load: a background sampler publishes while rank threads
// checkpoint; every concurrent scrape must be valid OpenMetrics and the
// counters must never move backwards between consecutive scrapes.
TEST_F(TelemetryIntegrationTest, ConcurrentScrapesStayValidAndMonotonic) {
  constexpr std::uint64_t kCkptSize = 32 << 10;
  sim::Cluster cluster(sim::TopologyConfig::Testing());
  core::Engine engine(cluster,
                      core::TierStack::Default(
                          std::make_shared<storage::MemStore>(),
                          std::make_shared<storage::MemStore>(),
                          8 * kCkptSize, 32 * kCkptSize)
                          .value(),
                      {}, /*num_ranks=*/2);

  core::TelemetrySampler::Options sopts;
  sopts.period_ms = 1;
  // This test is about scrape validity under load, not stall detection; at
  // a 1 ms period the default windows would let a briefly descheduled
  // flush worker read as "no progress". Make the watchdog effectively
  // unreachable so the zero-stall assertion below stays deterministic.
  sopts.stall_ms = 60'000;
  sopts.stall_windows = 10'000;
  core::TelemetrySampler sampler(engine, sopts);

  std::atomic<bool> failed{false};
  std::vector<std::thread> writers;
  writers.reserve(2);
  for (int rank = 0; rank < 2; ++rank) {
    writers.emplace_back([&, rank] {
      for (core::Version v = 0; v < 16; ++v) {
        auto buf = cluster.device(rank).Allocate(kCkptSize);
        if (!buf.ok()) {
          failed.store(true);
          return;
        }
        rtm::FillPattern(rank, v, *buf, kCkptSize);
        if (!engine.Checkpoint(rank, v, *buf, kCkptSize).ok()) {
          failed.store(true);
          return;
        }
        (void)cluster.device(rank).Free(*buf);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  core::TelemetryCheck prev;
  for (int i = 0; i < 40; ++i) {
    const core::TelemetryCheck cur =
        core::ValidateOpenMetrics(sampler.ScrapeOpenMetrics());
    ASSERT_TRUE(cur.ok) << "scrape " << i << ": " << cur.error;
    if (prev.ok) {
      const util::Status st = core::CheckCounterMonotonic(prev, cur);
      ASSERT_TRUE(st.ok()) << "scrape " << i << ": " << st;
    }
    prev = cur;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : writers) t.join();
  ASSERT_FALSE(failed.load());
  ASSERT_TRUE(engine.WaitForFlushes(0).ok());
  ASSERT_TRUE(engine.WaitForFlushes(1).ok());
  sampler.Stop();

  EXPECT_EQ(sampler.stalls_detected(), 0u);
  const core::TelemetryCheck last =
      core::ValidateOpenMetrics(sampler.ScrapeOpenMetrics());
  ASSERT_TRUE(last.ok) << last.error;
  EXPECT_EQ(last.values.at("ckpt_checkpoints_total{tenant=\"default\",rank=\"0\"}"),
            16.0);
  EXPECT_EQ(last.values.at("ckpt_checkpoints_total{tenant=\"default\",rank=\"1\"}"),
            16.0);
  EXPECT_EQ(
      last.values.at("ckpt_watchdog_stalls_total{tenant=\"default\",rank=\"0\"}"),
      0.0);
  engine.Shutdown();
}

// Forced stall through the full harness path: the gated terminal store goes
// in through ExperimentConfig::tier_store_factory, the run's flush pipeline
// freezes until a timer opens the gate, and the watchdog must trip and dump
// the flight recorder while the shot is still running.
TEST_F(TelemetryIntegrationTest, ForcedStallTripsWatchdogAndDumpsFlightRecorder) {
  const std::string prefix = ::testing::TempDir() + "telemetry_forced_stall";
  for (const char* suffix :
       {".trace.json", ".window.json", ".openmetrics.txt", ".metrics.json"}) {
    std::remove((prefix + suffix).c_str());
  }
  util::trace::Enable(/*capacity=*/4096);

  util::telemetry::Settings ts;
  ts.enabled = true;
  ts.period_ms = 5;
  ts.window = 64;
  ts.out_path = prefix;
  ts.watchdog = true;
  ts.stall_ms = 50;
  ts.stall_windows = 2;
  ts.strict = false;
  util::telemetry::Configure(ts);

  auto gated = std::make_shared<GatedStore>(std::make_shared<storage::MemStore>());
  harness::ExperimentConfig cfg;
  cfg.topology = sim::TopologyConfig::Testing();
  cfg.num_ranks = 1;
  cfg.tiers = "host:cache:1Mi,term:durable";
  cfg.tier_store_factory =
      [&gated](std::string_view, std::string_view,
               int) -> util::StatusOr<std::shared_ptr<storage::ObjectStore>> {
    return std::shared_ptr<storage::ObjectStore>(gated);
  };
  cfg.shot.num_ckpts = 8;
  cfg.shot.trace.num_snapshots = 8;
  cfg.shot.trace.uniform_size = 32 << 10;
  cfg.shot.hint_mode = rtm::HintMode::kNone;
  cfg.shot.read_order = rtm::ReadOrder::kSequential;
  cfg.shot.compute_interval = std::chrono::milliseconds(5);
  // Keep the shot (and with it the sampler, which stops when the shot
  // ends) alive until the gate opens: the no-progress detectors need
  // stall_ms of observed freeze, which the ~40 ms write phase alone does
  // not guarantee to cover.
  cfg.shot.wait_for_flush = true;

  // The flush worker wedges in the gated Put from the first checkpoint on.
  // Open the gate once the trip is observable — the flight recorder's last
  // artifact (.metrics.json) exists — so teardown can drain. Event-driven
  // rather than a fixed sleep: under a sanitizer's slowdown a timer could
  // open the gate before the stall horizon is ever reached. The 30 s cap
  // only bounds a genuinely broken watchdog.
  std::thread opener([&gated, &prefix] {
    const std::string last_artifact = prefix + ".metrics.json";
    for (int i = 0; i < 3000; ++i) {
      if (std::ifstream(last_artifact).good()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    gated->Open();
  });
  auto result = harness::RunExperiment(cfg);
  opener.join();
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_GE(result->watchdog_stalls, 1u);
  const core::TelemetryCheck final_scrape =
      core::ValidateOpenMetrics(result->openmetrics_text);
  ASSERT_TRUE(final_scrape.ok) << final_scrape.error;
  EXPECT_GE(final_scrape.values.at(
                "ckpt_watchdog_stalls_total{tenant=\"default\",rank=\"0\"}"),
            1.0);

  // Flight-recorder artifacts: all four land under the configured prefix.
  std::string trace_json, window_json, openmetrics, metrics_json;
  ASSERT_TRUE(ReadFile(prefix + ".trace.json", trace_json));
  ASSERT_TRUE(ReadFile(prefix + ".window.json", window_json));
  ASSERT_TRUE(ReadFile(prefix + ".openmetrics.txt", openmetrics));
  ASSERT_TRUE(ReadFile(prefix + ".metrics.json", metrics_json));

#ifndef CKPT_TRACE_DISABLED
  // The stall instant made it into the dumped trace (when tracing is
  // compiled in; the other artifacts do not depend on it).
  EXPECT_NE(trace_json.find("health:stall"), std::string::npos);
#endif

  // The dumped window is valid JSON with at least one sample.
  auto window = util::json::Parse(window_json);
  ASSERT_TRUE(window.ok()) << window.status();
  EXPECT_FALSE(window->as_object().at("samples").as_array().empty());

  // The stall-time scrape validates as OpenMetrics and already carries the
  // stall the trip charged (the dump probes fresh, it does not reuse the
  // pre-trip ring sample).
  const core::TelemetryCheck dump_scrape =
      core::ValidateOpenMetrics(openmetrics);
  ASSERT_TRUE(dump_scrape.ok) << dump_scrape.error;
  EXPECT_GE(dump_scrape.values.at(
                "ckpt_watchdog_stalls_total{tenant=\"default\",rank=\"0\"}"),
            1.0);

  // The metrics snapshot parses and carries the per-reason stall counters.
  auto metrics = util::json::Parse(metrics_json);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_NE(metrics_json.find("watchdog_stalls"), std::string::npos);
}

// The harness writes the healthy-run exposition files when telemetry is on
// and no stall claimed the prefix for the flight recorder.
TEST_F(TelemetryIntegrationTest, HealthyHarnessRunWritesEndOfRunExposition) {
  const std::string prefix = ::testing::TempDir() + "telemetry_healthy";
  for (const char* suffix : {".openmetrics.txt", ".window.json"}) {
    std::remove((prefix + suffix).c_str());
  }
  util::telemetry::Settings ts;
  ts.enabled = true;
  ts.period_ms = 2;
  ts.out_path = prefix;
  util::telemetry::Configure(ts);

  harness::ExperimentConfig cfg;
  cfg.topology = sim::TopologyConfig::Testing();
  cfg.num_ranks = 2;
  cfg.gpu_cache_bytes = 256 << 10;
  cfg.host_cache_bytes = 1 << 20;
  cfg.shot.num_ckpts = 8;
  cfg.shot.trace.num_snapshots = 8;
  cfg.shot.trace.uniform_size = 32 << 10;
  cfg.shot.compute_interval = std::chrono::microseconds(500);
  cfg.shot.verify = true;
  auto result = harness::RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_EQ(result->watchdog_stalls, 0u);
  EXPECT_EQ(result->shot.verify_failures, 0u);
  const core::TelemetryCheck check =
      core::ValidateOpenMetrics(result->openmetrics_text);
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(
      check.values.at("ckpt_watchdog_stalls_total{tenant=\"default\",rank=\"0\"}"),
      0.0);

  // Critical-path attribution rides along in the result.
  auto critical = util::json::Parse(result->critical_path_json);
  ASSERT_TRUE(critical.ok()) << critical.status();
  EXPECT_EQ(critical->as_object().at("ranks").as_array().size(), 2u);

  std::string text;
  ASSERT_TRUE(ReadFile(prefix + ".openmetrics.txt", text));
  EXPECT_TRUE(core::ValidateOpenMetrics(text).ok);
  ASSERT_TRUE(ReadFile(prefix + ".window.json", text));
  EXPECT_TRUE(util::json::Parse(text).ok());
}

}  // namespace
}  // namespace ckpt
