#include "bench_common.hpp"

#include <cstdio>

#include "core/trace_sink.hpp"
#include "util/config.hpp"
#include "util/file_io.hpp"
#include "util/json.hpp"
#include "util/trace.hpp"

namespace ckpt::bench {

namespace {

/// Writes the machine-readable run report: title, scale knobs, one entry
/// per row (with the cell's engine metrics snapshot embedded verbatim).
util::Status WriteRunReport(const std::string& path, const std::string& title) {
  std::string out;
  out += "{\"title\":\"" + util::json::Escape(title) + "\",";
  const harness::BenchScale scale = harness::LoadBenchScale();
  out += "\"scale\":{\"num_ckpts\":" + std::to_string(scale.num_ckpts) +
         ",\"num_ranks\":" + std::to_string(scale.num_ranks) + "},";
  out += "\"trace_enabled\":";
  out += util::trace::enabled() ? "true" : "false";
  out += ",\"rows\":[";
  bool first = true;
  for (const Row& row : Rows()) {
    if (!first) out += ",";
    first = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ckpt_MBps\":%.3f,\"restore_MBps\":%.3f,\"wall_s\":%.6f,"
                  "\"verify_failures\":%llu",
                  row.ckpt_MBps, row.restore_MBps, row.wall_s,
                  static_cast<unsigned long long>(row.verify_failures));
    out += "{\"config\":\"" + util::json::Escape(row.config) + "\",";
    out += "\"variant\":\"" + util::json::Escape(row.variant) + "\",";
    out += buf;
    if (!row.metrics_json.empty()) {
      out += ",\"metrics\":" + row.metrics_json;
    }
    if (!row.critical_path_json.empty()) {
      out += ",\"critical_path\":" + row.critical_path_json;
      out += ",\"watchdog_stalls\":" + std::to_string(row.watchdog_stalls);
    }
    out += "}";
  }
  out += "]}\n";
  return util::WriteFile(path, out);
}

}  // namespace

std::vector<Row>& Rows() {
  static std::vector<Row> rows;
  return rows;
}

int ApplyBenchScale(harness::ExperimentConfig& cfg) {
  const harness::BenchScale scale = harness::LoadBenchScale();
  cfg.shot.num_ckpts = scale.num_ckpts;
  cfg.shot.trace.num_snapshots = scale.num_ckpts;
  cfg.shot.compute_interval = scale.interval;
  cfg.num_ranks = scale.num_ranks;
  cfg.ssd_fault_rate = scale.fault_rate;
  cfg.ssd_fault_seed = scale.fault_seed;
  cfg.tiers = scale.tiers;
  cfg.terminal_tier_name = scale.terminal;
  return scale.num_ranks;
}

void RegisterShot(const std::string& bench_name, const std::string& variant,
                  harness::ExperimentConfig cfg) {
  benchmark::RegisterBenchmark(
      bench_name.c_str(),
      [variant, cfg](benchmark::State& state) {
        for (auto _ : state) {
          auto result = harness::RunExperiment(cfg);
          if (!result.ok()) {
            state.SkipWithError(result.status().ToString().c_str());
            return;
          }
          state.SetIterationTime(result->shot.wall_s);
          state.counters["ckpt_MBps"] = result->ckpt_MBps_mean;
          state.counters["restore_MBps"] = result->restore_MBps_mean;
          state.counters["agg_ckpt_MBps"] = result->ckpt_MBps_agg;
          state.counters["agg_restore_MBps"] = result->restore_MBps_agg;
          Rows().push_back(Row{result->config_name, variant,
                               result->ckpt_MBps_mean, result->restore_MBps_mean,
                               result->shot.wall_s,
                               result->shot.verify_failures,
                               std::move(result->metrics_json),
                               std::move(result->critical_path_json),
                               result->watchdog_stalls});
        }
      })
      ->Iterations(1)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
}

int BenchMain(int argc, char** argv, const std::string& title) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!Rows().empty()) {
    harness::PrintTableHeader(title, "variant");
    std::uint64_t failures = 0;
    for (const Row& row : Rows()) {
      harness::PrintTableRow(row.config, row.variant, row.ckpt_MBps,
                             row.restore_MBps);
      failures += row.verify_failures;
    }
    if (failures > 0) {
      std::fprintf(stderr, "!! %llu data-verification failures\n",
                   static_cast<unsigned long long>(failures));
      return 1;
    }
  }

  const std::string report = util::EnvString("CKPT_BENCH_REPORT", "");
  if (!report.empty()) {
    const util::Status st = WriteRunReport(report, title);
    if (!st.ok()) {
      std::fprintf(stderr, "!! run report: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("run report: %s\n", report.c_str());
  }
  if (util::trace::enabled() && !util::trace::out_path().empty()) {
    const util::Status st =
        core::WriteChromeTrace(util::trace::out_path());
    if (!st.ok()) {
      std::fprintf(stderr, "!! trace dump failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("trace: %s\n", util::trace::out_path().c_str());
  }
  return 0;
}

}  // namespace ckpt::bench
