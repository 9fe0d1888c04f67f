// Checkpoint-history benchmark driver. Runs one named workload against the
// Score engine for a fixed time, prints every metric with its unit and
// sample count, and ends standard output with one JSON line:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// --trace 0 reports the end-to-end metrics, measured with tracing off;
// --trace 1 reports the per-layer metrics from traced repetitions, which
// alternate with untraced ones so the tracing overhead is measured too.
//
//   perfbench --workload rtm-wait --seed 1 --seconds 30 --trace 0 [--out-dir DIR]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RepResult;

// A run repeats set-up + shot until --seconds is spent, but at least this
// often, so set-up and per-shot figures are medians of several.
constexpr int kMinReps = 3;
constexpr int kMaxReps = 64;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds > 0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

// The end-to-end metrics whose run-to-run spread stays within a third of a
// regression bound of at most a quarter. The other application-visible
// metrics (call-latency percentiles, the median durability lag, the paper's
// MB/s figures and CPU time) vary from run to run by more than that on a
// 4-core host, so they are reported with the per-layer set, from the traced
// repetitions.
bool SteadyEndToEnd(const std::string& name) {
  static const std::vector<std::string> kSteady = {
      "shot_s", "drain_s", "durable_lag_p99_ms", "setup_s", "peak_rss_mb"};
  return std::find(kSteady.begin(), kSteady.end(), name) != kSteady.end();
}

template <typename Field>
std::vector<double> PerRep(const std::vector<RepResult>& reps, Field field) {
  std::vector<double> out;
  for (const RepResult& r : reps) out.push_back(r.*field);
  return out;
}

std::vector<double> Pooled(const std::vector<RepResult>& reps,
                           std::vector<double> RepResult::*field) {
  std::vector<double> out;
  for (const RepResult& r : reps) {
    out.insert(out.end(), (r.*field).begin(), (r.*field).end());
  }
  return out;
}

void PrintDistribution(const char* what, const std::vector<double>& samples,
                       const char* unit) {
  const perfbench::TailSummary s = perfbench::Summarize(samples);
  std::printf("  %-20s n=%zu  p50=%.4g %s", what, s.count, s.p50, unit);
  if (s.tail_p > 0) {
    std::printf("  p%g=%.4g %s (highest percentile with >= %zu beyond)\n",
                s.tail_p, s.tail, unit, perfbench::TailSummary::kMinBeyond);
  } else {
    std::printf("  (too few samples for a tail percentile)\n");
  }
}

std::vector<Metric> EndToEnd(const std::vector<RepResult>& reps) {
  using perfbench::Median;
  using perfbench::Percentile;
  const auto ckpt = Pooled(reps, &RepResult::ckpt_us);
  const auto restore = Pooled(reps, &RepResult::restore_us);
  const auto lag = Pooled(reps, &RepResult::durable_lag_ms);
  const std::size_t n = reps.size();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"shot_s", Median(PerRep(reps, &RepResult::shot_s)), "s", n},
      {"drain_s", Median(PerRep(reps, &RepResult::drain_s)), "s", n},
      {"ckpt_p50_us", Percentile(ckpt, 50), "us", ckpt.size()},
      {"ckpt_p99_us", Percentile(ckpt, 99), "us", ckpt.size()},
      {"restore_p50_us", Percentile(restore, 50), "us", restore.size()},
      {"restore_p99_us", Percentile(restore, 99), "us", restore.size()},
      {"ckpt_MBps", Median(PerRep(reps, &RepResult::ckpt_MBps)), "MB/s", n},
      {"restore_MBps", Median(PerRep(reps, &RepResult::restore_MBps)), "MB/s", n},
      {"durable_lag_p50_ms", Percentile(lag, 50), "ms", lag.size()},
      {"durable_lag_p99_ms", Percentile(lag, 99), "ms", lag.size()},
      {"setup_s", Median(PerRep(reps, &RepResult::setup_s)), "s", n},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB", 1},
      {"cpu_s", Median(PerRep(reps, &RepResult::cpu_s)), "s", n},
  };
}

std::vector<Metric> PerLayer(const std::vector<RepResult>& reps) {
  std::vector<double> traced_shot, untraced_shot;
  std::vector<RepResult> traced;
  for (const RepResult& r : reps) {
    (r.traced ? traced_shot : untraced_shot).push_back(r.shot_s);
    if (r.traced) traced.push_back(r);
  }
  std::vector<Metric> out;
  for (Metric& m : EndToEnd(traced)) {
    if (!SteadyEndToEnd(m.name)) out.push_back(std::move(m));
  }
  for (const auto& [name, unit] : perfbench::LayerMetricUnits()) {
    Metric m{name, 0.0, unit, traced_shot.size()};
    if (name == perfbench::kTraceOverheadMetric) {
      m.value = untraced_shot.empty() ? 0.0
                                      : perfbench::Median(traced_shot) -
                                            perfbench::Median(untraced_shot);
      m.samples = reps.size();
    } else {
      std::vector<double> values;
      for (const RepResult& r : reps) {
        const auto it = r.layer.find(name);
        if (r.traced && it != r.layer.end()) values.push_back(it->second);
      }
      m.value = perfbench::Median(values);
    }
    out.push_back(std::move(m));
  }
  return out;
}

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  const perfbench::Workload* w = perfbench::FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr,
                 "perfbench: unknown workload '%s' (rtm-wait, rtm-interleaved, "
                 "remote-drain)\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("perfbench: workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              w->name.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);

  using Clock = std::chrono::steady_clock;
  const auto since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  perfbench::Tracer tracer;
  std::vector<RepResult> reps;
  const Clock::time_point start = Clock::now();
  double longest = 0.0;
  for (int k = 0; k < kMaxReps; ++k) {
    const bool traced = args.trace && k % 2 == 0;
    const Clock::time_point rep_start = Clock::now();
    reps.push_back(perfbench::RunRep(*w, ckpt::util::DeriveSeed(args.seed, k),
                                     traced ? &tracer : nullptr));
    longest = std::max(longest, since(rep_start));
    const RepResult& r = reps.back();
    std::printf("  rep %2d %-8s setup %.3f s  shot %.3f s  drain %.3f s "
                "(longest WaitForFlushes %.3f s)  ckpt %.1f MB/s  "
                "restore %.1f MB/s\n",
                k, traced ? "traced" : "", r.setup_s, r.shot_s, r.drain_s,
                r.longest_wait_call_s, r.ckpt_MBps, r.restore_MBps);
    std::fflush(stdout);
    if (!r.first_error.empty()) break;
    if (k + 1 >= kMinReps && since(start) + longest > args.seconds) break;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool clean = true;
  for (const RepResult& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
    if (!r.first_error.empty()) {
      clean = false;
      std::fprintf(stderr, "perfbench: %s\n", r.first_error.c_str());
    }
  }
  const bool correct = clean && failed == 0 && attempted > 0;
  std::printf("error_rate = %.6g (%" PRIu64 " failed of %" PRIu64 " attempted)\n",
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                            : 0.0,
              failed, attempted);
  PrintDistribution("checkpoint call", Pooled(reps, &RepResult::ckpt_us), "us");
  PrintDistribution("restore call", Pooled(reps, &RepResult::restore_us), "us");
  PrintDistribution("durable lag", Pooled(reps, &RepResult::durable_lag_ms), "ms");

  std::vector<Metric> metrics = args.trace ? PerLayer(reps) : EndToEnd(reps);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6g %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  if (!args.trace) {
    std::erase_if(metrics, [](const Metric& m) { return !SteadyEndToEnd(m.name); });
  }
  if (args.trace && !args.out_dir.empty()) {
    const std::string path = args.out_dir + "/" + w->name + ".trace.json";
    const std::string label = w->name + " seed " + std::to_string(args.seed);
    if (tracer.WriteChromeTrace(path, label)) {
      std::printf("spans: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
  }
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
