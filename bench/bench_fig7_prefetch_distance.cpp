// Figure 7: per-iteration restore rate and number of next prefetches
// completed (prefetch distance) for the score-based approach with uniform
// checkpoint sizes and sequential read order, under No/Single/All hints.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <vector>

#include "harness/experiment.hpp"

namespace {

using namespace ckpt;

struct SeriesPoint {
  double restore_MBps = 0.0;
  double distance = 0.0;
  int count = 0;
};

std::map<std::string, std::vector<SeriesPoint>>& Series() {
  static std::map<std::string, std::vector<SeriesPoint>> s;
  return s;
}

harness::ExperimentConfig Fig7Config(rtm::HintMode hints) {
  harness::ExperimentConfig cfg;
  cfg.approach = harness::Approach::kScore;
  cfg.shot.hint_mode = hints;
  cfg.shot.read_order = rtm::ReadOrder::kSequential;
  cfg.shot.size_mode = rtm::SizeMode::kUniform;
  cfg.shot.wait_for_flush = true;  // Fig. 7 uses the flushed-history setup
  const harness::BenchScale scale = harness::LoadBenchScale();
  cfg.shot.num_ckpts = scale.num_ckpts;
  cfg.shot.trace.num_snapshots = scale.num_ckpts;
  cfg.shot.compute_interval = scale.interval;
  cfg.num_ranks = scale.num_ranks;
  return cfg;
}

constexpr int kBuckets = 16;

void RunFig7(benchmark::State& state, rtm::HintMode hints) {
  const auto cfg = Fig7Config(hints);
  for (auto _ : state) {
    auto result = harness::RunExperiment(cfg);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    state.SetIterationTime(result->shot.wall_s);
    state.counters["restore_MBps"] = result->restore_MBps_mean;

    // Bucket the per-iteration series across ranks by iteration index.
    std::vector<SeriesPoint> buckets(kBuckets);
    const int per_rank_iters = cfg.shot.num_ckpts;
    for (const auto& m : result->shot.per_rank) {
      const std::vector<double>& blocking_s = m.restore_block_s.samples();
      for (std::size_t i = 0; i < m.restore_series.size(); ++i) {
        const core::RestorePoint& pt = m.restore_series[i];
        const int b = static_cast<int>(pt.iteration) * kBuckets / per_rank_iters;
        auto& bucket = buckets[static_cast<std::size_t>(
            std::min(b, kBuckets - 1))];
        if (i < blocking_s.size() && blocking_s[i] > 0) {
          bucket.restore_MBps +=
              static_cast<double>(pt.bytes) / blocking_s[i] / 1e6;
        }
        bucket.distance += static_cast<double>(pt.prefetch_distance);
        ++bucket.count;
      }
    }
    for (auto& b : buckets) {
      if (b.count > 0) {
        b.restore_MBps /= b.count;
        b.distance /= b.count;
      }
    }
    Series()[std::string(rtm::to_string(hints)) + ", Score"] = buckets;
  }
}

void PrintFigure7(int num_ckpts) {
  std::printf("\n=== Fig. 7: restore rate and prefetch distance per timestep "
              "(Score, sequential, uniform sizes) ===\n");
  std::printf("%-22s %10s %16s %18s\n", "config", "timestep", "restore MB/s",
              "next prefetches");
  std::printf("---------------------------------------------------------------"
              "------\n");
  for (const auto& [name, buckets] : Series()) {
    for (int b = 0; b < kBuckets; ++b) {
      const auto& pt = buckets[static_cast<std::size_t>(b)];
      std::printf("%-22s %10d %16.1f %18.2f\n", name.c_str(),
                  b * num_ckpts / kBuckets, pt.restore_MBps, pt.distance);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (rtm::HintMode hints :
       {rtm::HintMode::kNone, rtm::HintMode::kSingle, rtm::HintMode::kAll}) {
    const std::string name = std::string("fig7/") + rtm::to_string(hints);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [hints](benchmark::State& state) { RunFig7(state, hints); })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintFigure7(harness::LoadBenchScale().num_ckpts);
  return 0;
}
