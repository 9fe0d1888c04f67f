// RTM adjoint example: the paper's motivating application (§5.3.1).
//
// Runs one Reverse Time Migration "shot" per simulated GPU: a forward wave
// propagation writing a variable-size compressed checkpoint per timestep
// (sizes from the synthetic trace model calibrated to Fig. 4), then a
// backward pass consuming them in reverse to cross-correlate the image.
// Uses the durable FileStore so the checkpoint files actually land on disk.
//
// Usage: ./build/examples/rtm_adjoint [num_gpus=8] [num_timesteps=192]
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "harness/experiment.hpp"
#include "rtm/workload.hpp"
#include "storage/file_store.hpp"
#include "storage/throttled_store.hpp"
#include "util/stats.hpp"

using namespace ckpt;

int main(int argc, char** argv) {
  const int num_gpus = argc > 1 ? std::atoi(argv[1]) : 8;
  const int timesteps = argc > 2 ? std::atoi(argv[2]) : 192;

  sim::Cluster cluster(sim::TopologyConfig::Scaled());
  if (num_gpus < 1 || num_gpus > cluster.total_gpus()) {
    std::fprintf(stderr, "num_gpus must be in [1, %d]\n", cluster.total_gpus());
    return 1;
  }

  // Durable SSD tier on real files (one .ckpt file per snapshot).
  const auto root = std::filesystem::temp_directory_path() / "rtm_adjoint_ckpts";
  std::filesystem::remove_all(root);
  auto file_store = storage::FileStore::Open(root);
  if (!file_store.ok()) {
    std::fprintf(stderr, "store open failed: %s\n",
                 file_store.status().ToString().c_str());
    return 1;
  }
  auto ssd = storage::MakeSsdStore(
      cluster.topology(), std::shared_ptr<storage::ObjectStore>(
                              std::move(*file_store)));

  core::EngineOptions opts;
  // Adjoint runs don't need the history after consumption (condition (5)).
  opts.discard_after_restore = true;
  core::Engine engine(cluster, core::TierStack::Default(ssd, nullptr).value(),
                      opts, num_gpus);

  rtm::ShotConfig shot;
  shot.num_ckpts = timesteps;
  shot.size_mode = rtm::SizeMode::kVariable;   // compressed wavefields
  shot.read_order = rtm::ReadOrder::kReverse;  // adjoint consumes in reverse
  shot.hint_mode = rtm::HintMode::kAll;        // restore order fully known
  shot.compute_interval = std::chrono::milliseconds(1);
  shot.verify = true;
  shot.trace.num_snapshots = timesteps;

  std::printf("RTM adjoint: %d GPUs x %d timesteps, variable compressed "
              "checkpoints, reverse restore with full hints\n",
              num_gpus, timesteps);
  auto result = rtm::RunShot(cluster, engine, shot, num_gpus);
  engine.Shutdown();
  if (!result.ok()) {
    std::fprintf(stderr, "shot failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  if (result->verify_failures != 0) {
    std::fprintf(stderr, "DATA CORRUPTION: %llu wavefields failed verification\n",
                 static_cast<unsigned long long>(result->verify_failures));
    return 1;
  }

  std::printf("\n%-6s %14s %14s %10s %10s %8s\n", "rank", "ckpt", "restore",
              "gpu-hits", "promoted", "init s");
  for (std::size_t r = 0; r < result->per_rank.size(); ++r) {
    const auto& m = result->per_rank[r];
    std::printf("%-6zu %14s %14s %10llu %10llu %8.3f\n", r,
                util::FormatRate(m.CkptThroughput()).c_str(),
                util::FormatRate(m.RestoreThroughput()).c_str(),
                static_cast<unsigned long long>(
                    m.restores_from_tier.at(core::Tier::kGpu)),
                static_cast<unsigned long long>(m.prefetch_promotions),
                m.init_s);
  }
  std::printf("\nshot total: %s checkpointed, wall %.2f s, "
              "mean per-GPU ckpt %s / restore %s\n",
              util::FormatBytes(static_cast<double>(result->total_bytes)).c_str(),
              result->wall_s,
              util::FormatRate(result->MeanCkptThroughput()).c_str(),
              util::FormatRate(result->MeanRestoreThroughput()).c_str());
  std::printf("checkpoint files under %s\n", root.c_str());
  return 0;
}
