// Reproducibility example (paper §1): write the entire history of
// intermediate results during a run, then read it back *in the same order it
// was produced* to validate invariants and detect where two runs diverge.
//
// The "simulation" here is a toy iterative stencil whose state hash is
// checkpointed each iteration. A second (optionally perturbed) run replays
// the stored history sequentially — with sequential prefetch hints — and
// reports the first divergent iteration.
//
// Usage: ./build/examples/reproducibility_replay [--perturb]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/veloc.hpp"
#include "storage/mem_store.hpp"
#include "storage/throttled_store.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace ckpt;

namespace {

constexpr int kIterations = 96;
constexpr std::uint64_t kStateBytes = 96 << 10;

/// One step of a toy deterministic "simulation" over the state buffer.
void SimulateStep(std::byte* state, std::uint64_t n, int iter, bool perturb) {
  std::uint64_t acc = util::SplitMix64(static_cast<std::uint64_t>(iter));
  for (std::uint64_t i = 0; i + 8 <= n; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, state + i, 8);
    word = word * 2862933555777941757ull + acc;
    acc ^= word >> 17;
    std::memcpy(state + i, &word, 8);
  }
  if (perturb && iter == kIterations / 2) {
    state[0] ^= std::byte{1};  // a single bit flip mid-run
  }
}

/// Ends the run with exit code 1 when an API call failed.
void Check(const util::Status& st, const char* call) {
  if (st.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", call, st.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const bool perturb = argc > 1 && std::string(argv[1]) == "--perturb";

  sim::Cluster cluster(sim::TopologyConfig::Scaled());
  auto ssd = storage::MakeSsdStore(cluster.topology(),
                                   std::make_shared<storage::MemStore>());
  core::Engine engine(cluster, core::TierStack::Default(ssd, nullptr).value(),
                      core::EngineOptions{}, 1);
  api::VelocClient veloc(engine, cluster, 0);

  auto state = cluster.device(0).Allocate(kStateBytes);
  auto replay = cluster.device(0).Allocate(kStateBytes);
  if (!state.ok() || !replay.ok()) return 1;

  // --- Run 1: baseline simulation, checkpoint every iteration. -----------
  std::memset(*state, 0x5c, kStateBytes);
  Check(veloc.MemProtect(1, *state, kStateBytes), "protect");
  for (int iter = 0; iter < kIterations; ++iter) {
    SimulateStep(*state, kStateBytes, iter, /*perturb=*/false);
    Check(veloc.Checkpoint("baseline", static_cast<core::Version>(iter)),
          "checkpoint");
  }
  // Persist the full history before the validation pass (Fig. 5 protocol:
  // reproducibility requires the checkpoints to be durable).
  Check(veloc.WaitForFlushes(), "flush barrier");

  // --- Run 2: re-execute (optionally perturbed) and compare against the
  //     stored history in production order, with sequential hints. --------
  for (int iter = 0; iter < kIterations; ++iter) {
    Check(veloc.PrefetchEnqueue(static_cast<core::Version>(iter)), "hint");
  }
  Check(veloc.PrefetchStart(), "prefetch start");

  std::memset(*state, 0x5c, kStateBytes);
  int first_divergence = -1;
  for (int iter = 0; iter < kIterations; ++iter) {
    SimulateStep(*state, kStateBytes, iter, perturb);
    Check(veloc.MemProtect(1, *replay, kStateBytes), "protect");
    Check(veloc.Restart(static_cast<core::Version>(iter)), "restore");
    if (std::memcmp(*state, *replay, kStateBytes) != 0 && first_divergence < 0) {
      first_divergence = iter;
    }
  }
  // Restore protection symmetry.
  Check(veloc.MemProtect(1, *state, kStateBytes), "protect");

  const auto& m = veloc.metrics();
  std::printf("reproducibility replay over %d iterations (%s)\n", kIterations,
              perturb ? "perturbed run" : "identical run");
  if (first_divergence < 0) {
    std::printf("  runs are bit-identical across the whole history\n");
  } else {
    std::printf("  first divergence at iteration %d\n", first_divergence);
  }
  std::printf("  validation read throughput: %s (wrote at %s)\n",
              util::FormatRate(m.RestoreThroughput()).c_str(),
              util::FormatRate(m.CkptThroughput()).c_str());
  std::printf("  flush barrier cost: %.3f s; prefetch promotions: %llu\n",
              m.wait_for_flush_s,
              static_cast<unsigned long long>(m.prefetch_promotions));

  (void)cluster.device(0).Free(*state);
  (void)cluster.device(0).Free(*replay);
  const bool expected = perturb ? (first_divergence == kIterations / 2)
                                : (first_divergence == -1);
  if (!expected) {
    std::fprintf(stderr, "unexpected divergence result\n");
    return 1;
  }
  return 0;
}
