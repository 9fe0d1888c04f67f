// Binomial/stride checkpointing example (paper §1): memory-bound adjoint
// runs (e.g. quantum optimal control) cannot store every forward state, so
// the forward pass stores a *subset* of checkpoints and the backward pass
// recomputes the missing states from the nearest stored one — triggering
// interleaved writes and reads of checkpoints in a predefined but
// non-monotonic order, exactly the access pattern §4.1.1's dynamic hints
// exist for. Hints are enqueued one step ahead of each planned restore.
//
// The example runs the adjoint twice — once with full storage (reference)
// and once with a limited budget + recomputation — and checks that both
// produce the same "gradient".
//
// Usage: ./build/examples/binomial_checkpointing [timesteps=64] [budget=8]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <vector>

#include "core/engine.hpp"
#include "storage/mem_store.hpp"
#include "storage/throttled_store.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace ckpt;

namespace {

constexpr std::uint64_t kStateBytes = 64 << 10;

void ForwardStep(std::byte* state, int t) {
  std::uint64_t acc = util::SplitMix64(static_cast<std::uint64_t>(t) + 17);
  for (std::uint64_t i = 0; i + 8 <= kStateBytes; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, state + i, 8);
    w = w * 6364136223846793005ull + acc;
    std::memcpy(state + i, &w, 8);
  }
}

/// The "adjoint" contribution of the state at timestep t (stand-in for a
/// real gradient accumulation).
std::uint64_t AdjointOf(const std::byte* state, int t) {
  std::uint64_t h = util::SplitMix64(static_cast<std::uint64_t>(t));
  for (std::uint64_t i = 0; i + 8 <= kStateBytes; i += 512) {
    std::uint64_t w = 0;
    std::memcpy(&w, state + i, 8);
    h ^= util::SplitMix64(w);
  }
  return h;
}

struct AdjointResult {
  std::uint64_t gradient = 0;
  int recomputed_steps = 0;
  core::RankMetrics metrics;
};

/// Runs the adjoint with a checkpoint-storage budget. `budget >= timesteps`
/// degenerates to full storage (no recomputation).
AdjointResult RunAdjoint(int timesteps, int budget) {
  sim::Cluster cluster(sim::TopologyConfig::Scaled());
  auto ssd = storage::MakeSsdStore(cluster.topology(),
                                   std::make_shared<storage::MemStore>());
  core::Engine engine(cluster, core::TierStack::Default(ssd, nullptr).value(),
                      core::EngineOptions{}, 1);

  auto state = *cluster.device(0).Allocate(kStateBytes);
  std::memset(state, 0x3b, kStateBytes);

  // Stride schedule: store the state entering every `stride`-th step.
  const int stride = std::max(1, (timesteps + budget - 1) / budget);
  std::map<int, core::Version> stored;  // timestep -> checkpoint version
  core::Version next_version = 0;

  // Forward pass: checkpoint the subset, compute everything.
  for (int t = 0; t < timesteps; ++t) {
    if (t % stride == 0) {
      const core::Version v = next_version++;
      if (!engine.Checkpoint(0, v, state, kStateBytes).ok()) std::abort();
      stored[t] = v;
    }
    ForwardStep(state, t);
  }

  AdjointResult result;

  // Backward pass: for each t from last to first, reconstruct state-at-t
  // from the nearest stored checkpoint and accumulate the adjoint.
  if (!engine.PrefetchStart(0).ok()) std::abort();
  int resident_t = -1;  // timestep whose entering state `state` holds
  for (int t = timesteps - 1; t >= 0; --t) {
    auto it = stored.upper_bound(t);
    --it;  // nearest stored timestep <= t
    const int base_t = it->first;
    if (resident_t != t) {
      // Hint, then restore the base checkpoint and recompute forward.
      if (!engine.PrefetchEnqueue(0, it->second).ok()) std::abort();
      if (!engine.Restore(0, it->second, state, kStateBytes).ok()) std::abort();
      for (int k = base_t; k < t; ++k) {
        ForwardStep(state, k);
        ++result.recomputed_steps;
        // Opportunistically store intermediate states on the way (the
        // "smaller forward passes may generate new checkpoints" of §1) so
        // later backward steps start closer.
        if ((k + 1) % std::max(1, stride / 2) == 0 &&
            stored.find(k + 1) == stored.end() && k + 1 <= t) {
          const core::Version v = next_version++;
          if (!engine.Checkpoint(0, v, state, kStateBytes).ok()) std::abort();
          stored[k + 1] = v;
        }
      }
    }
    result.gradient ^= AdjointOf(state, t);
    resident_t = -1;  // consumed; state now holds entering-state of t
    // If the next iteration needs t-1 and we have it stored, announce it.
    if (t > 0) {
      auto nit = stored.upper_bound(t - 1);
      --nit;
      if (!engine.PrefetchEnqueue(0, nit->second).ok()) std::abort();
    }
  }

  result.metrics = engine.metrics(0);
  engine.Shutdown();
  (void)cluster.device(0).Free(state);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const int timesteps = argc > 1 ? std::atoi(argv[1]) : 64;
  const int budget = argc > 2 ? std::atoi(argv[2]) : 8;

  std::printf("binomial checkpointing: %d timesteps, reference (full storage) "
              "vs budget of %d checkpoints\n", timesteps, budget);

  const AdjointResult reference = RunAdjoint(timesteps, timesteps);
  const AdjointResult budgeted = RunAdjoint(timesteps, budget);

  std::printf("  reference gradient: %016llx (0 recomputed steps)\n",
              static_cast<unsigned long long>(reference.gradient));
  std::printf("  budgeted gradient:  %016llx (%d recomputed steps)\n",
              static_cast<unsigned long long>(budgeted.gradient),
              budgeted.recomputed_steps);
  std::printf("  budgeted run: ckpt %s, restore %s, %llu restores "
              "(%llu from GPU cache)\n",
              util::FormatRate(budgeted.metrics.CkptThroughput()).c_str(),
              util::FormatRate(budgeted.metrics.RestoreThroughput()).c_str(),
              static_cast<unsigned long long>(
                  budgeted.metrics.restore_block_s.size()),
              static_cast<unsigned long long>(
                  budgeted.metrics.restores_from_tier.at(core::Tier::kGpu)));

  if (reference.gradient != budgeted.gradient) {
    std::fprintf(stderr, "GRADIENT MISMATCH: recomputation is incorrect\n");
    return 1;
  }
  std::printf("  gradients match: recomputation preserved the adjoint\n");
  return 0;
}
