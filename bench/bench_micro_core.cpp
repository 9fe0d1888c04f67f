// Micro-benchmarks of the core data structures, including the §4.2 claim
// that Algorithm 1 is O(N): time per Choose() call must grow linearly with
// the number of cached fragments (check items_per_second stays flat).
#include <benchmark/benchmark.h>

#include <random>

#include "core/allocation_table.hpp"
#include "core/engine.hpp"
#include "core/eviction.hpp"
#include "core/restore_queue.hpp"
#include "core/tier_stack.hpp"
#include "storage/mem_store.hpp"
#include "util/mpmc_queue.hpp"
#include "util/rate_limiter.hpp"

namespace {

using namespace ckpt;

std::vector<core::FragmentView> RandomTable(std::int64_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<core::FragmentView> frags;
  std::uint64_t offset = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    core::FragmentView v;
    v.offset = offset;
    v.size = 64 + rng() % 512;
    const int kind = static_cast<int>(rng() % 10);
    if (kind == 0) {
      v.id = core::kGapId;
    } else {
      v.id = static_cast<core::EntryId>(i + 1);
      v.excluded = kind == 1;
      v.eta = kind == 2 ? 0.5 : 0.0;
      v.distance = static_cast<double>(rng() % 1000);
      v.lru_seq = rng() % 100000;
      v.fifo_seq = static_cast<std::uint64_t>(i);
    }
    frags.push_back(v);
    offset += v.size;
  }
  return frags;
}

/// §4.2 O(N) check: ns/op should scale ~linearly in range(0) (so
/// items_per_second stays roughly constant across sizes).
void BM_ScorePolicyChoose(benchmark::State& state) {
  const auto table = RandomTable(state.range(0), 42);
  const core::ScorePolicy policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.Choose(table, 4096));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScorePolicyChoose)->Range(64, 65536);

void BM_LruPolicyChoose(benchmark::State& state) {
  const auto table = RandomTable(state.range(0), 43);
  const core::LruPolicy policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.Choose(table, 4096));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LruPolicyChoose)->Range(256, 16384);

void BM_AllocationTableInsertErase(benchmark::State& state) {
  core::AllocationTable table(1ull << 30);
  std::mt19937_64 rng(7);
  core::EntryId next = 1;
  std::vector<core::EntryId> live;
  for (auto _ : state) {
    if (live.size() < 512 && (live.empty() || rng() % 2 == 0)) {
      const auto snap = table.Snapshot();
      for (const auto& f : snap) {
        if (f.is_gap() && f.size >= 4096) {
          const core::EntryId id = next++;
          benchmark::DoNotOptimize(table.Insert(id, f.offset, 4096));
          live.push_back(id);
          break;
        }
      }
    } else {
      const std::size_t idx = rng() % live.size();
      benchmark::DoNotOptimize(table.Erase(live[idx]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
}
BENCHMARK(BM_AllocationTableInsertErase);

void BM_RestoreQueueDistance(benchmark::State& state) {
  core::RestoreQueue q;
  const auto n = static_cast<core::Version>(state.range(0));
  for (core::Version v = 0; v < n; ++v) q.Enqueue(v);
  std::mt19937_64 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.DistanceOf(rng() % n));
  }
}
BENCHMARK(BM_RestoreQueueDistance)->Range(64, 65536);

void BM_RateLimiterUnlimitedAcquire(benchmark::State& state) {
  util::RateLimiter rl(0);
  for (auto _ : state) {
    rl.Acquire(64 << 10);
  }
  state.SetBytesProcessed(state.iterations() * (64 << 10));
}
BENCHMARK(BM_RateLimiterUnlimitedAcquire);

void BM_MpmcQueuePushPop(benchmark::State& state) {
  util::MpmcQueue<std::uint64_t> q;
  std::uint64_t v = 0;
  for (auto _ : state) {
    q.Push(v++);
    benchmark::DoNotOptimize(q.Pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpmcQueuePushPop);

/// Rank hot path end to end: checkpoint + immediate restore against a deep
/// 4-cache-tier stack, so every round trip crosses the reserve/evict path
/// (the cache holds only a handful of checkpoints). Tracks the per-op cost
/// of the sharded-lock design.
void BM_EngineHotPath(benchmark::State& state) {
  constexpr std::uint64_t kSize = 64 << 10;
  auto stack = core::ParseTierStack(
      "gpu:gpucache:256Ki:score;h1:cache:512Ki:score;"
      "h2:cache:1Mi:score;ssd:durable:mem",
      "", {});
  if (!stack.ok()) {
    state.SkipWithError("ParseTierStack failed");
    return;
  }
  sim::Cluster cluster(sim::TopologyConfig::Testing());
  core::Engine engine(cluster, std::move(*stack), core::EngineOptions{}, 1);
  auto buf = *cluster.device(0).Allocate(kSize);
  core::Version v = 0;
  for (auto _ : state) {
    if (!engine.Checkpoint(0, v, buf, kSize).ok() ||
        !engine.Restore(0, v, buf, kSize).ok()) {
      state.SkipWithError("checkpoint/restore failed");
      break;
    }
    ++v;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * kSize));
  (void)cluster.device(0).Free(buf);
}
BENCHMARK(BM_EngineHotPath)->UseRealTime();

/// Reserve path with tenant quota admission armed: two tenants with
/// asymmetric non-zero quotas (so every reservation pays the cross-rank
/// TenantCacheUsed sum) churning one shared cache tier. Compare against
/// BM_EngineHotPath in the same run — the quota check must stay in the
/// noise.
void BM_MultiTenantReserve(benchmark::State& state) {
  constexpr std::uint64_t kSize = 64 << 10;
  auto stack = core::ParseTierStack(
      "gpu:gpucache:256Ki:score;ssd:durable:mem", "", {});
  if (!stack.ok()) {
    state.SkipWithError("ParseTierStack failed");
    return;
  }
  auto tenants = core::ParseTenantSpecs("a:1Mi;b:1Mi:0.5");
  if (!tenants.ok()) {
    state.SkipWithError("ParseTenantSpecs failed");
    return;
  }
  sim::Cluster cluster(sim::TopologyConfig::Testing());
  core::EngineOptions opts;
  opts.tenants = std::move(*tenants);
  core::Engine engine(cluster, std::move(*stack), opts, 2);
  auto buf_a = *cluster.device(0).Allocate(kSize);
  auto buf_b = *cluster.device(1).Allocate(kSize);
  core::Version v = 0;
  for (auto _ : state) {
    if (!engine.Checkpoint(0, v, buf_a, kSize).ok() ||
        !engine.Checkpoint(1, v, buf_b, kSize).ok()) {
      state.SkipWithError("checkpoint failed");
      break;
    }
    ++v;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * kSize));
  (void)cluster.device(0).Free(buf_a);
  (void)cluster.device(1).Free(buf_b);
}
BENCHMARK(BM_MultiTenantReserve)->UseRealTime();

/// The hint path: PrefetchEnqueue appends to the rank's restore-order queue
/// under the rank lock and notifies the prefetcher, so its latency is one
/// lock hold plus an O(log n) append. Fixed iteration count keeps the
/// (append-only) hint queue bounded.
void BM_PrefetchEnqueue(benchmark::State& state) {
  sim::Cluster cluster(sim::TopologyConfig::Testing());
  core::Engine engine(
      cluster,
      core::TierStack::Default(std::make_shared<storage::MemStore>(), nullptr)
          .value(),
      core::EngineOptions{}, 1);
  core::Version v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.PrefetchEnqueue(0, v++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefetchEnqueue)->Iterations(1 << 16);

}  // namespace

BENCHMARK_MAIN();
