// Concurrency regression tests for the rank hot path (DESIGN.md §10):
//  * Touch()'s seq_counter discipline under concurrent restores and
//    prefetch promotions (run under TSan in CI; CKPT_ASSERT_HELD guards
//    debug builds);
//  * the per-tier reserve channel: a pin release must wake a blocked
//    reservation promptly instead of letting it sleep a full re-plan
//    period;
//  * a multi-rank, multi-thread checkpoint/restore/hint storm over a
//    mixed-policy 3-tier stack, with metrics/residency conservation
//    invariants checked at quiescence.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/telemetry_sink.hpp"
#include "core/tier_stack.hpp"
#include "rtm/workload.hpp"
#include "storage/mem_store.hpp"

namespace ckpt::core {
namespace {

using rtm::CheckPattern;
using rtm::FillPattern;

struct Stack {
  // Declaration order matters: engine is destroyed first (it references
  // the cluster).
  std::unique_ptr<sim::Cluster> cluster;
  std::shared_ptr<storage::MemStore> ssd;
  std::unique_ptr<Engine> engine;
};

Stack Build(std::uint64_t gpu_bytes, std::uint64_t host_bytes,
            EngineOptions opts = {}) {
  Stack s;
  s.cluster = std::make_unique<sim::Cluster>(sim::TopologyConfig::Testing());
  s.ssd = std::make_shared<storage::MemStore>();
  s.engine = std::make_unique<Engine>(
      *s.cluster,
      TierStack::Default(s.ssd, nullptr, gpu_bytes, host_bytes).value(), opts,
      1);
  return s;
}

// Touch() bumps ctx.seq_counter, which is only safe under the rank lock.
// Race concurrent restores (two app threads, deviating from hint order)
// against prefetch promotions on ONE rank so the T_PF worker and both app
// threads all exercise Touch and the recency metadata simultaneously.
// TSan flags any unlocked access; debug builds assert lock ownership.
TEST(EngineConcurrencyTest, TouchIsLockDisciplinedUnderRestorePromotionRace) {
  constexpr int kCkpts = 16;
  constexpr std::uint64_t kSize = 16 << 10;
  Stack s = Build(4 * kSize, 8 * kSize);  // forces spills and promotions
  auto& engine = *s.engine;
  auto& dev = s.cluster->device(0);

  auto wbuf = *dev.Allocate(kSize);
  for (Version v = 0; v < kCkpts; ++v) {
    FillPattern(0, v, wbuf, kSize);
    ASSERT_TRUE(engine.Checkpoint(0, v, wbuf, kSize).ok());
  }
  ASSERT_TRUE(engine.WaitForFlushes(0).ok());
  for (Version v = 0; v < kCkpts; ++v) {
    ASSERT_TRUE(engine.PrefetchEnqueue(0, v).ok());
  }
  ASSERT_TRUE(engine.PrefetchStart(0).ok());

  // Two app threads restore disjoint halves — one in hint order, one in
  // reverse (maximal deviation) — while the prefetcher promotes.
  std::atomic<int> failures{0};
  auto reader = [&](std::vector<Version> order) {
    auto rbuf = *dev.Allocate(kSize);
    for (Version v : order) {
      if (!engine.Restore(0, v, rbuf, kSize).ok() ||
          !CheckPattern(0, v, rbuf, kSize)) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
    (void)dev.Free(rbuf);
  };
  std::vector<Version> front(kCkpts / 2), back(kCkpts / 2);
  std::iota(front.begin(), front.end(), Version{0});
  std::iota(back.begin(), back.end(), Version{kCkpts / 2});
  std::reverse(back.begin(), back.end());
  std::thread t1(reader, front);
  std::thread t2(reader, back);
  t1.join();
  t2.join();
  EXPECT_EQ(failures.load(), 0);

  const RankMetrics m = engine.MetricsSnapshot(0);
  EXPECT_EQ(m.bytes_restored, static_cast<std::uint64_t>(kCkpts) * kSize);
  (void)dev.Free(wbuf);
}

// Regression for the reserve-channel wakeup contract: a reservation blocked
// behind a pinned prefetched checkpoint (planner returns kUnavailable) must
// be woken by the Restore() that releases the pin, not left to sleep out
// the full 20 ms re-plan backoff. Each iteration T_PF promotes
// v+1 from the host tier into the only GPU slot, which v holds pinned, while
// the application restores v after a 2 ms delay. With prompt wakeups the
// accumulated reserve_wait stays far below kIters * 20 ms, which is what the
// un-notified path would pay.
TEST(EngineConcurrencyTest, PinReleaseWakesBlockedReservationPromptly) {
  constexpr int kIters = 20;
  constexpr std::uint64_t kSize = 32 << 10;
  EngineOptions opts;
  // A pin cap above the GPU tier's capacity: T_PF never parks on the cap,
  // so the promotion of v+1 reaches the reservation and blocks there on v.
  opts.prefetch_pin_fraction = 2.0;
  // Exactly one GPU slot: a pinned entry blocks it.
  Stack s = Build(kSize, 16 * kSize, opts);
  auto& engine = *s.engine;
  auto& dev = s.cluster->device(0);
  auto wbuf = *dev.Allocate(kSize);
  auto rbuf = *dev.Allocate(kSize);
  const auto in_state = [&](Version v, CkptState want) {
    const auto st = engine.StateOf(0, v);
    return st.ok() && *st == want;
  };
  const auto wait_for_state = [&](Version v, CkptState want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!in_state(v, want) && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return in_state(v, want);
  };

  FillPattern(0, 0, wbuf, kSize);
  ASSERT_TRUE(engine.Checkpoint(0, 0, wbuf, kSize).ok());
  ASSERT_TRUE(engine.WaitForFlushes(0).ok());
  ASSERT_TRUE(engine.PrefetchStart(0).ok());
  ASSERT_TRUE(engine.PrefetchEnqueue(0, 0).ok());
  ASSERT_TRUE(wait_for_state(0, CkptState::kReadComplete));  // v0 pinned

  for (Version v = 0; v < kIters; ++v) {
    // The GPU slot is pinned by v, so v+1 lands on the host tier.
    FillPattern(0, v + 1, wbuf, kSize);
    ASSERT_TRUE(engine.Checkpoint(0, v + 1, wbuf, kSize).ok());
    ASSERT_FALSE(engine.ResidentOnIndex(0, v + 1, Tier::kGpu));
    ASSERT_TRUE(engine.WaitForFlushes(0).ok());
    ASSERT_TRUE(engine.PrefetchEnqueue(0, v + 1).ok());
    // T_PF claimed the promotion; its reservation blocks on v's pin.
    ASSERT_TRUE(wait_for_state(v + 1, CkptState::kReadInProgress));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    // Consuming v releases the pin; this transition must wake T_PF's
    // reservation through the fast tier's reserve channel.
    ASSERT_TRUE(engine.Restore(0, v, rbuf, kSize).ok());
    EXPECT_TRUE(CheckPattern(0, v, rbuf, kSize));
    // The promotion can only have landed in the slot v held.
    ASSERT_TRUE(wait_for_state(v + 1, CkptState::kReadComplete));
    EXPECT_TRUE(engine.ResidentOnIndex(0, v + 1, Tier::kGpu));
  }

  const RankMetrics m = engine.MetricsSnapshot(0);
  EXPECT_EQ(m.prefetch_promotions, static_cast<std::uint64_t>(kIters));
  EXPECT_GT(m.reserve_wait_prefetch_s, 0.0);
  // Un-notified backoff would sleep ~20 ms per iteration on top of the 2 ms
  // the pin is actually held: >= kIters * 20 ms = 400 ms in total. Prompt
  // wakeups pay roughly the 2 ms hold (plus scheduling noise); half the
  // un-notified floor is a generous, machine-tolerant discriminator.
  EXPECT_LT(m.reserve_wait_prefetch_s, 0.5 * kIters * 0.020)
      << "blocked reservations are sleeping out the re-plan backoff instead "
         "of being woken by the pin release";
  (void)dev.Free(wbuf);
  (void)dev.Free(rbuf);
}

// Multi-rank, multi-thread storm over a mixed-policy 3-tier stack: per rank
// one writer thread (checkpoints + periodic WaitForFlushes) and one reader
// thread (hints ahead, then restores every version exactly once). At
// quiescence the metrics and residency bookkeeping must balance exactly.
TEST(EngineConcurrencyTest, MultiRankStormConservesBytesAndResidency) {
  constexpr int kRanks = 2;
  constexpr int kCkpts = 24;
  auto stack = ParseTierStack(
      "gpu:gpucache:96Ki:score,host:cache:256Ki:lru,ssd:durable:mem", "", {});
  ASSERT_TRUE(stack.ok()) << stack.status();
  Stack s;
  s.cluster = std::make_unique<sim::Cluster>(sim::TopologyConfig::Testing());
  s.engine = std::make_unique<Engine>(*s.cluster, std::move(*stack),
                                      EngineOptions{}, kRanks);
  auto& engine = *s.engine;

  std::vector<std::uint64_t> written_bytes(kRanks, 0);
  std::vector<std::thread> threads;
  std::vector<std::atomic<Version>> hwm(kRanks);  // highest written + 1
  std::atomic<int> failures{0};

  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      auto& dev = s.cluster->device(r);
      auto buf = *dev.Allocate(24 << 10);
      for (int i = 0; i < kCkpts; ++i) {
        const Version v = static_cast<Version>(i);
        const std::uint64_t size = (8 << 10) * (1 + i % 3);  // 8/16/24 KiB
        written_bytes[static_cast<std::size_t>(r)] += size;
        FillPattern(r, v, buf, size);
        if (!engine.Checkpoint(r, v, buf, size).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        hwm[static_cast<std::size_t>(r)].store(v + 1,
                                               std::memory_order_release);
        if (i % 8 == 7) (void)engine.WaitForFlushes(r);
      }
      (void)dev.Free(buf);
    });
    threads.emplace_back([&, r] {
      auto& dev = s.cluster->device(r);
      auto buf = *dev.Allocate(24 << 10);
      bool started = false;
      for (int i = 0; i < kCkpts; ++i) {
        const Version v = static_cast<Version>(i);
        while (hwm[static_cast<std::size_t>(r)].load(
                   std::memory_order_acquire) <= v) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (i % 2 == 0) {  // hint half the reads
          (void)engine.PrefetchEnqueue(r, v);
          if (!started) {
            (void)engine.PrefetchStart(r);
            started = true;
          }
        }
        auto size = engine.RecoverSize(r, v);
        if (!size.ok() || !engine.Restore(r, v, buf, 24 << 10).ok() ||
            !CheckPattern(r, v, buf, *size)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      (void)dev.Free(buf);
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  for (int r = 0; r < kRanks; ++r) {
    ASSERT_TRUE(engine.WaitForFlushes(r).ok());
    const RankMetrics m = engine.MetricsSnapshot(r);
    const std::uint64_t expect = written_bytes[static_cast<std::size_t>(r)];
    EXPECT_EQ(m.bytes_checkpointed, expect) << "rank " << r;
    EXPECT_EQ(m.bytes_restored, expect) << "rank " << r;
    // Residency conservation at quiescence: each cache tier's allocation
    // table must hold exactly the bytes of the records marked resident
    // there — a leaked reservation or double-release breaks this balance.
    for (int t = 0; t < engine.tiers().num_cache_tiers(); ++t) {
      std::uint64_t resident = 0;
      for (int i = 0; i < kCkpts; ++i) {
        if (engine.ResidentOnIndex(r, static_cast<Version>(i), t)) {
          resident += (8 << 10) * (1 + static_cast<std::uint64_t>(i) % 3);
        }
      }
      EXPECT_EQ(engine.CacheUsed(r, t), resident)
          << "rank " << r << " tier " << t;
    }
  }

  // One count per event: a final scrape reads the same counter cells as
  // MetricsSnapshot(), so every shared counter agrees exactly.
  const TelemetryCheck scrape = ValidateOpenMetrics(OpenMetricsText(engine));
  ASSERT_TRUE(scrape.ok) << scrape.error;
  for (int r = 0; r < kRanks; ++r) {
    const RankMetrics m = engine.MetricsSnapshot(r);
    const std::string rank =
        "tenant=\"default\",rank=\"" + std::to_string(r) + "\"";
    const auto scraped = [&](const std::string& family,
                             const std::string& labels = "") {
      const std::string key = family + "{" + labels + rank + "}";
      EXPECT_TRUE(scrape.values.count(key)) << key;
      return static_cast<std::uint64_t>(scrape.values.at(key));
    };
    const std::pair<const char*, std::uint64_t> counters[] = {
        {"ckpt_checkpoints_total", m.ckpt_block_s.size()},
        {"ckpt_restores_total", m.restore_block_s.size()},
        {"ckpt_bytes_checkpointed_total", m.bytes_checkpointed},
        {"ckpt_bytes_restored_total", m.bytes_restored},
        {"ckpt_reserve_rounds_total", m.reserve_rounds},
        {"ckpt_reserve_plans_stale_total", m.reserve_plans_stale},
        {"ckpt_reserve_snapshot_reuse_total", m.reserve_snapshot_reuse},
        {"ckpt_reserve_quota_waits_total", m.reserve_quota_waits},
        {"ckpt_flush_retries_total", m.flush_retries},
        {"ckpt_fetch_retries_total", m.fetch_retries},
        {"ckpt_tier_degradations_total", m.tier_degradations},
        {"ckpt_checkpoints_lost_total", m.checkpoints_lost},
        {"ckpt_watchdog_stalls_total", m.watchdog_stalls},
    };
    for (const auto& [family, value] : counters) {
      EXPECT_EQ(scraped(family), value) << family << " rank " << r;
    }
    const std::pair<const char*, std::uint64_t> outcomes[] = {
        {"admitted", m.objects_admitted}, {"durable", m.objects_durable},
        {"degraded", m.objects_degraded}, {"lost", m.objects_lost},
        {"erased", m.objects_erased},
    };
    for (const auto& [outcome, value] : outcomes) {
      EXPECT_EQ(scraped("ckpt_objects_total",
                        "outcome=\"" + std::string(outcome) + "\","),
                value)
          << outcome << " rank " << r;
    }
    for (std::size_t t = 0; t < engine.tiers().size(); ++t) {
      const std::string tier =
          "tier=\"" + std::string(engine.tiers().name(t)) + "\",";
      EXPECT_EQ(scraped("ckpt_tier_flush_bytes_total", tier),
                m.flush_bytes_to_tier[t])
          << "rank " << r << " tier " << t;
      EXPECT_EQ(scraped("ckpt_tier_restores_total", tier),
                m.restores_from_tier[t])
          << "rank " << r << " tier " << t;
    }
  }
}

// Two tenants with asymmetric quotas storm one shared mixed-policy stack:
// tenant a (unlimited) and tenant b (64Ki, half bandwidth weight) each run
// checkpoint writers plus hint+restore readers on their own rank block.
// TSan covers the quota admission path (TenantCacheUsed sums, ShedForQuota,
// the quota wait/wake channel) racing the regular reserve/evict machinery.
// At quiescence: per-tenant byte conservation must hold, tenant b must sit
// at or under its quota, and tenant a must never have taken a quota wait.
TEST(EngineConcurrencyTest, MultiTenantStormRespectsQuotasAndConservesBytes) {
  constexpr int kRanksPerTenant = 2;
  constexpr int kRanks = 2 * kRanksPerTenant;
  constexpr int kCkpts = 24;
  constexpr std::uint64_t kQuotaB = 64 << 10;
  auto stack = ParseTierStack(
      "gpu:gpucache:96Ki:score,host:cache:256Ki:lru,ssd:durable:mem", "", {});
  ASSERT_TRUE(stack.ok()) << stack.status();
  auto tenants = ParseTenantSpecs("a:0;b:64Ki:0.5");
  ASSERT_TRUE(tenants.ok()) << tenants.status();
  EngineOptions opts;
  opts.tenants = std::move(*tenants);
  Stack s;
  sim::TopologyConfig topo = sim::TopologyConfig::Testing();
  topo.gpus_per_node = kRanks;
  s.cluster = std::make_unique<sim::Cluster>(topo);
  s.engine =
      std::make_unique<Engine>(*s.cluster, std::move(*stack), opts, kRanks);
  auto& engine = *s.engine;
  ASSERT_TRUE(engine.multi_tenant());

  std::vector<std::uint64_t> written_bytes(kRanks, 0);
  std::vector<std::thread> threads;
  std::vector<std::atomic<Version>> hwm(kRanks);  // highest written + 1
  std::atomic<int> failures{0};

  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      auto& dev = s.cluster->device(r);
      auto buf = *dev.Allocate(24 << 10);
      for (int i = 0; i < kCkpts; ++i) {
        const Version v = static_cast<Version>(i);
        const std::uint64_t size = (8 << 10) * (1 + i % 3);  // 8/16/24 KiB
        written_bytes[static_cast<std::size_t>(r)] += size;
        FillPattern(r, v, buf, size);
        if (!engine.Checkpoint(r, v, buf, size).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        hwm[static_cast<std::size_t>(r)].store(v + 1,
                                               std::memory_order_release);
        if (i % 8 == 7) (void)engine.WaitForFlushes(r);
      }
      (void)dev.Free(buf);
    });
    threads.emplace_back([&, r] {
      auto& dev = s.cluster->device(r);
      auto buf = *dev.Allocate(24 << 10);
      bool started = false;
      for (int i = 0; i < kCkpts; ++i) {
        const Version v = static_cast<Version>(i);
        while (hwm[static_cast<std::size_t>(r)].load(
                   std::memory_order_acquire) <= v) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (i % 2 == 0) {
          (void)engine.PrefetchEnqueue(r, v);
          if (!started) {
            (void)engine.PrefetchStart(r);
            started = true;
          }
        }
        auto size = engine.RecoverSize(r, v);
        if (!size.ok() || !engine.Restore(r, v, buf, 24 << 10).ok() ||
            !CheckPattern(r, v, buf, *size)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      (void)dev.Free(buf);
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  std::uint64_t quota_waits_a = 0;
  for (int r = 0; r < kRanks; ++r) {
    ASSERT_TRUE(engine.WaitForFlushes(r).ok());
    const RankMetrics m = engine.MetricsSnapshot(r);
    const std::uint64_t expect = written_bytes[static_cast<std::size_t>(r)];
    EXPECT_EQ(m.bytes_checkpointed, expect) << "rank " << r;
    EXPECT_EQ(m.bytes_restored, expect) << "rank " << r;
    if (r < kRanksPerTenant) quota_waits_a += m.reserve_quota_waits;
  }
  // Quota pressure stays inside tenant b: the unlimited tenant never waits.
  EXPECT_EQ(quota_waits_a, 0u);
  // Tenant b quiesces at or under its quota; the registry still maps every
  // rank to the right block after the storm.
  EXPECT_LE(engine.TenantCacheUsed(1), kQuotaB);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(engine.TenantOf(r), r < kRanksPerTenant ? 0 : 1) << "rank " << r;
  }
}

}  // namespace
}  // namespace ckpt::core
