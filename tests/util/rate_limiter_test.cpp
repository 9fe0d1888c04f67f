#include "util/rate_limiter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/clock.hpp"

namespace ckpt::util {
namespace {

// Starts `acquire` on a new thread and returns once the limiter shows one
// more queued request, so arrival order is the order of the calls. Needs a
// limiter in debt: nothing may be admitted while the waiters queue.
template <typename Fn>
void StartQueued(const RateLimiter& rl, std::vector<std::jthread>& threads,
                 Fn&& acquire) {
  const auto before = rl.EstimateDelay(0);
  threads.emplace_back(std::forward<Fn>(acquire));
  while (rl.EstimateDelay(0) <= before) std::this_thread::yield();
}

TEST(RateLimiterTest, UnlimitedNeverBlocks) {
  RateLimiter rl(0);
  const Stopwatch sw;
  for (int i = 0; i < 1000; ++i) rl.Acquire(1 << 20);
  EXPECT_LT(sw.ElapsedSec(), 0.5);
  EXPECT_EQ(rl.admitted_bytes(), 1000ull << 20);
}

TEST(RateLimiterTest, EnforcesLongTermRate) {
  // 10 MB/s; acquire ~2 MB => at least ~150 ms (allowing burst credit).
  RateLimiter rl(10 << 20, /*burst=*/64 << 10);
  const Stopwatch sw;
  for (int i = 0; i < 32; ++i) rl.Acquire(64 << 10);  // 2 MiB total
  const double elapsed = sw.ElapsedSec();
  EXPECT_GT(elapsed, 0.12);
  EXPECT_LT(elapsed, 1.0);
}

TEST(RateLimiterTest, FirstAcquireAdmittedInstantly) {
  // Debt model: the bucket starts empty but a solvent (zero-token) bucket
  // admits one request immediately; only the *next* request pays.
  RateLimiter rl(1 << 20, /*burst=*/1 << 20);
  const Stopwatch sw;
  rl.Acquire(1 << 20);
  EXPECT_LT(sw.ElapsedSec(), 0.05);
}

TEST(RateLimiterTest, SetRateTakesEffect) {
  RateLimiter rl(1, /*burst=*/1);
  rl.Acquire(1);  // now deeply in debt at 1 B/s
  rl.set_rate(100 << 20);
  const Stopwatch sw;
  rl.Acquire(1 << 20);
  EXPECT_LT(sw.ElapsedSec(), 1.0);
  EXPECT_EQ(rl.rate(), 100ull << 20);
}

TEST(RateLimiterTest, SharedLinkSplitsBandwidthFairly) {
  // Two contenders on a 20 MB/s link, 1 MiB each in 64 KiB chunks: total
  // ~2 MiB should take ~100 ms, and both must finish (FIFO, no starvation).
  RateLimiter rl(20 << 20, /*burst=*/64 << 10);
  std::atomic<int> done{0};
  const Stopwatch sw;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 16; ++i) rl.Acquire(64 << 10);
        ++done;
      });
    }
  }
  EXPECT_EQ(done.load(), 2);
  EXPECT_GT(sw.ElapsedSec(), 0.06);
  EXPECT_LT(sw.ElapsedSec(), 1.0);
}

TEST(RateLimiterTest, EstimateDelayGrowsWithBacklog) {
  RateLimiter rl(1 << 20, /*burst=*/1);
  const auto d0 = rl.EstimateDelay(1 << 20);
  rl.Acquire(2 << 20);  // deep debt
  const auto d1 = rl.EstimateDelay(1 << 20);
  EXPECT_GT(d1, d0);
}

TEST(RateLimiterTest, EstimateDelayZeroWhenUnlimited) {
  RateLimiter rl(0);
  EXPECT_EQ(rl.EstimateDelay(1 << 30).count(), 0);
}

TEST(RateLimiterTest, ManyThreadsAllAdmitted) {
  RateLimiter rl(100 << 20, 64 << 10);
  std::atomic<std::uint64_t> total{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 50; ++i) {
          rl.Acquire(4 << 10);
          total += 4 << 10;
        }
      });
    }
  }
  EXPECT_EQ(total.load(), 8ull * 50 * (4 << 10));
  EXPECT_EQ(rl.admitted_bytes(), total.load());
}

TEST(RateLimiterTest, PerFlowAdmittedBytesAreAttributed) {
  RateLimiter rl(0);
  rl.Acquire(1 << 10, {.flow = 1});
  rl.Acquire(2 << 10, {.flow = 2, .weight = 0.5});
  rl.Acquire(4 << 10);  // default flow 0
  EXPECT_EQ(rl.admitted_bytes(1), 1u << 10);
  EXPECT_EQ(rl.admitted_bytes(2), 2u << 10);
  EXPECT_EQ(rl.admitted_bytes(0), 4u << 10);
  EXPECT_EQ(rl.admitted_bytes(99), 0u);
  EXPECT_EQ(rl.admitted_bytes(), 7u << 10);
}

TEST(RateLimiterTest, WeightedFlowsShareBandwidthProportionally) {
  // Flow 1 (weight 1.0) and flow 2 (weight 0.5) both saturate a 20 MB/s
  // link. SFQ tags give flow 1 twice the admission rate, so while both are
  // backlogged its admitted share must stay well above an even split but
  // the light flow must not starve. Two threads per flow keep each flow
  // backlogged while one of its threads is descheduled.
  RateLimiter rl(20 << 20, /*burst=*/64 << 10);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> heavy{0};
  std::atomic<std::uint64_t> light{0};
  const auto saturate = [&](const IoTag& tag, std::atomic<std::uint64_t>& n) {
    while (!stop.load(std::memory_order_relaxed)) {
      rl.Acquire(64 << 10, tag);
      n += 64 << 10;
    }
  };
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back(
          [&] { saturate({.flow = 1, .weight = 1.0}, heavy); });
      threads.emplace_back(
          [&] { saturate({.flow = 2, .weight = 0.5}, light); });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop = true;
  }
  EXPECT_GT(light.load(), 0u);
  // Expect ~2:1; accept anything clearly above parity to stay robust on a
  // loaded CI host.
  EXPECT_GT(static_cast<double>(heavy.load()),
            1.3 * static_cast<double>(light.load()));
  EXPECT_EQ(rl.admitted_bytes(1), heavy.load());
  EXPECT_EQ(rl.admitted_bytes(2), light.load());
}

TEST(RateLimiterTest, SingleFlowKeepsFifoAdmissionOrder) {
  // With one flow and one class the grants come out exactly in arrival
  // order. The debt holds every waiter until set_rate; each waiter starts
  // only once the previous one is queued; 1 MiB at 16 MiB/s spaces the
  // grants 62 ms apart, so each thread records its turn before the next.
  RateLimiter rl(1 << 10, /*burst=*/1);
  rl.Acquire(64 << 10);  // 64 s of debt at 1 KiB/s
  std::mutex order_mu;
  std::vector<int> order;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 6; ++t) {
      StartQueued(rl, threads, [&, t] {
        rl.Acquire(1 << 20);
        std::lock_guard lk(order_mu);
        order.push_back(t);
      });
    }
    rl.set_rate(16 << 20);
  }
  ASSERT_EQ(order.size(), 6u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()))
      << "admission reordered within a single flow";
}

TEST(RateLimiterTest, DemandOvertakesQueuedFlushWithinAFlow) {
  // Three flush requests queue first (the oldest already waits out the
  // debt at the head), then two demand requests of the same flow. Both
  // demands are admitted before every flush, and each class stays FIFO.
  RateLimiter rl(1 << 10, /*burst=*/1);
  rl.Acquire(64 << 10);  // 64 s of debt at 1 KiB/s
  const IoTag flush{.flow = 3, .io_class = IoClass::kFlush};
  const IoTag demand{.flow = 3, .io_class = IoClass::kDemand};
  std::mutex order_mu;
  std::vector<std::string> order;
  {
    std::vector<std::jthread> threads;
    const auto start = [&](const IoTag& tag, std::string name) {
      StartQueued(rl, threads, [&, tag, name] {
        rl.Acquire(1 << 20, tag);
        std::lock_guard lk(order_mu);
        order.push_back(name);
      });
    };
    start(flush, "f0");
    start(flush, "f1");
    start(flush, "f2");
    start(demand, "d0");
    start(demand, "d1");
    rl.set_rate(16 << 20);
  }
  const std::vector<std::string> expected{"d0", "d1", "f0", "f1", "f2"};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(rl.admitted_bytes(3), 5u << 20);
}

TEST(RateLimiterTest, ClassesDoNotBendWeightsAcrossFlows) {
  // Flow 1 (weight 1) sends only demand, flow 2 (weight 0.5) only flush.
  // Classes order requests inside a flow, never across flows, so SFQ still
  // splits the link 2:1. Two threads per flow keep each flow backlogged.
  RateLimiter rl(20 << 20, /*burst=*/64 << 10);
  const IoTag heavy_tag{.flow = 1, .weight = 1.0};
  const IoTag light_tag{.flow = 2, .weight = 0.5, .io_class = IoClass::kFlush};
  std::atomic<bool> stop{false};
  {
    std::vector<std::jthread> threads;
    for (const IoTag& tag : {heavy_tag, heavy_tag, light_tag, light_tag}) {
      threads.emplace_back([&rl, &stop, tag] {
        while (!stop.load(std::memory_order_relaxed)) rl.Acquire(64 << 10, tag);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    stop = true;
  }
  const auto heavy = static_cast<double>(rl.admitted_bytes(1));
  const auto light = static_cast<double>(rl.admitted_bytes(2));
  ASSERT_GT(light, 0.0);
  EXPECT_NEAR(heavy / light, 2.0, 0.3);
}

}  // namespace
}  // namespace ckpt::util
