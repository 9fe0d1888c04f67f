// Unit tests for the live-telemetry substrate: the lock-free SampleRing
// (publication, wrap, window consistency), the fixed-edge durability-lag
// histogram, and the process-global sampler settings (Configure
// precedence, keep-current semantics, compile-out gate).
#include "util/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace ckpt::util::telemetry {
namespace {

// Settings tests run against the process-global configuration; the fixture
// restores a disabled default so suite order never matters.
class TelemetrySettingsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Settings off;
    off.enabled = false;
    Configure(off);
  }
};

SamplePtr Make(std::uint64_t seq, std::int64_t ts_ns = 0) {
  auto s = std::make_shared<TelemetrySample>();
  s->seq = seq;
  s->ts_ns = ts_ns;
  return s;
}

TEST(SampleRingTest, EmptyRingHasNoLatest) {
  SampleRing ring(4);
  EXPECT_EQ(ring.Latest(), nullptr);
  EXPECT_TRUE(ring.Window().empty());
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_EQ(ring.capacity(), 4u);
}

TEST(SampleRingTest, ZeroCapacityClampsToOne) {
  SampleRing ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.Push(Make(0));
  ring.Push(Make(1));
  ASSERT_NE(ring.Latest(), nullptr);
  EXPECT_EQ(ring.Latest()->seq, 1u);
  EXPECT_EQ(ring.Window().size(), 1u);
}

TEST(SampleRingTest, LatestTracksNewestPush) {
  SampleRing ring(4);
  for (std::uint64_t i = 0; i < 3; ++i) {
    ring.Push(Make(i));
    ASSERT_NE(ring.Latest(), nullptr);
    EXPECT_EQ(ring.Latest()->seq, i);
  }
  EXPECT_EQ(ring.total(), 3u);
}

TEST(SampleRingTest, WindowIsOldestFirstAndAscending) {
  SampleRing ring(8);
  for (std::uint64_t i = 0; i < 5; ++i) ring.Push(Make(i));
  const std::vector<SamplePtr> w = ring.Window();
  ASSERT_EQ(w.size(), 5u);
  for (std::uint64_t i = 0; i < w.size(); ++i) EXPECT_EQ(w[i]->seq, i);
}

TEST(SampleRingTest, WrapKeepsTheNewestCapacitySamples) {
  SampleRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) ring.Push(Make(i));
  EXPECT_EQ(ring.total(), 10u);
  ASSERT_NE(ring.Latest(), nullptr);
  EXPECT_EQ(ring.Latest()->seq, 9u);
  const std::vector<SamplePtr> w = ring.Window();
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.front()->seq, 6u);
  EXPECT_EQ(w.back()->seq, 9u);
}

// Readers racing the writer must always observe complete samples forming an
// ascending-seq window — never a torn sample or a duplicate.
//
// Skipped under TSan: libstdc++ 12's std::atomic<std::shared_ptr> unlocks
// its reader-side lock bit with memory_order_relaxed
// (_Sp_atomic::load -> _Atomic_count::unlock(relaxed)), so TSan sees no
// happens-before edge from a reader's pointer read to the next writer's
// swap and reports the library's own internals. The ring's use of the
// primitive is standard C++20; nothing here can fix the library's ordering.
TEST(SampleRingTest, ConcurrentReadersSeeConsistentWindows) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "libstdc++ atomic<shared_ptr> internals are not TSan-clean";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "libstdc++ atomic<shared_ptr> internals are not TSan-clean";
#endif
#endif
  SampleRing ring(8);
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&ring, &stop, &failed] {
      while (!stop.load(std::memory_order_relaxed)) {
        // Invariants under concurrent publication: every entry complete
        // (non-null), strictly ascending seq, never more than capacity.
        // Cross-snapshot comparisons (e.g. against a separate Latest()
        // call) are deliberately NOT checked: a writer lapping the ring
        // between the two reads can legitimately reorder them.
        const std::vector<SamplePtr> w = ring.Window();
        if (w.size() > ring.capacity()) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        for (std::size_t i = 0; i < w.size(); ++i) {
          if (w[i] == nullptr ||
              (i > 0 && w[i]->seq <= w[i - 1]->seq)) {
            failed.store(true, std::memory_order_relaxed);
            return;
          }
        }
        // total() first: once it reads > 0, a later Latest() must see a
        // published head and can never return null.
        const std::uint64_t tot = ring.total();
        if (tot > 0 && ring.Latest() == nullptr) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::uint64_t i = 0; i < 20000; ++i) ring.Push(Make(i));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
}

TEST_F(TelemetrySettingsTest, DefaultsMatchHeaderDocumentation) {
  const Settings s = settings();
  EXPECT_EQ(s.period_ms, 100);
  EXPECT_EQ(s.window, 128u);
  EXPECT_TRUE(s.watchdog);
  EXPECT_EQ(s.stall_ms, 2000);
  EXPECT_EQ(s.stall_windows, 3);
  EXPECT_FALSE(s.strict);
}

TEST_F(TelemetrySettingsTest, ConfigureAppliesAndZeroKeepsCurrent) {
  Settings s;
  s.enabled = true;
  s.period_ms = 25;
  s.window = 32;
  s.out_path = "/tmp/telemetry-test-prefix";
  s.stall_ms = 500;
  s.stall_windows = 5;
  s.strict = true;
  Configure(s);
  Settings got = settings();
  EXPECT_EQ(got.period_ms, 25);
  EXPECT_EQ(got.window, 32u);
  EXPECT_EQ(got.out_path, "/tmp/telemetry-test-prefix");
  EXPECT_EQ(got.stall_ms, 500);
  EXPECT_EQ(got.stall_windows, 5);
  EXPECT_TRUE(got.strict);

  // Zero numeric knobs / empty path keep the current values.
  Settings keep;
  keep.enabled = false;
  keep.period_ms = 0;
  keep.window = 0;
  keep.stall_ms = 0;
  keep.stall_windows = 0;
  Configure(keep);
  got = settings();
  EXPECT_EQ(got.period_ms, 25);
  EXPECT_EQ(got.window, 32u);
  EXPECT_EQ(got.out_path, "/tmp/telemetry-test-prefix");
  EXPECT_EQ(got.stall_ms, 500);
  EXPECT_EQ(got.stall_windows, 5);
  EXPECT_FALSE(got.strict);
  EXPECT_FALSE(got.enabled);
}

TEST_F(TelemetrySettingsTest, EnabledFollowsConfigure) {
  Settings s;
  s.enabled = true;
  Configure(s);
  EXPECT_TRUE(enabled());
  EXPECT_TRUE(settings().enabled);
  s.enabled = false;
  Configure(s);
  EXPECT_FALSE(enabled());
}

TEST_F(TelemetrySettingsTest, ConvenienceAccessorsMatchSettings) {
  Settings s;
  s.enabled = false;
  s.period_ms = 7;
  s.window = 9;
  s.out_path = "/tmp/other-prefix";
  Configure(s);
  EXPECT_EQ(period_ms(), 7);
  EXPECT_EQ(window(), 9u);
  EXPECT_EQ(out_path(), "/tmp/other-prefix");
}

}  // namespace
}  // namespace ckpt::util::telemetry
