#include "core/telemetry_sampler.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <utility>

#include "core/telemetry_sink.hpp"
#include "core/trace_sink.hpp"
#include "util/file_io.hpp"
#include "util/trace.hpp"

namespace ckpt::core {

namespace {

using util::telemetry::SamplePtr;
using util::telemetry::TelemetrySample;

/// FSM states the dwell detector treats as "work pending": a record parked
/// in one of these has an owner (app thread, flush stage, prefetcher) that
/// is supposed to move it along. FLUSHED/READ_COMPLETE/CONSUMED are stable
/// resting states and FLUSH_FAILED is terminal.
[[nodiscard]] std::uint64_t PendingOccupancy(
    const std::vector<std::uint64_t>& occ) {
  constexpr std::size_t kPending[] = {
      static_cast<std::size_t>(CkptState::kInit),
      static_cast<std::size_t>(CkptState::kWriteInProgress),
      static_cast<std::size_t>(CkptState::kWriteComplete),
      static_cast<std::size_t>(CkptState::kReadInProgress),
  };
  std::uint64_t n = 0;
  for (std::size_t i : kPending) {
    if (i < occ.size()) n += occ[i];
  }
  return n;
}

void WarnIfFailed(const util::Status& st) {
  if (!st.ok()) {
    std::fprintf(stderr, "telemetry: flight dump: %s\n", st.ToString().c_str());
  }
}

}  // namespace

TelemetrySampler::Options TelemetrySampler::Options::FromGlobalConfig() {
  const util::telemetry::Settings s = util::telemetry::settings();
  Options o;
  o.period_ms = s.period_ms;
  o.window = s.window;
  o.watchdog = s.watchdog;
  o.stall_ms = s.stall_ms;
  o.stall_windows = s.stall_windows;
  o.strict = s.strict;
  o.out_path = s.out_path;
  return o;
}

TelemetrySampler::TelemetrySampler(Engine& engine, Options opts)
    : engine_(engine),
      opts_(std::move(opts)),
      tier_names_(TelemetryTierNames(engine)),
      ring_(opts_.window) {
  watch_.resize(static_cast<std::size_t>(engine_.num_ranks()));
  if (opts_.period_ms <= 0) opts_.period_ms = 100;
  if (opts_.stall_windows <= 0) opts_.stall_windows = 1;
  if (opts_.start_thread) {
    thread_ = std::jthread([this](std::stop_token st) {
      util::trace::SetThreadName("telemetry");
      std::mutex m;
      std::condition_variable_any cv;
      const auto period = std::chrono::milliseconds(opts_.period_ms);
      while (!st.stop_requested()) {
        Tick();
        std::unique_lock lk(m);
        // Interruptible sleep: wakes immediately on request_stop().
        cv.wait_for(lk, st, period, [] { return false; });
      }
    });
  }
}

TelemetrySampler::~TelemetrySampler() { Stop(); }

void TelemetrySampler::Stop() {
  if (thread_.joinable()) {
    thread_.request_stop();
    thread_.join();
    // Close the window with an end-of-run sample (also the scrape target
    // for post-run exposition).
    Tick();
  }
}

void TelemetrySampler::SampleNow() { Tick(); }

std::string TelemetrySampler::ScrapeOpenMetrics() {
  SamplePtr s = ring_.Latest();
  if (s == nullptr) {
    Tick();
    s = ring_.Latest();
  }
  return OpenMetricsText(*s, tier_names_);
}

void TelemetrySampler::Tick() {
  std::lock_guard lk(tick_mu_);
  SamplePtr s = BuildTelemetrySample(engine_, seq_++);
  ring_.Push(s);
  if (opts_.watchdog) RunWatchdog(*s);
}

void TelemetrySampler::RunWatchdog(const TelemetrySample& cur) {
  const std::int64_t stall_ns = opts_.stall_ms * 1'000'000;
  for (const util::telemetry::RankSample& rs : cur.ranks) {
    if (rs.rank < 0 || static_cast<std::size_t>(rs.rank) >= watch_.size()) {
      continue;
    }
    RankWatch& w = watch_[static_cast<std::size_t>(rs.rank)];

    // (a) FSM dwell: pending records exist and no transition since the
    // stamp was first observed. The comparison uses sample timestamps, so
    // the probe's transition-clock domain never matters — only whether the
    // stamp moved between samples.
    const std::uint64_t pending = PendingOccupancy(rs.state_occupancy);
    if (pending == 0 || !w.dwell_valid ||
        rs.last_transition_ns != w.dwell_stamp) {
      w.dwell_valid = true;
      w.dwell_stamp = rs.last_transition_ns;
      w.dwell_since_ts = cur.ts_ns;
      w.fsm_latched = false;
    } else if (!w.fsm_latched && cur.ts_ns - w.dwell_since_ts > stall_ns) {
      w.fsm_latched = true;
      Trip(rs.rank, -1, Engine::StallKind::kFsmDwell, cur);
    }

    // (b) flush no-progress: queue depth > 0, landed bytes frozen for K
    // consecutive samples AND stall_ms of wall time. Both bounds matter:
    // the streak proves the condition held across real samples, while the
    // duration keeps the horizon period-independent — at a fast sampling
    // period, K samples alone would flag any put slower than K periods
    // (a legitimately slow throttled store, a briefly descheduled worker)
    // as a stall.
    w.tiers.resize(rs.tiers.size());
    for (std::size_t i = 0; i < rs.tiers.size(); ++i) {
      TierWatch& tw = w.tiers[i];
      const bool stuck = tw.inited && rs.tiers[i].flush_queue_depth > 0 &&
                         rs.tiers[i].flush_bytes == tw.last_flush_bytes;
      if (stuck) {
        if (tw.streak == 0) tw.freeze_since_ts = cur.ts_ns;
        ++tw.streak;
        if (!tw.latched && tw.streak >= opts_.stall_windows &&
            cur.ts_ns - tw.freeze_since_ts >= stall_ns) {
          tw.latched = true;
          Trip(rs.rank, static_cast<int>(i),
               Engine::StallKind::kFlushNoProgress, cur);
        }
      } else {
        tw.streak = 0;
        tw.latched = false;
      }
      tw.last_flush_bytes = rs.tiers[i].flush_bytes;
      tw.inited = true;
    }

    // (c) reserve livelock: stale-plan counter rising window over window
    // means reservations keep re-planning without committing. Same dual
    // bound as (b): heavy-but-healthy churn can produce a stale replan in
    // every short window, so the run must also persist for stall_ms.
    const bool rising =
        w.stale_inited && rs.reserve_plans_stale > w.last_plans_stale;
    if (rising) {
      if (w.stale_streak == 0) w.stale_since_ts = cur.ts_ns;
      ++w.stale_streak;
      if (!w.reserve_latched && w.stale_streak >= opts_.stall_windows &&
          cur.ts_ns - w.stale_since_ts >= stall_ns) {
        w.reserve_latched = true;
        Trip(rs.rank, -1, Engine::StallKind::kReserveLivelock, cur);
      }
    } else {
      w.stale_streak = 0;
      w.reserve_latched = false;
    }
    w.last_plans_stale = rs.reserve_plans_stale;
    w.stale_inited = true;
  }
}

void TelemetrySampler::Trip(int rank, int tier, Engine::StallKind kind,
                            const TelemetrySample& cur) {
  stalls_.fetch_add(1, std::memory_order_relaxed);
  // Emitted from the sampler thread: the sink orders each track by
  // timestamp, so a cross-thread instant stays a valid trace.
  util::trace::Instant(util::trace::Kind::kHealth, "health:stall", rank, tier,
                       /*version=*/0, /*bytes=*/0,
                       static_cast<double>(kind),
                       static_cast<double>(cur.seq));
  if (opts_.strict) strict_tripped_.store(true, std::memory_order_relaxed);
  engine_.NoteStall(rank, kind);
  if (!opts_.out_path.empty() && !flight_dumped_.exchange(true)) {
    FlightDump();
  }
}

void TelemetrySampler::FlightDump() {
  const std::string& p = opts_.out_path;
  // Lock-free artifacts first: if the engine is wedged badly enough that
  // even its rank locks are stuck, the trace + window still land on disk
  // before the metrics snapshot (which takes each rank lock) can block.
  WarnIfFailed(WriteChromeTrace(p + ".trace.json"));
  WarnIfFailed(util::WriteFile(p + ".window.json",
                               TelemetryWindowJson(ring_, tier_names_)));
  // Probe a fresh scrape (not ring_.Latest()): the ring's newest sample
  // predates the trip, so it would miss the stall counter the trip just
  // charged via NoteStall.
  WarnIfFailed(util::WriteFile(p + ".openmetrics.txt", OpenMetricsText(engine_)));
  WarnIfFailed(WriteMetricsSnapshot(engine_, p + ".metrics.json"));
}

}  // namespace ckpt::core
