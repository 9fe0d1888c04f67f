// Low-overhead structured event tracing (the paper's §5.3.5 evaluation is
// about *where time goes*; this is the sensor layer that makes one run's
// flush/prefetch overlap inspectable instead of inferable).
//
// Design:
//   * Per-thread fixed-capacity ring buffers of typed POD events. A writer
//     only touches its own buffer (one uncontended mutex acquisition per
//     event); when the ring is full the oldest events are overwritten and
//     counted as dropped, so tracing never blocks or allocates on the hot
//     path after buffer creation.
//   * A process-global registry keeps every buffer alive past thread exit,
//     so a dump after Engine::Shutdown still sees the worker events.
//   * Runtime gate: a single relaxed atomic load when tracing is off.
//   * Compile-out gate: building with -DCKPT_TRACE_DISABLED turns enabled()
//     into `constexpr false`, so every call site folds away entirely.
//
// The exporter side (Chrome trace-event JSON for Perfetto, metrics
// snapshots) lives in core/trace_sink; this layer is engine-agnostic.
//
// Configuration: Configure()/Enable()/Disable(), seeded from the
// environment on first use:
//   CKPT_TRACE          1|on|true enables tracing at process start
//   CKPT_TRACE_OUT      default output path for trace dumps
//   CKPT_TRACE_CAPACITY events per thread ring (default 8192, size suffixes
//                       accepted: "16k")
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ckpt::util::trace {

/// Event category. Exported as the Chrome trace `cat` field, so Perfetto
/// can filter one pipeline (all flush stages, all eviction rounds) at once.
enum class Kind : std::uint8_t {
  kLifecycle = 0,  ///< checkpoint FSM state dwells/transitions
  kFlush,          ///< flush pipeline stage copies and durable puts
  kPrefetch,       ///< prefetch promotions / hits / aborts
  kEviction,       ///< eviction planner rounds and re-plan waits
  kRetry,          ///< retry storms, tier degradations, lost checkpoints
  kApp,            ///< application-observed blocking (Checkpoint/Restore)
  kHealth,         ///< watchdog verdicts (stall detection, flight dumps)
};

[[nodiscard]] constexpr std::string_view to_string(Kind k) noexcept {
  switch (k) {
    case Kind::kLifecycle: return "lifecycle";
    case Kind::kFlush: return "flush";
    case Kind::kPrefetch: return "prefetch";
    case Kind::kEviction: return "eviction";
    case Kind::kRetry: return "retry";
    case Kind::kApp: return "app";
    case Kind::kHealth: return "health";
  }
  return "?";
}

/// Causal-flow phase of an event. kNone marks ordinary spans/instants;
/// the others render as Chrome flow events (ph "s"/"t"/"f") bound across
/// threads by Event::flow_id, so Perfetto draws arrows along one
/// checkpoint's lineage (put -> flush stages -> group seal -> remote put
/// -> durable / erased / lost).
enum class FlowPhase : std::uint8_t {
  kNone = 0,  ///< not a flow event
  kStart,     ///< flow begins (ph "s"): object admitted / group opened
  kStep,      ///< intermediate hop (ph "t")
  kEnd,       ///< flow terminates (ph "f"): exactly one per incarnation
};

/// One trace event. `name` must point at storage that outlives the registry:
/// a string literal or an Intern()ed string.
struct Event {
  std::int64_t ts_ns = 0;    ///< begin time, ns since trace epoch
  std::int64_t dur_ns = -1;  ///< span duration; < 0 marks an instant event
  const char* name = "";
  Kind kind = Kind::kApp;
  FlowPhase flow = FlowPhase::kNone;  ///< lineage phase (flow events only)
  std::int16_t rank = -1;    ///< emitting rank, -1 when rank-less
  std::int16_t tier = -1;    ///< stack tier index the event refers to
  std::uint64_t version = 0; ///< checkpoint version
  std::uint64_t bytes = 0;
  std::uint64_t flow_id = 0; ///< lineage binding id; 0 = not a flow event
  double a = 0.0;            ///< kind-specific (e.g. eviction p_score)
  double b = 0.0;            ///< kind-specific (e.g. eviction s_score)

  [[nodiscard]] bool is_span() const noexcept { return dur_ns >= 0; }
  [[nodiscard]] bool is_flow() const noexcept {
    return flow != FlowPhase::kNone && flow_id != 0;
  }
};

#ifdef CKPT_TRACE_DISABLED
[[nodiscard]] constexpr bool enabled() noexcept { return false; }
#else
namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail
/// True when tracing is recording. One relaxed load; safe from any thread.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
#endif

/// Applies a full configuration (config-file keys override the environment
/// seed). `capacity` of 0 keeps the current per-thread ring capacity.
void Configure(bool on, std::size_t capacity, std::string out_path);
/// Turns recording on (capacity 0 = keep current).
void Enable(std::size_t capacity = 0);
void Disable();

/// Default dump path (CKPT_TRACE_OUT / `trace_out`); empty when unset.
[[nodiscard]] std::string out_path();
/// Per-thread ring capacity new buffers are created with.
[[nodiscard]] std::size_t capacity();

/// Nanoseconds since the trace epoch (process start). Monotonic.
[[nodiscard]] std::int64_t Now() noexcept;

/// Interns `name` in a process-lifetime pool and returns a stable pointer,
/// for event names composed at runtime ("flush:gpu"). Bounded use only —
/// entries are never freed.
[[nodiscard]] const char* Intern(std::string_view name);

/// Labels the calling thread's track ("r0/flush:gpu"). Applies to the
/// thread's current ring buffer and any it registers later.
void SetThreadName(std::string_view name);

namespace detail {
void EmitEvent(const Event& e);
}  // namespace detail

/// Records an instant event (Chrome `ph:"i"`).
inline void Instant(Kind kind, const char* name, int rank, int tier = -1,
                    std::uint64_t version = 0, std::uint64_t bytes = 0,
                    double a = 0.0, double b = 0.0) {
  if (!enabled()) return;
  detail::EmitEvent(Event{.ts_ns = Now(), .name = name, .kind = kind,
                          .rank = static_cast<std::int16_t>(rank),
                          .tier = static_cast<std::int16_t>(tier),
                          .version = version, .bytes = bytes, .a = a, .b = b});
}

/// Records a complete span (Chrome `ph:"X"`) that began at `begin_ns`
/// (a prior Now() reading) and ends now.
inline void SpanSince(Kind kind, const char* name, std::int64_t begin_ns,
                      int rank, int tier = -1, std::uint64_t version = 0,
                      std::uint64_t bytes = 0, double a = 0.0, double b = 0.0) {
  if (!enabled()) return;
  const std::int64_t now = Now();
  detail::EmitEvent(Event{.ts_ns = begin_ns,
                          .dur_ns = now > begin_ns ? now - begin_ns : 0,
                          .name = name, .kind = kind,
                          .rank = static_cast<std::int16_t>(rank),
                          .tier = static_cast<std::int16_t>(tier),
                          .version = version, .bytes = bytes, .a = a, .b = b});
}

/// Records a causal-flow event (Chrome ph "s"/"t"/"f" keyed by `flow_id`).
/// Flow events are recorded whenever tracing is.
inline void Flow(Kind kind, const char* name, std::uint64_t flow_id,
                 FlowPhase phase, int rank, int tier = -1,
                 std::uint64_t version = 0, std::uint64_t bytes = 0) {
  if (!enabled() || flow_id == 0 || phase == FlowPhase::kNone) return;
  detail::EmitEvent(Event{.ts_ns = Now(), .name = name, .kind = kind,
                          .flow = phase,
                          .rank = static_cast<std::int16_t>(rank),
                          .tier = static_cast<std::int16_t>(tier),
                          .version = version, .bytes = bytes,
                          .flow_id = flow_id});
}

/// RAII span: captures the begin time at construction, emits on destruction.
/// When tracing is disabled (or compiled out) construction is a no-op.
class Span {
 public:
  Span(Kind kind, const char* name, int rank, int tier = -1,
       std::uint64_t version = 0, std::uint64_t bytes = 0) {
    if (!enabled()) return;
    armed_ = true;
    begin_ns_ = Now();
    kind_ = kind;
    name_ = name;
    rank_ = rank;
    tier_ = tier;
    version_ = version;
    bytes_ = bytes;
  }
  ~Span() {
    if (armed_) {
      SpanSince(kind_, name_, begin_ns_, rank_, tier_, version_, bytes_, a_, b_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Updates the kind-specific args before the span closes.
  void SetArgs(double a, double b) noexcept { a_ = a; b_ = b; }
  void SetBytes(std::uint64_t bytes) noexcept { bytes_ = bytes; }
  void SetTier(int tier) noexcept { tier_ = tier; }
  /// Drops the span without emitting (e.g. an aborted operation that
  /// already emitted its own instant event).
  void Cancel() noexcept { armed_ = false; }

 private:
  bool armed_ = false;
  std::int64_t begin_ns_ = 0;
  Kind kind_ = Kind::kApp;
  const char* name_ = "";
  int rank_ = -1;
  int tier_ = -1;
  std::uint64_t version_ = 0;
  std::uint64_t bytes_ = 0;
  double a_ = 0.0;
  double b_ = 0.0;
};

/// Snapshot of every registered ring buffer, oldest event first per thread.
struct ThreadEvents {
  std::uint64_t buffer_id = 0;     ///< stable per-buffer id (Chrome tid)
  std::string thread_name;         ///< label from SetThreadName (or default)
  std::uint64_t dropped = 0;       ///< events overwritten by ring wrap
  std::vector<Event> events;
};
struct TraceSnapshot {
  std::vector<ThreadEvents> threads;
  [[nodiscard]] std::size_t total_events() const {
    std::size_t n = 0;
    for (const auto& t : threads) n += t.events.size();
    return n;
  }
  [[nodiscard]] std::uint64_t total_dropped() const {
    std::uint64_t n = 0;
    for (const auto& t : threads) n += t.dropped;
    return n;
  }
};

/// Copies every live buffer. Safe while writers are running (per-buffer
/// mutex); events recorded concurrently with the collection may or may not
/// be included. Buffers that hold no events are omitted.
[[nodiscard]] TraceSnapshot Collect();

/// Clears every registered buffer in place (events and drop counts), and
/// prunes buffers whose writer thread has exited. Live threads keep their
/// buffer registered, so an event emitted concurrently with the reset lands
/// either before the clear (discarded) or after it (kept) — never in an
/// orphaned buffer invisible to later Collect() calls. Does not change the
/// enabled flag. Intended for tests and for separating back-to-back runs in
/// one process.
void ResetBuffers();

}  // namespace ckpt::util::trace
