#include "util/trace.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>

#include "util/clock.hpp"

namespace ckpt::util::trace {

namespace {

constexpr std::size_t kDefaultCapacity = 8192;
constexpr std::size_t kMinCapacity = 64;

/// One thread's ring buffer. Lives in the registry as a shared_ptr so the
/// events survive the writer thread's exit; the writer holds a second
/// reference through its thread_local slot. A thread keeps its buffer for
/// its whole lifetime — ResetBuffers() clears contents in place instead of
/// dropping registrations, so a writer can never race into a buffer the
/// registry no longer knows about.
struct TraceBuffer {
  explicit TraceBuffer(std::uint64_t id_, std::size_t cap, std::string name)
      : id(id_), thread_name(std::move(name)) {
    ring.resize(std::max(cap, kMinCapacity));
  }

  void Push(const Event& e) {
    std::lock_guard lk(mu);
    const std::size_t cap = ring.size();
    if (count < cap) {
      ring[(start + count) % cap] = e;
      ++count;
    } else {
      ring[start] = e;
      start = (start + 1) % cap;
      ++dropped;
    }
  }

  /// Clears events and drop accounting; keeps the registration and name.
  void Clear() {
    std::lock_guard lk(mu);
    start = 0;
    count = 0;
    dropped = 0;
  }

  /// Rebuilds the ring at `cap` slots, keeping the newest events that fit.
  void Resize(std::size_t cap) {
    std::lock_guard lk(mu);
    cap = std::max(cap, kMinCapacity);
    if (cap == ring.size()) return;
    std::vector<Event> fresh(cap);
    const std::size_t keep = std::min(count, cap);
    for (std::size_t i = 0; i < keep; ++i) {
      fresh[i] = ring[(start + (count - keep) + i) % ring.size()];
    }
    dropped += count - keep;
    ring.swap(fresh);
    start = 0;
    count = keep;
  }

  const std::uint64_t id;
  std::mutex mu;  // leaf lock: nothing is acquired while it is held
  std::string thread_name;        // guarded by mu
  std::vector<Event> ring;        // guarded by mu
  std::size_t start = 0;          // index of oldest event; guarded by mu
  std::size_t count = 0;          // live events; guarded by mu
  std::uint64_t dropped = 0;      // events overwritten/discarded; guarded by mu
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  std::uint64_t next_id = 1;
  std::size_t capacity = kDefaultCapacity;
  std::string out_path;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: usable during static dtors
  return *r;
}

/// String intern pool. Node-based container: pointers into elements stay
/// valid forever.
struct InternPool {
  std::mutex mu;
  std::deque<std::string> storage;
  std::unordered_set<std::string_view> index;
};

InternPool& intern_pool() {
  static InternPool* p = new InternPool;
  return *p;
}

bool EnvTruthy(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return false;
  std::string s(v);
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s == "1" || s == "on" || s == "true" || s == "yes";
}

std::size_t ParseCapacity(const char* v) {
  if (v == nullptr || *v == '\0') return 0;
  char* end = nullptr;
  const double base = std::strtod(v, &end);
  if (end == v || base <= 0) return 0;
  double mult = 1.0;
  switch (std::tolower(static_cast<unsigned char>(*end))) {
    case 'k': mult = 1024.0; break;
    case 'm': mult = 1024.0 * 1024.0; break;
    default: break;
  }
  return static_cast<std::size_t>(base * mult);
}

/// Seeds the registry configuration from CKPT_TRACE* exactly once.
void EnvSeedOnce() {
  static const bool seeded = [] {
    auto& r = registry();
    std::lock_guard lk(r.mu);
    if (const char* out = std::getenv("CKPT_TRACE_OUT")) r.out_path = out;
    if (const std::size_t cap = ParseCapacity(std::getenv("CKPT_TRACE_CAPACITY"));
        cap > 0) {
      r.capacity = cap;
    }
#ifndef CKPT_TRACE_DISABLED
    if (EnvTruthy("CKPT_TRACE")) {
      detail::g_enabled.store(true, std::memory_order_relaxed);
    }
#endif
    return true;
  }();
  (void)seeded;
}

/// The enabled() fast path reads only the atomic flag, so the environment
/// seed must be applied before the first emission attempt — do it at static
/// initialization (idempotent with the lazy calls).
[[maybe_unused]] const bool g_env_seeded_at_startup = (EnvSeedOnce(), true);

/// Per-thread slot: a reference to this thread's buffer. The reference is
/// permanent once registered — ResetBuffers() clears contents rather than
/// invalidating registrations, so there is no re-registration epoch to
/// race against.
struct ThreadSlot {
  std::shared_ptr<TraceBuffer> buffer;
  std::string name;  // sticky label, applied at registration
};

ThreadSlot& thread_slot() {
  thread_local ThreadSlot slot;
  return slot;
}

TraceBuffer& CurrentBuffer() {
  EnvSeedOnce();
  ThreadSlot& slot = thread_slot();
  // Fast path without the registry lock: the slot's buffer stays registered
  // for the thread's lifetime, so the reference can never be stale.
  if (slot.buffer != nullptr) return *slot.buffer;
  auto& r = registry();
  std::lock_guard lk(r.mu);
  const std::uint64_t id = r.next_id++;
  auto buf = std::make_shared<TraceBuffer>(
      id, r.capacity,
      slot.name.empty() ? "thread-" + std::to_string(id) : slot.name);
  r.buffers.push_back(buf);
  slot.buffer = std::move(buf);
  return *slot.buffer;
}

}  // namespace

#ifndef CKPT_TRACE_DISABLED
namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail
#endif

namespace {

/// Applies a new per-thread ring capacity to future and already-registered
/// buffers (registrations are permanent, so a capacity change must reach
/// live rings in place).
void SetCapacity(std::size_t cap) {
  auto& r = registry();
  std::lock_guard lk(r.mu);
  r.capacity = cap;
  for (const auto& b : r.buffers) b->Resize(cap);
}

}  // namespace

void Configure(bool on, std::size_t cap, std::string out) {
  EnvSeedOnce();
  auto& r = registry();
  if (cap > 0) SetCapacity(cap);
  if (!out.empty()) {
    std::lock_guard lk(r.mu);
    r.out_path = std::move(out);
  }
#ifndef CKPT_TRACE_DISABLED
  detail::g_enabled.store(on, std::memory_order_relaxed);
#else
  (void)on;
#endif
}

void Enable(std::size_t cap) {
  EnvSeedOnce();
  if (cap > 0) SetCapacity(cap);
#ifndef CKPT_TRACE_DISABLED
  detail::g_enabled.store(true, std::memory_order_relaxed);
#endif
}

void Disable() {
#ifndef CKPT_TRACE_DISABLED
  detail::g_enabled.store(false, std::memory_order_relaxed);
#endif
}

std::string out_path() {
  EnvSeedOnce();
  auto& r = registry();
  std::lock_guard lk(r.mu);
  return r.out_path;
}

std::size_t capacity() {
  EnvSeedOnce();
  auto& r = registry();
  std::lock_guard lk(r.mu);
  return r.capacity;
}

std::int64_t Now() noexcept {
  // Shared epoch with util::NowNs() so trace timestamps line up with the
  // logging prefix and metrics stopwatches.
  return NowNs();
}

const char* Intern(std::string_view name) {
  auto& p = intern_pool();
  std::lock_guard lk(p.mu);
  if (auto it = p.index.find(name); it != p.index.end()) return it->data();
  p.storage.emplace_back(name);
  auto [it, inserted] = p.index.insert(std::string_view(p.storage.back()));
  (void)inserted;
  return it->data();
}

void SetThreadName(std::string_view name) {
  ThreadSlot& slot = thread_slot();
  slot.name.assign(name);
  if (slot.buffer != nullptr) {
    std::lock_guard lk(slot.buffer->mu);
    slot.buffer->thread_name = slot.name;
  }
}

namespace detail {
void EmitEvent(const Event& e) { CurrentBuffer().Push(e); }
}  // namespace detail

TraceSnapshot Collect() {
  EnvSeedOnce();
  std::vector<std::shared_ptr<TraceBuffer>> bufs;
  {
    auto& r = registry();
    std::lock_guard lk(r.mu);
    bufs = r.buffers;
  }
  TraceSnapshot snap;
  snap.threads.reserve(bufs.size());
  for (const auto& b : bufs) {
    ThreadEvents te;
    std::lock_guard lk(b->mu);
    if (b->count == 0) continue;  // e.g. cleared by ResetBuffers, or idle
    te.buffer_id = b->id;
    te.thread_name = b->thread_name;
    te.dropped = b->dropped;
    te.events.reserve(b->count);
    // Oldest surviving event first.
    for (std::size_t i = 0; i < b->count; ++i) {
      te.events.push_back(b->ring[(b->start + i) % b->ring.size()]);
    }
    snap.threads.push_back(std::move(te));
  }
  return snap;
}

void ResetBuffers() {
  auto& r = registry();
  std::lock_guard lk(r.mu);
  for (const auto& b : r.buffers) b->Clear();
  // Prune buffers whose writer thread has exited (the registry holds the
  // only remaining reference); live threads keep their registration so
  // concurrent emission stays collectable.
  std::erase_if(r.buffers, [](const std::shared_ptr<TraceBuffer>& b) {
    return b.use_count() == 1;
  });
}

}  // namespace ckpt::util::trace
