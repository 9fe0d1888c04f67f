// Token-bucket rate limiter used to model every bandwidth-limited resource in
// the simulated node: NVLink/D2D engines, shared PCIe Gen4 links, NVMe
// drives, the parallel file system uplink, and pinned-memory registration.
//
// The limiter uses a debt model with weighted fair admission: acquire(n)
// waits until (a) it is the next request to admit and (b) the bucket is
// non-negative, then subtracts n (the bucket may go negative, which delays
// the *next* waiter). Every request carries an IoTag: its flow (tenant), the
// flow's weight and its class. Across flows, admission follows start-time
// fair queuing (SFQ): a flow's next grant is tagged start = max(vclock,
// flow_finish[flow]) and finish = start + n/weight, and the flow with the
// smallest start tag goes next, so concurrent flows share bandwidth in
// proportion to their weights. Inside a flow, waiting kDemand requests go
// before kFlush requests, FIFO within each class. The choice is made when
// the link frees, so a demand request that arrives while a flush request
// waits out the debt still goes first. With a single flow and class (every
// untagged caller), admission is exact FIFO, preserving the serialization
// observed on a shared physical link: two GPUs sharing a PCIe link each see
// roughly half the bandwidth under contention, full bandwidth alone —
// exactly the DGX-A100 behaviour the paper describes.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>

namespace ckpt::util {

/// What a charge moves. kDemand: bytes an application call or the prefetch
/// pipeline moves toward the application. kFlush: flush-stage copies and
/// durable puts, which nothing waits on but durability.
enum class IoClass : std::uint8_t { kDemand = 0, kFlush = 1 };

/// Who pays for a charge: the fair-queuing flow (the tenant id), its
/// bandwidth weight and the class. The default is flow 0, weight 1, demand.
struct IoTag {
  int flow = 0;
  double weight = 1.0;
  IoClass io_class = IoClass::kDemand;
};

/// The calling thread's tag: the one its innermost live ScopedIoTag
/// installed, else the default IoTag{}. Thread-local; takes no lock.
[[nodiscard]] IoTag CurrentIoTag() noexcept;

/// Installs `tag` as the calling thread's tag for the object's lifetime and
/// restores the previous tag on destruction.
class ScopedIoTag {
 public:
  explicit ScopedIoTag(const IoTag& tag) noexcept;
  ~ScopedIoTag();

  ScopedIoTag(const ScopedIoTag&) = delete;
  ScopedIoTag& operator=(const ScopedIoTag&) = delete;

 private:
  IoTag prev_;
};

class RateLimiter {
 public:
  /// `bytes_per_sec == 0` means unlimited (acquire returns immediately).
  /// `burst_bytes` caps idle accumulation. The bucket starts *empty*: the
  /// debt model admits the first request instantly and shapes everything
  /// after it, which models a link accurately from the first byte.
  explicit RateLimiter(std::uint64_t bytes_per_sec,
                       std::uint64_t burst_bytes = 1ull << 16);

  RateLimiter(const RateLimiter&) = delete;
  RateLimiter& operator=(const RateLimiter&) = delete;

  /// Blocks until `n` bytes worth of tokens have been admitted on behalf of
  /// `tag`; the default tag reproduces plain FIFO admission.
  void Acquire(std::uint64_t n, const IoTag& tag = {});

  /// Dynamically retune the rate (e.g. ablations on link speed).
  void set_rate(std::uint64_t bytes_per_sec);
  [[nodiscard]] std::uint64_t rate() const;

  /// Total bytes admitted since construction (telemetry).
  [[nodiscard]] std::uint64_t admitted_bytes() const;

  /// Bytes admitted on behalf of `flow` (per-tenant telemetry).
  [[nodiscard]] std::uint64_t admitted_bytes(int flow) const;

  /// Estimated time for `n` further bytes to be admitted, given the current
  /// debt and queued bytes. The engine does not call it (its eviction ETA
  /// divides by the tier's drain bandwidth); tests use it to see a waiter
  /// queue.
  [[nodiscard]] std::chrono::nanoseconds EstimateDelay(std::uint64_t n) const;

 private:
  using Clock = std::chrono::steady_clock;

  /// One blocked Acquire; lives on the waiting thread's stack.
  struct Waiter {
    std::uint64_t n;
    double weight;
    std::uint64_t ticket;  // arrival order: breaks equal start tags
    int flow;
    IoClass io_class;
    Waiter* next = nullptr;
  };

  /// A flow's SFQ tags and its waiters, one FIFO list per class.
  struct FlowQueue {
    double finish = 0.0;  // finish tag of the flow's last grant
    double start = 0.0;   // start tag of its next grant, while backlogged
    Waiter* head[2] = {nullptr, nullptr};
    Waiter* tail[2] = {nullptr, nullptr};
    /// The waiter the flow admits next: its oldest demand, else its oldest
    /// flush request; nullptr when the flow is idle.
    [[nodiscard]] Waiter* Next() const {
      return head[0] != nullptr ? head[0] : head[1];
    }
  };

  // Refills tokens_ from elapsed time. Caller holds mu_.
  void Refill(Clock::time_point now);
  // Nanoseconds until tokens_ reaches >= 0 at the current rate. Caller holds mu_.
  [[nodiscard]] std::chrono::nanoseconds TimeToSolvency() const;
  // Queues `w` on its flow and re-picks the head. Caller holds mu_.
  void Enqueue(Waiter& w);
  // Points head_ at the next waiter to admit. Caller holds mu_.
  void PickHead();
  // Admits head_, which the caller owns. Caller holds mu_.
  void Grant();
  // Adds `n` admitted bytes to the totals. Caller holds mu_.
  void Count(std::uint64_t n, int flow);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t rate_;         // bytes per second; 0 = unlimited
  std::uint64_t burst_;        // max positive tokens
  double tokens_;              // may be negative (debt)
  Clock::time_point last_refill_;
  std::uint64_t next_ticket_ = 0;
  std::map<int, FlowQueue> flows_;  // every flow seen; never erased
  Waiter* head_ = nullptr;          // next to admit; nullptr = nobody waits
  FlowQueue* head_flow_ = nullptr;  // head_'s flow
  bool in_service_ = false;         // head is inside the solvency wait
  double vclock_ = 0.0;             // SFQ virtual time (last granted start tag)
  std::uint64_t flow0_admitted_ = 0;            // flow-0 (untagged) fast path
  std::map<int, std::uint64_t> flow_admitted_;  // other flows' telemetry
  std::uint64_t admitted_ = 0;
  std::uint64_t queued_bytes_ = 0;  // bytes held by waiters, for EstimateDelay
};

}  // namespace ckpt::util
