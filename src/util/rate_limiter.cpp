#include "util/rate_limiter.hpp"

#include <algorithm>

namespace ckpt::util {

namespace {
thread_local IoTag t_io_tag;
}  // namespace

IoTag CurrentIoTag() noexcept { return t_io_tag; }

ScopedIoTag::ScopedIoTag(const IoTag& tag) noexcept : prev_(t_io_tag) {
  t_io_tag = tag;
}

ScopedIoTag::~ScopedIoTag() { t_io_tag = prev_; }

RateLimiter::RateLimiter(std::uint64_t bytes_per_sec, std::uint64_t burst_bytes)
    : rate_(bytes_per_sec),
      burst_(std::max<std::uint64_t>(burst_bytes, 1)),
      tokens_(0.0),
      last_refill_(Clock::now()) {}

void RateLimiter::Refill(Clock::time_point now) {
  if (rate_ == 0) return;
  const auto elapsed = std::chrono::duration<double>(now - last_refill_).count();
  if (elapsed <= 0) return;
  tokens_ = std::min(static_cast<double>(burst_),
                     tokens_ + elapsed * static_cast<double>(rate_));
  last_refill_ = now;
}

std::chrono::nanoseconds RateLimiter::TimeToSolvency() const {
  if (rate_ == 0 || tokens_ >= 0) return std::chrono::nanoseconds(0);
  const double secs = -tokens_ / static_cast<double>(rate_);
  return std::chrono::nanoseconds(static_cast<std::int64_t>(secs * 1e9) + 1);
}

void RateLimiter::Enqueue(Waiter& w) {
  if (head_ == nullptr) {
    // Idle reset: with no backlog there is no contention to arbitrate, so
    // virtual time restarts and stale per-flow finish tags are dropped
    // (standard SFQ idle handling — an idle flow is not owed back-credit).
    vclock_ = 0.0;
    for (auto& [id, f] : flows_) f.finish = 0.0;
  }
  FlowQueue& f = flows_[w.flow];
  if (f.Next() == nullptr) f.start = std::max(vclock_, f.finish);
  const auto c = static_cast<std::size_t>(w.io_class);
  if (f.tail[c] != nullptr) {
    f.tail[c]->next = &w;
  } else {
    f.head[c] = &w;
  }
  f.tail[c] = &w;
  queued_bytes_ += w.n;
  PickHead();
}

void RateLimiter::PickHead() {
  head_ = nullptr;
  head_flow_ = nullptr;
  for (auto& [id, f] : flows_) {
    Waiter* w = f.Next();
    if (w == nullptr) continue;
    if (head_ == nullptr || f.start < head_flow_->start ||
        (f.start == head_flow_->start && w->ticket < head_->ticket)) {
      head_ = w;
      head_flow_ = &f;
    }
  }
}

void RateLimiter::Count(std::uint64_t n, int flow) {
  admitted_ += n;
  // Flow 0 (every untagged caller) bypasses the per-flow map so the
  // unlimited fast path stays a couple of adds.
  if (flow == 0) {
    flow0_admitted_ += n;
  } else {
    flow_admitted_[flow] += n;
  }
}

void RateLimiter::Grant() {
  Waiter& w = *head_;
  FlowQueue& f = *head_flow_;
  tokens_ -= static_cast<double>(w.n);
  Count(w.n, w.flow);
  queued_bytes_ -= w.n;
  vclock_ = std::max(vclock_, f.start);
  f.finish = f.start + static_cast<double>(w.n) / w.weight;
  const auto c = static_cast<std::size_t>(w.io_class);
  f.head[c] = w.next;
  if (f.head[c] == nullptr) f.tail[c] = nullptr;
  if (f.Next() != nullptr) f.start = std::max(vclock_, f.finish);
  PickHead();
  cv_.notify_all();
}

void RateLimiter::Acquire(std::uint64_t n, const IoTag& tag) {
  std::unique_lock lock(mu_);
  if (rate_ == 0) {
    Count(n, tag.flow);  // unlimited: still count traffic
    return;
  }
  Waiter w{n, tag.weight > 0.0 ? tag.weight : 1.0, next_ticket_++, tag.flow,
           tag.io_class};
  Enqueue(w);
  for (;;) {
    cv_.wait(lock, [&] { return !in_service_ && head_ == &w; });
    in_service_ = true;
    // Head of the queue: wait until the bucket recovers from prior debt.
    for (;;) {
      Refill(Clock::now());
      if (tokens_ >= 0 || rate_ == 0) break;
      cv_.wait_for(lock, TimeToSolvency());
    }
    in_service_ = false;
    if (head_ == &w) break;
    // A request that goes first arrived during the wait (a demand request
    // of this flow, or an earlier-tagged flow): the link is its.
    cv_.notify_all();
  }
  Grant();
}

void RateLimiter::set_rate(std::uint64_t bytes_per_sec) {
  std::lock_guard lock(mu_);
  Refill(Clock::now());
  rate_ = bytes_per_sec;
  cv_.notify_all();
}

std::uint64_t RateLimiter::rate() const {
  std::lock_guard lock(mu_);
  return rate_;
}

std::uint64_t RateLimiter::admitted_bytes() const {
  std::lock_guard lock(mu_);
  return admitted_;
}

std::uint64_t RateLimiter::admitted_bytes(int flow) const {
  std::lock_guard lock(mu_);
  if (flow == 0) return flow0_admitted_;
  const auto it = flow_admitted_.find(flow);
  return it == flow_admitted_.end() ? 0 : it->second;
}

std::chrono::nanoseconds RateLimiter::EstimateDelay(std::uint64_t n) const {
  std::lock_guard lock(mu_);
  if (rate_ == 0) return std::chrono::nanoseconds(0);
  // Outstanding debt + queued bytes + the new bytes, all served at rate_.
  double backlog = static_cast<double>(queued_bytes_) + static_cast<double>(n);
  if (tokens_ < 0) backlog += -tokens_;
  const double secs = backlog / static_cast<double>(rate_);
  return std::chrono::nanoseconds(static_cast<std::int64_t>(secs * 1e9));
}

}  // namespace ckpt::util
