#include "probes.hpp"

#include <time.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "simgpu/copy.hpp"
#include "storage/throttled_store.hpp"

namespace perfbench {
namespace {

thread_local std::uint64_t tl_open_span = 0;  // innermost open span id

int ThreadIndex() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// --- Tracer ---------------------------------------------------------------

const char* Tracer::Intern(const std::string& name) {
  std::lock_guard lock(mu_);
  for (const std::string& s : interned_) {
    if (s == name) return s.c_str();
  }
  return interned_.emplace_back(name).c_str();
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

std::vector<Span> Tracer::spans(std::size_t from) const {
  std::lock_guard lock(mu_);
  if (from >= spans_.size()) return {};
  return {spans_.begin() + static_cast<std::ptrdiff_t>(from), spans_.end()};
}

void Tracer::Finish(const Span& s) {
  std::lock_guard lock(mu_);
  spans_.push_back(s);
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& label) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"otherData\":{\"run\":\"%s\"},\"traceEvents\":[\n",
               label.c_str());
  const std::int64_t t0 = all.empty() ? 0 : all.front().start_ns;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"rank\":%d,"
                 "\"version\":%" PRIu64 ",\"bytes\":%" PRIu64 ",\"id\":%" PRIu64
                 ",\"parent\":%" PRIu64 "}}%s\n",
                 s.name, s.tid, static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.rank,
                 s.version, s.bytes, s.id, s.parent,
                 i + 1 < all.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(Tracer* tracer, const char* name, int rank,
                     std::uint64_t version, std::uint64_t bytes)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.rank = rank;
  span_.version = version;
  span_.bytes = bytes;
  span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = tl_open_span;
  span_.tid = ThreadIndex();
  saved_parent_ = tl_open_span;
  tl_open_span = span_.id;
  span_.start_ns = NowNs();
}

SpanScope::~SpanScope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  tl_open_span = saved_parent_;
  tracer_->Finish(span_);
}

// --- TimedRuntime ---------------------------------------------------------

TimedRuntime::TimedRuntime(ckpt::core::Runtime& inner, int num_ranks,
                           Tracer* tracer)
    : inner_(inner),
      tracer_(tracer),
      calls_(static_cast<std::size_t>(num_ranks)),
      sizes_(static_cast<std::size_t>(num_ranks)) {
  for (auto& c : calls_) c.reserve(4096);
}

template <typename Fn>
auto TimedRuntime::Timed(Call call, int rank, std::uint64_t version,
                         std::uint64_t bytes, const char* span_name, Fn&& fn) {
  if (rank < 0 || rank >= static_cast<int>(calls_.size())) return fn();
  CallRecord rec;
  rec.call = call;
  rec.version = version;
  rec.bytes = bytes;
  const std::int64_t cpu0 = tracer_ != nullptr ? ThreadCpuNs() : 0;
  SpanScope span(tracer_, span_name, rank, version, bytes);
  rec.start_ns = NowNs();
  auto result = fn();
  rec.end_ns = NowNs();
  if (tracer_ != nullptr) rec.cpu_ns = ThreadCpuNs() - cpu0;
  rec.ok = result.ok();
  calls_[static_cast<std::size_t>(rank)].push_back(rec);
  return result;
}

ckpt::util::Status TimedRuntime::Checkpoint(ckpt::sim::Rank rank,
                                            ckpt::core::Version v,
                                            ckpt::sim::ConstBytePtr src,
                                            std::uint64_t size) {
  auto st = Timed(Call::kCheckpoint, rank, v, size, "core.call.checkpoint",
                  [&] { return inner_.Checkpoint(rank, v, src, size); });
  if (st.ok()) sizes_[static_cast<std::size_t>(rank)][v] = size;
  return st;
}

ckpt::util::Status TimedRuntime::Restore(ckpt::sim::Rank rank,
                                         ckpt::core::Version v,
                                         ckpt::sim::BytePtr dst,
                                         std::uint64_t capacity) {
  const std::uint64_t bytes =
      rank >= 0 && rank < static_cast<int>(sizes_.size()) ? SizeOf(rank, v) : 0;
  return Timed(Call::kRestore, rank, v, bytes, "core.call.restore",
               [&] { return inner_.Restore(rank, v, dst, capacity); });
}

ckpt::util::StatusOr<std::uint64_t> TimedRuntime::RecoverSize(
    ckpt::sim::Rank rank, ckpt::core::Version v) {
  return Timed(Call::kRecoverSize, rank, v, 0, "core.call.recover_size",
               [&] { return inner_.RecoverSize(rank, v); });
}

ckpt::util::Status TimedRuntime::PrefetchEnqueue(ckpt::sim::Rank rank,
                                                 ckpt::core::Version v) {
  return Timed(Call::kPrefetchEnqueue, rank, v, 0, "core.call.prefetch_enqueue",
               [&] { return inner_.PrefetchEnqueue(rank, v); });
}

ckpt::util::Status TimedRuntime::PrefetchStart(ckpt::sim::Rank rank) {
  return Timed(Call::kPrefetchStart, rank, 0, 0, "core.call.prefetch_start",
               [&] { return inner_.PrefetchStart(rank); });
}

ckpt::util::Status TimedRuntime::WaitForFlushes(ckpt::sim::Rank rank) {
  return Timed(Call::kWaitForFlushes, rank, 0, 0, "core.call.wait_for_flushes",
               [&] { return inner_.WaitForFlushes(rank); });
}

std::uint64_t TimedRuntime::SizeOf(int rank, std::uint64_t version) const {
  const auto& m = sizes_[static_cast<std::size_t>(rank)];
  const auto it = m.find(version);
  return it == m.end() ? 0 : it->second;
}

// --- PutLog / TimedStore --------------------------------------------------

void PutLog::Record(const ckpt::storage::ObjectKey& key, std::int64_t end_ns) {
  std::lock_guard lock(mu_);
  landed_.emplace(key, end_ns);  // the first landing makes the object durable
}

std::int64_t PutLog::LandedNs(const ckpt::storage::ObjectKey& key) const {
  std::lock_guard lock(mu_);
  const auto it = landed_.find(key);
  return it == landed_.end() ? -1 : it->second;
}

TimedStore::TimedStore(std::shared_ptr<ckpt::storage::ObjectStore> inner,
                       const std::string& tier, Tracer* tracer, PutLog* put_log)
    : inner_(std::move(inner)), tracer_(tracer), put_log_(put_log) {
  if (tracer_ != nullptr) {
    put_name_ = tracer_->Intern("storage." + tier + ".put");
    get_name_ = tracer_->Intern("storage." + tier + ".get");
  }
}

ckpt::util::Status TimedStore::Put(const ckpt::storage::ObjectKey& key,
                                   ckpt::sim::ConstBytePtr data,
                                   std::uint64_t size) {
  ckpt::util::Status st = ckpt::util::OkStatus();
  {
    SpanScope span(tracer_, put_name_, key.rank, key.version, size);
    st = inner_->Put(key, data, size);
  }
  if (put_log_ != nullptr && st.ok()) put_log_->Record(key, NowNs());
  return st;
}

ckpt::util::Status TimedStore::Get(const ckpt::storage::ObjectKey& key,
                                   ckpt::sim::BytePtr dst, std::uint64_t size) {
  SpanScope span(tracer_, get_name_, key.rank, key.version, size);
  return inner_->Get(key, dst, size);
}

ckpt::util::Status TimedStore::GetRange(const ckpt::storage::ObjectKey& key,
                                        std::uint64_t offset,
                                        ckpt::sim::BytePtr dst,
                                        std::uint64_t len) {
  SpanScope span(tracer_, get_name_, key.rank, key.version, len);
  return inner_->GetRange(key, offset, dst, len);
}

std::shared_ptr<ckpt::storage::ObjectStore> MakeTimedSsdStore(
    const ckpt::sim::Topology& topo,
    std::shared_ptr<ckpt::storage::ObjectStore> inner, Tracer* tracer) {
  auto charge = [&topo, tracer](const ckpt::storage::ObjectKey& key,
                                std::uint64_t size) {
    SpanScope span(tracer, kNvmeChargeSpan, key.rank, key.version, size);
    ckpt::sim::ChargeNvme(topo, key.rank, size);
  };
  return std::make_shared<ckpt::storage::ThrottledStore>(std::move(inner),
                                                         charge, charge);
}

}  // namespace perfbench
