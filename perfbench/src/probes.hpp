// Outside-in probes: wrappers the benchmark puts around the engine's public
// surfaces (core::Runtime, storage::ObjectStore and the NVMe charge of a
// ThrottledStore). They time what crosses each boundary and record spans
// into an in-memory Tracer; nothing inside the program is instrumented.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/runtime.hpp"
#include "simgpu/topology.hpp"
#include "storage/object_store.hpp"

namespace perfbench {

[[nodiscard]] std::int64_t NowNs();
[[nodiscard]] std::int64_t ThreadCpuNs();

/// One finished span. `rank`/`version` name the checkpoint the work belongs
/// to, which serves as the request id shared by the spans of one object.
struct Span {
  const char* name = "";
  int rank = 0;
  std::uint64_t version = 0;
  std::uint64_t bytes = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = no parent
  int tid = 0;
};

/// In-memory span recorder. Spans nest per thread: a span opened while
/// another is open on the same thread becomes its child.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Returns a stable copy of `name` for span names built at run time.
  const char* Intern(const std::string& name);
  /// Number of spans finished so far; spans(mark) returns those after it.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::vector<Span> spans(std::size_t from = 0) const;
  /// Writes the spans as a Chrome trace (one "X" event per span), with
  /// `label` naming the run.
  [[nodiscard]] bool WriteChromeTrace(const std::string& path,
                                      const std::string& label) const;

 private:
  friend class SpanScope;
  void Finish(const Span& s);

  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;           // guarded by mu_
  std::deque<std::string> interned_;  // guarded by mu_; addresses are stable
};

/// RAII span. A null tracer makes it a no-op, which is how untraced runs
/// keep the probes in place at the cost of a branch.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, int rank, std::uint64_t version,
            std::uint64_t bytes = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  Span span_;
  std::uint64_t saved_parent_ = 0;
};

enum class Call : std::uint8_t {
  kCheckpoint,
  kRestore,
  kRecoverSize,
  kPrefetchEnqueue,
  kPrefetchStart,
  kWaitForFlushes,
};

struct CallRecord {
  Call call = Call::kCheckpoint;
  std::uint64_t version = 0;
  std::uint64_t bytes = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = -1;  ///< app-thread CPU time; traced runs only
  bool ok = true;
};

/// core::Runtime that forwards every call and records its wall time as the
/// calling thread saw it. Each rank's records are only appended by the one
/// thread driving that rank at a time (its app thread during the shot, the
/// main thread after the join), so they need no lock.
class TimedRuntime final : public ckpt::core::Runtime {
 public:
  TimedRuntime(ckpt::core::Runtime& inner, int num_ranks, Tracer* tracer);

  ckpt::util::Status Checkpoint(ckpt::sim::Rank rank, ckpt::core::Version v,
                                ckpt::sim::ConstBytePtr src,
                                std::uint64_t size) override;
  ckpt::util::Status Restore(ckpt::sim::Rank rank, ckpt::core::Version v,
                             ckpt::sim::BytePtr dst,
                             std::uint64_t capacity) override;
  ckpt::util::StatusOr<std::uint64_t> RecoverSize(ckpt::sim::Rank rank,
                                                  ckpt::core::Version v) override;
  ckpt::util::Status PrefetchEnqueue(ckpt::sim::Rank rank,
                                     ckpt::core::Version v) override;
  ckpt::util::Status PrefetchStart(ckpt::sim::Rank rank) override;
  ckpt::util::Status WaitForFlushes(ckpt::sim::Rank rank) override;
  void Shutdown() override { inner_.Shutdown(); }

  [[nodiscard]] ckpt::core::RankMetrics metrics(ckpt::sim::Rank rank) const override {
    return inner_.metrics(rank);
  }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] bool multi_tenant() const override { return inner_.multi_tenant(); }

  [[nodiscard]] const std::vector<CallRecord>& calls(int rank) const {
    return calls_[static_cast<std::size_t>(rank)];
  }
  /// Size each version was checkpointed with (restores report these bytes).
  [[nodiscard]] std::uint64_t SizeOf(int rank, std::uint64_t version) const;

 private:
  template <typename Fn>
  auto Timed(Call call, int rank, std::uint64_t version, std::uint64_t bytes,
             const char* span_name, Fn&& fn);

  ckpt::core::Runtime& inner_;
  Tracer* tracer_;
  std::vector<std::vector<CallRecord>> calls_;
  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> sizes_;
};

/// First successful Put() return time per object, recorded by the
/// timestamp-only wrapper on the terminal tier.
class PutLog {
 public:
  void Record(const ckpt::storage::ObjectKey& key, std::int64_t end_ns);
  /// -1 when the object never landed.
  [[nodiscard]] std::int64_t LandedNs(const ckpt::storage::ObjectKey& key) const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<ckpt::storage::ObjectKey, std::int64_t,
                     ckpt::storage::ObjectKeyHash>
      landed_;  // guarded by mu_
};

/// ObjectStore decorator that spans Put/Get/GetRange as "storage.<tier>.put"
/// and "storage.<tier>.get" (when `tracer` is set) and logs Put completions
/// (when `put_log` is set). Everything else, including CollectStats,
/// forwards unchanged.
class TimedStore final : public ckpt::storage::ObjectStore {
 public:
  TimedStore(std::shared_ptr<ckpt::storage::ObjectStore> inner,
             const std::string& tier, Tracer* tracer, PutLog* put_log);

  ckpt::util::Status Put(const ckpt::storage::ObjectKey& key,
                         ckpt::sim::ConstBytePtr data, std::uint64_t size) override;
  ckpt::util::Status Get(const ckpt::storage::ObjectKey& key,
                         ckpt::sim::BytePtr dst, std::uint64_t size) override;
  [[nodiscard]] ckpt::util::StatusOr<std::uint64_t> Size(
      const ckpt::storage::ObjectKey& key) const override {
    return inner_->Size(key);
  }
  [[nodiscard]] bool Exists(const ckpt::storage::ObjectKey& key) const override {
    return inner_->Exists(key);
  }
  ckpt::util::Status Erase(const ckpt::storage::ObjectKey& key) override {
    return inner_->Erase(key);
  }
  [[nodiscard]] std::vector<ckpt::storage::ObjectKey> Keys() const override {
    return inner_->Keys();
  }
  [[nodiscard]] std::uint64_t TotalBytes() const override {
    return inner_->TotalBytes();
  }
  ckpt::util::Status GetRange(const ckpt::storage::ObjectKey& key,
                              std::uint64_t offset, ckpt::sim::BytePtr dst,
                              std::uint64_t len) override;
  [[nodiscard]] bool CollectStats(ckpt::storage::StoreStats& out) const override {
    return inner_->CollectStats(out);
  }

 private:
  std::shared_ptr<ckpt::storage::ObjectStore> inner_;
  const char* put_name_ = "";
  const char* get_name_ = "";
  Tracer* tracer_;
  PutLog* put_log_;
};

/// Span name of one NVMe charge, a child of the store span that paid it.
inline constexpr const char* kNvmeChargeSpan = "util.nvme_charge";

/// The SSD tier as storage::MakeSsdStore builds it — a ThrottledStore over
/// `inner` paying the producing rank's NVMe drive — but with a charge
/// function that opens a span around each charge.
[[nodiscard]] std::shared_ptr<ckpt::storage::ObjectStore> MakeTimedSsdStore(
    const ckpt::sim::Topology& topo, std::shared_ptr<ckpt::storage::ObjectStore> inner,
    Tracer* tracer);

}  // namespace perfbench
