#include "baselines/uvm/uvm_runtime.hpp"

#include <cassert>

#include "simgpu/copy.hpp"
#include "util/clock.hpp"
#include "util/logging.hpp"

namespace ckpt::uvm {

namespace {
storage::ObjectKey KeyOf(sim::Rank rank, core::Version v) {
  return storage::ObjectKey{rank, v};
}
}  // namespace

UvmRuntime::UvmRuntime(sim::Cluster& cluster,
                       std::shared_ptr<storage::ObjectStore> ssd,
                       UvmRuntimeOptions options, int num_ranks)
    : cluster_(cluster), ssd_(std::move(ssd)), options_(options) {
  assert(ssd_ != nullptr);
  ranks_.reserve(static_cast<std::size_t>(num_ranks));
  for (sim::Rank r = 0; r < num_ranks; ++r) {
    auto c = std::make_unique<RankCtx>();
    c->rank = r;
    c->metrics.restores_from_tier.resize(core::kTierCount, 0);
    c->space = std::make_unique<UvmSpace>(cluster_, r, options_.uvm);
    RankCtx* ptr = c.get();
    c->t_flush = std::jthread([this, ptr] { FlushLoop(*ptr); });
    c->t_pf = std::jthread([this, ptr] { PrefetchLoop(*ptr); });
    ranks_.push_back(std::move(c));
  }
}

UvmRuntime::~UvmRuntime() { Shutdown(); }

void UvmRuntime::Shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  for (auto& c : ranks_) {
    {
      std::lock_guard lock(c->mu);
      c->shutdown = true;
    }
    c->flush_q.Close();
    c->cv.notify_all();
  }
  for (auto& c : ranks_) {
    if (c->t_flush.joinable()) c->t_flush.join();
    if (c->t_pf.joinable()) c->t_pf.join();
  }
}

UvmRuntime::RankCtx& UvmRuntime::ctx(sim::Rank rank) {
  return *ranks_.at(static_cast<std::size_t>(rank));
}
const UvmRuntime::RankCtx& UvmRuntime::ctx(sim::Rank rank) const {
  return *ranks_.at(static_cast<std::size_t>(rank));
}

util::Status UvmRuntime::Checkpoint(sim::Rank rank, core::Version v,
                                    sim::ConstBytePtr src, std::uint64_t size) {
  if (src == nullptr || size == 0) {
    return util::InvalidArgument("Checkpoint: empty payload");
  }
  const util::Stopwatch sw;
  RankCtx& c = ctx(rank);
  RegionId region = 0;
  {
    std::unique_lock lock(c.mu);
    if (c.shutdown) return util::ShutdownError("runtime stopping");
    if (c.records.count(v) != 0) {
      return util::AlreadyExists("checkpoint version " + std::to_string(v));
    }
    // Host budget: page flushed history out to the SSD, or block until the
    // flusher catches up (the all-tiers-full wait the paper reports).
    for (;;) {
      if (c.shutdown) return util::ShutdownError("runtime stopping");
      ReclaimHost(c, size);
      if (c.host_bytes + size <= options_.host_backing_bytes ||
          size > options_.host_backing_bytes) {
        break;
      }
      c.cv.wait(lock);
    }
    auto rid = c.space->CreateRegion(size);
    if (!rid.ok()) return rid.status();
    region = *rid;
    Record& rec = c.records[v];
    rec.version = v;
    rec.region = region;
    rec.size = size;
    rec.flush_pending = true;
    c.host_bytes += size;
    ++c.inflight_flushes;
  }

  // The blocking cost of a UVM checkpoint: a device-side write into managed
  // memory (first-touch page allocation + D2D payload).
  CKPT_RETURN_IF_ERROR(c.space->DeviceWrite(region, 0, src, size));

  if (options_.use_hints) {
    // Flush-like demotion: tell the driver the checkpoint belongs on the
    // host so its pages drain out of the device cache eagerly.
    (void)c.space->Advise(region, Advice::kPreferredLocationHost);
    (void)c.space->EvictRegion(region);
  }
  c.flush_q.Push(v);

  std::lock_guard lock(c.mu);
  c.metrics.ckpt_block_s.Add(sw.ElapsedSec());
  c.metrics.bytes_checkpointed += size;
  return util::OkStatus();
}

util::Status UvmRuntime::Restore(sim::Rank rank, core::Version v,
                                 sim::BytePtr dst, std::uint64_t capacity) {
  if (dst == nullptr) return util::InvalidArgument("Restore: null buffer");
  const util::Stopwatch sw;
  RankCtx& c = ctx(rank);
  RegionId region = 0;
  std::uint64_t size = 0;
  std::uint64_t pdist = 0;
  bool from_store = false;
  {
    std::unique_lock lock(c.mu);
    if (c.shutdown) return util::ShutdownError("runtime stopping");
    auto it = c.records.find(v);
    if (it == c.records.end()) {
      // Restart path: only the durable store holds it.
      auto s = ssd_->Size(KeyOf(rank, v));
      if (!s.ok()) return s.status();
      Record rec;
      rec.version = v;
      rec.size = *s;
      rec.on_store = true;
      it = c.records.emplace(v, rec).first;
    }
    Record& rec = it->second;
    if (capacity < rec.size) {
      return util::InvalidArgument("Restore: buffer too small");
    }
    size = rec.size;
    region = rec.region;
    from_store = region == 0;
    // Fig. 7 metric: consecutive hinted successors fully resident on device.
    for (std::size_t i = 0;; ++i) {
      auto h = c.hints.Peek(i);
      if (!h) break;
      auto hit = c.records.find(*h);
      if (hit == c.records.end() || hit->second.region == 0 ||
          !c.space->FullyResident(hit->second.region)) {
        break;
      }
      ++pdist;
    }
    c.hints.Drop(v);
    c.cv.notify_all();
  }

  util::Status st;
  if (!from_store) {
    // Fault-driven read: resident pages are fast, evicted pages pay
    // migration + replay — UVM's restore cost model.
    st = c.space->DeviceRead(region, 0, dst, size);
  } else {
    // Data only on the durable store: read back into a fresh managed region
    // (host-backed), then fault it into the device.
    auto rid = c.space->CreateRegion(size);
    if (!rid.ok()) return rid.status();
    region = *rid;
    std::vector<std::byte> staging(size);
    st = ssd_->Get(KeyOf(rank, v), staging.data(), size);
    if (st.ok()) {
      sim::ChargeHostMem(cluster_.topology(),
                         cluster_.topology().gpu_of_rank(rank), size);
      st = c.space->DeviceWrite(region, 0, staging.data(), size);
      if (st.ok()) st = c.space->DeviceRead(region, 0, dst, size);
    }
  }
  if (!st.ok()) return st;

  std::unique_lock lock(c.mu);
  Record& rec = c.records.at(v);
  rec.consumed = true;
  if (rec.region == 0) {
    rec.region = region;
    c.host_bytes += rec.size;  // re-created backing for the store read
  }
  if (rec.prefetched) {
    c.prefetched_bytes -= rec.size;
    rec.prefetched = false;
  }
  // Served through the device view.
  ++c.metrics.restores_from_tier[core::Tier::kGpu];
  c.metrics.restore_block_s.Add(sw.ElapsedSec());
  c.metrics.bytes_restored += size;
  c.metrics.restore_series.push_back(core::RestorePoint{
      static_cast<std::uint64_t>(c.metrics.restore_series.size()), v, size,
      pdist});
  const RegionId consumed_region = rec.region;
  const bool discard = options_.discard_after_restore && rec.on_store;
  lock.unlock();

  if (options_.use_hints) {
    // Release the consumed checkpoint from the device cache immediately
    // (clean eviction thanks to the preferred-location advice).
    (void)c.space->Advise(consumed_region, Advice::kPreferredLocationHost);
    (void)c.space->EvictRegion(consumed_region);
  }
  {
    std::lock_guard g(c.mu);
    if (discard) {
      (void)c.space->FreeRegion(consumed_region);
      Record& r2 = c.records.at(v);
      if (r2.region != 0) {
        c.host_bytes -= r2.size;
        r2.region = 0;
      }
    }
    ReclaimHost(c, 0);
  }
  c.cv.notify_all();
  return util::OkStatus();
}

util::StatusOr<std::uint64_t> UvmRuntime::RecoverSize(sim::Rank rank,
                                                      core::Version v) {
  RankCtx& c = ctx(rank);
  std::lock_guard lock(c.mu);
  auto it = c.records.find(v);
  if (it != c.records.end()) return it->second.size;
  auto s = ssd_->Size(KeyOf(rank, v));
  if (s.ok()) return *s;
  return util::NotFound("checkpoint " + std::to_string(v) + " unknown");
}

util::Status UvmRuntime::PrefetchEnqueue(sim::Rank rank, core::Version v) {
  RankCtx& c = ctx(rank);
  std::lock_guard lock(c.mu);
  if (c.shutdown) return util::ShutdownError("runtime stopping");
  c.hints.Enqueue(v);
  c.cv.notify_all();
  return util::OkStatus();
}

util::Status UvmRuntime::PrefetchStart(sim::Rank rank) {
  RankCtx& c = ctx(rank);
  std::lock_guard lock(c.mu);
  if (c.shutdown) return util::ShutdownError("runtime stopping");
  c.prefetch_started = true;
  c.cv.notify_all();
  return util::OkStatus();
}

util::Status UvmRuntime::WaitForFlushes(sim::Rank rank) {
  const util::Stopwatch sw;
  RankCtx& c = ctx(rank);
  std::unique_lock lock(c.mu);
  c.cv.wait(lock, [&] { return c.inflight_flushes == 0 || c.shutdown; });
  c.metrics.wait_for_flush_s += sw.ElapsedSec();
  if (c.shutdown && c.inflight_flushes != 0) {
    return util::ShutdownError("runtime stopped with flushes pending");
  }
  return util::OkStatus();
}

core::RankMetrics UvmRuntime::metrics(sim::Rank rank) const {
  const RankCtx& c = ctx(rank);
  std::lock_guard lock(c.mu);
  return c.metrics;
}

UvmStats UvmRuntime::uvm_stats(sim::Rank rank) const {
  return ctx(rank).space->stats();
}

void UvmRuntime::ReclaimHost(RankCtx& c, std::uint64_t reserve) {
  const std::uint64_t budget = options_.host_backing_bytes;
  auto fits = [&] { return c.host_bytes + reserve <= budget; };
  if (fits()) return;
  // Page out store-captured backings, consumed first, then oldest versions.
  for (int pass = 0; pass < 2 && !fits(); ++pass) {
    std::vector<core::Version> order;
    order.reserve(c.records.size());
    for (const auto& [ver, rec] : c.records) {
      if (rec.region != 0 && rec.on_store && !rec.flush_pending &&
          !rec.prefetched && (pass == 1 || rec.consumed)) {
        order.push_back(ver);
      }
    }
    std::sort(order.begin(), order.end());
    for (core::Version ver : order) {
      if (fits()) break;
      Record& rec = c.records.at(ver);
      (void)c.space->FreeRegion(rec.region);
      rec.region = 0;
      c.host_bytes -= rec.size;
    }
  }
}

void UvmRuntime::FlushLoop(RankCtx& c) {
  while (auto vo = c.flush_q.Pop()) {
    const core::Version v = *vo;
    RegionId region = 0;
    std::uint64_t size = 0;
    {
      std::lock_guard lock(c.mu);
      auto it = c.records.find(v);
      if (it == c.records.end()) continue;
      // Condition (5) parity: skip flushes of consumed checkpoints.
      if (options_.discard_after_restore && it->second.consumed) {
        it->second.flush_pending = false;
        --c.inflight_flushes;
        ++c.metrics.flushes_cancelled;
        c.cv.notify_all();
        continue;
      }
      region = it->second.region;
      size = it->second.size;
    }
    // Stream the host backing to the SSD store.
    std::vector<std::byte> staging(size);
    util::Status st = c.space->HostRead(region, 0, staging.data(), size);
    if (st.ok()) st = ssd_->Put(KeyOf(c.rank, v), staging.data(), size);
    std::lock_guard lock(c.mu);
    auto it = c.records.find(v);
    if (it != c.records.end()) {
      it->second.flush_pending = false;
      if (st.ok()) {
        it->second.on_store = true;
        ++c.metrics.flushes_completed;
      } else {
        CKPT_LOG(kError, "uvm") << "flush failed: " << st.ToString();
      }
    }
    --c.inflight_flushes;
    c.cv.notify_all();
  }
}

void UvmRuntime::PrefetchLoop(RankCtx& c) {
  std::unique_lock lock(c.mu);
  for (;;) {
    c.cv.wait(lock, [&] {
      return c.shutdown ||
             (options_.use_hints && c.prefetch_started &&
              c.hints.Head().has_value());
    });
    if (c.shutdown) return;
    const core::Version v = *c.hints.Head();
    auto it = c.records.find(v);
    if (it == c.records.end() || it->second.region == 0) {
      // Unknown or store-only checkpoint; UVM prefetch cannot help. Skip.
      c.hints.PopHead();
      continue;
    }
    Record& rec = it->second;
    // Explicit device-budget control (the paper's addition): block further
    // prefetches until the application consumes what was already promoted.
    bool gave_up = false;
    while (c.prefetched_bytes + rec.size > options_.uvm.device_cache_bytes &&
           !c.shutdown) {
      if (rec.consumed) {
        gave_up = true;
        break;
      }
      c.cv.wait(lock);
    }
    if (c.shutdown) return;
    if (gave_up || c.hints.Head() != std::optional<core::Version>(v)) {
      if (c.hints.Head() == std::optional<core::Version>(v)) c.hints.PopHead();
      continue;
    }
    c.hints.PopHead();
    const RegionId region = rec.region;
    const std::uint64_t size = rec.size;
    rec.prefetched = true;
    c.prefetched_bytes += size;
    lock.unlock();
    (void)c.space->Advise(region, Advice::kPreferredLocationDevice);
    (void)c.space->Advise(region, Advice::kAccessedBy);
    const util::Status st = c.space->PrefetchToDevice(region);
    lock.lock();
    if (!st.ok()) {
      CKPT_LOG(kWarn, "uvm") << "prefetch failed: " << st.ToString();
      auto it2 = c.records.find(v);
      if (it2 != c.records.end() && it2->second.prefetched) {
        it2->second.prefetched = false;
        c.prefetched_bytes -= size;
      }
    } else {
      ++c.metrics.prefetch_promotions;
    }
    c.cv.notify_all();
  }
}

}  // namespace ckpt::uvm
