#include "baselines/adios/adios_runtime.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <future>

#include "simgpu/copy.hpp"
#include "util/clock.hpp"
#include "util/logging.hpp"

namespace ckpt::adios {

namespace {
storage::ObjectKey KeyOf(sim::Rank rank, core::Version v) {
  return storage::ObjectKey{rank, v};
}
}  // namespace

AdiosRuntime::AdiosRuntime(sim::Cluster& cluster,
                           std::shared_ptr<storage::ObjectStore> ssd,
                           AdiosOptions options, int num_ranks)
    : cluster_(cluster), ssd_(std::move(ssd)), options_(options) {
  assert(ssd_ != nullptr);
  // Pin every rank's bounce arena side by side, one transient thread per
  // rank as the engine does, then start the drain threads.
  std::vector<std::future<std::unique_ptr<RankCtx>>> bring_up;
  for (sim::Rank r = 0; r < num_ranks; ++r) {
    bring_up.push_back(std::async(std::launch::async, [this, r] {
      auto c = std::make_unique<RankCtx>();
      c->rank = r;
      c->metrics.restores_from_tier.resize(core::kTierCount, 0);
      c->bounce = std::make_unique<sim::PinnedArena>(
          cluster_.topology(), cluster_.topology().node_of_rank(r),
          options_.bounce_bytes);
      return c;
    }));
  }
  ranks_.reserve(static_cast<std::size_t>(num_ranks));
  for (auto& rank : bring_up) ranks_.push_back(rank.get());
  for (auto& c : ranks_) {
    RankCtx* ptr = c.get();
    c->t_drain = std::jthread([this, ptr] { DrainLoop(*ptr); });
  }
}

AdiosRuntime::~AdiosRuntime() { Shutdown(); }

void AdiosRuntime::Shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  for (auto& c : ranks_) {
    {
      std::lock_guard lock(c->mu);
      c->shutdown = true;
    }
    c->drain_q.Close();
    c->cv.notify_all();
  }
  for (auto& c : ranks_) {
    if (c->t_drain.joinable()) c->t_drain.join();
  }
}

AdiosRuntime::RankCtx& AdiosRuntime::ctx(sim::Rank rank) {
  return *ranks_.at(static_cast<std::size_t>(rank));
}
const AdiosRuntime::RankCtx& AdiosRuntime::ctx(sim::Rank rank) const {
  return *ranks_.at(static_cast<std::size_t>(rank));
}

util::Status AdiosRuntime::StagedD2H(RankCtx& c, sim::ConstBytePtr src,
                                     std::byte* dst, std::uint64_t n) {
  const sim::GpuId gpu = cluster_.topology().gpu_of_rank(c.rank);
  std::lock_guard bounce_lock(c.bounce_mu);
  std::uint64_t done = 0;
  while (done < n) {
    const std::uint64_t chunk = std::min(options_.bounce_bytes, n - done);
    CKPT_RETURN_IF_ERROR(sim::ThrottledMemcpy(cluster_.topology(), gpu,
                                              c.bounce->data(), src + done,
                                              chunk, sim::MemcpyKind::kD2H));
    CKPT_RETURN_IF_ERROR(sim::ThrottledMemcpy(cluster_.topology(), gpu,
                                              dst + done, c.bounce->data(),
                                              chunk, sim::MemcpyKind::kH2H));
    done += chunk;
  }
  return util::OkStatus();
}

util::Status AdiosRuntime::StagedH2D(RankCtx& c, const std::byte* src,
                                     sim::BytePtr dst, std::uint64_t n) {
  const sim::GpuId gpu = cluster_.topology().gpu_of_rank(c.rank);
  std::lock_guard bounce_lock(c.bounce_mu);
  std::uint64_t done = 0;
  while (done < n) {
    const std::uint64_t chunk = std::min(options_.bounce_bytes, n - done);
    CKPT_RETURN_IF_ERROR(sim::ThrottledMemcpy(cluster_.topology(), gpu,
                                              c.bounce->data(), src + done,
                                              chunk, sim::MemcpyKind::kH2H));
    CKPT_RETURN_IF_ERROR(sim::ThrottledMemcpy(cluster_.topology(), gpu,
                                              dst + done, c.bounce->data(),
                                              chunk, sim::MemcpyKind::kH2D));
    done += chunk;
  }
  return util::OkStatus();
}

util::Status AdiosRuntime::Checkpoint(sim::Rank rank, core::Version v,
                                      sim::ConstBytePtr src, std::uint64_t size) {
  if (src == nullptr || size == 0) {
    return util::InvalidArgument("Checkpoint: empty payload");
  }
  const util::Stopwatch sw;
  RankCtx& c = ctx(rank);
  {
    // BP5 buffer reservation: block while the pool is full (deferred puts
    // flush on buffer-full).
    std::unique_lock lock(c.mu);
    if (c.shutdown) return util::ShutdownError("runtime stopping");
    if (c.sizes.count(v) != 0) {
      return util::AlreadyExists("checkpoint version " + std::to_string(v));
    }
    c.cv.wait(lock, [&] {
      return c.shutdown || c.pool_used + size <= options_.host_buffer_bytes ||
             size > options_.host_buffer_bytes;
    });
    if (c.shutdown) return util::ShutdownError("runtime stopping");
    c.sizes[v] = size;
    if (size <= options_.host_buffer_bytes) {
      c.pool_used += size;
      c.buffered[v].data.resize(size);
    }
    ++c.inflight;
  }

  std::byte* host_dst = nullptr;
  {
    std::lock_guard lock(c.mu);
    auto it = c.buffered.find(v);
    if (it != c.buffered.end()) host_dst = it->second.data.data();
  }

  // BP5 marshaling: CPU-side serialization of payload + metadata.
  if (options_.serialize_bw > 0) {
    const double secs = static_cast<double>(size) /
                        static_cast<double>(options_.serialize_bw);
    util::PreciseSleep(std::chrono::nanoseconds(
        static_cast<std::int64_t>(secs * 1e9)));
  }

  util::Status st;
  if (host_dst != nullptr) {
    // Deferred put: D2H into the pageable BP buffer; draining is async.
    st = StagedD2H(c, src, host_dst, size);
    if (st.ok()) {
      c.drain_q.Push(v);
    }
  } else {
    // Object larger than the whole pool: synchronous write-through.
    std::vector<std::byte> staging(size);
    st = StagedD2H(c, src, staging.data(), size);
    if (st.ok()) st = ssd_->Put(KeyOf(rank, v), staging.data(), size);
    std::lock_guard lock(c.mu);
    --c.inflight;
    c.cv.notify_all();
  }

  std::lock_guard lock(c.mu);
  if (!st.ok()) {
    c.sizes.erase(v);
    auto it = c.buffered.find(v);
    if (it != c.buffered.end()) {
      c.pool_used -= it->second.data.size();
      c.buffered.erase(it);
    }
    return st;
  }
  c.metrics.ckpt_block_s.Add(sw.ElapsedSec());
  c.metrics.bytes_checkpointed += size;
  return util::OkStatus();
}

util::Status AdiosRuntime::Restore(sim::Rank rank, core::Version v,
                                   sim::BytePtr dst, std::uint64_t capacity) {
  if (dst == nullptr) return util::InvalidArgument("Restore: null buffer");
  const util::Stopwatch sw;
  RankCtx& c = ctx(rank);
  std::uint64_t size = 0;
  bool from_buffer = false;
  {
    std::unique_lock lock(c.mu);
    if (c.shutdown) return util::ShutdownError("runtime stopping");
    auto sit = c.sizes.find(v);
    if (sit == c.sizes.end()) {
      auto s = ssd_->Size(KeyOf(rank, v));
      if (!s.ok()) return s.status();
      sit = c.sizes.emplace(v, *s).first;
    }
    size = sit->second;
    if (capacity < size) return util::InvalidArgument("Restore: buffer too small");
    auto bit = c.buffered.find(v);
    if (bit != c.buffered.end()) {
      from_buffer = true;
      ++bit->second.readers;  // pin against pool release mid-read
    }
  }

  util::Status st;
  if (from_buffer) {
    std::byte* src = nullptr;
    {
      std::lock_guard lock(c.mu);
      src = c.buffered.at(v).data.data();
    }
    st = StagedH2D(c, src, dst, size);
    std::lock_guard lock(c.mu);
    --c.buffered.at(v).readers;
    c.cv.notify_all();
  } else {
    // On-demand read from the BP file on the SSD, then staged H2D.
    std::vector<std::byte> staging(size);
    st = ssd_->Get(KeyOf(rank, v), staging.data(), size);
    if (st.ok()) st = StagedH2D(c, staging.data(), dst, size);
  }
  if (!st.ok()) return st;

  std::lock_guard lock(c.mu);
  ++c.metrics.restores_from_tier[from_buffer ? core::Tier::kHost
                                             : core::Tier::kSsd];
  c.metrics.restore_block_s.Add(sw.ElapsedSec());
  c.metrics.bytes_restored += size;
  c.metrics.restore_series.push_back(core::RestorePoint{
      static_cast<std::uint64_t>(c.metrics.restore_series.size()), v, size,
      0});
  return util::OkStatus();
}

util::StatusOr<std::uint64_t> AdiosRuntime::RecoverSize(sim::Rank rank,
                                                        core::Version v) {
  RankCtx& c = ctx(rank);
  {
    std::lock_guard lock(c.mu);
    auto it = c.sizes.find(v);
    if (it != c.sizes.end()) return it->second;
  }
  auto s = ssd_->Size(KeyOf(rank, v));
  if (s.ok()) return *s;
  return util::NotFound("checkpoint " + std::to_string(v) + " unknown");
}

util::Status AdiosRuntime::PrefetchEnqueue(sim::Rank, core::Version) {
  return util::OkStatus();  // no hint support in ADIOS2; ignored
}

util::Status AdiosRuntime::PrefetchStart(sim::Rank) { return util::OkStatus(); }

util::Status AdiosRuntime::WaitForFlushes(sim::Rank rank) {
  const util::Stopwatch sw;
  RankCtx& c = ctx(rank);
  std::unique_lock lock(c.mu);
  c.cv.wait(lock, [&] { return c.inflight == 0 || c.shutdown; });
  c.metrics.wait_for_flush_s += sw.ElapsedSec();
  if (c.shutdown && c.inflight != 0) {
    return util::ShutdownError("runtime stopped with drains pending");
  }
  return util::OkStatus();
}

core::RankMetrics AdiosRuntime::metrics(sim::Rank rank) const {
  const RankCtx& c = ctx(rank);
  std::lock_guard lock(c.mu);
  return c.metrics;
}

void AdiosRuntime::DrainLoop(RankCtx& c) {
  while (auto vo = c.drain_q.Pop()) {
    const core::Version v = *vo;
    std::byte* src = nullptr;
    std::uint64_t size = 0;
    {
      std::unique_lock lock(c.mu);
      auto it = c.buffered.find(v);
      if (it == c.buffered.end()) {
        --c.inflight;
        c.cv.notify_all();
        continue;
      }
      // Wait out a concurrent reader before we release the buffer later.
      src = it->second.data.data();
      size = it->second.data.size();
    }
    const util::Status st = ssd_->Put(KeyOf(c.rank, v), src, size);
    std::unique_lock lock(c.mu);
    if (!st.ok()) {
      CKPT_LOG(kError, "adios") << "drain failed: " << st.ToString();
    } else {
      // Wait out concurrent readers before releasing the buffer.
      c.cv.wait(lock, [&] { return c.buffered.at(v).readers == 0; });
      c.pool_used -= size;
      c.buffered.erase(v);
      ++c.metrics.flushes_completed;
    }
    --c.inflight;
    c.cv.notify_all();
  }
}

}  // namespace ckpt::adios
