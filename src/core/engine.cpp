#include "core/engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <future>

#include "simgpu/copy.hpp"
#include "util/clock.hpp"
#include "util/flow_id.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace ckpt::core {

namespace {

using util::Stopwatch;
namespace trace = util::trace;

constexpr auto kReplanMin = std::chrono::microseconds(100);
constexpr auto kReplanMax = std::chrono::milliseconds(20);
/// Bounded tenant-quota wait: after this many kReplanMax sleeps without
/// headroom, ReserveOn returns kCapacityExceeded and the caller falls back
/// to a deeper tier (DESIGN.md §12).
constexpr int kQuotaRoundsMax = 5;
/// Master seed for retry backoff jitter; per-rank/thread streams derive from
/// it (RngFor), so failure runs reproduce deterministically.
constexpr std::uint64_t kRetrySeed = 0xC5EEDull;

storage::ObjectKey KeyOf(sim::Rank rank, Version v) {
  return storage::ObjectKey{rank, v};
}

/// Lifecycle span name per FSM state. Static literals: event name pointers
/// must outlive the engine (dumps typically happen after teardown).
constexpr const char* StateSpanName(CkptState s) noexcept {
  switch (s) {
    case CkptState::kInit: return "state:INIT";
    case CkptState::kWriteInProgress: return "state:WRITE_IN_PROGRESS";
    case CkptState::kWriteComplete: return "state:WRITE_COMPLETE";
    case CkptState::kFlushed: return "state:FLUSHED";
    case CkptState::kReadInProgress: return "state:READ_IN_PROGRESS";
    case CkptState::kReadComplete: return "state:READ_COMPLETE";
    case CkptState::kConsumed: return "state:CONSUMED";
    case CkptState::kFlushFailed: return "state:FLUSH_FAILED";
  }
  return "state:?";
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

Engine::Engine(sim::Cluster& cluster, TierStack stack, EngineOptions options,
               int num_ranks)
    : cluster_(cluster), stack_(std::move(stack)), options_(options) {
  assert(!stack_.empty() && "Engine requires a validated TierStack");
  Init(num_ranks);
}

void Engine::Init(int num_ranks) {
  assert(num_ranks > 0 && num_ranks <= cluster_.total_gpus());
  const int ncache = stack_.num_cache_tiers();
  const auto& cfg = cluster_.config();

  // Cache tiers that did not name a policy in their spec inherit the legacy
  // engine-wide knob; after this every stack_.policy(i) is concrete.
  stack_.ResolveEvictionPolicies(options_.eviction);

  durable_span_names_.reserve(static_cast<std::size_t>(stack_.num_durable_tiers()));
  for (int d = 0; d < stack_.num_durable_tiers(); ++d) {
    const auto idx = static_cast<std::size_t>(stack_.durable_index(d));
    durable_span_names_.push_back(
        trace::Intern("flush:" + std::string(stack_.name(idx))));
  }

  // Lineage flow-step names (DESIGN.md §14).
  flow_hop_names_.reserve(stack_.size());
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    flow_hop_names_.push_back(
        trace::Intern("hop:" + std::string(stack_.name(i))));
  }
  flow_ack_names_.reserve(static_cast<std::size_t>(stack_.num_durable_tiers()));
  for (int d = 0; d < stack_.num_durable_tiers(); ++d) {
    const auto idx = static_cast<std::size_t>(stack_.durable_index(d));
    flow_ack_names_.push_back(
        trace::Intern("ack:" + std::string(stack_.name(idx))));
  }

  // Tenant table (DESIGN.md §12), built before any worker can run. Explicit
  // tenants claim contiguous rank blocks in declaration order (even split,
  // remainder to the earlier tenants); legacy callers get one implicit
  // unlimited "default" tenant over every rank.
  tenant_registry_ = std::make_unique<TenantRegistry>(num_ranks);
  if (options_.tenants.empty()) {
    auto id = tenant_registry_->Open(TenantSpec{.name = "default"}, num_ranks);
    assert(id.ok());
    (void)id;
  } else {
    const int nt = static_cast<int>(options_.tenants.size());
    const int base = num_ranks / nt;
    const int extra = num_ranks % nt;
    for (int i = 0; i < nt; ++i) {
      const int share = base + (i < extra ? 1 : 0);
      auto id = tenant_registry_->Open(options_.tenants[static_cast<std::size_t>(i)],
                                       share);
      if (!id.ok()) {
        CKPT_LOG(kError, "engine")
            << "cannot open tenant '"
            << options_.tenants[static_cast<std::size_t>(i)].name
            << "': " << id.status().ToString();
        std::abort();
      }
    }
  }

  // GPUDirect promotions read the stores straight into device memory, so
  // only the staged path gets a stage-in worker.
  stage_in_ = ncache >= 2 && !(options_.gpudirect && stack_.is_device(0));

  // Drain-bandwidth estimate per cache tier, toward the next tier down:
  // device tiers drain over their PCIe link, host->host over DDR, and the
  // last cache tier into the NVMe-backed first durable tier.
  drain_bw_.resize(static_cast<std::size_t>(ncache));
  for (int i = 0; i < ncache; ++i) {
    std::uint64_t bw = 0;
    if (stack_.is_device(i)) {
      bw = cfg.pcie_link_bw;
    } else if (i + 1 < ncache) {
      bw = cfg.host_mem_bw;
    } else {
      bw = cfg.nvme_drive_bw;
    }
    drain_bw_[static_cast<std::size_t>(i)] = static_cast<double>(bw);
  }

  // Bring the ranks up side by side, one transient thread each, the way a
  // node's processes each start their own client: every rank still pays its
  // own registration cost, but the pins overlap instead of adding up.
  std::vector<std::future<std::unique_ptr<RankCtx>>> bring_up;
  for (sim::Rank r = 0; r < num_ranks; ++r) {
    bring_up.push_back(std::async(std::launch::async, [this, r, ncache] {
      auto c = std::make_unique<RankCtx>();
      c->rank = r;
      const Stopwatch init_sw;
      c->metrics.evictions_from_tier.resize(stack_.size(), 0);
      c->metrics.evicted_bytes_from_tier.resize(stack_.size(), 0);
      c->metrics.flush_stage_hist.resize(static_cast<std::size_t>(ncache));
      c->tier_probe = std::make_unique<TierCells[]>(stack_.size());

      // Allocate every cache tier once, here, before any worker starts
      // (§4.1.4): the device tier out of the rank's HBM, the others as pinned
      // host memory (slow: ~4 GB/s registration). Split mode carves the top
      // half of each tier off as its prefetch partition.
      const int node = cluster_.topology().node_of_rank(r);
      c->tiers.resize(static_cast<std::size_t>(ncache));
      for (int i = 0; i < ncache; ++i) {
        auto t = std::make_unique<CacheTierRt>();
        t->capacity = stack_[static_cast<std::size_t>(i)].capacity_bytes;
        sim::BytePtr base = nullptr;
        if (stack_.is_device(i)) {
          auto gpu_mem = cluster_.device(r).Allocate(t->capacity);
          if (!gpu_mem.ok()) {
            CKPT_LOG(kError, "engine")
                << "rank " << r
                << ": GPU cache allocation failed: " << gpu_mem.status();
            std::abort();
          }
          t->gpu_base = base = *gpu_mem;
        } else {
          t->arena = std::make_unique<sim::PinnedArena>(cluster_.topology(),
                                                        node, t->capacity);
          base = t->arena->data();
        }
        const std::string nm(stack_.name(static_cast<std::size_t>(i)));
        // Each tier drives its buffers with its *own* resolved policy — the
        // whole point of per-tier policies is GPU=score over FIFO deep tiers.
        const EvictionKind kind = stack_.policy(i);
        if (options_.split_flush_prefetch) {
          const std::uint64_t pf = t->capacity / 2;
          t->write_buf = std::make_unique<CacheBuffer>(
              nm + "-w/" + std::to_string(r), base, t->capacity - pf,
              MakePolicy(kind));
          t->prefetch_buf = std::make_unique<CacheBuffer>(
              nm + "-p/" + std::to_string(r), base + (t->capacity - pf), pf,
              MakePolicy(kind));
        } else {
          t->write_buf = std::make_unique<CacheBuffer>(
              nm + "/" + std::to_string(r), base, t->capacity,
              MakePolicy(kind));
        }
        c->tiers[static_cast<std::size_t>(i)] = std::move(t);
      }

      c->metrics.init_s = init_sw.ElapsedSec();
      return c;
    }));
  }
  // get() joins each rank's thread and rethrows what its bring-up threw.
  ranks_.reserve(static_cast<std::size_t>(num_ranks));
  for (auto& rank : bring_up) ranks_.push_back(rank.get());

  // Dedicated background threads (§4.3.1), started once every rank's caches
  // exist: one flush stage per cache tier plus the prefetcher, whose store
  // reads get their own worker on a multi-level stack.
  for (auto& c : ranks_) {
    RankCtx* ctx_ptr = c.get();
    for (int i = 0; i < ncache; ++i) {
      c->tiers[static_cast<std::size_t>(i)]->worker =
          std::jthread([this, ctx_ptr, i] { FlushStageLoop(*ctx_ptr, i); });
    }
    c->t_pf = std::jthread([this, ctx_ptr] { PrefetchLoop(*ctx_ptr); });
    if (stage_in_) {
      c->t_stage = std::jthread([this, ctx_ptr] { StageInLoop(*ctx_ptr); });
    }
  }
}

Engine::~Engine() { Shutdown(); }

void Engine::Shutdown() {
  if (shutdown_.exchange(true)) return;  // idempotent, even across threads
  for (auto& c : ranks_) {
    {
      // Set the stop flag and signal under the same mutex every background
      // CV wait checks, so no flush/prefetch thread can read the flag as
      // clear, then miss the final wakeup and hang the joins below. Every
      // wakeup channel gets the broadcast: waiters on any of them check
      // the flag.
      std::lock_guard lock(c->mu);
      c->shutdown = true;
      NotifyAllChannels(*c);
    }
    for (auto& t : c->tiers) t->flush_q.Close();
  }
  for (auto& c : ranks_) {
    for (auto& t : c->tiers) {
      if (t->worker.joinable()) t->worker.join();
    }
    if (c->t_pf.joinable()) c->t_pf.join();
    if (c->t_stage.joinable()) c->t_stage.join();
  }
  // Release the device cache arenas back to the devices.
  for (auto& c : ranks_) {
    for (auto& t : c->tiers) {
      if (t->gpu_base != nullptr) {
        (void)cluster_.device(c->rank).Free(t->gpu_base);
        t->gpu_base = nullptr;
      }
    }
  }
}

Engine::RankCtx& Engine::ctx(sim::Rank rank) {
  return *ranks_.at(static_cast<std::size_t>(rank));
}
const Engine::RankCtx& Engine::ctx(sim::Rank rank) const {
  return *ranks_.at(static_cast<std::size_t>(rank));
}

std::mt19937_64 Engine::RngFor(const RankCtx& ctx_, std::uint64_t stream,
                               std::uint64_t salt) const {
  // Distinct deterministic stream per rank and per worker: flush stage i
  // uses stream i, the prefetch side's store reads num_cache (T_PF's, or
  // the stage-in worker's when it owns them), direct paths num_cache + 1.
  const auto stride =
      static_cast<std::uint64_t>(stack_.num_cache_tiers()) + 2;
  return util::MakeRng(kRetrySeed ^ salt,
                       static_cast<std::uint64_t>(ctx_.rank) * stride + stream);
}

// ---------------------------------------------------------------------------
// Life-cycle / eviction metadata helpers (ctx.mu held)
// ---------------------------------------------------------------------------

Engine::Record Engine::NewRecord(RankCtx& ctx_, Version v,
                                 std::uint64_t size) const {
  Record rec;
  rec.version = v;
  rec.size = size;
  rec.res.resize(static_cast<std::size_t>(stack_.num_cache_tiers()));
  rec.durable.assign(static_cast<std::size_t>(stack_.num_durable_tiers()), 0);
  rec.fifo_seq = ++ctx_.seq_counter;
  rec.lru_seq = rec.fifo_seq;
  if (trace::enabled()) rec.state_since_ns = trace::Now();
  return rec;
}

void Engine::Advance(RankCtx& ctx_, Record& rec, CkptState to) {
  CKPT_ASSERT_HELD(ctx_.mu);
  const CkptState from = rec.state;
  const util::Status st = CheckTransition(from, to);
  if (!st.ok()) {
    CKPT_LOG(kError, "engine") << "rank " << ctx_.rank << " ckpt " << rec.version
                               << ": " << st.ToString();
    std::abort();  // engine invariant violation, never a user error
  }
  if (trace::enabled()) {
    // Dwell span of the outgoing state. Records created with tracing off
    // have no baseline timestamp; they start contributing from here on.
    if (rec.state_since_ns > 0) {
      trace::SpanSince(trace::Kind::kLifecycle, StateSpanName(from),
                       rec.state_since_ns, ctx_.rank, /*tier=*/-1, rec.version,
                       rec.size);
    }
    rec.state_since_ns = trace::Now();
  }
  ProbeTransition(ctx_, from, to);
  rec.state = to;
  NotifyState(ctx_);
  // Targeted reservation wakeups: entering CONSUMED may make every cached
  // copy evictable (condition (5)); leaving a fast-tier-pinning state
  // (condition (4)) unblocks fast-tier reservations.
  if (to == CkptState::kConsumed) {
    NotifyReserveAll(ctx_);
  } else if (!ctx_.tiers.empty() && StatePinsFastTier(from) &&
             !StatePinsFastTier(to)) {
    NotifyReserve(ctx_, 0);
  }
}

bool Engine::SafeBelow(const Record& rec, TierIndex tier) const {
  if (stack_.is_durable(tier)) return true;  // durable stores never evict
  for (std::size_t j = static_cast<std::size_t>(tier) + 1; j < rec.res.size();
       ++j) {
    if (rec.res[j].valid) return true;
  }
  return rec.AnyDurable();
}

bool Engine::ExcludedUntilSettled(const Record& rec, TierIndex tier) const {
  const Residency& res = rec.res[static_cast<std::size_t>(tier)];
  if (res.busy()) return true;
  // A Restore() is about to read this version. Between a stage-in landing
  // and the woken Restore re-taking the lock, the fresh copy would be the
  // cheapest victim of any reservation, and its loss costs a second read.
  return rec.restore_waiting;
}

bool Engine::ExcludedOn(const Record& rec, TierIndex tier) const {
  if (ExcludedUntilSettled(rec, tier)) return true;
  // Condition (4): a prefetched checkpoint is pinned on the fast tier until
  // consumed.
  return tier == 0 && StatePinsFastTier(rec.state);
}

bool Engine::EvictableNow(const Record& rec, TierIndex tier) const {
  if (ExcludedOn(rec, tier)) return false;
  if (SafeBelow(rec, tier)) return true;
  // A consumed checkpoint without a lower-tier copy may only be dropped
  // when condition (5) applies (discardable); otherwise durability still
  // requires its pending flushes, so the copy must survive until then.
  return rec.state == CkptState::kConsumed && options_.discard_after_restore;
}

double Engine::EtaSeconds(const RankCtx& ctx_, const Record& rec,
                          TierIndex tier) const {
  if (EvictableNow(rec, tier)) return 0.0;
  // The fragment is waiting on the flush pipeline: estimate the backlog
  // drain time on the link it is queued behind (predict_evictable, §4.2).
  const double bw = drain_bw_[static_cast<std::size_t>(tier)];
  if (bw <= 0) return 1e-6;
  return (static_cast<double>(
              ctx_.tiers[static_cast<std::size_t>(tier)]->backlog_bytes) +
          static_cast<double>(rec.size)) / bw;
}

CacheBuffer& Engine::BufferFor(RankCtx& ctx_, TierIndex tier,
                               ReservePurpose purpose) {
  CacheTierRt& t = *ctx_.tiers[static_cast<std::size_t>(tier)];
  const bool pf =
      options_.split_flush_prefetch && purpose == ReservePurpose::kPrefetch;
  return pf ? *t.prefetch_buf : *t.write_buf;
}

CacheBuffer::MetaFn Engine::MakeMetaFn(
    RankCtx& ctx_, TierIndex tier, const std::optional<std::uint64_t>& guard) {
  return [this, &ctx_, tier, &guard](EntryId id, FragmentView& v) {
    CKPT_ASSERT_HELD(ctx_.mu);
    auto it = ctx_.records.find(id);
    if (it == ctx_.records.end()) {
      v.excluded = true;  // defensive: unknown entry is never evicted
      return;
    }
    const Record& rec = it->second;
    v.excluded = ExcludedOn(rec, tier);
    if (rec.state == CkptState::kConsumed) {
      v.distance = kConsumedDistance;
    } else if (auto d = ctx_.hints.DistanceOf(rec.version)) {
      v.distance = static_cast<double>(*d);
      // Belady guard: staging must not evict a copy needed sooner than the
      // one it brings in — unless a promotion already pinned that version
      // on the fast tier, so this copy is no longer its source.
      if (guard && *d < *guard &&
          !(rec.res[0].valid && StatePinsFastTier(rec.state))) {
        v.excluded = true;
      }
    } else {
      v.distance = kUnhintedDistance;
    }
    v.eta = v.excluded ? 0.0 : EtaSeconds(ctx_, rec, tier);
    v.lru_seq = rec.lru_seq;
    v.fifo_seq = rec.fifo_seq;
  };
}

util::Status Engine::EvictVictims(RankCtx& ctx_, TierIndex tier,
                                  const std::vector<EntryId>& victims) {
  CKPT_ASSERT_HELD(ctx_.mu);
  for (EntryId id : victims) {
    auto it = ctx_.records.find(id);
    if (it == ctx_.records.end()) {
      return util::Internal("eviction victim has no record");
    }
    Record& rec = it->second;
    if (!EvictableNow(rec, tier)) {
      return util::Internal("eviction victim not evictable at commit time");
    }
    // Per-tier observability: count the drop here (under ctx_.mu, where both
    // the tier index and the record size are known) rather than inside
    // CacheBuffer, whose Release also serves flush rollbacks.
    ++ctx_.metrics.evictions_from_tier[static_cast<std::size_t>(tier)];
    ctx_.metrics.evicted_bytes_from_tier[static_cast<std::size_t>(tier)] +=
        rec.size;
    rec.res[static_cast<std::size_t>(tier)].Clear();
    trace::Flow(trace::Kind::kEviction, "evict:drop", rec.flow_id,
                trace::FlowPhase::kStep, ctx_.rank, static_cast<int>(tier),
                rec.version, rec.size);
    NoteStageable(ctx_, rec);
  }
  return util::OkStatus();
}

Engine::Record* Engine::NextStageTarget(RankCtx& ctx_) {
  CKPT_ASSERT_HELD(ctx_.mu);
  if (!ctx_.prefetch_started) return nullptr;
  for (std::size_t i = 0; const auto v = ctx_.hints.Peek(i); ++i) {
    auto it = ctx_.records.find(*v);
    if (it == ctx_.records.end()) continue;  // not written yet
    Record& rec = it->second;
    if (rec.AnyDurable() && !rec.AnyCached() && !rec.AnyCacheBusy() &&
        !rec.stage_claimed && !rec.prefetch_claimed && !rec.restore_waiting) {
      return &rec;
    }
  }
  return nullptr;
}

void Engine::NoteStageable(RankCtx& ctx_, const Record& rec) {
  CKPT_ASSERT_HELD(ctx_.mu);
  if (!stage_in_ || !ctx_.prefetch_started || rec.AnyCached()) return;
  const auto d = ctx_.hints.DistanceOf(rec.version);
  if (!d) return;
  NotifyStage(ctx_);
  if (!ctx_.stage_target) return;
  const auto target = ctx_.hints.DistanceOf(*ctx_.stage_target);
  if (!target || *d < *target) {
    ctx_.stage_target.reset();
    // The worker's reservation waits on the deepest tier's channel.
    NotifyReserve(ctx_, stack_.num_cache_tiers() - 1);
  }
}

// ---------------------------------------------------------------------------
// Tenant admission (DESIGN.md §12)
// ---------------------------------------------------------------------------

util::Status Engine::CheckTenantOpen(sim::Rank rank) const {
  const TenantCtx* t = tenant_registry_->Get(tenant_registry_->tenant_of(rank));
  if (t != nullptr && !t->open.load(std::memory_order_acquire)) {
    return util::FailedPrecondition("tenant '" + t->spec.name + "' is closed");
  }
  return util::OkStatus();
}

std::string Engine::TenantLabelOf(sim::Rank rank) const {
  const TenantCtx* t = tenant_registry_->Get(tenant_registry_->tenant_of(rank));
  return t != nullptr ? t->spec.name : std::string{};
}

std::string Engine::WorkerThreadName(const RankCtx& ctx_,
                                     std::string_view role) const {
  return TenantLabelOf(ctx_.rank) + "/r" + std::to_string(ctx_.rank) + "/" +
         std::string(role);
}

util::IoTag Engine::IoTagOf(const RankCtx& ctx_,
                            util::IoClass io_class) const noexcept {
  const TenantCtx* t =
      tenant_registry_->Get(tenant_registry_->tenant_of(ctx_.rank));
  if (t == nullptr) return util::IoTag{.io_class = io_class};
  return util::IoTag{t->id, t->spec.weight, io_class};
}

std::uint64_t Engine::TenantCacheUsed(TenantId id) const {
  const TenantCtx* t = tenant_registry_->Get(id);
  if (t == nullptr) return 0;
  const int ncache = stack_.num_cache_tiers();
  const int last = std::min(t->first_rank + t->num_ranks, num_ranks());
  std::uint64_t used = 0;
  for (int r = t->first_rank; r < last; ++r) {
    for (int i = 0; i < ncache; ++i) {
      used += CacheUsed(r, i);
    }
  }
  return used;
}

bool Engine::OverTenantQuota(const RankCtx& ctx_,
                             std::uint64_t size) const {
  const TenantCtx* t =
      tenant_registry_->Get(tenant_registry_->tenant_of(ctx_.rank));
  // Quota 0 (every legacy caller) skips the cross-rank usage sum entirely:
  // the single-tenant hot path pays one lock-free map lookup and a branch.
  if (t == nullptr || t->spec.quota_bytes == 0) return false;
  return TenantCacheUsed(t->id) + size > t->spec.quota_bytes;
}

std::uint64_t Engine::ShedForQuota(RankCtx& ctx_,
                                   std::unique_lock<util::CheckedMutex>& lock,
                                   TierIndex tier, ReservePurpose purpose,
                                   std::uint64_t need) {
  CKPT_ASSERT_HELD(ctx_.mu);
  (void)lock;
  CacheBuffer& buf = BufferFor(ctx_, tier, purpose);
  const CacheBuffer::TableSnapshot snap = buf.Snapshot();
  std::uint64_t freed = 0;
  for (const Fragment& frag : snap.frags) {
    if (freed >= need) break;
    if (frag.is_gap()) continue;
    auto it = ctx_.records.find(frag.id);
    if (it == ctx_.records.end() || !EvictableNow(it->second, tier)) continue;
    if (!EvictVictims(ctx_, tier, {frag.id}).ok()) continue;
    if (buf.Release(frag.id).ok()) freed += frag.size;
  }
  if (freed > 0) {
    trace::Instant(trace::Kind::kEviction, "evict:quota-shed", ctx_.rank, tier,
                   /*v=*/0, freed);
    NotifyReserve(ctx_, tier);
  }
  return freed;
}

util::Status Engine::CloseTenant(TenantId id) {
  const TenantCtx* t = tenant_registry_->Get(id);
  if (t == nullptr) {
    return util::NotFound("tenant " + std::to_string(id) + " unknown");
  }
  // Quiesce: wait for the tenant's in-flight flushes so its durable state
  // is settled, then flip the open flag — subsequent ops on its ranks fail.
  const int last = std::min(t->first_rank + t->num_ranks, num_ranks());
  for (int r = t->first_rank; r < last; ++r) {
    CKPT_RETURN_IF_ERROR(WaitForFlushes(r));
  }
  return tenant_registry_->Close(id);
}

util::StatusOr<std::uint64_t> Engine::ReserveOn(
    RankCtx& ctx_, std::unique_lock<util::CheckedMutex>& lock, TierIndex tier,
    ReservePurpose purpose, Version v, std::uint64_t size,
    const std::function<bool()>& abort, bool belady_guard) {
  CKPT_ASSERT_HELD(ctx_.mu);
  CacheTierRt& t = *ctx_.tiers[static_cast<std::size_t>(tier)];
  CacheBuffer& buf = BufferFor(ctx_, tier, purpose);
  // The guard distance is `v`'s own, refreshed every round: T_PF pops and
  // Restore drops hints while this call waits.
  std::optional<std::uint64_t> guard;
  const CacheBuffer::MetaFn meta = MakeMetaFn(ctx_, tier, guard);
  const Stopwatch wait_sw;
  double& wait_metric = purpose == ReservePurpose::kPrefetch
                            ? ctx_.metrics.reserve_wait_prefetch_s
                            : ctx_.metrics.reserve_wait_write_s;
  const auto charge_wait = [&] { wait_metric += wait_sw.ElapsedSec(); };
  // Hoisted out of the round loop: consecutive rounds whose table version is
  // unchanged (typically stale replans — the geometry didn't move, only the
  // annotations did) reuse the fragment list instead of re-copying it.
  CacheBuffer::TableSnapshot snap;
  bool have_snap = false;
  // Rounds spent blocked on the tenant's byte quota. Bounded: a tenant that
  // cannot shed enough (everything busy / pinned) is pushed to a deeper
  // tier rather than parked forever on a neighbour's progress.
  int quota_rounds = 0;
  for (int round = 0;; ++round) {
    ProbeAdd(ctx_.probe.reserve_rounds);
    const std::int64_t round_begin = util::NowNs();
    if (ctx_.shutdown) {
      charge_wait();
      return util::ShutdownError("engine stopping");
    }
    if (abort && abort()) {
      charge_wait();
      return util::Cancelled("reservation aborted");
    }
    if (belady_guard) {
      guard = ctx_.hints.DistanceOf(v);
      if (!guard) {
        charge_wait();
        return util::Cancelled("staged version no longer hinted");
      }
    }
    // Tenant admission (DESIGN.md §12): before competing for space, the
    // rank's tenant must have quota headroom across ALL its cache bytes.
    // Over quota, first shed this tenant's own evictable copies on this
    // tier (victims are structurally within the over-quota tenant — rank
    // buffers are single-tenant), then wait boundedly for its in-flight
    // transfers to settle.
    if (OverTenantQuota(ctx_, size)) {
      // Shedding ignores hint distances, so guarded reservations only wait.
      if (!belady_guard) ShedForQuota(ctx_, lock, tier, purpose, size);
      if (OverTenantQuota(ctx_, size)) {
        ProbeAdd(ctx_.probe.reserve_quota_waits);
        trace::Instant(trace::Kind::kEviction, "evict:quota", ctx_.rank, tier,
                       v, size);
        if (++quota_rounds >= kQuotaRoundsMax) {
          charge_wait();
          return util::CapacityExceeded("tenant cache quota exceeded");
        }
        const Stopwatch quota_sw;
        t.cv_reserve.wait_for(lock, kReplanMax);
        ctx_.metrics.reserve_wait_quota_s += quota_sw.ElapsedSec();
        continue;
      }
    }
    // Annotate the tier geometry with life-cycle metadata under the rank
    // lock, then run the O(N) policy scan with the rank lock DROPPED: the
    // scan is the expensive part of a reservation round, and holding ctx.mu
    // across it would stall every concurrent checkpoint/restore/flush on
    // this rank behind one tier's eviction planning.
    if (have_snap && buf.table_version() == snap.version) {
      // Same geometry as last round; only the annotations can have changed,
      // and those are recomputed below.
      ProbeAdd(ctx_.probe.reserve_snapshot_reuse);
    } else {
      snap = buf.Snapshot();
      have_snap = true;
    }
    const std::vector<FragmentView> views =
        CacheBuffer::AnnotateViews(snap.frags, meta);
    // A wait below ends at the first signal since these annotations, also
    // one sent while the lock is dropped for planning.
    const std::uint64_t seq = t.reserve_seq;
    const auto signalled = [&] {
      return ctx_.shutdown || t.reserve_seq != seq;
    };
    lock.unlock();
    auto plan = buf.PlanViews(views, size);
    lock.lock();
    if (ctx_.shutdown) {
      charge_wait();
      return util::ShutdownError("engine stopping");
    }
    if (abort && abort()) {
      charge_wait();
      return util::Cancelled("reservation aborted");
    }
    if (!plan.ok()) {
      if (plan.status().code() == util::ErrorCode::kCapacityExceeded) {
        charge_wait();
        return plan.status();  // caller falls back to a lower tier
      }
      // kUnavailable: every window crosses an excluded copy. When no copy
      // is excluded until settled, the exclusions are prefetch pins that
      // only restores release. A single-threaded rank's writer would wait
      // forever on its own restores, so every write falls back to a lower
      // tier instead, also on ranks whose other threads restore. Otherwise
      // wait for a transition on THIS tier's channel.
      if (purpose == ReservePurpose::kWrite &&
          buf.table_version() == snap.version &&
          std::none_of(snap.frags.begin(), snap.frags.end(),
                       [&](const Fragment& f) {
                         if (f.is_gap()) return false;
                         const auto it = ctx_.records.find(f.id);
                         return it == ctx_.records.end() ||
                                ExcludedUntilSettled(it->second, tier);
                       })) {
        charge_wait();
        return util::CapacityExceeded("every window crosses a prefetch pin");
      }
      trace::Instant(trace::Kind::kEviction, "evict:blocked", ctx_.rank, tier,
                     v, size);
      t.cv_reserve.wait_for(lock, kReplanMax, signalled);
      continue;
    }
    if (plan->wait_eta <= 0.0) {
      // The plan was made against `snap` with the lock dropped. Buffer
      // mutations only happen on threads holding ctx.mu, so under the lock
      // the version is stable: if it still matches and every victim is
      // still evictable, committing is as atomic as planning under the lock
      // ever was. Otherwise the window is stale — re-plan immediately.
      bool stale = buf.table_version() != snap.version;
      std::uint64_t freed = 0;
      for (std::size_t i = 0; !stale && i < plan->victims.size(); ++i) {
        auto it = ctx_.records.find(plan->victims[i]);
        stale = it == ctx_.records.end() || !EvictableNow(it->second, tier);
        if (!stale) freed += it->second.size;
      }
      if (!stale && options_.test_force_stale_plan &&
          options_.test_force_stale_plan(round)) {
        stale = true;  // test hook: exercise the replan/snapshot-reuse path
      }
      // The quota check at the top of the round ran before the lock was
      // dropped for planning; another reservation of this tenant may have
      // committed since. Re-check what this commit adds, net of its victims.
      if (!stale && size > freed && OverTenantQuota(ctx_, size - freed)) {
        stale = true;
      }
      if (stale) {
        ProbeAdd(ctx_.probe.reserve_plans_stale);
        trace::Instant(trace::Kind::kEviction, "evict:stale", ctx_.rank, tier,
                       v, size);
        continue;
      }
      CKPT_RETURN_IF_ERROR(EvictVictims(ctx_, tier, plan->victims));
      auto offset = buf.Commit(*plan, v, size);
      charge_wait();
      if (!offset.ok()) return offset.status();
      ctx_.metrics.reserve_round_hist.Add(
          static_cast<double>(util::NowNs() - round_begin) / 1e9);
      trace::SpanSince(trace::Kind::kEviction, "evict:round", round_begin,
                       ctx_.rank, tier, v, size, plan->p_score, plan->s_score);
      return *offset;
    }
    // Best window still needs time; sleep roughly that long, then re-plan
    // (a better window may have appeared — see cache_buffer.hpp). The
    // re-plan round itself is a complete span carrying the candidate
    // window's scores; the instant marks the ETA it chose to wait out.
    ctx_.metrics.reserve_round_hist.Add(
        static_cast<double>(util::NowNs() - round_begin) / 1e9);
    trace::SpanSince(trace::Kind::kEviction, "evict:round", round_begin,
                     ctx_.rank, tier, v, size, plan->p_score, plan->s_score);
    trace::Instant(trace::Kind::kEviction, "evict:wait", ctx_.rank, tier, v,
                   size, plan->wait_eta, plan->s_score);
    auto wait = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(plan->wait_eta));
    wait = std::clamp<std::chrono::steady_clock::duration>(wait, kReplanMin,
                                                           kReplanMax);
    t.cv_reserve.wait_for(lock, wait, signalled);
  }
}

void Engine::FinishFlush(RankCtx& ctx_, Record& rec) {
  CKPT_ASSERT_HELD(ctx_.mu);
  if (!rec.flush_done) {
    rec.flush_done = true;
    --ctx_.inflight_flushes;
  }
  // Every FinishFlush caller arrives with the record either degraded or
  // durable at some tier; both are lineage terminals.
  if (rec.degraded) {
    LineageTerminal(ctx_, rec, LineageOutcome::kDegraded, "flow:degraded",
                    rec.first_durable_tier);
  } else if (rec.AnyDurable()) {
    LineageTerminal(ctx_, rec, LineageOutcome::kDurable, "flow:durable",
                    stack_.terminal());
  }
  if (rec.state == CkptState::kWriteInProgress) {
    Advance(ctx_, rec, CkptState::kWriteComplete);
    if (!rec.restore_waiting && !rec.prefetch_claimed) {
      Advance(ctx_, rec, CkptState::kFlushed);
    }
    // Otherwise the pending reader performs WRITE_COMPLETE -> READ_COMPLETE.
  }
  NotifyState(ctx_);  // WaitForFlushes watches inflight_flushes
}

void Engine::CancelFlush(RankCtx& ctx_, Record& rec, TierIndex tier,
                         LineageOutcome outcome, const char* flow_name) {
  CKPT_ASSERT_HELD(ctx_.mu);
  ctx_.tiers[static_cast<std::size_t>(tier)]->backlog_bytes -= rec.size;
  ++ctx_.metrics.flushes_cancelled;
  if (!rec.flush_done) {
    rec.flush_done = true;
    --ctx_.inflight_flushes;
  }
  LineageTerminal(ctx_, rec, outcome, flow_name, tier);
  NotifyState(ctx_);  // WaitForFlushes watches inflight_flushes
}

void Engine::HandOffFlush(RankCtx& ctx_,
                          std::unique_lock<util::CheckedMutex>& lock,
                          Record& rec, TierIndex tier) {
  const Version v = rec.version;
  lock.unlock();
  // Depth bumps before Push so the worker-side decrement (one per
  // iteration, after the work is disposed of) can never underflow.
  std::atomic<std::uint64_t>& depth =
      ctx_.tier_probe[static_cast<std::size_t>(tier)].flush_queue_depth;
  ProbeAdd(depth);
  if (ctx_.tiers[static_cast<std::size_t>(tier)]->flush_q.Push(v)) return;
  // Shutdown() closed the queue: nothing will ever pop this work.
  ProbeSub(depth);
  lock.lock();
  CancelFlush(ctx_, rec, tier, LineageOutcome::kErased, "flow:erased:shutdown");
  lock.unlock();
}

// ---------------------------------------------------------------------------
// Failure model helpers (DESIGN.md §8)
// ---------------------------------------------------------------------------

Engine::TerminalPutResult Engine::PutTerminal(RankCtx& ctx_, Version v,
                                              sim::ConstBytePtr src,
                                              std::uint64_t size,
                                              bool on_device,
                                              std::mt19937_64& rng) {
  TerminalPutResult r;
  r.ok.assign(static_cast<std::size_t>(stack_.num_durable_tiers()), 0);
  const storage::ObjectKey key = KeyOf(ctx_.rank, v);
  const sim::Topology& topo = cluster_.topology();
  const sim::GpuId gpu = topo.gpu_of_rank(ctx_.rank);
  // A device-memory source crosses PCIe: under GPUDirect as DMA straight to
  // the drive, otherwise through a transient pinned buffer (the drive cannot
  // read device memory) that pays its registration and host DDR.
  std::optional<sim::PinnedArena> staging;
  if (on_device && options_.gpudirect) {
    sim::ChargePcieLinkOnly(topo, gpu, size, sim::Topology::LinkDir::kD2H);
  } else if (on_device) {
    staging.emplace(topo, gpu.node, size);
    r.staging = sim::ThrottledMemcpy(topo, gpu, staging->data(), src, size,
                                     sim::MemcpyKind::kD2H);
    if (!r.staging.ok()) {
      CKPT_LOG(kError, "flush") << "staging copy failed: " << r.staging;
      return r;
    }
    src = staging->data();
  }
  // Every durable stage up to the terminal tier is attempted, even when a
  // shallower one failed: a surviving deeper copy still makes the
  // checkpoint durable.
  for (int d = 0; d <= stack_.terminal_ordinal(); ++d) {
    storage::ObjectStore& store = *stack_.durable_store(d);
    // Per-tier span ("flush:ssd", "flush:remote", ...) covering the put
    // including its engine-level retries, so slow terminal tiers show up
    // attributed in the trace rather than folded into the drain stage.
    trace::Span span(trace::Kind::kFlush,
                     durable_span_names_[static_cast<std::size_t>(d)],
                     ctx_.rank, stack_.durable_index(d), v, size);
    const util::RetryOutcome out = util::RetryWithBackoff(
        options_.flush_retry, rng, [&] { return store.Put(key, src, size); });
    r.retries += out.retries();
    if (!out.ok()) span.Cancel();
    if (out.ok()) {
      r.ok[static_cast<std::size_t>(d)] = 1;
    } else {
      ++r.failures;
      CKPT_LOG(kWarn, "flush")
          << "rank " << ctx_.rank << " ckpt " << v << ": "
          << stack_.name(static_cast<std::size_t>(stack_.durable_index(d)))
          << " put failed after " << out.attempts
          << " attempt(s): " << out.status.ToString();
    }
  }
  return r;
}

void Engine::ApplyFlushResult(RankCtx& ctx_, Record& rec,
                              const TerminalPutResult& r) {
  ctx_.metrics.flush_failures += r.failures;
  if (r.retries > 0) {
    ProbeAdd(ctx_.probe.flush_retries, r.retries);
    trace::Instant(trace::Kind::kRetry, "flush:retries", ctx_.rank,
                   stack_.terminal(), rec.version, rec.size,
                   static_cast<double>(r.retries));
  }
  const std::size_t n = std::min(r.ok.size(), rec.durable.size());
  bool newly_durable = false;
  for (std::size_t d = 0; d < n; ++d) {
    if (r.ok[d] && !rec.durable[d]) {
      rec.durable[d] = 1;
      newly_durable = true;
      const auto idx =
          static_cast<std::size_t>(stack_.durable_index(static_cast<int>(d)));
      ProbeAdd(ctx_.tier_probe[idx].flush_bytes, rec.size);
      LineageDurableAck(ctx_, rec, d);
    }
  }
  // A fresh durable copy makes every cached copy of this record SafeBelow,
  // i.e. potentially evictable: wake blocked reservations.
  if (newly_durable) NotifyReserveAll(ctx_);
  const bool reached =
      rec.durable[static_cast<std::size_t>(stack_.terminal_ordinal())] != 0;
  if (reached) {
    ++ctx_.metrics.flushes_completed;
    FinishFlush(ctx_, rec);
    return;
  }
  // The terminal tier is permanently unreachable for this checkpoint.
  const bool cached = rec.AnyCached();
  // Strict mode may only drop the copies of a record no concurrent reader
  // or transfer is touching; anything in flight forces the degrade path.
  const bool strict_drop_safe =
      rec.state == CkptState::kWriteInProgress && !rec.restore_waiting &&
      !rec.prefetch_claimed && !rec.AnyCacheBusy();
  if (rec.AnyDurable() ||
      (cached && (options_.degraded_durability || !strict_drop_safe))) {
    // Graceful degradation: the checkpoint stays durable at the deepest
    // tier still holding a copy. SafeBelow() already refuses to evict a
    // cached copy with no durable backing, so the surviving copy is pinned
    // without any extra bookkeeping and Restore() serves it normally.
    rec.degraded = true;
    ProbeAdd(ctx_.probe.tier_degradations);
    int deepest = -1;
    for (int d = stack_.num_durable_tiers() - 1; d >= 0; --d) {
      if (rec.durable[static_cast<std::size_t>(d)]) {
        deepest = stack_.durable_index(d);
        break;
      }
    }
    if (deepest < 0) {
      for (int j = stack_.num_cache_tiers() - 1; j >= 0; --j) {
        if (rec.res[static_cast<std::size_t>(j)].valid) {
          deepest = j;
          break;
        }
      }
    }
    CKPT_LOG(kWarn, "flush")
        << "rank " << ctx_.rank << " ckpt " << rec.version
        << ": terminal tier unreachable; degraded durability at tier "
        << stack_.name(static_cast<std::size_t>(deepest));
    trace::Instant(trace::Kind::kRetry, "tier:degraded", ctx_.rank, deepest,
                   rec.version, rec.size);
    FinishFlush(ctx_, rec);
    return;
  }
  // No surviving copy (or strict mode): the checkpoint is lost.
  MarkFlushFailed(ctx_, rec);
}

void Engine::MarkFlushFailed(RankCtx& ctx_, Record& rec) {
  CKPT_ASSERT_HELD(ctx_.mu);
  bool reclaimed = false;
  for (std::size_t j = 0; j < rec.res.size(); ++j) {
    if (rec.res[j].valid) {
      (void)BufferFor(ctx_, static_cast<TierIndex>(j), rec.res[j].part)
          .Release(rec.version);
      rec.res[j].Clear();
      reclaimed = true;
    }
  }
  if (reclaimed) NotifyReserveAll(ctx_);  // cache space was freed
  if (!rec.flush_done) {
    rec.flush_done = true;
    --ctx_.inflight_flushes;
  }
  if (rec.state == CkptState::kWriteInProgress) {
    ++ctx_.flush_failed_count;
    ProbeAdd(ctx_.probe.checkpoints_lost);
    CKPT_LOG(kError, "flush")
        << "rank " << ctx_.rank << " ckpt " << rec.version
        << ": flush permanently failed; checkpoint lost";
    trace::Instant(trace::Kind::kRetry, "ckpt:lost", ctx_.rank, /*tier=*/-1,
                   rec.version, rec.size);
    LineageTerminal(ctx_, rec, LineageOutcome::kLost, "flow:lost");
    Advance(ctx_, rec, CkptState::kFlushFailed);  // notifies waiters
  } else {
    // The data already reached the application (restore overtook the flush);
    // nothing durable remains but nothing is owed either.
    LineageTerminal(ctx_, rec, LineageOutcome::kErased, "flow:erased");
    NotifyState(ctx_);
  }
}

Engine::FetchResult Engine::GetDurable(
    RankCtx& ctx_, Version v, sim::BytePtr dst, std::uint64_t size,
    bool on_device, const std::vector<unsigned char>& durable,
    std::mt19937_64& rng, const std::function<bool()>& abort) {
  const storage::ObjectKey key = KeyOf(ctx_.rank, v);
  const sim::Topology& topo = cluster_.topology();
  const sim::GpuId gpu = topo.gpu_of_rank(ctx_.rank);
  // A device-memory destination crosses PCIe: under GPUDirect as DMA
  // straight from the drive, otherwise through a transient pinned buffer
  // (the drive cannot write device memory) that pays its registration and
  // host DDR.
  std::optional<sim::PinnedArena> staging;
  if (on_device && !options_.gpudirect) staging.emplace(topo, gpu.node, size);
  const sim::BytePtr into = staging ? staging->data() : dst;
  FetchResult r;
  r.status =
      util::NotFound("checkpoint " + key.ToString() + " has no durable copy");
  int shallowest = -1;
  for (int d = 0; d < stack_.num_durable_tiers() &&
                  d < static_cast<int>(durable.size());
       ++d) {
    if (!durable[static_cast<std::size_t>(d)]) continue;
    if (shallowest < 0) shallowest = d;
    storage::ObjectStore& store = *stack_.durable_store(d);
    const util::RetryOutcome out = util::RetryWithBackoff(
        options_.fetch_retry, rng, [&] { return store.Get(key, into, size); },
        abort);
    r.retries += out.retries();
    r.status = out.status;
    if (out.ok()) {
      r.served = stack_.durable_index(d);
      r.fell_back = d != shallowest;
      break;
    }
    CKPT_LOG(kWarn, "fetch")
        << "rank " << ctx_.rank << " ckpt " << v << ": "
        << stack_.name(static_cast<std::size_t>(stack_.durable_index(d)))
        << " read failed after " << out.attempts
        << " attempt(s): " << out.status.ToString();
  }
  if (!r.status.ok() || !on_device) return r;
  if (staging) {
    r.status = sim::ThrottledMemcpy(topo, gpu, dst, staging->data(), size,
                                    sim::MemcpyKind::kH2D);
  } else {
    sim::ChargePcieLinkOnly(topo, gpu, size, sim::Topology::LinkDir::kH2D);
  }
  return r;
}

void Engine::ApplyFetchResult(RankCtx& ctx_, Version v, std::uint64_t size,
                              const FetchResult& r) {
  CKPT_ASSERT_HELD(ctx_.mu);
  if (r.retries > 0) {
    ProbeAdd(ctx_.probe.fetch_retries, r.retries);
    trace::Instant(trace::Kind::kRetry, "fetch:retries", ctx_.rank, r.served, v,
                   size, static_cast<double>(r.retries));
  }
  if (r.fell_back && r.status.ok()) ++ctx_.metrics.fetch_fallbacks;
}

void Engine::ReleasePin(RankCtx& ctx_, Record& rec) {
  CKPT_ASSERT_HELD(ctx_.mu);
  if (rec.pinned_counted) {
    ctx_.prefetched_pinned_bytes -= rec.size;
    --ctx_.prefetched_pinned_count;
    rec.pinned_counted = false;
    NotifyPrefetch(ctx_);  // T_PF may be parked on the pin cap
  }
}

void Engine::AddPin(RankCtx& ctx_, Record& rec) {
  CKPT_ASSERT_HELD(ctx_.mu);
  ctx_.prefetched_pinned_bytes += rec.size;
  ++ctx_.prefetched_pinned_count;
  rec.pinned_counted = true;
}

util::StatusOr<Engine::Record*> Engine::FindOrImport(RankCtx& ctx_, Version v) {
  CKPT_ASSERT_HELD(ctx_.mu);
  auto it = ctx_.records.find(v);
  if (it != ctx_.records.end()) return &it->second;
  // Restart path: the object may exist on the durable stores from a
  // previous engine lifetime. The shallowest tier holding it wins.
  const storage::ObjectKey key = KeyOf(ctx_.rank, v);
  std::uint64_t size = 0;
  int found = -1;
  for (int d = 0; d < stack_.num_durable_tiers(); ++d) {
    if (auto s = stack_.durable_store(d)->Size(key); s.ok()) {
      size = *s;
      found = d;
      break;
    }
  }
  if (found < 0) {
    return util::NotFound("checkpoint " + key.ToString() + " unknown");
  }
  Record rec = NewRecord(ctx_, v, size);
  rec.state = CkptState::kFlushed;
  rec.durable[static_cast<std::size_t>(found)] = 1;
  rec.flush_done = true;
  auto [nit, inserted] = ctx_.records.emplace(v, std::move(rec));
  (void)inserted;
  ProbeEnterState(ctx_, CkptState::kFlushed);
  NoteStageable(ctx_, nit->second);
  return &nit->second;
}

std::uint64_t Engine::ComputePrefetchDistance(const RankCtx& ctx_) const {
  // Fig. 7 metric: successor checkpoints already promoted to the fast
  // cache tier and pinned for consumption. The prefetcher promotes in hint
  // order, so the pinned set is exactly the run of successive hints served
  // ahead of the application (modulo deviation, where the count is an
  // upper bound).
  return ctx_.prefetched_pinned_count;
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

util::Status Engine::Checkpoint(sim::Rank rank, Version v, sim::ConstBytePtr src,
                                std::uint64_t size) {
  if (src == nullptr || size == 0) {
    return util::InvalidArgument("Checkpoint: empty payload");
  }
  CKPT_RETURN_IF_ERROR(CheckTenantOpen(rank));
  trace::Span app_span(trace::Kind::kApp, "app:checkpoint", rank, /*tier=*/-1,
                       v, size);
  const Stopwatch sw;
  RankCtx& c = ctx(rank);
  const util::ScopedIoTag io_tag(IoTagOf(c, util::IoClass::kDemand));
  const sim::GpuId gpu = cluster_.topology().gpu_of_rank(rank);
  const int ncache = stack_.num_cache_tiers();
  std::unique_lock lock(c.mu);
  if (c.shutdown) return util::ShutdownError("engine stopping");
  if (c.records.count(v) != 0) {
    return util::AlreadyExists("checkpoint version " + std::to_string(v) +
                               " already written (checkpoints are immutable)");
  }
  Record& rec = (c.records[v] = NewRecord(c, v, size));
  ProbeEnterState(c, CkptState::kInit);
  Advance(c, rec, CkptState::kWriteInProgress);
  LineageAdmit(c, rec);
  ++c.inflight_flushes;
  // T_PF may be parked on a hint for this (until now unwritten) version.
  NotifyPrefetch(c);

  auto cleanup_failure = [&](const util::Status& st) {
    --c.inflight_flushes;
    ProbeLeaveState(c, rec.state);
    // Admission is already on the books; the record leaving the table is a
    // terminal, not an orphan.
    LineageTerminal(c, rec, LineageOutcome::kErased, "flow:erased");
    c.records.erase(v);
    NotifyState(c);       // WaitForFlushes
    NotifyPrefetch(c);    // a parked hint for v will never be served
    NotifyReserveAll(c);  // any released reservation freed cache space
    return st;
  };

  // Fast path: into the shallowest cache tier with room, then hand off to
  // its flush stage (§4.3.2). Oversize checkpoints fall through to deeper
  // (larger) cache tiers.
  int placed = -1;
  std::uint64_t off = 0;
  for (int ci = 0; ci < ncache; ++ci) {
    auto o = ReserveOn(c, lock, ci, ReservePurpose::kWrite, v, size,
                       /*abort=*/{});
    if (o.ok()) {
      placed = ci;
      off = *o;
      break;
    }
    if (o.status().code() != util::ErrorCode::kCapacityExceeded) {
      return cleanup_failure(o.status());
    }
  }

  if (placed >= 0) {
    Residency& rr = rec.res[static_cast<std::size_t>(placed)];
    rr.offset = off;
    rr.io_pending = true;
    rr.part = ReservePurpose::kWrite;
    sim::BytePtr dst = BufferFor(c, placed, ReservePurpose::kWrite).PtrAt(off);
    // The application source lives in device memory: device-tier writes are
    // D2D, pinned-host-tier writes cross PCIe.
    const sim::MemcpyKind kind =
        stack_.is_device(placed) ? sim::MemcpyKind::kD2D : sim::MemcpyKind::kD2H;
    lock.unlock();
    const util::Status st = sim::ThrottledMemcpy(cluster_.topology(), gpu, dst,
                                                 src, size, kind);
    lock.lock();
    rr.io_pending = false;
    if (!st.ok()) {
      (void)BufferFor(c, placed, ReservePurpose::kWrite).Release(v);
      rr.Clear();
      return cleanup_failure(st);
    }
    rr.valid = true;
    c.tiers[static_cast<std::size_t>(placed)]->backlog_bytes += size;
    ProbeAdd(c.tier_probe[static_cast<std::size_t>(placed)].flush_bytes, size);
    // T_PF may be in its landing wait for this version. The fresh copy is
    // not evictable yet (no durable backing), so no reservation wakeup.
    NotifyPrefetch(c);
    HandOffFlush(c, lock, rec, placed);
  } else {
    // Oversize for every cache tier: synchronous write-through from the
    // application's device buffer to the durable store(s).
    lock.unlock();
    std::mt19937_64 rng = RngFor(c, static_cast<std::uint64_t>(ncache) + 1, v);
    const TerminalPutResult r =
        PutTerminal(c, v, src, size, /*on_device=*/true, rng);
    lock.lock();
    if (!r.staging.ok()) return cleanup_failure(r.staging);
    if (std::find(r.ok.begin(), r.ok.end(), 1) == r.ok.end()) {
      // Nothing durable and nothing cached. The caller still owns the
      // source buffer, so surface the failure instead of losing data.
      c.metrics.flush_failures += r.failures;
      ProbeAdd(c.probe.flush_retries, r.retries);
      return cleanup_failure(util::IoError(
          "write-through flush of checkpoint " + std::to_string(v) +
          " failed on every durable tier"));
    }
    ApplyFlushResult(c, rec, r);
    NoteStageable(c, rec);  // quota-forced write-through may still fit a cache
  }

  if (!lock.owns_lock()) lock.lock();
  c.metrics.ckpt_block_s.Add(sw.ElapsedSec());
  ProbeAdd(c.probe.checkpoints);
  ProbeAdd(c.probe.bytes_checkpointed, size);
  return util::OkStatus();
}

util::Status Engine::Restore(sim::Rank rank, Version v, sim::BytePtr dst,
                             std::uint64_t capacity) {
  if (dst == nullptr) return util::InvalidArgument("Restore: null buffer");
  CKPT_RETURN_IF_ERROR(CheckTenantOpen(rank));
  trace::Span app_span(trace::Kind::kApp, "app:restore", rank, /*tier=*/-1, v);
  const Stopwatch sw;
  RankCtx& c = ctx(rank);
  const util::ScopedIoTag io_tag(IoTagOf(c, util::IoClass::kDemand));
  const sim::GpuId gpu = cluster_.topology().gpu_of_rank(rank);
  std::unique_lock lock(c.mu);
  if (c.shutdown) return util::ShutdownError("engine stopping");

  auto rec_or = FindOrImport(c, v);
  if (!rec_or.ok()) return rec_or.status();
  Record& rec = **rec_or;
  if (capacity < rec.size) {
    return util::InvalidArgument("Restore: buffer of " + std::to_string(capacity) +
                                 " bytes < checkpoint size " +
                                 std::to_string(rec.size));
  }

  if (rec.state == CkptState::kFlushFailed) {
    return util::IoError("checkpoint " + std::to_string(v) +
                         " was lost: its flush permanently failed on every "
                         "durable tier");
  }

  const std::uint64_t pdist = ComputePrefetchDistance(c);
  rec.restore_waiting = true;
  Touch(c, rec);
  // Every T_PF wait on cv_prefetch concerns its head version, so only a
  // restore of that version can unblock it: wake it for no other.
  const auto wake_prefetcher_if_head = [&c, v] {
    if (c.hints.Head() == std::optional<Version>(v)) NotifyPrefetch(c);
  };
  wake_prefetcher_if_head();
  // Deviation-proofing: this read satisfies its pending hint, if any.
  if (c.hints.Drop(v)) ProbeSub(c.probe.restore_queue_depth);
  // restore_waiting aborts T_PF's stuck promotions and blocked
  // reservations; wake the reservations so the abort is prompt.
  NotifyReserveAll(c);
  const auto stop_waiting = [&] {
    rec.restore_waiting = false;
    wake_prefetcher_if_head();  // a re-hint may keep T_PF parked on `v`
  };

  // If the prefetcher owns an in-flight promotion or stage-in of this
  // version, wait for it rather than issuing a duplicate transfer (§4.3.2).
  // The prefetcher aborts stuck promotions when it sees restore_waiting,
  // and a stage-in is claimed only once its store read starts, so this wait
  // is bounded.
  bool waited_promotion = false;
  while (((rec.prefetch_claimed && !rec.res.empty() && !rec.res[0].valid) ||
          rec.stage_claimed) &&
         !c.shutdown) {
    waited_promotion = true;
    // Promotion completion/rollback is an Advance; a stage-in landing
    // notifies this channel itself.
    c.cv_state.wait(lock);
  }
  if (c.shutdown) {
    stop_waiting();
    return util::ShutdownError("engine stopping");
  }

  // Serve from the fastest tier holding the data.
  int src_tier = -1;
  for (std::size_t j = 0; j < rec.res.size(); ++j) {
    if (rec.res[j].valid) {
      src_tier = static_cast<int>(j);
      break;
    }
  }

  util::Status st;
  if (src_tier >= 0) {
    Residency& rr = rec.res[static_cast<std::size_t>(src_tier)];
    ++rr.read_refs;
    sim::ConstBytePtr src = BufferFor(c, src_tier, rr.part).PtrAt(rr.offset);
    const sim::MemcpyKind kind = stack_.is_device(src_tier)
                                     ? sim::MemcpyKind::kD2D
                                     : sim::MemcpyKind::kH2D;
    lock.unlock();
    st = sim::ThrottledMemcpy(cluster_.topology(), gpu, dst, src, rec.size,
                              kind);
    lock.lock();
    --rr.read_refs;
    NotifyReserve(c, src_tier);  // the copy may have become evictable
    if (st.ok()) {
      ProbeAdd(c.tier_probe[static_cast<std::size_t>(src_tier)].restores);
      trace::Flow(trace::Kind::kApp, "restore:serve", rec.flow_id,
                  trace::FlowPhase::kStep, c.rank, src_tier, v, rec.size);
    }
  } else if (rec.AnyDurable()) {
    const std::vector<unsigned char> durable = rec.durable;
    const std::uint64_t size = rec.size;
    std::mt19937_64 rng = RngFor(
        c, static_cast<std::uint64_t>(stack_.num_cache_tiers()) + 1, v);
    // Direct read into the application's device buffer. Without GPUDirect
    // its unplanned pinned staging is a genuine penalty of deviating from
    // the hints / running without foreknowledge.
    lock.unlock();
    const FetchResult r = GetDurable(c, v, dst, size, /*on_device=*/true,
                                     durable, rng, /*abort=*/{});
    lock.lock();
    ApplyFetchResult(c, v, size, r);
    st = r.status;
    if (st.ok() && r.served >= 0) {
      ProbeAdd(c.tier_probe[static_cast<std::size_t>(r.served)].restores);
      trace::Flow(trace::Kind::kApp, "restore:serve", rec.flow_id,
                  trace::FlowPhase::kStep, c.rank, r.served, v, size);
    }
  } else {
    stop_waiting();
    return util::FailedPrecondition(
        "checkpoint " + std::to_string(v) +
        " was consumed and discarded; no copy remains on any tier");
  }

  if (!st.ok()) {
    stop_waiting();
    return st;
  }

  // FSM: route to CONSUMED through READ_COMPLETE (Figure 1 paths).
  if (rec.state != CkptState::kReadComplete) {
    Advance(c, rec, CkptState::kReadComplete);
  }
  Advance(c, rec, CkptState::kConsumed);
  ReleasePin(c, rec);
  if (waited_promotion) ++c.metrics.restores_waited_promotion;

  ++c.restore_counter;
  app_span.SetBytes(rec.size);
  app_span.SetTier(src_tier);
  c.metrics.restore_block_s.Add(sw.ElapsedSec());
  ProbeAdd(c.probe.restores);
  ProbeAdd(c.probe.bytes_restored, rec.size);
  c.metrics.restore_series.push_back(
      RestorePoint{c.restore_counter - 1, v, rec.size, pdist});
  // Advance and ReleasePin above already woke the state/reserve channels.
  stop_waiting();
  NoteStageable(c, rec);  // a later re-read hint of a direct-served copy
  return util::OkStatus();
}

util::StatusOr<std::uint64_t> Engine::RecoverSize(sim::Rank rank, Version v) {
  RankCtx& c = ctx(rank);
  std::unique_lock lock(c.mu);
  auto rec_or = FindOrImport(c, v);
  if (!rec_or.ok()) return rec_or.status();
  return (*rec_or)->size;
}

util::Status Engine::PrefetchEnqueue(sim::Rank rank, Version v) {
  CKPT_RETURN_IF_ERROR(CheckTenantOpen(rank));
  RankCtx& c = ctx(rank);
  std::lock_guard lock(c.mu);
  if (c.shutdown) return util::ShutdownError("engine stopping");
  c.hints.Enqueue(v);
  ProbeAdd(c.probe.restore_queue_depth);
  NotifyPrefetch(c);
  // An appended hint is never sooner than a target already picked: only an
  // idle stage-in worker needs waking.
  if (c.prefetch_started) NotifyStage(c);
  return util::OkStatus();
}

util::Status Engine::PrefetchStart(sim::Rank rank) {
  RankCtx& c = ctx(rank);
  std::lock_guard lock(c.mu);
  if (c.shutdown) return util::ShutdownError("engine stopping");
  c.prefetch_started = true;
  NotifyPrefetch(c);
  NotifyStage(c);
  return util::OkStatus();
}

util::Status Engine::WaitForFlushes(sim::Rank rank) {
  const Stopwatch sw;
  RankCtx& c = ctx(rank);
  std::unique_lock lock(c.mu);
  c.cv_state.wait(lock, [&] { return c.inflight_flushes == 0 || c.shutdown; });
  c.metrics.wait_for_flush_s += sw.ElapsedSec();
  if (c.shutdown && c.inflight_flushes != 0) {
    return util::ShutdownError("engine stopped with flushes pending");
  }
  if (c.flush_failed_count > 0) {
    return util::IoError(
        std::to_string(c.flush_failed_count) +
        " checkpoint(s) permanently failed to flush and were lost");
  }
  return util::OkStatus();
}

RankMetrics Engine::metrics(sim::Rank rank) const { return MetricsSnapshot(rank); }

RankMetrics Engine::MetricsSnapshot(sim::Rank rank) const {
  constexpr auto relax = std::memory_order_relaxed;
  const RankCtx& c = ctx(rank);
  std::lock_guard lock(c.mu);
  // The counters live only in the cells; every bump of them runs under
  // ctx.mu, so the values read here are exact and mutually consistent.
  RankMetrics m = c.metrics;
  for (const SharedCounter& sc : kSharedCounters) {
    m.*sc.metric = (c.probe.*sc.cell).load(relax);
  }
  m.flush_bytes_to_tier.resize(stack_.size());
  m.restores_from_tier.resize(stack_.size());
  m.durability_lag.resize(stack_.size());
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    m.flush_bytes_to_tier[i] = c.tier_probe[i].flush_bytes.load(relax);
    m.restores_from_tier[i] = c.tier_probe[i].restores.load(relax);
    if (stack_.is_durable(static_cast<TierIndex>(i))) {
      m.durability_lag[i] = LoadLag(c.tier_probe[i]);
    }
  }
  return m;
}

util::telemetry::RankSample Engine::Probe(sim::Rank rank) const {
  // The whole point of this accessor: NO rank-lock acquisition. Every read
  // is a relaxed atomic load (or CacheUsed's own leaf-locked probe), so a
  // sampler thread can call it at arbitrary frequency without ever
  // contending with Checkpoint/Restore/flush/prefetch.
  constexpr auto relax = std::memory_order_relaxed;
  const RankCtx& c = ctx(rank);
  util::telemetry::RankSample p;
  p.rank = rank;
  p.tenant = TenantLabelOf(rank);
  p.state_occupancy.resize(kCkptStateCount, 0);
  for (std::size_t s = 0; s < kCkptStateCount; ++s) {
    p.state_occupancy[s] = c.probe.state_occupancy[s].load(relax);
  }
  p.last_transition_ns = c.probe.last_transition_ns.load(relax);
  p.restore_queue_depth = c.probe.restore_queue_depth.load(relax);
  for (const SharedCounter& sc : kSharedCounters) {
    p.*sc.sample = (c.probe.*sc.cell).load(relax);
  }
  p.checkpoints = c.probe.checkpoints.load(relax);
  p.restores = c.probe.restores.load(relax);
  p.tiers.resize(stack_.size());
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    util::telemetry::TierSample& tp = p.tiers[i];
    const TierCells& cells = c.tier_probe[i];
    tp.flush_queue_depth = cells.flush_queue_depth.load(relax);
    tp.flush_bytes = cells.flush_bytes.load(relax);
    tp.restores = cells.restores.load(relax);
    const auto ti = static_cast<TierIndex>(i);
    if (stack_.is_durable(ti)) {
      tp.lag = LoadLag(cells);
    } else {
      tp.bytes_used = CacheUsed(rank, ti);
      // capacity is written once at Init, before any worker or sampler can
      // observe it: a plain read is safe.
      tp.bytes_capacity = c.tiers[i]->capacity;
    }
  }
  return p;
}

void Engine::NoteStall(sim::Rank rank, StallKind kind) {
  RankCtx& c = ctx(rank);
  std::lock_guard lock(c.mu);
  ProbeAdd(c.probe.watchdog_stalls);
  switch (kind) {
    case StallKind::kFsmDwell:
      ++c.metrics.watchdog_fsm_stalls;
      break;
    case StallKind::kFlushNoProgress:
      ++c.metrics.watchdog_flush_stalls;
      break;
    case StallKind::kReserveLivelock:
      ++c.metrics.watchdog_reserve_stalls;
      break;
  }
}

// ---------------------------------------------------------------------------
// Per-checkpoint lineage (DESIGN.md §14)
// ---------------------------------------------------------------------------

void Engine::LineageAdmit(RankCtx& ctx_, Record& rec) {
  CKPT_ASSERT_HELD(ctx_.mu);
  rec.admit_ns = util::NowNs();
  rec.flow_id = trace::FlowIdOf(ctx_.rank, rec.version);
  ProbeAdd(ctx_.probe.objects_admitted);
  trace::Flow(trace::Kind::kLifecycle, "ckpt:admit", rec.flow_id,
              trace::FlowPhase::kStart, ctx_.rank, /*tier=*/-1, rec.version,
              rec.size);
}

void Engine::LineageTerminal(RankCtx& ctx_, Record& rec, LineageOutcome outcome,
                             const char* flow_name, int tier) {
  CKPT_ASSERT_HELD(ctx_.mu);
  // First disposition wins: a degraded record later discarded, or a lost
  // record whose erase site also fires, must not terminate twice — that is
  // exactly the double-termination the auditor flags.
  if (rec.lineage_done || rec.flow_id == 0) return;
  rec.lineage_done = true;
  switch (outcome) {
    case LineageOutcome::kDurable:
      ProbeAdd(ctx_.probe.objects_durable);
      break;
    case LineageOutcome::kDegraded:
      ProbeAdd(ctx_.probe.objects_degraded);
      break;
    case LineageOutcome::kLost:
      ProbeAdd(ctx_.probe.objects_lost);
      break;
    case LineageOutcome::kErased:
      ProbeAdd(ctx_.probe.objects_erased);
      break;
  }
  trace::Flow(trace::Kind::kLifecycle, flow_name, rec.flow_id,
              trace::FlowPhase::kEnd, ctx_.rank, tier, rec.version, rec.size);
}

void Engine::LineageDurableAck(RankCtx& ctx_, Record& rec, std::size_t d) {
  CKPT_ASSERT_HELD(ctx_.mu);
  if (rec.flow_id == 0 || rec.admit_ns <= 0) return;
  const auto idx =
      static_cast<std::size_t>(stack_.durable_index(static_cast<int>(d)));
  if (rec.first_durable_tier < 0) {
    rec.first_durable_tier = static_cast<std::int16_t>(idx);
  }
  const std::int64_t now = util::NowNs();
  const std::int64_t lag_ns = now > rec.admit_ns ? now - rec.admit_ns : 0;
  TierCells& cells = ctx_.tier_probe[idx];
  ProbeAdd(cells.lag_buckets[util::Histogram::BucketOf(
      static_cast<double>(lag_ns) / 1e9)]);
  ProbeAdd(cells.lag_sum_ns, static_cast<std::uint64_t>(lag_ns));
  trace::Flow(trace::Kind::kFlush, flow_ack_names_[d], rec.flow_id,
              trace::FlowPhase::kStep, ctx_.rank, static_cast<int>(idx),
              rec.version, rec.size);
}

util::Histogram Engine::LoadLag(const TierCells& cells) {
  constexpr auto relax = std::memory_order_relaxed;
  util::Histogram::Counts counts{};
  for (std::size_t b = 0; b < counts.size(); ++b) {
    counts[b] = cells.lag_buckets[b].load(relax);
  }
  return util::Histogram::FromCounts(
      counts, static_cast<double>(cells.lag_sum_ns.load(relax)) / 1e9);
}

util::StatusOr<CkptState> Engine::StateOf(sim::Rank rank, Version v) const {
  const RankCtx& c = ctx(rank);
  std::lock_guard lock(c.mu);
  auto it = c.records.find(v);
  if (it == c.records.end()) return util::NotFound("no record");
  return it->second.state;
}

util::StatusOr<TierIndex> Engine::DurableTierIndexOf(sim::Rank rank,
                                                     Version v) const {
  const RankCtx& c = ctx(rank);
  std::lock_guard lock(c.mu);
  auto it = c.records.find(v);
  if (it == c.records.end()) return util::NotFound("no record");
  const Record& rec = it->second;
  if (rec.state == CkptState::kFlushFailed) {
    return util::IoError("checkpoint " + std::to_string(v) +
                         " was lost: flush permanently failed");
  }
  if (!rec.flush_done) {
    return util::FailedPrecondition("flush of checkpoint " +
                                    std::to_string(v) + " still in flight");
  }
  for (int d = stack_.num_durable_tiers() - 1; d >= 0; --d) {
    if (rec.durable[static_cast<std::size_t>(d)]) {
      return stack_.durable_index(d);
    }
  }
  for (int j = stack_.num_cache_tiers() - 1; j >= 0; --j) {
    if (rec.res[static_cast<std::size_t>(j)].valid) return j;
  }
  return util::NotFound("checkpoint " + std::to_string(v) +
                        " holds no copy on any tier");
}

bool Engine::ResidentOnIndex(sim::Rank rank, Version v, TierIndex tier) const {
  const RankCtx& c = ctx(rank);
  std::lock_guard lock(c.mu);
  auto it = c.records.find(v);
  if (it == c.records.end()) return false;
  const Record& rec = it->second;
  if (tier < 0 || tier >= static_cast<int>(stack_.size())) return false;
  if (stack_.is_cache(tier)) {
    return rec.res[static_cast<std::size_t>(tier)].valid;
  }
  return rec.durable[static_cast<std::size_t>(stack_.durable_ordinal(tier))] !=
         0;
}

std::uint64_t Engine::CacheUsed(sim::Rank rank, TierIndex tier) const {
  // Deliberately does NOT take the rank lock: capacity probes must not
  // contend with the hot path. The buffers are built before the constructor
  // returns, and used_bytes() takes the buffer's own leaf lock.
  const RankCtx& c = ctx(rank);
  if (tier < 0 || !stack_.is_cache(tier)) return 0;
  const CacheTierRt& t = *c.tiers[static_cast<std::size_t>(tier)];
  std::uint64_t used = t.write_buf->used_bytes();
  if (t.prefetch_buf) used += t.prefetch_buf->used_bytes();
  return used;
}

std::uint64_t Engine::PrefetchDistance(sim::Rank rank) const {
  const RankCtx& c = ctx(rank);
  std::lock_guard lock(c.mu);
  return ComputePrefetchDistance(c);
}

// ---------------------------------------------------------------------------
// Background workers
// ---------------------------------------------------------------------------

// One generic flush stage per cache tier: drains copies from `tier` to
// `tier + 1` (the default stack's T_D2H is the tier-0 instance); the last
// cache tier's stage writes the durable stores instead (T_H2F). Checkpoints
// larger than every deeper cache bypass straight to the stores.
void Engine::FlushStageLoop(RankCtx& c, TierIndex tier) {
  const sim::GpuId gpu = cluster_.topology().gpu_of_rank(c.rank);
  std::mt19937_64 rng = RngFor(c, static_cast<std::uint64_t>(tier));
  const util::ScopedIoTag io_tag(IoTagOf(c, util::IoClass::kFlush));
  CacheTierRt& t = *c.tiers[static_cast<std::size_t>(tier)];
  const int ncache = stack_.num_cache_tiers();
  const std::string tier_name(stack_.name(static_cast<std::size_t>(tier)));
  trace::SetThreadName(WorkerThreadName(c, "flush:" + tier_name));
  // Span names are interned once per worker: the Chrome `name` groups one
  // stage's copies ("flush:gpu" = everything leaving the gpu tier).
  const char* stage_span = trace::Intern("flush:" + tier_name);
  const char* terminal_span = trace::Intern("flush:" + tier_name + ">durable");

  // GPUDirect Storage: the device tier's stage DMAs straight to the drive,
  // bypassing the deeper caches, the pinned tiers and DDR entirely.
  const bool on_device = stack_.is_device(tier);
  const bool gpudirect = options_.gpudirect && on_device;

  // Balances the producer-side flush_queue_depth bump: the gauge counts
  // queued + in-flight work, so the decrement happens when an iteration's
  // work is fully disposed of — whatever exit path it takes — not at Pop.
  // A hung terminal put therefore keeps the depth visibly non-zero, which
  // is exactly what the watchdog's no-progress detector needs.
  struct QueueDepthGuard {
    RankCtx& c;
    TierIndex tier;
    ~QueueDepthGuard() {
      ProbeSub(c.tier_probe[static_cast<std::size_t>(tier)].flush_queue_depth);
    }
  };

  while (auto vo = t.flush_q.Pop()) {
    const Version v = *vo;
    QueueDepthGuard depth_guard{c, tier};
    std::unique_lock lock(c.mu);
    auto it = c.records.find(v);
    if (it == c.records.end()) continue;  // defensive
    Record& rec = it->second;
    Residency& mine = rec.res[static_cast<std::size_t>(tier)];

    // Condition (5): consumed + discardable checkpoints skip pending flushes.
    if (options_.discard_after_restore && rec.state == CkptState::kConsumed) {
      CancelFlush(c, rec, tier, LineageOutcome::kErased,
                  "flow:erased:discarded");
      continue;
    }
    if (!mine.valid) {
      // The copy on this tier can only have been evicted if a safe copy
      // existed elsewhere; route the flush obligation to wherever that
      // copy lives now. (backlog_bytes only feeds ETA estimates; no waiter
      // blocks on it, so no wakeup here.)
      t.backlog_bytes -= rec.size;
      int deeper = -1;
      for (int j = tier + 1; j < ncache; ++j) {
        if (rec.res[static_cast<std::size_t>(j)].valid) {
          deeper = j;
          break;
        }
      }
      if (deeper >= 0) {
        // A deeper cache copy continues the pipeline from there.
        c.tiers[static_cast<std::size_t>(deeper)]->backlog_bytes += rec.size;
        HandOffFlush(c, lock, rec, deeper);
      } else if (rec.AnyDurable()) {
        // Already durable from an earlier stage; the missing copy is moot.
        FinishFlush(c, rec);
      } else if (rec.AnyCached()) {
        // Only a shallower copy survives; it is pinned by SafeBelow(), so
        // the checkpoint stays available but short of the terminal tier.
        CKPT_LOG(kError, "flush")
            << "rank " << c.rank << " ckpt " << v << ": "
            << stack_.name(static_cast<std::size_t>(tier))
            << " copy lost before its flush stage";
        rec.degraded = true;
        ProbeAdd(c.probe.tier_degradations);
        FinishFlush(c, rec);
      } else if (!rec.flush_done) {
        CKPT_LOG(kError, "flush")
            << "rank " << c.rank << " ckpt " << v << ": "
            << stack_.name(static_cast<std::size_t>(tier))
            << " copy lost before its flush stage";
        MarkFlushFailed(c, rec);
      }
      continue;
    }

    // Reserve space on the next cache tier down; oversize checkpoints keep
    // falling through to deeper (larger) caches. The last cache tier, and a
    // GPUDirect stage, have no next tier: they write the durable stores.
    const int first_next = gpudirect ? ncache : tier + 1;
    int target = -1;
    std::uint64_t noff = 0;
    util::Status reserve_st = util::OkStatus();
    for (int j = first_next; j < ncache; ++j) {
      auto o = ReserveOn(c, lock, j, ReservePurpose::kWrite, v, rec.size,
                         /*abort=*/[&] {
                           return options_.discard_after_restore &&
                                  rec.state == CkptState::kConsumed;
                         });
      if (o.ok()) {
        target = j;
        noff = *o;
        break;
      }
      reserve_st = o.status();
      if (reserve_st.code() != util::ErrorCode::kCapacityExceeded) break;
    }
    if (target < 0 && first_next < ncache &&
        reserve_st.code() != util::ErrorCode::kCapacityExceeded) {
      // Shutdown or condition-(5) abort mid-reservation.
      CancelFlush(c, rec, tier, LineageOutcome::kErased,
                  "flow:erased:cancelled");
      continue;
    }

    if (target < 0) {
      // Terminal stage (last cache tier, GPUDirect, or no deeper cache fits
      // this checkpoint): write the durable stores from this tier's copy.
      ++mine.read_refs;
      sim::ConstBytePtr src = BufferFor(c, tier, mine.part).PtrAt(mine.offset);
      const std::uint64_t size = rec.size;
      lock.unlock();
      const std::int64_t t0 = util::NowNs();
      const TerminalPutResult r = PutTerminal(c, v, src, size, on_device, rng);
      lock.lock();
      --mine.read_refs;
      NotifyReserve(c, tier);  // our source copy may now be evictable
      t.backlog_bytes -= size;
      trace::SpanSince(trace::Kind::kFlush, terminal_span, t0, c.rank,
                       stack_.terminal(), v, size);
      c.metrics.flush_stage_hist[static_cast<std::size_t>(tier)].Add(
          static_cast<double>(util::NowNs() - t0) / 1e9);
      ApplyFlushResult(c, rec, r);
      continue;
    }

    // Stage the copy one (or more) tiers down, then hand off to that
    // tier's flush worker.
    Residency& next = rec.res[static_cast<std::size_t>(target)];
    next.offset = noff;
    next.io_pending = true;
    next.part = ReservePurpose::kWrite;
    ++mine.read_refs;
    sim::ConstBytePtr src = BufferFor(c, tier, mine.part).PtrAt(mine.offset);
    sim::BytePtr dst = BufferFor(c, target, ReservePurpose::kWrite).PtrAt(noff);
    const sim::MemcpyKind kind = stack_.is_device(tier)
                                     ? sim::MemcpyKind::kD2H
                                     : sim::MemcpyKind::kH2H;
    lock.unlock();

    const std::int64_t t0 = util::NowNs();
    const util::Status st = sim::ThrottledMemcpy(cluster_.topology(), gpu, dst,
                                                 src, rec.size, kind);

    lock.lock();
    --mine.read_refs;
    next.io_pending = false;
    if (!st.ok()) {
      (void)BufferFor(c, target, ReservePurpose::kWrite).Release(v);
      next.Clear();
      NotifyReserve(c, tier);    // read_refs dropped
      NotifyReserve(c, target);  // reservation released
      CKPT_LOG(kError, "flush") << "flush stage copy failed: " << st.ToString();
      // The source-tier copy survives the failed hop, so the object ends
      // short of the terminal tier rather than lost.
      CancelFlush(c, rec, tier, LineageOutcome::kDegraded,
                  "flow:degraded:flush-cancelled");
      continue;
    }
    trace::SpanSince(trace::Kind::kFlush, stage_span, t0, c.rank, target, v,
                     rec.size);
    trace::Flow(trace::Kind::kFlush, flow_hop_names_[target], rec.flow_id,
                trace::FlowPhase::kStep, c.rank, target, v, rec.size);
    c.metrics.flush_stage_hist[static_cast<std::size_t>(tier)].Add(
        static_cast<double>(util::NowNs() - t0) / 1e9);
    next.valid = true;
    t.backlog_bytes -= rec.size;
    c.tiers[static_cast<std::size_t>(target)]->backlog_bytes += rec.size;
    ProbeAdd(c.tier_probe[static_cast<std::size_t>(target)].flush_bytes,
             rec.size);
    // The deeper copy makes every shallower copy of this record SafeBelow
    // (and our read_ref dropped): wake reservations above `target` only.
    for (int j = 0; j < target; ++j) NotifyReserve(c, j);
    NotifyPrefetch(c);  // T_PF may be in its landing wait for this version
    HandOffFlush(c, lock, rec, target);
  }
}

void Engine::PrefetchLoop(RankCtx& c) {
  trace::SetThreadName(WorkerThreadName(c, "prefetch"));
  const sim::GpuId gpu = cluster_.topology().gpu_of_rank(c.rank);
  const util::ScopedIoTag io_tag(IoTagOf(c, util::IoClass::kDemand));
  const int ncache = stack_.num_cache_tiers();
  std::mt19937_64 rng = RngFor(c, static_cast<std::uint64_t>(ncache));
  const std::uint64_t pin_cap = static_cast<std::uint64_t>(
      static_cast<double>(c.tiers[0]->capacity) *
      options_.prefetch_pin_fraction);
  std::unique_lock lock(c.mu);
  for (;;) {
    // Unbounded: shutdown, PrefetchStart and PrefetchEnqueue all change the
    // predicate under ctx.mu and notify cv_prefetch.
    c.cv_prefetch.wait(lock, [&] {
      return c.shutdown ||
             (c.prefetch_started && c.hints.Head().has_value());
    });
    if (c.shutdown) return;
    const Version v = *c.hints.Head();

    auto rec_or = FindOrImport(c, v);
    if (!rec_or.ok()) {
      // Hint for a checkpoint that has not been written yet (Listing 1
      // enqueues the whole restore order before the forward pass). Wait for
      // it to appear; Checkpoint() notifies on record creation.
      c.cv_prefetch.wait_for(lock, std::chrono::milliseconds(10));
      continue;
    }
    Record& rec = **rec_or;

    if (rec.restore_waiting) {
      // The application is already blocked reading this version through the
      // direct path (it dropped its own pending hint); wait it out.
      c.cv_prefetch.wait(lock, [&] { return c.shutdown || !rec.restore_waiting; });
      continue;
    }

    const bool already_pinned = rec.res[0].valid && StatePinsFastTier(rec.state);
    if (already_pinned) {
      Touch(c, rec);
      c.hints.PopHead();
      ProbeSub(c.probe.restore_queue_depth);
      ++c.metrics.prefetch_gpu_hits;
      trace::Instant(trace::Kind::kPrefetch, "prefetch:hit", c.rank, 0, v,
                     rec.size);
      continue;
    }

    if (!rec.AnyCached() && !rec.AnyDurable()) {
      if (rec.state == CkptState::kConsumed ||
          rec.state == CkptState::kFlushFailed) {
        c.hints.PopHead();  // discarded (condition (5)) or lost: no fetch
        ProbeSub(c.probe.restore_queue_depth);
      } else {
        // The write that produces this version is still copying into the
        // fast cache; no residency is valid yet. Wait for it to land.
        c.cv_prefetch.wait_for(lock, std::chrono::milliseconds(10));
      }
      continue;
    }

    // Thrash control: cap the bytes pinned by unconsumed prefetched
    // checkpoints so interleaved writers always keep cache headroom. This
    // governs BOTH pin paths — promotions and already-on-fast-tier hits —
    // or an interleaved producer could find every cache slot pinned.
    bool aborted = false;
    while (c.prefetched_pinned_bytes + rec.size > pin_cap && !c.shutdown) {
      if (rec.restore_waiting) {
        aborted = true;
        break;
      }
      c.cv_prefetch.wait(lock);  // ReleasePin / restore_waiting notify here
    }
    if (c.shutdown) return;
    if (aborted || c.hints.Head() != std::optional<Version>(v)) {
      // The application deviated meanwhile; re-evaluate from the top. The
      // hint (if still present) is served by the direct path.
      ++c.metrics.prefetch_aborts;
      continue;
    }

    if (rec.res[0].valid) {
      // Already resident on the fast tier: pin it per the life cycle
      // (FLUSHED/WRITE_* -> READ_COMPLETE without any transfer).
      Touch(c, rec);
      Advance(c, rec, CkptState::kReadComplete);
      AddPin(c, rec);
      c.hints.PopHead();
      ProbeSub(c.probe.restore_queue_depth);
      ++c.metrics.prefetch_gpu_hits;
      trace::Instant(trace::Kind::kPrefetch, "prefetch:hit", c.rank, 0, v,
                     rec.size);
      continue;
    }

    // Promotion source: the shallowest cache tier below the fast one still
    // holding a copy, else the durable stores.
    int src_tier = -1;
    for (int j = 1; j < ncache; ++j) {
      if (rec.res[static_cast<std::size_t>(j)].valid) {
        src_tier = j;
        break;
      }
    }
    if (src_tier < 0 && stage_in_) {
      // Two-stage prefetch (DESIGN.md §5): the stage-in worker reads this
      // version into the deepest cache tier; promote it once it lands. The
      // landing, a failed stage-in (which drops the hint) and Restore() all
      // notify this channel; the bound covers anything else.
      c.cv_prefetch.wait_for(lock, std::chrono::milliseconds(10), [&] {
        return c.shutdown || rec.restore_waiting || rec.AnyCached() ||
               c.hints.Head() != std::optional<Version>(v);
      });
      continue;
    }

    // Claim the promotion.
    c.hints.PopHead();
    ProbeSub(c.probe.restore_queue_depth);
    rec.prefetch_claimed = true;
    Advance(c, rec, CkptState::kReadInProgress);
    const std::int64_t promo_begin = util::NowNs();

    auto rollback = [&] {
      rec.prefetch_claimed = false;
      // Advance() wakes cv_state, where Restore's promotion wait re-checks
      // prefetch_claimed.
      Advance(c, rec,
              rec.flush_done ? CkptState::kFlushed : CkptState::kWriteInProgress);
      ++c.metrics.prefetch_aborts;
      trace::Instant(trace::Kind::kPrefetch, "prefetch:abort", c.rank, 0, v,
                     rec.size);
    };

    if (src_tier > 0) {
      ++rec.res[static_cast<std::size_t>(src_tier)].read_refs;
    }

    auto goff = ReserveOn(c, lock, 0, ReservePurpose::kPrefetch, v, rec.size,
                          /*abort=*/[&] { return rec.restore_waiting; });
    if (!goff.ok()) {
      if (src_tier > 0) {
        --rec.res[static_cast<std::size_t>(src_tier)].read_refs;
        NotifyReserve(c, src_tier);
      }
      rollback();
      if (c.shutdown) return;
      continue;
    }
    rec.res[0].offset = *goff;
    rec.res[0].io_pending = true;
    rec.res[0].part = ReservePurpose::kPrefetch;
    sim::BytePtr slot =
        BufferFor(c, 0, ReservePurpose::kPrefetch).PtrAt(rec.res[0].offset);
    const std::uint64_t size = rec.size;

    util::Status st;
    if (src_tier > 0) {
      // Hop: the deeper cache copy -> the fast tier.
      Residency& sres = rec.res[static_cast<std::size_t>(src_tier)];
      sim::ConstBytePtr src =
          BufferFor(c, src_tier, sres.part).PtrAt(sres.offset);
      const sim::MemcpyKind kind = stack_.is_device(0) ? sim::MemcpyKind::kH2D
                                                       : sim::MemcpyKind::kH2H;
      lock.unlock();
      st = sim::ThrottledMemcpy(cluster_.topology(), gpu, slot, src, size, kind);
      lock.lock();
      --sres.read_refs;
      NotifyReserve(c, src_tier);  // source copy may now be evictable
    } else {
      // No stage-in worker (GPUDirect, or a single cache tier): read the
      // stores straight into the reserved slot.
      const std::vector<unsigned char> durable = rec.durable;
      const auto abandon = [&c, &rec] {
        std::lock_guard l(c.mu);
        return c.shutdown || rec.restore_waiting;
      };
      lock.unlock();
      const FetchResult r = GetDurable(c, v, slot, size, stack_.is_device(0),
                                       durable, rng, abandon);
      lock.lock();
      ApplyFetchResult(c, v, size, r);
      st = r.status;
    }
    rec.res[0].io_pending = false;
    if (!st.ok()) {
      CKPT_LOG(kError, "prefetch") << "promotion failed: " << st.ToString();
      (void)BufferFor(c, 0, ReservePurpose::kPrefetch).Release(v);
      rec.res[0].Clear();
      rollback();  // Advance() inside wakes the fast tier's channel
      continue;
    }
    rec.res[0].valid = true;
    rec.prefetch_claimed = false;
    Touch(c, rec);
    Advance(c, rec, CkptState::kReadComplete);  // wakes Restore's wait
    AddPin(c, rec);
    ++c.metrics.prefetch_promotions;
    trace::SpanSince(trace::Kind::kPrefetch, "prefetch:promote", promo_begin,
                     c.rank, 0, v, rec.size);
    trace::Flow(trace::Kind::kPrefetch, "prefetch:promote", rec.flow_id,
                trace::FlowPhase::kStep, c.rank, 0, v, rec.size);
    c.metrics.promotion_hist.Add(
        static_cast<double>(util::NowNs() - promo_begin) / 1e9);
  }
}

// The stage-in half of a two-stage prefetch (DESIGN.md §5): reads the
// first hinted version that has no cache copy from the durable stores into
// the deepest cache tier, so the NVMe read of the next version overlaps
// T_PF's promotion of the current one. A Belady guard on the reservation
// bounds how far ahead it reads.
void Engine::StageInLoop(RankCtx& c) {
  trace::SetThreadName(WorkerThreadName(c, "prefetch:stage"));
  const util::ScopedIoTag io_tag(IoTagOf(c, util::IoClass::kDemand));
  const int ncache = stack_.num_cache_tiers();
  const int deepest = ncache - 1;
  // T_PF never reads the stores while this worker runs, so the prefetch
  // side's rng stream is this worker's.
  std::mt19937_64 rng = RngFor(c, static_cast<std::uint64_t>(ncache));
  const auto abandon = [&c] {
    std::lock_guard l(c.mu);
    return c.shutdown;
  };
  // Gives up prefetching `rec`: the hint goes, Restore() reads it directly.
  const auto give_up = [&](Record& rec) {
    if (c.hints.Drop(rec.version)) ProbeSub(c.probe.restore_queue_depth);
    ++c.metrics.prefetch_aborts;
    trace::Instant(trace::Kind::kPrefetch, "prefetch:abort", c.rank, deepest,
                   rec.version, rec.size);
    NotifyPrefetch(c);  // T_PF may be waiting for this stage-in
  };
  std::unique_lock lock(c.mu);
  for (;;) {
    Record* target = nullptr;
    // Unbounded: every notifier of cv_stage holds ctx.mu.
    c.cv_stage.wait(lock, [&] {
      return c.shutdown || (target = NextStageTarget(c)) != nullptr;
    });
    if (c.shutdown) return;
    Record& rec = *target;
    const Version v = rec.version;
    // kCancelled when the application restores `v` first, `v` loses its
    // hint, or a sooner-hinted version needs staging (NoteStageable resets
    // stage_target).
    c.stage_target = v;
    auto off = ReserveOn(
        c, lock, deepest, ReservePurpose::kPrefetch, v, rec.size,
        /*abort=*/
        [&] {
          return rec.restore_waiting || c.stage_target != v ||
                 !c.hints.DistanceOf(v);
        },
        /*belady_guard=*/true);
    c.stage_target.reset();
    if (!off.ok()) {
      if (c.shutdown) return;
      // Otherwise oversize for the tier, or the tenant quota is exhausted.
      if (off.status().code() != util::ErrorCode::kCancelled) give_up(rec);
      continue;
    }
    Residency& res = rec.res[static_cast<std::size_t>(deepest)];
    res.offset = *off;
    res.io_pending = true;
    res.part = ReservePurpose::kPrefetch;
    rec.stage_claimed = true;
    sim::BytePtr dst =
        BufferFor(c, deepest, ReservePurpose::kPrefetch).PtrAt(*off);
    const std::vector<unsigned char> durable = rec.durable;
    const std::uint64_t size = rec.size;
    const std::int64_t begin = util::NowNs();
    lock.unlock();
    const FetchResult r = GetDurable(c, v, dst, size, stack_.is_device(deepest),
                                     durable, rng, abandon);
    lock.lock();
    ApplyFetchResult(c, v, size, r);
    const util::Status& st = r.status;
    res.io_pending = false;
    rec.stage_claimed = false;
    if (rec.restore_waiting) NotifyState(c);  // Restore's stage-in wait
    if (!st.ok()) {
      CKPT_LOG(kError, "prefetch") << "stage-in read failed: " << st.ToString();
      (void)BufferFor(c, deepest, ReservePurpose::kPrefetch).Release(v);
      res.Clear();
      NotifyReserve(c, deepest);
      give_up(rec);
      continue;
    }
    res.valid = true;
    if (c.hints.Head() == std::optional<Version>(v)) NotifyPrefetch(c);
    trace::SpanSince(trace::Kind::kPrefetch, "prefetch:stage", begin, c.rank,
                     deepest, v, size);
    trace::Flow(trace::Kind::kPrefetch, "prefetch:stage", rec.flow_id,
                trace::FlowPhase::kStep, c.rank, deepest, v, size);
  }
}

}  // namespace ckpt::core
