// The multi-level checkpoint engine: the paper's primary contribution.
//
// One Engine serves every process (rank) of the simulated node(s). The tier
// layout is a core::TierStack — by default GPU HBM -> pinned host -> SSD
// [-> PFS], but any stack with >= 1 cache tier and >= 1 durable tier works
// (host-only 3-tier, archive-backed 5-tier, ...). Per rank the engine owns:
//   * one pre-allocated buffer per cache tier, carved out of the rank's
//     device HBM for the (optional) device tier and pinned host memory for
//     the rest (allocation cost paid once at init, §4.1.4);
//   * one dedicated flush worker per cache tier (§4.3.1 generalized): the
//     worker of tier i drains copies from tier i to tier i+1, the last
//     cache tier's worker writes the durable stores — the default stack's
//     T_D2H and T_H2F are the i=0 and i=1 instances — plus T_PF
//     (prefetch promotions into the fastest tier, driven by the
//     restore-order queue) and, on stacks with >= 2 cache tiers, a
//     stage-in worker that reads hinted versions from the durable stores
//     into the deepest cache tier ahead of T_PF (DESIGN.md §5);
//   * a restore-order hint queue and per-checkpoint life-cycle records.
//
// Blocking semantics follow §2 exactly: Checkpoint() blocks only until the
// data reaches the fastest cache tier with room; Restore() blocks until the
// data lands in the application buffer, served from the fastest tier
// holding it.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/cache_buffer.hpp"
#include "core/eviction.hpp"
#include "core/lifecycle.hpp"
#include "core/metrics.hpp"
#include "core/restore_queue.hpp"
#include "core/runtime.hpp"
#include "core/tenant.hpp"
#include "core/tier_stack.hpp"
#include "core/types.hpp"
#include "simgpu/cluster.hpp"
#include "simgpu/copy.hpp"
#include "simgpu/pinned.hpp"
#include "storage/object_store.hpp"
#include "util/checked_mutex.hpp"
#include "util/clock.hpp"
#include "util/mpmc_queue.hpp"
#include "util/rate_limiter.hpp"
#include "util/retry.hpp"
#include "util/telemetry.hpp"

namespace ckpt::core {

/// Engine behaviour. Tier layout, capacities and the terminal tier come from
/// the TierStack the engine is built over, not from here.
struct EngineOptions {
  /// Condition (5): once consumed, a checkpoint's pending flushes may be
  /// skipped and its data may be dropped entirely.
  bool discard_after_restore = false;

  /// Eviction policy (kScore is the paper's; others are ablations).
  EvictionKind eviction = EvictionKind::kScore;

  /// Ablation of §4.1.2: split each cache into disjoint flush/prefetch
  /// partitions (half each) instead of one shared space.
  bool split_flush_prefetch = false;

  /// Max fraction of the fastest cache tier that prefetched-but-unconsumed
  /// checkpoints may pin. Guarantees interleaved writers can always make
  /// progress (deadlock freedom, DESIGN.md §5).
  double prefetch_pin_fraction = 0.75;

  /// EXTENSION (paper §6 future work): GPUDirect Storage. Every durable
  /// store read or write whose other end is device memory moves directly
  /// over PCIe DMA, bypassing pinned host memory and its DDR bandwidth:
  /// device-tier flushes, oversize write-throughs, promotions and direct
  /// restores. The host tiers still serve data that happens to be there,
  /// but the flush/prefetch pipelines no longer stage through them.
  bool gpudirect = false;

  // --- Failure model (DESIGN.md §8) ---

  /// Retry policy for durable-store writes in the flush pipelines. A
  /// transient tier error (kUnavailable / kTimeout) is retried with
  /// jittered exponential backoff; exhaustion or a permanent error counts
  /// as a permanent tier failure for that checkpoint.
  util::RetryPolicy flush_retry{};

  /// Retry policy for durable-store reads (prefetch promotions and direct
  /// restores). Kept shorter than flush_retry so a blocked Restore() falls
  /// back to a deeper tier — or fails — quickly.
  util::RetryPolicy fetch_retry{.max_attempts = 3,
                                .initial_backoff = std::chrono::microseconds(100),
                                .max_backoff = std::chrono::microseconds(2000)};

  /// When the terminal tier permanently fails: true (default) keeps the
  /// checkpoint durable at the deepest tier still holding a copy (the copy
  /// is pinned against eviction; tier_degradations counts it). False is
  /// strict mode: the checkpoint is marked FLUSH_FAILED, its cache space is
  /// reclaimed, and Restore()/WaitForFlushes() surface the failure.
  bool degraded_durability = true;

  // --- Multi-tenant service mode (DESIGN.md §12) ---

  /// Tenants to open at Init, in declaration order; ranks are split into
  /// contiguous blocks (even split, remainder to earlier tenants). Empty =
  /// single-tenant mode: one implicit "default" tenant with no quota spans
  /// every rank.
  std::vector<TenantSpec> tenants;

  /// Test hook: when set, a commit-ready eviction plan in round `round`
  /// (0-based per ReserveOn call) is treated as stale even though the table
  /// version matched — exercises the stale-replan path (and the snapshot
  /// reuse that follows it) deterministically.
  std::function<bool(int round)> test_force_stale_plan;
};

class Engine final : public Runtime {
 public:
  /// The stack is the engine's source of truth for tier count, capacities,
  /// stores and the terminal tier (TierStack::Default builds the paper's).
  Engine(sim::Cluster& cluster, TierStack stack, EngineOptions options,
         int num_ranks);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Writes version `v` from the rank's device buffer. Blocks until the
  /// data is in the fastest cache tier with room; flushing continues
  /// asynchronously.
  util::Status Checkpoint(sim::Rank rank, Version v, sim::ConstBytePtr src,
                          std::uint64_t size) override;

  /// Reads version `v` back into the rank's device buffer (capacity bytes
  /// available). Serves from the fastest tier holding the data; blocks on
  /// an in-flight promotion when the prefetcher already claimed `v`.
  util::Status Restore(sim::Rank rank, Version v, sim::BytePtr dst,
                       std::uint64_t capacity) override;

  /// Size of version `v`; also resolves checkpoints found only on the
  /// durable stores (restart after an engine re-open).
  util::StatusOr<std::uint64_t> RecoverSize(sim::Rank rank, Version v) override;

  /// Appends a restore-order hint (VELOC_Prefetch_enqueue).
  util::Status PrefetchEnqueue(sim::Rank rank, Version v) override;

  /// Releases the prefetcher (VELOC_Prefetch_start). Hints enqueued before
  /// this call are not acted upon until it is made.
  util::Status PrefetchStart(sim::Rank rank) override;

  /// Blocks until every checkpoint of `rank` is durable on the terminal
  /// tier (or its flush was cancelled by condition (5)).
  util::Status WaitForFlushes(sim::Rank rank) override;

  /// Stops background threads; in-flight transfers complete first. Queued
  /// flush work is abandoned, and each abandoned object ends erased in the
  /// lineage ledger; callers that need durability call WaitForFlushes()
  /// first (DESIGN.md §8.8). Idempotent; also called by the destructor.
  void Shutdown() override;

  // --- Multi-tenant service surface (DESIGN.md §12) ---
  /// Quiesces a tenant: waits for its in-flight flushes, then rejects new
  /// checkpoint/restore/hint calls on its ranks with kFailedPrecondition.
  /// Its cached/durable data stays addressable for other introspection.
  util::Status CloseTenant(TenantId id);
  [[nodiscard]] const TenantRegistry& tenant_registry() const noexcept {
    return *tenant_registry_;
  }
  /// Lock-free: tenant owning `rank` (kDefaultTenant in single-tenant mode).
  [[nodiscard]] TenantId TenantOf(sim::Rank rank) const noexcept {
    return tenant_registry_->tenant_of(rank);
  }
  /// Total cache bytes (all cache tiers, all the tenant's ranks) the tenant
  /// currently holds. Lock-free, same consistency as CacheUsed.
  [[nodiscard]] std::uint64_t TenantCacheUsed(TenantId id) const;
  /// True when EngineOptions::tenants declared the tenants; false for the
  /// one implicit "default" tenant.
  [[nodiscard]] bool multi_tenant() const noexcept override {
    return !options_.tenants.empty();
  }
  /// Name of the tenant owning `rank` ("default" in single-tenant mode):
  /// the `tenant` label of its telemetry, metrics JSON and thread names.
  [[nodiscard]] std::string TenantLabelOf(sim::Rank rank) const;

  [[nodiscard]] RankMetrics metrics(sim::Rank rank) const override;
  /// Same consistent, rank-locked copy as metrics(); kept as the
  /// explicitly-named form used by tests and the trace sink.
  [[nodiscard]] RankMetrics MetricsSnapshot(sim::Rank rank) const;
  [[nodiscard]] std::string_view name() const override { return "score"; }
  [[nodiscard]] const EngineOptions& options() const noexcept { return options_; }
  [[nodiscard]] const TierStack& tiers() const noexcept { return stack_; }
  [[nodiscard]] int num_ranks() const noexcept {
    return static_cast<int>(ranks_.size());
  }

  // --- Introspection for tests ---
  [[nodiscard]] util::StatusOr<CkptState> StateOf(sim::Rank rank, Version v) const;
  /// Residency by stack index; indices beyond the stack are simply absent.
  [[nodiscard]] bool ResidentOnIndex(sim::Rank rank, Version v,
                                     TierIndex tier) const;
  /// Deepest stack index still holding a copy of a flushed checkpoint. For
  /// a degraded checkpoint this is shallower than the configured terminal
  /// tier. Errors: kFailedPrecondition while the flush is in flight,
  /// kIoError once the checkpoint entered FLUSH_FAILED.
  [[nodiscard]] util::StatusOr<TierIndex> DurableTierIndexOf(sim::Rank rank,
                                                             Version v) const;
  /// Used bytes of cache tier `tier`.
  [[nodiscard]] std::uint64_t CacheUsed(sim::Rank rank, TierIndex tier) const;
  /// Consecutive hinted successors already promoted to the fastest cache
  /// tier (the Fig. 7 prefetch-distance metric).
  [[nodiscard]] std::uint64_t PrefetchDistance(sim::Rank rank) const;

  // --- Live telemetry probe (DESIGN.md §11) ---
  /// Point-in-time reading of one rank's counter cells, filled straight
  /// into a telemetry sample (window rates stay 0; the sampler derives
  /// them). Produced WITHOUT the rank lock: each field is one relaxed
  /// atomic read, so the fields are individually exact but mutually
  /// unsynchronized — exactly what a periodic sampler needs, and never what
  /// a correctness check should use (tests want MetricsSnapshot()).
  [[nodiscard]] util::telemetry::RankSample Probe(sim::Rank rank) const;

  /// Stall categories the telemetry watchdog can detect (DESIGN.md §11).
  enum class StallKind : std::uint8_t {
    kFsmDwell = 0,     ///< a record sat in a pending FSM state too long
    kFlushNoProgress,  ///< flush queue non-empty but no bytes moved
    kReserveLivelock,  ///< eviction plans kept going stale window over window
  };
  /// Charges a watchdog-detected stall to the rank's counters. Takes the
  /// rank lock — trip path only, never the sample path.
  void NoteStall(sim::Rank rank, StallKind kind);

 private:
  struct Residency {
    bool valid = false;       ///< data present and complete on this tier
    bool io_pending = false;  ///< space reserved, transfer writing into it
    int read_refs = 0;        ///< active transfers reading from this copy
    std::uint64_t offset = 0; ///< offset within the tier's cache buffer
    /// Which cache partition holds the entry (only meaningful in the
    /// split-cache ablation; the shared default uses kWrite for everything).
    ReservePurpose part = ReservePurpose::kWrite;

    [[nodiscard]] bool busy() const noexcept {
      return io_pending || read_refs > 0;
    }
    void Clear() noexcept { *this = Residency{}; }
  };

  struct Record {
    Version version = 0;
    std::uint64_t size = 0;
    CkptState state = CkptState::kInit;
    /// Residency per cache tier, indexed by stack position [0, num_cache).
    std::vector<Residency> res;
    /// Copy-present flag per durable tier, indexed by durable ordinal.
    std::vector<unsigned char> durable;
    bool restore_waiting = false;   ///< a Restore() call is blocked on this
    bool prefetch_claimed = false;  ///< T_PF owns an in-flight promotion
    bool stage_claimed = false;     ///< the stage-in worker owns an
                                    ///< in-flight store read of this version
    bool pinned_counted = false;    ///< counted in prefetched_pinned_bytes
    bool flush_done = false;        ///< reached terminal tier (or cancelled)
    bool degraded = false;          ///< durable at a shallower tier than
                                    ///< configured (terminal tier failed)
    std::uint64_t lru_seq = 0;
    std::uint64_t fifo_seq = 0;
    /// Trace timestamp of the last FSM transition (0 until the first
    /// transition recorded with tracing on); Advance() emits the dwell time
    /// of the outgoing state as a lifecycle span.
    std::int64_t state_since_ns = 0;

    // Lineage fields (DESIGN.md §14), stamped at Checkpoint() admission.
    // Imported records (FindOrImport) keep flow_id 0 and lineage_done true:
    // their admission predates this engine, so they sit outside the
    // conservation ledger and emit no flow events.
    std::int64_t admit_ns = 0;          ///< NowNs() at admission
    std::uint64_t flow_id = 0;          ///< util::trace::FlowIdOf(rank, v)
    /// Stack index of the first durable ack; -1 until one arrives.
    std::int16_t first_durable_tier = -1;
    bool lineage_done = false;          ///< terminal outcome recorded

    [[nodiscard]] bool AnyDurable() const noexcept {
      for (unsigned char d : durable) {
        if (d) return true;
      }
      return false;
    }
    [[nodiscard]] bool AnyCached() const noexcept {
      for (const Residency& r : res) {
        if (r.valid) return true;
      }
      return false;
    }
    [[nodiscard]] bool AnyCacheBusy() const noexcept {
      for (const Residency& r : res) {
        if (r.busy()) return true;
      }
      return false;
    }
  };

  /// Per-rank runtime state of one cache tier.
  struct CacheTierRt {
    std::uint64_t capacity = 0;  ///< this rank's share of the tier
    sim::BytePtr gpu_base = nullptr;            ///< device tiers (owned by
                                                ///< the rank's Device)
    std::unique_ptr<sim::PinnedArena> arena;    ///< pinned-host tiers
    std::unique_ptr<CacheBuffer> write_buf;     // shared cache, or write half
    std::unique_ptr<CacheBuffer> prefetch_buf;  // split mode only
    /// Versions whose copy on this tier awaits flushing to the next tier.
    util::MpmcQueue<Version> flush_q;
    std::uint64_t backlog_bytes = 0;
    /// Wakeup channel for reservations blocked on THIS tier (DESIGN.md
    /// §10): signalled when space on this tier may have opened up (a
    /// residency cleared, read_refs dropped, a pin released). Paired with
    /// ctx.mu.
    std::condition_variable_any cv_reserve;
    /// Bumped under ctx.mu with every cv_reserve signal, so a reservation
    /// that planned with the lock dropped still sees a signal sent then.
    std::uint64_t reserve_seq = 0;
    std::jthread worker;  ///< FlushStageLoop for this tier
  };

  /// Counter cells (DESIGN.md §11): relaxed atomics, the single count of
  /// every event they record. Writers bump them through the Probe*()
  /// helpers below; MetricsSnapshot() reads them under ctx.mu and the
  /// sampler's Probe() without any lock. Every bump of a counter RankMetrics also reports runs under
  /// ctx.mu, so a snapshot's counters are mutually consistent.
  struct TierCells {
    std::atomic<std::uint64_t> flush_queue_depth{0};  ///< queued + in-flight
    std::atomic<std::uint64_t> flush_bytes{0};  ///< flush_bytes_to_tier
    std::atomic<std::uint64_t> restores{0};     ///< restores_from_tier
    /// Durability-lag histogram cells (DESIGN.md §14): per-bucket counts
    /// over util::Histogram's edges plus the +Inf bucket. Bumped at each
    /// durable ack on durable-tier positions only; cache positions stay
    /// zero.
    std::array<std::atomic<std::uint64_t>, util::Histogram::kBuckets>
        lag_buckets{};
    std::atomic<std::uint64_t> lag_sum_ns{0};
  };
  struct RankCells {
    std::array<std::atomic<std::uint64_t>, kCkptStateCount> state_occupancy{};
    std::atomic<std::int64_t> last_transition_ns{0};
    /// Pending restore-order hints: moved with ctx.hints, under ctx.mu.
    std::atomic<std::uint64_t> restore_queue_depth{0};
    std::atomic<std::uint64_t> reserve_rounds{0};
    std::atomic<std::uint64_t> reserve_plans_stale{0};
    std::atomic<std::uint64_t> reserve_snapshot_reuse{0};
    std::atomic<std::uint64_t> reserve_quota_waits{0};
    std::atomic<std::uint64_t> flush_retries{0};
    std::atomic<std::uint64_t> fetch_retries{0};
    std::atomic<std::uint64_t> tier_degradations{0};
    std::atomic<std::uint64_t> checkpoints_lost{0};
    std::atomic<std::uint64_t> checkpoints{0};
    std::atomic<std::uint64_t> restores{0};
    std::atomic<std::uint64_t> bytes_checkpointed{0};
    std::atomic<std::uint64_t> bytes_restored{0};
    std::atomic<std::uint64_t> watchdog_stalls{0};
    // Lineage outcome counters (DESIGN.md §14).
    std::atomic<std::uint64_t> objects_admitted{0};
    std::atomic<std::uint64_t> objects_durable{0};
    std::atomic<std::uint64_t> objects_degraded{0};
    std::atomic<std::uint64_t> objects_lost{0};
    std::atomic<std::uint64_t> objects_erased{0};
  };
  /// A rank counter RankMetrics and the telemetry sample both report: one
  /// cell, read by MetricsSnapshot() and Probe() alike.
  struct SharedCounter {
    std::atomic<std::uint64_t> RankCells::*cell;
    std::uint64_t RankMetrics::*metric;
    std::uint64_t util::telemetry::RankSample::*sample;
  };
  static constexpr SharedCounter kSharedCounters[] = {
      {&RankCells::bytes_checkpointed, &RankMetrics::bytes_checkpointed,
       &util::telemetry::RankSample::bytes_checkpointed},
      {&RankCells::bytes_restored, &RankMetrics::bytes_restored,
       &util::telemetry::RankSample::bytes_restored},
      {&RankCells::reserve_rounds, &RankMetrics::reserve_rounds,
       &util::telemetry::RankSample::reserve_rounds},
      {&RankCells::reserve_plans_stale, &RankMetrics::reserve_plans_stale,
       &util::telemetry::RankSample::reserve_plans_stale},
      {&RankCells::reserve_snapshot_reuse,
       &RankMetrics::reserve_snapshot_reuse,
       &util::telemetry::RankSample::reserve_snapshot_reuse},
      {&RankCells::reserve_quota_waits, &RankMetrics::reserve_quota_waits,
       &util::telemetry::RankSample::reserve_quota_waits},
      {&RankCells::flush_retries, &RankMetrics::flush_retries,
       &util::telemetry::RankSample::flush_retries},
      {&RankCells::fetch_retries, &RankMetrics::fetch_retries,
       &util::telemetry::RankSample::fetch_retries},
      {&RankCells::tier_degradations, &RankMetrics::tier_degradations,
       &util::telemetry::RankSample::tier_degradations},
      {&RankCells::checkpoints_lost, &RankMetrics::checkpoints_lost,
       &util::telemetry::RankSample::checkpoints_lost},
      {&RankCells::watchdog_stalls, &RankMetrics::watchdog_stalls,
       &util::telemetry::RankSample::watchdog_stalls},
      {&RankCells::objects_admitted, &RankMetrics::objects_admitted,
       &util::telemetry::RankSample::objects_admitted},
      {&RankCells::objects_durable, &RankMetrics::objects_durable,
       &util::telemetry::RankSample::objects_durable},
      {&RankCells::objects_degraded, &RankMetrics::objects_degraded,
       &util::telemetry::RankSample::objects_degraded},
      {&RankCells::objects_lost, &RankMetrics::objects_lost,
       &util::telemetry::RankSample::objects_lost},
      {&RankCells::objects_erased, &RankMetrics::objects_erased,
       &util::telemetry::RankSample::objects_erased},
  };

  struct RankCtx {
    sim::Rank rank = 0;
    mutable util::CheckedMutex mu;
    /// Per-role wakeup channels (DESIGN.md §10), all paired with `mu`.
    /// cv_state: FSM / flush progress (WaitForFlushes, Restore's promotion
    /// and stage-in waits, flush-stage reroute checks). cv_prefetch: the
    /// T_PF worker's wait reasons (new hints, restore_waiting handoffs, pin
    /// releases, landing-slot retries, its head's stage-in landing).
    /// cv_stage: the stage-in worker's (prefetch start, new hints, a hinted
    /// version left without a cache copy). Reservation waits live on the
    /// per-tier CacheTierRt::cv_reserve channels.
    std::condition_variable_any cv_state;
    std::condition_variable_any cv_prefetch;
    std::condition_variable_any cv_stage;
    /// The version the stage-in worker is reserving room for. Reset when a
    /// version hinted sooner needs staging; the reservation then gives up
    /// and the worker re-picks.
    std::optional<Version> stage_target;

    std::unordered_map<Version, Record> records;
    RestoreQueue hints;
    bool prefetch_started = false;
    bool shutdown = false;

    std::vector<std::unique_ptr<CacheTierRt>> tiers;  ///< cache tiers only

    std::uint64_t inflight_flushes = 0;       ///< records not yet flush_done
    std::uint64_t prefetched_pinned_bytes = 0;
    std::uint64_t prefetched_pinned_count = 0;
    std::uint64_t seq_counter = 0;
    std::uint64_t restore_counter = 0;
    std::uint64_t flush_failed_count = 0;  ///< records in FLUSH_FAILED

    /// Everything but the counters kSharedCounters and the tier cells
    /// hold: those fields stay 0 here and MetricsSnapshot() fills them.
    RankMetrics metrics;

    RankCells probe;
    /// One cell block per stack tier (cache AND durable), sized at Init.
    std::unique_ptr<TierCells[]> tier_probe;

    std::jthread t_pf;
    std::jthread t_stage;  ///< StageInLoop; only when stage_in_
  };

  void Init(int num_ranks);

  // Background workers (num_cache_tiers flush stages + T_PF [+ stage-in],
  // per rank).
  void FlushStageLoop(RankCtx& ctx, TierIndex tier);
  void PrefetchLoop(RankCtx& ctx);
  void StageInLoop(RankCtx& ctx);

  // Helpers; all require ctx.mu held unless noted. `tier` is a stack index
  // of a cache tier.
  [[nodiscard]] CacheBuffer& BufferFor(RankCtx& ctx, TierIndex tier,
                                       ReservePurpose purpose);
  /// Eviction metadata for `tier`'s fragments. While `guard` (read at each
  /// call, so it must outlive the MetaFn) holds a hint distance — stage-in
  /// reservations — the Belady guard applies: a copy hinted sooner than
  /// that is excluded unless it is consumed or already pinned on the fast
  /// tier.
  [[nodiscard]] CacheBuffer::MetaFn MakeMetaFn(
      RankCtx& ctx, TierIndex tier, const std::optional<std::uint64_t>& guard);
  /// The stage-in worker's next target: the first hinted version with a
  /// durable copy, no cache copy and no transfer or reader in flight.
  [[nodiscard]] Record* NextStageTarget(RankCtx& ctx);
  /// Called where `rec` may have lost its last cache copy: when it is still
  /// hinted, wakes the stage-in worker, and retargets it when it is
  /// reserving for a version needed later than `rec`.
  void NoteStageable(RankCtx& ctx, const Record& rec);
  [[nodiscard]] bool SafeBelow(const Record& rec, TierIndex tier) const;
  [[nodiscard]] bool EvictableNow(const Record& rec, TierIndex tier) const;
  [[nodiscard]] bool ExcludedOn(const Record& rec, TierIndex tier) const;
  /// The exclusions of ExcludedOn that lift without a restore: a transfer
  /// in flight on the copy, or a Restore() about to read it. The rest is
  /// condition (4)'s fast-tier pin.
  [[nodiscard]] bool ExcludedUntilSettled(const Record& rec,
                                          TierIndex tier) const;
  [[nodiscard]] double EtaSeconds(const RankCtx& ctx, const Record& rec,
                                  TierIndex tier) const;
  /// Refreshes `rec`'s LRU recency. Every read access must call this —
  /// direct restores *and* prefetch hits/promotions — or the LRU ablation
  /// sees stale sequence numbers and evicts recently-touched checkpoints.
  /// ctx.mu protects seq_counter; callers must hold it (debug-asserted).
  static void Touch(RankCtx& ctx, Record& rec) noexcept {
    CKPT_ASSERT_HELD(ctx.mu);
    rec.lru_seq = ++ctx.seq_counter;
  }

  // --- Counter-cell bump helpers (DESIGN.md §11); all relaxed ---
  static void ProbeAdd(std::atomic<std::uint64_t>& cell,
                       std::uint64_t n = 1) noexcept {
    cell.fetch_add(n, std::memory_order_relaxed);
  }
  static void ProbeSub(std::atomic<std::uint64_t>& cell,
                       std::uint64_t n = 1) noexcept {
    cell.fetch_sub(n, std::memory_order_relaxed);
  }
  /// A record entered the FSM (record inserted into ctx.records).
  static void ProbeEnterState(RankCtx& ctx, CkptState s) noexcept {
    ProbeAdd(ctx.probe.state_occupancy[static_cast<std::size_t>(s)]);
  }
  /// A record left the FSM (record erased from ctx.records).
  static void ProbeLeaveState(RankCtx& ctx, CkptState s) noexcept {
    ProbeSub(ctx.probe.state_occupancy[static_cast<std::size_t>(s)]);
  }
  /// An FSM edge: moves the occupancy count and stamps the transition time
  /// (the watchdog's FSM-dwell detector keys off this stamp).
  static void ProbeTransition(RankCtx& ctx, CkptState from,
                              CkptState to) noexcept {
    ProbeLeaveState(ctx, from);
    ProbeEnterState(ctx, to);
    ctx.probe.last_transition_ns.store(util::NowNs(),
                                       std::memory_order_relaxed);
  }

  // --- Lineage helpers (DESIGN.md §14); all require ctx.mu held ---
  /// Terminal disposition of one admitted checkpoint object. Every object
  /// admitted by Checkpoint() ends in exactly one of these (the
  /// conservation invariant the lineage auditor checks).
  enum class LineageOutcome : std::uint8_t {
    kDurable = 0,  ///< reached the configured terminal tier
    kDegraded,     ///< durable at a shallower tier (terminal tier failed)
    kLost,         ///< entered FLUSH_FAILED with no surviving copy
    kErased,       ///< record dropped before a durability outcome (admit
                   ///< rollback, condition-(5) discard, shutdown abort)
  };
  /// Records `rec`'s admission into the lineage ledger: the admitted
  /// counter and the flow-start event. Checkpoint() admission only.
  void LineageAdmit(RankCtx& ctx, Record& rec);
  /// Records `rec`'s terminal outcome exactly once: its outcome counter and
  /// the terminating flow event (`flow_name`, ph "f"). Later calls for the
  /// same record are no-ops, so every terminal/erase site may call it
  /// unconditionally — the first disposition wins, which is what
  /// conservation needs.
  void LineageTerminal(RankCtx& ctx, Record& rec, LineageOutcome outcome,
                       const char* flow_name, int tier = -1);
  /// Charges the put -> durable-ack lag of `rec` for durable ordinal `d` to
  /// the lag cells at the tier's stack index, plus the per-tier ack flow
  /// step. The first ack sets first_durable_tier.
  void LineageDurableAck(RankCtx& ctx, Record& rec, std::size_t d);
  /// Plain-value copy of one tier's lag cells (relaxed loads; exact and
  /// mutually consistent under ctx.mu, which every bump holds).
  [[nodiscard]] static util::Histogram LoadLag(const TierCells& cells);

  /// Drops the victims' residencies on `tier`. Requires EvictableNow.
  util::Status EvictVictims(RankCtx& ctx, TierIndex tier,
                            const std::vector<EntryId>& victims);

  // --- Tenant admission (DESIGN.md §12) ---
  /// kFailedPrecondition when the rank's tenant was closed; Ok otherwise
  /// (including the unassigned-rank case, which only tests can reach).
  [[nodiscard]] util::Status CheckTenantOpen(sim::Rank rank) const;
  /// The I/O tag a rank's thread installs for transfers of `io_class`:
  /// flow = tenant id, weight = tenant weight. Single-tenant mode yields
  /// flow 0, weight 1.0, the limiters' default flow.
  [[nodiscard]] util::IoTag IoTagOf(const RankCtx& ctx,
                                    util::IoClass io_class) const noexcept;
  /// "<tenant>/r<rank>/<role>": the worker thread/track name.
  [[nodiscard]] std::string WorkerThreadName(const RankCtx& ctx,
                                             std::string_view role) const;
  /// Quota headroom check for the rank's tenant: true when admitting `size`
  /// more cache bytes would exceed the tenant's quota. Quota 0 never blocks
  /// (and skips the cross-rank usage sum entirely).
  [[nodiscard]] bool OverTenantQuota(const RankCtx& ctx,
                                     std::uint64_t size) const;
  /// Sheds evictable bytes from THIS rank's buffer on `tier` to make quota
  /// headroom (victims are structurally within the over-quota tenant: rank
  /// buffers are single-tenant). Returns bytes freed. Requires ctx.mu; may
  /// briefly drop it while planning.
  std::uint64_t ShedForQuota(RankCtx& ctx,
                             std::unique_lock<util::CheckedMutex>& lock,
                             TierIndex tier, ReservePurpose purpose,
                             std::uint64_t need);
  /// Blocking reservation loop: snapshot / plan off-lock / revalidate /
  /// commit-or-wait / re-plan. Waits on the tier's cv_reserve channel.
  /// `abort` (optional) is checked after each failed round; when it returns
  /// true the reservation gives up with kCancelled. `belady_guard` (the
  /// stage-in worker) plans under MakeMetaFn's guard at `v`'s current hint
  /// distance and gives up with kCancelled once `v` is no longer hinted.
  util::StatusOr<std::uint64_t> ReserveOn(
      RankCtx& ctx, std::unique_lock<util::CheckedMutex>& lock, TierIndex tier,
      ReservePurpose purpose, Version v, std::uint64_t size,
      const std::function<bool()>& abort, bool belady_guard = false);

  // --- Per-role wakeup helpers (DESIGN.md §10) ---
  /// A transition that may unblock reservations on cache tier `tier`
  /// (residency cleared, read_refs dropped, pin released).
  static void NotifyReserve(RankCtx& ctx, TierIndex tier) {
    CKPT_ASSERT_HELD(ctx.mu);
    CacheTierRt& t = *ctx.tiers[tier];
    ++t.reserve_seq;
    t.cv_reserve.notify_all();
  }
  /// Clears that may free space on several tiers at once (record dropped,
  /// flush failure reclaim, shutdown).
  static void NotifyReserveAll(RankCtx& ctx) {
    for (std::size_t i = 0; i < ctx.tiers.size(); ++i) {
      NotifyReserve(ctx, static_cast<TierIndex>(i));
    }
  }
  /// FSM / flush progress: WaitForFlushes, Restore's promotion wait, the
  /// flush stage's validity re-checks.
  static void NotifyState(RankCtx& ctx) { ctx.cv_state.notify_all(); }
  /// Anything the T_PF worker waits for: hints, restore_waiting handoffs,
  /// pin releases, landing-slot retries.
  static void NotifyPrefetch(RankCtx& ctx) { ctx.cv_prefetch.notify_all(); }
  /// The stage-in worker may have a target: prefetch start, new hints, a
  /// hinted version left without a cache copy.
  static void NotifyStage(RankCtx& ctx) { ctx.cv_stage.notify_all(); }
  static void NotifyAllChannels(RankCtx& ctx) {
    NotifyState(ctx);
    NotifyPrefetch(ctx);
    NotifyStage(ctx);
    NotifyReserveAll(ctx);
  }
  /// Marks a flush stage reaching the terminal tier; advances the FSM.
  void FinishFlush(RankCtx& ctx, Record& rec);
  /// Drops `rec`'s pending flush queued on cache tier `tier` (ctx.mu
  /// held): settles the tier's backlog and the in-flight count and records
  /// the lineage terminal `outcome` / `flow_name`.
  void CancelFlush(RankCtx& ctx, Record& rec, TierIndex tier,
                   LineageOutcome outcome, const char* flow_name);
  /// Hands `rec`'s flush obligation to cache tier `tier`'s worker. Releases
  /// `lock` (on ctx.mu) for the push and returns with it released. A queue
  /// Shutdown() already closed refuses the hand-off; the object then ends
  /// as flow:erased:shutdown.
  void HandOffFlush(RankCtx& ctx, std::unique_lock<util::CheckedMutex>& lock,
                    Record& rec, TierIndex tier);

  // --- Failure model helpers (DESIGN.md §8) ---
  /// Result of writing one checkpoint to the durable store(s) with retries.
  struct TerminalPutResult {
    /// Outcome per durable ordinal; ordinals beyond the terminal tier are
    /// not attempted and stay 0.
    std::vector<unsigned char> ok;
    std::uint64_t retries = 0;    ///< extra attempts across all tiers
    std::uint64_t failures = 0;   ///< tiers that permanently failed
    /// The device-to-host staging copy; when it failed, no tier was tried.
    util::Status staging;
  };
  /// Writes (rank, v) to every durable tier up to and including the
  /// terminal one, retrying transient errors per flush_retry. Deeper
  /// stages are attempted even when a shallower one failed: a surviving
  /// deeper copy still makes the checkpoint durable. A device-memory `src`
  /// (`on_device`) is DMA'd under GPUDirect, otherwise staged through a
  /// transient pinned buffer first. Called WITHOUT ctx.mu held.
  TerminalPutResult PutTerminal(RankCtx& ctx, Version v, sim::ConstBytePtr src,
                                std::uint64_t size, bool on_device,
                                std::mt19937_64& rng);
  /// Applies a TerminalPutResult to the record (ctx.mu held): marks durable
  /// tiers and finishes the flush; on a permanent terminal-tier failure
  /// either degrades durability to the deepest surviving copy or — in
  /// strict mode / with no copy left — marks the record FLUSH_FAILED.
  void ApplyFlushResult(RankCtx& ctx, Record& rec, const TerminalPutResult& r);
  /// Transitions the record to FLUSH_FAILED, reclaiming its cache space and
  /// unblocking WaitForFlushes / pending restores (ctx.mu held).
  void MarkFlushFailed(RankCtx& ctx, Record& rec);
  /// Result of reading one checkpoint from the durable store(s).
  struct FetchResult {
    util::Status status;
    std::uint64_t retries = 0;  ///< extra attempts across all tiers
    bool fell_back = false;     ///< a shallower durable copy failed first
    TierIndex served = -1;      ///< stack index that satisfied the read
  };
  /// Reads (rank, v) from the durable tiers flagged in `durable`, walking
  /// shallowest-first with bounded retries per tier. A device-memory `dst`
  /// (`on_device`) is DMA'd under GPUDirect, otherwise staged through a
  /// transient pinned buffer. Called WITHOUT ctx.mu held; the caller
  /// applies the result under the lock (ApplyFetchResult).
  FetchResult GetDurable(RankCtx& ctx, Version v, sim::BytePtr dst,
                         std::uint64_t size, bool on_device,
                         const std::vector<unsigned char>& durable,
                         std::mt19937_64& rng,
                         const std::function<bool()>& abort);
  /// Charges a FetchResult to the rank (ctx.mu held): its retries, with a
  /// fetch:retries trace instant, and a fallback when the read succeeded.
  void ApplyFetchResult(RankCtx& ctx, Version v, std::uint64_t size,
                        const FetchResult& r);
  /// FSM transition with legality check (aborts the process on violation —
  /// an illegal edge is an engine bug, never a user error).
  void Advance(RankCtx& ctx, Record& rec, CkptState to);
  /// Unpins a consumed prefetched record from the pin accounting.
  void ReleasePin(RankCtx& ctx, Record& rec);
  /// Registers a prefetched record in the pin accounting (cap + Fig. 7).
  void AddPin(RankCtx& ctx, Record& rec);
  /// Imports a record found only on the durable stores.
  util::StatusOr<Record*> FindOrImport(RankCtx& ctx, Version v);
  /// Fresh record with residency vectors sized for this stack.
  [[nodiscard]] Record NewRecord(RankCtx& ctx, Version v,
                                 std::uint64_t size) const;
  [[nodiscard]] std::uint64_t ComputePrefetchDistance(const RankCtx& ctx) const;
  /// Per-rank/thread deterministic rng stream (`stream` < kRngStreamsPerRank).
  [[nodiscard]] std::mt19937_64 RngFor(const RankCtx& ctx,
                                       std::uint64_t stream,
                                       std::uint64_t salt = 0) const;

  [[nodiscard]] RankCtx& ctx(sim::Rank rank);
  [[nodiscard]] const RankCtx& ctx(sim::Rank rank) const;

  sim::Cluster& cluster_;
  TierStack stack_;
  EngineOptions options_;
  /// Interned "flush:<tier>" span names, one per durable ordinal, so the
  /// terminal put loop can emit per-tier spans without allocating.
  std::vector<const char*> durable_span_names_;
  /// Interned flow-step names (DESIGN.md §14): "hop:<tier>" per stack index
  /// (flush-stage landings) and "ack:<tier>" per durable ordinal (durable
  /// acks).
  std::vector<const char*> flow_hop_names_;
  std::vector<const char*> flow_ack_names_;
  /// Two-stage prefetch (DESIGN.md §5): >= 2 cache tiers and promotions
  /// that are not GPUDirect. Each rank then runs a stage-in worker that
  /// owns the prefetch side's store reads; T_PF only promotes cache copies.
  bool stage_in_ = false;
  /// Tenant table + rank->tenant mapping; created before the workers spawn.
  std::unique_ptr<TenantRegistry> tenant_registry_;
  /// Estimated drain bandwidth of each cache tier toward the next tier
  /// (bytes/s), for predict_evictable ETAs (§4.2).
  std::vector<double> drain_bw_;
  std::vector<std::unique_ptr<RankCtx>> ranks_;
  std::atomic<bool> shutdown_{false};
};

}  // namespace ckpt::core
