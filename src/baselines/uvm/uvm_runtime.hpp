// UVM-based checkpoint runtime: the paper's "optimized UVM" baseline
// (§5.2.2). Checkpoints live in managed memory regions; data movement
// between the device cache and host is driven by UVM's fault/LRU machinery
// plus the full set of hint optimizations the paper grants this baseline:
//
//  * after a checkpoint write, the region is advised preferred-location-host
//    (flush-like demotion) so the driver migrates it out eagerly;
//  * hints drive cudaMemPrefetchAsync promotions from a dedicated thread;
//  * prefetch volume is explicitly capped to the UVM device cache size,
//    tracking consumed/released bytes (the paper's thrash-control addition);
//  * consumed checkpoints are advised host-preferred so they evict
//    immediately and cleanly.
//
// Durability matches the other runtimes: a background flusher writes each
// checkpoint's host backing to the SSD store.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baselines/uvm/uvm_space.hpp"
#include "core/restore_queue.hpp"
#include "core/runtime.hpp"
#include "simgpu/cluster.hpp"
#include "storage/object_store.hpp"
#include "util/mpmc_queue.hpp"

namespace ckpt::uvm {

struct UvmRuntimeOptions {
  UvmConfig uvm;
  bool discard_after_restore = false;
  /// Grant the hint optimizations (advise + prefetch). Disable to model
  /// plain UVM without foreknowledge.
  bool use_hints = true;
  /// Host-memory budget for managed backings (the paper bounds the host
  /// tier at 32 GB per process; scaled 32 MB). When exceeded, checkpoints
  /// block until the flusher pages old checkpoints out to the SSD —
  /// matching the waits-for-eviction behaviour the paper reports for all
  /// approaches once both memory tiers fill (§5.4.2).
  std::uint64_t host_backing_bytes = 32ull << 20;
};

class UvmRuntime final : public core::Runtime {
 public:
  /// `ssd` is the one durable store: the flusher pages backings out to it
  /// and restores of paged-out checkpoints read from it.
  UvmRuntime(sim::Cluster& cluster, std::shared_ptr<storage::ObjectStore> ssd,
             UvmRuntimeOptions options, int num_ranks);
  ~UvmRuntime() override;

  util::Status Checkpoint(sim::Rank rank, core::Version v, sim::ConstBytePtr src,
                          std::uint64_t size) override;
  util::Status Restore(sim::Rank rank, core::Version v, sim::BytePtr dst,
                       std::uint64_t capacity) override;
  util::StatusOr<std::uint64_t> RecoverSize(sim::Rank rank, core::Version v) override;
  util::Status PrefetchEnqueue(sim::Rank rank, core::Version v) override;
  util::Status PrefetchStart(sim::Rank rank) override;
  util::Status WaitForFlushes(sim::Rank rank) override;
  void Shutdown() override;

  [[nodiscard]] core::RankMetrics metrics(sim::Rank rank) const override;
  [[nodiscard]] std::string_view name() const override { return "uvm"; }
  [[nodiscard]] UvmStats uvm_stats(sim::Rank rank) const;

 private:
  struct Record {
    core::Version version = 0;
    RegionId region = 0;   ///< 0 = backing paged out (data only on store)
    std::uint64_t size = 0;
    bool on_store = false;
    bool consumed = false;
    bool flush_pending = false;
    bool prefetched = false;  ///< counted against the device prefetch budget
  };

  struct RankCtx {
    sim::Rank rank = 0;
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unique_ptr<UvmSpace> space;
    std::unordered_map<core::Version, Record> records;
    core::RestoreQueue hints;
    bool prefetch_started = false;
    bool shutdown = false;
    std::uint64_t prefetched_bytes = 0;  ///< explicit device-budget tracking
    std::uint64_t host_bytes = 0;        ///< managed backings resident in host RAM
    std::uint64_t inflight_flushes = 0;
    core::RankMetrics metrics;
    util::MpmcQueue<core::Version> flush_q;
    std::jthread t_flush;
    std::jthread t_pf;
  };

  void FlushLoop(RankCtx& c);
  void PrefetchLoop(RankCtx& c);
  /// Pages out flushed (and preferably consumed) backings, oldest first,
  /// until `reserve` more bytes fit within the host budget. Requires c.mu
  /// held.
  void ReclaimHost(RankCtx& c, std::uint64_t reserve);
  [[nodiscard]] RankCtx& ctx(sim::Rank rank);
  [[nodiscard]] const RankCtx& ctx(sim::Rank rank) const;

  sim::Cluster& cluster_;
  std::shared_ptr<storage::ObjectStore> ssd_;
  UvmRuntimeOptions options_;
  std::vector<std::unique_ptr<RankCtx>> ranks_;
  bool shutdown_ = false;
};

}  // namespace ckpt::uvm
