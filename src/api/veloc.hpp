// VELOC-style application API (§4.3): the paper implements its approach as
// an extension of the VELOC checkpoint-restart runtime and adds two
// primitives to the classic set. This header mirrors that surface:
//
//   classic:  Mem_protect, Checkpoint, Restart, Recover_size
//   new:      Prefetch_enqueue, Prefetch_start      (highlighted in Listing 1)
//
// One VelocClient wraps one process (rank). Multiple protected memory
// regions are packed into a single monolithic checkpoint object (checkpoints
// are whole-object immutable, paper §1); a single protected region takes a
// zero-copy path straight through the engine.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "simgpu/cluster.hpp"

namespace ckpt::api {

class VelocClient {
 public:
  /// `engine` and `cluster` must outlive the client.
  VelocClient(core::Engine& engine, sim::Cluster& cluster, sim::Rank rank);
  ~VelocClient();

  VelocClient(const VelocClient&) = delete;
  VelocClient& operator=(const VelocClient&) = delete;

  /// Declares (or re-declares, e.g. before a Restart of a different-sized
  /// version) a device memory region to checkpoint. Regions are identified
  /// by `region_id` and concatenated in id order.
  util::Status MemProtect(int region_id, sim::BytePtr ptr, std::uint64_t size);

  /// Removes a protected region.
  util::Status MemUnprotect(int region_id);

  /// Writes all protected regions as checkpoint version `ver`. Blocks until
  /// the data reaches the GPU cache; flushing continues in the background.
  /// `name` labels the checkpoint series (kept for API fidelity/telemetry).
  util::Status Checkpoint(const std::string& name, core::Version ver);

  /// Restores version `ver` into the protected regions.
  util::Status Restart(core::Version ver);

  /// Size of region `region_id` in version `ver`. Falls back to the whole
  /// object size when the region manifest is unavailable (restart from a
  /// durable store with a single protected region).
  util::StatusOr<std::uint64_t> RecoverSize(core::Version ver, int region_id);

  /// NEW (paper): appends a restore-order hint.
  util::Status PrefetchEnqueue(core::Version ver);

  /// NEW (paper): releases the prefetcher. Optional; useful to delay
  /// prefetches until the flush-heavy forward pass is done (Listing 1).
  util::Status PrefetchStart();

  /// Blocks until all checkpoints of this rank are durable.
  util::Status WaitForFlushes();

  [[nodiscard]] sim::Rank rank() const noexcept { return rank_; }
  [[nodiscard]] core::RankMetrics metrics() const {
    return engine_.metrics(rank_);
  }
  /// Tenant owning this client's rank (kDefaultTenant in single-tenant mode).
  [[nodiscard]] core::TenantId tenant() const noexcept {
    return engine_.TenantOf(rank_);
  }
  /// Owning tenant's name ("default" in single-tenant mode).
  [[nodiscard]] std::string tenant_name() const {
    return engine_.TenantLabelOf(rank_);
  }

 private:
  struct Region {
    sim::BytePtr ptr = nullptr;
    std::uint64_t size = 0;
  };

  /// Total bytes across protected regions.
  [[nodiscard]] std::uint64_t ProtectedBytes() const;
  /// Ensures the device pack buffer holds at least `size` bytes.
  util::Status EnsurePackBuffer(std::uint64_t size);

  core::Engine& engine_;
  sim::Cluster& cluster_;
  sim::Rank rank_;
  std::map<int, Region> regions_;
  // Per-version region-size manifest for multi-region RecoverSize.
  std::map<core::Version, std::vector<std::pair<int, std::uint64_t>>> manifest_;
  sim::BytePtr pack_buf_ = nullptr;
  std::uint64_t pack_capacity_ = 0;
};

}  // namespace ckpt::api
