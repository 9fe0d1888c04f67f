// Tenant layer for the multi-tenant checkpoint service (DESIGN.md §12).
//
// The engine's TierStack, cache buffers, rate limiters, and worker threads
// are *shared* resources; a tenant is the unit of isolation layered on top:
// a contiguous block of ranks with its own identity, cache-byte quota, and
// fair-share weight. Because every RankCtx (records, FSM lifecycles, restore
// queue) already belongs to exactly one rank, assigning ranks to
// tenants partitions all per-job state without moving any of it — the
// registry only has to answer "which tenant does rank r serve?" on hot paths,
// which it does lock-free.
//
// The `tenants=` config grammar mirrors `tiers=`:
//
//   tenants = name ":" quota [":" weight] (";" ...)*
//   e.g.    tenants = rtm:24Mi;synth:8Mi:0.5
//
// quota caps the tenant's total bytes across *cache* tiers (0 = unlimited);
// weight scales its share of every link's bandwidth under contention
// (start-time fair queuing, util/rate_limiter.hpp). Ranks are split into
// contiguous blocks in declaration order, remainder to the earlier tenants.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace ckpt::core {

using TenantId = int;
inline constexpr TenantId kNoTenant = -1;
/// The implicit tenant legacy single-job callers run under.
inline constexpr TenantId kDefaultTenant = 0;

struct TenantSpec {
  std::string name;
  /// Total cache bytes (across all cache tiers and the tenant's ranks) the
  /// tenant may hold before ReserveOn starts shedding/throttling it.
  /// 0 = unlimited.
  std::uint64_t quota_bytes = 0;
  /// Fair-share weight for shared rate-limiter bandwidth (SFQ flow weight).
  double weight = 1.0;
};

/// Parses the `tenants=` grammar above. Empty text -> empty vector (legacy
/// single-tenant mode). Rejects duplicate names, empty names, bad sizes, and
/// non-positive weights.
util::StatusOr<std::vector<TenantSpec>> ParseTenantSpecs(std::string_view text);

/// Per-tenant bookkeeping owned by the registry. The rank interval
/// [first_rank, first_rank + num_ranks) is this tenant's; all per-rank engine
/// state (records, lifecycles, restore queues) inside it is
/// thereby per-tenant.
struct TenantCtx {
  TenantId id = kNoTenant;
  TenantSpec spec;
  int first_rank = 0;
  int num_ranks = 0;
  /// Cleared by Close(): subsequent checkpoint/restore/hint calls on the
  /// tenant's ranks fail with kFailedPrecondition.
  std::atomic<bool> open{true};
};

/// Owns the tenant table and the rank -> tenant mapping. Open/Close are
/// rare control-plane calls (mutex); tenant_of() is hot-path (per
/// checkpoint/restore/reserve) and lock-free.
class TenantRegistry {
 public:
  explicit TenantRegistry(int total_ranks);

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Claims the next `num_ranks` unassigned ranks (contiguous, ascending)
  /// for a new tenant. Fails if the name is empty/duplicate or fewer than
  /// `num_ranks` ranks remain unassigned.
  util::StatusOr<TenantId> Open(const TenantSpec& spec, int num_ranks);

  /// Quiesces the tenant: marks it closed so new operations on its ranks
  /// are rejected. Rank ownership is retained (ranks are not recycled —
  /// the simulated cluster's rank blocks are fixed for the process).
  util::Status Close(TenantId id);

  /// Lock-free: tenant owning `rank`, or kNoTenant if unassigned.
  [[nodiscard]] TenantId tenant_of(int rank) const noexcept {
    if (rank < 0 || rank >= static_cast<int>(rank_tenant_.size())) {
      return kNoTenant;
    }
    return rank_tenant_[static_cast<std::size_t>(rank)].load(
        std::memory_order_acquire);
  }

  /// Lock-free: ctx for `id`; nullptr if out of range. Valid for the
  /// registry's lifetime (tenants are never destroyed, only closed).
  [[nodiscard]] const TenantCtx* Get(TenantId id) const noexcept {
    if (id < 0 || id >= count_.load(std::memory_order_acquire)) {
      return nullptr;
    }
    return tenants_[static_cast<std::size_t>(id)].get();
  }

  [[nodiscard]] TenantId FindByName(std::string_view name) const;

  [[nodiscard]] int count() const noexcept {
    return count_.load(std::memory_order_acquire);
  }
  [[nodiscard]] int total_ranks() const noexcept { return total_ranks_; }
  [[nodiscard]] int assigned_ranks() const noexcept {
    return next_rank_.load(std::memory_order_acquire);
  }

 private:
  const int total_ranks_;
  mutable std::mutex mu_;  // serializes Open/Close only
  // Slots are reserved up front so readers never observe a reallocation;
  // count_ publishes how many are live.
  std::vector<std::unique_ptr<TenantCtx>> tenants_;
  std::vector<std::atomic<TenantId>> rank_tenant_;
  std::atomic<int> count_{0};
  std::atomic<int> next_rank_{0};
};

}  // namespace ckpt::core
