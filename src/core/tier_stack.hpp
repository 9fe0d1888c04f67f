// Config-driven description of the multi-level storage hierarchy.
//
// The paper's contribution is a *multi-level* cache-and-prefetch data path;
// the tier count and composition are configuration, not code (VELOC's
// pluggable tier model). A TierStack is an ordered vector of TierDesc — a
// contiguous run of managed cache tiers (GPU HBM and/or pinned host arenas)
// followed by a contiguous run of durable object-store tiers — plus the
// index of the *terminal* tier a flush must reach before a checkpoint counts
// as durable. The engine walks this stack everywhere: flush staging,
// prefetch promotion, restore fallback, eviction safety ("durable copy
// below?") and fault degradation ("deepest surviving tier").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/eviction.hpp"
#include "core/types.hpp"
#include "storage/object_store.hpp"
#include "util/config.hpp"
#include "util/status.hpp"

namespace ckpt::sim {
class Topology;
}  // namespace ckpt::sim

namespace ckpt::core {

/// What a tier is made of, which determines who moves data in and out:
/// cache tiers are engine-managed CacheBuffers with eviction; durable tiers
/// are whole-object stores with enough capacity for the full history.
enum class TierKind : std::uint8_t { kCache, kDurable };

/// Physical medium of a cache tier. Device-backed tiers are carved out of
/// the rank's HBM (at most one, and it must be the top of the stack);
/// pinned-host tiers pay the one-time registration cost at init (§4.1.4).
enum class CacheMedium : std::uint8_t { kDevice, kPinnedHost };

[[nodiscard]] constexpr std::string_view to_string(TierKind k) noexcept {
  return k == TierKind::kCache ? "cache" : "durable";
}

/// One level of the hierarchy.
struct TierDesc {
  std::string name;                 ///< config-visible label ("gpu", "ssd", …)
  TierKind kind = TierKind::kCache;
  CacheMedium medium = CacheMedium::kPinnedHost;  ///< cache tiers only
  std::uint64_t capacity_bytes = 0;               ///< cache tiers only
  std::shared_ptr<storage::ObjectStore> store;    ///< durable tiers only
  /// Eviction policy driving this cache tier's CacheBuffer (default: score,
  /// the paper's gap-aware Algorithm 1). Unset = inherit the engine-wide
  /// default (`EngineOptions::eviction`, the legacy global `eviction` config
  /// key) — the engine resolves the inheritance at Init via
  /// ResolveEvictionPolicies(). Durable tiers never evict; Create rejects a
  /// policy named on one.
  std::optional<EvictionKind> policy;
};

class TierStack {
 public:
  TierStack() = default;

  /// Validates and adopts `tiers`. Rules (all violations are returned as
  /// kInvalidArgument at Init time instead of asserting mid-run):
  ///  * stack is non-empty, has >= 1 cache tier and >= 1 durable tier;
  ///  * every cache tier precedes every durable tier (so the deepest tier
  ///    is durable);
  ///  * cache tiers have capacity > 0; durable tiers have a non-null store;
  ///  * at most one device-backed cache tier, and only at index 0;
  ///  * names are non-empty and unique.
  /// `terminal_name` selects the durable tier flushes must reach (empty =
  /// the first durable tier, the legacy "terminal_tier = ssd" default).
  static util::StatusOr<TierStack> Create(std::vector<TierDesc> tiers,
                                          std::string_view terminal_name = {});

  /// The paper's default stack: GPU HBM -> pinned host -> SSD [-> PFS],
  /// whose positions the Tier names label. The PFS tier is present iff
  /// `pfs` is non-null; `terminal` must name a tier that exists. Default
  /// capacities are the paper's per-rank caches, scaled: 4 GB -> 4 MiB GPU
  /// cache, 32 GB -> 32 MiB pinned host cache.
  static util::StatusOr<TierStack> Default(
      std::shared_ptr<storage::ObjectStore> ssd,
      std::shared_ptr<storage::ObjectStore> pfs,
      std::uint64_t gpu_cache_bytes = 4ull << 20,
      std::uint64_t host_cache_bytes = 32ull << 20,
      Tier terminal = Tier::kSsd);

  [[nodiscard]] std::size_t size() const noexcept { return tiers_.size(); }
  [[nodiscard]] bool empty() const noexcept { return tiers_.empty(); }
  [[nodiscard]] const TierDesc& operator[](std::size_t i) const {
    return tiers_[i];
  }

  /// Cache tiers occupy [0, num_cache_tiers()); durable tiers the rest.
  [[nodiscard]] int num_cache_tiers() const noexcept { return num_cache_; }
  [[nodiscard]] int num_durable_tiers() const noexcept {
    return static_cast<int>(tiers_.size()) - num_cache_;
  }
  [[nodiscard]] int first_durable() const noexcept { return num_cache_; }
  [[nodiscard]] int deepest() const noexcept {
    return static_cast<int>(tiers_.size()) - 1;
  }
  /// Stack index of the tier flushes must reach for durability.
  [[nodiscard]] int terminal() const noexcept { return terminal_; }
  /// Terminal tier's position among the durable tiers (0 = first durable).
  [[nodiscard]] int terminal_ordinal() const noexcept {
    return terminal_ - num_cache_;
  }

  [[nodiscard]] bool is_cache(int i) const noexcept { return i < num_cache_; }
  [[nodiscard]] bool is_durable(int i) const noexcept {
    return i >= num_cache_ && i < static_cast<int>(tiers_.size());
  }
  [[nodiscard]] bool is_device(int i) const noexcept {
    return is_cache(i) && tiers_[static_cast<std::size_t>(i)].medium ==
                              CacheMedium::kDevice;
  }
  /// Maps a stack index of a durable tier to its ordinal (index into the
  /// per-record durable flags), and back.
  [[nodiscard]] int durable_ordinal(int stack_index) const noexcept {
    return stack_index - num_cache_;
  }
  [[nodiscard]] int durable_index(int ordinal) const noexcept {
    return num_cache_ + ordinal;
  }
  [[nodiscard]] const storage::ObjectStore* durable_store(int ordinal) const {
    return tiers_[static_cast<std::size_t>(durable_index(ordinal))].store.get();
  }
  [[nodiscard]] storage::ObjectStore* durable_store(int ordinal) {
    return tiers_[static_cast<std::size_t>(durable_index(ordinal))].store.get();
  }

  /// Configured name of tier `i`; out-of-range indices (including Tier
  /// names beyond this stack) resolve to a stable placeholder rather than
  /// "?" so log lines stay greppable.
  [[nodiscard]] std::string_view name(std::size_t i) const noexcept {
    return i < tiers_.size() ? std::string_view(tiers_[i].name)
                             : std::string_view("out-of-stack");
  }
  [[nodiscard]] std::optional<int> IndexOf(std::string_view tier_name) const;

  /// Fills `default_kind` into every cache tier that did not name a policy,
  /// after which policy(i) is concrete for the whole stack. The engine calls
  /// this once at Init with EngineOptions::eviction, making the legacy
  /// global `eviction` key the default for tiers that stay silent.
  void ResolveEvictionPolicies(EvictionKind default_kind);
  /// Eviction policy of cache tier `i` (kScore for tiers still unresolved).
  [[nodiscard]] EvictionKind policy(int i) const noexcept {
    return tiers_[static_cast<std::size_t>(i)].policy.value_or(
        EvictionKind::kScore);
  }

  /// Human-readable "gpu(4Mi,score)>host(32Mi)>ssd*>pfs" summary; '*' marks
  /// the terminal tier, and cache tiers with a concrete eviction policy
  /// carry its name next to their capacity.
  [[nodiscard]] std::string ToString() const;

 private:
  std::vector<TierDesc> tiers_;
  int num_cache_ = 0;
  int terminal_ = -1;
};

/// Builds an ObjectStore for one durable tier of a parsed spec. `backend` is
/// the spec's backend field ("mem", "file=<dir>", "s3://...", or an empty
/// string meaning the default "mem"); `ordinal` is the tier's position among
/// the durable tiers, which picks the bandwidth model.
using TierStoreFactory =
    std::function<util::StatusOr<std::shared_ptr<storage::ObjectStore>>(
        const std::string& tier_name, const std::string& backend, int ordinal)>;

/// Decorates a raw store (e.g. with fault injection).
using StoreDecorator = std::function<std::shared_ptr<storage::ObjectStore>(
    std::shared_ptr<storage::ObjectStore>)>;

/// The store factory shared by every caller that builds an engine. Backends:
/// "mem" (or empty), "file=<dir>" and "s3://<bucket>[?opts]"
/// (storage/remote_store.hpp).
/// The first durable tier sits behind the node's NVMe model and deeper tiers
/// behind the PFS uplink; remote tiers charge their own fabric and get
/// neither. `wrap_first`, when set, decorates the first durable tier's raw
/// store inside that model. `topo` must outlive the factory.
TierStoreFactory MakeTierStoreFactory(const sim::Topology& topo,
                                      StoreDecorator wrap_first = {});

/// Parses a tier-stack spec string into a validated TierStack.
///
/// Grammar (entries separated by ',' or ';', fields colon-separated; use
/// ';' inside util::Config values, whose parser treats ',' as a line
/// break):
///   spec       := entry (("," | ";") entry)*
///   entry      := name ":" kind [":" arg [":" policy]]
///   kind       := "gpucache" | "cache" | "durable"
///   arg        := capacity for cache kinds (util::ParseSize suffixes, e.g.
///                 "4Mi"); backend for durable kinds ("mem" | "file=<dir>" |
///                 "s3://<bucket>[?opts]" — see storage/remote_store.hpp for
///                 the option grammar, e.g. "s3://ckpts?part=1Mi&group=8")
///   policy     := "score" | "lru" | "fifo" | "greedy-gap"  (cache kinds
///                 only; omitted = the engine-wide `eviction` default)
///
/// Only the leading separators split fields: after a durable `kind` the
/// whole remainder is the backend arg, so backends containing ':' or '='
/// ("file=C:\scratch", "s3://bucket?part=2Mi") parse intact. Unknown
/// policy names are kInvalidArgument, like every other stack violation.
///
/// Example: "gpu:gpucache:4Mi:score,host:cache:32Mi:fifo,ssd:durable"
/// `terminal_name` as in TierStack::Create. `factory` instantiates durable
/// stores; pass {} to use plain in-memory stores (tests).
util::StatusOr<TierStack> ParseTierStack(std::string_view spec,
                                         std::string_view terminal_name,
                                         const TierStoreFactory& factory);

/// Convenience: reads the "tiers" and "terminal_tier" keys of `cfg` and
/// parses them. Returns an empty optional when `cfg` has no "tiers" key
/// (caller falls back to the default stack).
util::StatusOr<std::optional<TierStack>> TierStackFromConfig(
    const util::Config& cfg, const TierStoreFactory& factory);

}  // namespace ckpt::core
