// Stable 64-bit lineage ids for checkpoint objects. A flow id names one
// object's causal chain across threads, tiers and stores: the engine stamps
// it on Chrome-trace flow events (ph "s"/"t"/"f") at every hop, and
// `tools/trace_check --audit` stitches the chain back together from a dump.
// The id must therefore be derivable anywhere the object is visible — engine
// seams know (rank, version); stores know the same pair as ObjectKey —
// without any shared state, which is why it is a pure hash and not a
// counter.
//
// Ranks are tenant-exclusive contiguous blocks (core::TenantRegistry), so
// (rank, version) already identifies the tenant; folding the tenant id in
// would add no entropy.
#pragma once

#include <cstdint>

namespace ckpt::util::trace {

/// splitmix64 finalizer: full-avalanche 64-bit mix, same construction as
/// storage::ObjectKeyHash.
[[nodiscard]] constexpr std::uint64_t MixFlowId(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Lineage id of checkpoint object (rank, version). Versions occupy the low
/// bits and the rank the high bits before mixing, so distinct objects can
/// only collide through the mix itself (~2^-64 per pair). Never returns 0:
/// Event::flow_id uses 0 for "not a flow event".
///
/// Group objects (storage::AggregatingStore) reuse this with the synthetic
/// group rank (-1) and the group id as the version, so member flows and the
/// group flow they join can never alias.
[[nodiscard]] constexpr std::uint64_t FlowIdOf(std::int64_t rank,
                                               std::uint64_t version) noexcept {
  const std::uint64_t mixed =
      MixFlowId((static_cast<std::uint64_t>(rank) << 44) ^ version);
  return mixed == 0 ? 1 : mixed;
}

}  // namespace ckpt::util::trace
