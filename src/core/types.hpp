// Shared vocabulary of the checkpoint runtime core.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ckpt::core {

/// Checkpoint version number within one process's history (the `ver`
/// argument of VELOC_Checkpoint / VELOC_Restart).
using Version = std::uint64_t;

/// Index of one tier within a core::TierStack, 0 = fastest: the engine API's
/// only tier vocabulary.
using TierIndex = int;

/// Number of tiers in the *default* stack (GPU HBM -> pinned host -> SSD ->
/// PFS, paper §2). Config-driven stacks may be shallower or deeper; code
/// that still assumes the default layout must size by this constant and
/// static_assert against it rather than bake in a literal 4.
inline constexpr std::size_t kTierCount = 4;

/// Names for the positions of the default stack (TierStack::Default), in
/// speed order. GPU and HOST are managed cache buffers; SSD and PFS are
/// durable object stores with enough capacity for the whole history (paper
/// §2 assumptions). Unscoped so a name converts to its TierIndex without a
/// cast; for any other stack, TierStack::name() supplies the labels.
enum Tier : TierIndex {
  kGpu = 0,
  kHost = 1,
  kSsd = 2,
  kPfs = 3,
};

static_assert(static_cast<std::size_t>(Tier::kPfs) + 1 == kTierCount,
              "default Tier names and kTierCount must stay in sync");

/// Why a cache reservation is being made. Used by the split-cache ablation
/// (§4.1.2 argues for a *shared* space; the ablation quantifies the claim)
/// and by telemetry.
enum class ReservePurpose : std::uint8_t {
  kWrite,     ///< checkpoint request or downward flush staging
  kPrefetch,  ///< upward promotion driven by hints
};

}  // namespace ckpt::core
