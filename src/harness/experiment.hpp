// Experiment harness: builds the full stack (simulated cluster -> stores ->
// one of the three compared runtimes -> RTM shot driver) for one
// configuration cell of the paper's evaluation matrix, runs it, and returns
// the figures' metrics. Shared by every bench binary and the examples.
#pragma once

#include <memory>
#include <string>

#include "baselines/adios/adios_runtime.hpp"
#include "baselines/uvm/uvm_runtime.hpp"
#include "core/engine.hpp"
#include "core/tier_stack.hpp"
#include "rtm/workload.hpp"
#include "simgpu/cluster.hpp"
#include "storage/faulty_store.hpp"
#include "storage/mem_store.hpp"
#include "storage/throttled_store.hpp"

namespace ckpt::harness {

/// The compared approaches of §5.2 / Table 1.
enum class Approach : std::uint8_t { kAdios, kUvm, kScore };

[[nodiscard]] constexpr const char* to_string(Approach a) noexcept {
  switch (a) {
    case Approach::kAdios: return "ADIOS2";
    case Approach::kUvm: return "UVM";
    case Approach::kScore: return "Score";
  }
  return "?";
}

/// Table 1 notation, e.g. "All hints, Score".
[[nodiscard]] std::string ConfigName(Approach a, rtm::HintMode hints);

struct ExperimentConfig {
  Approach approach = Approach::kScore;
  rtm::ShotConfig shot;
  sim::TopologyConfig topology = sim::TopologyConfig::Scaled();
  int num_ranks = 8;

  // Runtime knobs shared with the paper's cache setup (§5.3.4). The same
  // GPU-cache budget is granted to every approach (Score's cache, UVM's
  // device cache); ADIOS2 has none by design.
  std::uint64_t gpu_cache_bytes = 4ull << 20;
  std::uint64_t host_cache_bytes = 32ull << 20;
  /// Default eviction policy; cache tiers of a `tiers` spec may override it
  /// per tier with a fourth `:policy` field.
  core::EvictionKind eviction = core::EvictionKind::kScore;
  bool split_flush_prefetch = false;
  bool discard_after_restore = false;
  bool gpudirect = false;  ///< Score engine only: GPUDirect Storage extension

  /// Fault injection on the SSD tier (DESIGN.md §8): every put/get fails
  /// transiently with this probability, exercising the retry/degradation
  /// machinery under load. 0 disables the FaultyStore wrapper entirely.
  /// With a custom `tiers` spec the wrapper lands on the first durable
  /// tier's backend.
  double ssd_fault_rate = 0.0;
  std::uint64_t ssd_fault_seed = 42;

  /// N-tier stack spec for the Score engine ("name:kind[:arg[:policy]],..."
  /// — see core/tier_stack.hpp), e.g. "host:cache:32Mi,ssd:durable" for a
  /// host-only stack or "gpu:gpucache:4Mi:score,host:cache:32Mi:fifo,
  /// ssd:durable" for a mixed-policy hierarchy. Empty = the classic
  /// GPU -> host -> SSD [-> PFS] stack built from the knobs above. Only
  /// meaningful for Approach::kScore.
  std::string tiers;
  /// Terminal tier name for `tiers` (empty = its first durable tier).
  std::string terminal_tier_name;
  /// Test hook: overrides the store factory for `tiers` entries (e.g. to
  /// inject a FaultyStore on a chosen durable tier). The default is
  /// core::MakeTierStoreFactory, with ssd_fault_rate on the first durable
  /// tier.
  core::TierStoreFactory tier_store_factory;
};

struct ExperimentResult {
  rtm::ShotResult shot;
  std::string config_name;
  double ckpt_MBps_mean = 0.0;     ///< mean per-rank checkpoint throughput
  double restore_MBps_mean = 0.0;  ///< mean per-rank restore throughput
  double ckpt_MBps_agg = 0.0;      ///< stacked over ranks (Fig. 9)
  double restore_MBps_agg = 0.0;
  /// Engine metrics snapshot (core::MetricsSnapshotJson) taken after the
  /// shot; empty for the baseline runtimes. Embedded verbatim in the bench
  /// run reports (CKPT_BENCH_REPORT).
  std::string metrics_json;
  /// Critical-path attribution (core::CriticalPathJson): the shot's wall
  /// time split into checkpoint / restore / blocked / compute per rank.
  /// Score engine only; embedded in the bench run reports.
  std::string critical_path_json;
  /// Final OpenMetrics scrape from the live-telemetry sampler; empty unless
  /// telemetry is enabled (CKPT_TELEMETRY=1 or util::telemetry::Configure).
  std::string openmetrics_text;
  /// Stalls the telemetry watchdog detected during the shot (0 = healthy).
  std::uint64_t watchdog_stalls = 0;
};

/// Builds the stack and runs one shot. Deterministic modulo thread timing.
util::StatusOr<ExperimentResult> RunExperiment(const ExperimentConfig& cfg);

// --- Multi-tenant service experiment (DESIGN.md §12) ---
//
// Two independent jobs share one Score engine: tenant A (first rank block)
// runs the RTM shot, tenant B (second block) runs a synthetic
// checkpoint/restore loop, concurrently. Exercises per-tenant quota
// admission, weighted bandwidth sharing, and tenant-labeled telemetry
// end-to-end.

struct MultiTenantConfig {
  sim::TopologyConfig topology = sim::TopologyConfig::Scaled();
  /// Ranks per tenant; the shared engine serves 2x this many ranks.
  int ranks_per_tenant = 4;
  /// `tenants=` spec (core/tenant.hpp grammar); must name exactly two
  /// tenants: first = RTM job, second = synthetic job.
  std::string tenants = "rtm:24Mi;synth:8Mi:0.5";
  std::uint64_t gpu_cache_bytes = 4ull << 20;
  std::uint64_t host_cache_bytes = 32ull << 20;
  core::EvictionKind eviction = core::EvictionKind::kScore;
  /// Optional N-tier stack spec (see ExperimentConfig::tiers).
  std::string tiers;
  std::string terminal_tier_name;
  /// Tenant A workload.
  rtm::ShotConfig shot;
  /// Tenant B workload: per rank, `synth_ckpts` checkpoints of
  /// `synth_ckpt_bytes`, restoring (and verifying) every
  /// `synth_restore_every`-th version.
  int synth_ckpts = 48;
  std::uint64_t synth_ckpt_bytes = 1ull << 20;
  int synth_restore_every = 4;
};

/// Per-tenant attribution of one multi-tenant run.
struct TenantSummary {
  std::string name;
  core::TenantId id = core::kNoTenant;
  int first_rank = 0;
  int num_ranks = 0;
  std::uint64_t quota_bytes = 0;
  std::uint64_t bytes_checkpointed = 0;
  std::uint64_t bytes_restored = 0;
  std::uint64_t reserve_quota_waits = 0;
  std::uint64_t evicted_bytes = 0;
  /// TenantCacheUsed at end of run, before shutdown (quota-conformance
  /// evidence: <= quota_bytes when a quota is set).
  std::uint64_t cache_used_end = 0;
};

struct MultiTenantResult {
  std::vector<TenantSummary> tenants;
  rtm::ShotResult shot;  ///< tenant A's RTM result
  double wall_s = 0.0;
  std::uint64_t synth_verify_failures = 0;
  std::string metrics_json;       ///< tenant-labeled MetricsSnapshotJson
  std::string openmetrics_text;   ///< final scrape (telemetry enabled only)
  std::uint64_t watchdog_stalls = 0;
};

/// Runs the two tenants' workloads concurrently against one shared engine.
util::StatusOr<MultiTenantResult> RunMultiTenantExperiment(
    const MultiTenantConfig& cfg);

/// Environment-driven scaling for the bench suite:
///   CKPT_BENCH_CKPTS     checkpoints per shot (default 384, the paper's
///                        count: 48 MB of scaled history per GPU, 12x the
///                        GPU cache and 1.5x the host cache)
///   CKPT_BENCH_RANKS     simulated GPUs (default 8)
///   CKPT_BENCH_INTERVAL_US  compute interval in microseconds (default 1000)
///   CKPT_BENCH_FAULT_RATE   transient SSD fault probability per op
///                           (default 0 = no fault injection)
///   CKPT_BENCH_FAULT_SEED   seed for the fault schedule (default 42)
///   CKPT_BENCH_TIERS        tier-stack spec for the Score engine, incl.
///                           per-tier eviction policies
///                           ("name:kind[:arg[:policy]],...";
///                           default empty = classic 4-tier stack)
///   CKPT_BENCH_TERMINAL     terminal tier name for CKPT_BENCH_TIERS
struct BenchScale {
  int num_ckpts;
  int num_ranks;
  std::chrono::nanoseconds interval;
  double fault_rate;
  std::uint64_t fault_seed;
  std::string tiers;
  std::string terminal;
};
[[nodiscard]] BenchScale LoadBenchScale();

/// Pretty row printer used by the figure benches: fixed-width columns with
/// rates in MB/s.
void PrintTableHeader(const std::string& title, const std::string& col_label);
void PrintTableRow(const std::string& config, const std::string& variant,
                   double ckpt_MBps, double restore_MBps);

}  // namespace ckpt::harness
