// Multi-tenant integration driver: two independent jobs — an RTM shot and a
// synthetic checkpoint/restore loop — share one engine, with per-tenant
// cache quotas and weighted bandwidth shares. Prints a per-tenant
// attribution table and enforces the service-mode invariants:
//
//   * both tenants make progress (bytes checkpointed > 0),
//   * the synthetic tenant's restored data verifies bit-exact,
//   * no quota-carrying tenant ends the run over its cache quota.
//
// Environment knobs (defaults in parentheses):
//   CKPT_MT_TENANTS        tenants= spec ("rtm:24Mi;synth:8Mi:0.5")
//   CKPT_MT_RANKS          ranks per tenant (2)
//   CKPT_MT_CKPTS          RTM checkpoints per rank (32)
//   CKPT_MT_SYNTH_CKPTS    synthetic checkpoints per rank (32)
//   CKPT_MT_SYNTH_BYTES    synthetic checkpoint size (1Mi)
//   CKPT_MT_TIERS          optional tier-stack spec ("" = classic stack)
//   CKPT_BENCH_REPORT      write the tenant-labeled metrics JSON there
//
// With CKPT_TELEMETRY=1 and CKPT_TELEMETRY_OUT set, the final scrape lands
// in <out>.openmetrics.txt for tools/telemetry_check --require-label
// tenant=<name> validation (the CI multitenant job does exactly that).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/trace_sink.hpp"
#include "harness/experiment.hpp"
#include "util/config.hpp"
#include "util/file_io.hpp"
#include "util/trace.hpp"

int main() {
  using namespace ckpt;

  harness::MultiTenantConfig cfg;
  cfg.tenants = util::EnvString("CKPT_MT_TENANTS", "rtm:24Mi;synth:8Mi:0.5");
  cfg.ranks_per_tenant = static_cast<int>(util::EnvInt("CKPT_MT_RANKS", 2));
  cfg.shot.num_ckpts = static_cast<int>(util::EnvInt("CKPT_MT_CKPTS", 32));
  cfg.shot.compute_interval = std::chrono::microseconds(
      util::EnvInt("CKPT_BENCH_INTERVAL_US", 500));
  cfg.shot.verify = true;
  cfg.synth_ckpts =
      static_cast<int>(util::EnvInt("CKPT_MT_SYNTH_CKPTS", 32));
  cfg.synth_ckpt_bytes =
      static_cast<std::uint64_t>(util::EnvInt("CKPT_MT_SYNTH_BYTES", 1 << 20));
  cfg.tiers = util::EnvString("CKPT_MT_TIERS", "");

  auto result = harness::RunMultiTenantExperiment(cfg);
  if (!result.ok()) {
    std::fprintf(stderr, "multi-tenant run failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("\n=== Multi-tenant service: %s ===\n", cfg.tenants.c_str());
  std::printf("%-10s %6s %8s %14s %14s %12s %12s %10s\n", "tenant", "ranks",
              "quota", "ckpt bytes", "restore bytes", "cache end",
              "evicted", "quota waits");
  int failures = 0;
  for (const harness::TenantSummary& t : result->tenants) {
    std::printf("%-10s %6d %8.1fMi %14llu %14llu %12llu %12llu %10llu\n",
                t.name.c_str(), t.num_ranks,
                static_cast<double>(t.quota_bytes) / (1 << 20),
                static_cast<unsigned long long>(t.bytes_checkpointed),
                static_cast<unsigned long long>(t.bytes_restored),
                static_cast<unsigned long long>(t.cache_used_end),
                static_cast<unsigned long long>(t.evicted_bytes),
                static_cast<unsigned long long>(t.reserve_quota_waits));
    if (t.bytes_checkpointed == 0) {
      std::fprintf(stderr, "FAIL: tenant '%s' made no progress\n",
                   t.name.c_str());
      ++failures;
    }
    if (t.quota_bytes > 0 && t.cache_used_end > t.quota_bytes) {
      std::fprintf(stderr,
                   "FAIL: tenant '%s' ended %llu bytes over its %llu quota\n",
                   t.name.c_str(),
                   static_cast<unsigned long long>(t.cache_used_end -
                                                   t.quota_bytes),
                   static_cast<unsigned long long>(t.quota_bytes));
      ++failures;
    }
  }
  std::printf("wall %.2fs, RTM verify failures %llu, synth verify failures "
              "%llu, watchdog stalls %llu\n",
              result->wall_s,
              static_cast<unsigned long long>(result->shot.verify_failures),
              static_cast<unsigned long long>(result->synth_verify_failures),
              static_cast<unsigned long long>(result->watchdog_stalls));
  if (result->shot.verify_failures != 0 ||
      result->synth_verify_failures != 0) {
    std::fprintf(stderr, "FAIL: restored data did not verify\n");
    ++failures;
  }

  const std::string report = util::EnvString("CKPT_BENCH_REPORT", "");
  if (!report.empty()) {
    const util::Status st = util::WriteFile(report, result->metrics_json);
    if (!st.ok()) {
      std::fprintf(stderr, "FAIL: report: %s\n", st.ToString().c_str());
      ++failures;
    }
  }

  // CKPT_TRACE=1 + CKPT_TRACE_OUT: dump the (tenant-labeled) Chrome trace
  // the same way bench_common does for the figure benches.
  if (util::trace::enabled() && !util::trace::out_path().empty()) {
    const util::Status st = core::WriteChromeTrace(util::trace::out_path());
    if (!st.ok()) {
      std::fprintf(stderr, "FAIL: trace dump: %s\n", st.ToString().c_str());
      ++failures;
    } else {
      std::printf("trace: %s\n", util::trace::out_path().c_str());
    }
  }
  return failures == 0 ? 0 : 1;
}
