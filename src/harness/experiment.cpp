#include "harness/experiment.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>

#include "core/telemetry_sampler.hpp"
#include "core/telemetry_sink.hpp"
#include "core/tenant.hpp"
#include "core/trace_sink.hpp"
#include "util/clock.hpp"
#include "util/config.hpp"
#include "util/telemetry.hpp"

namespace ckpt::harness {

namespace {

/// Scrapes the stopped sampler's newest sample. When an output prefix is
/// configured and the flight recorder did not already claim these names for
/// its stall-time snapshot, also writes the scrape and the sample window
/// there (`<prefix>.openmetrics.txt`, `<prefix>.window.json`) for
/// telemetry_check. Returns the scrape.
std::string EndOfRunExposition(core::TelemetrySampler& sampler,
                               const core::Engine& engine) {
  std::string scrape = sampler.ScrapeOpenMetrics();
  const std::string& prefix = sampler.options().out_path;
  if (prefix.empty() || sampler.flight_dumped()) return scrape;
  const auto write = [](const std::string& path, const std::string& body) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (f) f.write(body.data(), static_cast<std::streamsize>(body.size()));
    if (!f) {
      std::fprintf(stderr, "harness: failed to write telemetry to '%s'\n",
                   path.c_str());
    }
  };
  write(prefix + ".openmetrics.txt", scrape);
  write(prefix + ".window.json",
        core::TelemetryWindowJson(sampler.ring(),
                                  core::TelemetryTierNames(engine)));
  return scrape;
}

}  // namespace

std::string ConfigName(Approach a, rtm::HintMode hints) {
  const char* h = "";
  switch (hints) {
    case rtm::HintMode::kNone: h = "No hints"; break;
    case rtm::HintMode::kSingle: h = "Single hint"; break;
    case rtm::HintMode::kAll: h = "All hints"; break;
  }
  return std::string(h) + ", " + to_string(a);
}

util::StatusOr<ExperimentResult> RunExperiment(const ExperimentConfig& cfg) {
  sim::Cluster cluster(cfg.topology);
  if (cfg.num_ranks > cluster.total_gpus()) {
    return util::InvalidArgument("more ranks than simulated GPUs");
  }

  // Durable tiers: in-memory object stores behind the NVMe / PFS bandwidth
  // models (benches avoid real disk I/O variance; the FileStore path is
  // exercised by tests and examples). Transient fault injection wraps the
  // first durable tier's raw store.
  const auto faulty = [&cfg](std::shared_ptr<storage::ObjectStore> inner)
      -> std::shared_ptr<storage::ObjectStore> {
    if (cfg.ssd_fault_rate <= 0.0) return inner;
    storage::FaultyStore::Options fopts;
    fopts.seed = cfg.ssd_fault_seed;
    fopts.put_fail_rate = cfg.ssd_fault_rate;
    fopts.get_fail_rate = cfg.ssd_fault_rate;
    fopts.rate_fault_kind = storage::FaultKind::kTransient;
    return std::make_shared<storage::FaultyStore>(std::move(inner), fopts);
  };
  const core::TierStoreFactory stores =
      core::MakeTierStoreFactory(cluster.topology(), faulty);
  auto ssd = stores("ssd", "mem", 0);
  auto pfs = stores("pfs", "mem", 1);
  if (!ssd.ok()) return ssd.status();
  if (!pfs.ok()) return pfs.status();

  std::unique_ptr<core::Runtime> runtime;
  switch (cfg.approach) {
    case Approach::kScore: {
      core::EngineOptions opts;
      opts.eviction = cfg.eviction;
      opts.split_flush_prefetch = cfg.split_flush_prefetch;
      opts.discard_after_restore = cfg.discard_after_restore;
      opts.gpudirect = cfg.gpudirect;
      auto stack =
          cfg.tiers.empty()
              ? core::TierStack::Default(*ssd, *pfs, cfg.gpu_cache_bytes,
                                         cfg.host_cache_bytes)
              : core::ParseTierStack(cfg.tiers, cfg.terminal_tier_name,
                                     cfg.tier_store_factory
                                         ? cfg.tier_store_factory
                                         : stores);
      if (!stack.ok()) return stack.status();
      runtime = std::make_unique<core::Engine>(cluster, std::move(*stack), opts,
                                               cfg.num_ranks);
      break;
    }
    case Approach::kUvm: {
      uvm::UvmRuntimeOptions opts;
      opts.uvm.device_cache_bytes = cfg.gpu_cache_bytes;
      opts.discard_after_restore = cfg.discard_after_restore;
      opts.use_hints = cfg.shot.hint_mode != rtm::HintMode::kNone;
      runtime = std::make_unique<uvm::UvmRuntime>(cluster, *ssd, opts,
                                                  cfg.num_ranks);
      break;
    }
    case Approach::kAdios: {
      adios::AdiosOptions opts;
      opts.host_buffer_bytes = cfg.host_cache_bytes * 2;  // BP5 pools are roomy
      runtime = std::make_unique<adios::AdiosRuntime>(cluster, *ssd, opts,
                                                      cfg.num_ranks);
      break;
    }
  }

  // Live telemetry: sample the Score engine's probe cells in the background
  // for the duration of the shot. Baselines expose no probes.
  auto* engine = dynamic_cast<core::Engine*>(runtime.get());
  std::unique_ptr<core::TelemetrySampler> sampler;
  if (engine != nullptr && util::telemetry::enabled()) {
    sampler = std::make_unique<core::TelemetrySampler>(
        *engine, core::TelemetrySampler::Options::FromGlobalConfig());
  }

  auto shot = rtm::RunShot(cluster, *runtime, cfg.shot, cfg.num_ranks);
  // Drain before teardown, as VELOCX_Finalize does: Shutdown() abandons
  // queued flushes (DESIGN.md §8.8), and the report counts every
  // checkpoint's durable outcome. Lost checkpoints already show in the
  // metrics, so the drain's status is not the shot's.
  for (int r = 0; r < cfg.num_ranks; ++r) (void)runtime->WaitForFlushes(r);
  // Stop sampling before teardown: the final tick closes the window while
  // the flush workers and probe cells are still alive.
  if (sampler != nullptr) sampler->Stop();
  runtime->Shutdown();
  if (!shot.ok()) return shot.status();

  ExperimentResult result;
  // Snapshot the Score engine's metrics after the workers drain, while the
  // runtime is still alive. Baselines expose no RankMetrics.
  if (engine != nullptr) {
    result.metrics_json = core::MetricsSnapshotJson(*engine);
    result.critical_path_json = core::CriticalPathJson(*engine, shot->wall_s);
  }
  if (sampler != nullptr) {
    result.openmetrics_text = EndOfRunExposition(*sampler, *engine);
    result.watchdog_stalls = sampler->stalls_detected();
    if (sampler->strict_tripped()) {
      return util::IoError("telemetry watchdog detected " +
                           std::to_string(result.watchdog_stalls) +
                           " stall(s) in strict mode");
    }
  }
  result.shot = std::move(*shot);
  result.config_name = ConfigName(cfg.approach, cfg.shot.hint_mode);
  result.ckpt_MBps_mean = result.shot.MeanCkptThroughput() / 1e6;
  result.restore_MBps_mean = result.shot.MeanRestoreThroughput() / 1e6;
  result.ckpt_MBps_agg = result.shot.AggCkptThroughput() / 1e6;
  result.restore_MBps_agg = result.shot.AggRestoreThroughput() / 1e6;
  return result;
}

util::StatusOr<MultiTenantResult> RunMultiTenantExperiment(
    const MultiTenantConfig& cfg) {
  auto specs = core::ParseTenantSpecs(cfg.tenants);
  if (!specs.ok()) return specs.status();
  if (specs->size() != 2) {
    return util::InvalidArgument(
        "multi-tenant harness drives exactly two tenants (RTM + synthetic), "
        "got " + std::to_string(specs->size()));
  }
  if (cfg.ranks_per_tenant <= 0) {
    return util::InvalidArgument("ranks_per_tenant must be positive");
  }
  const int num_ranks = 2 * cfg.ranks_per_tenant;

  sim::Cluster cluster(cfg.topology);
  if (num_ranks > cluster.total_gpus()) {
    return util::InvalidArgument("more ranks than simulated GPUs");
  }

  core::EngineOptions opts;
  opts.eviction = cfg.eviction;
  opts.tenants = std::move(*specs);

  const core::TierStoreFactory stores =
      core::MakeTierStoreFactory(cluster.topology());
  auto ssd = stores("ssd", "mem", 0);
  auto pfs = stores("pfs", "mem", 1);
  if (!ssd.ok()) return ssd.status();
  if (!pfs.ok()) return pfs.status();
  auto stack = cfg.tiers.empty()
                   ? core::TierStack::Default(*ssd, *pfs, cfg.gpu_cache_bytes,
                                              cfg.host_cache_bytes)
                   : core::ParseTierStack(cfg.tiers, cfg.terminal_tier_name,
                                          stores);
  if (!stack.ok()) return stack.status();
  auto engine = std::make_unique<core::Engine>(cluster, std::move(*stack), opts,
                                               num_ranks);

  std::unique_ptr<core::TelemetrySampler> sampler;
  if (util::telemetry::enabled()) {
    sampler = std::make_unique<core::TelemetrySampler>(
        *engine, core::TelemetrySampler::Options::FromGlobalConfig());
  }

  // Tenant B: synthetic checkpoint/restore loop, one thread per rank of the
  // second block, concurrent with tenant A's RTM shot below.
  std::atomic<std::uint64_t> verify_failures{0};
  std::mutex synth_mu;
  util::Status synth_status = util::OkStatus();
  const auto record_synth_error = [&](const util::Status& st) {
    std::lock_guard lock(synth_mu);
    if (synth_status.ok()) synth_status = st;
  };
  const util::Stopwatch wall;
  std::vector<std::thread> synth;
  synth.reserve(static_cast<std::size_t>(cfg.ranks_per_tenant));
  for (int r = cfg.ranks_per_tenant; r < num_ranks; ++r) {
    synth.emplace_back([&, r] {
      auto buf = cluster.device(r).Allocate(cfg.synth_ckpt_bytes);
      if (!buf.ok()) {
        record_synth_error(buf.status());
        return;
      }
      sim::BytePtr p = *buf;
      for (int v = 0; v < cfg.synth_ckpts; ++v) {
        const auto ver = static_cast<core::Version>(v);
        rtm::FillPattern(r, ver, p, cfg.synth_ckpt_bytes);
        util::Status st = engine->Checkpoint(r, ver, p, cfg.synth_ckpt_bytes);
        if (!st.ok()) {
          record_synth_error(st);
          break;
        }
        if (cfg.synth_restore_every > 0 &&
            (v + 1) % cfg.synth_restore_every == 0) {
          (void)engine->PrefetchEnqueue(r, ver);  // hint traffic
          st = engine->Restore(r, ver, p, cfg.synth_ckpt_bytes);
          if (!st.ok()) {
            record_synth_error(st);
            break;
          }
          if (!rtm::CheckPattern(r, ver, p, cfg.synth_ckpt_bytes)) {
            verify_failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      (void)engine->WaitForFlushes(r);
      (void)cluster.device(r).Free(p);
    });
  }

  // Tenant A: the RTM shot over the first rank block.
  auto shot = rtm::RunShot(cluster, *engine, cfg.shot, cfg.ranks_per_tenant);
  for (std::thread& t : synth) t.join();
  const double wall_s = wall.ElapsedSec();

  MultiTenantResult result;
  result.wall_s = wall_s;
  if (sampler != nullptr) {
    sampler->Stop();
    result.openmetrics_text = EndOfRunExposition(*sampler, *engine);
    result.watchdog_stalls = sampler->stalls_detected();
  }
  // Per-tenant attribution while the caches are still resident.
  const core::TenantRegistry& reg = engine->tenant_registry();
  for (core::TenantId id = 0; id < reg.count(); ++id) {
    const core::TenantCtx* t = reg.Get(id);
    TenantSummary s;
    s.name = t->spec.name;
    s.id = t->id;
    s.first_rank = t->first_rank;
    s.num_ranks = t->num_ranks;
    s.quota_bytes = t->spec.quota_bytes;
    s.cache_used_end = engine->TenantCacheUsed(id);
    for (int r = t->first_rank; r < t->first_rank + t->num_ranks; ++r) {
      const core::RankMetrics m = engine->MetricsSnapshot(r);
      s.bytes_checkpointed += m.bytes_checkpointed;
      s.bytes_restored += m.bytes_restored;
      s.reserve_quota_waits += m.reserve_quota_waits;
      for (const std::uint64_t b : m.evicted_bytes_from_tier) {
        s.evicted_bytes += b;
      }
    }
    result.tenants.push_back(std::move(s));
  }
  result.metrics_json = core::MetricsSnapshotJson(*engine);
  engine->Shutdown();
  if (!shot.ok()) return shot.status();
  {
    std::lock_guard lock(synth_mu);
    if (!synth_status.ok()) return synth_status;
  }
  if (sampler != nullptr && sampler->strict_tripped()) {
    return util::IoError("telemetry watchdog detected " +
                         std::to_string(result.watchdog_stalls) +
                         " stall(s) in strict mode");
  }
  result.shot = std::move(*shot);
  result.synth_verify_failures =
      verify_failures.load(std::memory_order_relaxed);
  return result;
}

BenchScale LoadBenchScale() {
  BenchScale scale;
  scale.num_ckpts = static_cast<int>(util::EnvInt("CKPT_BENCH_CKPTS", 384));
  scale.num_ranks = static_cast<int>(util::EnvInt("CKPT_BENCH_RANKS", 8));
  scale.interval = std::chrono::microseconds(
      util::EnvInt("CKPT_BENCH_INTERVAL_US", 1000));
  scale.fault_rate = util::EnvDouble("CKPT_BENCH_FAULT_RATE", 0.0);
  scale.fault_seed =
      static_cast<std::uint64_t>(util::EnvInt("CKPT_BENCH_FAULT_SEED", 42));
  scale.tiers = util::EnvString("CKPT_BENCH_TIERS", "");
  scale.terminal = util::EnvString("CKPT_BENCH_TERMINAL", "");
  return scale;
}

void PrintTableHeader(const std::string& title, const std::string& col_label) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-26s %-16s %14s %14s\n", "config", col_label.c_str(),
              "ckpt MB/s", "restore MB/s");
  std::printf("%.*s\n", 74,
              "--------------------------------------------------------------"
              "--------------------");
}

void PrintTableRow(const std::string& config, const std::string& variant,
                   double ckpt_MBps, double restore_MBps) {
  std::printf("%-26s %-16s %14.1f %14.1f\n", config.c_str(), variant.c_str(),
              ckpt_MBps, restore_MBps);
}

}  // namespace ckpt::harness
