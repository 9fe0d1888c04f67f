#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <optional>
#include <unordered_map>

#include "core/engine.hpp"
#include "core/tier_stack.hpp"
#include "ledger.hpp"
#include "simgpu/cluster.hpp"
#include "storage/mem_store.hpp"
#include "storage/remote_store.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace core = ckpt::core;
namespace rtm = ckpt::rtm;
namespace sim = ckpt::sim;
namespace storage = ckpt::storage;
using ckpt::util::RateLimiter;

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> ws(3);

  // Fig. 5a protocol. The 384 x 128 KiB forward pass overflows the 4 MiB GPU
  // cache about 12x and is 1.5x the 32 MiB host cache, so checkpoints pay
  // the reserve/evict path and the D2H flush, the WAIT drain is NVMe-bound,
  // and the prefetcher feeds the reverse backward pass ahead.
  Workload& wait = ws[0];
  wait.name = "rtm-wait";
  wait.tiers = "gpu:gpucache:4Mi;host:cache:32Mi;ssd:durable:mem";
  wait.terminal = "ssd";
  wait.terminal_link = "nvme";
  wait.shot.num_ckpts = 384;
  wait.shot.size_mode = rtm::SizeMode::kUniform;
  wait.shot.read_order = rtm::ReadOrder::kReverse;
  wait.shot.hint_mode = rtm::HintMode::kAll;
  wait.shot.wait_for_flush = true;
  wait.shot.verify = true;

  // Fig. 6b's hardest cell: variable trace sizes, an irregular restore order
  // and no WAIT, so flushes and promotions compete for fragmented cache
  // space and the PCIe links; eviction does most of its work here.
  Workload& mixed = ws[1];
  mixed = wait;
  mixed.name = "rtm-interleaved";
  mixed.shot.size_mode = rtm::SizeMode::kVariable;
  mixed.shot.read_order = rtm::ReadOrder::kIrregular;
  mixed.shot.wait_for_flush = false;

  // Aggregated remote terminal: the only workload where the storage layer
  // sets durability. A 96 x 128 KiB history per rank fits the host cache,
  // so eviction barely runs, the prefetcher is idle (no hints) and every
  // restore is a host hit: prefetch or eviction changes must leave it flat.
  Workload& remote = ws[2];
  remote.name = "remote-drain";
  remote.tiers =
      "gpu:gpucache:4Mi;host:cache:32Mi;ssd:durable:mem;"
      "remote:durable:s3://ckpts?part=256Ki&lat_us=100&group=8&deadline_ms=50";
  remote.terminal = "remote";
  remote.terminal_link = "pfs";
  remote.shot.num_ckpts = 96;
  remote.shot.size_mode = rtm::SizeMode::kUniform;
  remote.shot.read_order = rtm::ReadOrder::kSequential;
  remote.shot.hint_mode = rtm::HintMode::kNone;
  remote.shot.wait_for_flush = true;
  remote.shot.verify = true;
  return ws;
}

// Tiers whose residency and store traffic the ledger names.
constexpr std::array<const char*, 4> kTiers = {"gpu", "host", "ssd", "remote"};
constexpr std::array<const char*, 2> kCacheTiers = {"gpu", "host"};
constexpr std::array<const char*, 2> kDurableTiers = {"ssd", "remote"};

using Limiters = std::array<std::vector<const RateLimiter*>, kNumLinks>;
using LinkBytes = std::array<std::vector<std::uint64_t>, kNumLinks>;

// Every limiter instance of each link class on the node, deduplicated: two
// GPUs share a PCIe link and a NUMA domain.
Limiters NodeLimiters(const sim::Topology& topo) {
  Limiters out;
  const auto add = [&out](LinkClass c, const RateLimiter& l) {
    auto& v = out[static_cast<std::size_t>(c)];
    if (std::find(v.begin(), v.end(), &l) == v.end()) v.push_back(&l);
  };
  for (sim::Rank r = 0; r < topo.config().total_gpus(); ++r) {
    const sim::GpuId gpu = topo.gpu_of_rank(r);
    add(kD2d, topo.d2d(gpu));
    add(kPcieD2h, topo.pcie_link(gpu, sim::Topology::LinkDir::kD2H));
    add(kPcieH2d, topo.pcie_link(gpu, sim::Topology::LinkDir::kH2D));
    add(kHostMem, topo.host_mem(gpu));
    add(kNvme, topo.nvme_for_rank(r));
  }
  add(kPfs, topo.pfs());
  return out;
}

LinkBytes Admitted(const Limiters& limiters) {
  LinkBytes out;
  for (std::size_t c = 0; c < limiters.size(); ++c) {
    for (const RateLimiter* l : limiters[c]) out[c].push_back(l->admitted_bytes());
  }
  return out;
}

struct Usage {
  double cpu_s = 0.0;
  long voluntary = 0;
  long involuntary = 0;
};

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {sec(ru.ru_utime) + sec(ru.ru_stime), ru.ru_nvcsw, ru.ru_nivcsw};
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Seconds(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

void NoteError(RepResult& r, std::string message) {
  if (r.first_error.empty()) r.first_error = std::move(message);
}

// What the per-layer ledger reads after one traced repetition.
struct LayerInputs {
  const Workload* workload = nullptr;
  const core::Engine* engine = nullptr;
  const TimedRuntime* runtime = nullptr;
  sim::TopologyConfig topology;
  std::vector<Span> spans;
  std::array<std::uint64_t, kNumLinks> link_total{};
  std::array<std::uint64_t, kNumLinks> link_busiest{};
  std::uint64_t terminal_history_busiest = 0;  ///< history bytes per instance
  std::int64_t forward_end_ns = 0;             ///< last Checkpoint() return
  double setup_cluster_s = 0.0;
  double setup_engine_s = 0.0;
  std::int64_t shot_start_ns = 0;
  std::int64_t shot_end_ns = 0;
  double window_s = 0.0;  ///< the shot plus the benchmark's drain
  Usage usage_before;
  Usage usage_after;
};

std::map<std::string, double> Ledger(const LayerInputs& in) {
  std::map<std::string, double> m;
  for (const auto& [name, unit] : LayerMetricUnits()) m[name] = 0.0;
  const rtm::ShotConfig& shot = in.workload->shot;
  const double shot_s = Seconds(in.shot_start_ns, in.shot_end_ns);
  const double pass_compute_s =
      shot.num_ckpts * std::chrono::duration<double>(shot.compute_interval).count();

  // core.call / proc / rtm: the app threads' side of every call in the shot.
  double ckpt_cpu = 0, ckpt_wall = 0, restore_cpu = 0, restore_wall = 0, ops = 0;
  std::vector<double> recover_us, enqueue_ns;
  std::int64_t slowest_end = 0;
  double slowest_blocked_s = 0;
  for (int r = 0; r < kRanks; ++r) {
    double blocked_ns = 0;
    std::int64_t last_end = in.shot_start_ns;
    for (const CallRecord& c : in.runtime->calls(r)) {
      if (c.start_ns >= in.shot_end_ns) continue;  // the benchmark's drain
      const auto wall = static_cast<double>(c.end_ns - c.start_ns);
      const auto cpu = static_cast<double>(c.cpu_ns);
      blocked_ns += wall;
      last_end = std::max(last_end, c.end_ns);
      switch (c.call) {
        case Call::kCheckpoint:
          ckpt_wall += wall;
          ckpt_cpu += cpu;
          ++ops;
          break;
        case Call::kRestore:
          restore_wall += wall;
          restore_cpu += cpu;
          ++ops;
          break;
        case Call::kRecoverSize: recover_us.push_back(wall * 1e-3); break;
        case Call::kPrefetchEnqueue: enqueue_ns.push_back(wall); break;
        default: break;
      }
    }
    if (last_end > slowest_end) {
      slowest_end = last_end;
      slowest_blocked_s = blocked_ns * 1e-9;
    }
  }
  m["core.call.ckpt_cpu_frac"] = Ratio(ckpt_cpu, ckpt_wall);
  m["core.call.restore_cpu_frac"] = Ratio(restore_cpu, restore_wall);
  m["core.call.recover_size_p50_us"] = Percentile(recover_us, 50);
  m["core.call.prefetch_enqueue_p50_ns"] = Percentile(enqueue_ns, 50);
  m["proc.ctx_switches_per_op.voluntary"] = Ratio(
      static_cast<double>(in.usage_after.voluntary - in.usage_before.voluntary), ops);
  m["proc.ctx_switches_per_op.involuntary"] = Ratio(
      static_cast<double>(in.usage_after.involuntary - in.usage_before.involuntary),
      ops);
  m["rtm.driver_overhead_s"] = shot_s - 2 * pass_compute_s - slowest_blocked_s;

  // core: the engine's own counters, merged over ranks.
  core::RankMetrics merged;
  for (int r = 0; r < kRanks; ++r) merged.Merge(in.engine->MetricsSnapshot(r));
  const core::TierStack& stack = in.engine->tiers();
  const auto index_of = [&stack](const char* tier) -> std::optional<std::size_t> {
    const auto i = stack.IndexOf(tier);
    if (!i) return std::nullopt;
    return static_cast<std::size_t>(*i);
  };
  const auto per_tier = [&index_of](const std::vector<std::uint64_t>& v,
                                    const char* tier) {
    const auto i = index_of(tier);
    return i && *i < v.size() ? static_cast<double>(v[*i]) : 0.0;
  };
  m["core.reserve_wait_write_s"] = merged.reserve_wait_write_s;
  m["core.reserve_rounds"] = static_cast<double>(merged.reserve_rounds);
  m["core.reserve_plans_stale"] = static_cast<double>(merged.reserve_plans_stale);
  m["core.reserve_wait_prefetch_s"] = merged.reserve_wait_prefetch_s;
  for (const char* t : kCacheTiers) {
    m[std::string("core.evicted_bytes.") + t] =
        per_tier(merged.evicted_bytes_from_tier, t);
    const auto i = index_of(t);
    m[std::string("core.flush_stage_s.") + t] =
        i && *i < merged.flush_stage_hist.size() ? merged.flush_stage_hist[*i].sum()
                                                 : 0.0;
  }
  const auto promotions = static_cast<double>(merged.prefetch_promotions);
  const auto aborts = static_cast<double>(merged.prefetch_aborts);
  m["core.prefetch_promotions"] = promotions;
  m["core.prefetch_gpu_hits"] = static_cast<double>(merged.prefetch_gpu_hits);
  m["core.prefetch_aborts"] = aborts;
  m["core.prefetch_abort_frac"] = Ratio(aborts, promotions + aborts);
  m["core.restores_waited_promotion"] =
      static_cast<double>(merged.restores_waited_promotion);
  double restores = 0;
  for (const std::uint64_t n : merged.restores_from_tier) {
    restores += static_cast<double>(n);
  }
  for (const char* t : kTiers) {
    m[std::string("core.restore_share.") + t] =
        Ratio(per_tier(merged.restores_from_tier, t), restores);
  }
  m["core.flushes_completed"] = static_cast<double>(merged.flushes_completed);
  m["core.flushes_cancelled"] = static_cast<double>(merged.flushes_cancelled);
  m["core.setup_engine_s"] = in.setup_engine_s;
  m["simgpu.setup_cluster_s"] = in.setup_cluster_s;

  // simgpu + sol: bytes per link and the bound they imply.
  const auto bw = LinkBandwidths(in.topology);
  SolInput sol;
  sol.forward_compute_s = pass_compute_s;
  sol.backward_compute_s = pass_compute_s;
  sol.forward_s = Seconds(in.shot_start_ns, in.forward_end_ns);
  sol.wait_for_flush = shot.wait_for_flush;
  for (int c = 0; c < kNumLinks; ++c) {
    const auto i = static_cast<std::size_t>(c);
    m[std::string("simgpu.bytes.") + kLinkNames[i]] =
        static_cast<double>(in.link_total[i]);
    sol.links.push_back({kLinkNames[i], in.link_busiest[i], bw[i]});
    if (in.workload->terminal_link == kLinkNames[i]) {
      sol.terminal = {kLinkNames[i], in.terminal_history_busiest, bw[i]};
    }
  }
  for (const int c : {kPcieD2h, kPcieH2d, kNvme, kPfs}) {
    const auto i = static_cast<std::size_t>(c);
    m[std::string("simgpu.busy_frac.") + kLinkNames[i]] =
        Ratio(sol.links[i].busy_s(), in.window_s);
  }
  const SolBound bound = SpeedOfLight(sol);
  m["sol.shot_bound_s"] = bound.shot_s;
  m["sol.drain_bound_s"] = bound.drain_s;
  m["sol.efficiency"] = Ratio(bound.shot_s, shot_s);

  // storage / util: the store spans and the NVMe charges nested in them.
  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  double nvme_ns = 0;
  for (const Span& s : in.spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
    if (std::string_view(s.name) == kNvmeChargeSpan) {
      nvme_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  for (const char* t : kDurableTiers) {
    const std::string prefix = std::string("storage.") + t + ".";
    const std::string put = prefix + "put";
    const std::string get = prefix + "get";
    double puts = 0, gets = 0, put_bytes = 0, get_bytes = 0, put_ns = 0,
           get_ns = 0, put_self_ns = 0;
    std::vector<double> put_us;
    for (const Span& s : in.spans) {
      const auto dur = static_cast<double>(s.end_ns - s.start_ns);
      if (put == s.name) {
        ++puts;
        put_bytes += static_cast<double>(s.bytes);
        put_ns += dur;
        put_us.push_back(dur * 1e-3);
        const auto it = children.find(s.id);
        put_self_ns += static_cast<double>(SelfTimeNs(
            {s.start_ns, s.end_ns},
            it == children.end() ? std::vector<Interval>{} : it->second));
      } else if (get == s.name) {
        ++gets;
        get_bytes += static_cast<double>(s.bytes);
        get_ns += dur;
      }
    }
    m[prefix + "puts"] = puts;
    m[prefix + "gets"] = gets;
    m[prefix + "put_bytes"] = put_bytes;
    m[prefix + "get_bytes"] = get_bytes;
    m[prefix + "put_s"] = put_ns * 1e-9;
    m[prefix + "get_s"] = get_ns * 1e-9;
    m[prefix + "put_p99_us"] = Percentile(put_us, 99);
    if (std::string_view(t) == "ssd") m["storage.ssd.put_self_s"] = put_self_ns * 1e-9;
  }
  m["util.ratelimit_wait_s.nvme"] = nvme_ns * 1e-9;

  // storage.remote / storage.agg: the remote tier's own counters.
  storage::StoreStats stats;
  if (const auto i = stack.IndexOf("remote"); i && stack.is_durable(*i)) {
    (void)stack.durable_store(stack.durable_ordinal(*i))->CollectStats(stats);
  }
  m["storage.remote.requests"] = static_cast<double>(
      stats.remote_parts + stats.remote_part_retries + stats.remote_gets);
  m["storage.remote.part_retries"] = static_cast<double>(stats.remote_part_retries);
  m["storage.agg.group_puts"] = static_cast<double>(stats.agg_group_puts);
  m["storage.agg.size_seals"] = static_cast<double>(stats.agg_size_flushes);
  m["storage.agg.deadline_seals"] = static_cast<double>(stats.agg_deadline_flushes);
  return m;
}

}  // namespace

const Workload* FindWorkload(std::string_view name) {
  static const std::vector<Workload> kWorkloads = MakeWorkloads();
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = [] {
    std::vector<std::pair<std::string, std::string>> u = {
        {"core.call.ckpt_cpu_frac", "ratio"},
        {"core.call.restore_cpu_frac", "ratio"},
        {"proc.ctx_switches_per_op.voluntary", "1/op"},
        {"proc.ctx_switches_per_op.involuntary", "1/op"},
        {"core.call.recover_size_p50_us", "us"},
        {"core.call.prefetch_enqueue_p50_ns", "ns"},
        {"core.reserve_wait_write_s", "s"},
        {"core.reserve_rounds", "count"},
        {"core.reserve_plans_stale", "count"},
        {"core.reserve_wait_prefetch_s", "s"},
        {"core.evicted_bytes.gpu", "bytes"},
        {"core.evicted_bytes.host", "bytes"},
        {"core.prefetch_promotions", "count"},
        {"core.prefetch_gpu_hits", "count"},
        {"core.prefetch_aborts", "count"},
        {"core.prefetch_abort_frac", "ratio"},
        {"core.restores_waited_promotion", "count"},
        {"core.restore_share.gpu", "ratio"},
        {"core.restore_share.host", "ratio"},
        {"core.restore_share.ssd", "ratio"},
        {"core.restore_share.remote", "ratio"},
        {"core.flush_stage_s.gpu", "s"},
        {"core.flush_stage_s.host", "s"},
        {"core.flushes_completed", "count"},
        {"core.flushes_cancelled", "count"},
        {"core.setup_engine_s", "s"},
        {"simgpu.setup_cluster_s", "s"},
    };
    for (const char* link : kLinkNames) {
      u.emplace_back(std::string("simgpu.bytes.") + link, "bytes");
    }
    for (const int c : {kPcieD2h, kPcieH2d, kNvme, kPfs}) {
      u.emplace_back(
          std::string("simgpu.busy_frac.") + kLinkNames[static_cast<std::size_t>(c)],
          "ratio");
    }
    u.insert(u.end(), {{"sol.shot_bound_s", "s"},
                       {"sol.drain_bound_s", "s"},
                       {"sol.efficiency", "ratio"}});
    for (const char* tier : kDurableTiers) {
      const std::string p = std::string("storage.") + tier + ".";
      u.insert(u.end(), {{p + "puts", "count"},
                         {p + "gets", "count"},
                         {p + "put_bytes", "bytes"},
                         {p + "get_bytes", "bytes"},
                         {p + "put_s", "s"},
                         {p + "get_s", "s"},
                         {p + "put_p99_us", "us"}});
    }
    u.insert(u.end(), {{"storage.ssd.put_self_s", "s"},
                       {"util.ratelimit_wait_s.nvme", "s"},
                       {"storage.remote.requests", "count"},
                       {"storage.remote.part_retries", "count"},
                       {"storage.agg.group_puts", "count"},
                       {"storage.agg.size_seals", "count"},
                       {"storage.agg.deadline_seals", "count"},
                       {"rtm.driver_overhead_s", "s"},
                       {kTraceOverheadMetric, "s"}});
    return u;
  }();
  return kUnits;
}

RepResult RunRep(const Workload& w, std::uint64_t rep_seed, Tracer* tracer) {
  RepResult r;
  r.traced = tracer != nullptr;
  rtm::ShotConfig shot = w.shot;
  shot.seed = ckpt::util::DeriveSeed(rep_seed, 0);        // irregular order
  shot.trace.seed = ckpt::util::DeriveSeed(rep_seed, 1);  // variable sizes
  const std::size_t span_mark = tracer != nullptr ? tracer->size() : 0;

  // Set-up: cluster, stores and engine, until the engine takes checkpoints.
  const std::int64_t t0 = NowNs();
  sim::Cluster cluster(sim::TopologyConfig::Scaled());
  const std::int64_t t1 = NowNs();
  PutLog terminal_puts;
  const core::TierStoreFactory factory =
      [&](const std::string& tier, const std::string& backend, int ordinal)
      -> ckpt::util::StatusOr<std::shared_ptr<storage::ObjectStore>> {
    std::shared_ptr<storage::ObjectStore> store;
    if (backend.rfind("s3://", 0) == 0) {
      auto remote = storage::OpenRemoteBackend(backend, &cluster.topology());
      if (!remote.ok()) return remote.status();
      store = std::move(*remote);
    } else if ((backend.empty() || backend == "mem") && ordinal == 0) {
      store = MakeTimedSsdStore(cluster.topology(),
                                std::make_shared<storage::MemStore>(), tracer);
    } else {
      return ckpt::util::InvalidArgument(
          "perfbench builds 'mem' only for the first durable tier, and "
          "'s3://' backends; got tier '" + tier + "' backend '" + backend + "'");
    }
    const bool terminal = tier == w.terminal;
    if (tracer == nullptr && !terminal) return store;
    return std::shared_ptr<storage::ObjectStore>(std::make_shared<TimedStore>(
        std::move(store), tier, tracer, terminal ? &terminal_puts : nullptr));
  };
  auto stack = core::ParseTierStack(w.tiers, w.terminal, factory);
  if (!stack.ok()) {
    ++r.attempted;
    ++r.failed;
    NoteError(r, "tier stack: " + stack.status().ToString());
    return r;
  }
  core::Engine engine(cluster, std::move(*stack), core::EngineOptions{}, kRanks);
  const std::int64_t t2 = NowNs();
  r.setup_s = Seconds(t0, t2);

  const Limiters limiters = NodeLimiters(cluster.topology());
  const LinkBytes before = Admitted(limiters);
  TimedRuntime runtime(engine, kRanks, tracer);
  const Usage usage0 = ProcessUsage();
  const std::int64_t s0 = NowNs();
  auto result = rtm::RunShot(cluster, runtime, shot, kRanks);
  const std::int64_t s1 = NowNs();
  const Usage usage1 = ProcessUsage();
  // The whole history must be durable before it is checked.
  for (int rank = 0; rank < kRanks; ++rank) (void)runtime.WaitForFlushes(rank);
  const std::int64_t s2 = NowNs();
  const LinkBytes after = Admitted(limiters);
  r.shot_s = Seconds(s0, s1);
  r.cpu_s = usage1.cpu_s - usage0.cpu_s;

  if (!result.ok()) NoteError(r, "shot: " + result.status().ToString());
  if (result.ok() && result->verify_failures > 0) {
    r.failed += result->verify_failures;
    NoteError(r, std::to_string(result->verify_failures) +
                     " restores returned bytes that fail CheckPattern");
  }
  const int terminal = engine.tiers().terminal();
  double ckpt_MBps_sum = 0, restore_MBps_sum = 0;
  for (int rank = 0; rank < kRanks; ++rank) {
    double ckpt_bytes = 0, ckpt_s = 0, restore_bytes = 0, restore_s = 0;
    std::int64_t last_admitted = 0, last_landed = 0;
    for (const CallRecord& c : runtime.calls(rank)) {
      ++r.attempted;
      const double s = Seconds(c.start_ns, c.end_ns);
      if (!c.ok) {
        ++r.failed;
        NoteError(r, "rank " + std::to_string(rank) + ": a call on version " +
                         std::to_string(c.version) + " failed");
        continue;
      }
      switch (c.call) {
        case Call::kWaitForFlushes:
          r.longest_wait_call_s = std::max(r.longest_wait_call_s, s);
          break;
        case Call::kCheckpoint: {
          r.ckpt_us.push_back(s * 1e6);
          ckpt_bytes += static_cast<double>(c.bytes);
          ckpt_s += s;
          // Every admitted checkpoint must end on the terminal tier.
          const auto where = engine.DurableTierIndexOf(rank, c.version);
          const std::int64_t landed =
              terminal_puts.LandedNs(storage::ObjectKey{rank, c.version});
          if (!where.ok() || *where != terminal || landed < 0) {
            ++r.failed;
            NoteError(r, "rank " + std::to_string(rank) + " version " +
                             std::to_string(c.version) +
                             " is not durable on the terminal tier");
          } else {
            r.durable_lag_ms.push_back(static_cast<double>(landed - c.end_ns) * 1e-6);
            last_admitted = std::max(last_admitted, c.end_ns);
            last_landed = std::max(last_landed, landed);
          }
          break;
        }
        case Call::kRestore:
          r.restore_us.push_back(s * 1e6);
          restore_bytes += static_cast<double>(c.bytes);
          restore_s += s;
          break;
        default: break;
      }
    }
    r.drain_s = std::max(r.drain_s, Seconds(last_admitted, last_landed));
    ckpt_MBps_sum += Ratio(ckpt_bytes, ckpt_s) / 1e6;
    restore_MBps_sum += Ratio(restore_bytes, restore_s) / 1e6;
  }
  r.ckpt_MBps = ckpt_MBps_sum / kRanks;
  r.restore_MBps = restore_MBps_sum / kRanks;

  if (tracer != nullptr) {
    LayerInputs in;
    in.workload = &w;
    in.engine = &engine;
    in.runtime = &runtime;
    in.topology = cluster.config();
    in.spans = tracer->spans(span_mark);
    for (std::size_t c = 0; c < before.size(); ++c) {
      for (std::size_t i = 0; i < before[c].size(); ++i) {
        const std::uint64_t moved = after[c][i] - before[c][i];
        in.link_total[c] += moved;
        in.link_busiest[c] = std::max(in.link_busiest[c], moved);
      }
    }
    // The history each instance of the terminal link must carry: a rank's
    // NVMe drive holds its own history, the shared fabric everyone's.
    std::unordered_map<const RateLimiter*, std::uint64_t> history;
    for (int rank = 0; rank < kRanks; ++rank) {
      const RateLimiter* link = w.terminal_link == "pfs"
                                    ? &cluster.topology().pfs()
                                    : &cluster.topology().nvme_for_rank(rank);
      for (const CallRecord& c : runtime.calls(rank)) {
        if (c.call != Call::kCheckpoint || !c.ok) continue;
        history[link] += c.bytes;
        in.forward_end_ns = std::max(in.forward_end_ns, c.end_ns);
      }
    }
    for (const auto& [link, bytes] : history) {
      in.terminal_history_busiest = std::max(in.terminal_history_busiest, bytes);
    }
    in.setup_cluster_s = Seconds(t0, t1);
    in.setup_engine_s = Seconds(t1, t2);
    in.shot_start_ns = s0;
    in.shot_end_ns = s1;
    in.window_s = Seconds(s0, s2);
    in.usage_before = usage0;
    in.usage_after = usage1;
    r.layer = Ledger(in);
    if (r.layer.size() != LayerMetricUnits().size()) {
      NoteError(r, "per-layer ledger filled a metric that is not declared");
    }
  }
  engine.Shutdown();
  return r;
}

}  // namespace perfbench
