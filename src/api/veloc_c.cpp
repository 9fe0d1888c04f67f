#include "api/veloc_c.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/veloc.hpp"
#include "core/engine.hpp"
#include "core/telemetry_sampler.hpp"
#include "core/tenant.hpp"
#include "core/telemetry_sink.hpp"
#include "core/tier_stack.hpp"
#include "core/trace_sink.hpp"
#include "util/config.hpp"
#include "util/logging.hpp"
#include "util/telemetry.hpp"
#include "util/trace.hpp"

namespace {

using namespace ckpt;

struct GlobalContext {
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<core::Engine> engine;  // after cluster: destroyed first
  std::unique_ptr<core::TelemetrySampler> sampler;  // after engine: stops first
  std::vector<std::unique_ptr<api::VelocClient>> clients;
};

std::mutex g_mu;
std::unique_ptr<GlobalContext> g_ctx;
thread_local std::string t_error;

int Fail(int code, std::string message) {
  t_error = std::move(message);
  return code;
}

int FromStatus(const util::Status& st) {
  if (st.ok()) {
    t_error.clear();
    return VELOCX_SUCCESS;
  }
  t_error = st.ToString();
  switch (st.code()) {
    case util::ErrorCode::kInvalidArgument: return VELOCX_EINVAL;
    case util::ErrorCode::kNotFound: return VELOCX_ENOTFOUND;
    case util::ErrorCode::kAlreadyExists: return VELOCX_EEXIST;
    case util::ErrorCode::kOutOfMemory:
    case util::ErrorCode::kCapacityExceeded: return VELOCX_ENOMEM;
    case util::ErrorCode::kIoError: return VELOCX_EIO;
    case util::ErrorCode::kShutdown: return VELOCX_ESHUTDOWN;
    default: return VELOCX_EINTERNAL;
  }
}

/// Looks up the client for `rank`; nullptr (with t_error set) on failure.
api::VelocClient* ClientFor(int rank) {
  if (!g_ctx) {
    t_error = "VELOCX_Init has not been called";
    return nullptr;
  }
  if (rank < 0 || static_cast<std::size_t>(rank) >= g_ctx->clients.size()) {
    t_error = "rank " + std::to_string(rank) + " out of range";
    return nullptr;
  }
  return g_ctx->clients[static_cast<std::size_t>(rank)].get();
}

/// The config's tier stack: its "tiers" spec ("name:kind[:arg[:policy]],..."
/// — see core/tier_stack.hpp), or else the paper's GPU -> host -> SSD -> PFS
/// stack from the gpu_cache, host_cache, terminal_tier and ssd_dir keys.
util::StatusOr<core::TierStack> StackFromConfig(
    const util::Config& cfg, const core::TierStoreFactory& stores) {
  auto custom = core::TierStackFromConfig(cfg, stores);
  if (!custom.ok()) return custom.status();
  if (custom->has_value()) return std::move(**custom);
  const std::string terminal = cfg.GetString("terminal_tier", "ssd");
  if (terminal != "ssd" && terminal != "pfs") {
    return util::InvalidArgument("unknown terminal tier '" + terminal + "'");
  }
  const std::string ssd_dir = cfg.GetString("ssd_dir", "");
  auto ssd = stores("ssd", ssd_dir.empty() ? "" : "file=" + ssd_dir, 0);
  if (!ssd.ok()) return ssd.status();
  auto pfs = stores("pfs", "", 1);
  if (!pfs.ok()) return pfs.status();
  return core::TierStack::Default(
      std::move(*ssd), std::move(*pfs),
      static_cast<std::uint64_t>(cfg.GetInt("gpu_cache", 4ll << 20)),
      static_cast<std::uint64_t>(cfg.GetInt("host_cache", 32ll << 20)),
      terminal == "pfs" ? core::Tier::kPfs : core::Tier::kSsd);
}

}  // namespace

extern "C" {

int VELOCX_Init(const char* config_text, int num_ranks) {
  std::lock_guard lock(g_mu);
  if (g_ctx) return Fail(VELOCX_EINVAL, "runtime already initialized");
  if (num_ranks <= 0) return Fail(VELOCX_EINVAL, "num_ranks must be positive");

  auto parsed = util::Config::Parse(config_text != nullptr ? config_text : "");
  if (!parsed.ok()) return FromStatus(parsed.status());
  const util::Config& cfg = *parsed;

  // Tracing knobs: explicit config keys override the CKPT_TRACE* environment
  // seed; absent keys leave the seeded values alone.
  if (cfg.Has("trace") || cfg.Has("trace_out") || cfg.Has("trace_capacity")) {
    const bool trace_on = cfg.GetBool("trace", util::trace::enabled());
    const auto trace_cap =
        static_cast<std::size_t>(cfg.GetInt("trace_capacity", 0));
    util::trace::Configure(trace_on, trace_cap,
                           cfg.GetString("trace_out", util::trace::out_path()));
  }

  // Telemetry knobs, same precedence: config keys override the
  // CKPT_TELEMETRY* environment seed; absent keys keep the seeded values.
  if (cfg.Has("telemetry") || cfg.Has("telemetry_period_ms") ||
      cfg.Has("telemetry_window") || cfg.Has("telemetry_out") ||
      cfg.Has("telemetry_watchdog") || cfg.Has("telemetry_stall_ms") ||
      cfg.Has("telemetry_stall_windows") || cfg.Has("telemetry_strict")) {
    util::telemetry::Settings ts = util::telemetry::settings();
    ts.enabled = cfg.GetBool("telemetry", ts.enabled);
    ts.period_ms = cfg.GetInt("telemetry_period_ms", ts.period_ms);
    ts.window = static_cast<std::size_t>(
        cfg.GetInt("telemetry_window", static_cast<std::int64_t>(ts.window)));
    ts.out_path = cfg.GetString("telemetry_out", ts.out_path);
    ts.watchdog = cfg.GetBool("telemetry_watchdog", ts.watchdog);
    ts.stall_ms = cfg.GetInt("telemetry_stall_ms", ts.stall_ms);
    ts.stall_windows = static_cast<int>(
        cfg.GetInt("telemetry_stall_windows", ts.stall_windows));
    ts.strict = cfg.GetBool("telemetry_strict", ts.strict);
    util::telemetry::Configure(ts);
  }

  auto ctx = std::make_unique<GlobalContext>();
  ctx->cluster = std::make_unique<sim::Cluster>(sim::TopologyConfig::Scaled());
  if (num_ranks > ctx->cluster->total_gpus()) {
    return Fail(VELOCX_EINVAL, "num_ranks exceeds simulated GPUs");
  }

  core::EngineOptions opts;
  opts.discard_after_restore = cfg.GetBool("discard_after_restore", false);
  opts.gpudirect = cfg.GetBool("gpudirect", false);
  // Global default; cache tiers in a "tiers" spec may override per tier.
  const std::string eviction = cfg.GetString("eviction", "score");
  if (const auto kind = core::ParseEvictionKind(eviction); kind.has_value()) {
    opts.eviction = *kind;
  } else {
    return Fail(VELOCX_EINVAL, "unknown eviction policy '" + eviction + "'");
  }
  // Multi-tenant mode: a "tenants" key splits the ranks into contiguous
  // per-job blocks over the shared stack (core/tenant.hpp grammar). Absent
  // key = legacy single-tenant runtime.
  if (cfg.Has("tenants")) {
    auto specs = core::ParseTenantSpecs(cfg.GetString("tenants", ""));
    if (!specs.ok()) return FromStatus(specs.status());
    if (static_cast<int>(specs->size()) > num_ranks) {
      return Fail(VELOCX_EINVAL,
                  "tenants: " + std::to_string(specs->size()) +
                      " tenants need at least as many ranks, have " +
                      std::to_string(num_ranks));
    }
    opts.tenants = std::move(*specs);
  }
  auto stack = StackFromConfig(
      cfg, core::MakeTierStoreFactory(ctx->cluster->topology()));
  if (!stack.ok()) return FromStatus(stack.status());
  ctx->engine = std::make_unique<core::Engine>(
      *ctx->cluster, std::move(*stack), opts, num_ranks);
  if (util::telemetry::enabled()) {
    ctx->sampler = std::make_unique<core::TelemetrySampler>(
        *ctx->engine, core::TelemetrySampler::Options::FromGlobalConfig());
  }
  for (int r = 0; r < num_ranks; ++r) {
    ctx->clients.push_back(
        std::make_unique<api::VelocClient>(*ctx->engine, *ctx->cluster, r));
  }
  g_ctx = std::move(ctx);
  t_error.clear();
  return VELOCX_SUCCESS;
}

int VELOCX_Finalize(void) {
  std::lock_guard lock(g_mu);
  if (!g_ctx) return VELOCX_SUCCESS;
  for (auto& client : g_ctx->clients) {
    (void)client->WaitForFlushes();
  }
  // Stop sampling while the engine is still alive, then check the watchdog
  // verdict (surfaced after a complete teardown so strict mode never leaks
  // threads or allocations).
  bool strict_failed = false;
  std::uint64_t stalls = 0;
  if (g_ctx->sampler != nullptr) {
    g_ctx->sampler->Stop();
    strict_failed = g_ctx->sampler->strict_tripped();
    stalls = g_ctx->sampler->stalls_detected();
    g_ctx->sampler.reset();
  }
  g_ctx->clients.clear();  // clients reference the engine: drop them first
  g_ctx->engine->Shutdown();
  g_ctx.reset();
  // Auto-dump after shutdown so every worker's final events are in the rings.
  if (util::trace::enabled() && !util::trace::out_path().empty()) {
    const util::Status st = core::WriteChromeTrace(util::trace::out_path());
    if (!st.ok()) {
      CKPT_LOG(kWarn, "api") << "trace dump failed: " << st.ToString();
    }
  }
  if (strict_failed) {
    return Fail(VELOCX_EIO, "telemetry watchdog detected " +
                                std::to_string(stalls) +
                                " stall(s) in strict mode");
  }
  t_error.clear();
  return VELOCX_SUCCESS;
}

int VELOCX_Device_alloc(int rank, size_t size, void** out_ptr) {
  if (out_ptr == nullptr) return Fail(VELOCX_EINVAL, "null out_ptr");
  std::lock_guard lock(g_mu);
  if (!g_ctx) return Fail(VELOCX_ESHUTDOWN, "not initialized");
  if (rank < 0 || static_cast<std::size_t>(rank) >= g_ctx->clients.size()) {
    return Fail(VELOCX_EINVAL, "rank out of range");
  }
  auto ptr = g_ctx->cluster->device(rank).Allocate(size);
  if (!ptr.ok()) return FromStatus(ptr.status());
  *out_ptr = *ptr;
  return VELOCX_SUCCESS;
}

int VELOCX_Device_free(int rank, void* ptr) {
  std::lock_guard lock(g_mu);
  if (!g_ctx) return Fail(VELOCX_ESHUTDOWN, "not initialized");
  if (rank < 0 || static_cast<std::size_t>(rank) >= g_ctx->clients.size()) {
    return Fail(VELOCX_EINVAL, "rank out of range");
  }
  return FromStatus(
      g_ctx->cluster->device(rank).Free(static_cast<sim::BytePtr>(ptr)));
}

int VELOCX_Mem_protect(int rank, int region_id, void* ptr, size_t size) {
  std::lock_guard lock(g_mu);
  api::VelocClient* c = ClientFor(rank);
  if (c == nullptr) return VELOCX_EINVAL;
  return FromStatus(
      c->MemProtect(region_id, static_cast<sim::BytePtr>(ptr), size));
}

int VELOCX_Mem_unprotect(int rank, int region_id) {
  std::lock_guard lock(g_mu);
  api::VelocClient* c = ClientFor(rank);
  if (c == nullptr) return VELOCX_EINVAL;
  return FromStatus(c->MemUnprotect(region_id));
}

int VELOCX_Checkpoint(int rank, const char* name, uint64_t version) {
  api::VelocClient* c;
  {
    std::lock_guard lock(g_mu);
    c = ClientFor(rank);
  }
  if (c == nullptr) return VELOCX_EINVAL;
  // No global lock across the blocking transfer: ranks checkpoint in
  // parallel, as with the C++ API.
  return FromStatus(c->Checkpoint(name != nullptr ? name : "", version));
}

int VELOCX_Restart(int rank, uint64_t version) {
  api::VelocClient* c;
  {
    std::lock_guard lock(g_mu);
    c = ClientFor(rank);
  }
  if (c == nullptr) return VELOCX_EINVAL;
  return FromStatus(c->Restart(version));
}

int VELOCX_Recover_size(int rank, uint64_t version, int region_id,
                        size_t* out_size) {
  if (out_size == nullptr) return Fail(VELOCX_EINVAL, "null out_size");
  api::VelocClient* c;
  {
    std::lock_guard lock(g_mu);
    c = ClientFor(rank);
  }
  if (c == nullptr) return VELOCX_EINVAL;
  auto size = c->RecoverSize(version, region_id);
  if (!size.ok()) return FromStatus(size.status());
  *out_size = *size;
  t_error.clear();
  return VELOCX_SUCCESS;
}

int VELOCX_Checkpoint_wait(int rank) {
  api::VelocClient* c;
  {
    std::lock_guard lock(g_mu);
    c = ClientFor(rank);
  }
  if (c == nullptr) return VELOCX_EINVAL;
  return FromStatus(c->WaitForFlushes());
}

int VELOCX_Prefetch_enqueue(int rank, uint64_t version) {
  api::VelocClient* c;
  {
    std::lock_guard lock(g_mu);
    c = ClientFor(rank);
  }
  if (c == nullptr) return VELOCX_EINVAL;
  return FromStatus(c->PrefetchEnqueue(version));
}

int VELOCX_Prefetch_start(int rank) {
  api::VelocClient* c;
  {
    std::lock_guard lock(g_mu);
    c = ClientFor(rank);
  }
  if (c == nullptr) return VELOCX_EINVAL;
  return FromStatus(c->PrefetchStart());
}

int VELOCX_Tenant_open(const char* name, int* out_id) {
  if (name == nullptr || name[0] == '\0') {
    return Fail(VELOCX_EINVAL, "null tenant name");
  }
  std::lock_guard lock(g_mu);
  if (!g_ctx) return Fail(VELOCX_ESHUTDOWN, "not initialized");
  const core::TenantId id = g_ctx->engine->tenant_registry().FindByName(name);
  if (id == core::kNoTenant) {
    return Fail(VELOCX_ENOTFOUND,
                "unknown tenant '" + std::string(name) + "'");
  }
  if (out_id != nullptr) *out_id = id;
  t_error.clear();
  return VELOCX_SUCCESS;
}

int VELOCX_Tenant_close(int tenant_id) {
  std::lock_guard lock(g_mu);
  if (!g_ctx) return Fail(VELOCX_ESHUTDOWN, "not initialized");
  return FromStatus(g_ctx->engine->CloseTenant(tenant_id));
}

int VELOCX_Metrics_snapshot_json(const char* path) {
  if (path == nullptr || path[0] == '\0') {
    return Fail(VELOCX_EINVAL, "null metrics snapshot path");
  }
  std::lock_guard lock(g_mu);
  if (!g_ctx) return Fail(VELOCX_ESHUTDOWN, "not initialized");
  return FromStatus(core::WriteMetricsSnapshot(*g_ctx->engine, path));
}

int VELOCX_Trace_dump(const char* path) {
  const std::string p = (path != nullptr && path[0] != '\0')
                            ? std::string(path)
                            : util::trace::out_path();
  if (p.empty()) {
    return Fail(VELOCX_EINVAL,
                "no trace output path (pass one, or set trace_out / "
                "CKPT_TRACE_OUT)");
  }
  return FromStatus(core::WriteChromeTrace(p));
}

int VELOCX_Telemetry_scrape(char* buf, size_t cap, size_t* out_len) {
  std::lock_guard lock(g_mu);
  if (!g_ctx) return Fail(VELOCX_ESHUTDOWN, "not initialized");
  const std::string text = g_ctx->sampler != nullptr
                               ? g_ctx->sampler->ScrapeOpenMetrics()
                               : core::OpenMetricsText(*g_ctx->engine);
  if (out_len != nullptr) *out_len = text.size();
  if (buf == nullptr || cap == 0) {
    return Fail(VELOCX_EINVAL, "scrape buffer too small (need " +
                                   std::to_string(text.size() + 1) +
                                   " bytes)");
  }
  const size_t n = std::min(cap - 1, text.size());
  std::memcpy(buf, text.data(), n);
  buf[n] = '\0';
  if (n < text.size()) {
    return Fail(VELOCX_EINVAL, "scrape truncated: need " +
                                   std::to_string(text.size() + 1) +
                                   " bytes, got " + std::to_string(cap));
  }
  t_error.clear();
  return VELOCX_SUCCESS;
}

const char* VELOCX_Error_string(void) { return t_error.c_str(); }

}  // extern "C"
