#include "util/telemetry.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <mutex>

namespace ckpt::util::telemetry {

namespace {

struct GlobalSettings {
  std::mutex mu;
  Settings s;
};

GlobalSettings& global() {
  static GlobalSettings* g = new GlobalSettings;  // leaked: static-dtor safe
  return *g;
}

bool EnvTruthy(const char* v) {
  if (v == nullptr) return false;
  std::string s(v);
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s == "1" || s == "on" || s == "true" || s == "yes";
}

bool EnvFalsy(const char* v) {
  if (v == nullptr) return false;
  std::string s(v);
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s == "0" || s == "off" || s == "false" || s == "no";
}

std::int64_t EnvI64(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long long n = std::strtoll(v, &end, 10);
  if (end == v || n <= 0) return fallback;
  return static_cast<std::int64_t>(n);
}

/// Seeds the settings from CKPT_TELEMETRY* exactly once.
void EnvSeedOnce() {
  static const bool seeded = [] {
    auto& g = global();
    std::lock_guard lk(g.mu);
    if (const char* out = std::getenv("CKPT_TELEMETRY_OUT")) g.s.out_path = out;
    g.s.period_ms = EnvI64("CKPT_TELEMETRY_PERIOD_MS", g.s.period_ms);
    g.s.window = static_cast<std::size_t>(
        EnvI64("CKPT_TELEMETRY_WINDOW", static_cast<std::int64_t>(g.s.window)));
    g.s.stall_ms = EnvI64("CKPT_TELEMETRY_STALL_MS", g.s.stall_ms);
    g.s.stall_windows = static_cast<int>(EnvI64(
        "CKPT_TELEMETRY_STALL_WINDOWS", g.s.stall_windows));
    if (EnvFalsy(std::getenv("CKPT_TELEMETRY_WATCHDOG"))) g.s.watchdog = false;
    if (EnvTruthy(std::getenv("CKPT_TELEMETRY_STRICT"))) g.s.strict = true;
    if (EnvTruthy(std::getenv("CKPT_TELEMETRY"))) {
      g.s.enabled = true;
      detail::g_enabled.store(true, std::memory_order_relaxed);
    }
    return true;
  }();
  (void)seeded;
}

/// Callers gate on enabled() before the first Configure() call, so the env
/// seed must already be applied.
[[maybe_unused]] const bool g_env_seeded_at_startup = (EnvSeedOnce(), true);

}  // namespace

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void Configure(const Settings& in) {
  EnvSeedOnce();
  auto& g = global();
  std::lock_guard lk(g.mu);
  g.s.enabled = in.enabled;
  if (in.period_ms > 0) g.s.period_ms = in.period_ms;
  if (in.window > 0) g.s.window = in.window;
  if (!in.out_path.empty()) g.s.out_path = in.out_path;
  g.s.watchdog = in.watchdog;
  if (in.stall_ms > 0) g.s.stall_ms = in.stall_ms;
  if (in.stall_windows > 0) g.s.stall_windows = in.stall_windows;
  g.s.strict = in.strict;
  detail::g_enabled.store(in.enabled, std::memory_order_relaxed);
}

Settings settings() {
  EnvSeedOnce();
  auto& g = global();
  std::lock_guard lk(g.mu);
  return g.s;
}

std::int64_t period_ms() { return settings().period_ms; }
std::size_t window() { return settings().window; }
std::string out_path() { return settings().out_path; }

}  // namespace ckpt::util::telemetry
