// Text-rendering helpers shared by the trace and telemetry sinks
// (trace_sink.cpp, telemetry_sink.cpp). Internal to src/core.
#pragma once

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace ckpt::core::render {

/// printf-style append; output past 511 bytes per call is truncated.
inline void AppendF(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
inline void AppendF(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, std::min(static_cast<std::size_t>(n), sizeof(buf) - 1));
}

/// Formats a double without locale surprises (%.9g).
inline void AppendNum(std::string& out, double v) { AppendF(out, "%.9g", v); }

/// Tier label by stack index; indices beyond `names` fall back to "tierN".
inline std::string TierLabel(const std::vector<std::string>& names,
                             std::size_t i) {
  return i < names.size() ? names[i] : "tier" + std::to_string(i);
}

/// Renders `h` as the one histogram JSON shape: `{"total", "sum", "mean",
/// "p50", "p95", "buckets": [[le, count], ...]}` with seconds throughout.
/// Only non-empty buckets are listed, keyed by their upper edge; the +Inf
/// bucket's edge is the string "+Inf".
inline void AppendHistJson(std::string& out, const util::Histogram& h) {
  AppendF(out, "{\"total\":%" PRIu64 ",\"sum\":", h.total());
  AppendNum(out, h.sum());
  out += ",\"mean\":";
  AppendNum(out, h.mean());
  out += ",\"p50\":";
  AppendNum(out, h.Percentile(50));
  out += ",\"p95\":";
  AppendNum(out, h.Percentile(95));
  out += ",\"buckets\":[";
  bool first = true;
  for (std::size_t b = 0; b < util::Histogram::kBuckets; ++b) {
    const std::uint64_t n = h.counts()[b];
    if (n == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '[';
    if (b + 1 < util::Histogram::kBuckets) {
      AppendNum(out, util::Histogram::kEdgesS[b]);
    } else {
      out += "\"+Inf\"";
    }
    AppendF(out, ",%" PRIu64 "]", n);
  }
  out += "]}";
}

}  // namespace ckpt::core::render
