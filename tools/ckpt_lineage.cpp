// ckpt_lineage: per-checkpoint lineage auditor over a Chrome trace dump
// (DESIGN.md §14). Stitches the flow events the engine and stores emit
// into every trace (CKPT_TRACE=1) back into per-object causal chains and
// checks the conservation invariant: every admitted object terminates in exactly one
// of {durable, degraded, lost, erased}.
//
//   ckpt_lineage <trace.json> [--audit] [--timeline] [--limit N]
//                             [--object RANK:VERSION]
//
// Default output is a one-screen summary: object/outcome counts, group
// (agg:*) flow counts, and durability-lag percentiles (ckpt:admit start ->
// first ack:* step; objects that never became durable are excluded, same
// as the ckpt_durability_lag_seconds histogram). --timeline prints the hop
// sequence of the first --limit object flows (default 20); --object prints
// one object's full timeline. --audit turns conservation violations into a
// nonzero exit: an admitted object with no terminal is an *orphan* (exit 1)
// unless the ring wrapped (trace:wrap markers present), in which case
// incomplete flows downgrade to *unauditable* (reported, exit 0) — a wrap
// means the evidence was dropped, not that the object leaked. A flow with
// more terminals than starts is always an error.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/trace_sink.hpp"
#include "util/json.hpp"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <trace.json> [--audit] [--timeline] [--limit N]\n"
               "          [--object RANK:VERSION]\n",
               argv0);
  return 2;
}

/// One flow event (s/t/f) lifted out of the trace, trimmed to the fields
/// the auditor reasons about.
struct Hop {
  double ts_us = 0.0;
  std::string name;
  char phase = '?';  ///< 's' | 't' | 'f'
  int tier = -1;
  std::uint64_t bytes = 0;
};

/// All events sharing one flow id, stitched back together.
struct Flow {
  std::uint64_t id = 0;
  int rank = 0;
  std::uint64_t version = 0;
  std::vector<Hop> hops;  ///< sorted by ts
  std::size_t starts = 0;
  std::size_t finishes = 0;
  bool is_object = false;  ///< started by ckpt:admit (vs agg:* group flows)
  bool is_group = false;
};

enum class Outcome { kInFlight, kDurable, kDegraded, kLost, kErased };

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kDurable: return "durable";
    case Outcome::kDegraded: return "degraded";
    case Outcome::kLost: return "lost";
    case Outcome::kErased: return "erased";
    default: return "in-flight";
  }
}

/// Maps a terminal flow-event name to its outcome. Reasons ride as name
/// suffixes ("flow:erased:cancelled"), so match on prefix.
Outcome OutcomeOf(const std::string& name) {
  if (name.rfind("flow:durable", 0) == 0) return Outcome::kDurable;
  if (name.rfind("flow:degraded", 0) == 0) return Outcome::kDegraded;
  if (name.rfind("flow:lost", 0) == 0) return Outcome::kLost;
  if (name.rfind("flow:erased", 0) == 0) return Outcome::kErased;
  return Outcome::kInFlight;
}

/// Last terminal hop's outcome (overwritten objects re-start the same id;
/// the final disposition is the one that counts).
Outcome FlowOutcome(const Flow& f) {
  Outcome out = Outcome::kInFlight;
  for (const Hop& h : f.hops) {
    if (h.phase != 'f') continue;
    const Outcome o = OutcomeOf(h.name);
    if (o != Outcome::kInFlight) out = o;
  }
  return out;
}

/// admit -> first durable ack in microseconds; negative when never acked.
double LagUs(const Flow& f) {
  double admit = -1.0;
  double ack = -1.0;
  for (const Hop& h : f.hops) {
    if (admit < 0.0 && h.name == "ckpt:admit") admit = h.ts_us;
    if (ack < 0.0 && h.name.rfind("ack:", 0) == 0) ack = h.ts_us;
  }
  if (admit < 0.0 || ack < 0.0 || ack < admit) return -1.0;
  return ack - admit;
}

/// Nearest-rank percentile over a sorted sample vector.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (static_cast<double>(idx) < rank) ++idx;
  if (idx == 0) idx = 1;
  if (idx > sorted.size()) idx = sorted.size();
  return sorted[idx - 1];
}

void PrintTimeline(const Flow& f) {
  const Outcome out = FlowOutcome(f);
  const double lag = LagUs(f);
  std::printf("rank %d v%" PRIu64 " (flow 0x%" PRIx64 "): %s", f.rank,
              f.version, f.id, to_string(out));
  if (lag >= 0.0) std::printf(", durable after %.3f ms", lag / 1e3);
  std::printf("\n");
  const double t0 = f.hops.empty() ? 0.0 : f.hops.front().ts_us;
  for (const Hop& h : f.hops) {
    std::printf("  %10.3f ms  [%c] %-28s", (h.ts_us - t0) / 1e3, h.phase,
                h.name.c_str());
    if (h.tier >= 0) std::printf("  tier %d", h.tier);
    if (h.bytes > 0) std::printf("  %" PRIu64 " B", h.bytes);
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string path = argv[1];
  bool audit = false;
  bool timeline = false;
  std::size_t limit = 20;
  bool want_object = false;
  int want_rank = 0;
  std::uint64_t want_version = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--audit") == 0) {
      audit = true;
    } else if (std::strcmp(argv[i], "--timeline") == 0) {
      timeline = true;
    } else if (std::strcmp(argv[i], "--limit") == 0 && i + 1 < argc) {
      limit = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--object") == 0 && i + 1 < argc) {
      const char* spec = argv[++i];
      const char* colon = std::strchr(spec, ':');
      if (colon == nullptr) {
        std::fprintf(stderr,
                     "ckpt_lineage: --object wants RANK:VERSION, got '%s'\n",
                     spec);
        return 2;
      }
      want_object = true;
      want_rank = std::atoi(spec);
      want_version = std::strtoull(colon + 1, nullptr, 10);
    } else {
      return Usage(argv[0]);
    }
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "ckpt_lineage: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  // Structural validation first: a malformed trace is not auditable, and
  // the checker's wrap count decides orphan-vs-unauditable below.
  const ckpt::core::TraceCheck check = ckpt::core::ValidateChromeTrace(text);
  if (!check.ok && check.wraps == 0) {
    std::fprintf(stderr, "ckpt_lineage: trace invalid: %s\n",
                 check.error.c_str());
    return 1;
  }

  const auto parsed = ckpt::util::json::Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "ckpt_lineage: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  const ckpt::util::json::Value* events = parsed.value().Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "ckpt_lineage: no traceEvents array in %s\n",
                 path.c_str());
    return 1;
  }

  std::map<std::uint64_t, Flow> flows;
  std::size_t flow_events = 0;
  std::size_t wrap_markers = 0;
  for (const auto& ev : events->as_array()) {
    const auto* ph = ev.Find("ph");
    const auto* name = ev.Find("name");
    if (ph == nullptr || name == nullptr) continue;
    if (name->as_string() == "trace:wrap") ++wrap_markers;
    const std::string& p = ph->as_string();
    if (p != "s" && p != "t" && p != "f") continue;
    const auto* id = ev.Find("id");
    const auto* ts = ev.Find("ts");
    if (id == nullptr || !id->is_string() || ts == nullptr) continue;
    const std::uint64_t fid =
        std::strtoull(id->as_string().c_str(), nullptr, 0);
    if (fid == 0) continue;
    ++flow_events;

    Flow& f = flows[fid];
    f.id = fid;
    Hop h;
    h.ts_us = ts->as_number();
    h.name = name->as_string();
    h.phase = p[0];
    if (const auto* args = ev.Find("args"); args != nullptr) {
      if (const auto* tier = args->Find("tier"))
        h.tier = static_cast<int>(tier->as_number(-1));
      if (const auto* bytes = args->Find("bytes"))
        h.bytes = static_cast<std::uint64_t>(bytes->as_number());
      if (const auto* rank = args->Find("rank"))
        f.rank = static_cast<int>(rank->as_number());
      if (const auto* version = args->Find("version"))
        f.version = static_cast<std::uint64_t>(version->as_number());
    }
    if (p == "s") ++f.starts;
    if (p == "f") ++f.finishes;
    if (h.name == "ckpt:admit") f.is_object = true;
    // Member-side agg:seal steps ride the *object's* flow id, so only the
    // group-scoped events mark a flow as a group flow; an object flow that
    // also saw agg: steps stays an object flow (is_object wins below).
    if (h.name == "agg:open" || h.name == "agg:landed" ||
        h.name == "agg:reclaimed") {
      f.is_group = true;
    }
    f.hops.push_back(std::move(h));
  }

  for (auto& [id, f] : flows) {
    (void)id;
    std::stable_sort(f.hops.begin(), f.hops.end(),
                     [](const Hop& a, const Hop& b) { return a.ts_us < b.ts_us; });
  }

  if (want_object) {
    bool found = false;
    for (const auto& [id, f] : flows) {
      (void)id;
      if (f.is_object && f.rank == want_rank && f.version == want_version) {
        PrintTimeline(f);
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "ckpt_lineage: no flow for rank %d v%" PRIu64 "\n",
                   want_rank, want_version);
      return 1;
    }
    return 0;
  }

  // --- classify ---------------------------------------------------------
  std::size_t objects = 0;
  std::map<Outcome, std::size_t> outcomes;
  std::vector<double> lags_us;
  std::size_t orphans = 0;
  std::size_t unauditable = 0;
  std::size_t over_terminated = 0;
  std::size_t groups = 0, groups_landed = 0, groups_reclaimed = 0,
              groups_open = 0;
  std::vector<const Flow*> orphan_flows;
  const bool wrapped = check.wraps > 0 || wrap_markers > 0;

  for (const auto& [id, f] : flows) {
    (void)id;
    if (f.is_group && !f.is_object) {
      ++groups;
      bool ended = false;
      for (const Hop& h : f.hops) {
        if (h.phase != 'f') continue;
        ended = true;
        if (h.name == "agg:landed") ++groups_landed;
        if (h.name == "agg:reclaimed") ++groups_reclaimed;
      }
      if (!ended) ++groups_open;
      continue;
    }
    if (!f.is_object && f.starts == 0) {
      // Terminal or steps with no start in the buffer: only explicable by
      // a ring wrap eating the admit. Without one, it is a leak of its own.
      if (wrapped) {
        ++unauditable;
      } else {
        ++orphans;
        orphan_flows.push_back(&f);
      }
      continue;
    }
    if (!f.is_object) continue;  // foreign flow category; not ours to audit
    ++objects;
    if (f.finishes > f.starts) {
      ++over_terminated;
      orphan_flows.push_back(&f);
      continue;
    }
    if (f.finishes < f.starts) {
      if (wrapped) {
        ++unauditable;
      } else {
        ++orphans;
        orphan_flows.push_back(&f);
      }
      continue;
    }
    const Outcome out = FlowOutcome(f);
    ++outcomes[out];
    const double lag = LagUs(f);
    if (lag >= 0.0) lags_us.push_back(lag);
  }
  std::sort(lags_us.begin(), lags_us.end());

  // --- report -----------------------------------------------------------
  std::printf("%s: %zu flow events across %zu flows\n", path.c_str(),
              flow_events, flows.size());
  std::printf(
      "objects: %zu admitted | %zu durable, %zu degraded, %zu lost, "
      "%zu erased\n",
      objects, outcomes[Outcome::kDurable], outcomes[Outcome::kDegraded],
      outcomes[Outcome::kLost], outcomes[Outcome::kErased]);
  if (groups > 0) {
    std::printf("groups: %zu | %zu landed, %zu reclaimed, %zu open\n", groups,
                groups_landed, groups_reclaimed, groups_open);
  }
  if (!lags_us.empty()) {
    std::printf(
        "durability lag (n=%zu): p50=%.3f ms p90=%.3f ms p99=%.3f ms "
        "max=%.3f ms\n",
        lags_us.size(), Percentile(lags_us, 50) / 1e3,
        Percentile(lags_us, 90) / 1e3, Percentile(lags_us, 99) / 1e3,
        lags_us.back() / 1e3);
  } else {
    std::printf("durability lag: no object reached a durable tier\n");
  }
  if (wrapped) {
    std::printf("ring wrapped (%zu wrap marker(s)): incomplete flows are "
                "unauditable, not orphans\n",
                std::max(check.wraps, wrap_markers));
  }

  if (timeline) {
    std::size_t shown = 0;
    for (const auto& [id, f] : flows) {
      (void)id;
      if (!f.is_object) continue;
      if (shown++ >= limit) break;
      PrintTimeline(f);
    }
    if (objects > limit) {
      std::printf("... %zu more object flows (raise --limit)\n",
                  objects - limit);
    }
  }

  if (audit) {
    for (const Flow* f : orphan_flows) {
      std::fprintf(stderr,
                   "ckpt_lineage: %s flow 0x%" PRIx64 " rank %d v%" PRIu64
                   " (%zu start(s), %zu terminal(s))\n",
                   f->finishes > f->starts ? "over-terminated" : "orphaned",
                   f->id, f->rank, f->version, f->starts, f->finishes);
    }
    if (orphans > 0 || over_terminated > 0) {
      std::fprintf(stderr,
                   "ckpt_lineage: AUDIT FAILED: %zu orphan(s), %zu "
                   "over-terminated\n",
                   orphans, over_terminated);
      return 1;
    }
    std::printf("audit: PASS (%zu objects conserved, %zu unauditable)\n",
                objects, unauditable);
  }
  return 0;
}
