// trace_check: structural validator and lineage auditor for emitted Chrome
// trace-event JSON. Used by CI after a traced bench run and handy for
// eyeballing a dump:
//
//   trace_check trace.json [--require CAT ...] [--require-flow CAT ...]
//                          [--summary] [--audit] [--timeline] [--limit N]
//                          [--object RANK:VERSION]
//
// The trace passes when it is well-formed, non-empty, per-track monotonic,
// every flow finish binds to a prior start of the same id (ring wraps
// excepted), and it contains at least one complete span for every
// --require'd category and at least one flow event for every
// --require-flow'd category (lifecycle, flush, prefetch, eviction, retry,
// app, health). Per-category span counts print either way; --summary adds
// flow totals (starts/steps/finishes, dangling ids, wrap markers) and a
// per-track table (events, spans, total/max span duration) so a dump's
// thread balance is visible without loading Perfetto.
//
// Lineage (DESIGN.md §14): the flow events stitch back into per-object
// causal chains. --summary, --audit and --timeline print object/outcome
// counts, group (agg:*) flow counts and durability-lag percentiles (ckpt:admit
// start -> first ack:* step; objects that never became durable are
// excluded, as in the ckpt_durability_lag_seconds histogram). --timeline
// prints the hop sequence of the first --limit object flows (default 20);
// --object prints one object's timelines and fails when it has none.
// --audit checks conservation: every admitted object terminates in exactly
// one of {durable, degraded, lost, erased}. An admitted object with no
// terminal is an *orphan* and fails the audit, unless the ring wrapped
// (trace:wrap markers present): then incomplete flows are *unauditable*
// (reported, not failed), since a wrap means the evidence was dropped, not
// that the object leaked. A flow with more terminals than starts always
// fails.
//
// Exit codes: 0 ok, 1 a check failed, 2 usage or I/O error.
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
  std::fprintf(
      stderr,
      "usage: %s <trace.json> [--require CAT ...] [--require-flow CAT ...]\n"
      "          [--summary] [--audit] [--timeline] [--limit N]\n"
      "          [--object RANK:VERSION]\n"
      "  CAT: lifecycle | flush | prefetch | eviction | retry | app | health\n",
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

/// Stitches every flow event of a trace into per-id flows. The trace must
/// have passed ValidateChromeTrace, which proves every field read here
/// present (ph, name, ts, and a string id on flow events).
std::map<std::uint64_t, Flow> StitchFlows(const ckpt::util::json::Value& doc) {
  const ckpt::util::json::Value* events = doc.Find("traceEvents");
  if (events == nullptr) events = &doc;  // bare-array form
  std::map<std::uint64_t, Flow> flows;
  for (const auto& ev : events->as_array()) {
    const std::string& p = ev.Find("ph")->as_string();
    if (p != "s" && p != "t" && p != "f") continue;
    const std::uint64_t fid =
        std::strtoull(ev.Find("id")->as_string().c_str(), nullptr, 0);
    if (fid == 0) continue;
    Flow& f = flows[fid];
    f.id = fid;
    Hop h;
    h.ts_us = ev.Find("ts")->as_number();
    h.name = ev.Find("name")->as_string();
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
  return flows;
}

/// Prints the lineage report and, with `audit`, the conservation verdict.
/// Returns false when the audit fails.
bool ReportLineage(const std::map<std::uint64_t, Flow>& flows, bool wrapped,
                   bool audit, bool timeline, std::size_t limit) {
  std::size_t objects = 0;
  std::map<Outcome, std::size_t> outcomes;
  std::vector<double> lags_us;
  std::size_t orphans = 0;
  std::size_t unauditable = 0;
  std::size_t over_terminated = 0;
  std::size_t groups = 0, groups_landed = 0, groups_reclaimed = 0,
              groups_open = 0;
  std::vector<const Flow*> orphan_flows;

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
    ++outcomes[FlowOutcome(f)];
    const double lag = LagUs(f);
    if (lag >= 0.0) lags_us.push_back(lag);
  }
  std::sort(lags_us.begin(), lags_us.end());

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
    std::printf("ring wrapped: incomplete flows are unauditable, not "
                "orphans\n");
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

  if (!audit) return true;
  for (const Flow* f : orphan_flows) {
    std::fprintf(stderr,
                 "trace_check: %s flow 0x%" PRIx64 " rank %d v%" PRIu64
                 " (%zu start(s), %zu terminal(s))\n",
                 f->finishes > f->starts ? "over-terminated" : "orphaned",
                 f->id, f->rank, f->version, f->starts, f->finishes);
  }
  if (orphans > 0 || over_terminated > 0) {
    std::fprintf(stderr,
                 "trace_check: AUDIT FAILED: %zu orphan(s), %zu "
                 "over-terminated\n",
                 orphans, over_terminated);
    return false;
  }
  std::printf("audit: PASS (%zu objects conserved, %zu unauditable)\n",
              objects, unauditable);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string path = argv[1];
  std::vector<std::string> required;
  std::vector<std::string> required_flows;
  bool summary = false;
  bool audit = false;
  bool timeline = false;
  std::size_t limit = 20;
  bool want_object = false;
  int want_rank = 0;
  std::uint64_t want_version = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--require") == 0 && i + 1 < argc) {
      required.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--require-flow") == 0 && i + 1 < argc) {
      required_flows.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--summary") == 0) {
      summary = true;
    } else if (std::strcmp(argv[i], "--audit") == 0) {
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
                     "trace_check: --object wants RANK:VERSION, got '%s'\n",
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

  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "trace_check: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << f.rdbuf();

  // One parse serves the structural checks and the lineage stitching.
  const auto doc = ckpt::util::json::Parse(buf.str());
  if (!doc.ok()) {
    std::fprintf(stderr, "trace_check: INVALID: %s\n",
                 doc.status().ToString().c_str());
    return 1;
  }
  const ckpt::core::TraceCheck check = ckpt::core::ValidateChromeTrace(*doc);
  std::printf("%s: %zu events (%zu spans, %zu instants) on %zu tracks\n",
              path.c_str(), check.events, check.spans, check.instants,
              check.tracks);
  for (const auto& [cat, n] : check.spans_per_category) {
    std::printf("  %-10s %zu spans\n", cat.c_str(), n);
  }
  if (summary) {
    std::printf(
        "flows: %zu ids (%zu starts, %zu steps, %zu finishes), "
        "%zu dangling, %zu unbound, %zu wraps\n",
        check.flows, check.flow_starts, check.flow_steps, check.flow_finishes,
        check.flows_dangling, check.flows_unbound, check.wraps);
    for (const auto& [cat, n] : check.flows_per_category) {
      std::printf("  flow %-10s %zu events\n", cat.c_str(), n);
    }
    std::printf("per-track summary:\n");
    std::printf("  %-28s %8s %8s %14s %12s\n", "track", "events", "spans",
                "total_dur_ms", "max_dur_ms");
    for (const auto& t : check.track_stats) {
      const std::string label =
          t.name.empty() ? "pid " + std::to_string(t.pid) + " tid " +
                               std::to_string(t.tid)
                         : t.name;
      std::printf("  %-28s %8zu %8zu %14.3f %12.3f\n", label.c_str(), t.events,
                  t.spans, t.total_dur_us / 1e3, t.max_dur_us / 1e3);
    }
  }
  if (!check.ok) {
    std::fprintf(stderr, "trace_check: INVALID: %s\n", check.error.c_str());
    return 1;
  }
  int failed = 0;
  for (const std::string& cat : required) {
    if (check.spans_in(cat) == 0) {
      std::fprintf(stderr, "trace_check: no '%s' spans in trace\n",
                   cat.c_str());
      ++failed;
    }
  }
  for (const std::string& cat : required_flows) {
    if (check.flows_in(cat) == 0) {
      std::fprintf(stderr, "trace_check: no '%s' flow events in trace\n",
                   cat.c_str());
      ++failed;
    }
  }

  if (summary || audit || timeline || want_object) {
    const std::map<std::uint64_t, Flow> flows = StitchFlows(*doc);
    if (want_object) {
      bool found = false;
      for (const auto& [id, fl] : flows) {
        (void)id;
        if (fl.is_object && fl.rank == want_rank &&
            fl.version == want_version) {
          PrintTimeline(fl);
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr,
                     "trace_check: no flow for rank %d v%" PRIu64 "\n",
                     want_rank, want_version);
        ++failed;
      }
    }
    if ((summary || audit || timeline) &&
        !ReportLineage(flows, check.wraps > 0, audit, timeline, limit)) {
      ++failed;
    }
  }
  if (failed > 0) return 1;
  std::printf("trace_check: OK\n");
  return 0;
}
