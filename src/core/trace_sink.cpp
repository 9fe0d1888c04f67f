#include "core/trace_sink.hpp"

#include <algorithm>
#include <cinttypes>
#include <fstream>
#include <set>
#include <utility>

#include "core/engine.hpp"
#include "core/render.hpp"
#include "core/telemetry_sink.hpp"
#include "util/json.hpp"

namespace ckpt::core {

namespace {

using render::AppendF;
using render::AppendHistJson;
using render::AppendNum;
using render::TierLabel;
using util::trace::Event;
using util::trace::Kind;

/// One exportable event with its resolved Chrome track coordinates.
struct TrackEvent {
  int pid = 0;             // rank (rank-less -> 0)
  std::uint64_t tid = 0;   // ring-buffer id
  const Event* ev = nullptr;
};

int PidOf(const Event& e) { return e.rank < 0 ? 0 : e.rank; }

void AppendEventJson(std::string& out, const TrackEvent& te) {
  const Event& e = *te.ev;
  const double ts_us = static_cast<double>(e.ts_ns) / 1e3;
  out += R"({"name":")";
  out += util::json::Escape(e.name);
  out += R"(","cat":")";
  out += to_string(e.kind);
  out += "\",";
  if (e.is_flow()) {
    // Lineage flow events: Perfetto draws arrows between same-id events.
    // Both the legacy `id` and the modern `bind_id` carry the flow id; the
    // terminating `f` binds at the enclosing slice ("bp":"e").
    switch (e.flow) {
      case util::trace::FlowPhase::kStart: out += R"("ph":"s",)"; break;
      case util::trace::FlowPhase::kStep: out += R"("ph":"t",)"; break;
      default: out += R"("ph":"f","bp":"e",)"; break;
    }
    AppendF(out, "\"id\":\"0x%" PRIx64 "\",\"bind_id\":\"0x%" PRIx64 "\",",
            e.flow_id, e.flow_id);
  } else if (e.is_span()) {
    out += R"("ph":"X",)";
  } else {
    out += R"("ph":"i","s":"t",)";
  }
  AppendF(out, "\"pid\":%d,\"tid\":%" PRIu64 ",\"ts\":", te.pid, te.tid);
  AppendNum(out, ts_us);
  if (e.is_span()) {
    out += ",\"dur\":";
    AppendNum(out, static_cast<double>(e.dur_ns) / 1e3);
  }
  AppendF(out, ",\"args\":{\"tier\":%d,\"version\":%" PRIu64
               ",\"bytes\":%" PRIu64,
          static_cast<int>(e.tier), e.version, e.bytes);
  if (e.is_flow()) {
    AppendF(out, ",\"rank\":%d", static_cast<int>(e.rank));
  }
  if (e.a != 0.0 || e.b != 0.0) {
    out += ",\"a\":";
    AppendNum(out, e.a);
    out += ",\"b\":";
    AppendNum(out, e.b);
  }
  out += "}}";
}

void AppendSeriesJson(std::string& out, const char* key,
                      const util::SampleSeries& s) {
  AppendF(out, "\"%s\":{\"count\":%zu,", key, s.size());
  out += "\"sum\":";
  AppendNum(out, s.Sum());
  out += ",\"mean\":";
  AppendNum(out, s.Mean());
  out += ",\"p50\":";
  AppendNum(out, s.Percentile(50));
  out += ",\"p95\":";
  AppendNum(out, s.Percentile(95));
  out += ",\"max\":";
  AppendNum(out, s.Max());
  out += "}";
}

void AppendTierVector(std::string& out, const char* key,
                      const std::vector<std::uint64_t>& v,
                      const std::vector<std::string>& tier_names) {
  AppendF(out, "\"%s\":{", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += "\"" + util::json::Escape(TierLabel(tier_names, i)) +
           "\":" + std::to_string(v[i]);
  }
  out += "}";
}

}  // namespace

std::string ChromeTraceJson(const util::trace::TraceSnapshot& snap) {
  // Flatten to (pid, tid, event) rows. One buffer's events normally share a
  // rank, but nothing requires it; the pid comes from each event.
  std::vector<TrackEvent> rows;
  rows.reserve(snap.total_events());
  // Ring wrap left a thread's oldest events overwritten: synthesize one
  // "trace:wrap" instant per affected thread, stamped at its oldest
  // *surviving* event and carrying the drop count in `a`, so flow-aware
  // consumers (trace_check --audit) can downgrade objects whose start may
  // have been dropped to "unauditable" instead of miscounting them as
  // orphans.
  std::vector<Event> wrap_events;
  wrap_events.reserve(snap.threads.size());
  for (const auto& t : snap.threads) {
    if (t.dropped == 0 || t.events.empty()) continue;
    Event w;
    w.ts_ns = t.events.front().ts_ns;
    w.dur_ns = -1;
    w.name = "trace:wrap";
    w.kind = Kind::kHealth;
    w.rank = t.events.front().rank;
    w.a = static_cast<double>(t.dropped);
    wrap_events.push_back(w);
  }
  {
    std::size_t wi = 0;
    for (const auto& t : snap.threads) {
      if (t.dropped == 0 || t.events.empty()) continue;
      rows.push_back(TrackEvent{PidOf(wrap_events[wi]), t.buffer_id,
                                &wrap_events[wi]});
      ++wi;
    }
  }
  for (const auto& t : snap.threads) {
    for (const Event& e : t.events) {
      rows.push_back(TrackEvent{PidOf(e), t.buffer_id, &e});
    }
  }
  // Spans are recorded at *end* time carrying their begin timestamp, so a
  // buffer's raw order is end-ordered; sort by begin ts per track so each
  // track reads monotonically.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const TrackEvent& x, const TrackEvent& y) {
                     if (x.pid != y.pid) return x.pid < y.pid;
                     if (x.tid != y.tid) return x.tid < y.tid;
                     return x.ev->ts_ns < y.ev->ts_ns;
                   });

  std::string out;
  out.reserve(rows.size() * 160 + 4096);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Metadata: process names per pid, thread names per (pid, tid).
  std::set<int> pids;
  std::set<std::pair<int, std::uint64_t>> tracks;
  for (const auto& r : rows) {
    pids.insert(r.pid);
    tracks.insert({r.pid, r.tid});
  }
  for (const int pid : pids) {
    if (!first) out += ",";
    first = false;
    AppendF(out,
            R"({"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"rank %d"}})",
            pid, pid);
  }
  for (const auto& t : snap.threads) {
    for (const auto& [pid, tid] : tracks) {
      if (tid != t.buffer_id) continue;
      if (!first) out += ",";
      first = false;
      AppendF(out, R"({"name":"thread_name","ph":"M","pid":%d,"tid":%)" PRIu64
                   R"(,"args":{"name":")",
              pid, tid);
      out += util::json::Escape(t.thread_name);
      out += "\"}}";
    }
  }
  for (const auto& r : rows) {
    if (!first) out += ",";
    first = false;
    AppendEventJson(out, r);
  }
  out += "]}";
  return out;
}

std::string ChromeTraceJson() { return ChromeTraceJson(util::trace::Collect()); }

util::Status WriteChromeTrace(const std::string& path) {
  const std::string body = ChromeTraceJson();
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return util::IoError("trace: cannot open '" + path + "' for writing");
  f.write(body.data(), static_cast<std::streamsize>(body.size()));
  f.flush();
  if (!f) return util::IoError("trace: short write to '" + path + "'");
  return util::OkStatus();
}

std::string MetricsJson(const RankMetrics& m,
                        const std::vector<std::string>& tier_names) {
  std::string out;
  out.reserve(4096);
  out += "{";
  AppendSeriesJson(out, "ckpt_block_s", m.ckpt_block_s);
  out += ",";
  AppendSeriesJson(out, "restore_block_s", m.restore_block_s);
  AppendF(out, ",\"ckpt_throughput_Bps\":");
  AppendNum(out, m.CkptThroughput());
  AppendF(out, ",\"restore_throughput_Bps\":");
  AppendNum(out, m.RestoreThroughput());
  AppendF(out,
          ",\"bytes_checkpointed\":%" PRIu64 ",\"bytes_restored\":%" PRIu64
          ",\"restores_waited_promotion\":%" PRIu64,
          m.bytes_checkpointed, m.bytes_restored, m.restores_waited_promotion);
  out += ",";
  AppendTierVector(out, "restores_from_tier", m.restores_from_tier, tier_names);
  out += ",";
  AppendTierVector(out, "flush_bytes_to_tier", m.flush_bytes_to_tier, tier_names);
  out += ",";
  AppendTierVector(out, "evictions_from_tier", m.evictions_from_tier, tier_names);
  out += ",";
  AppendTierVector(out, "evicted_bytes_from_tier", m.evicted_bytes_from_tier,
                   tier_names);
  AppendF(out,
          ",\"prefetch_promotions\":%" PRIu64 ",\"prefetch_gpu_hits\":%" PRIu64
          ",\"prefetch_aborts\":%" PRIu64,
          m.prefetch_promotions, m.prefetch_gpu_hits, m.prefetch_aborts);
  out += ",\"reserve_wait_write_s\":";
  AppendNum(out, m.reserve_wait_write_s);
  out += ",\"reserve_wait_prefetch_s\":";
  AppendNum(out, m.reserve_wait_prefetch_s);
  AppendF(out, ",\"reserve_rounds\":%" PRIu64, m.reserve_rounds);
  AppendF(out, ",\"reserve_plans_stale\":%" PRIu64, m.reserve_plans_stale);
  AppendF(out, ",\"reserve_snapshot_reuse\":%" PRIu64,
          m.reserve_snapshot_reuse);
  AppendF(out, ",\"reserve_quota_waits\":%" PRIu64, m.reserve_quota_waits);
  out += ",\"reserve_wait_quota_s\":";
  AppendNum(out, m.reserve_wait_quota_s);
  AppendF(out, ",\"flushes_completed\":%" PRIu64 ",\"flushes_cancelled\":%" PRIu64,
          m.flushes_completed, m.flushes_cancelled);
  out += ",\"wait_for_flush_s\":";
  AppendNum(out, m.wait_for_flush_s);
  AppendF(out,
          ",\"flush_retries\":%" PRIu64 ",\"flush_failures\":%" PRIu64
          ",\"tier_degradations\":%" PRIu64 ",\"fetch_retries\":%" PRIu64
          ",\"fetch_fallbacks\":%" PRIu64 ",\"checkpoints_lost\":%" PRIu64,
          m.flush_retries, m.flush_failures, m.tier_degradations,
          m.fetch_retries, m.fetch_fallbacks, m.checkpoints_lost);
  AppendF(out,
          ",\"watchdog_stalls\":%" PRIu64 ",\"watchdog_fsm_stalls\":%" PRIu64
          ",\"watchdog_flush_stalls\":%" PRIu64
          ",\"watchdog_reserve_stalls\":%" PRIu64,
          m.watchdog_stalls, m.watchdog_fsm_stalls, m.watchdog_flush_stalls,
          m.watchdog_reserve_stalls);
  out += ",\"init_s\":";
  AppendNum(out, m.init_s);
  out += ",\"promotion_hist\":";
  AppendHistJson(out, m.promotion_hist);
  out += ",\"reserve_round_hist\":";
  AppendHistJson(out, m.reserve_round_hist);
  out += ",\"flush_stage_hist\":{";
  for (std::size_t i = 0; i < m.flush_stage_hist.size(); ++i) {
    if (i) out += ",";
    out += "\"" + util::json::Escape(TierLabel(tier_names, i)) + "\":";
    AppendHistJson(out, m.flush_stage_hist[i]);
  }
  out += "}";
  // Lineage accounting (DESIGN.md §14).
  AppendF(out,
          ",\"lineage\":{\"admitted\":%" PRIu64 ",\"durable\":%" PRIu64
          ",\"degraded\":%" PRIu64 ",\"lost\":%" PRIu64
          ",\"erased\":%" PRIu64 "}",
          m.objects_admitted, m.objects_durable, m.objects_degraded,
          m.objects_lost, m.objects_erased);
  out += ",\"durability_lag_s\":{";
  bool first_tier = true;
  for (std::size_t i = 0; i < m.durability_lag.size(); ++i) {
    if (m.durability_lag[i].total() == 0) continue;
    if (!first_tier) out += ",";
    first_tier = false;
    out += "\"" + util::json::Escape(TierLabel(tier_names, i)) + "\":";
    AppendHistJson(out, m.durability_lag[i]);
  }
  out += "}";
  out += ",\"restore_series\":[";
  for (std::size_t i = 0; i < m.restore_series.size(); ++i) {
    const RestorePoint& p = m.restore_series[i];
    if (i) out += ",";
    AppendF(out,
            "{\"iteration\":%" PRIu64 ",\"version\":%" PRIu64
            ",\"bytes\":%" PRIu64 ",\"prefetch_distance\":%" PRIu64
            ",\"blocking_s\":",
            p.iteration, p.version, p.bytes, p.prefetch_distance);
    AppendNum(out, p.blocking_s);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string MetricsSnapshotJson(const Engine& engine) {
  const std::vector<std::string> tier_names = TelemetryTierNames(engine);
  std::string out;
  out += "{\"tiers\":[";
  for (std::size_t i = 0; i < tier_names.size(); ++i) {
    if (i) out += ",";
    out += "\"" + util::json::Escape(tier_names[i]) + "\"";
  }
  out += "],\"ranks\":[";
  RankMetrics merged;
  for (int r = 0; r < engine.num_ranks(); ++r) {
    const RankMetrics m = engine.MetricsSnapshot(r);
    if (r) out += ",";
    // Each rank entry is attributed to its owning tenant.
    out += "{\"tenant\":\"" + util::json::Escape(engine.TenantLabelOf(r)) +
           "\",";
    out += MetricsJson(m, tier_names).substr(1);
    merged.Merge(m);
  }
  out += "],\"merged\":";
  out += MetricsJson(merged, tier_names);
  out += ",\"remote_tiers\":";
  out += RemoteTiersJson(engine);
  out += "}";
  return out;
}

util::Status WriteMetricsSnapshot(const Engine& engine, const std::string& path) {
  const std::string body = MetricsSnapshotJson(engine);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return util::IoError("metrics: cannot open '" + path + "' for writing");
  f.write(body.data(), static_cast<std::streamsize>(body.size()));
  f.flush();
  if (!f) return util::IoError("metrics: short write to '" + path + "'");
  return util::OkStatus();
}

TraceCheck ValidateChromeTrace(std::string_view json_text) {
  const auto doc = util::json::Parse(json_text);
  if (!doc.ok()) {
    TraceCheck check;
    check.error = doc.status().ToString();
    return check;
  }
  return ValidateChromeTrace(*doc);
}

TraceCheck ValidateChromeTrace(const util::json::Value& doc) {
  TraceCheck check;
  const util::json::Value* events = doc.Find("traceEvents");
  if (events == nullptr && doc.is_array()) events = &doc;  // bare-array form
  if (events == nullptr || !events->is_array()) {
    check.error = "missing traceEvents array";
    return check;
  }
  // Per-track last-seen begin timestamp for the monotonicity check.
  std::map<std::pair<int, std::uint64_t>, double> last_ts;
  std::set<std::pair<int, std::uint64_t>> tracks;
  // Per-flow-id bookkeeping: flow events cross tracks, so binding is
  // checked in a post-pass over these rollups rather than in file order.
  struct FlowStats {
    std::size_t starts = 0;
    std::size_t steps = 0;
    std::size_t finishes = 0;
    double first_start_ts = 0.0;
    double last_finish_ts = 0.0;
  };
  std::map<std::string, FlowStats> flows;
  // Per-track rollups for --summary; names come from thread_name metadata,
  // kept separate so metadata-only tracks don't show up in the stats.
  std::map<std::pair<int, std::uint64_t>, TraceCheck::TrackStats> stats;
  std::map<std::pair<int, std::uint64_t>, std::string> track_names;
  for (const auto& ev : events->as_array()) {
    if (!ev.is_object()) {
      check.error = "traceEvents element is not an object";
      return check;
    }
    const util::json::Value* ph = ev.Find("ph");
    const util::json::Value* name = ev.Find("name");
    if (ph == nullptr || !ph->is_string() || name == nullptr ||
        !name->is_string()) {
      check.error = "event missing ph/name";
      return check;
    }
    const int pid = static_cast<int>(
        ev.Find("pid") != nullptr ? ev.Find("pid")->as_number() : 0);
    const auto tid = static_cast<std::uint64_t>(
        ev.Find("tid") != nullptr ? ev.Find("tid")->as_number() : 0);
    const auto key = std::make_pair(pid, tid);
    if (ph->as_string() == "M") {  // metadata carries no timestamp
      if (name->as_string() == "thread_name") {
        const util::json::Value* args = ev.Find("args");
        const util::json::Value* nm =
            args != nullptr ? args->Find("name") : nullptr;
        if (nm != nullptr && nm->is_string()) track_names[key] = nm->as_string();
      }
      continue;
    }
    const util::json::Value* ts = ev.Find("ts");
    if (ts == nullptr || !ts->is_number()) {
      check.error = "event '" + name->as_string() + "' missing ts";
      return check;
    }
    if (ts->as_number() < 0) {
      // All engine timestamps come from one monotonic clock (util::Clock);
      // a negative ts means a mixed clock domain or arithmetic underflow.
      check.error = "event '" + name->as_string() + "' has negative ts";
      return check;
    }
    tracks.insert(key);
    TraceCheck::TrackStats& track = stats[key];
    ++track.events;
    auto [it, inserted] = last_ts.try_emplace(key, ts->as_number());
    if (!inserted) {
      if (ts->as_number() < it->second) {
        check.error = "non-monotonic ts on track pid=" + std::to_string(pid) +
                      " tid=" + std::to_string(tid);
        return check;
      }
      it->second = ts->as_number();
    }
    ++check.events;
    const std::string cat =
        ev.Find("cat") != nullptr ? ev.Find("cat")->as_string() : "";
    if (ph->as_string() == "X") {
      const util::json::Value* dur = ev.Find("dur");
      if (dur == nullptr || !dur->is_number() || dur->as_number() < 0) {
        check.error = "span '" + name->as_string() + "' missing/negative dur";
        return check;
      }
      ++check.spans;
      ++check.spans_per_category[cat];
      ++track.spans;
      track.total_dur_us += dur->as_number();
      track.max_dur_us = std::max(track.max_dur_us, dur->as_number());
    } else if (ph->as_string() == "i") {
      ++check.instants;
      if (name->as_string() == "trace:wrap") ++check.wraps;
    } else if (ph->as_string() == "s" || ph->as_string() == "t" ||
               ph->as_string() == "f") {
      const util::json::Value* id = ev.Find("id");
      if (id == nullptr || !id->is_string() || id->as_string().empty()) {
        check.error =
            "flow event '" + name->as_string() + "' missing string id";
        return check;
      }
      FlowStats& fs = flows[id->as_string()];
      ++check.flows_per_category[cat];
      if (ph->as_string() == "s") {
        ++check.flow_starts;
        if (fs.starts == 0 || ts->as_number() < fs.first_start_ts) {
          fs.first_start_ts = ts->as_number();
        }
        ++fs.starts;
      } else if (ph->as_string() == "t") {
        ++check.flow_steps;
        ++fs.steps;
      } else {
        ++check.flow_finishes;
        fs.last_finish_ts = std::max(fs.last_finish_ts, ts->as_number());
        ++fs.finishes;
      }
    }
  }
  // Flow binding post-pass: every termination must bind to a start of the
  // same id that happened at or before it, and one incarnation terminates
  // at most once (re-admitted objects reuse their id, so starts and
  // finishes pair up 1:1 per incarnation). A ring wrap can legitimately
  // drop a flow's start while its finish survives — those ids are counted
  // as unbound instead of failing the trace, but only when a trace:wrap
  // marker proves events were dropped.
  check.flows = flows.size();
  for (const auto& [id, fs] : flows) {
    if (fs.finishes > fs.starts) {
      if (check.wraps == 0) {
        check.error = fs.starts == 0
                          ? "flow " + id + " terminates without a start"
                          : "flow " + id + " has duplicate terminations";
        return check;
      }
      ++check.flows_unbound;
      continue;
    }
    if (fs.finishes > 0 && fs.last_finish_ts < fs.first_start_ts) {
      check.error = "flow " + id + " terminates before its start";
      return check;
    }
    if (fs.starts > fs.finishes) ++check.flows_dangling;
  }
  check.tracks = tracks.size();
  check.track_stats.reserve(stats.size());
  for (auto& [key, track] : stats) {
    track.pid = key.first;
    track.tid = key.second;
    if (auto nit = track_names.find(key); nit != track_names.end()) {
      track.name = nit->second;
    }
    check.track_stats.push_back(std::move(track));
  }
  if (check.events == 0) {
    check.error = "trace contains no events";
    return check;
  }
  check.ok = true;
  return check;
}

}  // namespace ckpt::core
