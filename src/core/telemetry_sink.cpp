#include "core/telemetry_sink.hpp"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <set>

#include "core/engine.hpp"
#include "core/lifecycle.hpp"
#include "core/render.hpp"
#include "core/tier_stack.hpp"
#include "util/json.hpp"
#include "util/trace.hpp"

namespace ckpt::core {

namespace {

using render::AppendF;
using render::AppendNum;
using render::TierLabel;
using util::telemetry::RankSample;
using util::telemetry::RemoteTierSample;
using util::telemetry::SamplePtr;
using util::telemetry::TelemetrySample;
using util::telemetry::TierSample;

/// OpenMetrics label-value escaping: backslash, double quote, newline.
std::string EscapeLabelValue(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

[[nodiscard]] bool ValidMetricName(std::string_view n) {
  if (n.empty()) return false;
  const auto body = [](char c) {
    return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_' ||
           c == ':';
  };
  if (std::isdigit(static_cast<unsigned char>(n[0])) != 0) return false;
  return std::all_of(n.begin(), n.end(), body);
}

[[nodiscard]] bool ValidLabelName(std::string_view n) {
  if (n.empty()) return false;
  const auto body = [](char c) {
    return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
  };
  if (std::isdigit(static_cast<unsigned char>(n[0])) != 0) return false;
  return std::all_of(n.begin(), n.end(), body);
}

/// Emitter-side family declaration helper.
struct Exposer {
  std::string& out;

  void Gauge(const char* name, const char* help) {
    AppendF(out, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name);
  }
  void Counter(const char* name, const char* help) {
    AppendF(out, "# HELP %s %s\n# TYPE %s counter\n", name, help, name);
  }
  /// One sample line. `name` must already carry the `_total` suffix for
  /// counters; `labels` is the rendered label block without braces ("" for
  /// label-less samples).
  void SampleU64(const std::string& name, const std::string& labels,
                 std::uint64_t v) {
    out += name;
    if (!labels.empty()) {
      out += '{';
      out += labels;
      out += '}';
    }
    AppendF(out, " %" PRIu64 "\n", v);
  }
  void SampleF64(const std::string& name, const std::string& labels, double v) {
    out += name;
    if (!labels.empty()) {
      out += '{';
      out += labels;
      out += '}';
    }
    out += ' ';
    AppendNum(out, v);
    out += '\n';
  }
};

std::string RankLabel(const RankSample& rs) {
  return "tenant=\"" + EscapeLabelValue(rs.tenant) + "\",rank=\"" +
         std::to_string(rs.rank) + "\"";
}
std::string TierRankLabel(const std::vector<std::string>& names, std::size_t i,
                          const RankSample& rs) {
  return "tier=\"" + EscapeLabelValue(TierLabel(names, i)) + "\"," +
         RankLabel(rs);
}

void AppendRankSampleJson(std::string& out, const RankSample& rs,
                          const std::vector<std::string>& tier_names) {
  AppendF(out, "{\"rank\":%d", rs.rank);
  out += ",\"tenant\":\"" + util::json::Escape(rs.tenant) + "\"";
  out += ",\"state_occupancy\":[";
  for (std::size_t i = 0; i < rs.state_occupancy.size(); ++i) {
    if (i) out += ',';
    AppendF(out, "%" PRIu64, rs.state_occupancy[i]);
  }
  AppendF(out,
          "],\"last_transition_ns\":%" PRId64 ",\"restore_queue_depth\":%" PRIu64
          ",\"reserve_rounds\":%" PRIu64 ",\"reserve_plans_stale\":%" PRIu64
          ",\"reserve_snapshot_reuse\":%" PRIu64
          ",\"reserve_quota_waits\":%" PRIu64
          ",\"flush_retries\":%" PRIu64 ",\"fetch_retries\":%" PRIu64
          ",\"tier_degradations\":%" PRIu64 ",\"checkpoints_lost\":%" PRIu64
          ",\"checkpoints\":%" PRIu64 ",\"restores\":%" PRIu64
          ",\"bytes_checkpointed\":%" PRIu64 ",\"bytes_restored\":%" PRIu64
          ",\"watchdog_stalls\":%" PRIu64,
          rs.last_transition_ns, rs.restore_queue_depth, rs.reserve_rounds,
          rs.reserve_plans_stale, rs.reserve_snapshot_reuse,
          rs.reserve_quota_waits, rs.flush_retries, rs.fetch_retries,
          rs.tier_degradations, rs.checkpoints_lost, rs.checkpoints,
          rs.restores, rs.bytes_checkpointed, rs.bytes_restored,
          rs.watchdog_stalls);
  AppendF(out,
          ",\"objects\":{\"admitted\":%" PRIu64 ",\"durable\":%" PRIu64
          ",\"degraded\":%" PRIu64 ",\"lost\":%" PRIu64
          ",\"erased\":%" PRIu64 "}",
          rs.objects_admitted, rs.objects_durable, rs.objects_degraded,
          rs.objects_lost, rs.objects_erased);
  out += ",\"tiers\":[";
  for (std::size_t i = 0; i < rs.tiers.size(); ++i) {
    const TierSample& t = rs.tiers[i];
    if (i) out += ',';
    out += "{\"name\":\"" + util::json::Escape(TierLabel(tier_names, i)) + "\"";
    AppendF(out,
            ",\"bytes_used\":%" PRIu64 ",\"bytes_capacity\":%" PRIu64
            ",\"flush_queue_depth\":%" PRIu64 ",\"flush_bytes\":%" PRIu64
            ",\"restores\":%" PRIu64 "}",
            t.bytes_used, t.bytes_capacity, t.flush_queue_depth, t.flush_bytes,
            t.restores);
  }
  out += "]}";
}

/// `[...]` of every remote tier's counters; `[]` when there are none.
void AppendRemoteTiersJson(std::string& out,
                           const std::vector<RemoteTierSample>& tiers) {
  out += '[';
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const RemoteTierSample& rt = tiers[i];
    if (i) out += ',';
    out += "{\"name\":\"" + util::json::Escape(rt.tier_name) + "\"";
    AppendF(out,
            ",\"remote_puts\":%" PRIu64 ",\"remote_gets\":%" PRIu64
            ",\"remote_parts\":%" PRIu64 ",\"remote_part_retries\":%" PRIu64
            ",\"remote_put_bytes\":%" PRIu64 ",\"remote_get_bytes\":%" PRIu64
            ",\"agg_member_puts\":%" PRIu64 ",\"agg_group_puts\":%" PRIu64
            ",\"agg_group_put_failures\":%" PRIu64 ",\"agg_size_flushes\":%" PRIu64
            ",\"agg_deadline_flushes\":%" PRIu64
            ",\"agg_gets_from_pending\":%" PRIu64
            ",\"agg_group_reclaims\":%" PRIu64
            ",\"agg_pending_members\":%" PRIu64 ",\"agg_pending_bytes\":%" PRIu64
            "}",
            rt.remote_puts, rt.remote_gets, rt.remote_parts,
            rt.remote_part_retries, rt.remote_put_bytes, rt.remote_get_bytes,
            rt.agg_member_puts, rt.agg_group_puts, rt.agg_group_put_failures,
            rt.agg_size_flushes, rt.agg_deadline_flushes,
            rt.agg_gets_from_pending, rt.agg_group_reclaims,
            rt.agg_pending_members, rt.agg_pending_bytes);
  }
  out += ']';
}

/// One rank's (or the merged) critical-path entry.
void AppendCriticalPathEntry(std::string& out, const RankMetrics& m,
                             double wall_s,
                             const std::vector<std::string>& tier_names) {
  const double ckpt_s = m.ckpt_block_s.Sum();
  const double restore_s = m.restore_block_s.Sum();
  const double blocked_s = ckpt_s + restore_s + m.wait_for_flush_s;
  const double compute_s = std::max(0.0, wall_s - blocked_s);
  out += "{\"wall_s\":";
  AppendNum(out, wall_s);
  out += ",\"compute_s\":";
  AppendNum(out, compute_s);
  out += ",\"ckpt_block_s\":";
  AppendNum(out, ckpt_s);
  out += ",\"restore_block_s\":";
  AppendNum(out, restore_s);
  out += ",\"wait_for_flush_s\":";
  AppendNum(out, m.wait_for_flush_s);
  out += ",\"reserve_wait_write_s\":";
  AppendNum(out, m.reserve_wait_write_s);
  out += ",\"reserve_wait_prefetch_s\":";
  AppendNum(out, m.reserve_wait_prefetch_s);
  out += ",\"prefetch_promote_s\":";
  AppendNum(out, m.promotion_hist.sum());
  out += ",\"blocked_frac\":";
  AppendNum(out, wall_s > 0 ? blocked_s / wall_s : 0.0);
  out += ",\"flush_stage_s\":{";
  for (std::size_t i = 0; i < m.flush_stage_hist.size(); ++i) {
    if (i) out += ',';
    out += "\"" + util::json::Escape(TierLabel(tier_names, i)) + "\":";
    AppendNum(out, m.flush_stage_hist[i].sum());
  }
  out += "}}";
}

}  // namespace

std::vector<std::string> TelemetryTierNames(const Engine& engine) {
  const TierStack& stack = engine.tiers();
  std::vector<std::string> names;
  names.reserve(stack.size());
  for (std::size_t i = 0; i < stack.size(); ++i) {
    names.emplace_back(stack.name(i));
  }
  return names;
}

SamplePtr BuildTelemetrySample(const Engine& engine, std::uint64_t seq) {
  auto s = std::make_shared<TelemetrySample>();
  s->ts_ns = util::trace::Now();
  s->seq = seq;
  const int nr = engine.num_ranks();
  s->ranks.reserve(static_cast<std::size_t>(nr));
  for (int r = 0; r < nr; ++r) s->ranks.push_back(engine.Probe(r));
  s->remote_tiers = CollectRemoteTiers(engine);
  return s;
}

std::vector<RemoteTierSample> CollectRemoteTiers(const Engine& engine) {
  // Store-level counters of remote/aggregating durable tiers. The stores are
  // engine-wide (shared across ranks), so these ride beside the rank slices.
  std::vector<RemoteTierSample> out;
  const TierStack& stack = engine.tiers();
  for (int d = 0; d < stack.num_durable_tiers(); ++d) {
    storage::StoreStats st;
    const storage::ObjectStore* store = stack.durable_store(d);
    if (store == nullptr || !store->CollectStats(st)) continue;
    RemoteTierSample rt;
    rt.tier = stack.durable_index(d);
    rt.tier_name = std::string(stack.name(static_cast<std::size_t>(rt.tier)));
    rt.remote_puts = st.remote_puts;
    rt.remote_gets = st.remote_gets;
    rt.remote_parts = st.remote_parts;
    rt.remote_part_retries = st.remote_part_retries;
    rt.remote_put_bytes = st.remote_put_bytes;
    rt.remote_get_bytes = st.remote_get_bytes;
    rt.agg_member_puts = st.agg_member_puts;
    rt.agg_group_puts = st.agg_group_puts;
    rt.agg_group_put_failures = st.agg_group_put_failures;
    rt.agg_size_flushes = st.agg_size_flushes;
    rt.agg_deadline_flushes = st.agg_deadline_flushes;
    rt.agg_gets_from_pending = st.agg_gets_from_pending;
    rt.agg_group_reclaims = st.agg_group_reclaims;
    rt.agg_pending_members = st.agg_pending_members;
    rt.agg_pending_bytes = st.agg_pending_bytes;
    out.push_back(std::move(rt));
  }
  return out;
}

std::string RemoteTiersJson(const Engine& engine) {
  std::string out;
  AppendRemoteTiersJson(out, CollectRemoteTiers(engine));
  return out;
}

std::string OpenMetricsText(const TelemetrySample& s,
                            const std::vector<std::string>& tier_names) {
  std::string out;
  out.reserve(8192);
  Exposer x{out};

  x.Gauge("ckpt_telemetry_sample_seq", "Sample index since sampler start.");
  x.SampleU64("ckpt_telemetry_sample_seq", "", s.seq);

  x.Gauge("ckpt_tier_bytes_used", "Cache bytes resident per tier.");
  for (const RankSample& rs : s.ranks) {
    for (std::size_t i = 0; i < rs.tiers.size(); ++i) {
      if (rs.tiers[i].bytes_capacity == 0) continue;  // durable tiers
      x.SampleU64("ckpt_tier_bytes_used", TierRankLabel(tier_names, i, rs),
                  rs.tiers[i].bytes_used);
    }
  }
  x.Gauge("ckpt_tier_bytes_capacity", "Cache capacity per tier.");
  for (const RankSample& rs : s.ranks) {
    for (std::size_t i = 0; i < rs.tiers.size(); ++i) {
      if (rs.tiers[i].bytes_capacity == 0) continue;
      x.SampleU64("ckpt_tier_bytes_capacity",
                  TierRankLabel(tier_names, i, rs),
                  rs.tiers[i].bytes_capacity);
    }
  }
  x.Gauge("ckpt_flush_queue_depth",
          "Flush work queued or in flight per cache tier.");
  for (const RankSample& rs : s.ranks) {
    for (std::size_t i = 0; i < rs.tiers.size(); ++i) {
      if (rs.tiers[i].bytes_capacity == 0) continue;
      x.SampleU64("ckpt_flush_queue_depth",
                  TierRankLabel(tier_names, i, rs),
                  rs.tiers[i].flush_queue_depth);
    }
  }
  x.Gauge("ckpt_restore_queue_depth", "Pending restore-order hints.");
  for (const RankSample& rs : s.ranks) {
    x.SampleU64("ckpt_restore_queue_depth", RankLabel(rs),
                rs.restore_queue_depth);
  }
  x.Gauge("ckpt_state_occupancy", "Checkpoint records per FSM state.");
  for (const RankSample& rs : s.ranks) {
    for (std::size_t i = 0; i < rs.state_occupancy.size(); ++i) {
      const std::string state(to_string(static_cast<CkptState>(i)));
      x.SampleU64("ckpt_state_occupancy",
                  "state=\"" + EscapeLabelValue(state) + "\"," +
                      RankLabel(rs),
                  rs.state_occupancy[i]);
    }
  }

  struct CounterSpec {
    const char* family;
    const char* help;
    std::uint64_t RankSample::* field;
  };
  static constexpr CounterSpec kRankCounters[] = {
      {"ckpt_checkpoints", "Checkpoints accepted.", &RankSample::checkpoints},
      {"ckpt_restores", "Restores served.", &RankSample::restores},
      {"ckpt_bytes_checkpointed", "Bytes accepted by Checkpoint().",
       &RankSample::bytes_checkpointed},
      {"ckpt_bytes_restored", "Bytes returned by Restore().",
       &RankSample::bytes_restored},
      {"ckpt_reserve_rounds", "Eviction plan/commit rounds.",
       &RankSample::reserve_rounds},
      {"ckpt_reserve_plans_stale", "Off-lock eviction plans gone stale.",
       &RankSample::reserve_plans_stale},
      {"ckpt_reserve_snapshot_reuse",
       "Replan rounds that reused the prior fragment snapshot.",
       &RankSample::reserve_snapshot_reuse},
      {"ckpt_reserve_quota_waits", "Reserve rounds parked on tenant quota.",
       &RankSample::reserve_quota_waits},
      {"ckpt_flush_retries", "Extra durable-store write attempts.",
       &RankSample::flush_retries},
      {"ckpt_fetch_retries", "Extra durable-store read attempts.",
       &RankSample::fetch_retries},
      {"ckpt_tier_degradations",
       "Checkpoints durable at a shallower tier than configured.",
       &RankSample::tier_degradations},
      {"ckpt_checkpoints_lost", "Checkpoints that entered FLUSH_FAILED.",
       &RankSample::checkpoints_lost},
      {"ckpt_watchdog_stalls", "Stalls detected by the telemetry watchdog.",
       &RankSample::watchdog_stalls},
  };
  for (const CounterSpec& c : kRankCounters) {
    x.Counter(c.family, c.help);
    const std::string sample_name = std::string(c.family) + "_total";
    for (const RankSample& rs : s.ranks) {
      x.SampleU64(sample_name, RankLabel(rs), rs.*(c.field));
    }
  }
  x.Counter("ckpt_tier_flush_bytes", "Cumulative bytes landed on each tier.");
  for (const RankSample& rs : s.ranks) {
    for (std::size_t i = 0; i < rs.tiers.size(); ++i) {
      x.SampleU64("ckpt_tier_flush_bytes_total",
                  TierRankLabel(tier_names, i, rs),
                  rs.tiers[i].flush_bytes);
    }
  }
  x.Counter("ckpt_tier_restores", "Restores served from each tier.");
  for (const RankSample& rs : s.ranks) {
    for (std::size_t i = 0; i < rs.tiers.size(); ++i) {
      x.SampleU64("ckpt_tier_restores_total",
                  TierRankLabel(tier_names, i, rs),
                  rs.tiers[i].restores);
    }
  }
  // Remote/aggregating tier families: always declared, sampled for each
  // tier whose store reports stats.
  struct RemoteCounterSpec {
    const char* family;
    const char* help;
    std::uint64_t RemoteTierSample::* field;
  };
  static constexpr RemoteCounterSpec kRemoteCounters[] = {
      {"ckpt_remote_puts", "Objects landed on the remote store.",
       &RemoteTierSample::remote_puts},
      {"ckpt_remote_gets", "Objects fetched from the remote store.",
       &RemoteTierSample::remote_gets},
      {"ckpt_remote_parts", "Multipart upload parts completed.",
       &RemoteTierSample::remote_parts},
      {"ckpt_remote_part_retries", "Extra per-part upload attempts.",
       &RemoteTierSample::remote_part_retries},
      {"ckpt_remote_put_bytes", "Bytes uploaded to the remote store.",
       &RemoteTierSample::remote_put_bytes},
      {"ckpt_remote_get_bytes", "Bytes downloaded from the remote store.",
       &RemoteTierSample::remote_get_bytes},
      {"ckpt_agg_member_puts", "Member puts accepted by the aggregator.",
       &RemoteTierSample::agg_member_puts},
      {"ckpt_agg_group_puts", "Group objects landed by the aggregator.",
       &RemoteTierSample::agg_group_puts},
      {"ckpt_agg_group_put_failures", "Group uploads that failed and were requeued.",
       &RemoteTierSample::agg_group_put_failures},
      {"ckpt_agg_size_flushes", "Groups sealed by the member/byte threshold.",
       &RemoteTierSample::agg_size_flushes},
      {"ckpt_agg_deadline_flushes", "Groups sealed by deadline or explicit flush.",
       &RemoteTierSample::agg_deadline_flushes},
      {"ckpt_agg_gets_from_pending", "Member reads served from buffered groups.",
       &RemoteTierSample::agg_gets_from_pending},
      {"ckpt_agg_group_reclaims", "Group objects reclaimed after their last member was erased.",
       &RemoteTierSample::agg_group_reclaims},
  };
  const auto remote_label = [&](const RemoteTierSample& rt) {
    return "tier=\"" + EscapeLabelValue(rt.tier_name) + "\"";
  };
  for (const RemoteCounterSpec& c : kRemoteCounters) {
    x.Counter(c.family, c.help);
    const std::string sample_name = std::string(c.family) + "_total";
    for (const RemoteTierSample& rt : s.remote_tiers) {
      x.SampleU64(sample_name, remote_label(rt), rt.*(c.field));
    }
  }
  x.Gauge("ckpt_agg_pending_members",
          "Member puts buffered in not-yet-landed groups.");
  for (const RemoteTierSample& rt : s.remote_tiers) {
    x.SampleU64("ckpt_agg_pending_members", remote_label(rt),
                rt.agg_pending_members);
  }
  x.Gauge("ckpt_agg_pending_bytes",
          "Bytes buffered in not-yet-landed groups.");
  for (const RemoteTierSample& rt : s.remote_tiers) {
    x.SampleU64("ckpt_agg_pending_bytes", remote_label(rt),
                rt.agg_pending_bytes);
  }
  // Lineage families (DESIGN.md §14).
  struct OutcomeSpec {
    const char* outcome;
    std::uint64_t RankSample::* field;
  };
  static constexpr OutcomeSpec kOutcomes[] = {
      {"admitted", &RankSample::objects_admitted},
      {"durable", &RankSample::objects_durable},
      {"degraded", &RankSample::objects_degraded},
      {"lost", &RankSample::objects_lost},
      {"erased", &RankSample::objects_erased},
  };
  x.Counter("ckpt_objects",
            "Checkpoint objects by lineage milestone (conservation: "
            "admitted = durable + degraded + lost + erased + inflight).");
  for (const OutcomeSpec& o : kOutcomes) {
    for (const RankSample& rs : s.ranks) {
      x.SampleU64("ckpt_objects_total",
                  "outcome=\"" + std::string(o.outcome) + "\"," +
                      RankLabel(rs),
                  rs.*(o.field));
    }
  }
  x.Gauge("ckpt_objects_inflight",
          "Admitted checkpoint objects not yet at a lineage terminal.");
  for (const RankSample& rs : s.ranks) {
    const std::uint64_t done = rs.objects_durable + rs.objects_degraded +
                               rs.objects_lost + rs.objects_erased;
    x.SampleU64("ckpt_objects_inflight", RankLabel(rs),
                rs.objects_admitted > done ? rs.objects_admitted - done : 0);
  }
  AppendF(out,
          "# HELP ckpt_durability_lag_seconds Admission-to-durable-ack lag "
          "per durable tier.\n"
          "# TYPE ckpt_durability_lag_seconds histogram\n");
  for (const RankSample& rs : s.ranks) {
    for (std::size_t i = 0; i < rs.tiers.size(); ++i) {
      if (rs.tiers[i].bytes_capacity != 0) continue;  // cache tier
      const util::Histogram& lag = rs.tiers[i].lag;
      const std::string labels = TierRankLabel(tier_names, i, rs);
      std::uint64_t cum = 0;
      for (std::size_t b = 0; b < util::Histogram::kBuckets; ++b) {
        cum += lag.counts()[b];
        std::string le;
        if (b + 1 < util::Histogram::kBuckets) {
          AppendNum(le, util::Histogram::kEdgesS[b]);
        } else {
          le = "+Inf";
        }
        x.SampleU64("ckpt_durability_lag_seconds_bucket",
                    labels + ",le=\"" + le + "\"", cum);
      }
      x.SampleF64("ckpt_durability_lag_seconds_sum", labels, lag.sum());
      x.SampleU64("ckpt_durability_lag_seconds_count", labels, lag.total());
    }
  }
  out += "# EOF\n";
  return out;
}

std::string OpenMetricsText(const Engine& engine) {
  const SamplePtr s = BuildTelemetrySample(engine, 0);
  return OpenMetricsText(*s, TelemetryTierNames(engine));
}

std::string TelemetryWindowJson(const util::telemetry::SampleRing& ring,
                                const std::vector<std::string>& tier_names) {
  const std::vector<SamplePtr> window = ring.Window();
  std::string out;
  out.reserve(window.size() * 512 + 256);
  AppendF(out, "{\"capacity\":%zu,\"total\":%" PRIu64 ",\"samples\":[",
          ring.capacity(), ring.total());
  for (std::size_t i = 0; i < window.size(); ++i) {
    const TelemetrySample& s = *window[i];
    if (i) out += ',';
    AppendF(out, "{\"ts_ns\":%" PRId64 ",\"seq\":%" PRIu64 ",\"ranks\":[",
            s.ts_ns, s.seq);
    for (std::size_t r = 0; r < s.ranks.size(); ++r) {
      if (r) out += ',';
      AppendRankSampleJson(out, s.ranks[r], tier_names);
    }
    out += "],\"remote_tiers\":";
    AppendRemoteTiersJson(out, s.remote_tiers);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string CriticalPathJson(const Engine& engine, double wall_s) {
  const std::vector<std::string> tier_names = TelemetryTierNames(engine);
  std::string out;
  out.reserve(2048);
  out += "{\"wall_s\":";
  AppendNum(out, wall_s);
  out += ",\"ranks\":[";
  RankMetrics merged;
  for (int r = 0; r < engine.num_ranks(); ++r) {
    const RankMetrics m = engine.MetricsSnapshot(r);
    if (r) out += ',';
    AppendF(out, "{\"rank\":%d,\"breakdown\":", r);
    AppendCriticalPathEntry(out, m, wall_s, tier_names);
    out += '}';
    merged.Merge(m);
  }
  out += "],\"merged\":";
  // The merged wall budget is one wall clock per rank.
  AppendCriticalPathEntry(out, merged, wall_s * engine.num_ranks(), tier_names);
  out += '}';
  return out;
}

TelemetryCheck ValidateOpenMetrics(std::string_view text) {
  TelemetryCheck ck;
  const auto fail = [&ck](std::size_t lineno, std::string msg) {
    ck.error = "line " + std::to_string(lineno) + ": " + std::move(msg);
    return ck;
  };
  std::set<std::string> families_with_samples;
  std::size_t pos = 0;
  std::size_t lineno = 0;
  bool after_eof = false;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? std::string_view::npos
                                                      : nl - pos);
    pos = nl == std::string_view::npos ? text.size() : nl + 1;
    ++lineno;
    if (after_eof) return fail(lineno, "content after # EOF");
    if (line.empty()) return fail(lineno, "blank line");
    if (line[0] == '#') {
      if (line == "# EOF") {
        ck.eof = true;
        after_eof = true;
        continue;
      }
      const bool is_help = line.rfind("# HELP ", 0) == 0;
      const bool is_type = line.rfind("# TYPE ", 0) == 0;
      if (!is_help && !is_type) {
        return fail(lineno, "unrecognized comment line (expect HELP/TYPE/EOF)");
      }
      const std::string_view rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      if (sp == std::string_view::npos || sp == 0 || sp + 1 >= rest.size()) {
        return fail(lineno, "malformed HELP/TYPE line");
      }
      const std::string name(rest.substr(0, sp));
      if (!ValidMetricName(name)) {
        return fail(lineno, "invalid metric name '" + name + "'");
      }
      if (is_type) {
        const std::string type(rest.substr(sp + 1));
        if (type != "gauge" && type != "counter" && type != "info" &&
            type != "histogram" && type != "summary" && type != "unknown") {
          return fail(lineno, "unknown metric type '" + type + "'");
        }
        if (!ck.family_type.emplace(name, type).second) {
          return fail(lineno, "duplicate TYPE for family '" + name + "'");
        }
        if (families_with_samples.count(name) != 0) {
          return fail(lineno, "TYPE for '" + name + "' after its samples");
        }
        ++ck.families;
      }
      continue;
    }
    // Sample line: name[{labels}] value
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    const std::string name(line.substr(0, i));
    if (!ValidMetricName(name)) {
      return fail(lineno, "invalid sample metric name '" + name + "'");
    }
    std::string family = name;
    auto ft = ck.family_type.find(family);
    if (ft == ck.family_type.end() && name.size() > 6 &&
        name.compare(name.size() - 6, 6, "_total") == 0) {
      family = name.substr(0, name.size() - 6);
      ft = ck.family_type.find(family);
    }
    if (ft == ck.family_type.end()) {
      // Histogram sample names carry _bucket/_sum/_count suffixes.
      for (const std::string_view suf :
           {std::string_view("_bucket"), std::string_view("_sum"),
            std::string_view("_count")}) {
        if (name.size() <= suf.size() ||
            name.compare(name.size() - suf.size(), suf.size(), suf) != 0) {
          continue;
        }
        const std::string cand = name.substr(0, name.size() - suf.size());
        if (auto hf = ck.family_type.find(cand);
            hf != ck.family_type.end() && hf->second == "histogram") {
          family = cand;
          ft = hf;
        }
        break;
      }
    }
    if (ft == ck.family_type.end()) {
      return fail(lineno, "sample for undeclared family '" + name + "'");
    }
    if (ft->second == "counter" && name == family) {
      return fail(lineno, "counter sample '" + name + "' missing _total");
    }
    if (ft->second == "histogram" && name == family) {
      return fail(lineno,
                  "histogram sample '" + name + "' missing suffix");
    }
    if (ft->second != "counter" && ft->second != "histogram" &&
        name != family) {
      return fail(lineno,
                  "non-counter sample '" + name + "' uses _total suffix");
    }
    if (i < line.size() && line[i] == '{') {
      ++i;  // consume '{'
      bool first = true;
      while (true) {
        if (i >= line.size()) return fail(lineno, "unterminated label block");
        if (line[i] == '}') {
          ++i;
          break;
        }
        if (!first) {
          if (line[i] != ',') return fail(lineno, "expected ',' in labels");
          ++i;
        }
        first = false;
        std::size_t eq = i;
        while (eq < line.size() && line[eq] != '=') ++eq;
        if (eq >= line.size()) return fail(lineno, "label missing '='");
        const std::string lname(line.substr(i, eq - i));
        if (!ValidLabelName(lname)) {
          return fail(lineno, "invalid label name '" + lname + "'");
        }
        i = eq + 1;
        if (i >= line.size() || line[i] != '"') {
          return fail(lineno, "label value must be quoted");
        }
        ++i;
        bool closed = false;
        while (i < line.size()) {
          if (line[i] == '\\') {
            if (i + 1 >= line.size()) {
              return fail(lineno, "dangling escape in label value");
            }
            const char e = line[i + 1];
            if (e != '\\' && e != '"' && e != 'n') {
              return fail(lineno, std::string("illegal escape '\\") + e +
                                      "' in label value");
            }
            i += 2;
            continue;
          }
          if (line[i] == '"') {
            closed = true;
            ++i;
            break;
          }
          ++i;
        }
        if (!closed) return fail(lineno, "unterminated label value");
      }
    }
    if (i >= line.size() || line[i] != ' ') {
      return fail(lineno, "sample '" + name + "' missing value separator");
    }
    const std::string key(line.substr(0, i));
    const std::string value_str(line.substr(i + 1));
    if (value_str.empty() || value_str.find(' ') != std::string::npos) {
      return fail(lineno, "sample '" + name + "' has malformed value field");
    }
    char* end = nullptr;
    const double v = std::strtod(value_str.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(v)) {
      return fail(lineno, "sample '" + name + "' value not a finite number");
    }
    if (ft->second == "counter" && v < 0) {
      return fail(lineno, "counter '" + name + "' is negative");
    }
    if (!ck.values.emplace(key, v).second) {
      return fail(lineno, "duplicate sample '" + key + "'");
    }
    families_with_samples.insert(family);
    ++ck.samples;
  }
  if (!ck.eof) {
    ck.error = "payload does not end with # EOF";
    return ck;
  }
  if (ck.samples == 0) {
    ck.error = "payload contains no samples";
    return ck;
  }
  ck.ok = true;
  return ck;
}

util::Status CheckCounterMonotonic(const TelemetryCheck& prev,
                                   const TelemetryCheck& cur) {
  for (const auto& [key, prev_v] : prev.values) {
    const std::size_t brace = key.find('{');
    const std::string name =
        brace == std::string::npos ? key : key.substr(0, brace);
    if (name.size() <= 6 || name.compare(name.size() - 6, 6, "_total") != 0) {
      continue;
    }
    const std::string family = name.substr(0, name.size() - 6);
    const auto ft = prev.family_type.find(family);
    if (ft == prev.family_type.end() || ft->second != "counter") continue;
    const auto it = cur.values.find(key);
    if (it == cur.values.end()) {
      return util::InvalidArgument("counter disappeared between scrapes: " +
                                   key);
    }
    if (it->second < prev_v) {
      return util::InvalidArgument(
          "counter went backwards: " + key + " " + std::to_string(prev_v) +
          " -> " + std::to_string(it->second));
    }
  }
  return util::OkStatus();
}

}  // namespace ckpt::core
