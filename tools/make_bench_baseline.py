#!/usr/bin/env python3
"""Merge before/after bench reports into a BENCH_<name>.json baseline.

The perf trajectory (ROADMAP) is a series of BENCH_*.json files at the
repo root, one per PR that claims a performance effect. Each file pairs
a "before" and an "after" sweep of the same bench commands and distills
the hot-path metrics the PR is gating on, so reviewers (and later PRs)
can diff the numbers without rerunning anything.

Usage:
  tools/make_bench_baseline.py --pr 6 \
      --label before=/tmp/bench_before --label after=/tmp/bench_after \
      --out BENCH_hotpath.json

Each labeled directory may contain:
  micro.json         google-benchmark --benchmark_out format
  fig9_*.json        CKPT_BENCH_REPORT run reports (rows + metrics)
Missing files are skipped with a note, so partial sweeps still merge.
"""

import argparse
import json
import os
import sys


def _load(path):
    with open(path) as f:
        return json.load(f)


def _agg(ranks, key):
    """Sum a per-rank scalar or histogram-summary 'sum' across ranks."""
    total = 0.0
    for rk in ranks:
        v = rk.get(key)
        if isinstance(v, dict):
            total += float(v.get("sum", 0.0))
        elif v is not None:
            total += float(v)
    return total


def summarize_run_report(report):
    """One entry per bench row: throughputs plus the contention metrics."""
    rows = []
    for row in report.get("rows", []):
        ranks = row.get("metrics", {}).get("ranks", [])
        entry = {
            "config": row.get("config"),
            "variant": row.get("variant"),
            "ckpt_MBps": row.get("ckpt_MBps"),
            "restore_MBps": row.get("restore_MBps"),
            "wall_s": row.get("wall_s"),
        }
        if ranks:
            entry["hotpath"] = {
                "reserve_wait_write_s": _agg(ranks, "reserve_wait_write_s"),
                "reserve_wait_prefetch_s": _agg(ranks, "reserve_wait_prefetch_s"),
                "ckpt_block_s": _agg(ranks, "ckpt_block_s"),
                "restore_block_s": _agg(ranks, "restore_block_s"),
                "reserve_rounds": _agg(ranks, "reserve_rounds"),
                "reserve_plans_stale": _agg(ranks, "reserve_plans_stale"),
            }
        # Lineage ledger (PR 10): conservation counters plus per-durable-tier
        # durability-lag percentiles (put -> that tier's ack, seconds).
        merged = row.get("metrics", {}).get("merged", {})
        lineage = merged.get("lineage")
        if lineage:
            entry["lineage"] = lineage
            lag = merged.get("durability_lag_s", {})
            if lag:
                entry["durability_lag_s"] = {
                    tier: {
                        "total": h.get("total"),
                        "p50": h.get("p50"),
                        "p95": h.get("p95"),
                    }
                    for tier, h in lag.items()
                }
        # Remote/aggregating terminal tiers (PR 9): per-tier store counters.
        # The aggregation factor a PR gates on is member_puts / remote_puts.
        remote = row.get("metrics", {}).get("remote_tiers", [])
        if remote:
            entry["remote"] = [
                {
                    "tier": t.get("name"),
                    "remote_puts": t.get("remote_puts"),
                    "remote_parts": t.get("remote_parts"),
                    "remote_part_retries": t.get("remote_part_retries"),
                    "remote_put_bytes": t.get("remote_put_bytes"),
                    "agg_member_puts": t.get("agg_member_puts"),
                    "agg_group_puts": t.get("agg_group_puts"),
                    "agg_size_flushes": t.get("agg_size_flushes"),
                    "agg_deadline_flushes": t.get("agg_deadline_flushes"),
                    "agg_gets_from_pending": t.get("agg_gets_from_pending"),
                }
                for t in remote
            ]
        rows.append(entry)
    return rows


def summarize_micro(report):
    """name -> real_time (ns unless the bench says otherwise)."""
    out = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        out[b["name"]] = {
            "real_time": b.get("real_time"),
            "time_unit": b.get("time_unit", "ns"),
        }
    return out


def summarize_dir(path):
    summary = {}
    micro = os.path.join(path, "micro.json")
    if os.path.exists(micro):
        summary["micro"] = summarize_micro(_load(micro))
    else:
        print(f"note: {micro} missing, skipped", file=sys.stderr)
    for name in sorted(os.listdir(path)):
        if name.startswith("fig") and name.endswith(".json"):
            key = name[: -len(".json")]
            summary[key] = summarize_run_report(_load(os.path.join(path, name)))
    if not summary:
        raise SystemExit(f"error: no bench reports found in {path}")
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument(
        "--label",
        action="append",
        required=True,
        metavar="NAME=DIR",
        help="labeled report directory, e.g. before=/tmp/bench_before",
    )
    ap.add_argument("--note", default="", help="free-form context line")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    doc = {"pr": args.pr}
    if args.note:
        doc["note"] = args.note
    for spec in args.label:
        name, _, path = spec.partition("=")
        if not path:
            ap.error(f"--label must be NAME=DIR, got {spec!r}")
        doc[name] = summarize_dir(path)

    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
