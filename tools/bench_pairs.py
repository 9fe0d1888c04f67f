#!/usr/bin/env python3
"""Run alternating parent/change perfbench pairs and append one trajectory entry.

    python3 tools/bench_pairs.py --pairs 10 --seconds 40 --seed 1

The change is this checkout as it stands, built in place. The parent
(--parent, default HEAD when tracked files have uncommitted changes and
HEAD~1 otherwise) is exported with `git archive` into the work directory
and built there. Each side builds into its own CARGO_TARGET_DIR under the
work directory, so the two builds never share objects.

Every pair runs each workload once per side through perfbench/run.py,
alternating which side goes first. The workloads, the end-to-end metrics,
their direction and their bounds, and the default run length are read from
BENCHMARK.json. One entry is appended to BENCH_perfbench.json at the root
of the checkout: the commit, the parent, the run settings and, per
workload and metric, both sides' median and quartiles (inclusive method),
every run's value, the pairs the change won (ties count for neither side)
and every run's `correct`/`failed`. Values are rounded to four decimals.
Progress goes to standard error.

Standard library only.
"""
import argparse
import datetime
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export_parent(rev, dest):
    """Writes the tree of `rev` into `dest` (replacing an older export)."""
    stamp = os.path.join(dest, ".exported_rev")
    if os.path.exists(stamp) and open(stamp).read() == rev:
        return
    subprocess.run(["rm", "-rf", dest], check=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"bench_pairs: git archive {rev} failed")
    with open(stamp, "w") as f:
        f.write(rev)


def run_once(src, target, workload, seed, seconds):
    """One perfbench/run.py call; returns its result object, or a failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(
        [sys.executable, os.path.join(src, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=src, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None:
        sys.stderr.write(proc.stderr[-2000:])
        return {"correct": False, "failed": None, "exit": proc.returncode,
                "metrics": {}}
    return result


def summarize(values):
    if not values:
        return {"median": None, "q1": None, "q3": None, "runs": values}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--parent", default=None,
                        help="parent revision (default: see above)")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="run only this workload (repeatable)")
    parser.add_argument("--work-dir",
                        default=os.path.join(ROOT, ".bench_build", "pairs"),
                        help="parent export and both build trees")
    parser.add_argument("--out",
                        default=os.path.join(ROOT, "BENCH_perfbench.json"))
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    dirty = git("status", "--porcelain", "--untracked-files=no") != ""
    parent = git("rev-parse", args.parent or ("HEAD" if dirty else "HEAD~1"))
    commit = git("rev-parse", "HEAD") + ("-dirty" if dirty else "")
    work = os.path.abspath(args.work_dir)
    parent_src = os.path.join(work, "parent-src")
    export_parent(parent, parent_src)
    src = {"parent": parent_src, "change": ROOT}
    target = {side: os.path.join(work, side) for side in SIDES}
    chosen = args.workload or workloads

    # Build both sides (and warm them) before anything is measured.
    for side in SIDES:
        print(f"bench_pairs: building {side}", file=sys.stderr)
        warm = run_once(src[side], target[side], chosen[0], args.seed, 1)
        if not warm.get("correct"):
            sys.exit(f"bench_pairs: {side} does not build or run")

    runs = {w: {side: [] for side in SIDES} for w in chosen}
    for p in range(args.pairs):
        order = SIDES if p % 2 == 0 else SIDES[::-1]
        for w in chosen:
            for side in order:
                r = run_once(src[side], target[side], w, args.seed,
                             args.seconds)
                runs[w][side].append(r)
                shown = {k: round(v["value"], 3)
                         for k, v in r["metrics"].items()
                         if k in ("shot_s", "peak_rss_mb")}
                print(f"bench_pairs: pair {p + 1}/{args.pairs} {w} {side}: "
                      f"correct={r.get('correct')} {shown}", file=sys.stderr)

    entry = {
        "commit": commit,
        "parent": parent,
        "date": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seed": args.seed,
        "cpus": os.cpu_count(),
        "workloads": {},
    }
    for w in chosen:
        block = {"runs": {side: {key: [r.get(key) for r in runs[w][side]]
                                 for key in ("correct", "failed")}
                          for side in SIDES},
                 "metrics": {}}
        for m in bench["end_to_end"]:
            name = m["name"]
            vals = {side: [r["metrics"].get(name, {}).get("value")
                           for r in runs[w][side]] for side in SIDES}
            vals = {side: [None if v is None else round(v, 4) for v in vs]
                    for side, vs in vals.items()}
            wins = 0
            for a, b in zip(vals["parent"], vals["change"]):
                if a is None or b is None or a == b:
                    continue
                wins += (b < a) == (m["better"] == "lower")
            block["metrics"][name] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "change_wins": wins,
                **{side: summarize([v for v in vals[side] if v is not None])
                   for side in SIDES},
            }
        entry["workloads"][w] = block

    trajectory = []
    if os.path.exists(args.out):
        with open(args.out) as f:
            trajectory = json.load(f)
    trajectory.append(entry)
    # Lists of scalars go on one line each, so an entry stays readable.
    text = re.sub(r"\[[^\[\]{}]*\]", lambda m: " ".join(m.group(0).split()),
                  json.dumps(trajectory, indent=1))
    with open(args.out, "w") as f:
        f.write(text + "\n")
    for w, block in entry["workloads"].items():
        for name, m in block["metrics"].items():
            print(f"{w:16s} {name:20s} parent {m['parent']['median']} "
                  f"change {m['change']['median']} "
                  f"wins {m['change_wins']}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
