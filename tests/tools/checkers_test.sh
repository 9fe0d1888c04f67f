#!/bin/sh
# Runs one traced, sampled bench_fig5_wait row, then checks its trace with
# trace_check (structure, required span categories, lineage audit) and its
# end-of-run OpenMetrics scrape with telemetry_check. Two hand-written
# traces pin the audit's verdicts: an admitted object that never terminates
# fails it, unless a ring wrap dropped the evidence.
#
#   checkers_test.sh BENCH TRACE_CHECK TELEMETRY_CHECK OUT_DIR
#
# The watchdog's verdict is not checked: on a loaded machine a healthy run
# can still trip it, and the scrape validates either way.
set -eu
bench=$1
trace_check=$2
telemetry_check=$3
out=$4

rm -rf "$out"
mkdir -p "$out"
CKPT_BENCH_RANKS=2 CKPT_BENCH_CKPTS=16 \
  CKPT_TRACE=1 CKPT_TRACE_OUT="$out/trace.json" \
  CKPT_TELEMETRY=1 CKPT_TELEMETRY_PERIOD_MS=10 \
  CKPT_TELEMETRY_OUT="$out/telemetry" \
  "$bench" --benchmark_filter='fig5a/All hints, Score/sequential'
"$trace_check" "$out/trace.json" --audit --summary \
  --require lifecycle --require flush
"$telemetry_check" "$out/telemetry.openmetrics.txt" \
  --require ckpt_checkpoints --require ckpt_durability_lag_seconds

admit='{"name":"ckpt:admit","cat":"lifecycle","ph":"s","id":"0x1","pid":0,"tid":1,"ts":1,"args":{"tier":-1,"version":5,"bytes":8,"rank":0}}'
wrap='{"name":"trace:wrap","cat":"health","ph":"i","pid":0,"tid":1,"ts":0.5,"args":{"a":3}}'
printf '{"traceEvents":[%s]}\n' "$admit" > "$out/orphan.json"
printf '{"traceEvents":[%s,%s]}\n' "$wrap" "$admit" > "$out/wrapped.json"
rc=0
"$trace_check" "$out/orphan.json" --audit || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "checkers_test: orphan audit exited $rc, want 1" >&2
  exit 1
fi
"$trace_check" "$out/wrapped.json" --audit
