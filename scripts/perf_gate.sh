#!/usr/bin/env bash
# Perf gate: compare the gated lines of a fresh `BENCH_JSON` run against
# the committed trajectory (BENCH_throughput.json) and fail on
# regressions.
#
#   scripts/perf_gate.sh FRESH.json [COMMITTED.json]
#
# A line is gated on one of two fields:
#
#   "speedup"  higher is better; fails below `PERF_GATE_TOLERANCE ×
#              committed`;
#   "cost"     lower is better; fails above `committed / PERF_GATE_TOLERANCE`.
#
# Each fresh line is matched by `"name"` against the *last* committed line
# of the same name carrying the same field (the trajectory is
# append-only, so the last line is the current baseline). The default
# tolerance 0.8 allows a 20 % regression on a speedup and a 25 % rise in
# a cost. Names with no committed baseline are reported and skipped so new
# benches can land before their first trajectory entry.
#
# Only the gated field is compared — absolute req/s and median_ns vary
# with the runner — and the comparison is one-sided: better than the
# committed baseline always passes.
set -euo pipefail

fresh="${1:?usage: scripts/perf_gate.sh FRESH.json [COMMITTED.json]}"
committed="${2:-$(dirname "$0")/../BENCH_throughput.json}"
tolerance="${PERF_GATE_TOLERANCE:-0.8}"

[ -r "$fresh" ] || { echo "perf gate: cannot read fresh results: $fresh" >&2; exit 2; }
[ -r "$committed" ] || { echo "perf gate: cannot read committed trajectory: $committed" >&2; exit 2; }

field_of() { sed -n "s/.*\"$1\":\([0-9.eE+-]*\).*/\1/p" <<<"$2"; }

status=0
checked=0
while IFS= read -r line; do
    name=$(sed -n 's/.*"name":"\([^"]*\)".*/\1/p' <<<"$line")
    if [[ "$line" == *'"speedup":'* ]]; then
        field=speedup unit=x better=higher
    else
        field=cost unit="" better=lower
    fi
    new=$(field_of "$field" "$line")
    [ -n "$name" ] && [ -n "$new" ] || continue
    base_line=$(grep -F "\"name\":\"$name\"" "$committed" | grep "\"$field\":" | tail -n 1 || true)
    if [ -z "$base_line" ]; then
        echo "perf gate: $name $field = ${new}${unit} — no committed baseline, skipping"
        continue
    fi
    base=$(field_of "$field" "$base_line")
    checked=$((checked + 1))
    if awk -v n="$new" -v b="$base" -v t="$tolerance" -v better="$better" \
        'BEGIN { exit !(better == "higher" ? n + 0 >= b * t : n * t <= b + 0) }'; then
        echo "perf gate: $name $field = ${new}${unit} — ok (committed ${base}${unit}, tolerance ${tolerance})"
    else
        echo "perf gate: $name $field = ${new}${unit} — REGRESSION against committed ${base}${unit} (tolerance ${tolerance}, ${better} is better)" >&2
        status=1
    fi
done < <(grep -E '"(speedup|cost)":' "$fresh")

if [ "$checked" -eq 0 ]; then
    echo "perf gate: no gated lines in $fresh matched the committed trajectory" >&2
    exit 2
fi
exit $status
