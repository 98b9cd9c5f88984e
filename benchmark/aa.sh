#!/usr/bin/env bash
# A/A check: runs the suite's untraced pass twice on the same commit (sides A
# and B, alternating, each workload in a fresh process), compares every
# end-to-end metric on every workload against its bound in BENCHMARK.json,
# prints the table and exits non-zero on a breach. With `runs` > 1 each side
# is the median of that many runs, each with another seed.
#
#   aa.sh [runs-per-side=1] [first-seed=0x5EED]    (from the repository root)
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
runs="${1:-1}"
first="${2:-0x5EED}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
mkdir -p "$here/out"
out="$here/out/aa.jsonl"
: >"$out"
for workload in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    for i in $(seq 0 $((runs - 1))); do
        seed=$((first + i))
        # Alternate which side goes first, so drift favours neither.
        if ((i % 2)); then sides="B A"; else sides="A B"; fi
        for side in $sides; do
            result="$(bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
            echo "{\"workload\": \"$workload\", \"side\": \"$side\", \"seed\": $seed, \"result\": $result}" >>"$out"
            echo "# $workload $side seed $seed: $result" >&2
        done
    done
done
python3 - "$out" <<'PY'
import json, statistics, sys
bench = json.load(open("BENCHMARK.json"))
rows = [json.loads(l) for l in open(sys.argv[1])]
breach = False
print(f"{'workload':<12} {'metric':<12} {'A':>12} {'B':>12} {'B worse by':>11} {'bound':>6}")
for w in bench["workloads"]:
    for m in bench["end_to_end"]:
        side = lambda s: statistics.median(
            r["result"]["metrics"][m["name"]]["value"] for r in rows if r["workload"] == w["name"] and r["side"] == s)
        a, b = side("A"), side("B")
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        over = worse > m["bound"]
        breach |= over
        print(f"{w['name']:<12} {m['name']:<12} {a:12.4f} {b:12.4f} {worse:+11.2%} {m['bound']:6.0%}{' BREACH' if over else ''}")
failed = sum(r["result"]["failed"] for r in rows)
attempted = sum(r["result"]["attempted"] for r in rows)
print(f"failed_ratio: {failed} failed of {attempted} attempted over {len(rows)} runs")
sys.exit(1 if breach or failed else 0)
PY
