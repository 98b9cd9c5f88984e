#!/usr/bin/env bash
# Steadiness check, as the driver does it: run every workload ten times, each
# time with another seed, and for each end-to-end metric print the distance
# between the first and third quartile of its ten values as a share of their
# median, next to the metric's bound in BENCHMARK.json. Exits non-zero when a
# spread (setup_s excepted) exceeds its bound.
#
#   spread.sh [first-seed]      (from the root of the repository)
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
first="${1:-1}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
mkdir -p "$here/out"
out="$here/out/spread.jsonl"
: >"$out"
for workload in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    for i in $(seq 0 9); do
        seed=$((first + i))
        result="$(bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
        echo "{\"workload\": \"$workload\", \"seed\": $seed, \"result\": $result}" >>"$out"
        echo "# $workload seed $seed: $result" >&2
    done
done
python3 - "$out" <<'PY'
import json, statistics, sys
bench = json.load(open("BENCHMARK.json"))
rows = [json.loads(l) for l in open(sys.argv[1])]
bad = [r for r in rows if not r["result"]["correct"]]
breach = bool(bad)
print(f"{'workload':<12} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
for w in bench["workloads"]:
    for m in bench["end_to_end"]:
        vals = [r["result"]["metrics"][m["name"]]["value"] for r in rows if r["workload"] == w["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        over = spread > m["bound"] and m["name"] != "setup_s"
        breach |= over
        flag = " OVER" if over else (" (> bound/3)" if spread > m["bound"] / 3 else "")
        print(f"{w['name']:<12} {m['name']:<12} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.2%} {m['bound']:6.0%}{flag}")
for r in bad:
    print(f"INCORRECT: {r['workload']} seed {r['seed']}: {r['result']['failed']} failed")
sys.exit(1 if breach else 0)
PY
