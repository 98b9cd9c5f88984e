#!/usr/bin/env bash
# The benchmark's front door. Builds the harness (release), then either
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       runs one workload once and prints the result object as the last line
#       of its output (this is what BENCHMARK.json's `command` invokes), or
#
#   run.sh [--seed <n>] [--seconds <s>] [--trace]
#       runs the whole suite, every workload in a fresh process: the untraced
#       pass (end-to-end metrics), then the traced pass (per-layer metrics
#       and span files); `--trace` runs the traced pass alone. Every metric
#       is printed by name with its unit and the result objects are collected
#       in benchmark/out/results.json.
#
# Run it from the root of the repository. It reads and writes only there.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/faster-benchmark"

for arg in "$@"; do
    if [[ "$arg" == --workload ]]; then
        exec "$bin" "$@"
    fi
done

seed=0x5EED
seconds=12
passes="0 1"
while (($#)); do
    case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) passes="1"; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

mkdir -p "$here/out"
results="$here/out/results.json"
rows=()
status=0
for trace in $passes; do
    for workload in $("$bin" --list); do
        log="$here/out/$workload.trace$trace.log"
        "$bin" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" | tee "$log" | sed '/^{/d'
        result="$(tail -n 1 "$log")"
        [[ "$result" == '{"correct": true,'* ]] || status=1
        rows+=("{\"workload\": \"$workload\", \"trace\": $trace, \"result\": $result}")
    done
done
{
    printf '{"seed": "%s", "seconds": %s, "runs": [\n' "$seed" "$seconds"
    for i in "${!rows[@]}"; do
        printf '  %s%s\n' "${rows[$i]}" "$([[ $i -lt $((${#rows[@]} - 1)) ]] && echo ,)"
    done
    printf ']}\n'
} >"$results"
echo "# results: $results"
exit $status
