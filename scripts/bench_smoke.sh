#!/usr/bin/env bash
# Quick perf smoke: runs the batch_vs_scalar and ckpt_latency benches at
# reduced scale and collects their json rows into BENCH_batch.json and
# BENCH_ckpt.json. The batch bench is run in two builds — default (counters
# on) and `--features metrics-off` (counters compiled to no-ops) — with
# FASTER_BENCH_REPS interleaved repetitions each; the per-mode best of each
# build is compared and written to BENCH_metrics.json, failing if the
# default build's counter overhead exceeds FASTER_BENCH_MAX_OVERHEAD_PCT
# (default 5%).
#
# The wal_latency bench compares per-op fsync against group commit on the
# NVMe latency model into BENCH_wal.json, failing if group commit at 8
# sessions falls below FASTER_BENCH_WAL_MIN_RATIO (default 3x) times the
# per-op-fsync throughput at 8 sessions.
#
# The io_depth bench sweeps a single session's disk-resident read
# throughput over I/O depths 1/4/16/64 into BENCH_io.json, failing if the
# depth-64 : depth-1 speedup falls below FASTER_BENCH_IO_MIN_RATIO (default
# 8x, the completion-ring pipelining target) or depth-1 throughput falls
# below FASTER_BENCH_IO_DEPTH1_MIN_MOPS (default 0.01 Mops, the seed's
# single-outstanding-read floor — one ~20 us model read per op).
#
# The maint_selftune bench starts an undersized index with the background
# maintenance service enabled (no manual grow anywhere) into
# BENCH_maint.json, failing if the service never grew the index or the
# final measurement window's probe length exceeds
# FASTER_BENCH_MAINT_MAX_PROBE (default 2.0; the untuned seed read ~5.6).
#
# Knobs (forwarded to the benches): FASTER_BENCH_KEYS, FASTER_BENCH_BATCH,
# FASTER_BENCH_OPS (batch_vs_scalar); FASTER_BENCH_CKPT_KEYS,
# FASTER_BENCH_CKPT_GENS (ckpt_latency); FASTER_BENCH_IO_KEYS,
# FASTER_BENCH_IO_SECS (io_depth); FASTER_BENCH_WAL_SECS (wal_latency);
# FASTER_BENCH_MAINT_KEYS, FASTER_BENCH_MAINT_K_BITS,
# FASTER_BENCH_MAINT_SECS (maint_selftune).
# Outputs land in the repo root (override with BENCH_OUT=path /
# BENCH_CKPT_OUT=path / BENCH_METRICS_OUT=path / BENCH_IO_OUT=path /
# BENCH_WAL_OUT=path / BENCH_MAINT_OUT=path).
set -euo pipefail
cd "$(dirname "$0")/.."

export FASTER_BENCH_KEYS="${FASTER_BENCH_KEYS:-2000000}"
export FASTER_BENCH_BATCH="${FASTER_BENCH_BATCH:-64}"
export FASTER_BENCH_OPS="${FASTER_BENCH_OPS:-2000000}"
export FASTER_BENCH_CKPT_KEYS="${FASTER_BENCH_CKPT_KEYS:-50000}"
export FASTER_BENCH_CKPT_GENS="${FASTER_BENCH_CKPT_GENS:-4}"
REPS="${FASTER_BENCH_REPS:-3}"

LOG="$(mktemp)"
ABDIR="$(mktemp -d)"
trap 'rm -rf "$LOG" "$ABDIR"' EXIT

# Each `json,{...}` line is one measurement; emit a JSON array.
collect() {
  {
    echo '['
    grep '^json,' "$LOG" | sed 's/^json,//' | paste -sd ',' -
    echo ']'
  } > "$1"
  echo "wrote $1:"
  cat "$1"
}

# Resolve a bench executable path without running it.
bench_bin() { # args: extra cargo flags...
  cargo bench --bench batch_vs_scalar --no-run --message-format=json "$@" 2>/dev/null |
    python3 -c '
import json, sys
for line in sys.stdin:
    try:
        m = json.loads(line)
    except ValueError:
        continue
    if m.get("target", {}).get("name") == "batch_vs_scalar" and m.get("executable"):
        print(m["executable"])'
}

cargo bench --bench batch_vs_scalar 2>&1 | tee "$LOG"
collect "${BENCH_OUT:-BENCH_batch.json}"
cp "$LOG" "$ABDIR/default.1"

DEFAULT_BIN="$(bench_bin)"
OFF_BIN="$(bench_bin --features metrics-off)"
# Build the metrics-off variant (bench_bin only resolves the path).
cargo bench --bench batch_vs_scalar --features metrics-off --no-run

# Interleave the remaining reps so machine-load drift hits both builds alike.
"$OFF_BIN" > "$ABDIR/off.1" 2>&1
for r in $(seq 2 "$REPS"); do
  "$DEFAULT_BIN" > "$ABDIR/default.$r" 2>&1
  "$OFF_BIN" > "$ABDIR/off.$r" 2>&1
done

python3 - "$ABDIR" "$REPS" "${BENCH_METRICS_OUT:-BENCH_metrics.json}" <<'PY'
import json, os, sys

abdir, reps, out_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]

def best_of(build):
    """Per-mode best throughput across reps, plus the last metrics snapshot."""
    best, snapshot = {}, None
    for r in range(1, reps + 1):
        with open(os.path.join(abdir, f"{build}.{r}")) as f:
            for line in f:
                if not line.startswith("json,"):
                    continue
                row = json.loads(line[len("json,"):])
                if row.get("bench") != "batch_vs_scalar":
                    continue
                if row["mode"] == "metrics_snapshot":
                    snapshot = row
                else:
                    best[row["mode"]] = max(best.get(row["mode"], 0.0), row["mops"])
    return best, snapshot

on, snap = best_of("default")
off, _ = best_of("off")
limit = float(os.environ.get("FASTER_BENCH_MAX_OVERHEAD_PCT", "5"))
modes = {}
for mode in sorted(set(on) & set(off)):
    # Positive = the default (counters-on) build is slower than metrics-off.
    delta = max(0.0, (off[mode] - on[mode]) / off[mode] * 100.0)
    modes[mode] = {"mops_default": on[mode], "mops_off": off[mode],
                   "overhead_pct": round(delta, 3)}
if not modes:
    sys.exit("no overlapping measurement modes between default and metrics-off runs")
mean = sum(m["overhead_pct"] for m in modes.values()) / len(modes)
result = {
    "bench": "metrics_overhead",
    "reps": reps,
    "limit_pct": limit,
    "mean_overhead_pct": round(mean, 3),
    "modes": modes,
    "snapshot": (snap or {}).get("metrics"),
}
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
print(f"wrote {out_path}: mean counter overhead {mean:.2f}% (limit {limit}%, best of {reps})")
for mode, m in modes.items():
    print(f"  {mode:<14} default {m['mops_default']:.3f} Mops  off {m['mops_off']:.3f} Mops  overhead {m['overhead_pct']:.2f}%")
if mean > limit:
    sys.exit(f"metrics overhead {mean:.2f}% exceeds limit {limit}%")
PY

cargo bench --bench ckpt_latency 2>&1 | tee "$LOG"
collect "${BENCH_CKPT_OUT:-BENCH_ckpt.json}"

cargo bench --bench io_depth 2>&1 | tee "$LOG"
collect "${BENCH_IO_OUT:-BENCH_io.json}"

python3 - "${BENCH_IO_OUT:-BENCH_io.json}" <<'PY'
import json, os, sys

out_path = sys.argv[1]
rows = json.load(open(out_path))
by_depth = {r["depth"]: r["mops"] for r in rows
            if r.get("bench") == "io_depth" and "depth" in r}
min_ratio = float(os.environ.get("FASTER_BENCH_IO_MIN_RATIO", "8"))
floor = float(os.environ.get("FASTER_BENCH_IO_DEPTH1_MIN_MOPS", "0.01"))
d1, d64 = by_depth.get(1), by_depth.get(64)
if d1 is None or d64 is None:
    sys.exit("io_depth sweep is missing the depth-1 or depth-64 row")
ratio = d64 / d1
rows.append({"bench": "io_depth_summary", "depth1_mops": d1, "depth64_mops": d64,
             "ratio": round(ratio, 2), "min_ratio": min_ratio,
             "depth1_min_mops": floor})
with open(out_path, "w") as f:
    json.dump(rows, f, indent=2)
print(f"io_depth: depth1 {d1:.4f} Mops, depth64 {d64:.4f} Mops, "
      f"ratio {ratio:.2f}x (min {min_ratio}x, depth-1 floor {floor} Mops)")
if ratio < min_ratio:
    sys.exit(f"io-depth speedup {ratio:.2f}x below minimum {min_ratio}x")
if d1 < floor:
    sys.exit(f"depth-1 throughput {d1:.4f} Mops below floor {floor} Mops")
PY

cargo bench --bench wal_latency 2>&1 | tee "$LOG"
collect "${BENCH_WAL_OUT:-BENCH_wal.json}"

python3 - "${BENCH_WAL_OUT:-BENCH_wal.json}" <<'PY'
import json, os, sys

out_path = sys.argv[1]
rows = json.load(open(out_path))
kops = {(r["mode"], r["sessions"], r["window_us"]): r["kops"] for r in rows
        if r.get("bench") == "wal_latency" and "mode" in r}
min_ratio = float(os.environ.get("FASTER_BENCH_WAL_MIN_RATIO", "3"))
per_op, group = kops.get(("per_op", 8, 0)), kops.get(("group", 8, 0))
if per_op is None or group is None:
    sys.exit("wal_latency sweep is missing the 8-session per_op or group row")
ratio = group / per_op
rows.append({"bench": "wal_latency_summary", "per_op_8_kops": per_op,
             "group_8_kops": group, "ratio": round(ratio, 2),
             "min_ratio": min_ratio})
with open(out_path, "w") as f:
    json.dump(rows, f, indent=2)
print(f"wal_latency: per-op fsync {per_op:.1f} Kops, group commit {group:.1f} Kops "
      f"at 8 sessions, ratio {ratio:.2f}x (min {min_ratio}x)")
if ratio < min_ratio:
    sys.exit(f"group-commit speedup {ratio:.2f}x below minimum {min_ratio}x")
PY

cargo bench --bench maint_selftune 2>&1 | tee "$LOG"
collect "${BENCH_MAINT_OUT:-BENCH_maint.json}"

python3 - "${BENCH_MAINT_OUT:-BENCH_maint.json}" <<'PY'
import json, os, sys

out_path = sys.argv[1]
rows = json.load(open(out_path))
row = next((r for r in rows if r.get("bench") == "maint_selftune"), None)
if row is None:
    sys.exit("maint_selftune emitted no json row")
max_probe = float(os.environ.get("FASTER_BENCH_MAINT_MAX_PROBE", "2.0"))
probe, grows = row["probe_len_final"], row["grows"]
rows.append({"bench": "maint_selftune_summary", "probe_len_final": probe,
             "grows": grows, "max_probe": max_probe})
with open(out_path, "w") as f:
    json.dump(rows, f, indent=2)
print(f"maint_selftune: index 2^{row['k_bits_start']} -> 2^{row['k_bits_final']} "
      f"({grows} policy grows), final-window probe len {probe:.2f} "
      f"(start {row['probe_len_start']:.2f}, max {max_probe})")
if grows < 1:
    sys.exit("maintenance service never grew the undersized index")
if probe > max_probe:
    sys.exit(f"self-tuned probe length {probe:.2f} exceeds gate {max_probe}")
PY
