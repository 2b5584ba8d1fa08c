#!/usr/bin/env bash
# SIMD speedup gate.
#
# Runs the kernel microbenchmark's scalar/_simd pairs with repetitions and
# holds each median speedup (scalar / _simd) against the committed floor in
# ci/bench_floor.json, with 10% slack for machine noise.  A failure means a
# vectorized kernel regressed toward its scalar twin — the clean lane would
# still be correct (byte-identity is the equivalence suite's job) but the
# perf contract of the SIMD lane would be silently gone.
#
# On hosts whose detected SIMD level is scalar the pairs measure the same
# code twice, so the gate reports neutral and passes.
#
# The gating floor rides the same script: gate_realtime --quick reports
# each gate level's speedup against the --gate=off baseline measured in
# the same process (so machine noise cancels out of the ratio), and the
# gate_floors entry in ci/bench_floor.json pins the Input2 --gate=all
# speedup — the subsystem's headline real-time claim.
#
# Usage: ci/check_bench_gate.sh [path/to/kernel_microbench] [path/to/gate_realtime]
set -euo pipefail

bench_bin="${1:-build/bench/kernel_microbench}"
gate_bin="${2:-build/bench/gate_realtime}"
floor_json="$(dirname "$0")/bench_floor.json"

if [[ ! -x "$bench_bin" ]]; then
  echo "error: benchmark binary not found at $bench_bin" >&2
  exit 2
fi
if [[ ! -x "$gate_bin" ]]; then
  echo "error: gate benchmark binary not found at $gate_bin" >&2
  exit 2
fi

out_json="$(mktemp)"
trap 'rm -f "$out_json"' EXIT

"$bench_bin" \
  --benchmark_filter='bm_(fast_detect|orb_extract|match_descriptors|warp_perspective|resize_bilinear|blend_feather)(_simd)?$' \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  --benchmark_out="$out_json" \
  --benchmark_out_format=json >/dev/null

python3 - "$out_json" "$floor_json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
with open(sys.argv[2]) as f:
    floors = json.load(f)["floors"]

detected = report.get("context", {}).get("simd_detected", "unknown")
if detected == "scalar":
    print("bench gate: host is scalar-only, _simd pairs are twins -- neutral pass")
    sys.exit(0)

medians = {
    bench["name"]: bench["real_time"]
    for bench in report["benchmarks"]
    if bench.get("aggregate_name") == "median"
}

failures = []
for name, floor in floors.items():
    scalar = medians.get(f"{name}_median")
    simd = medians.get(f"{name}_simd_median")
    if scalar is None or simd is None:
        failures.append(f"{name}: missing median (scalar={scalar}, simd={simd})")
        continue
    speedup = scalar / simd
    allowed = floor * 0.9  # 10% slack for machine noise
    status = "ok" if speedup >= allowed else "FAIL"
    print(f"{name}: scalar {scalar:10.0f} ns  simd {simd:10.0f} ns  "
          f"speedup {speedup:5.2f}x  floor {floor:.2f}x (>= {allowed:.2f}x)  {status}")
    if speedup < allowed:
        failures.append(
            f"{name}: speedup {speedup:.2f}x below floor {floor:.2f}x - 10%")

if failures:
    print()
    for f in failures:
        print(f"bench gate FAIL: {f}")
    sys.exit(1)
print(f"\nbench gate: all SIMD speedups hold their floors (simd={detected})")
EOF

# --- gating floor: end-to-end speedup of --gate=all on Input2 ------------
gate_dir="$(mktemp -d)"
trap 'rm -f "$out_json"; rm -rf "$gate_dir"' EXIT

"$gate_bin" --quick --out-dir="$gate_dir" >/dev/null

python3 - "$gate_dir/BENCH_gate.json" "$floor_json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
with open(sys.argv[2]) as f:
    gate_floors = json.load(f).get("gate_floors", {})

failures = []
for key, floor in gate_floors.items():
    input_name, level, _ = key.split("_")
    row = next(
        (r for r in report["runs"]
         if r["input"] == input_name and r["gate"] == level),
        None,
    )
    if row is None:
        failures.append(f"{key}: no {input_name}/{level} row in the sweep")
        continue
    speedup = row["speedup_vs_off"]
    allowed = floor * 0.9  # same 10% noise slack as the SIMD floors
    status = "ok" if speedup >= allowed else "FAIL"
    print(f"gate {input_name} --gate={level}: speedup {speedup:5.2f}x  "
          f"floor {floor:.2f}x (>= {allowed:.2f}x)  {status}  "
          f"[quality rel. L2 {row['quality_rel_l2']:.2f}, "
          f"egregious={row['egregious']}]")
    if speedup < allowed:
        failures.append(
            f"{key}: speedup {speedup:.2f}x below floor {floor:.2f}x - 10%")
    if row["egregious"]:
        failures.append(
            f"{key}: gated output is egregiously degraded "
            f"(rel. L2 {row['quality_rel_l2']:.2f})")

if failures:
    print()
    for f in failures:
        print(f"bench gate FAIL: {f}")
    sys.exit(1)
print("\nbench gate: gating speedup holds its floor with non-egregious quality")
EOF
