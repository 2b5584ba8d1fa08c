#!/usr/bin/env bash
# Speed gates: the SIMD kernel floors and the end-to-end gating floor.
#
# Each gate holds a median speedup against its committed floor in
# ci/bench_floor.json, with the noise slack taken from the measured spread:
# a ratio fails when median < floor - min(median - p10, 10% of floor), so
# the slack is never looser than a fixed 10%.  Order statistics are
# nearest-rank, as vs::perf::percentile computes them.  Both binaries run
# at VS_THREADS=1, so the ratios time the code they name rather than the
# pool's fork-join dispatch.
#
# SIMD: kernel_microbench's scalar/_simd pairs at its default repetition
# count; repetition i of a scalar kernel is paired with repetition i of its
# _simd twin.  A failure means a vectorized kernel regressed toward its
# scalar twin (byte identity is the equivalence suite's job).  On hosts
# whose detected SIMD level is scalar the pairs measure the same code
# twice, so this part reports neutral and passes.
#
# Gating: gate_realtime --quick times --gate=off and each level as
# interleaved pairs over pre-rendered frames (gating cannot skip
# acquisition).  The gate_floors entry pins Input2's --gate=all
# speedup_vs_off row, and that level's montage must not be egregiously
# degraded.
#
# Usage: ci/check_bench_gate.sh [path/to/kernel_microbench] [path/to/gate_realtime]
set -euo pipefail

bench_bin="${1:-build/bench/kernel_microbench}"
gate_bin="${2:-build/bench/gate_realtime}"
floor_json="$(dirname "$0")/bench_floor.json"

for bin in "$bench_bin" "$gate_bin"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: benchmark binary not found at $bin" >&2
    exit 2
  fi
done

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
export VS_THREADS=1

"$bench_bin" \
  --benchmark_filter='bm_(fast_detect|orb_extract|match_descriptors|warp_perspective|blend_feather)(_simd)?$' \
  --benchmark_out="$work/kernels.json" \
  --benchmark_out_format=json >/dev/null
"$gate_bin" --quick --out-dir="$work" >/dev/null

python3 - "$work/kernels.json" "$work/BENCH_gate.json" "$floor_json" <<'EOF'
import json
import math
import sys

with open(sys.argv[1]) as f:
    kernels = json.load(f)
with open(sys.argv[2]) as f:
    gate = json.load(f)
with open(sys.argv[3]) as f:
    floors = json.load(f)

def percentile(samples, q):
    s = sorted(samples)
    return s[min(len(s), max(1, math.ceil(q * len(s)))) - 1]

failures = []

def hold(label, median, p10, floor):
    slack = min(median - p10, 0.1 * floor)
    ok = median >= floor - slack
    print(f"{label}: median {median:5.2f}x  p10 {p10:5.2f}x  "
          f"floor {floor:.2f}x (>= {floor - slack:.2f}x)  "
          f"{'ok' if ok else 'FAIL'}")
    if not ok:
        failures.append(f"{label}: median {median:.2f}x below floor "
                        f"{floor:.2f}x - spread {slack:.2f}")

# --- SIMD floors: paired repetitions, scalar / _simd ---------------------
detected = kernels.get("context", {}).get("simd_detected", "unknown")
if detected == "scalar":
    print("SIMD: host is scalar-only, _simd pairs are twins -- neutral pass")
else:
    reps = {}
    for bench in kernels["benchmarks"]:
        if bench.get("run_type") == "iteration":
            reps.setdefault(bench["run_name"], []).append(bench["real_time"])
    for name, floor in floors["floors"].items():
        scalar, simd = reps.get(name, []), reps.get(f"{name}_simd", [])
        if not scalar or len(scalar) != len(simd):
            failures.append(f"{name}: unpaired repetitions "
                            f"({len(scalar)} scalar, {len(simd)} simd)")
            continue
        ratios = [a / b for a, b in zip(scalar, simd)]
        hold(f"{name} (n={len(ratios)}, simd={detected})",
             percentile(ratios, 0.5), percentile(ratios, 0.1), floor)

# --- gating floor: paired off/level rounds over pre-rendered frames ------
rows = {tuple(sorted(r["params"].items())): r for r in gate["rows"]}
for key, floor in floors["gate_floors"].items():
    input_name, level, _ = key.split("_")
    pick = lambda metric: rows.get(tuple(sorted(
        {"input": input_name, "gate": level, "metric": metric}.items())))
    speedup, quality, egregious = (
        pick("speedup_vs_off"), pick("quality_rel_l2"), pick("egregious"))
    if not (speedup and quality and egregious):
        failures.append(f"{key}: no {input_name}/{level} rows in the sweep")
        continue
    hold(f"gate {input_name} --gate={level} (n={speedup['n']}, "
         f"rel. L2 {quality['median']:.2f})",
         speedup["median"], speedup["p10"], floor)
    if egregious["median"]:
        failures.append(f"{key}: gated output is egregiously degraded "
                        f"(rel. L2 {quality['median']:.2f})")

if failures:
    print()
    for f in failures:
        print(f"bench gate FAIL: {f}")
    sys.exit(1)
print("\nbench gate: every speedup holds its floor within its measured spread")
EOF
