#!/usr/bin/env bash
# Campaign bit-identity gate.
#
# Runs the reference injection campaign
# (`vs inject input1 gpr 120 VS --frames=10`) three ways — in this
# process, under the supervisor with one forked worker, and under the
# supervisor with four — and compares the four outcome rates of each
# against ci/golden_campaign.txt.  The instrumented lane addresses fault
# sites by dynamic-op index, so the distribution is a fingerprint of the
# whole hook stream: it only matches if every rt:: hook still fires in the
# same order with the same count.  The supervised runs additionally pin
# the sharding determinism contract: the merged distribution must be
# bit-identical at any job count.
#
# The hardened matrix extends the gate along the selective-replication
# axis: `--harden --replicate={off,geometry,all}` at level full must match
# ci/golden_campaign_hardened.txt — including that all-stage replication
# holds the SDC rate at zero.  The unhardened distribution stays pinned to
# ci/golden_campaign.txt unchanged: the hardening stack must be inert when
# off.
#
# The gating axis (src/gate/) adds two rows: a forced `vs --gate=off` run
# must reproduce ci/golden_campaign.txt bit-identically (a disarmed gate
# contributes nothing to the hook stream), and `vs --gate=all` must match
# its own golden, ci/golden_campaign_gate_all.txt (the gated workload's
# distinct hook-stream fingerprint).
#
# Usage: ci/check_campaign_gate.sh [path/to/vs]
set -euo pipefail

vs_bin="${1:-build/tools/vs}"
golden="$(dirname "$0")/golden_campaign.txt"
golden_hardened="$(dirname "$0")/golden_campaign_hardened.txt"
golden_gate_all="$(dirname "$0")/golden_campaign_gate_all.txt"

if [[ ! -x "$vs_bin" ]]; then
  echo "error: vs binary not found at $vs_bin" >&2
  exit 2
fi

expected="$(grep -v '^#' "$golden")"
fail=0

# The reference campaign.  vs reads its global --gate=LEVEL flag at any
# position, so the gating rows append it like any other option.
campaign() {
  "$vs_bin" inject input1 gpr 120 VS --frames=10 "$@"
}

check_variant() {
  local label="$1"
  shift
  local out
  out="$(campaign "$@")"
  echo "$out"
  echo

  local actual
  actual="$(echo "$out" | awk '
    /^  masked/ { printf "masked %s\n", substr($2, 1, length($2)-1) }
    /^  crash/  { printf "crash %s\n",  substr($2, 1, length($2)-1) }
    /^  sdc/    { printf "sdc %s\n",    substr($2, 1, length($2)-1) }
    /^  hang/   { printf "hang %s\n",   substr($2, 1, length($2)-1) }')"

  if [[ "$actual" == "$expected" ]]; then
    echo "campaign gate [$label]: PASS (distribution matches $golden)"
  else
    echo "campaign gate [$label]: FAIL — distribution diverged from golden" >&2
    echo "--- expected ($golden)" >&2
    echo "$expected" >&2
    echo "--- actual" >&2
    echo "$actual" >&2
    fail=1
  fi
}

check_hardened() {
  local rep="$1"
  local out
  out="$(campaign --harden --replicate="$rep")"
  echo "$out"
  echo

  local actual expected_rep
  actual="$(echo "$out" | awk -v rep="$rep" '
    /^  masked/          { printf "%s masked %s\n", rep, substr($2, 1, length($2)-1) }
    /^  crash/           { printf "%s crash %s\n",  rep, substr($2, 1, length($2)-1) }
    /^  sdc/             { printf "%s sdc %s\n",    rep, substr($2, 1, length($2)-1) }
    /^  hang/            { printf "%s hang %s\n",   rep, substr($2, 1, length($2)-1) }
    /^  detected\(rec\)/ { printf "%s detected_rec %s\n", rep, substr($2, 1, length($2)-1) }
    /^  detected\(deg\)/ { printf "%s detected_deg %s\n", rep, substr($2, 1, length($2)-1) }')"
  expected_rep="$(grep -v '^#' "$golden_hardened" | grep "^$rep ")"

  if [[ "$actual" == "$expected_rep" ]]; then
    echo "campaign gate [hardened replicate=$rep]: PASS"
  else
    echo "campaign gate [hardened replicate=$rep]: FAIL — diverged from golden" >&2
    echo "--- expected ($golden_hardened)" >&2
    echo "$expected_rep" >&2
    echo "--- actual" >&2
    echo "$actual" >&2
    fail=1
  fi
}

check_gate_all() {
  local out
  out="$(campaign --gate=all)"
  echo "$out"
  echo

  local actual expected_gated
  actual="$(echo "$out" | awk '
    /^  masked/ { printf "masked %s\n", substr($2, 1, length($2)-1) }
    /^  crash/  { printf "crash %s\n",  substr($2, 1, length($2)-1) }
    /^  sdc/    { printf "sdc %s\n",    substr($2, 1, length($2)-1) }
    /^  hang/   { printf "hang %s\n",   substr($2, 1, length($2)-1) }')"
  expected_gated="$(grep -v '^#' "$golden_gate_all")"

  if [[ "$actual" == "$expected_gated" ]]; then
    echo "campaign gate [gate=all]: PASS (distribution matches $golden_gate_all)"
  else
    echo "campaign gate [gate=all]: FAIL — diverged from golden" >&2
    echo "--- expected ($golden_gate_all)" >&2
    echo "$expected_gated" >&2
    echo "--- actual" >&2
    echo "$actual" >&2
    fail=1
  fi
}

check_variant "in-process"
check_variant "supervised jobs=1" --jobs=1
check_variant "supervised jobs=4" --jobs=4
check_variant "gate=off forced" --gate=off
check_hardened off
check_hardened geometry
check_hardened all
check_gate_all

if [[ "$fail" -ne 0 ]]; then
  echo >&2
  echo "The instrumented lane's hook stream has changed, or the supervisor" >&2
  echo "broke the shard merge order.  If the hook stream changed" >&2
  echo "intentionally, rerun the campaign and update ci/golden_campaign.txt" >&2
  echo "in the same commit; otherwise this is a regression in fault-site" >&2
  echo "addressing or in sharded-campaign determinism." >&2
  exit 1
fi
echo "campaign gate: PASS (unhardened variants match $golden;" \
     "hardened matrix matches $golden_hardened)"
