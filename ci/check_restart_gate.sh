#!/usr/bin/env bash
# Crash-only serving restart gate.
#
# Boots `vs serve --supervised` with a durable admission journal, loads it
# with 6 keyed jobs, SIGKILLs the server child the moment `vs submit
# --stats` shows a job in flight, and requires that (a) every client still
# gets its montage — the supervisor respawns the server, the journal
# replays the accepted set, and the idempotency keys let each client adopt
# its job — and (b) every
# eventually-delivered montage is byte-identical to the one-shot
# `vs summarize` output for the same (input, algorithm, frames) triple.
# Zero accepted jobs lost, zero pixels moved: a crash mid-load must be
# invisible in the outputs, only visible in the latency.
#
# Usage: ci/check_restart_gate.sh [path/to/vs]
set -euo pipefail

vs_bin="${1:-build/tools/vs}"

if [[ ! -x "$vs_bin" ]]; then
  echo "error: vs binary not found at $vs_bin" >&2
  exit 2
fi

tmp="$(mktemp -d)"
sock="$tmp/serve.sock"
journal="$tmp/serve.journal"
pidfile="$tmp/serve.pid"
supervisor_pid=""
cleanup() {
  if [[ -n "$supervisor_pid" ]] && kill -0 "$supervisor_pid" 2>/dev/null; then
    kill -KILL "$supervisor_pid" 2>/dev/null || true
  fi
  if [[ -f "$pidfile" ]]; then
    kill -KILL "$(cat "$pidfile")" 2>/dev/null || true
  fi
  rm -rf "$tmp"
}
trap cleanup EXIT

frames=8

# input algorithm — 6 keyed jobs, mixed variants.
jobs=(
  "input1 VS"
  "input1 VS_RFD"
  "input1 VS_KDS"
  "input2 VS"
  "input2 VS_SM"
  "input2 VS_RFD"
)

echo "== one-shot references =="
for spec in "${jobs[@]}"; do
  read -r input alg <<< "$spec"
  ref="$tmp/ref_${input}_${alg}.pgm"
  if [[ ! -f "$ref" ]]; then
    "$vs_bin" summarize "$input" "$alg" "$frames" "$ref" > /dev/null
  fi
done

echo "== start supervised server =="
"$vs_bin" serve "$sock" --supervised --journal="$journal" \
  --pidfile="$pidfile" --queue=16 --runners=2 \
  > "$tmp/server.log" 2>&1 &
supervisor_pid=$!

for _ in $(seq 1 100); do
  [[ -S "$sock" ]] && break
  sleep 0.1
done
if [[ ! -S "$sock" ]]; then
  echo "restart gate: FAIL — server never bound $sock" >&2
  cat "$tmp/server.log" >&2
  exit 1
fi

echo "== submit 6 keyed jobs, SIGKILL the server child mid-load =="
submit_pids=()
i=0
for spec in "${jobs[@]}"; do
  read -r input alg <<< "$spec"
  out="$tmp/served_$i.pgm"
  "$vs_bin" submit "$sock" "$input" "$alg" "$frames" "$out" \
    "--id=gate-$i" --retries=12 > "$tmp/submit_$i.log" 2>&1 &
  submit_pids+=("$!")
  i=$((i + 1))
done

# Kill -9 the serving child (NOT the supervisor) as soon as the server
# reports a job in flight — an event, not a fixed sleep, so a fast host
# can't finish the whole burst first.  The journal holds the accepted set;
# the supervisor respawns; the clients reconnect under their keys.
seen_in_flight=0
for _ in $(seq 1 500); do
  in_flight="$("$vs_bin" submit "$sock" --stats 2>/dev/null |
    sed -n 's/.*in-flight \([0-9][0-9]*\),.*/\1/p' || true)"
  if [[ -n "$in_flight" ]] && (( in_flight >= 1 )); then
    seen_in_flight=1
    break
  fi
  sleep 0.01
done
if (( seen_in_flight == 0 )); then
  echo "restart gate: FAIL — no job was ever seen in flight" >&2
  cat "$tmp/server.log" >&2
  exit 1
fi
if [[ ! -f "$pidfile" ]]; then
  echo "restart gate: FAIL — no pidfile at $pidfile" >&2
  exit 1
fi
kill -KILL "$(cat "$pidfile")"
echo "   (SIGKILL sent to server child with jobs in flight)"

fail=0
i=0
for pid in "${submit_pids[@]}"; do
  if ! wait "$pid"; then
    echo "   job $i: submit exited non-zero" >&2
    cat "$tmp/submit_$i.log" >&2
    fail=1
  fi
  i=$((i + 1))
done

echo "== verify every montage byte-identical to one-shot =="
i=0
for spec in "${jobs[@]}"; do
  read -r input alg <<< "$spec"
  out="$tmp/served_$i.pgm"
  ref="$tmp/ref_${input}_${alg}.pgm"
  if [[ ! -f "$out" ]]; then
    echo "   job $i ($input $alg): LOST — no montage delivered" >&2
    cat "$tmp/submit_$i.log" >&2
    fail=1
  elif cmp -s "$out" "$ref"; then
    echo "   job $i ($input $alg): byte-identical"
  else
    echo "   job $i ($input $alg): DIVERGED from one-shot" >&2
    fail=1
  fi
  i=$((i + 1))
done

# The kill must actually have landed mid-run: the supervisor log records
# the crashed generation, and at least one client reconnected.
if ! grep -q "died on signal 9" "$tmp/server.log"; then
  echo "restart gate: FAIL — no respawn recorded (kill landed too late?)" >&2
  cat "$tmp/server.log" >&2
  fail=1
fi
if ! grep -q "reconnected" "$tmp"/submit_*.log; then
  echo "   note: no client needed a reconnect (jobs finished before the" \
       "kill or adoption hid it)"
fi

echo "== graceful supervisor shutdown =="
kill -TERM "$supervisor_pid"
supervisor_rc=0
wait "$supervisor_pid" || supervisor_rc=$?
supervisor_pid=""
if [[ "$supervisor_rc" -ne 0 ]]; then
  echo "restart gate: FAIL — supervisor exited rc=$supervisor_rc" >&2
  cat "$tmp/server.log" >&2
  exit 1
fi

if (( fail != 0 )); then
  echo "restart gate: FAIL" >&2
  cat "$tmp/server.log" >&2
  exit 1
fi

echo "restart gate: PASS — ${#jobs[@]} jobs survived a SIGKILL, all" \
     "byte-identical"
