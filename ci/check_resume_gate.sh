#!/usr/bin/env bash
# Checkpoint/resume gate: SIGKILL the supervisor mid-campaign, resume from
# its journal, and require the final outcome distribution (and record
# count) to be bit-identical to an uninterrupted run of the same campaign.
#
# This exercises the whole crash-consistency story at once: per-line
# journal flushing, torn-tail skipping on load, journal identity
# validation, shard-granular resume, and experiment-order merging.
#
# Usage: ci/check_resume_gate.sh [path/to/vs]
set -euo pipefail

vs_bin="${1:-build/tools/vs}"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

if [[ ! -x "$vs_bin" ]]; then
  echo "error: vs binary not found at $vs_bin" >&2
  exit 2
fi

args=(inject input1 gpr 60 VS --frames=8 --jobs=2)

distribution() {
  awk '/^  (masked|crash|sdc|hang)/ { print $1, $2 }' "$1"
}

# Reference: the same supervised campaign, uninterrupted.
"$vs_bin" "${args[@]}" --journal="$workdir/ref.journal" \
  > "$workdir/ref.out"
ref_records="$(grep -c '^R ' "$workdir/ref.journal")"

# Interrupted run: SIGKILL the supervisor once the journal shows some (but
# not all) completed experiments.  SIGKILL, not SIGTERM: nothing gets to
# flush or clean up, which is exactly the failure the journal must survive.
"$vs_bin" "${args[@]}" --journal="$workdir/kill.journal" \
  > "$workdir/kill.out" 2>&1 &
pid=$!
killed=0
for _ in $(seq 1 400); do
  if ! kill -0 "$pid" 2>/dev/null; then
    break  # finished before we could kill it — resume is a no-op then
  fi
  n="$(grep -c '^R ' "$workdir/kill.journal" 2>/dev/null || true)"
  if [[ -n "$n" && "$n" -ge 5 && "$n" -lt "$ref_records" ]]; then
    kill -KILL "$pid" 2>/dev/null || true
    killed=1
    break
  fi
  sleep 0.05
done
wait "$pid" 2>/dev/null || true
echo "interrupted run: killed=$killed," \
     "$(grep -c '^R ' "$workdir/kill.journal" 2>/dev/null || echo 0)" \
     "of $ref_records records journaled"

# Resume and compare against the uninterrupted reference.
"$vs_bin" "${args[@]}" --journal="$workdir/kill.journal" --resume \
  > "$workdir/resume.out"
cat "$workdir/resume.out"
echo

resumed_records="$(grep -c '^R ' "$workdir/kill.journal")"
if [[ "$resumed_records" -ne "$ref_records" ]]; then
  echo "resume gate: FAIL — $resumed_records records after resume," \
       "reference has $ref_records" >&2
  exit 1
fi

if ! diff <(distribution "$workdir/ref.out") \
          <(distribution "$workdir/resume.out"); then
  echo "resume gate: FAIL — resumed distribution differs from the" \
       "uninterrupted reference" >&2
  exit 1
fi

echo "resume gate: PASS (killed=$killed; resumed run matches the" \
     "uninterrupted distribution, $ref_records records)"
