#!/usr/bin/env bash
# Kill-and-resume demonstration (docs/resilience.md §3): run a Write-All
# workload three ways and prove the checkpoint/restore path is bit-exact.
#
#   1. baseline      — straight run, no checkpointing;
#   2. crashed       — same run with --checkpoint/--checkpoint-every, killed
#                      (via --crash-at-slot, a simulated hard exit inside the
#                      checkpoint hook) partway through; the file on disk
#                      holds a checkpoint OLDER than the crash point, so the
#                      resume must re-execute the gap;
#   3. resumed       — restore the checkpoint and run to completion.
#
# The resumed run's S / S' / |F| / parallel-time lines must equal the
# baseline's exactly; any divergence exits nonzero. CI runs this script.
#
# Two tree-order compatibility cases follow. A checkpoint whose meta says
# "tree_order":"veb" holds a memory image of the removed van Emde Boas
# layout: writeall_cli and sim_cli must refuse to resume it (exit 2 with a
# named error). A fault schedule whose meta says the same still replays,
# because the tree order never reaches the model: its tally must equal the
# recorded run's.
#
# Usage: scripts/kill_resume.sh [build-dir] [algo] [n] [p]
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=${1:-build}
algo=${2:-VX}
n=${3:-4096}
p=${4:-256}

cli="$build_dir/examples/writeall_cli"
if [ ! -x "$cli" ]; then
  echo "error: $cli not found — build first:" >&2
  echo "  cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
  exit 1
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

common=(--algo "$algo" --n "$n" --p "$p" --adversary thrashing)
fingerprint() {
  grep -E "solved|completed S|attempted S'|\|F\||parallel time" "$1"
}

echo "== baseline run"
"$cli" "${common[@]}" >"$workdir/baseline.txt"
fingerprint "$workdir/baseline.txt"

echo "== crashed run (checkpoint every 64 slots, killed at slot >= 512)"
"$cli" "${common[@]}" \
  --checkpoint "$workdir/ck.json" --checkpoint-every 64 --crash-at-slot 512
if [ ! -s "$workdir/ck.json" ]; then
  echo "FAIL: the crashed run left no checkpoint behind" >&2
  exit 1
fi

echo "== resumed run"
"$cli" "${common[@]}" --resume "$workdir/ck.json" >"$workdir/resumed.txt"
fingerprint "$workdir/resumed.txt"

if diff <(fingerprint "$workdir/baseline.txt") \
        <(fingerprint "$workdir/resumed.txt") >"$workdir/diff.txt"; then
  echo "PASS: resumed run is bit-identical to the baseline"
else
  echo "FAIL: resumed run diverged from the baseline:" >&2
  cat "$workdir/diff.txt" >&2
  exit 1
fi

# --- tree-order compatibility ---------------------------------------------

# Stamp a checkpoint with the van Emde Boas tree order.
stamp_veb() {
  sed '$ s/}$/,"meta":{"tree_order":"veb"}}/' "$1" >"$2"
  grep -q '"tree_order":"veb"' "$2"
}

expect_refused() {
  local what=$1
  shift
  local rc=0
  "$@" >"$workdir/refused.txt" 2>&1 || rc=$?
  if [ "$rc" = 2 ] && grep -q "error: .*tree-order memory image" \
      "$workdir/refused.txt"; then
    echo "PASS: $what refuses a veb checkpoint (exit 2)"
  else
    echo "FAIL: $what resumed a veb checkpoint (exit $rc):" >&2
    cat "$workdir/refused.txt" >&2
    exit 1
  fi
}

echo "== veb checkpoint (writeall_cli)"
stamp_veb "$workdir/ck.json" "$workdir/ck-veb.json"
expect_refused writeall_cli "$cli" "${common[@]}" --resume "$workdir/ck-veb.json"

sim_cli="$build_dir/examples/sim_cli"
if [ -x "$sim_cli" ]; then
  echo "== veb checkpoint (sim_cli)"
  sim_common=(--program prefix-sum --n 64 --p 8 --fail 0.1)
  "$sim_cli" "${sim_common[@]}" --checkpoint "$workdir/sim-ck.json" \
    --checkpoint-every 16 >/dev/null
  stamp_veb "$workdir/sim-ck.json" "$workdir/sim-ck-veb.json"
  expect_refused sim_cli "$sim_cli" "${sim_common[@]}" \
    --resume "$workdir/sim-ck-veb.json"
else
  echo "note: $sim_cli not built — skipping the sim_cli veb checkpoint case"
fi

echo "== veb-stamped schedule replays unchanged"
"$cli" --algo "$algo" --n "$n" --p "$p" --adversary random --fail 0.1 \
  --record "$workdir/rec.jsonl" >"$workdir/recorded.txt"
sed '1 s/"meta":{/"meta":{"tree_order":"veb",/' "$workdir/rec.jsonl" \
  >"$workdir/rec-veb.jsonl"
grep -q '"tree_order":"veb"' "$workdir/rec-veb.jsonl"
"$cli" --replay "$workdir/rec-veb.jsonl" >"$workdir/replayed.txt"
if diff <(fingerprint "$workdir/recorded.txt") \
        <(fingerprint "$workdir/replayed.txt") >"$workdir/diff.txt"; then
  echo "PASS: the veb-stamped schedule replays to the recorded tally"
else
  echo "FAIL: the veb-stamped schedule replay diverged:" >&2
  cat "$workdir/diff.txt" >&2
  exit 1
fi
