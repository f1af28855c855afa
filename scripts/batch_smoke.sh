#!/usr/bin/env bash
# Batched-backend smoke check: run every batch-capable Write-All algorithm
# at the E1 configuration (fault-free, N = P = 2^16) through writeall_cli
# twice — interpreter and batched backend — and fail if either run misses
# the goal or if any model-visible number (S, S', |F|, slots, sigma)
# differs between the modes; then the same for the Theorem 4.1 executor
# through sim_cli under a restart storm, traces included. Timing is printed for the log but never
# gated: CI machines are too noisy to assert speedups, and bit-identity is
# the invariant worth a red build.
#
# Usage: scripts/batch_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir=${1:-build}
cli="$build_dir/examples/writeall_cli"

if [ ! -x "$cli" ]; then
  echo "error: $cli not found — build first:" >&2
  echo "  cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
  exit 1
fi

n=65536
status=0

for algo in W V X VX; do
  # The interpreter's tally is the reference the batch run must reproduce.
  for batch in 0 1; do
    start=$(date +%s%N)
    if ! out=$("$cli" --algo "$algo" --n "$n" --p "$n" --batch "$batch"); then
      echo "FAIL: $algo --batch $batch did not solve (exit $?)" >&2
      echo "$out" >&2
      status=1
      continue
    fi
    elapsed_ms=$(( ($(date +%s%N) - start) / 1000000 ))
    # Everything the model can observe from the summary; timing excluded.
    summary=$(grep -E 'solved|completed S|attempted S|\|F\||parallel time|sigma' \
              <<<"$out")
    if [ "$batch" = 0 ]; then
      interp_summary=$summary
      echo "$algo interp: ${elapsed_ms} ms"
    else
      echo "$algo batch:  ${elapsed_ms} ms"
      if [ "$summary" != "$interp_summary" ]; then
        echo "FAIL: $algo tally diverges (batch vs interpreter):" >&2
        diff <(echo "$interp_summary") <(echo "$summary") >&2 || true
        status=1
      fi
    fi
  done
done

# Trace bit-identity across modes: the same run traced through the binary
# sink must produce byte-identical streams from the interpreter and the
# batched backend, and the stream must pass trace_cli's invariant audit.
# (Smaller than the tally rows above — the trace gate is about identity,
# not scale.)
trace_cli="$build_dir/examples/trace_cli"
if [ -x "$trace_cli" ]; then
  trace_dir=$(mktemp -d)
  trap 'rm -rf "$trace_dir"' EXIT
  for algo in W V X VX; do
    for batch in 0 1; do
      "$cli" --algo "$algo" --n 4096 --p 4096 --batch "$batch" \
        --trace-out "$trace_dir/$algo-$batch.bin" >/dev/null
    done
    if ! cmp -s "$trace_dir/$algo-0.bin" "$trace_dir/$algo-1.bin"; then
      echo "FAIL: $algo binary trace differs between interpreter and batch" >&2
      "$trace_cli" check "$trace_dir/$algo-0.bin" "$trace_dir/$algo-1.bin" >&2 || true
      status=1
    elif ! "$trace_cli" check "$trace_dir/$algo-0.bin" >/dev/null; then
      echo "FAIL: $algo trace violates stream invariants" >&2
      "$trace_cli" check "$trace_dir/$algo-0.bin" >&2 || true
      status=1
    fi
  done
  [ "$status" = 0 ] && echo "trace smoke OK: binary streams bit-identical across modes"
else
  echo "note: $trace_cli not built — skipping trace bit-identity check"
fi

# The Theorem 4.1 executor through sim_cli: the batch run must report the
# batched backend and reproduce the interpreter's summary (tally, sigma,
# reference check) and its binary trace byte for byte, under a restart
# storm. prefix-sum and matmul (simulated registers) are COMMON programs,
# so the engine must not fall back for them.
sim_cli="$build_dir/examples/sim_cli"
if [ -x "$sim_cli" ]; then
  sim_dir=$(mktemp -d)
  for program in prefix-sum matmul; do
    for batch in 0 1; do
      if ! out=$("$sim_cli" --program "$program" --n 256 --p 64 --fail 0.05 \
                 --batch "$batch" --trace-out "$sim_dir/$program-$batch.bin"); then
        echo "FAIL: sim $program --batch $batch exited non-zero" >&2
        echo "$out" >&2
        status=1
        continue
      fi
      summary=$(grep -E 'completed|matches|\|F\||parallel time|sigma' <<<"$out")
      backend=$(grep -E '^backend' <<<"$out")
      if [ "$batch" = 0 ]; then
        interp_summary=$summary
      else
        if [ "$backend" != "backend          batch" ]; then
          echo "FAIL: sim $program --batch 1 ran on: $backend" >&2
          status=1
        fi
        if [ "$summary" != "$interp_summary" ]; then
          echo "FAIL: sim $program tally diverges (batch vs interpreter):" >&2
          diff <(echo "$interp_summary") <(echo "$summary") >&2 || true
          status=1
        fi
      fi
    done
    if ! cmp -s "$sim_dir/$program-0.bin" "$sim_dir/$program-1.bin"; then
      echo "FAIL: sim $program binary trace differs between modes" >&2
      status=1
    fi
  done
  rm -rf "$sim_dir"
  [ "$status" = 0 ] && echo "sim smoke OK: executor tallies and traces identical across modes"
else
  echo "note: $sim_cli not built — skipping the simulator rows"
fi

if [ "$status" = 0 ]; then
  echo "batch smoke OK: all tallies identical across modes"
fi
exit "$status"
