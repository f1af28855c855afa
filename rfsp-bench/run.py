#!/usr/bin/env python3
"""Build and run the rfsp benchmark; print one JSON result line.

Usage (from the repository root):

    python3 rfsp-bench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the measuring program (rfsp-bench/CMakeLists.txt, which compiles the
library from src/) into $CARGO_TARGET_DIR or .bench_build, runs it, checks
every case's tally and memory hash against pins.json, and prints:

    {"host": {...}}                                   -- the host block
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The result is the last line of standard output. Build logs and case errors
go to standard error. See README.md in this directory for the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
PIN_FIELDS = ("S", "S_prime", "F", "slots", "memory_fnv1a")


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir(root):
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    return target / "rfsp-bench"


def build(root, out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, cwd=root)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, cwd=root)
    return out / "rfsp_bench"


def read_first(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = read_first(index / "level")
        kind = read_first(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"l{level}"] = read_first(index / "size")
    return sizes


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit(root):
    """HEAD of the repository rooted at `root`, or None when `root` is not
    the top of a git work tree (the benchmark may run from a plain copy)."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = result.stdout.split()
    if result.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if Path(lines[0]).resolve() == root.resolve() else None


def source_digest(root):
    """sha256 over the library and benchmark sources, so a result names the
    code it measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in (root / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def host_block(root, build_info):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        **cache_sizes(),
        "compiler": build_info.get("compiler"),
        "build_type": build_info.get("build_type"),
        "rfsp_native": build_info.get("rfsp_native"),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
    }


def apply_pins(cases, pins, seed):
    """Count every execution of a case whose tally or memory hash differs
    from its pin as failed. Seed-dependent cases are pinned for the default
    seed only; the cross-checks in the measuring program cover the rest."""
    extra_failed = 0
    for name, case in cases.items():
        pin = pins["cases"].get(name)
        problem = None
        if pin is None:
            problem = "no pin for this case"
        elif case["seed_dependent"] and seed != pins["default_seed"]:
            continue
        elif "S" not in case:
            continue  # no execution succeeded; already counted as failed
        else:
            wrong = [f for f in PIN_FIELDS if case[f] != pin[f]]
            if wrong:
                problem = "differs from its pin in " + ", ".join(
                    f"{f} ({case[f]} != {pin[f]})" for f in wrong)
        if problem is not None:
            print(f"case {name}: {problem}", file=sys.stderr)
            extra_failed += case["executions"] - case["failed"]
    return extra_failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args = parser.parse_args()

    root = BENCH_DIR.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {root / 'src'}")
    pins = json.loads((BENCH_DIR / "pins.json").read_text())

    out = build_dir(root)
    out.mkdir(parents=True, exist_ok=True)
    try:
        binary = build(root, out)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        command += ["--spans-out", str(out / f"spans-{args.workload}.bin")]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=root)
    except subprocess.TimeoutExpired:
        fail(f"measuring program exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"measuring program exited with {proc.returncode}")
    report = json.loads(lines[-1])

    for name, case in report["cases"].items():
        for error in case["errors"]:
            print(f"case {name}: {error}", file=sys.stderr)
    failed = report["failed"] + apply_pins(report["cases"], pins, args.seed)

    host = host_block(root, report["build"])
    (out / "host.json").write_text(json.dumps(host, indent=2) + "\n")
    print(json.dumps({"host": host}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": report["metrics"],
    }))


if __name__ == "__main__":
    main()
