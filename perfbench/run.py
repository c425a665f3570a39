#!/usr/bin/env python3
"""Build the program from source and run one workload of the benchmark.

    python3 perfbench/run.py --workload train-inproc|train-tcp|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (the program's libraries from src/ plus the perfbench binary)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only re-check the build. The workload then runs in its own process with
GTV_THREADS=2. Its output is passed through unchanged; the last line is the
result JSON. The exit code is non-zero when the build fails, the run fails a
correctness check, or the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
SETTLE_AFTER_BUILD_S = 20
# Program knobs that would change what a run measures; the benchmark owns them.
PINNED_ENV = {"GTV_THREADS": "2"}
CLEARED_ENV = ("GTV_PROFILE", "GTV_TRACE", "GTV_METRICS", "GTV_METRICS_DUMP", "GTV_HEALTH")


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out, env):
    """Configures once, then builds the perfbench target. Returns the binary."""
    cmd_env = dict(env, TMPDIR=str(out / "tmp"))
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    binary = out / "perfbench"
    built_before = binary.stat().st_mtime if binary.exists() else None
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=cmd_env,
                              cwd=ROOT)
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return None
    if not binary.exists():
        return None
    if binary.stat().st_mtime != built_before:
        # A parallel build leaves the machine hot and its caches cold; let
        # it settle before the first measured run.
        time.sleep(SETTLE_AFTER_BUILD_S)
    return binary


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer


def validate(line, declared):
    """Problems with the result line: it must hold every declared metric,
    in its declared unit, and no other."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    if not isinstance(result, dict):
        return ["last line is not a JSON object"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    metrics = result.get("metrics", {})
    for name in sorted(set(declared) - set(metrics)):
        problems.append(f"metric {name} is declared in BENCHMARK.json but missing")
    for name, m in metrics.items():
        if name not in declared:
            problems.append(f"metric {name} is not declared in BENCHMARK.json")
        elif m.get("unit") != declared[name]:
            problems.append(f"metric {name} unit {m.get('unit')} != {declared[name]}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-inproc", "train-tcp", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(PINNED_ENV)
    out = build_dir()
    binary = build(out, env)
    if binary is None:
        return 2
    e2e, layer = declared_metrics()
    declared = layer if args.trace else e2e
    ops = [n[len("autograd."):-len(".self_ms")] for n in layer
           if n.startswith("autograd.") and n.endswith(".self_ms")]

    work = out / "run"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--autograd-ops", ",".join(ops)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s and was killed")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    problems = validate(lines[-1], declared) if lines and lines[-1] else ["no output"]
    for p in problems:
        log(p)
    if proc.returncode != 0:
        log(f"workload exited with {proc.returncode}")
        return proc.returncode
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
