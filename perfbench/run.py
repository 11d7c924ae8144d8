#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench_measure (perfbench/CMakeLists.txt,
which compiles the library from src/) into $CARGO_TARGET_DIR or
.bench_build, runs it with a pinned environment, picks the figures
BENCHMARK.json names (end_to_end for --trace 0, per_layer for --trace 1)
and attaches their units, keeps the program's full report under
<build dir>/perfbench/reports/, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

WORKLOADS = ("deanon", "replay", "generate")
MAX_THREADS = 4


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not 1 <= args.seconds <= 600:
        fail("--seconds must be in [1, 600]")
    return args


def build_dir(root):
    """$CARGO_TARGET_DIR when it lies inside the checkout, else .bench_build."""
    chosen = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    resolved = (root / chosen).resolve()
    if resolved != root and root not in resolved.parents:
        resolved = root / ".bench_build"
    return resolved / "perfbench"


def build(root, out):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/CMakeLists.txt) not found; "
             "run from the repository root")
    jobs = str(min(MAX_THREADS, os.cpu_count() or 1))
    cache = out / "CMakeCache.txt"
    home = f"CMAKE_HOME_DIRECTORY:INTERNAL={root / 'perfbench'}"
    if cache.is_file() and home not in cache.read_text().splitlines():
        shutil.rmtree(out)  # configured for another checkout location
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(step, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    program = out / "perfbench_measure"
    if not program.is_file():
        fail("build produced no perfbench_measure")
    return program


def source_digest(root):
    """sha256 over every file under src/ and perfbench/ (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def commit(root):
    """HEAD of the repository at `root`; "unknown" outside a git checkout."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def declared_metrics(root, trace):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def idle_layer(figures, name):
    """True when the layer of per-layer metric `name` (its text before the
    first dot) did no work on this workload: its self time is 0. Such a
    layer computes no figures, and BENCHMARK.json's figure reads 0."""
    return figures.get(name.split(".")[0] + ".self_s") == 0


def main():
    args = parse_args()
    root = pathlib.Path.cwd().resolve()
    out = build_dir(root)
    program = build(root, out)

    threads = min(MAX_THREADS, os.cpu_count() or 1)
    env = {k: v for k, v in os.environ.items() if not k.startswith("XRPL_")}
    env["XRPL_THREADS"] = str(threads)
    env["XRPL_OBS"] = "1" if args.trace else "0"
    command = [str(program), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    try:
        done = subprocess.run(command, cwd=root, env=env, capture_output=True,
                              text=True, timeout=args.seconds + 150, check=False)
    except subprocess.TimeoutExpired:
        fail("perfbench_measure timed out")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"perfbench_measure exited with {done.returncode}")
    report = json.loads(lines[-1])

    figures = report["figures"]
    metrics = {}
    for name, unit in declared_metrics(root, args.trace).items():
        if name not in figures and args.trace and idle_layer(figures, name):
            figures[name] = 0.0
        if name not in figures:
            fail(f"perfbench_measure reported no figure for {name}")
        if not isinstance(figures[name], (int, float)):
            fail(f"metric {name} has no finite value")
        metrics[name] = {"value": figures[name], "unit": unit}
    report["metrics"] = metrics

    report["config"]["commit"] = commit(root)
    report["config"]["source_sha256"] = source_digest(root)
    report["config"]["nproc"] = os.cpu_count()
    reports = out / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    index = len(list(reports.glob(stem + ".*.json")))
    (reports / f"{stem}.{index}.json").write_text(json.dumps(report, indent=1))

    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
