#!/usr/bin/env python3
"""Run one ppa_bench workload and print its result.

  python3 bench/ppa_bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
  python3 bench/ppa_bench/run.py --check

Builds the benchmark (the CMake package in this directory, over the library
in src/) into .bench_build/ppa_bench on first use, runs the workload in its
own process, echoes the `name value unit` lines it prints, and prints as the
last line one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are BENCHMARK.json's end_to_end set,
with --trace 1 its per_layer set (and the spans go to
.bench_build/traces/<workload>-<seed>.json as Chrome trace-event JSON).
--out appends the run's full record to FILE, one JSON object per line, for
compare.py. --check runs every workload on small inputs in both modes and
checks that each record carries every metric BENCHMARK.json names.

Exits nonzero when the build fails, an op fails its oracle, a metric is
missing, or the run exceeds its time cap.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "ppa_bench"
BINARY = BUILD / "ppa_bench"
WORKLOADS = ["mesh_latency", "mesh_bandwidth", "serve_mixed", "compose_stream"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "--target", "ppa_bench", "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed, see {log}")


def git_commit():
    """HEAD of the tree when it is a git checkout, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    env.pop("GIT_DIR", None)
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def run_binary(args):
    """Run ppa_bench; return (exit code, echoed lines, record)."""
    try:
        proc = subprocess.run([str(BINARY), *args], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"ppa_bench {' '.join(args)} exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"ppa_bench {' '.join(args)} printed no record (exit {proc.returncode})")
    return proc.returncode, lines[:-1], record


def metric_names(bench, key):
    return [m["name"] for m in bench[key]]


def check(bench):
    """Every workload, small inputs, both modes, every named metric present."""
    wanted = metric_names(bench, "end_to_end") + metric_names(bench, "per_layer")
    ok = True
    for workload in WORKLOADS:
        t0 = time.monotonic()
        code, _, record = run_binary(["--workload", workload, "--seed", "1",
                                      "--seconds", "0.5", "--check"])
        missing = [n for n in wanted if n not in record["metrics"]]
        good = code == 0 and record["correct"] and not missing
        ok = ok and good
        print(f"{workload:16} {'ok' if good else 'FAILED'}  "
              f"{record['attempted']} ops checked, {record['failed']} failed, "
              f"{time.monotonic() - t0:.1f} s"
              + (f", missing {', '.join(missing)}" if missing else ""))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, help="append the run record here")
    parser.add_argument("--check", action="store_true",
                        help="smoke-test every workload on small inputs")
    opts = parser.parse_args()

    if not (ROOT / "src").is_dir():
        print(f"run.py: no library sources at {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    if opts.check:
        sys.exit(check(bench))
    if opts.workload is None:
        parser.error("--workload is required")

    seconds = opts.seconds if opts.seconds is not None else bench["run_seconds"]
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(seconds)]
    if opts.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace", str(traces / f"{opts.workload}-{opts.seed}.json")]
    code, lines, record = run_binary(args)
    for line in lines:
        print(line)

    key = "per_layer" if opts.trace else "end_to_end"
    missing = [n for n in metric_names(bench, key) if n not in record["metrics"]]
    if missing:
        fail(f"record lacks {', '.join(missing)}")
    if opts.out:
        record["commit"] = git_commit()
        with open(opts.out, "a") as out:
            out.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": bool(record["correct"]) and code == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: record["metrics"][n] for n in metric_names(bench, key)},
    }))
    sys.exit(0 if code == 0 and record["correct"] else 1)


if __name__ == "__main__":
    main()
