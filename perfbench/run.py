#!/usr/bin/env python3
"""Builds the adrdedup benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload screen-open --seed 7 --seconds 15 --trace 0

The first run configures and builds perfbench/ (the library sources in
src/ plus the harness) into .bench_build/perfbench; later runs rebuild
incrementally. Before measuring, the harness unit tests run. The harness
prints its facts, checks and every metric as lines; this script then
prints, as its last line, one JSON object with "correct", "attempted",
"failed" and the metrics BENCHMARK.json lists for the mode: the
end_to_end metrics with --trace 0, the per_layer metrics with --trace 1.
The full record of the run is kept in .bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "adrdedup_perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    # The arithmetic tests need GoogleTest; without it they are skipped.
    cache = (BUILD / "CMakeCache.txt").read_text()
    if "GTest_DIR:PATH=" in cache and "GTest_DIR-NOTFOUND" not in cache:
        done = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                               "--target", "perfbench_test"],
                              stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("building perfbench_test failed")
        done = subprocess.run([str(BUILD / "perfbench_test"), "--gtest_brief=1"],
                              stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("perfbench_test failed")


def source_digest():
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = ROOT / ".bench_build" / "work" / f"{tag}-{os.getpid()}"
    results = ROOT / ".bench_build" / "results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [str(BUILD / "adrdedup_perfbench"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--work-dir={work_dir}",
               f"--result={results / (tag + '.json')}"]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail(f"harness exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    record = json.loads(lines[-1])

    metrics = {}
    for metric in wanted:
        got = record["metrics"].get(metric["name"])
        if got is None:
            fail(f"the harness did not report {metric['name']}")
        if got["unit"] != metric["unit"]:
            fail(f"{metric['name']} is in {got['unit']}, "
                 f"BENCHMARK.json says {metric['unit']}")
        metrics[metric["name"]] = got
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
