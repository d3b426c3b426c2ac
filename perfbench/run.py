#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fattree_dedup --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build (CMake, Release) goes to
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; working files
(configs, sockets, Chrome traces) go to its work/ directory. The last line
of standard output is the result as one JSON object; every metric in it is
checked against BENCHMARK.json before it is printed.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "verifier.hpp")):
        fail("no plankton sources next to perfbench/ (expected src/)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def source_tag():
    """The git commit when there is one, plus a digest of the measured sources."""
    digest = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return f"{commit}+src.{digest.hexdigest()[:12]}"


def check_result(line, spec, trace):
    """The harness's result line must carry exactly BENCHMARK.json's metrics."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys differ from the contract"
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}"
    return None


def run_process(argv, timeout):
    """Runs argv in its own process group; on timeout the whole group dies."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout} s")
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    build(build_dir)
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    # Relative to the checkout root (the cwd): Unix socket paths in here must
    # stay under the 108-byte sun_path limit however deep the checkout is.
    work_dir = os.path.relpath(os.path.join(build_dir, "work"))
    os.makedirs(work_dir, exist_ok=True)

    code, out = run_process(
        [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--work-dir", work_dir,
         "--commit", source_tag()],
        timeout=args.seconds + 150)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write(out)
        fail(f"harness exited with {code}")
    problem = check_result(lines[-1], spec, args.trace == 1)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(problem)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
