#!/usr/bin/env python3
"""The repository benchmark: one command that builds and runs perfbench.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
simulator libraries and the perfbench program under .bench_build/ (or
$CARGO_TARGET_DIR when set); later calls only rebuild what changed. Build
output goes to stderr, so the last line of stdout is always the program's JSON
result. A copy of every result, with the host/build envelope, is written to
<build dir>/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out], stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def git_rev():
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return rev.stdout.strip() if rev.returncode == 0 and rev.stdout.strip() else "none"


def src_digest():
    """Digest of the sources perfbench is built from; names the code in a checkout
    that carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc", ".cpp", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_perfbench(binary, args, timeout=RUN_TIMEOUT_S, stderr=None):
    """Runs the perfbench program; returns (exit code, stdout lines, stderr text or None)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, stderr=stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout} s", file=sys.stderr)
        return 124, [], None
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def last_json(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def measure(args):
    binary = build()
    bench_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace), "--git-rev", git_rev(),
                   "--src-digest", src_digest()]
    code, lines, _ = run_perfbench(binary, bench_args)
    for line in lines:
        print(line)
    result = last_json(lines)
    if code != 0 or result is None:
        return code or 1
    envelope = {}
    for line in lines:
        if line.startswith("perfbench-envelope "):
            envelope = json.loads(line.split(" ", 1)[1])
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump({"envelope": envelope, "result": result}, f, indent=1)
    return 0


def self_test():
    """Tiny-shape smoke run of every workload: each declared metric is emitted with its
    unit, in both modes, and a planted mismatch trips the output check."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    failures = []

    def check(workload, trace, declared):
        code, lines, _ = run_perfbench(binary, ["--workload", workload, "--seed", "1",
                                             "--seconds", "1", "--trace", str(trace), "--tiny"])
        result = last_json(lines)
        if code != 0 or result is None:
            failures.append(f"{workload} trace={trace}: exit {code}, no result")
            return
        if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
            failures.append(f"{workload} trace={trace}: malformed result {sorted(result)}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in declared}
        if got != want:
            failures.append(f"{workload} trace={trace}: metrics {got} != declared {want}")

    for w in spec["workloads"]:
        check(w["name"], 0, spec["end_to_end"])
        check(w["name"], 1, spec["per_layer"])
        for trace in (0, 1):
            code, lines, err = run_perfbench(binary, ["--workload", w["name"], "--seed", "1",
                                                   "--seconds", "1", "--trace", str(trace),
                                                   "--tiny", "--plant-mismatch"],
                                          stderr=subprocess.PIPE)
            if code != 1 or last_json(lines) is not None or "output check failed" not in err:
                failures.append(f"{w['name']} trace={trace}: planted mismatch went unnoticed")
    code, _, _ = run_perfbench(binary, ["--workload", "no-such-workload", "--seed", "1"],
                            stderr=subprocess.DEVNULL)
    if code == 0:
        failures.append("an unknown workload was accepted")
    for f in failures:
        print("FAIL", f)
    print("self-test", "failed" if failures else "ok")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            parser.error("--workload is required")
        if args.seed < 0:
            parser.error("--seed must be >= 0")
        return measure(args)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
