#!/usr/bin/env python3
"""Same-host A/B comparison of the repository benchmark: a base revision against the working tree.

    scripts/ab_perfbench.py <base-rev> <workload> [--pairs N] [--seed S] [--seconds T]
                            [--work-dir DIR]

Exports <base-rev> with `git archive` (as scripts/compare_outputs.sh does)
and builds each side's perfbench through its own `python3 perfbench/run.py`,
each side with its own CARGO_TARGET_DIR. Then it runs N pairs of end-to-end
runs (--trace 0), alternating which side goes first, so slow phases of host
load hit both sides alike.

For every end-to-end metric declared in BENCHMARK.json it prints each side's
median and quartiles, the median change, how many pairs the working tree won
and tied, and whether the change clears the base's interquartile range. A
metric whose median got worse by more than its BENCHMARK.json bound is
flagged, and the script then exits 1. Exit 0: no metric got worse beyond its
bound; 2: usage, build or run error.

The work directory (a fresh temporary directory unless --work-dir names one)
holds the exported base, both build trees and every run's output and JSON
result; it is removed at the end unless --work-dir was given, so later calls
can reuse the builds. The script reads BENCHMARK.json and writes nothing in
the repository.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message):
    print(f"ab_perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    return subprocess.run(["git", "-C", REPO] + list(args), capture_output=True, text=True)


def export_base(rev, dest):
    """Extracts `rev` into dest (once; a reused work dir keeps its export)."""
    stamp = os.path.join(dest, ".ab_rev")
    if os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() == rev:
                return
        fail(f"{dest} holds another revision; use a fresh --work-dir")
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", REPO, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        fail(f"git archive {rev} failed")
    with open(stamp, "w") as f:
        f.write(rev + "\n")


class Side:
    def __init__(self, name, root, target):
        self.name = name
        self.root = root
        self.target = target
        self.results = []  # One metrics dict per run.

    def run(self, workload, seed, seconds, log_dir, tag):
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        log = os.path.join(log_dir, f"{self.name}-{tag}.log")
        with open(log, "w") as err:
            proc = subprocess.run(cmd, cwd=self.root, env=env, stdout=subprocess.PIPE,
                                  stderr=err, text=True)
        with open(os.path.join(log_dir, f"{self.name}-{tag}.out"), "w") as out:
            out.write(proc.stdout)
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if proc.returncode != 0 or result is None or not result.get("correct"):
            fail(f"{self.name} run {tag} failed (exit {proc.returncode}); see {log}")
        with open(os.path.join(log_dir, f"{self.name}-{tag}.json"), "w") as f:
            json.dump(result, f, indent=1)
        return {k: v["value"] for k, v in result["metrics"].items()}


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def relative_worsening(base, head, higher_is_better):
    """How much worse head is than base, as a fraction of base (<= 0: not worse)."""
    worse = base - head if higher_is_better else head - base
    if worse <= 0:
        return 0.0
    return worse / abs(base) if base != 0 else float("inf")


def fmt(v):
    return f"{v:.6g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev")
    parser.add_argument("workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="host seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--work-dir", help="reusable directory for the base export and builds")
    args = parser.parse_args()
    if args.pairs < 1 or args.seed < 0:
        parser.error("--pairs must be >= 1 and --seed >= 0")

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload '{args.workload}'")
    seconds = args.seconds if args.seconds is not None else spec.get("run_seconds", 15)
    rev = git("rev-parse", "--verify", "--quiet", args.base_rev + "^{commit}").stdout.strip()
    if not rev:
        fail(f"unknown revision '{args.base_rev}'")

    work = os.path.abspath(args.work_dir) if args.work_dir else tempfile.mkdtemp(
        prefix="ab_perfbench.")
    logs = os.path.join(work, f"runs-{args.workload}-seed{args.seed}")
    os.makedirs(logs, exist_ok=True)
    export_base(rev, os.path.join(work, "base"))
    base = Side("base", os.path.join(work, "base"), os.path.join(work, "base-target"))
    head = Side("head", REPO, os.path.join(work, "head-target"))

    # The first run on each side builds its perfbench; its numbers are dropped.
    for side in (base, head):
        print(f"ab_perfbench: building and warming {side.name}", file=sys.stderr)
        side.run(args.workload, args.seed, 1, logs, "warm")
    for i in range(args.pairs):
        order = (base, head) if i % 2 == 0 else (head, base)
        for side in order:
            side.results.append(side.run(args.workload, args.seed, seconds, logs, f"pair{i}"))
        print(f"ab_perfbench: pair {i + 1}/{args.pairs} done ({order[0].name} first)",
              file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  pairs {args.pairs}  "
          f"seconds {seconds}  base {rev[:12]}  head working tree")
    header = (f"{'metric':<16} {'unit':<6} {'base median [q1, q3]':<36} "
              f"{'head median [q1, q3]':<36} {'change':>9} {'wins':>5} {'ties':>5} "
              f"{'>IQR':>5}  verdict")
    print(header)
    regressed = []
    for m in spec["end_to_end"]:
        name = m["name"]
        higher = m["better"] == "higher"
        b = [r[name] for r in base.results]
        h = [r[name] for r in head.results]
        bm, hm = quantile(b, 0.5), quantile(h, 0.5)
        bq1, bq3 = quantile(b, 0.25), quantile(b, 0.75)
        hq1, hq3 = quantile(h, 0.25), quantile(h, 0.75)
        wins = sum(1 for x, y in zip(b, h) if (y > x if higher else y < x))
        ties = sum(1 for x, y in zip(b, h) if y == x)
        gain = (hm - bm) if higher else (bm - hm)
        beyond_iqr = "yes" if gain > (bq3 - bq1) else "no"
        change = f"{(hm - bm) / abs(bm) * 100:+.2f}%" if bm != 0 else (
            "0" if hm == bm else "n/a")
        worse = relative_worsening(bm, hm, higher)
        verdict = "ok"
        if worse > m["bound"]:
            verdict = f"WORSE beyond bound {m['bound']}"
            regressed.append(name)
        print(f"{name:<16} {m['unit']:<6} "
              f"{fmt(bm) + ' [' + fmt(bq1) + ', ' + fmt(bq3) + ']':<36} "
              f"{fmt(hm) + ' [' + fmt(hq1) + ', ' + fmt(hq3) + ']':<36} "
              f"{change:>9} {wins:>5} {ties:>5} {beyond_iqr:>5}  {verdict}")
    print(f"results: {logs}" if args.work_dir else "results: removed with the work directory")
    if not args.work_dir:
        shutil.rmtree(work, ignore_errors=True)
    if regressed:
        print("ab_perfbench: worse beyond bound: " + ", ".join(regressed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
