#!/usr/bin/env python3
"""Same-host A/B comparison of the repository benchmark: a base revision against the working tree.

    scripts/ab_perfbench.py <base-rev> <workload>... [--pairs N] [--seed S] [--seconds T]
                            [--trace 0|1] [--work-dir DIR]

<workload> is one or more BENCHMARK.json workload names, or `all` for every
one of them; the workloads run one after another, each with its own table.

Exports <base-rev> with `git archive` (as scripts/compare_outputs.sh does)
and builds each side's perfbench through its own `python3 perfbench/run.py`,
each side with its own CARGO_TARGET_DIR. Then it runs N pairs of end-to-end
runs (--trace 0), alternating which side goes first, so slow phases of host
load hit both sides alike.

For every end-to-end metric declared in BENCHMARK.json it prints each side's
median and quartiles, the median change, how many pairs the working tree won
and tied, and whether the change clears the base's interquartile range. A
metric whose median got worse by more than its BENCHMARK.json bound is
flagged, and the script then exits 1. Exit 0: no metric of any workload got
worse beyond its bound; 2: usage, build or run error.

With --trace 1 the pairs run traced (--trace 1), and the table lists the
per_layer metrics of BENCHMARK.json instead: each side's median and
quartiles, the median change, and the pairs the working tree won (by the
metric's `better`) and tied. These rows are a report: per-layer metrics have
no bound, so they never set the exit code.

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

    def run(self, workload, seed, seconds, trace, log_dir, tag):
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
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


class Row:
    """One metric's two sides: medians, quartiles, change and pair wins."""

    def __init__(self, m, base_values, head_values):
        higher = m["better"] == "higher"
        b, h = base_values, head_values
        self.bm, self.hm = quantile(b, 0.5), quantile(h, 0.5)
        self.bq1, self.bq3 = quantile(b, 0.25), quantile(b, 0.75)
        self.hq1, self.hq3 = quantile(h, 0.25), quantile(h, 0.75)
        self.wins = sum(1 for x, y in zip(b, h) if (y > x if higher else y < x))
        self.ties = sum(1 for x, y in zip(b, h) if y == x)
        gain = (self.hm - self.bm) if higher else (self.bm - self.hm)
        self.beyond_iqr = "yes" if gain > (self.bq3 - self.bq1) else "no"
        self.change = f"{(self.hm - self.bm) / abs(self.bm) * 100:+.2f}%" if self.bm != 0 else (
            "0" if self.hm == self.bm else "n/a")
        self.worse = relative_worsening(self.bm, self.hm, higher)

    def sides(self):
        return (f"{fmt(self.bm) + ' [' + fmt(self.bq1) + ', ' + fmt(self.bq3) + ']':<36} "
                f"{fmt(self.hm) + ' [' + fmt(self.hq1) + ', ' + fmt(self.hq3) + ']':<36} "
                f"{self.change:>9} {self.wins:>5} {self.ties:>5}")


def compare(spec, base, head, workload, args, seconds, rev, work):
    """Runs one workload's pairs and prints its table; returns the regressed metric names."""
    suffix = "-trace1" if args.trace else ""
    logs = os.path.join(work, f"runs-{workload}-seed{args.seed}{suffix}")
    os.makedirs(logs, exist_ok=True)
    # The first run on each side builds its perfbench; its numbers are dropped.
    for side in (base, head):
        print(f"ab_perfbench: building and warming {side.name}", file=sys.stderr)
        side.run(workload, args.seed, 1, args.trace, logs, "warm")
    results = {base.name: [], head.name: []}  # One metrics dict per run.
    for i in range(args.pairs):
        order = (base, head) if i % 2 == 0 else (head, base)
        for side in order:
            results[side.name].append(
                side.run(workload, args.seed, seconds, args.trace, logs, f"pair{i}"))
        print(f"ab_perfbench: pair {i + 1}/{args.pairs} done ({order[0].name} first)",
              file=sys.stderr)

    def row(m):
        return Row(m, [r[m["name"]] for r in results[base.name]],
                   [r[m["name"]] for r in results[head.name]])

    traced = "  traced" if args.trace else ""
    print(f"workload {workload}  seed {args.seed}  pairs {args.pairs}  "
          f"seconds {seconds}  base {rev[:12]}  head working tree{traced}")
    regressed = []
    if args.trace:
        print(f"{'per-layer metric':<30} {'unit':<6} {'base median [q1, q3]':<36} "
              f"{'head median [q1, q3]':<36} {'change':>9} {'wins':>5} {'ties':>5}")
        for m in spec["per_layer"]:
            print(f"{m['name']:<30} {m['unit']:<6} {row(m).sides()}")
    else:
        print(f"{'metric':<16} {'unit':<6} {'base median [q1, q3]':<36} "
              f"{'head median [q1, q3]':<36} {'change':>9} {'wins':>5} {'ties':>5} "
              f"{'>IQR':>5}  verdict")
        for m in spec["end_to_end"]:
            r = row(m)
            verdict = "ok"
            if r.worse > m["bound"]:
                verdict = f"WORSE beyond bound {m['bound']}"
                regressed.append(m["name"])
            print(f"{m['name']:<16} {m['unit']:<6} {r.sides()} {r.beyond_iqr:>5}  {verdict}")
    print(f"results: {logs}" if args.work_dir else "results: removed with the work directory")
    return regressed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev")
    parser.add_argument("workloads", nargs="+", metavar="workload",
                        help="BENCHMARK.json workload names, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="host seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run traced and report the per_layer metrics (no bounds)")
    parser.add_argument("--work-dir", help="reusable directory for the base export and builds")
    args = parser.parse_args()
    if args.pairs < 1 or args.seed < 0:
        parser.error("--pairs must be >= 1 and --seed >= 0")

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    known = [w["name"] for w in spec["workloads"]]
    workloads = known if args.workloads == ["all"] else args.workloads
    for workload in workloads:
        if workload not in known:
            fail(f"unknown workload '{workload}'")
    seconds = args.seconds if args.seconds is not None else spec.get("run_seconds", 15)
    rev = git("rev-parse", "--verify", "--quiet", args.base_rev + "^{commit}").stdout.strip()
    if not rev:
        fail(f"unknown revision '{args.base_rev}'")

    work = os.path.abspath(args.work_dir) if args.work_dir else tempfile.mkdtemp(
        prefix="ab_perfbench.")
    export_base(rev, os.path.join(work, "base"))
    base = Side("base", os.path.join(work, "base"), os.path.join(work, "base-target"))
    head = Side("head", REPO, os.path.join(work, "head-target"))
    regressed = {}
    for i, workload in enumerate(workloads):
        if i > 0:
            print()
        names = compare(spec, base, head, workload, args, seconds, rev, work)
        if names:
            regressed[workload] = names
    if not args.work_dir:
        shutil.rmtree(work, ignore_errors=True)
    for workload, names in regressed.items():
        label = f"{workload} " if len(workloads) > 1 else ""
        print(f"ab_perfbench: {label}worse beyond bound: " + ", ".join(names), file=sys.stderr)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
