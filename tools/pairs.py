#!/usr/bin/env python3
"""Alternating before/after pairs of detbench runs: the working tree against a base commit.

Usage, from the repository root:

    python3 tools/pairs.py --pairs 10 --workloads itertd-compas100k,global-german

The base commit (default HEAD, so that uncommitted changes are measured
against their last commit; pass --base HEAD~1 once the change is committed)
is checked out with `git worktree` in a temporary directory, which is
removed at the end. For each workload, each pair runs detbench/run.py once
on the base and once on the working tree, the base first in even pairs and
the working tree first in odd ones, so that a drift of the machine's speed
over the session falls on both sides alike. Each run builds its own side
from that side's sources (detbench/run.py keeps each build in its checkout's
.bench_build/).

For each metric it prints both sides' medians and quartiles, how many pairs
the working tree won (lower is better for the times, higher for ok_frac),
whether the medians differ by more than the base's interquartile range, and
whether every run reported "correct": true. It exits 1 if a run fails or
reports "correct": false.
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (metric, True if lower is better)
METRICS = [("detect_s", True), ("setup_s", True), ("ok_frac", False)]


def run(checkout, workload, seconds, seed):
    cmd = [sys.executable, str(checkout / "detbench" / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", "0"]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    r = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr[-2000:])
        raise SystemExit(f"pairs: detbench failed in {checkout} on {workload} (exit {r.returncode})")
    result = json.loads(lines[-1])
    values = {m: result["metrics"][m]["value"] for m, _ in METRICS}
    return result["correct"], values


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def report(workload, runs):
    print(f"\n{workload}: {len(runs['base'])} pairs")
    for metric, lower in METRICS:
        base = [v[metric] for v in runs["base"]]
        work = [v[metric] for v in runs["work"]]
        b1, bm, b3 = quartiles(base)
        w1, wm, w3 = quartiles(work)
        wins = sum((w < b) if lower else (w > b) for b, w in zip(base, work))
        change = (wm - bm) / bm * 100 if bm else 0.0
        beyond = abs(wm - bm) > (b3 - b1)
        print(f"  {metric:9s} base {bm:.4f} ({b1:.4f}-{b3:.4f})  work {wm:.4f} ({w1:.4f}-{w3:.4f})  "
              f"{change:+.1f} %  work better in {wins}/{len(base)}  "
              f"median gap {'beyond' if beyond else 'within'} base IQR")
    print(f"  pairs (base, work) detect_s: "
          + ", ".join(f"({b['detect_s']:.4f}, {w['detect_s']:.4f})" for b, w in zip(runs["base"], runs["work"])))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", default="HEAD", help="commit to compare the working tree against (default HEAD)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workloads", default="itertd-compas100k,global-german",
                   help="comma-separated detbench workloads")
    p.add_argument("--seconds", type=int, default=10, help="detbench --seconds per run")
    p.add_argument("--seed", type=int, help="detbench --seed (default: the workload's own)")
    a = p.parse_args()
    if a.pairs < 1:
        raise SystemExit("pairs: --pairs must be at least 1")
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", a.base + "^{commit}"],
                         capture_output=True, text=True)
    if rev.returncode != 0:
        raise SystemExit(f"pairs: not a commit: {a.base}")
    commit = rev.stdout.strip()
    workloads = [w for w in a.workloads.split(",") if w]
    # a stopped run still removes its worktree (the `finally` below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    all_correct = True
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        base_dir = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", str(base_dir), commit],
                       check=True, capture_output=True)
        try:
            print(f"base {commit[:12]} against the working tree of {ROOT}")
            for workload in workloads:
                runs = {"base": [], "work": []}
                for i in range(a.pairs):
                    order = [("base", base_dir), ("work", ROOT)]
                    if i % 2 == 1:
                        order.reverse()
                    for side, checkout in order:
                        correct, values = run(checkout, workload, a.seconds, a.seed)
                        all_correct &= correct
                        runs[side].append(values)
                        print(f"{workload} pair {i + 1} {side}: detect_s {values['detect_s']:.4f} "
                              f"setup_s {values['setup_s']:.4f} correct {correct}", flush=True)
                report(workload, runs)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base_dir)],
                           capture_output=True)
    print(f"\nevery run correct: {all_correct}")
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
