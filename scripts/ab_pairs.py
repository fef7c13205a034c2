#!/usr/bin/env python3
"""A/B pairs of the benchmark: a parent commit against this checkout.

    python3 scripts/ab_pairs.py --parent HEAD~1 --workload small_p --seed 42 --pairs 5

The parent's committed files are written into a temporary directory by
``git archive`` and removed afterwards; nothing is added to the
repository's ``.git``.  Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

there and in this checkout, as the benchmark does, with T the
``run_seconds`` of BENCHMARK.json.  The side that runs first alternates
from pair to pair.  Each run's last output line is its JSON result.  For
each end-to-end metric of BENCHMARK.json the script prints the parent's
median [Q1-Q3], the change's median, the ratio change/parent and the pairs
the change won (ties count for neither side).

The exit status is 1 when a run gives no result or reads ``correct:
false``, or when the change fails a larger share of its curves than the
parent.  ``--record`` is never passed, and bytecode writing is off in
the runs, so nothing is written under ``perfbench/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(root, workload, seed, seconds):
    """The JSON result of one ``perfbench/run.py --trace 0`` run in root."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"ab_pairs: no result from the run in {root} (exit {proc.returncode})")
    return json.loads(lines[-1])


def summary(name, better, parent, change):
    """One line: parent median [Q1-Q3], change median, ratio and pairs won."""
    q1, med, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    cmed = statistics.median(change)
    won = sum(c < p if better == "lower" else c > p for p, c in zip(parent, change))
    return (f"{name:14s} {med:.4g} [{q1:.4g}-{q3:.4g}] -> {cmed:.4g}  "
            f"ratio {cmed / med:.3f}  won {won}/{len(parent)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the git ref measured against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--pairs", type=int, default=5)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]

    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", args.parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        sides = {"parent": Path(tmp), "change": ROOT}
        results = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                res = run_bench(sides[side], args.workload, args.seed, bench["run_seconds"])
                results[side].append(res)
                values = " ".join(f"{k}={res['metrics'][k]['value']:.4g}" for k, _ in metrics)
                print(f"pair {i + 1} {side}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {values}", flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, parent {args.parent}:")
    for name, better in metrics:
        print(summary(name, better, *[[r["metrics"][name]["value"] for r in results[side]]
                                      for side in ("parent", "change")]))
    share = {side: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
             for side, rs in results.items()}
    correct = all(r["correct"] for rs in results.values() for r in rs)
    print(f"correct: {correct}; failed share parent {share['parent']:.4f}, "
          f"change {share['change']:.4f}")
    return 0 if correct and share["change"] <= share["parent"] else 1


if __name__ == "__main__":
    sys.exit(main())
