"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --runs 10 [--workload bands ...] [--seconds 30]

Runs ``run.py`` once per seed (1, 2, ...) on each workload, one run at a
time, and prints per metric the median, the quartiles of
``statistics.quantiles(values, n=4)``, and the spread (third minus first
quartile over the median) next to the bound of ``BENCHMARK.json``.  Also
prints the share of failed calls of every run, which must be the same in
all of them.  The per-run results, with the standard error of each run
(pass times, problems found), go to ``perfbench/_work/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
            runs[-1]["stderr"] = done.stderr.splitlines()
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        results[workload] = runs
        shares = {f"{r['failed']}/{r['attempted']}" for r in runs}
        print(f"{workload}: correct {all(r['correct'] for r in runs)}, "
              f"failed/attempted per run {sorted(shares)}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(metric)
            note = f"bound {bound} (third {bound / 3:.3f})" if bound else ""
            print(f"  {metric:38s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} {note}")
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    with open(os.path.join(HERE, "_work", "spread.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
