"""Benchmark of three ``highcontrast`` study workloads through the CLI entry point.

    python3 perfbench/run.py --workload limit-2d --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

One process runs a closed loop of study passes for ``--seconds`` seconds;
one pass calls ``highcontrast.cli.main`` in-process once per CLI call of
the workload (see ``studies.py``), with ``--jobs`` at its default and the
BLAS thread pools capped at the number of usable CPUs.  A pass that is
running when the time is up is finished, so every run makes whole passes.

After the loop the outputs of every pass are checked against references
computed apart from the package (``checks.py``, ``oracles.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count CLI calls, and ``metrics`` holds the end-to-end metrics,
or with ``--trace 1`` the per-layer metrics of ``layers.py``.  With
``--trace 1`` the passes alternate between untraced and traced, and the
spans of the traced passes are written to ``perfbench/_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import studies  # noqa: E402  (standard library only: imports no numpy)

#: Setup samples per run: the run's own import plus this many fresh processes.
SETUP_CHILDREN = 2

_PROBE = r"""
import json, os, sys, time
configs = json.load(sys.stdin)
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import highcontrast.cli
for name, cfg in configs.items():
    with open(os.path.join(sys.argv[2], name + ".json"), "w") as fh:
        json.dump(cfg, fh)
print(time.perf_counter() - t0)
"""


def cap_blas_threads():
    """Cap the BLAS and OpenMP pools at the usable CPUs, before numpy loads."""
    cpus = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            asked = int(os.environ.get(var, cpus))
        except ValueError:
            asked = cpus
        os.environ[var] = str(max(1, min(asked, cpus)))


def write_configs(directory, calls):
    for call in calls:
        with open(os.path.join(directory, call.name + ".json"), "w") as fh:
            json.dump(call.config, fh)


def measure_setup(work, calls):
    """Seconds to import the package and write the study configs: once in
    this process (which then keeps the import), then in fresh processes."""
    config_dir = os.path.join(work, "configs")
    os.makedirs(config_dir)
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import highcontrast.cli  # noqa: F401
    write_configs(config_dir, calls)
    samples = [time.perf_counter() - t0]
    payload = json.dumps({c.name: c.config for c in calls})
    for i in range(SETUP_CHILDREN):
        probe_dir = os.path.join(work, f"probe{i}")
        os.makedirs(probe_dir)
        done = subprocess.run([sys.executable, "-c", _PROBE, SRC, probe_dir], input=payload,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return config_dir, statistics.median(samples)


def run_pass(cli, calls, config_dir, outs):
    """One study pass: every call of the workload, each into a fresh output
    directory.  Returns the exit codes and the seconds the calls took."""
    for d in outs:
        shutil.rmtree(d, ignore_errors=True)
    codes, seconds = [], []
    for c, d in zip(calls, outs):
        t0 = time.perf_counter()
        codes.append(cli.main([c.task, "--config", os.path.join(config_dir, c.name + ".json"),
                               "--out", d]))
        seconds.append(time.perf_counter() - t0)
    return codes, seconds


def run_workload(args) -> dict:
    calls = studies.WORKLOADS[args.workload](random.Random(args.seed))
    work = os.path.join(HERE, "_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config_dir, setup_s = measure_setup(work, calls)

    from highcontrast import cli
    import checks
    import layers

    tracer = layers.Tracer() if args.trace else None
    outs = [os.path.join(work, "out", c.name) for c in calls]
    passes, plain_s, traced_s, layer_passes, spans = [], [], [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        codes, call_s = run_pass(cli, calls, config_dir, outs)
        elapsed = sum(call_s)
        if traced:
            tracer.uninstall()
            layer_passes.append(tracer.pass_metrics(sum(checks.output_bytes(d) for d in outs
                                                        if os.path.isdir(d))))
            spans.append(tracer.dump())
        (traced_s if traced else plain_s).append(elapsed)
        print(f"{args.workload}: pass {len(passes) + 1}{' traced' if traced else ''} "
              f"{elapsed:.4f} s; calls {' '.join(f'{t:.4f}' for t in call_s)}", file=sys.stderr)
        passes.append((codes, [checks.read_output(c.task, d) for c, d in zip(calls, outs)]))
        if time.perf_counter() - start >= args.seconds and (tracer is None or traced_s):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs = {c.name: checks.reference(c) for c in calls}
    attempted = failed = good_eigenvalues = 0
    correct, reported = True, set()
    for codes, parsed in passes:
        for call, out, problems in zip(calls, parsed, checks.check_pass(calls, parsed, codes, refs)):
            attempted += 1
            if not problems:
                good_eigenvalues += out["n"]
                continue
            failed += 1
            correct = correct and bool(call.known_fault)
            for p in problems:
                if (call.name, p) not in reported:
                    reported.add((call.name, p))
                    tag = f"known fault: {call.known_fault}" if call.known_fault else "FAILED"
                    print(f"{args.workload}/{call.name}: {p} [{tag}]", file=sys.stderr)

    if tracer is not None:
        with open(os.path.join(work, "spans.json"), "w") as fh:
            json.dump(spans, fh)
        for metric in layers.varying_counts(layer_passes):
            print(f"{args.workload}: {metric} differs between traced passes", file=sys.stderr)
        values = layers.combine(layer_passes, traced_s, plain_s)
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in layers.METRICS}
    else:
        study_s = statistics.median(plain_s)
        metrics = {
            "study_s": {"value": study_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "eigenvalues_per_s": {"value": good_eigenvalues / len(passes) / study_s,
                                  "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, so each reports its own peak memory."""
    results = {}
    for name in studies.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
        r = results[name]
        print(f"{name}: attempted {r['attempted']} failed {r['failed']} correct {r['correct']}")
        for metric, v in r["metrics"].items():
            print(f"  {metric:40s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*studies.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "highcontrast", "cli.py")):
        print(f"no highcontrast package under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
