"""Show that every check of the benchmark can fail.

    python3 perfbench/selftest.py [--workload bands ...]

Runs one pass of each workload (seed 1), checks its real outputs, then
feeds every check perturbed copies of them: each eigenvalue dropped in
turn, and each eigenvalue shifted by +1e-3 and by -1e-3 relative (for
``validate``, each criterion marked failed).  Every perturbed copy must be
reported.  A limit call that fails on its real output because of a known
fault is perturbed from a passing stand-in instead: the reference grid
eigenvalues raised by 2 * LIMIT_EPS relative.  Exits 1 if a perturbation
goes unreported or a call without a known fault fails.
"""

from __future__ import annotations

import argparse
import copy
import os
import random
import shutil
import sys

import run  # also puts this directory on sys.path
import studies

SHIFT = 1e-3


def _variants(values, make):
    """(label, perturbed) for each value dropped and shifted both ways."""
    for i in range(len(values)):
        yield f"drop {i}", make(values[:i] + values[i + 1:])
        for sign in (1, -1):
            moved = list(values)
            moved[i] = moved[i] * (1 + sign * SHIFT)
            yield f"shift {i} {sign * SHIFT:+g}", make(moved)


def perturbations(task, out):
    if task in ("limit", "spectrum"):
        yield from _variants(out["lam"], lambda lam: {"lam": lam, "n": len(lam)})
    elif task == "dispersion":
        rows = out["rows"]
        for i in range(len(rows)):
            yield f"drop row {i}", {"rows": rows[:i] + rows[i + 1:], "n": len(rows) - 1}
            for sign in (1, -1):
                moved = list(rows)
                k, eps, branch, lam = moved[i]
                moved[i] = (k, eps, branch, lam * (1 + sign * SHIFT))
                yield f"shift row {i} {sign * SHIFT:+g}", {"rows": moved, "n": len(rows)}
    elif task == "converge":
        dropped = copy.deepcopy(out)
        del dropped["report"]["branches"][0]
        yield "drop branch 1", dropped
        yield "drop a sweep row", dict(out, n=out["n"] - 1)
        for sign in (1, -1):
            moved = copy.deepcopy(out)
            moved["report"]["branches"][0]["extrapolated"] *= 1 + sign * SHIFT
            yield f"shift extrapolated {sign * SHIFT:+g}", moved
    elif task == "validate":
        for i in range(len(out["verdict"]["criteria"])):
            failed = copy.deepcopy(out)
            failed["verdict"]["criteria"][i]["passed"] = False
            yield f"criterion {i} failed", failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=list(studies.WORKLOADS))
    args = parser.parse_args(argv)
    run.cap_blas_threads()
    sys.path.insert(0, run.SRC)
    from highcontrast import cli
    import checks

    ok = True
    for workload in args.workload or list(studies.WORKLOADS):
        calls = studies.WORKLOADS[workload](random.Random(1))
        work = os.path.join(run.HERE, "_work", "selftest", workload)
        shutil.rmtree(work, ignore_errors=True)
        config_dir = os.path.join(work, "configs")
        os.makedirs(config_dir)
        run.write_configs(config_dir, calls)
        outs = [os.path.join(work, "out", c.name) for c in calls]
        codes, _ = run.run_pass(cli, calls, config_dir, outs)
        parsed = [checks.read_output(c.task, d) for c, d in zip(calls, outs)]
        refs = {c.name: checks.reference(c) for c in calls}
        real = checks.check_pass(calls, parsed, codes, refs)
        for call, out, problems in zip(calls, parsed, real):
            ref = refs[call.name]
            status = "passes"
            if problems:
                status = "fails (known fault)" if call.known_fault else "FAILS"
                ok = ok and bool(call.known_fault)
                if call.known_fault and call.task == "limit":
                    lam = list(ref["lam"] * (1 + 2 * checks.LIMIT_EPS))
                    out = {"lam": lam, "n": len(lam)}
                    if checks.check_limit(call, out, ref):
                        print(f"{workload}/{call.name}: stand-in output does not pass")
                        ok = False
            tried = caught = 0
            for label, bad in perturbations(call.task, out):
                tried += 1
                if checks.CHECKS[call.task](call, bad, ref):
                    caught += 1
                else:
                    print(f"{workload}/{call.name}: perturbation '{label}' not reported")
            ok = ok and tried > 0 and caught == tried
            print(f"{workload}/{call.name}: real output {status}; "
                  f"{caught} of {tried} perturbations reported")
            for p in problems:
                print(f"    {p}")
        spectra = [i for i, c in enumerate(calls) if c.task == "spectrum"]
        if len(spectra) >= 2:
            lo = min(spectra, key=lambda i: calls[i].config["medium"]["epsilon"])
            hi = max(spectra, key=lambda i: calls[i].config["medium"]["epsilon"])
            swapped = list(parsed)
            swapped[lo], swapped[hi] = parsed[hi], parsed[lo]
            found = checks.check_pass(calls, swapped, codes, refs)
            rises = any("lie below" in p for p in sum(found, []))
            ok = ok and rises
            print(f"{workload}: spectra of the largest and smallest contrast swapped: "
                  f"{'reported' if rises else 'NOT reported'} by the rise check")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
