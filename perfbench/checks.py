"""Read each call's outputs and check them against references and method properties.

References come from :mod:`oracles` and are computed once per run, outside
the timed passes.  A check returns the list of problems it found; an empty
list means the call passed.  The tolerances sit well below 1e-3 relative,
so that one eigenvalue shifted by 1e-3 is caught (``selftest.py`` shows it).
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

import oracles

#: Contrast of the finite-contrast grid spectrum that bounds a limit spectrum.
LIMIT_EPS = 1e-7
#: Relative agreement of two computations of the same discrete eigenvalue.
SAME_TOL = 1e-8
#: Relative distance between the 1D grid limit rows (h = 0.002) and the
#: transfer-matrix eigenvalues at LIMIT_EPS; measured at 2e-5.
LIMIT_1D_TOL = 2e-4
#: Relative distance between an extrapolated first eigenvalue and its
#: closed-form root; measured at 3.3e-6 (interval) and 1.1e-6 (sphere).
EXTRAPOLATION_TOL = 1e-4

OUTPUT_FILES = {"limit": "limit.csv", "dispersion": "bands.csv",
                "converge": "converge.json", "spectrum": "spectrum.csv",
                "validate": "validate.json"}


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_output(task: str, out_dir: str):
    """Parsed outputs of one call, or None when its main output is missing.

    ``n`` is the number of eigenvalues the call wrote.
    """
    if not os.path.isfile(os.path.join(out_dir, OUTPUT_FILES[task])):
        return None
    if task in ("limit", "spectrum"):
        lam = [float(r["lambda"]) for r in _rows(os.path.join(out_dir, OUTPUT_FILES[task]))]
        return {"lam": lam, "n": len(lam)}
    if task == "dispersion":
        rows = [(float(r["k"]), float(r["epsilon"]), int(r["branch"]), float(r["lambda"]))
                for r in _rows(os.path.join(out_dir, "bands.csv"))]
        return {"rows": rows, "n": len(rows)}
    with open(os.path.join(out_dir, OUTPUT_FILES[task])) as fh:
        report = json.load(fh)
    if task == "converge":
        n = len(_rows(os.path.join(out_dir, "converge.csv")))
        return {"report": report, "n": n}
    return {"verdict": report, "n": 0}


def output_bytes(out_dir: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())


def reference(call):
    """Oracle values for one call, from its config alone."""
    cfg, med = call.config, call.config["medium"]
    if call.task == "limit":
        n = round(1.0 / med["h"])
        lam = oracles.dirichlet_fv_eigenvalues(oracles.rect_mask(n, med["inclusions"]),
                                               LIMIT_EPS, lam_max=cfg["lambda_max"])
        return {"lam": lam}
    if call.task == "dispersion" and med["dim"] == 1:
        (lo, hi), ((a, b),) = med["domain"], med["inclusions"]
        return {(k, eps): oracles.bloch_cell_eigenvalues(lo, hi, a, b, eps or LIMIT_EPS, k,
                                                         cfg["branch_count"])
                for k in cfg["k_grid"] for eps in cfg["eps_list"]}
    if call.task == "converge":
        if med["dim"] == "radial":
            return {"first": oracles.sphere_limit_first(med["inclusions"][0])}
        if med["domain"] != [-1.0, 1.0] or med["inclusions"] != [[-0.5, 0.5]]:
            raise ValueError("the interval oracle covers (-1, 1) with the inclusion (-1/2, 1/2)")
        return {"first": oracles.interval_limit_first()}
    if call.task == "spectrum":
        n = round(1.0 / med["h"])
        mask = oracles.rect_mask(n, med["inclusions"])
        return {"lam": oracles.dirichlet_fv_eigenvalues(mask, med["epsilon"], count=cfg["count"]),
                "floor": oracles.homogeneous_eigenvalues(n, cfg["count"])}
    return None


def _rel(a, b):
    return np.abs(np.asarray(a) - np.asarray(b)) / np.abs(np.asarray(b))


def check_limit(call, out, ref):
    """Limit eigenvalues against the grid spectrum at LIMIT_EPS: the same count
    with multiplicity, and each limit value above its grid value by at most
    10 * LIMIT_EPS relative (the eps -> 0 limit is monotone)."""
    lam, grid = np.sort(out["lam"]), ref["lam"]
    if lam.size != grid.size:
        return [f"{lam.size} eigenvalues returned where the eps -> 0 grid spectrum has "
                f"{grid.size} below {call.config['lambda_max']:g}"]
    gap = (lam - grid) / lam
    problems = []
    if (gap < -1e-12).any():
        problems.append(f"limit eigenvalue below the eps = {LIMIT_EPS:g} grid eigenvalue "
                        f"(relative gap {gap.min():.3e})")
    if (gap > 10 * LIMIT_EPS).any():
        problems.append(f"relative gap {gap.max():.3e} to the eps = {LIMIT_EPS:g} grid "
                        f"eigenvalue exceeds {10 * LIMIT_EPS:g}")
    return problems


def _index(value, grid):
    """Position of a value read back from a CSV in the grid it was written from."""
    j = min(range(len(grid)), key=lambda i: abs(grid[i] - value))
    return j if abs(grid[j] - value) <= 1e-12 * max(1.0, abs(value)) else None


def check_dispersion(call, out, ref):
    """Complete (k, eps, branch) table, bands even in k, ordered in eps, and in
    1D equal to the transfer-matrix eigenvalues."""
    cfg = call.config
    ks, count = cfg["k_grid"], cfg["branch_count"]
    eps_list = sorted(cfg["eps_list"], reverse=True)
    table = {}
    for k, eps, branch, lam in out["rows"]:
        table[(_index(k, ks), _index(eps, eps_list), branch)] = lam
    want = {(i, e, j) for i in range(len(ks)) for e in range(len(eps_list))
            for j in range(1, count + 1)}
    if len(out["rows"]) != len(want) or set(table) != want:
        return [f"{len(out['rows'])} rows where the k, eps and branch grid has {len(want)}"]
    problems = []
    lam = np.array([[[table[(i, e, j)] for j in range(1, count + 1)] for i in range(len(ks))]
                    for e in range(len(eps_list))])               # (eps, k, branch)
    mirror = [ks.index(-k) for k in ks]
    odd = _rel(lam, lam[:, mirror, :]).max()
    if odd > SAME_TOL:
        problems.append(f"bands not even in k (relative difference {odd:.3e})")
    drop = (lam[:-1] - lam[1:]) / lam[1:]
    if (drop > 1e-9).any():
        problems.append(f"an eigenvalue falls as eps falls (relative {drop.max():.3e})")
    if ref is not None:
        for i, eps in enumerate(eps_list):
            exact = np.array([ref[(k, eps)] for k in ks])
            dev, tol = _rel(lam[i], exact).max(), (SAME_TOL if eps > 0 else LIMIT_1D_TOL)
            if dev > tol:
                problems.append(f"eps = {eps:g} rows differ from the transfer-matrix "
                                f"eigenvalues by {dev:.3e} relative (tolerance {tol:g})")
    return problems


def check_converge(call, out, ref):
    """Sweep table complete, the CLI's own verdict passed, and the extrapolated
    first eigenvalue equal to the closed-form root."""
    report, problems = out["report"], []
    want = len(call.config["eps_list"]) * call.config["count"]
    if out["n"] != want:
        problems.append(f"{out['n']} sweep rows where {want} were asked for")
    if not report.get("passed"):
        problems.append("converge report did not pass")
    first = report["branches"][0] if report.get("branches") else {}
    if first.get("branch") != 1 or "extrapolated" not in first:
        return problems + ["no extrapolated first branch"]
    dev = abs(first["extrapolated"] - ref["first"]) / ref["first"]
    if dev > EXTRAPOLATION_TOL:
        problems.append(f"extrapolated {first['extrapolated']:.10g} differs from the "
                        f"closed-form root {ref['first']:.10g} by {dev:.3e} relative")
    return problems


def check_spectrum(call, out, ref):
    """Eigenvalues equal to an independent assembly at the same contrast and
    above the homogeneous (sigma = 1) discrete eigenvalues."""
    lam = np.asarray(out["lam"])
    if lam.size != ref["lam"].size:
        return [f"{lam.size} eigenvalues where {ref['lam'].size} were asked for"]
    problems = []
    dev = _rel(lam, ref["lam"]).max()
    if dev > SAME_TOL:
        problems.append(f"eigenvalues differ from the reference assembly by {dev:.3e} relative")
    if (lam < ref["floor"] * (1 - 1e-12)).any():
        problems.append("an eigenvalue lies below the homogeneous discrete eigenvalue")
    return problems


def check_validate(call, out, ref):
    """The CLI's own verdict passed, with every criterion passed."""
    verdict = out["verdict"]
    failed = [c["name"] for c in verdict.get("criteria", []) if not c.get("passed")]
    if failed or not verdict.get("passed") or not verdict.get("criteria"):
        return [f"validate.json did not pass (failed criteria: {failed})"]
    return []


CHECKS = {"limit": check_limit, "dispersion": check_dispersion, "converge": check_converge,
          "spectrum": check_spectrum, "validate": check_validate}


def check_pass(calls, outs, codes, refs):
    """Problems per call of one pass.  The spectrum calls are also checked
    against each other: their eigenvalues must rise as eps falls."""
    problems = []
    for call, out, code in zip(calls, outs, codes):
        found = [] if code == 0 else [f"exit code {code}"]
        if out is None:
            found.append(f"missing {OUTPUT_FILES[call.task]}")
        else:
            found += CHECKS[call.task](call, out, refs[call.name])
        problems.append(found)
    falling = sorted(((c.config["medium"]["epsilon"], i) for i, c in enumerate(calls)
                      if c.task == "spectrum" and outs[i] is not None), reverse=True)
    for (_, i), (_, j) in zip(falling, falling[1:]):
        a, b = np.asarray(outs[i]["lam"]), np.asarray(outs[j]["lam"])
        if a.size == b.size and (b < a).any():
            problems[j].append(f"eigenvalues of {calls[j].name} lie below those of "
                               f"{calls[i].name}, which has the larger contrast parameter")
    return problems
