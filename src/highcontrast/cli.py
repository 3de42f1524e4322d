"""Command-line front end: config ingestion, study orchestration, output.

Subcommands
    spectrum    finite-contrast eigenvalues on the configured grid
    limit       the contrast -> infinity limit spectrum (both branches)
    dispersion  band structure over a Bloch-number grid
    converge    contrast sweep with affine extrapolation against the limit
    validate    geometry-appropriate acceptance checks, verdict JSON

Configs are JSON documents validated against a schema before any solve;
unknown fields are rejected.  Exit codes: 0 success, 2 config error,
3 solver failure, 4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from . import bloch, dtn, exact1d, fdm, limitspec, radial3d
from .geometry import (ContrastMedium, Geometry1D, Geometry2D, GeometryError,
                       RadialGeometry, medium_from_config)

__all__ = ["main", "load_config", "run_spectrum", "run_limit", "run_dispersion",
           "run_converge", "run_validate", "CONFIG_SCHEMA"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VALIDATION = 4

#: Smallest contrast ``converge`` accepts; grid spectra below it are rounding noise.
EPS_FLOOR = 1e-6

_MEDIUM_SCHEMA = {
    "type": "object",
    "properties": {
        "dim": {"enum": [1, 2, "radial"]},
        "domain": {"type": "array", "items": {"type": "number"},
                   "minItems": 2, "maxItems": 2},
        "inclusions": {"type": "array"},
        "h": {"type": "number", "exclusiveMinimum": 0},
        "epsilon": {"type": "number", "minimum": 0},
        "bc": {"anyOf": [
            {"enum": ["dirichlet", "neumann"]},
            {"type": "object", "properties": {"bloch": {"type": ["number", "array"]}},
             "required": ["bloch"], "additionalProperties": False},
        ]},
    },
    "required": ["dim", "epsilon", "bc"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "medium": _MEDIUM_SCHEMA,
        "task": {"enum": ["spectrum", "limit", "dispersion", "converge", "validate"]},
        "lambda_max": {"type": "number", "exclusiveMinimum": 0},
        "count": {"type": "integer", "minimum": 1},
        "eps_list": {"type": "array", "items": {"type": "number", "minimum": 0},
                     "minItems": 1},
        "k_grid": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "branch_count": {"type": "integer", "minimum": 1},
    },
    "required": ["medium"],
    "additionalProperties": False,
}


#: Built once: ``CONFIG_SCHEMA`` is a constant, and the test suite checks it
#: against its meta-schema, so no call re-checks it.
_VALIDATOR = validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    """Read and schema-validate a study configuration."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    error = best_match(_VALIDATOR.iter_errors(cfg))
    if error is not None:
        raise ConfigError(f"invalid config: {error.message}") from error
    return cfg


def _medium(cfg: dict) -> ContrastMedium:
    try:
        return medium_from_config(cfg["medium"])
    except (GeometryError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad medium: {exc}") from exc


def _grid_n(cfg: dict, medium: ContrastMedium):
    """Cell count for 1D grids, from the medium's h entry (None elsewhere)."""
    geom = medium.geometry
    if isinstance(geom, Geometry1D):
        h = cfg["medium"].get("h")
        if h is None:
            raise ConfigError("1D grid tasks need 'h' in the medium config")
        return int(round((geom.x_hi - geom.x_lo) / h))
    return None


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, default=float)
        fh.write("\n")


def _emit(records, header, path_csv, fmt):
    """Write rows either as CSV with the given header or as a JSON record list."""
    if fmt == "json":
        keys = header.split(",")
        _write_json(os.path.splitext(path_csv)[0] + ".json",
                    [dict(zip(keys, row)) for row in records])
    else:
        with open(path_csv, "w") as fh:
            fh.write(header + "\n")
            for row in records:
                fh.write(",".join(_fmt_cell(x) for x in row) + "\n")


def _fmt_cell(x):
    if isinstance(x, float):
        return f"{x:.16g}"
    return str(x)


def _eigenpairs(med: ContrastMedium, cfg: dict, count: int):
    """The ``count`` smallest eigenpairs of the configured grid operator.

    Returns (eigenvalues, vectors, residuals, labels, h): the r^2-weighted
    radial operator for radial media, the finite-volume grid otherwise.
    """
    geom = med.geometry
    if isinstance(geom, RadialGeometry):
        n = int(round(1.0 / cfg["medium"].get("h", 1e-3)))
        opr = radial3d.radial_operator(geom.a, med.epsilon, n, bc=med.bc.kind)
        w, v, res = radial3d.radial_eigenpairs(opr, count)
        return w, v, res, opr.labels, opr.h
    opr = fdm.assemble(med, _grid_n(cfg, med))
    result = fdm.smallest_eigenpairs(opr, count)
    return (result.eigenvalues, result.eigenvectors, result.residuals,
            opr.grid.labels, opr.grid.h)


def run_spectrum(cfg: dict, out: str, fmt: str = "csv") -> dict:
    """Finite-contrast spectrum of the configured medium."""
    lams, _v, resid, _labels, _h = _eigenpairs(_medium(cfg), cfg, cfg.get("count", 6))
    rows = [(j + 1, float(l), float(r)) for j, (l, r) in enumerate(zip(lams, resid))]
    _emit(rows, "j,lambda,residual", os.path.join(out, "spectrum.csv"), fmt)
    return {"eigenvalues": [float(l) for l in lams]}


def run_limit(cfg: dict, out: str, fmt: str = "csv") -> dict:
    """Limit spectrum (constant-trace and zero-flux families)."""
    med = _medium(cfg)
    lam_max = cfg.get("lambda_max", 50.0)
    geom = med.geometry
    if isinstance(geom, RadialGeometry):
        pairs, _ = radial3d.sphere_limit_spectrum(geom.a, lam_max)
        rows = [("constant_trace", float(l), 1.0,
                 abs(radial3d.sphere_char(geom.a, l)), 0.0) for l, _f in pairs]
        _emit(rows, "branch,lambda,c_1,flux_residual,pde_residual",
              os.path.join(out, "limit.csv"), fmt)
        return {"eigenvalues": [r[1] for r in rows], "S1": []}
    spec = limitspec.limit_spectrum(med, lam_max, _grid_n(cfg, med))
    rows = [(p.branch, p.lam, *[float(np.real(ci)) for ci in p.c],
             p.flux_residual, p.pde_residual) for p in spec.pairs]
    cols = ",".join(f"c_{i + 1}" for i in range(geom.n_inclusions))
    _emit(rows, f"branch,lambda,{cols},flux_residual,pde_residual",
          os.path.join(out, "limit.csv"), fmt)
    if isinstance(geom, Geometry1D) and med.bc.kind in ("dirichlet", "neumann"):
        exact = exact1d.limit_spectrum_1d(geom, med.bc, lam_max)
        rows = [(branch, i + 1, l, np.sqrt(l), 0.0)
                for branch, family in (("S1", exact.S1), ("S2", exact.S2))
                for i, (l, _f) in enumerate(family)]
        _emit(rows, "branch,index,lambda,omega,residual",
              os.path.join(out, "exact_limit.csv"), fmt)
    return {"eigenvalues": [p.lam for p in spec.pairs],
            "branches": [p.branch for p in spec.pairs],
            "unresolved": list(spec.unresolved)}


def run_dispersion(cfg: dict, out: str, fmt: str = "csv") -> dict:
    """Band structure over the configured Bloch-number and contrast grids."""
    med = _medium(cfg)
    k_grid = cfg.get("k_grid")
    if not k_grid:
        raise ConfigError("dispersion needs a k_grid")
    eps_list = cfg.get("eps_list", [0.0, med.epsilon] if med.epsilon > 0 else [0.0])
    branch_count = cfg.get("branch_count", 2)
    n = _grid_n(cfg, med) if isinstance(med.geometry, Geometry1D) else None
    bands = bloch.dispersion_sweep(med, k_grid, branch_count, eps_list, n)
    rows = [(p.k, p.eps, p.branch, p.lam, p.omega) for p in bands.points()]
    _emit(rows, "k,epsilon,branch,lambda,omega",
          os.path.join(out, "bands.csv"), fmt)
    gap_rows = [(eps, lo, hi) for eps in bands.eps_list
                for lo, hi in bloch.gap_report(bands, eps)]
    _emit(gap_rows, "epsilon,gap_lo,gap_hi", os.path.join(out, "gaps.csv"), fmt)
    return {"crossings": list(bands.crossings), "gaps": gap_rows}


def _limit_reference(med: ContrastMedium, cfg: dict, lam_max: float) -> np.ndarray:
    geom = med.geometry
    if isinstance(geom, RadialGeometry):
        pairs, _ = radial3d.sphere_limit_spectrum(geom.a, lam_max)
        return np.array([l for l, _f in pairs])
    if isinstance(geom, Geometry1D) and med.bc.kind in ("dirichlet", "neumann"):
        return exact1d.limit_spectrum_1d(geom, med.bc, lam_max).all_eigenvalues
    spec = limitspec.limit_spectrum(med.with_epsilon(0.0), lam_max,
                                    _grid_n(cfg, med))
    return spec.eigenvalues


def run_converge(cfg: dict, out: str, fmt: str = "csv") -> dict:
    """Contrast sweep of one grid spectrum with affine extrapolation to 0.

    The sweep must be geometric with ratio <= 1/2, have at least 4 points
    and stay at or above EPS_FLOOR.  Divergent (inclusion-dominated)
    branches are detected by growth along the sweep and excluded from
    extrapolation.
    """
    med = _medium(cfg)
    eps_list = sorted(cfg.get("eps_list", [1e-1, 1e-2, 1e-3, 1e-4]), reverse=True)
    if len(eps_list) < 4:
        raise ConfigError("converge needs >= 4 contrast values")
    ratios = [eps_list[i + 1] / eps_list[i] for i in range(len(eps_list) - 1)]
    if max(ratios) > 0.5 + 1e-12 or max(ratios) / min(ratios) > 1.0 + 1e-9:
        raise ConfigError("eps_list must be geometric with ratio <= 1/2")
    if eps_list[-1] < EPS_FLOOR:
        raise ConfigError(f"converge needs every contrast >= {EPS_FLOOR:g}: below it the "
                          "grid eigenvalues carry rounding noise of 1e-7 to 1e-5, "
                          "which the affine fit cannot resolve")
    count = cfg.get("count", 4)

    table, flatness = [], []                       # (n_eps, count) each
    for eps in eps_list:
        w, v, _res, labels, h = _eigenpairs(med.with_epsilon(eps), cfg, count)
        table.append(w[:count])
        inner = v[labels > 0]
        flatness.append([float(np.max(np.abs(inner[:, j] - inner[:, j].mean()))
                               / max(np.max(np.abs(v[:, j])), 1e-300))
                         if inner.size else 0.0 for j in range(count)])
    table, flatness = np.array(table), np.array(flatness)
    lam_ref = _limit_reference(med, cfg, float(table.max()) * 1.5 + 10.0)

    eps_arr = np.array(eps_list)
    branches = []
    for j in range(count):
        lam = table[:, j]
        growth = lam[-1] / lam[0] if lam[0] > 0 else np.inf
        divergent = bool(growth > 5.0 or np.any(lam[1:] / lam[:-1] > 5.0))
        entry = {"branch": j + 1, "lambda": lam.tolist(), "divergent": divergent}
        if not divergent:
            coef = np.polyfit(eps_arr, lam, 1)
            resid = float(np.max(np.abs(np.polyval(coef, eps_arr) - lam)))
            lam0 = float(coef[1])
            entry.update(slope=float(coef[0]), extrapolated=lam0,
                         fit_residual=resid)
            if lam_ref.size:
                near = float(lam_ref[np.argmin(np.abs(lam_ref - lam0))])
                grid_tol = 20.0 * h ** 2 * max(near, 1.0) + 1e-8
                entry.update(limit=near,
                             deviation=abs(lam0 - near),
                             passed=bool(abs(lam0 - near)
                                         <= max(5.0 * resid, grid_tol)))
            Cfit = np.polyfit(eps_arr, flatness[:, j], 1)[0]
            entry["flatness_C"] = float(Cfit)
        branches.append(entry)

    if fmt == "csv":   # a JSON table would take the report's name; the report holds it
        rows = [(float(e), j + 1, float(table[i, j]))
                for i, e in enumerate(eps_list) for j in range(count)]
        _emit(rows, "epsilon,branch,lambda", os.path.join(out, "converge.csv"), fmt)
    report = {"eps_list": eps_list, "branches": branches,
              "passed": all(b.get("passed", True) for b in branches)}
    _write_json(os.path.join(out, "converge.json"), report)
    return report


def _check(name, fn):
    try:
        ok, detail = fn()
    except Exception as exc:                       # failures are data here
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    return {"name": name, "passed": bool(ok), "detail": str(detail)}


def run_validate(cfg: dict, out: str, fmt: str = "csv") -> dict:
    """Geometry-appropriate subset of the acceptance checks; verdict JSON."""
    med = _medium(cfg)
    geom = med.geometry
    checks = []

    if isinstance(geom, (Geometry1D, Geometry2D)):
        n = _grid_n(cfg, med) if isinstance(geom, Geometry1D) else None
        neumann = med.bc.kind == "neumann"
        # the reduction is contrast-free, so one system serves every check
        # and contrast below; a failed build fails each check that uses it
        try:
            shared = None if neumann else dtn.build_dtn(med, n)
        except Exception as exc:                   # failures are data here
            shared = exc

        def dtn_system():
            if isinstance(shared, Exception):
                raise shared
            return shared

        def dtn_identity():
            if neumann:
                return True, "skipped (Neumann closure has no trace reduction)"
            sysd = dtn_system()
            f = np.where(sysd.grid.labels > 0, 1.0, 0.5)
            worst = 0.0
            for eps in (1e-1, 1e-3):
                u, _tr = dtn.apply_Bhat(sysd, eps, f)
                u2 = fdm.solve(fdm.assemble(med.with_epsilon(eps), n), f)
                worst = max(worst, float(np.max(np.abs(u - u2))))
            return worst < 1e-10, f"max deviation {worst:.2e}"
        checks.append(("dtn_identity", dtn_identity))

        def np11_negative():
            if neumann:
                return True, "skipped"
            ev = np.linalg.eigvalsh(dtn_system().Np11)
            return bool(ev.max() < 0), f"largest constants-block eigenvalue {ev.max():.4f}"
        checks.append(("exterior_constants_negative", np11_negative))

    if isinstance(geom, Geometry1D) and med.bc.kind in ("dirichlet", "neumann"):
        def limit_match():
            lam_max = cfg.get("lambda_max", 50.0)
            exact = exact1d.limit_spectrum_1d(geom, med.bc, lam_max)
            spec = limitspec.limit_spectrum(med.with_epsilon(0.0), lam_max, n)
            ref = exact.all_eigenvalues
            worst = 0.0
            for lam in spec.eigenvalues:
                worst = max(worst, float(np.min(np.abs(ref - lam)) / lam))
            return worst < 1e-3, f"worst relative deviation {worst:.2e}"
        checks.append(("limit_matches_exact", limit_match))

    if isinstance(geom, RadialGeometry):
        def sphere_checks():
            pairs, s1 = radial3d.sphere_limit_spectrum(geom.a, 80.0)
            roots = radial3d.sphere_det_scan(geom.a, 80.0, 2000)
            worst = max(abs(r - p[0]) / p[0] for r, p in zip(roots, pairs))
            return (s1 == () and worst < 1e-3), f"det-scan deviation {worst:.2e}"
        checks.append(("sphere_limit", sphere_checks))

    results = [_check(name, fn) for name, fn in checks]
    verdict = {"criteria": results, "passed": all(r["passed"] for r in results)}
    _write_json(os.path.join(out, "validate.json"), verdict)
    return verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="highcontrast",
        description="spectra of high-contrast composite media")
    parser.add_argument("task", choices=["spectrum", "limit", "dispersion",
                                         "converge", "validate"])
    parser.add_argument("--config", required=True, help="JSON study configuration")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if "task" in cfg and cfg["task"] != args.task:
            raise ConfigError(f"config task {cfg['task']!r} does not match "
                              f"subcommand {args.task!r}")
        os.makedirs(args.out, exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    run, failure = {"spectrum": (run_spectrum, None), "limit": (run_limit, None),
                    "dispersion": (run_dispersion, None),
                    "converge": (run_converge, "convergence check failed"),
                    "validate": (run_validate, "validation failed")}[args.task]
    try:
        if not run(cfg, args.out, args.format).get("passed", True):
            print(failure, file=sys.stderr)
            return EXIT_VALIDATION
    except (ConfigError, GeometryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (fdm.EigensolverError, fdm.SolvabilityError, RuntimeError,
            ValueError, np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
