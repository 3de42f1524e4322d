"""The three study workloads: which CLI calls make up one pass, and their configs.

One pass is a fixed list of ``highcontrast`` subcommand calls.  The seed
changes the config text but never the discrete problem: rectangle corners
move by less than half a cell (the cell mask is unchanged), and the order
of Bloch numbers, of contrasts and of the spectrum calls is shuffled.  So
every seed does the same work per pass, and every count the traced run
reports is the same for every seed.

This module uses the standard library only, so that the benchmark can time
the import of the package without importing numpy first.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

CENTRE = (0.25, 0.75, 0.25, 0.75)
CORNERS = tuple((x, x + 0.25, y, y + 0.25) for x in (0.125, 0.625) for y in (0.125, 0.625))

#: Why the four-corner limit call fails on every seed.  Its inputs do not
#: depend on the seed, so the share of failed calls is the same in every run.
CORNER_FAULT = ("limitspec.det_scan brackets sign changes of det T, so it cannot "
                "see the even-multiplicity zeros of the four-corner layout")


@dataclass(frozen=True)
class Call:
    """One CLI subcommand call of a pass."""

    name: str
    task: str
    config: dict
    known_fault: str = ""


def _jitter(rect, h, rng):
    """Rectangle corners moved by less than half a cell: same cell mask."""
    return [v + rng.uniform(-0.4, 0.4) * h for v in rect]


def _square(h, rects, eps, bc="dirichlet"):
    return {"dim": 2, "domain": [1.0, 1.0], "inclusions": rects, "h": h,
            "epsilon": eps, "bc": bc}


def _shuffled(values, rng):
    values = list(values)
    rng.shuffle(values)
    return values


def _k_grid(half_width, rng):
    """Four Bloch numbers, uniform and symmetric inside (-w, w), in seeded order."""
    step = half_width / 2.0
    return _shuffled([(j + 0.5) * step for j in range(-2, 2)], rng)


def limit_2d(rng: random.Random) -> list[Call]:
    h1, h2 = 1.0 / 48, 1.0 / 32
    return [
        Call("limit-centre", "limit",
             {"medium": _square(h1, [_jitter(CENTRE, h1, rng)], 0.0),
              "lambda_max": 250.0}),
        Call("limit-corners", "limit",
             {"medium": _square(h2, [list(r) for r in CORNERS], 0.0),
              "lambda_max": 250.0},
             known_fault=CORNER_FAULT),
    ]


def bands(rng: random.Random) -> list[Call]:
    k1 = _k_grid(math.pi / 2, rng)
    k2 = _k_grid(math.pi, rng)
    h2 = 1.0 / 32
    return [
        Call("bands-1d", "dispersion",
             {"medium": {"dim": 1, "domain": [-1.0, 1.0], "inclusions": [[-0.6, 0.2]],
                         "h": 0.002, "epsilon": 0.1, "bc": {"bloch": k1[0]}},
              "k_grid": k1, "eps_list": _shuffled([1e-1, 1e-2, 0.0], rng),
              "branch_count": 4}),
        Call("bands-2d", "dispersion",
             {"medium": _square(h2, [_jitter(CENTRE, h2, rng)], 0.1, {"bloch": k2[0]}),
              "k_grid": k2, "eps_list": _shuffled([1e-1, 1e-2], rng),
              "branch_count": 4}),
    ]


def contrast_sweep(rng: random.Random) -> list[Call]:
    eps_sweep = [1e-2, 1e-3, 1e-4, 1e-5]
    h_spec, h_val = 1.0 / 192, 1.0 / 96
    calls = [
        Call("converge-interval", "converge",
             {"medium": {"dim": 1, "domain": [-1.0, 1.0], "inclusions": [[-0.5, 0.5]],
                         "h": 0.0005, "epsilon": 1e-2, "bc": "dirichlet"},
              "eps_list": _shuffled(eps_sweep, rng), "count": 4}),
        Call("converge-sphere", "converge",
             {"medium": {"dim": "radial", "inclusions": [0.5], "h": 0.00025,
                         "epsilon": 1e-2, "bc": "dirichlet"},
              "eps_list": _shuffled(eps_sweep, rng), "count": 4}),
    ]
    for eps in _shuffled([1e-1, 1e-2, 1e-3], rng):
        calls.append(Call(f"spectrum-{eps:g}", "spectrum",
                          {"medium": _square(h_spec, [_jitter(CENTRE, h_spec, rng)], eps),
                           "count": 6}))
    calls += [
        Call("validate-square", "validate",
             {"medium": _square(h_val, [_jitter(CENTRE, h_val, rng)], 1e-2)}),
        Call("validate-sphere", "validate",
             {"medium": {"dim": "radial", "inclusions": [0.5], "h": 0.001,
                         "epsilon": 1e-2, "bc": "dirichlet"}}),
    ]
    return calls


WORKLOADS = {"limit-2d": limit_2d, "bands": bands, "contrast-sweep": contrast_sweep}
