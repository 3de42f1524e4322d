"""Dense algebra leaves numpy's BLAS thread pool asleep.

numpy and scipy each load their own OpenBLAS, each with its worker threads.
One threaded numpy call keeps numpy's workers spinning for about 0.1 s,
beside scipy's, which SuperLU and ARPACK keep busy; so grid- and
interface-sized dense algebra runs on scipy's BLAS (the ``fdm`` module
docstring states the rule).  A fresh interpreter records the threads that
``import numpy`` starts, runs the interface reduction's ``validate`` on the
96 x 96 centred square, the eps = 0 ``limit`` on the 128 x 128 centred
square (12288 exterior cells), a 1D ``converge`` (n = 4000) and
``fdm.solve`` on 20000 cells, and reads those threads' CPU ticks from /proc.
"""

import json
import os
import subprocess
import sys

import pytest

import highcontrast

SCRIPT = r"""
import json, os, sys, tempfile, time


def threads():
    return set(os.listdir("/proc/self/task"))


before = threads()
import numpy as np
workers = sorted(threads() - before)
from highcontrast import cli, fdm
from highcontrast.geometry import BoundaryKind, ContrastMedium, Geometry1D


def ticks():
    total = 0
    for tid in workers:
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])      # utime + stime
    return total


square = {"dim": 2, "domain": [1.0, 1.0], "inclusions": [[0.25, 0.75, 0.25, 0.75]],
          "h": 1 / 96, "epsilon": 1e-2, "bc": "dirichlet"}
interval = {"dim": 1, "domain": [-1.0, 1.0], "inclusions": [[-0.5, 0.5]],
            "h": 0.0005, "epsilon": 1e-2, "bc": "dirichlet"}
calls = [("validate", {"medium": square}),
         ("limit", {"medium": dict(square, h=1 / 128, epsilon=0.0), "lambda_max": 250.0}),
         ("converge", {"medium": interval, "eps_list": [1e-2, 1e-3, 1e-4, 1e-5], "count": 4})]
spent, start = {}, ticks()
with tempfile.TemporaryDirectory() as out:
    for task, cfg in calls:
        path = os.path.join(out, task + ".json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        t = ticks()
        if cli.main([task, "--config", path, "--out", out]) != 0:
            sys.exit(f"{task} failed")
        spent[task] = ticks() - t
medium = ContrastMedium(Geometry1D(-1.0, 1.0, ((-0.5, 0.5),)), 1e-2, BoundaryKind.dirichlet())
t = ticks()
fdm.solve(fdm.assemble(medium, 20000), np.ones(20000))
spent["solve"] = ticks() - t
time.sleep(0.5)             # a woken pool spins on for up to 0.2 s
spent["total"] = ticks() - start
print(json.dumps({"workers": len(workers), "ticks": spent}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_numpy_blas_threads_gain_no_cpu_time():
    src = os.path.dirname(os.path.dirname(os.path.abspath(highcontrast.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    if not report["workers"]:
        pytest.skip("numpy started no BLAS worker thread")
    # per call: a pool woken in one call may spin on into the next
    assert report["ticks"]["total"] == 0, report["ticks"]
