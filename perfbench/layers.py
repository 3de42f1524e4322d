"""Spans around calls into the package's layers, recorded from outside the package.

:class:`Tracer` replaces public functions of the ``highcontrast`` modules
with wrappers for the length of one traced pass.  A function is replaced
wherever it is bound: in the module that defines it and in every module
that imported it by name (``limitspec.build_grid`` is ``fdm.build_grid``).
Each wrapper records a span (name, start, end, parent) in memory; counts
and ratios are taken at the same boundaries.  A layer's self time is the
time of its spans minus the time of their child spans.

The function a root scan evaluates (a determinant, a transfer-matrix
trace) is wrapped too: each evaluation is a span named after the caller of
the scan, so evaluation time counts to the layer that asked for the scan
and ``roots.scan_s`` keeps only the bracketing and polishing.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict

#: (module, attribute, span name) of every wrapped function or method.
SPANS = (
    ("geometry", "medium_from_config", "geometry.medium"),
    ("cli", "main", "cli.main"),
    ("cli", "run_spectrum", "cli.run"),
    ("cli", "run_limit", "cli.run"),
    ("cli", "run_dispersion", "cli.run"),
    ("cli", "run_converge", "cli.run"),
    ("cli", "run_validate", "cli.run"),
    ("cli", "load_config", "cli.config"),
    ("cli", "_emit", "cli.emit"),
    ("limitspec", "write_limit_csv", "cli.emit"),
    ("exact1d", "write_spectrum_csv", "cli.emit"),
    ("fdm", "build_grid", "fdm.build_grid"),
    ("fdm", "assemble", "fdm.assemble"),
    ("fdm", "smallest_eigenpairs", "fdm.eigsh"),
    ("fdm", "solve", "fdm.solve"),
    ("dtn", "_unit_stiffness_blocks", "dtn.stiffness_blocks"),
    ("dtn", "build_dtn", "dtn.build"),
    ("dtn", "apply_Bhat", "dtn.apply"),
    ("limitspec", "limit_spectrum", "limitspec.limit_spectrum"),
    ("limitspec", "build_exterior", "limitspec.build_exterior"),
    ("limitspec", "ExteriorSystem.exterior_eigs", "limitspec.exterior_eigs"),
    ("limitspec", "det_scan", "limitspec.det_scan"),
    ("limitspec", "zero_flux_branch", "limitspec.zero_flux"),
    ("_roots", "scan_roots", "roots.scan"),
    ("exact1d", "transfer_spectrum_1d", "exact1d.transfer"),
    ("exact1d", "limit_spectrum_1d", "exact1d.limit_1d"),
    ("bloch", "dispersion_sweep", "bloch.sweep"),
    ("radial3d", "radial_operator", "radial3d.operator"),
    ("radial3d", "radial_eigenpairs", "radial3d.eigpairs"),
    ("radial3d", "sphere_det_scan", "radial3d.det_scan"),
    ("radial3d", "sphere_limit_spectrum", "radial3d.limit"),
)

#: Methods that are only counted: they run thousands of times inside spans.
COUNTED = (("limitspec", "ExteriorSystem.helmholtz_factor", "limitspec.factorizations"),)

#: Per-layer metrics of a traced pass, with units, in report order.
METRICS = (
    ("geometry.medium_s", "s"),
    ("cli.config_s", "s"),
    ("cli.emit_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("cli.self_s", "s"),
    ("fdm.build_grid_s", "s"),
    ("fdm.build_grid_calls", "count"),
    ("fdm.assemble_s", "s"),
    ("fdm.assemble_calls", "count"),
    ("fdm.cells_assembled", "count"),
    ("fdm.eigsh_s", "s"),
    ("fdm.eigsh_calls", "count"),
    ("fdm.solve_s", "s"),
    ("dtn.stiffness_blocks_s", "s"),
    ("dtn.stiffness_blocks_calls", "count"),
    ("dtn.build_s", "s"),
    ("dtn.interface_faces", "count"),
    ("dtn.apply_s", "s"),
    ("limitspec.limit_spectrum_calls", "count"),
    ("limitspec.build_exterior_s", "s"),
    ("limitspec.build_exterior_calls", "count"),
    ("limitspec.exterior_eigs_s", "s"),
    ("limitspec.exterior_eigs_calls", "count"),
    ("limitspec.exterior_eigs_kept_ratio", "ratio"),
    ("limitspec.det_scan_s", "s"),
    ("limitspec.factorizations", "count"),
    ("limitspec.factorizations_per_root", "ratio"),
    ("limitspec.zero_flux_s", "s"),
    ("roots.scan_s", "s"),
    ("roots.evals", "count"),
    ("roots.evals_per_root", "ratio"),
    ("exact1d.transfer_s", "s"),
    ("exact1d.transfer_calls", "count"),
    ("exact1d.limit_1d_s", "s"),
    ("bloch.sweep_s", "s"),
    ("bloch.points", "count"),
    ("bloch.branches_used_ratio", "ratio"),
    ("radial3d.operator_s", "s"),
    ("radial3d.eigpairs_s", "s"),
    ("radial3d.det_scan_s", "s"),
    ("radial3d.limit_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    """Span recorder for one traced pass at a time."""

    def __init__(self):
        self.modules = [importlib.import_module(f"highcontrast.{m}")
                        for m in ("geometry", "_roots", "fdm", "dtn", "exact1d",
                                  "limitspec", "bloch", "radial3d", "cli")]
        self.modules.append(importlib.import_module("highcontrast"))
        self.spans = []           # [name, start, end, parent index]
        self.stack = []           # indices of the open spans
        self.frames = []          # (name, args, kwargs) of the open spans
        self.counts = Counter()
        self._ext = {}            # id(ExteriorSystem) -> [computed, kept]
        self._undo = []

    # -- installing -----------------------------------------------------

    def install(self):
        self.spans, self.stack, self.frames = [], [], []
        self.counts, self._ext = Counter(), {}
        for mod, attr, name in SPANS:
            self._replace(mod, attr, lambda fn, name=name: self._span(fn, name))
        for mod, attr, name in COUNTED:
            self._replace(mod, attr, lambda fn, name=name: self._counter(fn, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _replace(self, mod, attr, make):
        """Wrap one target; a target the package no longer has is skipped,
        and its metrics read 0."""
        module = importlib.import_module(f"highcontrast.{mod}")
        if "." in attr:                       # a method: bound on its class only
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name, None)
            original = vars(owner).get(meth) if owner is not None else None
            if original is None:
                return
            self._undo.append((owner, meth, original))
            setattr(owner, meth, make(original))
            return
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = make(original)
        for m in self.modules:                # every name the function is bound to
            for key, value in list(vars(m).items()):
                if value is original:
                    self._undo.append((m, key, original))
                    setattr(m, key, wrapper)

    # -- wrappers -------------------------------------------------------

    def _open(self, name, args=(), kwargs=None):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(len(self.spans) - 1)
        self.frames.append((name, args, kwargs or {}))

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()
        self.frames.pop()

    def _span(self, fn, name):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            self._open(name, args, kwargs)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            self.counts[name] += 1
            if after is not None:
                after(args, kwargs, out, state)
            return out
        return wrapper

    def _counter(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- hooks at layer boundaries --------------------------------------

    def _before_roots_scan(self, args, kwargs):
        """Wrap the scanned function: each evaluation is a span of the caller."""
        caller = self.frames[-1][0] if self.frames else "roots.eval"
        f = _arg(args, kwargs, 0, "f")

        def evaluate(x):
            self.counts["roots.evals"] += 1
            self._open(caller)
            try:
                return f(x)
            finally:
                self._close()
        if "f" in kwargs:
            return args, dict(kwargs, f=evaluate), None
        return (evaluate,) + tuple(args[1:]), kwargs, None

    def _after_roots_scan(self, args, kwargs, out, state):
        self.counts["roots.found"] += len(out.roots)

    def _after_fdm_assemble(self, args, kwargs, out, state):
        self.counts["fdm.cells_assembled"] += out.dimension

    def _after_dtn_stiffness_blocks(self, args, kwargs, out, state):
        self.counts["dtn.interface_faces"] += len(out[0])

    def _after_limitspec_det_scan(self, args, kwargs, out, state):
        self.counts["limitspec.roots"] += len(out.pairs) + len(out.unresolved)

    def _before_limitspec_exterior_eigs(self, args, kwargs):
        return args, kwargs, getattr(args[0], "_eig_cache", None)

    def _after_limitspec_exterior_eigs(self, args, kwargs, out, cache_before):
        ext, kept = args[0], len(out[0])
        cache = getattr(ext, "_eig_cache", None)
        if cache is not None and cache is not cache_before:   # this call ran eigh
            self._ext[id(ext)] = [len(cache[1]), kept]
        else:
            entry = self._ext.setdefault(id(ext), [0, 0])
            entry[1] = max(entry[1], kept)

    def _after_bloch_sweep(self, args, kwargs, out, state):
        self.counts["bloch.points"] += (len(_arg(args, kwargs, 1, "k_grid"))
                                        * len(_arg(args, kwargs, 3, "eps_list")))

    def _after_limitspec_limit_spectrum(self, args, kwargs, out, state):
        for name, a, kw in reversed(self.frames):
            if name == "bloch.sweep":
                self.counts["bloch.limit_eigenvalues"] += len(out.pairs)
                self.counts["bloch.branches_kept"] += _arg(a, kw, 2, "branch_count")
                break

    # -- results --------------------------------------------------------

    def pass_metrics(self, bytes_out: int) -> dict:
        """Per-layer metrics of the pass just traced."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for (name, start, end, _parent), inner in zip(self.spans, child):
            own[name] += end - start - inner
        c = self.counts
        computed = sum(e[0] for e in self._ext.values())

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "geometry.medium_s": own["geometry.medium"],
            "cli.config_s": own["cli.config"],
            "cli.emit_s": own["cli.emit"],
            "cli.bytes_out": bytes_out,
            "cli.self_s": own["cli.main"] + own["cli.run"],
            "limitspec.exterior_eigs_kept_ratio":
                ratio(sum(e[1] for e in self._ext.values()), computed),
            "limitspec.factorizations": c["limitspec.factorizations"],
            "limitspec.factorizations_per_root":
                ratio(c["limitspec.factorizations"], c["limitspec.roots"]),
            "roots.evals": c["roots.evals"],
            "roots.evals_per_root": ratio(c["roots.evals"], c["roots.found"]),
            "fdm.cells_assembled": c["fdm.cells_assembled"],
            "dtn.interface_faces": c["dtn.interface_faces"],
            "bloch.points": c["bloch.points"],
            "bloch.branches_used_ratio":
                ratio(c["bloch.branches_kept"], c["bloch.limit_eigenvalues"]),
            "trace.spans": len(self.spans),
        }
        for metric, _unit in METRICS:
            if metric in m:
                continue
            base, _, kind = metric.rpartition("_")
            if kind == "s":
                m[metric] = own[base]
            elif kind == "calls":
                m[metric] = c[base]
        return m

    def dump(self):
        """The spans of the pass just traced, as plain records."""
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


def combine(passes: list[dict], traced_s: list[float], plain_s: list[float]) -> dict:
    """One value per metric from several traced passes: the median over the
    passes, and the tracing overhead as traced minus untraced median pass time."""
    out = {metric: statistics.median(p[metric] for p in passes) for metric, _ in METRICS}
    out["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    return out


def varying_counts(passes: list[dict]) -> list[str]:
    """Count metrics that differ between the traced passes of one run."""
    return [metric for metric, unit in METRICS
            if unit == "count" and len({p[metric] for p in passes}) > 1]
