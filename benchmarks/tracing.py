"""Per-layer spans for the traced run, recorded from outside the package.

Each traced function is replaced by a wrapper at every attribute of every
``localhom`` module (and the class, for methods) that refers to it, so the
trace follows whichever path the product takes.  A span records its name,
start, end, parent span and job id; spans stay in memory and are written
out when the run ends.  Sizes (matrix entries, simplices, bytes) are
computed from the arguments and results after the call returns, on a
clock that is paused meanwhile, so sizing costs no span any time.

A layer's self time is its spans' duration minus the time their child
spans cover.  A span nested inside a span of the same name (for example
the plain chain complex built inside an augmented one) adds self time but
is not counted as a separate call, and its sizes are not counted again.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _snf(args, result):
    m = args[0]
    nnz = sum(1 for row in m.entries for x in row if x)
    return {"dense_entries": m.rows * m.cols, "nnz": nnz, "max_side": max(m.rows, m.cols)}


def _multiply(args, result):
    a, b = args[0], args[1]
    return {"mul_adds": a.rows * a.cols * b.cols}


def _kernel(args, result):
    return {"dense_entries": args[0].rows * args[0].cols}


def _basis(args, result):
    return {"basis_simplices": sum(len(b) for b in result.bases)}


def _relative_basis(args, result):
    basis = sum(len(b) for b in result.bases)
    return {
        "basis_simplices": basis,
        "relative_basis": basis,
        "ambient_simplices": args[0].ambient.n_simplices(),
    }


def _closure(args, result):
    return {"simplices_out": result.n_simplices()}


def _subcomplex(args, result):
    return {"simplices_checked": args[0].n_simplices()}


def _scanned(args, result):
    return {"simplices_scanned": args[0].n_simplices()}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


# (span name, module, attribute or Class.method, sizer or None)
TARGETS = [
    ("exact.smith_normal_form", "localhom.exact", "smith_normal_form", _snf),
    ("exact.multiply", "localhom.exact", "multiply", _multiply),
    ("exact.kernel_basis_over_rationals", "localhom.exact", "kernel_basis_over_rationals", _kernel),
    ("chains.build", "localhom.chains", "chain_complex", _basis),
    ("chains.build", "localhom.chains", "augmented_chain_complex", _basis),
    ("chains.build", "localhom.chains", "augment", _basis),
    ("chains.build", "localhom.chains", "relative_chain_complex", _relative_basis),
    ("chains.check_boundary_squared", "localhom.chains", "ChainComplex.check_boundary_squared", None),
    ("complexes.closure", "localhom.complexes", "SimplicialComplex.from_label_facets", _closure),
    ("complexes.closure", "localhom.complexes", "SimplicialComplex.from_index_simplices", _closure),
    ("complexes.is_subcomplex_of", "localhom.complexes", "SimplicialComplex.is_subcomplex_of", _subcomplex),
    ("constructions.deleted", "localhom.constructions", "deleted", _scanned),
    ("constructions.link", "localhom.constructions", "link", _scanned),
    ("constructions.full_subcomplex", "localhom.constructions", "full_subcomplex", _scanned),
    ("constructions.build", "localhom.constructions", "complex_intersection", _scanned),
    ("constructions.build", "localhom.constructions", "cone", None),
    ("constructions.build", "localhom.constructions", "wedge", None),
    ("constructions.build", "localhom.constructions", "prism_product", None),
    ("constructions.build", "localhom.constructions", "disjoint_union", None),
    ("constructions.build", "localhom.constructions", "complex_union", None),
    ("constructions.build", "localhom.constructions", "relabel", None),
    ("homology.homology", "localhom.homology", "homology", None),
    ("homology.local", "localhom.homology", "local_homology", None),
    ("homology.local", "localhom.homology", "local_homology_multi", None),
    ("probe.vertex_verdict", "localhom.probe", "vertex_verdict", None),
    ("probe.pseudomanifold_check", "localhom.probe", "pseudomanifold_check", None),
    ("probe.obstruction_report", "localhom.probe", "obstruction_report", None),
    ("mayer_vietoris.decomposition", "localhom.mayer_vietoris", "MvDecomposition.__init__", None),
    ("mayer_vietoris.mv_exactness_check", "localhom.mayer_vietoris", "mv_exactness_check", None),
    ("scx.read", "localhom.scx", "read_complex", _file_bytes),
    ("scx.write", "localhom.scx", "write_complex", _file_bytes),
    ("cli.main", "localhom.cli", "main", None),
    ("catalog.builtin", "localhom.catalog", "builtin", None),
]

# Per-layer metrics in report order: (name, unit, better).
LAYER_METRICS = [
    ("exact.smith_normal_form.calls", "count", "lower"),
    ("exact.smith_normal_form.self_s", "s", "lower"),
    ("exact.smith_normal_form.dense_entries", "count", "lower"),
    ("exact.smith_normal_form.nnz", "count", "lower"),
    ("exact.smith_normal_form.density", "ratio", "lower"),
    ("exact.smith_normal_form.max_side", "count", "lower"),
    ("exact.multiply.calls", "count", "lower"),
    ("exact.multiply.self_s", "s", "lower"),
    ("exact.multiply.mul_adds", "count", "lower"),
    ("exact.kernel_basis_over_rationals.calls", "count", "lower"),
    ("exact.kernel_basis_over_rationals.self_s", "s", "lower"),
    ("exact.kernel_basis_over_rationals.dense_entries", "count", "lower"),
    ("chains.build.calls", "count", "lower"),
    ("chains.build.self_s", "s", "lower"),
    ("chains.build.basis_simplices", "count", "lower"),
    ("chains.relative_yield", "ratio", "higher"),
    ("chains.check_boundary_squared.calls", "count", "lower"),
    ("chains.check_boundary_squared.self_s", "s", "lower"),
    ("complexes.closure.calls", "count", "lower"),
    ("complexes.closure.self_s", "s", "lower"),
    ("complexes.closure.simplices_out", "count", "lower"),
    ("complexes.is_subcomplex_of.calls", "count", "lower"),
    ("complexes.is_subcomplex_of.self_s", "s", "lower"),
    ("complexes.is_subcomplex_of.simplices_checked", "count", "lower"),
    ("constructions.deleted.calls", "count", "lower"),
    ("constructions.deleted.self_s", "s", "lower"),
    ("constructions.link.calls", "count", "lower"),
    ("constructions.link.self_s", "s", "lower"),
    ("constructions.full_subcomplex.calls", "count", "lower"),
    ("constructions.full_subcomplex.self_s", "s", "lower"),
    ("constructions.simplices_scanned", "count", "lower"),
    ("constructions.build.self_s", "s", "lower"),
    ("homology.homology.calls", "count", "lower"),
    ("homology.homology.self_s", "s", "lower"),
    ("homology.local.calls", "count", "lower"),
    ("homology.local.self_s", "s", "lower"),
    ("probe.vertex_verdict.calls", "count", "lower"),
    ("probe.vertex_verdict.self_s", "s", "lower"),
    ("probe.vertex_verdict.max_s", "s", "lower"),
    ("probe.pseudomanifold_check.self_s", "s", "lower"),
    ("probe.obstruction_report.self_s", "s", "lower"),
    ("mayer_vietoris.decomposition.calls", "count", "lower"),
    ("mayer_vietoris.decomposition.self_s", "s", "lower"),
    ("mayer_vietoris.mv_exactness_check.calls", "count", "lower"),
    ("mayer_vietoris.mv_exactness_check.self_s", "s", "lower"),
    ("scx.read.calls", "count", "lower"),
    ("scx.read.self_s", "s", "lower"),
    ("scx.read.bytes", "bytes", "lower"),
    ("scx.write.self_s", "s", "lower"),
    ("scx.write.bytes", "bytes", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("catalog.builtin.calls", "count", "lower"),
    ("catalog.builtin.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

NAME, START, END, PARENT, JOB, NESTED, SIZES = range(7)


class Tracer:
    """Records spans around the package's traced functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._open = Counter()
        self._paused = 0.0
        self._patches: list[tuple] = []

    def _clock(self) -> float:
        return perf_counter() - self._paused

    def _wrap(self, name, fn, sizer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, 0.0, 0.0, parent, tracer.job, tracer._open[name] > 0, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer._open[name] += 1
            span[START] = tracer._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = tracer._clock()
                tracer._open[name] -= 1
                tracer._stack.pop()
            if sizer is not None:
                paused = perf_counter()
                try:
                    span[SIZES] = sizer(args, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    span[SIZES] = None  # the product changed shape; sizes unknown
                tracer._paused += perf_counter() - paused
            return result

        return traced

    def install(self) -> None:
        """Patch every traced function present in the loaded package."""
        package = [m for n, m in sys.modules.items() if n == "localhom" or n.startswith("localhom.")]
        for name, module_name, attribute, sizer in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attribute:
                class_name, method = attribute.split(".")
                cls = getattr(module, class_name, None)
                raw = None if cls is None else cls.__dict__.get(method)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self._wrap(name, raw.__func__, sizer)))
                else:
                    setattr(cls, method, self._wrap(name, raw, sizer))
                self._patches.append((cls, method, raw))
                continue
            original = getattr(module, attribute, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, sizer)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        rows = [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
             "job": s[JOB], "sizes": s[SIZES]}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


class LayerTotals:
    """Calls, self time, sizes and longest span per span name, over some jobs."""

    def __init__(self, spans: list, jobs: set):
        durations = [s[END] - s[START] for s in spans]
        child_time = defaultdict(float)
        for s, d in zip(spans, durations):
            if s[PARENT] is not None:
                child_time[s[PARENT]] += d
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.longest = defaultdict(float)
        self.sizes = defaultdict(Counter)
        self.max_side = defaultdict(int)
        for i, (s, d) in enumerate(zip(spans, durations)):
            if s[JOB] not in jobs:
                continue
            name = s[NAME]
            self.self_s[name] += d - child_time[i]
            self.longest[name] = max(self.longest[name], d)
            if s[NESTED]:
                continue
            self.calls[name] += 1
            for key, value in (s[SIZES] or {}).items():
                if key == "max_side":
                    self.max_side[name] = max(self.max_side[name], value)
                else:
                    self.sizes[name][key] += value

    def counts(self) -> dict:
        """Everything that must repeat exactly for the same inputs."""
        return {name: (self.calls[name], dict(self.sizes[name]), self.max_side[name])
                for name in sorted(self.calls)}


def layer_metrics(totals: LayerTotals, overhead_ratio: float) -> dict:
    """The per-layer metrics, by the names in ``LAYER_METRICS``."""
    t = totals
    snf = "exact.smith_normal_form"
    dense = t.sizes[snf]["dense_entries"]
    build = t.sizes["chains.build"]
    scans = ("constructions.deleted", "constructions.link",
             "constructions.full_subcomplex", "constructions.build")
    values = {
        f"{snf}.dense_entries": dense,
        f"{snf}.nnz": t.sizes[snf]["nnz"],
        f"{snf}.density": t.sizes[snf]["nnz"] / dense if dense else 0.0,
        f"{snf}.max_side": t.max_side[snf],
        "exact.multiply.mul_adds": t.sizes["exact.multiply"]["mul_adds"],
        "exact.kernel_basis_over_rationals.dense_entries":
            t.sizes["exact.kernel_basis_over_rationals"]["dense_entries"],
        "chains.build.basis_simplices": build["basis_simplices"],
        "chains.relative_yield": (build["relative_basis"] / build["ambient_simplices"]
                                  if build["ambient_simplices"] else 0.0),
        "complexes.closure.simplices_out": t.sizes["complexes.closure"]["simplices_out"],
        "complexes.is_subcomplex_of.simplices_checked":
            t.sizes["complexes.is_subcomplex_of"]["simplices_checked"],
        "constructions.simplices_scanned": sum(t.sizes[n]["simplices_scanned"] for n in scans),
        "probe.vertex_verdict.max_s": t.longest["probe.vertex_verdict"],
        "scx.read.bytes": t.sizes["scx.read"]["bytes"],
        "scx.write.bytes": t.sizes["scx.write"]["bytes"],
        "trace.overhead_ratio": overhead_ratio,
    }
    out = {}
    for name, unit, _ in LAYER_METRICS:
        if name in values:
            value = values[name]
        elif name.endswith(".calls"):
            value = t.calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            value = t.self_s[name[: -len(".self_s")]]
        else:
            raise KeyError(name)
        out[name] = {"value": value, "unit": unit}
    return out
