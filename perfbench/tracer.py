"""Span tracer for the patchfem pipeline, installed from outside the program.

``install`` wraps each traced function by name where its caller looks it up
(a module global or a class attribute). Every call records one span: name,
start, end, parent span and the ``run_single`` span it belongs to. Spans stay
in flat in-memory arrays until ``write`` stores them as gzipped JSON.
``layer_metrics`` turns them into per-layer self times and counts; a span's
self time is its duration minus the durations of its child spans.

A name that a later version of the program no longer has is skipped, and the
metrics built only from it are left out, so refactors do not break tracing.
"""

from __future__ import annotations

import array
import functools
import gzip
import hashlib
import importlib
import json
import time

import numpy as np

NO_SPAN = -1
HOOK_SPAN = "trace.hooks"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.run = array.array("i")
        self._stack = [NO_SPAN]
        self._run = NO_SPAN
        self.wrapped: set[str] = set()
        self.missing: list[str] = []
        self.broken_hooks: set[str] = set()
        self.counts: dict[str, float] = {}
        self.patterns: set = set()
        self._last_reduced = None
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, sets_run: bool) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        if sets_run:
            self._run = idx
        self.run.append(self._run)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, outer_run: int) -> None:
        self._stack.pop()
        self._run = outer_run

    def _run_hook(self, name, hook, args, result, exc) -> None:
        nid = self._name_id(HOOK_SPAN)
        outer_run = self._run
        idx = self._open(nid, False)
        self.start[idx] = time.perf_counter()
        try:
            hook(self, args, result, exc)
        except (AttributeError, TypeError, IndexError, KeyError):
            # The program's return types changed; drop that hook's counts.
            self.broken_hooks.add(name)
        finally:
            self.end[idx] = time.perf_counter()
            self._close(outer_run)

    def wrap(self, owner, attr: str, name: str, hook=None, sets_run=False) -> None:
        """Replace ``owner.attr`` by a traced version recording spans ``name``."""
        original = vars(owner).get(attr)
        if not callable(original):
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        nid = self._name_id(name)
        perf_counter = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            outer_run = self._run
            idx = self._open(nid, sets_run)
            result = exc = None
            self.start[idx] = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                self.end[idx] = perf_counter()
                self._close(outer_run)
                if hook is not None:
                    self._run_hook(name, hook, args, result, exc)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))
        self.wrapped.add(name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- analysis ---------------------------------------------------------

    def self_time_by_name(self) -> dict[str, float]:
        """Summed self time per span name: duration minus child durations."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        totals = np.bincount(name, weights=dur - child, minlength=len(self.names))
        return {n: float(totals[i]) for i, n in enumerate(self.names)}

    def calls_by_name(self) -> dict[str, int]:
        name = np.frombuffer(self.name, dtype=np.int32)
        calls = np.bincount(name, minlength=len(self.names))
        return {n: int(calls[i]) for i, n in enumerate(self.names)}

    def layer_metrics(self) -> dict[str, float]:
        self_t = self.self_time_by_name()
        calls = self.calls_by_name()
        out: dict[str, float] = {}
        for metric, sources in SELF_TIME_METRICS.items():
            present = [s for s in sources if s in self.wrapped]
            if present:
                out[metric] = sum(self_t.get(s, 0.0) for s in present)
        for metric, source in CALL_COUNT_METRICS.items():
            if source in self.wrapped:
                out[metric] = calls.get(source, 0)
        for hook_name, (_, keys) in HOOKS.items():
            if hook_name in self.wrapped and hook_name not in self.broken_hooks:
                for key in keys:
                    out[key] = self.counts.get(key, 0)
        if "assemble" in self.wrapped and "assemble" not in self.broken_hooks:
            out["assembly.patterns"] = len(self.patterns)
        classified = out.pop("adaptation.classified_patches", None)
        if classified:
            out["adaptation.cut_frac"] = out["adaptation.cut_patches"] / classified
        if out.get("solver.cg_iters"):
            out["solver.ms_per_iter"] = 1e3 * out["solver.cg_s"] / out["solver.cg_iters"]
        return out

    def write(self, path) -> None:
        payload = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "run": self.run.tolist(),
            "missing": self.missing,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


# -- what is traced -----------------------------------------------------------

def _mesh_hook(tracer, args, mesh, exc):
    if exc is None:
        tracer.count("mesh.patches", mesh.n_patches)


def _classify_hook(tracer, args, classification, exc):
    if exc is None:
        tracer.count("adaptation.cut_patches", sum(c.is_cut for c in classification.cuts))
        tracer.count("adaptation.classified_patches", len(classification.cuts))


def _adapt_hook(tracer, args, result, exc):
    tracer.count("adaptation.refine_retries", 0)
    tracer.count("adaptation.conflicts", 0)
    if exc is not None and type(exc).__name__ == "RefinementRequired":
        tracer.count("adaptation.refine_retries")
    elif exc is None:
        tracer.count("adaptation.conflicts", len(result[2]))


def _assemble_hook(tracer, args, system, exc):
    if exc is not None:
        return
    matrix = system.matrix.tocsr()
    tracer.count("assembly.ndofs", system.n_dof)
    tracer.count("assembly.nnz", matrix.nnz)
    digest = hashlib.blake2b(np.ascontiguousarray(matrix.indptr).tobytes())
    digest.update(np.ascontiguousarray(matrix.indices).tobytes())
    n = getattr(args[0], "n", None) if args else None
    tracer.patterns.add((n if n is not None else matrix.shape, digest.hexdigest()))


def _reduced_hook(tracer, args, result, exc):
    if exc is None:
        a_ff = result[0]
        tracer._last_reduced = (a_ff.nnz, a_ff.shape[0])


def _cg_hook(tracer, args, report, exc):
    if exc is None:
        nnz_ff, n_free = tracer._last_reduced
        tracer.count("solver.cg_iters", report.iterations)
        tracer.count("solver.spmv_bytes_computed",
                     report.iterations * (12 * nnz_ff + 8 * n_free))


# span name -> (hook, counter keys it fills)
HOOKS = {
    "build_structured_mesh": (_mesh_hook, ("mesh.patches",)),
    "classify_all": (_classify_hook, ("adaptation.cut_patches",
                                      "adaptation.classified_patches")),
    "adapt": (_adapt_hook, ("adaptation.refine_retries", "adaptation.conflicts")),
    "assemble": (_assemble_hook, ("assembly.ndofs", "assembly.nnz")),
    "reduced": (_reduced_hook, ()),
    "cg_solve": (_cg_hook, ("solver.cg_iters", "solver.spmv_bytes_computed")),
}

# per-layer metric -> span names whose self times it sums
SELF_TIME_METRICS = {
    "mesh.build_s": ("build_structured_mesh",),
    "levelset.eval_s": ("eval",),
    "levelset.crossing_s": ("segment_crossings",),
    "adaptation.classify_s": ("classify_all",),
    "adaptation.resolve_s": ("resolve_edge_params",),
    "adaptation.configs_s": ("build_configs",),
    "adaptation.audit_s": ("max_angle_audit",),
    "assembly.assemble_s": ("assemble",),
    "assembly.reduce_s": ("reduced",),
    "solver.cg_s": ("cg_solve",),
    "problems.errors_s": ("error_norms",),
    "runner.self_s": ("run_single", "run_sweep", "run_convergence"),
    "cli.self_s": ("main", "write_csv"),
}

CALL_COUNT_METRICS = {
    "levelset.eval_calls": "eval",
    "levelset.crossing_calls": "segment_crossings",
    "runner.solves": "run_single",
}

# module -> functions wrapped there (where the callers look them up)
MODULE_TARGETS = {
    "patchfem.runner": ("build_structured_mesh", "adapt", "build_configs", "assemble",
                        "cg_solve", "error_norms", "max_angle_audit", "run_single"),
    "patchfem.adaptation": ("classify_all", "resolve_edge_params", "build_configs"),
    "patchfem.cli": ("main", "run_single", "run_sweep", "run_convergence", "write_csv"),
}
# (module, class) -> methods wrapped on the class
METHOD_TARGETS = {
    ("patchfem.assembly", "LinearSystem"): ("reduced",),
    ("patchfem.levelset", "Circle"): ("eval", "segment_crossings"),
    ("patchfem.levelset", "HorizontalLine"): ("eval", "segment_crossings"),
    ("patchfem.levelset", "TiltedLine"): ("eval", "segment_crossings"),
}


def install() -> Tracer:
    """Wrap every traced function of the already imported patchfem package."""
    tracer = Tracer()
    for module_name, attrs in MODULE_TARGETS.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            tracer.wrap(module, attr, attr, hook=HOOKS.get(attr, (None,))[0],
                        sets_run=attr == "run_single")
    for (module_name, cls_name), attrs in METHOD_TARGETS.items():
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        if cls is None:
            tracer.missing.append(f"{module_name}.{cls_name}")
            continue
        for attr in attrs:
            tracer.wrap(cls, attr, attr, hook=HOOKS.get(attr, (None,))[0])
    return tracer
