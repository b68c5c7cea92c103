"""Per-layer tracing of rydladder from outside its source.

``Tracer.install()`` replaces every public function of the seven modules with
a wrapper that records a span (name, start, end, parent) and rebinds each
module-level name that referred to the original, so calls made through the
names ``rydladder.cli`` imported are seen too.  The Hamiltonian returned by
``cli.build_model`` is switched to a CSR subclass that times and counts its
matrix-vector products.  Spans stay in memory; ``layer_metrics`` derives the
per-layer numbers from them after the run.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from collections import Counter

import numpy as np
import scipy.sparse as sp

LAYERS = ("geometry", "basis", "hamiltonians", "effective", "solvers", "observables", "cli")
# Per-value formatting and the argv entry point are not layer boundaries.
UNTRACED = {"cli.fmt", "cli.main"}
ROOT = "cli.run"
EIGENSOLVES = {"solvers.ground_state", "solvers.dense_eigs", "solvers.lanczos_ground_state"}
# Counts that must repeat exactly between traced runs of one config.
EXACT_COUNTS = (
    "solvers.matvecs",
    "solvers.krylov.steps",
    "solvers.dense.calls",
    "solvers.eigvecs_computed",
    "basis.project_to_spin1.calls",
    "effective.coeffs.calls",
    "observables.calls",
    "hamiltonians.dim",
    "hamiltonians.nnz",
    "trace.spans",
)


class Tracer:
    def __init__(self):
        # span = [name, layer, start, end, parent index or -1]
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self.eigvecs_computed = 0
        self.eigvecs_used = 0
        self.solutions: list[tuple] = []   # (csr matrix, energy, vector)
        self.dim = 0
        self.nnz = 0

    # -- spans --------------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1]
        else:
            # A worker thread (the sweep pool) belongs to the span the main
            # thread is blocked in, i.e. the run that started it.
            main = self._stacks.get(self._main) or [-1]
            parent = main[-1]
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, layer, time.perf_counter(), None, parent])
        stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index][3] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def wrap(self, layer: str, name: str, fn):
        qualname = f"{layer}.{name}"
        hook = getattr(self, "_after_" + name, None)

        def traced(*args, **kwargs):
            index = self._open(qualname, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- hooks (run after the span closes, outside every layer's time) -----

    def _after_build_model(self, args, kwargs, model):
        matrix = model.op.matrix
        if not isinstance(matrix, self.counting_csr):
            matrix.__class__ = self.counting_csr
        self.dim = int(model.op.dim)
        self.nnz = int(matrix.nnz)

    def _after_ground_state(self, args, kwargs, result):
        self.solutions.append((args[0].matrix, result[0], result[1]))

    def _after_lanczos_ground_state(self, args, kwargs, result):
        self.eigvecs_computed += 1
        self.eigvecs_used += 1

    def _after_dense_eigs(self, args, kwargs, result):
        h = args[0]
        if kwargs.get("vectors", args[2] if len(args) > 2 else True):
            self.eigvecs_computed += h.dim
            self.eigvecs_used += result.eigenvectors.shape[1]

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every public function of the layers; returns the cli module."""
        tracer = self

        class CountingCSR(sp.csr_matrix):
            def __matmul__(self, other):
                if not isinstance(other, np.ndarray):
                    return super().__matmul__(other)
                index = tracer._open("solvers.matvec", "solvers")
                try:
                    return super().__matmul__(other)
                finally:
                    tracer._close(index)
                    tracer.spans[index].append(1 if other.ndim == 1 else other.shape[1])

        self.counting_csr = CountingCSR
        package = importlib.import_module("rydladder")
        modules = {layer: importlib.import_module(f"rydladder.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == module.__name__
                    and f"{layer}.{name}" not in UNTRACED
                ):
                    wrapped[obj] = self.wrap(layer, name, obj)
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, name, wrapped[obj])
        return modules["cli"]

    # -- results ------------------------------------------------------------

    def true_residual(self) -> float:
        """Largest ||H psi - E psi|| over the ground states the run returned."""
        worst = 0.0
        for matrix, energy, psi in self.solutions:
            h_psi = sp.csr_matrix.__matmul__(matrix, psi)   # not a counted matvec
            worst = max(worst, float(np.linalg.norm(h_psi - energy * psi)))
        return worst

    def layer_metrics(self) -> dict:
        """Per-layer counts and times of the spans under the last ``cli.run``."""
        spans = self.spans
        roots = [i for i, s in enumerate(spans) if s[0] == ROOT]
        if not roots:
            raise RuntimeError("no cli.run span was recorded")
        root = roots[-1]
        children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            children.setdefault(s[4], []).append(i)
        under = []
        todo = [root]
        while todo:
            i = todo.pop()
            under.append(i)
            todo.extend(children.get(i, ()))

        def self_time(i: int) -> float:
            start, end = spans[i][2], spans[i][3]
            covered, reach = 0.0, start
            for c in sorted(children.get(i, ()), key=lambda c: spans[c][2]):
                lo, hi = max(spans[c][2], reach), min(spans[c][3], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            return end - start - covered

        layer_self = Counter()
        by_name = Counter()
        name_self = Counter()
        calls = Counter()
        matvecs = 0
        solve_s = 0.0
        for i in under:
            name, layer, start, end, parent = spans[i][:5]
            own = self_time(i)
            layer_self[layer] += own
            by_name[name] += end - start
            name_self[name] += own
            calls[name] += 1
            if name == "solvers.matvec":
                matvecs += spans[i][5]
            if name in EIGENSOLVES and (parent < 0 or spans[parent][0] not in EIGENSOLVES):
                solve_s += end - start
            if parent >= 0 and spans[parent][1] != layer:
                calls["layer:" + layer] += 1
        cli_self = layer_self["cli"] - name_self["cli.derived_quantities"]
        parse = [s[3] - s[2] for s in spans if s[0] == "cli.parse_config"]
        return {
            "geometry.s": layer_self["geometry"],
            "basis.s": layer_self["basis"],
            "basis.enumerate_s": by_name["basis.enumerate_rydberg"],
            "basis.project_to_spin1.calls": calls["basis.project_to_spin1"],
            "basis.project_to_spin1_s": by_name["basis.project_to_spin1"],
            "hamiltonians.assemble_s": layer_self["hamiltonians"],
            "hamiltonians.dim": self.dim,
            "hamiltonians.nnz": self.nnz,
            "effective.coeffs.calls": sum(n for k, n in calls.items() if k.startswith("effective.coeffs_")),
            "effective.coeffs_s": layer_self["effective"],
            "solvers.s": layer_self["solvers"],
            "solvers.solve_s": solve_s,
            "solvers.matvecs": matvecs,
            "solvers.matvec_s": by_name["solvers.matvec"],
            "solvers.true_residual": self.true_residual(),
            "solvers.dense.calls": calls["solvers.dense_eigs"],
            "solvers.dense_eigh_s": by_name["solvers.dense_eigs"],
            "solvers.eigvecs_computed": self.eigvecs_computed,
            "solvers.eigvecs_useful_ratio": (
                self.eigvecs_used / self.eigvecs_computed if self.eigvecs_computed else 1.0
            ),
            "solvers.krylov.steps": calls["solvers.krylov_step"],
            "solvers.krylov_step_self_s": name_self["solvers.krylov_step"],
            "observables.calls": calls["layer:observables"],
            "observables.s": layer_self["observables"],
            "cli.parse_config_s": parse[-1] if parse else 0.0,
            "cli.derived_quantities_s": name_self["cli.derived_quantities"],
            "cli.task_self_s": cli_self,
            "trace.spans": len(under),
        }

    def dump(self) -> list:
        """Spans as (name, start, end, parent) rows, times relative to the first."""
        t0 = self.spans[0][2] if self.spans else 0.0
        return [[s[0], s[2] - t0, s[3] - t0, s[4]] for s in self.spans]
