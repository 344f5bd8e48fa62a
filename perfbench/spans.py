"""Span tracer that wraps plateflow entry points from the benchmark's side.

The program is not edited: inside a `with Tracer()` block, module attributes
and class methods that `plateflow.flow`, `plateflow.presets` and the
benchmark's round call through are replaced by timing wrappers; leaving the
block puts the originals back.  Every
span records its self time (its duration minus the durations of the spans
opened inside it), so the per-layer times add up without double counting.

The wrappers keep totals only.  They hold no reference to the arguments or
results of the calls they time: a wrapper that kept the step states alive
would change the memory footprint it is meant to observe.

An entry point that a later version of the program no longer has is skipped
and reports zero calls; its work then shows up in the self time of the
enclosing span (for per-step work, `flow.step_self_s`).
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

STEP = "flow.step"

# (module, owner attribute or None for the module itself, attribute, span)
ENTRY_POINTS = (
    ("plateflow.presets", None, "resolve", "presets.resolve"),
    ("plateflow.presets", None, "generate_oshape_mesh", "mesh.generate"),
    ("plateflow.presets", None, "generate_rectangle_mesh", "mesh.generate"),
    ("plateflow.presets", None, "tag_dirichlet_boundary", "mesh.generate"),
    ("plateflow.flow", "GradientFlow", "__init__", "flow.setup"),
    ("plateflow.flow", None, "element_operators", "dkt.operators"),
    ("plateflow.energy", None, "assemble_bending_stiffness", "energy.stiffness"),
    ("plateflow.flow", "GradientFlow", "step", STEP),
    ("plateflow.constraints", "ConstraintBuilder", "min_block_singular_value",
     "constraints.degeneracy"),
    ("plateflow.constraints", "ConstraintBuilder", "build", "constraints.build"),
    ("plateflow.flow", None, "isometry_defect", "constraints.defect"),
    ("plateflow.energy", None, "nonlinear_rhs", "energy.nonlinear_rhs"),
    ("plateflow.energy", None, "nonlinear_energy_term", "energy.nonlinear_energy"),
    ("plateflow.energy", None, "penalty_rhs", "energy.penalty"),
    ("plateflow.energy", None, "penalty_energy", "energy.penalty"),
    ("plateflow.energy", None, "obstacle_penetration", "energy.penalty"),
    ("plateflow.linsolve", "SaddleSystem", "__init__", "linsolve.assemble"),
    ("plateflow.linsolve", "SaddleSystem", "solve", "linsolve.backsolve"),
    ("plateflow.io", "HistoryCsvWriter", "__init__", "io.history"),
    ("plateflow.io", "HistoryCsvWriter", "write", "io.history"),
    ("plateflow.io", "HistoryCsvWriter", "close", "io.history"),
    ("plateflow.mesh", None, "save_mesh", "io.outputs"),
    ("plateflow.io", None, "write_vtk_surface", "io.outputs"),
    ("plateflow.io", None, "save_field", "io.outputs"),
    ("plateflow.io", None, "write_report", "io.outputs"),
    ("plateflow.io", None, "write_rear_edge_trace", "io.outputs"),
)
FACTOR = "linsolve.factor"


class Tracer:
    """Self time and call counts per span name, kept in memory."""

    def __init__(self):
        self.self_s = defaultdict(float)      # self time per span
        self.in_step_s = defaultdict(float)   # part of it spent inside a step span
        self.step_s = 0.0                     # summed durations of the step spans
        self.calls = Counter()
        self.counts = Counter()               # lu_solves, fill_nnz
        self._stack = []                      # child time of each open span
        self._steps_open = 0
        self._saved = []

    # -- spans ---------------------------------------------------------------

    def _close(self, name, dt):
        child = self._stack.pop()
        own = dt - child
        self.self_s[name] += own
        if self._steps_open:
            self.in_step_s[name] += own
        if self._stack:
            self._stack[-1] += dt

    def wrap(self, name, fn):
        tracer = self
        is_step = name == STEP

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tracer._stack.append(0.0)
            if is_step:
                tracer._steps_open += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.calls[name] += 1
                tracer._close(name, dt)
                if is_step:
                    tracer._steps_open -= 1
                    tracer.step_s += dt

        return span

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        """Install the spans; leaving the block puts the originals back."""
        for module_name, owner_name, attr, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                continue
            self._patch(owner, attr, self.wrap(name, vars(owner)[attr]))
        linsolve = importlib.import_module("plateflow.linsolve")
        if "spla" in vars(linsolve):
            self._patch(linsolve, "spla", _SplaProxy(linsolve.spla, self))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def step_identity_error(self) -> float:
        """|step time - (step self time + child self times inside steps)|,
        relative to the step time; zero up to summation rounding when every
        span opened inside a step is accounted for exactly once."""
        parts = sum(self.in_step_s.values())
        return abs(self.step_s - parts) / max(self.step_s, 1e-300)

    def metrics(self) -> dict:
        s = self.self_s
        solves = self.calls["linsolve.backsolve"]
        return {
            "presets.resolve_s": (s["presets.resolve"], "s"),
            "mesh.generate_s": (s["mesh.generate"], "s"),
            "dkt.operators_s": (s["dkt.operators"], "s"),
            "energy.stiffness_s": (s["energy.stiffness"], "s"),
            "flow.setup_self_s": (s["flow.setup"], "s"),
            "constraints.degeneracy_s": (s["constraints.degeneracy"], "s"),
            "constraints.build_s": (s["constraints.build"], "s"),
            "constraints.defect_s": (s["constraints.defect"], "s"),
            "energy.nonlinear_rhs_s": (s["energy.nonlinear_rhs"], "s"),
            "energy.nonlinear_energy_s": (s["energy.nonlinear_energy"], "s"),
            "energy.penalty_s": (s["energy.penalty"], "s"),
            "linsolve.assemble_s": (s["linsolve.assemble"], "s"),
            "linsolve.factor_s": (s[FACTOR], "s"),
            "linsolve.backsolve_s": (s["linsolve.backsolve"], "s"),
            "linsolve.solves": (solves, "count"),
            "linsolve.refinements": (max(self.counts["lu_solves"] - solves, 0), "count"),
            "linsolve.fill_nnz": (self.counts["fill_nnz"], "count"),
            "flow.step_s": (self.step_s, "s"),
            "flow.step_self_s": (s[STEP], "s"),
            "flow.iterations": (self.calls[STEP], "count"),
            "io.history_s": (s["io.history"], "s"),
            "io.outputs_s": (s["io.outputs"], "s"),
        }


class _SplaProxy:
    """Stands in for `scipy.sparse.linalg` inside `plateflow.linsolve`: times
    `splu`, adds the stored nonzeros of L and U, and counts back-substitutions."""

    def __init__(self, spla, tracer):
        self._spla = spla
        self._tracer = tracer
        self.splu = tracer.wrap(FACTOR, self._splu)

    def __getattr__(self, attr):
        return getattr(self._spla, attr)

    def _splu(self, *args, **kwargs):
        lu = self._spla.splu(*args, **kwargs)
        self._tracer.counts["fill_nnz"] += int(lu.nnz)
        return _CountingLU(lu, self._tracer.counts)


class _CountingLU:
    """A SuperLU factorization whose `solve` calls are counted.  It lives
    exactly as long as the solver keeps its factorization."""

    __slots__ = ("_lu", "_counts")

    def __init__(self, lu, counts):
        self._lu = lu
        self._counts = counts

    def solve(self, *args, **kwargs):
        self._counts["lu_solves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)
