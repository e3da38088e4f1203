"""Spans and counts for the solver benchmark, installed from outside the package.

Every package module reaches its siblings and scipy through module
attributes (``fem.``, ``hm.``, ``spla.``), so replacing those attributes
with timing wrappers observes the calls made inside the package without
editing it. ``Tracer.installed()`` swaps the wrappers in and puts the
original objects back on exit.

A span records name, start, end, parent and the id of the workload run
it belongs to. Calls into scipy (and a call into ``mfg_jacobian`` from the
stability scan) are charged to the module of the innermost enclosing
span, so ``lu_*`` splits by the module that asked for the factorization.
Self time is a span's duration minus the durations of its child spans;
children of one span never overlap because the benchmark is single
threaded.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from collections import defaultdict

import numpy as np
import scipy.sparse.linalg as spla

import srcpath  # noqa: F401  (must precede the package imports)
from nonsmooth_fem import diagnostics, fem, hj_solver, manufactured, mesh
from nonsmooth_fem import hamiltonian as hm
from nonsmooth_fem import mfg_solver

MB = float(2**20)
_BYTES = 8  # float64


@dataclasses.dataclass
class Span:
    id: int
    name: str
    module: str
    kind: str  # "call": package function, "lib": scipy call, "bench": the harness
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclasses.dataclass(frozen=True)
class Target:
    """A module or class attribute to wrap. ``label`` is the span name
    after the module prefix; ``charge="caller"`` names the span after the
    module of the innermost open span instead of ``module``."""

    owner: object
    attr: str
    module: str
    label: str
    kind: str = "call"
    charge: str = "self"
    after: object = None  # hook(tracer, span, args, kwargs, result) -> result


class _CountingLU:
    """SuperLU stand-in that counts ``solve`` calls per charged module.
    SuperLU is an immutable extension type, so its method cannot be
    patched in place."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, trans="N"):
        self._tracer.count(f"{self._tracer.current_module()}.lu_solves")
        return self._lu.solve(rhs, trans=trans)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory spans and counts for one or more workload runs."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.level_times: dict = defaultdict(lambda: defaultdict(list))
        self.run = ""
        self.missing: set = set()
        self._stack: list[Span] = []

    # ------------------------------------------------------------- spans

    def begin(self, run: str) -> None:
        self.run = run

    def open(self, name: str, module: str, kind: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, module, kind, time.perf_counter(), 0.0, parent, self.run)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        """A span of the benchmark's own code (set-up, the whole run)."""
        span = self.open(name, "bench", "bench")
        try:
            yield span
        finally:
            self.close(span)

    def current_module(self) -> str:
        return self._stack[-1].module if self._stack else "bench"

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[self.run][key] += amount

    def record_max(self, key: str, value: float) -> None:
        bucket = self.counts[self.run]
        bucket[key] = max(bucket[key], value)

    # ---------------------------------------------------------- wrapping

    def _wrap(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            module = tracer.current_module() if target.charge == "caller" else target.module
            span = tracer.open(f"{module}.{target.label}", module, target.kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if target.after is not None:
                result = target.after(tracer, span, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every target with its wrapper; restore the originals on exit.
        A target that no longer exists is skipped and listed in ``missing``."""
        saved = []
        try:
            for target in self.targets:
                original = vars(target.owner).get(target.attr)
                if original is None:  # renamed or removed since the benchmark was written
                    self.missing.add(_qualname(target))
                    continue
                saved.append((target.owner, target.attr, original))
                setattr(target.owner, target.attr, self._wrap(target, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def wrap_source(self, fn):
        """Span around a manufactured source callable."""
        tracer = self

        @functools.wraps(fn)
        def source(X):
            span = tracer.open("manufactured.source", "manufactured", "call")
            try:
                return fn(X)
            finally:
                tracer.close(span)

        return source

    def to_records(self):
        return [dataclasses.asdict(s) for s in self.spans]


def _qualname(target: Target) -> str:
    return f"{target.owner.__name__}.{target.attr}"


def absent(targets) -> list:
    """``owner.attr`` of every target whose attribute no longer exists."""
    return sorted(_qualname(t) for t in targets if vars(t.owner).get(t.attr) is None)


# ------------------------------------------------------------------- hooks


def _is_outermost(tracer, span) -> bool:
    return span.parent is None or tracer.spans[span.parent].module != span.module


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _after_solver(tracer, span, args, kwargs, report):
    module = span.module
    tracer.count(f"{module}.newton_iters", report.iterations)
    dofs = _first(args, kwargs, "problem").space.n_free
    tracer.level_times[tracer.run][module].append((dofs, span.duration))
    return report


def _after_points(tracer, span, args, kwargs, result):
    if _is_outermost(tracer, span):
        tracer.count("hamiltonian.points", len(result))
    return result


def _after_splu(tracer, span, args, kwargs, lu):
    tracer.count(f"{span.module}.lu_fill", lu.nnz)
    return _CountingLU(lu, tracer)


def _after_sources(tracer, span, args, kwargs, result):
    if isinstance(result, tuple):
        return tuple(tracer.wrap_source(fn) for fn in result)
    return tracer.wrap_source(result)


def _after_coupling_mass(tracer, span, args, kwargs, result):
    problem = _first(args, kwargs, "problem")
    if problem.coupling.kind == "nonlocal":
        n_free, n_v = problem.space.n_free, problem.space.mesh.n_vertices
        # Q_fv (n_free x n_v), S (n_v x n_v), E (n_v x n_free)
        size = _BYTES * (2 * n_free * n_v + n_v * n_v) / MB
        tracer.record_max("mfg_solver.dense_coupling_mb", size)
    return result


def _after_grams(tracer, span, args, kwargs, result):
    n = 2 * _first(args, kwargs, "space").n_free
    tracer.record_max("diagnostics.gram_dense_mb", _BYTES * n * n / MB)
    return result


def _after_scan(tracer, span, args, kwargs, report):
    tracer.count("diagnostics.kink_elements", sum(report.meta["kink_elements"]))
    return report


# ----------------------------------------------------------------- targets

# The solver entry points are wrapped in every run: their spans give
# solve_s, which is an end-to-end metric.
SOLVER_TARGETS = (
    Target(hj_solver, "solve_newton", "hj_solver", "solve_newton", after=_after_solver),
    Target(mfg_solver, "mfg_newton", "mfg_solver", "mfg_newton", after=_after_solver),
    Target(diagnostics, "stability_scan", "diagnostics", "stability_scan", after=_after_scan),
)

LAYER_TARGETS = (
    Target(mesh, "unit_square_mesh", "mesh", "unit_square_mesh"),
    Target(fem, "make_space", "fem", "make_space"),
    Target(fem, "assemble_stiffness", "fem", "assembly"),
    Target(fem, "assemble_mass", "fem", "assembly"),
    Target(fem, "assemble_from_local", "fem", "assembly"),
    Target(fem, "full_stiffness", "fem", "assembly"),
    Target(fem, "full_mass", "fem", "assembly"),
    Target(fem, "assemble_load", "fem", "load"),
    Target(fem, "load_from_values", "fem", "load"),
    Target(fem, "quad_points", "fem", "quad_points"),
    # charges the factorization of K + M to fem, not to the solver asking for it
    Target(fem, "residual_norm", "fem", "residual_norm"),
    Target(fem.ResidualNorm, "__call__", "fem", "dual_norm"),
    Target(fem, "error_vs_exact", "fem", "error"),
    Target(hm, "eval_many", "hamiltonian", "eval", after=_after_points),
    Target(hm, "selection_many", "hamiltonian", "eval", after=_after_points),
    Target(hm, "hp_many", "hamiltonian", "eval", after=_after_points),
    Target(hm, "hp_selection_many", "hamiltonian", "eval", after=_after_points),
    Target(hm, "selection_field", "hamiltonian", "eval", after=_after_points),
    Target(manufactured, "hj_source", "manufactured", "factory", after=_after_sources),
    Target(manufactured, "mfg_sources", "manufactured", "factory", after=_after_sources),
    Target(hj_solver, "newton_matrix", "hj_solver", "jacobian"),
    Target(hj_solver, "hamiltonian_load", "hj_solver", "hamiltonian_load"),
    Target(mfg_solver, "mfg_jacobian", "mfg_solver", "jacobian", charge="caller"),
    Target(mfg_solver, "coupling_weighted_mass", "mfg_solver", "coupling_mass",
           after=_after_coupling_mass),
    Target(diagnostics, "state_space_grams", "diagnostics", "grams", after=_after_grams),
    Target(diagnostics, "preconditioned_constant", "diagnostics", "constant"),
    Target(spla, "splu", "scipy", "lu", kind="lib", charge="caller", after=_after_splu),
    Target(spla, "cg", "scipy", "cg", kind="lib", charge="caller"),
    Target(spla, "eigsh", "scipy", "eigsh", kind="lib", charge="caller"),
)

ALL_TARGETS = SOLVER_TARGETS + LAYER_TARGETS
SOLVER_SPANS = frozenset(f"{t.module}.{t.label}" for t in SOLVER_TARGETS)


# ----------------------------------------------------------------- metrics

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "mesh.build_s": ("s", "lower"),
    "fem.space_s": ("s", "lower"),
    "fem.assembly_s": ("s", "lower"),
    "fem.assembly_calls": ("count", "lower"),
    "fem.load_s": ("s", "lower"),
    "fem.load_calls": ("count", "lower"),
    "fem.quad_points_s": ("s", "lower"),
    "fem.quad_points_calls": ("count", "lower"),
    "fem.dual_norm_s": ("s", "lower"),
    "fem.dual_norm_calls": ("count", "lower"),
    "fem.error_s": ("s", "lower"),
    "hamiltonian.s": ("s", "lower"),
    "hamiltonian.calls": ("count", "lower"),
    "hamiltonian.points": ("count", "lower"),
    "manufactured.s": ("s", "lower"),
    "hj_solver.lu_s": ("s", "lower"),
    "hj_solver.lu_calls": ("count", "lower"),
    "hj_solver.lu_fill": ("count", "lower"),
    "hj_solver.jacobian_s": ("s", "lower"),
    "hj_solver.self_s": ("s", "lower"),
    "hj_solver.newton_iters": ("count", "lower"),
    "hj_solver.residual_evals": ("count", "lower"),
    "hj_solver.step_accept_ratio": ("ratio", "higher"),
    "hj_solver.time_exponent": ("slope", "lower"),
    "mfg_solver.lu_s": ("s", "lower"),
    "mfg_solver.lu_calls": ("count", "lower"),
    "mfg_solver.lu_fill": ("count", "lower"),
    "mfg_solver.jacobian_s": ("s", "lower"),
    "mfg_solver.coupling_mass_s": ("s", "lower"),
    "mfg_solver.self_s": ("s", "lower"),
    "mfg_solver.newton_iters": ("count", "lower"),
    "mfg_solver.dense_coupling_mb": ("MB", "lower"),
    "mfg_solver.time_exponent": ("slope", "lower"),
    "diagnostics.grams_s": ("s", "lower"),
    "diagnostics.gram_dense_mb": ("MB", "lower"),
    "diagnostics.constant_s": ("s", "lower"),
    "diagnostics.constant_calls": ("count", "lower"),
    "diagnostics.eigsh_s": ("s", "lower"),
    "diagnostics.lu_solves": ("count", "lower"),
    "diagnostics.jacobian_s": ("s", "lower"),
    "diagnostics.kink_elements": ("count", "higher"),
    "trace_overhead_frac": ("ratio", "lower"),
}


def self_times(spans) -> dict:
    """Span id -> duration minus the summed durations of its children."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return {s.id: s.duration - child[s.id] for s in spans}


def time_exponent(points) -> float:
    """Slope of log(solve time) against log(dofs); 0 below two sizes."""
    dofs = np.array([p[0] for p in points], dtype=float)
    secs = np.array([p[1] for p in points], dtype=float)
    if len(set(dofs.tolist())) < 2:
        return 0.0
    return float(np.polyfit(np.log(dofs), np.log(secs), 1)[0])


def solve_seconds(spans) -> float:
    return sum(s.duration for s in spans if s.name in SOLVER_SPANS)


def layer_metrics(tracer: Tracer, run: str) -> dict:
    """Every per-layer metric except trace_overhead_frac for one run;
    0 where the run bypassed the layer."""
    spans = [s for s in tracer.spans if s.run == run]
    counts = tracer.counts[run]
    own = self_times(spans)

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def calls(name):
        return float(sum(1 for s in spans if s.name == name))

    def self_of(module):
        return sum(own[s.id] for s in spans if s.module == module and s.kind == "call")

    ham = [s for s in spans if s.module == "hamiltonian" and _is_outermost(tracer, s)]
    iters = counts["hj_solver.newton_iters"]
    trials = calls("hj_solver.hamiltonian_load") - calls("hj_solver.solve_newton")
    times = tracer.level_times[run]
    return {
        "mesh.build_s": total("mesh.unit_square_mesh"),
        "fem.space_s": total("fem.make_space"),
        "fem.assembly_s": total("fem.assembly"),
        "fem.assembly_calls": calls("fem.assembly"),
        "fem.load_s": total("fem.load"),
        "fem.load_calls": calls("fem.load"),
        "fem.quad_points_s": total("fem.quad_points"),
        "fem.quad_points_calls": calls("fem.quad_points"),
        "fem.dual_norm_s": total("fem.dual_norm"),
        "fem.dual_norm_calls": calls("fem.dual_norm"),
        "fem.error_s": total("fem.error"),
        "hamiltonian.s": sum(s.duration for s in ham),
        "hamiltonian.calls": float(len(ham)),
        "hamiltonian.points": counts["hamiltonian.points"],
        "manufactured.s": total("manufactured.source"),
        "hj_solver.lu_s": total("hj_solver.lu"),
        "hj_solver.lu_calls": calls("hj_solver.lu"),
        "hj_solver.lu_fill": counts["hj_solver.lu_fill"],
        "hj_solver.jacobian_s": total("hj_solver.jacobian"),
        "hj_solver.self_s": self_of("hj_solver"),
        "hj_solver.newton_iters": iters,
        "hj_solver.residual_evals": calls("hj_solver.hamiltonian_load"),
        "hj_solver.step_accept_ratio": iters / trials if trials > 0 else 0.0,
        "hj_solver.time_exponent": time_exponent(times["hj_solver"]),
        "mfg_solver.lu_s": total("mfg_solver.lu"),
        "mfg_solver.lu_calls": calls("mfg_solver.lu"),
        "mfg_solver.lu_fill": counts["mfg_solver.lu_fill"],
        "mfg_solver.jacobian_s": total("mfg_solver.jacobian"),
        "mfg_solver.coupling_mass_s": total("mfg_solver.coupling_mass"),
        "mfg_solver.self_s": self_of("mfg_solver"),
        "mfg_solver.newton_iters": counts["mfg_solver.newton_iters"],
        "mfg_solver.dense_coupling_mb": counts["mfg_solver.dense_coupling_mb"],
        "mfg_solver.time_exponent": time_exponent(times["mfg_solver"]),
        "diagnostics.grams_s": total("diagnostics.grams"),
        "diagnostics.gram_dense_mb": counts["diagnostics.gram_dense_mb"],
        "diagnostics.constant_s": total("diagnostics.constant"),
        "diagnostics.constant_calls": calls("diagnostics.constant"),
        "diagnostics.eigsh_s": total("diagnostics.eigsh"),
        "diagnostics.lu_solves": counts["diagnostics.lu_solves"],
        "diagnostics.jacobian_s": total("diagnostics.jacobian"),
        "diagnostics.kink_elements": counts["diagnostics.kink_elements"],
    }
