"""Tests of the benchmark's own tracing and checks, on small meshes.

    python3 -m pytest bench/test_bench.py
"""

import dataclasses
import json
import types

import numpy as np
import pytest

import run
import srcpath
import tracing
import workloads
from nonsmooth_fem import diagnostics as dg
from nonsmooth_fem import fem, hj_solver, mesh
from nonsmooth_fem import hamiltonian as hm
from nonsmooth_fem import manufactured as man
from nonsmooth_fem import mfg_solver as mfg

SMALL = {
    "hj-eikonal-refine": (8, 16, 32),
    "mfg-huber-refine": (8, 16, 32),
    "mfg-nonlocal": (10,),
    "stability-kinked": (12, 24),
}


def _solver_outputs():
    """Solution arrays from every solver entry point on small problems."""
    model = hm.model_from_spec("eikonal")
    space = fem.make_space(mesh.unit_square_mesh(16))
    hj = hj_solver.solve_newton(
        hj_solver.HjProblem(space=space, model=model, lam=1.0, f=man.hj_source(model, 1.0))
    )
    huber = hm.model_from_spec("huber:1")
    space = fem.make_space(mesh.unit_square_mesh(10))
    nonlocal_ = mfg.mfg_newton(
        mfg.make_mfg_problem(space, huber, mfg.nonlocal_linear(), 1.0, man.bump)
    )
    coupling = mfg.local_linear()
    g_hjb, g_fp = man.mfg_sources(huber, coupling, 1.0)
    cases = []
    for n in (12, 24):
        space = fem.make_space(mesh.unit_square_mesh(n))
        problem = mfg.make_mfg_problem(
            space, huber, coupling, 1.0, man.m_star, g_hjb=g_hjb, g_fp=g_fp
        )
        cases.append((problem, mfg.mfg_newton(problem).final_state))
    scan = dg.stability_scan(cases, n_selection_samples=3)
    return [
        hj.final_u,
        nonlocal_.final_state.u,
        nonlocal_.final_state.m,
        np.array(scan.smin),
        *(state.u for _, state in cases),
    ]


def test_tracing_leaves_outputs_bitwise_identical_and_restores_attributes():
    before = {(t.owner, t.attr): vars(t.owner)[t.attr] for t in tracing.ALL_TARGETS}
    plain = _solver_outputs()
    tracer = tracing.Tracer(tracing.ALL_TARGETS)
    tracer.begin("traced")
    with tracer.installed():
        assert hj_solver.solve_newton is not before[(hj_solver, "solve_newton")]
        traced = _solver_outputs()
    after = _solver_outputs()
    assert {(t.owner, t.attr): vars(t.owner)[t.attr] for t in tracing.ALL_TARGETS} == before
    assert tracer.counts["traced"]["diagnostics.lu_solves"] > 0
    for a, b, c in zip(plain, traced, after):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def _traced_rep(name, seed=0):
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer(tracing.ALL_TARGETS)
    rep = run.run_rep(workload, tracer, seed, f"{name}/test", None, SMALL[name], layers=True)
    return rep, tracer


def test_self_times_do_not_exceed_traced_wall():
    rep, tracer = _traced_rep("mfg-huber-refine")
    own = tracing.self_times(tracer.spans)
    assert all(value >= -1e-9 for value in own.values())
    assert sum(own.values()) <= rep.wall * (1 + 1e-9)
    module_self = rep.layers["hj_solver.self_s"] + rep.layers["mfg_solver.self_s"]
    assert 0 < module_self <= rep.wall


@pytest.fixture(scope="module")
def small_layers():
    return {name: _traced_rep(name)[0] for name in SMALL}


def test_every_per_layer_metric_on_every_workload(small_layers):
    for name, rep in small_layers.items():
        assert not rep.failed, rep.failed
        _, layers, _, _ = run.summarize([rep], [rep])
        assert list(layers) == list(tracing.PER_LAYER), name


def test_bypassed_layers_report_zero(small_layers):
    hj = small_layers["hj-eikonal-refine"].layers
    assert all(v == 0 for k, v in hj.items() if k.startswith(("diagnostics.", "mfg_solver.")))
    assert hj["hj_solver.lu_calls"] > 0 and hj["hj_solver.step_accept_ratio"] > 0
    local = small_layers["mfg-huber-refine"].layers
    assert local["mfg_solver.dense_coupling_mb"] == 0
    assert all(v == 0 for k, v in local.items() if k.startswith(("diagnostics.", "hj_solver.")))
    assert local["mfg_solver.lu_calls"] > 0 and local["mfg_solver.time_exponent"] != 0
    assert small_layers["mfg-nonlocal"].layers["mfg_solver.dense_coupling_mb"] > 0
    scan = small_layers["stability-kinked"].layers
    assert scan["diagnostics.kink_elements"] > 0 and scan["diagnostics.lu_solves"] > 0
    assert all(v == 0 for k, v in scan.items() if k.startswith("hj_solver."))


def test_benchmark_json_matches_the_code():
    spec = json.loads((srcpath.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (k, unit, better) for k, (unit, better) in tracing.PER_LAYER.items()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert tuple(workloads.WORKLOADS) == run.NAMES


def test_default_bump_is_the_cli_bump():
    X = np.random.default_rng(0).random((200, 2))
    assert workloads.bump_centre(0) == (0.5, 0.5)
    assert np.array_equal(workloads.bump_at(0.5, 0.5)(X), man.bump(X))
    m0 = workloads.bump_at(*workloads.bump_centre(6))
    assert m0(np.array([[0.4, 0.4]]))[0] == pytest.approx(1.0)


def test_failed_checks_count_and_exceptions_do_not_abort():
    workload = workloads.WORKLOADS["hj-eikonal-refine"]
    rows = {"n=8": {"L2": 1.0, "H1": 2.0}, "n=16": {"L2": 0.5, "H1": 1.0}}
    good = {"ops": rows, "global": {"H1_slope": 1.0, "H1_r2": 1.0}}
    reference = {"n=8": {"L2": 1.0, "H1": 2.0}, "n=16": {"L2": 0.5, "H1": 1.1}}
    assert workloads.check(workload, good, reference) == {"n=16": "H1 = 1.0, seed commit 1.1"}
    flat = dict(good, **{"global": {"H1_slope": 0.5, "H1_r2": 1.0}})
    assert set(workloads.check(workload, flat, None)) == {"n=8", "n=16"}

    def boom(tracer, levels, seed):
        raise fem.NonconvergenceError("no")

    broken = dataclasses.replace(workload, run=boom)
    rep = run.run_rep(broken, tracing.Tracer(tracing.SOLVER_TARGETS), 0, "boom", None, (8, 16))
    assert rep.failed == {"n=8": "NonconvergenceError: no", "n=16": "NonconvergenceError: no"}


def test_more_threads_than_cores_is_refused():
    env = {"nproc": 2, "study_threads": 1, "blas": [{"library": "b", "threads": 4}]}
    assert "4 threads > nproc 2" in run.thread_excess(env)
    env["blas"][0]["threads"] = 2
    assert run.thread_excess(env) is None


def test_a_target_that_no_longer_exists_is_skipped():
    gone = types.ModuleType("gone")
    tracer = tracing.Tracer([tracing.Target(gone, "solve", "gone", "solve")])
    with tracer.installed():
        pass
    assert tracer.missing == {"gone.solve"} and not hasattr(gone, "solve")


def test_a_run_that_times_too_few_solver_calls_fails():
    workload = workloads.WORKLOADS["hj-eikonal-refine"]
    rows = {"n=8": {"L2": 1.0, "H1": 2.0}, "n=16": {"L2": 0.5, "H1": 1.0}}
    untimed = dataclasses.replace(
        workload,
        run=lambda tracer, levels, seed: {"ops": rows, "global": {"H1_slope": 1, "H1_r2": 1}},
    )
    tracer = tracing.Tracer(tracing.SOLVER_TARGETS)
    rep = run.run_rep(untimed, tracer, 0, "untimed", None, (8, 16))
    reason = "timed 0 of 2 calls to hj_solver.solve_newton"
    assert rep.failed == {"n=8": reason, "n=16": reason}


def test_a_missing_solver_entry_point_stops_the_benchmark(monkeypatch, capsys):
    monkeypatch.delattr(hj_solver, "solve_newton")
    assert run.main(["--workload", "hj-eikonal-refine", "--seconds", "1"]) == 2
    assert "nonsmooth_fem.hj_solver.solve_newton" in capsys.readouterr().err
