"""Command-line front end: exit codes, report formats, reproducibility.

Oracles: mesh counts from the closed formulas (n+1)^2 vertices, 2 n^2
triangles, h = sqrt(2)/n; exit-code contract 0/1/2; JSON reports compared
against direct library calls and against a second identical run.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import nonsmooth_fem
from nonsmooth_fem import cli, diagnostics, fem, hj_solver, manufactured
from nonsmooth_fem.hamiltonian import model_from_spec
from nonsmooth_fem.mesh import unit_square_mesh


def run_cli(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def drop_wall_time(text):
    return "\n".join(
        line for line in text.splitlines() if "wall_time_s" not in line
    )


# ----------------------------------------------------------------- mesh-info


def test_mesh_info_counts(capsys):
    code, out, _ = run_cli(capsys, ["mesh-info", "--n", "4"])
    assert code == 0
    assert out.startswith("vertices=25 triangles=32 h=0.3535")


def test_mesh_info_matches_mesh_module(capsys):
    grid = unit_square_mesh(7)
    code, out, _ = run_cli(capsys, ["mesh-info", "--n", "7"])
    assert code == 0
    assert f"vertices={grid.n_vertices}" in out
    assert f"triangles={grid.n_triangles}" in out
    assert f"h={float(grid.mesh_size_h)!r}" in out


# ---------------------------------------------------------------- exit codes


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["frobnicate"])
    assert code == 1
    assert err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, ["mesh-info", "--n", "4", "--wat"])
    assert code == 1


def test_unknown_hamiltonian_named_in_error(capsys):
    code, _, err = run_cli(
        capsys, ["convergence-hj", "--levels", "8,16", "--hamiltonian", "bogus"]
    )
    assert code == 1
    assert "bogus" in err


def test_unknown_coupling_named_in_error(capsys):
    code, _, err = run_cli(
        capsys, ["solve-mfg", "--n", "4", "--coupling", "local:wibble"]
    )
    assert code == 1
    assert "wibble" in err


@pytest.mark.parametrize(
    "flag, spec, named",
    [
        ("--coupling", "local:linear:1:2", "'local:linear:1:2'"),
        ("--coupling", "local:linear:nan", "'local:linear:nan'"),
        ("--coupling", "nonlocal:linear:inf", "'nonlocal:linear:inf'"),
        ("--coupling", "local:linear:abc", "'local:linear:abc'"),
        ("--hamiltonian", "maxaffine:/missing.csv", "'/missing.csv'"),
    ],
    ids=["extra-field", "nan", "inf", "not-a-number", "missing-file"],
)
def test_malformed_model_specs_rejected_before_assembly(capsys, monkeypatch, flag, spec, named):
    def no_space(grid):
        raise AssertionError("a problem was assembled before the specs were checked")

    monkeypatch.setattr(fem, "make_space", no_space)
    code, _, err = run_cli(capsys, ["solve-mfg", "--n", "4", flag, spec])
    assert code == 1
    assert err.startswith("error: ") and named in err


def test_negative_linear_coupling_accepted(capsys, tmp_path):
    out = tmp_path / "neg.json"
    code, _, _ = run_cli(
        capsys, ["solve-mfg", "--n", "4", "--coupling", "local:linear:-1", "--out", str(out)]
    )
    assert code == 0
    assert read_json(out)["config"]["coupling"] == "local:linear:-1"


def test_unknown_manufactured_named_in_error(capsys):
    code, _, err = run_cli(
        capsys, ["solve-hj", "--n", "4", "--manufactured", "cossin"]
    )
    assert code == 1
    assert "cossin" in err


def test_unknown_density_named_in_error(capsys):
    code, _, err = run_cli(capsys, ["solve-mfg", "--n", "4", "--m0", "spike"])
    assert code == 1
    assert "spike" in err


def test_decreasing_levels_rejected(capsys):
    code, _, err = run_cli(capsys, ["convergence-hj", "--levels", "16,8"])
    assert code == 1
    assert "increasing" in err


def test_non_integer_levels_rejected(capsys):
    code, _, err = run_cli(capsys, ["convergence-hj", "--levels", "8,sixteen"])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [["solve-hj", "--n", "1"], ["solve-mfg", "--n", "1", "--manufactured", "sinsin"]],
)
def test_single_cell_grid_rejected(capsys, argv):
    # unit_square_mesh(1) has no interior vertex, hence no unknowns
    code, _, err = run_cli(capsys, argv)
    assert code == 1
    assert "n must be at least 2" in err
    assert run_cli(capsys, ["mesh-info", "--n", "1"])[0] == 0


def test_negative_lambda_rejected(capsys):
    code, _, err = run_cli(capsys, ["solve-hj", "--n", "4", "--lambda", "-1"])
    assert code == 1
    assert "lambda" in err


def test_hamiltonian_without_gradient_rejected_for_mfg(capsys):
    # the coupled system needs H_p; the eikonal model carries none
    code, _, err = run_cli(
        capsys, ["solve-mfg", "--n", "4", "--hamiltonian", "eikonal"]
    )
    assert code == 1
    assert "gradient" in err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0
    assert "solve-hj" in out


def test_nonconvergence_exits_two_and_still_writes_report(capsys, tmp_path):
    out_path = tmp_path / "stalled.json"
    code, _, _ = run_cli(
        capsys,
        ["solve-hj", "--n", "4", "--tol", "1e-30", "--max-iter", "3",
         "--out", str(out_path)],
    )
    assert code == 2
    report = read_json(out_path)
    assert report["converged"] is False
    assert len(report["residuals"]) >= 1


# ------------------------------------------------------------------ solve-hj


def test_solve_hj_report_matches_library(capsys, tmp_path):
    out_path = tmp_path / "hj.json"
    code, _, _ = run_cli(
        capsys,
        ["solve-hj", "--n", "8", "--hamiltonian", "eikonal", "--lambda", "1.0",
         "--manufactured", "sinsin", "--tol", "1e-10", "--solver", "newton",
         "--out", str(out_path)],
    )
    assert code == 0
    report = read_json(out_path)
    for key in ("h", "dofs", "iterations", "residuals", "err_h1", "err_l2"):
        assert key in report
    assert report["config"]["hamiltonian"] == "eikonal"

    model = model_from_spec("eikonal")
    space = fem.make_space(unit_square_mesh(8))
    problem = hj_solver.HjProblem(
        space=space, model=model, lam=1.0, f=manufactured.hj_source(model, 1.0)
    )
    direct = hj_solver.solve_newton(problem, tol=1e-10, max_iter=100)
    assert report["iterations"] == direct.iterations
    assert report["dofs"] == space.n_free
    assert report["h"] == space.mesh.mesh_size_h
    err_h1 = fem.error_vs_exact(
        space, direct.final_u, manufactured.u_star, manufactured.grad_u_star, "H1"
    )
    assert report["err_h1"] == pytest.approx(err_h1, rel=0, abs=0)


def test_solve_hj_picard_converges(capsys, tmp_path):
    out_path = tmp_path / "hj_picard.json"
    code, _, _ = run_cli(
        capsys,
        ["solve-hj", "--n", "8", "--solver", "picard", "--theta", "1.0",
         "--tol", "1e-9", "--out", str(out_path)],
    )
    assert code == 0
    report = read_json(out_path)
    assert report["converged"] is True
    assert report["config"]["solver"] == "picard"


def test_solve_hj_stdout_when_no_out_file(capsys):
    code, out, _ = run_cli(capsys, ["solve-hj", "--n", "4", "--tol", "1e-9"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "solve-hj"


def test_reports_byte_identical_up_to_wall_time(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run_cli(
            capsys, ["solve-hj", "--n", "8", "--tol", "1e-10", "--out", str(p)]
        )
        assert code == 0
    a, b = (p.read_text() for p in paths)
    assert a != b  # the wall-time field moves
    assert drop_wall_time(a) == drop_wall_time(b)


# ----------------------------------------------------------------- solve-mfg


@pytest.fixture(scope="module")
def mfg_report_path(tmp_path_factory):
    out_path = tmp_path_factory.mktemp("cli") / "mfg.json"
    code = cli.run(
        ["solve-mfg", "--n", "8", "--hamiltonian", "huber:1.0",
         "--coupling", "local:linear", "--lambda", "1.0", "--m0", "bump",
         "--solver", "newton", "--tol", "1e-9", "--out", str(out_path)]
    )
    assert code == 0
    return out_path


def test_solve_mfg_report_contents(mfg_report_path):
    report = read_json(mfg_report_path)
    assert report["converged"] is True
    assert report["total_mass"] > 0
    cfg = report["config"]
    assert cfg["hamiltonian"] == "huber:1.0"
    assert cfg["coupling"] == "local:linear"
    assert cfg["m0"] == "bump"
    assert "err_u_h1" not in report  # no manufactured target requested


def test_solve_mfg_manufactured_reports_errors(capsys, tmp_path):
    out_path = tmp_path / "mfg_man.json"
    code, _, _ = run_cli(
        capsys,
        ["solve-mfg", "--n", "8", "--manufactured", "sinsin",
         "--tol", "1e-9", "--out", str(out_path)],
    )
    assert code == 0
    report = read_json(out_path)
    assert 0 < report["err_u_h1"] < 1.0
    assert 0 < report["err_m_l2"] < 0.5


# --------------------------------------------------------- diagnose-stability


def test_diagnose_stability_csv(capsys, tmp_path, mfg_report_path):
    csv_path = tmp_path / "scan.csv"
    code, out, _ = run_cli(
        capsys,
        ["diagnose-stability", "--from", str(mfg_report_path),
         "--samples", "3", "--levels", "4,8", "--out", str(csv_path)],
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "h,sample,smin"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) >= 2  # at least one sample per level
    hs = sorted({float(r[0]) for r in rows}, reverse=True)
    assert hs == [np.sqrt(2.0) / 4.0, np.sqrt(2.0) / 8.0]
    smins = [float(r[2]) for r in rows]
    assert all(s > 0 for s in smins)
    assert max(smins) / min(smins) <= 10.0
    assert "ratio_max_min=" in out
    assert re.search(r"kink_elements=\[\d+, \d+\] ", out)  # one count per level


def test_diagnose_stability_nonlocal_coupling(capsys, tmp_path):
    # the scan assembles the reduced Jacobian, whose nonlocal coupling block
    # is built from the smoother's free columns
    state_path, csv_path = tmp_path / "s.json", tmp_path / "scan.csv"
    code, _, _ = run_cli(
        capsys,
        ["solve-mfg", "--n", "12", "--coupling", "nonlocal:linear", "--out", str(state_path)],
    )
    assert code == 0
    assert read_json(state_path)["converged"] is True
    code, out, _ = run_cli(
        capsys,
        ["diagnose-stability", "--from", str(state_path), "--levels", "8,12",
         "--samples", "2", "--out", str(csv_path)],
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "h,sample,smin"
    rows = [line.split(",") for line in lines[1:]]
    hs = sorted({float(r[0]) for r in rows}, reverse=True)
    assert hs == pytest.approx([np.sqrt(2.0) / 8.0, np.sqrt(2.0) / 12.0], rel=1e-12)
    assert all(float(r[2]) > 0 for r in rows)
    assert re.search(r"^min=\S+ ratio_max_min=\S+ kink_elements=\[\d+, \d+\] ", out, re.M)


def test_diagnose_stability_reads_old_report_with_seed(capsys, tmp_path):
    # reports written before --seed was removed still carry it in the echo
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"config": {
        "hamiltonian": "huber:1.0", "coupling": "local:linear", "lambda": 1.0,
        "m0": "bump", "manufactured": None, "solver": "newton", "tol": 1e-9,
        "max_iter": 100, "theta": 0.5, "seed": 42, "n": 8,
    }}))
    code, out, _ = run_cli(
        capsys, ["diagnose-stability", "--from", str(old), "--samples", "2", "--levels", "4,8"]
    )
    assert code == 0
    assert out.startswith("h,sample,smin\n")


def test_seed_flag_removed(capsys):
    code, _, err = run_cli(capsys, ["solve-hj", "--n", "4", "--seed", "42"])
    assert code == 1
    assert "--seed" in err


def test_lambdas_flag_removed(capsys, mfg_report_path):
    code, _, err = run_cli(
        capsys, ["diagnose-stability", "--from", str(mfg_report_path), "--lambdas", "1"]
    )
    assert code == 1
    assert "--lambdas" in err


def test_diagnose_stability_missing_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, ["diagnose-stability", "--from", str(tmp_path / "nope.json")]
    )
    assert code == 1
    assert "nope.json" in err


def test_diagnose_stability_requires_config_echo(capsys, tmp_path):
    bad = tmp_path / "bare.json"
    bad.write_text('{"h": 0.1}\n')
    code, _, err = run_cli(capsys, ["diagnose-stability", "--from", str(bad)])
    assert code == 1
    assert "config" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--samples", "0"],
        ["--samples", "-1"],
        ["--levels", "abc"],
        ["--levels", "64,32"],
        ["--levels", "32,32"],
        ["--levels", "1,32"],
    ],
)
def test_diagnose_stability_rejects_scan_options_before_solving(
    capsys, monkeypatch, mfg_report_path, flags
):
    def no_solve(config, n):
        raise AssertionError("a level was solved before the options were checked")

    monkeypatch.setattr(cli, "_solve_mfg_once", no_solve)
    code, _, err = run_cli(
        capsys, ["diagnose-stability", "--from", str(mfg_report_path), "--levels", "32,64"]
        + flags,
    )
    assert code == 1
    assert err.startswith("error: ") and flags[0][2:] in err


@pytest.mark.parametrize(
    "key,value",
    [
        ("solver", "bogus"),
        ("lambda", "1"),
        ("lambda", float("inf")),
        ("tol", None),
        ("theta", True),
        ("max_iter", -3),
        ("max_iter", 2.5),
        ("hamiltonian", 5),
        ("coupling", None),
        ("manufactured", "bogus"),
    ],
)
def test_diagnose_stability_checks_the_config_echo_before_solving(
    capsys, monkeypatch, tmp_path, mfg_report_path, key, value
):
    def no_solve(config, n):
        raise AssertionError("a level was solved before the config echo was checked")

    report = read_json(mfg_report_path)
    report["config"][key] = value
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(report))
    monkeypatch.setattr(cli, "_solve_mfg_once", no_solve)
    code, _, err = run_cli(capsys, ["diagnose-stability", "--from", str(path), "--levels", "8"])
    assert code == 1
    assert err.startswith("error: ") and f"{key} must be" in err


def test_negative_iteration_limit_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["solve-hj", "--n", "8", "--max-iter", "-1"])
    assert code == 1
    assert "max_iter must be an integer >= 0, got -1" in err


@pytest.mark.parametrize("command", ["solve-hj", "solve-mfg", "convergence-hj", "convergence-mfg"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--tol", "0"],
        ["--tol", "nan"],
        ["--max-iter", "-1"],
        ["--solver", "picard", "--theta", "0"],
        ["--solver", "picard", "--theta", "1.5"],
    ],
    ids=["tol-0", "tol-nan", "max_iter--1", "picard-theta-0", "picard-theta-1.5"],
)
def test_bad_solver_flags_rejected_before_any_assembly(capsys, monkeypatch, command, flags):
    def no_mesh(n):
        raise AssertionError("a mesh was built before the solver flags were checked")

    monkeypatch.setattr(cli.mesh, "unit_square_mesh", no_mesh)
    code, _, err = run_cli(capsys, [command] + flags)
    assert code == 1
    key = flags[-2][2:].replace("-", "_")
    assert err.startswith(f"error: {key} must be ")


def test_picard_theta_is_free_under_newton(capsys, tmp_path):
    # theta only steers Picard: Newton runs with any finite value
    out = tmp_path / "hj.json"
    code, _, _ = run_cli(capsys, ["solve-hj", "--n", "4", "--theta", "0", "--out", str(out)])
    assert code == 0 and read_json(out)["config"]["theta"] == 0.0


_NO_HP_JACOBIAN = "model 'eikonal' lacks the gradient data the density equation needs"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["solve-mfg", "--n", "512", "--lambda", "0"], "lambda must be positive, got 0.0"),
        (["solve-mfg", "--n", "512", "--lambda", "-1", "--manufactured", "sinsin"],
         "lambda must be positive, got -1.0"),
        (["solve-mfg", "--n", "512", "--m0", "bogus"], "unknown density field 'bogus'"),
        (["convergence-mfg", "--levels", "256,512", "--lambda", "0"],
         "lambda must be positive, got 0.0"),
        # a model without hp_jacobian: 0.8 s and 134 MB at n=512 when the
        # check came after the mesh and the space
        (["solve-mfg", "--n", "512", "--hamiltonian", "eikonal"], _NO_HP_JACOBIAN),
        (["convergence-mfg", "--levels", "256,512", "--hamiltonian", "eikonal",
          "--manufactured", "sinsin"], _NO_HP_JACOBIAN),
    ],
    ids=["solve-lambda-0", "solve-manufactured-lambda--1", "solve-m0-bogus",
         "convergence-lambda-0", "solve-eikonal", "convergence-manufactured-eikonal"],
)
def test_mfg_lambda_and_m0_rejected_before_any_mesh(capsys, monkeypatch, argv, message):
    def no_mesh(n):
        raise AssertionError("a mesh was built before the config was checked")

    monkeypatch.setattr(cli.mesh, "unit_square_mesh", no_mesh)
    code, _, err = run_cli(capsys, argv)
    assert code == 1
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "key,value,message",
    [("lambda", 0.0, "lambda must be positive, got 0.0"),
     ("m0", "bogus", "unknown density field 'bogus'"),
     ("hamiltonian", "eikonal", _NO_HP_JACOBIAN)],
)
def test_diagnose_stability_echo_lambda_and_m0_rejected_before_any_mesh(
    capsys, monkeypatch, tmp_path, mfg_report_path, key, value, message
):
    def no_mesh(n):
        raise AssertionError("a mesh was built before the config was checked")

    report = read_json(mfg_report_path)
    report["config"][key] = value
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(report))
    monkeypatch.setattr(cli.mesh, "unit_square_mesh", no_mesh)
    code, _, err = run_cli(capsys, ["diagnose-stability", "--from", str(path), "--levels", "8"])
    assert code == 1
    assert err == f"error: {message}\n"


def test_diagnose_stability_lanczos_failure_exits_nonconvergence(
    capsys, monkeypatch, mfg_report_path
):
    # a budget of one application stops the solve at its first Rayleigh-Ritz
    monkeypatch.setattr(diagnostics, "_EIG_BUDGET", 1)
    code, _, err = run_cli(
        capsys,
        ["diagnose-stability", "--from", str(mfg_report_path), "--levels", "24",
         "--samples", "1"],
    )
    assert code == 2
    assert err.startswith("nonconvergence: stability scan at h=")
    assert "selection sample 0: Lanczos" in err


# --------------------------------------------------------------- convergence


def test_convergence_hj_rates(capsys, tmp_path):
    out_path = tmp_path / "conv_hj.json"
    code, _, _ = run_cli(
        capsys,
        ["convergence-hj", "--levels", "8,16,32", "--hamiltonian", "eikonal",
         "--tol", "1e-10", "--out", str(out_path)],
    )
    assert code == 0
    report = read_json(out_path)
    assert report["levels"] == [8, 16, 32]
    errs = report["errors"]["H1"]
    assert errs[0] > errs[1] > errs[2]
    assert 0.8 <= report["rates"]["H1"]["slope"] <= 1.2
    assert report["rates"]["L2"]["slope"] >= 1.5
    assert report["config"]["levels"] == [8, 16, 32]


def test_convergence_mfg_rates(capsys, tmp_path):
    out_path = tmp_path / "conv_mfg.json"
    code, _, _ = run_cli(
        capsys,
        ["convergence-mfg", "--levels", "4,8,16", "--manufactured", "sinsin",
         "--r", "4", "--tol", "1e-9", "--out", str(out_path)],
    )
    assert code == 0
    report = read_json(out_path)
    for key in ("u_H1", "m_L2", "u_W14", "m_L4", "combined_H1_L2",
                "combined_W14_L4"):
        assert key in report["errors"]
        assert key in report["rates"]
    assert report["rates"]["combined_H1_L2"]["slope"] >= 0.8
    assert report["config"]["r"] == 4.0
    assert "m0" not in report["config"]


def test_convergence_mfg_m0_flag_removed(capsys):
    # --manufactured, which the study requires, replaces m0 by m*
    code, _, err = run_cli(
        capsys, ["convergence-mfg", "--levels", "8,16,32", "--m0", "uniform"]
    )
    assert code == 1
    assert "--m0" in err


def test_convergence_mfg_nonconvergent_level_exits_two(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        ["convergence-mfg", "--levels", "4,8,16", "--solver", "picard",
         "--tol", "1e-13", "--max-iter", "2"],
    )
    assert code == 2
    assert "n=" in err


# ------------------------------------------------------------------ selftest


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, ["selftest"])
    assert code == 0
    assert "selftest passed" in out
    assert "FAIL" not in out


def test_module_entry_point():
    # the child imports the package under test, also from a plain checkout
    src = os.path.dirname(os.path.dirname(os.path.abspath(nonsmooth_fem.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "nonsmooth_fem.cli", "mesh-info", "--n", "4"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("vertices=25 triangles=32")
