"""Batch front end: argument parsing, study orchestration, JSON/CSV reports.

Exit codes: 0 success, 1 usage error, 2 nonconvergence (or a failed
selftest). Reports embed the resolved configuration and are byte-identical
across reruns with the same config, except for the wall_time_s field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import diagnostics as dg
from . import fem
from . import hamiltonian as hm
from . import hj_solver
from . import manufactured as man
from . import mesh
from . import mfg_solver as mfg
from .fem import FemError, NonconvergenceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONCONVERGED = 2


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; usage errors must be 1
    def error(self, message):
        raise UsageError(message)


_MANUFACTURED = {"sinsin"}
_M0_FIELDS = {
    "bump": man.bump,
    "sinsin": man.m_star,
    "uniform": lambda X: np.ones(len(X)),
}


def _positive_levels(text: str):
    try:
        levels = [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"levels must be integers, got {text!r}") from exc
    if not levels or levels != sorted(levels) or len(set(levels)) != len(levels):
        raise UsageError(f"levels must be strictly increasing, got {text!r}")
    if any(n < 2 for n in levels):
        raise UsageError("levels must be at least 2")
    return levels


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise UsageError(f"{name} must be finite, got {value}")
    return value


def _is_number(value, kind=(int, float)) -> bool:
    """A number of that kind, not a bool (JSON true parses as one)."""
    return isinstance(value, kind) and not isinstance(value, bool)


# The rules of the solve flags, checked on the parsed flags before any
# assembly (_solver_config) and on a report's config echo (_check_echo):
# key -> (test of the config, what the key's value must be)
_SOLVER_RULES = {
    "solver": (lambda c: c["solver"] in ("newton", "picard"), "newton or picard"),
    "lambda": (lambda c: _is_number(c["lambda"]) and np.isfinite(c["lambda"]), "a finite number"),
    "tol": (lambda c: _is_number(c["tol"]) and 0 < c["tol"] < np.inf, "a finite number > 0"),
    "max_iter": (lambda c: _is_number(c["max_iter"], int) and c["max_iter"] >= 0, "an integer >= 0"),
    "theta": (
        lambda c: _is_number(c["theta"])
        and (0 < c["theta"] <= 1 if c["solver"] == "picard" else np.isfinite(c["theta"])),
        "a finite number, in (0, 1] for the picard solver",
    ),
}


def _check_rules(config: dict, rules: dict, where: str = "") -> None:
    for key, (ok, what) in rules.items():
        if not ok(config):
            raise UsageError(f"{where}{key} must be {what}, got {config[key]!r}")


def _manufactured_name(name: str) -> str:
    if name not in _MANUFACTURED:
        raise UsageError(f"unknown manufactured solution {name!r}")
    return name


def _m0_field(name: str):
    if name not in _M0_FIELDS:
        raise UsageError(f"unknown density field {name!r}")
    return _M0_FIELDS[name]


def _json_default(obj):
    """What json cannot write unaided: numpy scalars (np.float64 is a float
    and needs no help), numpy arrays and rate fits."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    if isinstance(obj, dg.RateFit):
        return {"slope": obj.slope, "r_squared": obj.r_squared, "intercept": obj.intercept}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(path: str | None, text: str) -> None:
    """Write text to path, or to stdout without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _write_report(path: str | None, report: dict) -> None:
    _emit(path, json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n")


def _write_study(path, command: str, config: dict, study: dg.ConvergenceReport, t0) -> int:
    """Write a refinement-study report; t0 is the study's start time."""
    _write_report(path, {
        "command": command,
        "config": config,
        "levels": study.levels,
        "hs": study.hs,
        "dofs": study.dofs,
        "errors": study.errors,
        "rates": study.rates,
        "meta": study.meta,
        "wall_time_s": time.perf_counter() - t0,
    })
    return EXIT_OK


# ---------------------------------------------------------------- subcommands


def _cmd_mesh_info(args) -> int:
    grid = mesh.unit_square_mesh(args.n)
    print(
        f"vertices={grid.n_vertices} triangles={grid.n_triangles} "
        f"h={float(grid.mesh_size_h)!r}"
    )
    return EXIT_OK


def _solver_config(args) -> dict:
    """Config echo of the flags the HJ and MFG subcommands share, checked
    against _SOLVER_RULES."""
    n = getattr(args, "n", None)
    if n is not None and n < 2:
        raise UsageError("n must be at least 2")
    config = {
        "n": n,
        "hamiltonian": args.hamiltonian,
        "lambda": float(args.lam),
        "solver": args.solver,
        "tol": float(args.tol),
        "max_iter": args.max_iter,
        "theta": float(args.theta),
    }
    _check_rules(config, _SOLVER_RULES)
    return config


def _hj_config(args) -> dict:
    return {**_solver_config(args), "manufactured": _manufactured_name(args.manufactured)}


def _cmd_solve_hj(args) -> int:
    config = _hj_config(args)
    if config["lambda"] < 0:
        raise UsageError("lambda must be nonnegative")
    model = hm.model_from_spec(config["hamiltonian"])
    space = fem.make_space(mesh.unit_square_mesh(config["n"]))
    problem = hj_solver.HjProblem(
        space=space,
        model=model,
        lam=config["lambda"],
        f=man.hj_source(model, config["lambda"]),
    )
    t0 = time.perf_counter()
    if config["solver"] == "newton":
        report = hj_solver.solve_newton(problem, tol=config["tol"], max_iter=config["max_iter"])
    else:
        report = hj_solver.solve_picard(
            problem, tol=config["tol"], max_iter=config["max_iter"],
            theta_p=config["theta"],
        )
    err_h1, err_l2 = fem.error_vs_exact(
        space, report.final_u, man.u_star, man.grad_u_star, ("H1", "L2")
    )
    payload = {
        "command": "solve-hj",
        "config": config,
        "h": space.mesh.mesh_size_h,
        "dofs": space.n_free,
        "converged": report.converged,
        "iterations": report.iterations,
        "residuals": report.residual_history,
        "err_h1": err_h1,
        "err_l2": err_l2,
        "message": report.message,
        "wall_time_s": time.perf_counter() - t0,
    }
    _write_report(args.out, payload)
    return EXIT_OK if report.converged else EXIT_NONCONVERGED


def _mfg_config(args) -> dict:
    return {
        **_solver_config(args),
        "coupling": args.coupling,
        "manufactured": _manufactured_name(args.manufactured) if args.manufactured else None,
    }


def _mfg_problem_from_config(config: dict, n: int) -> mfg.MfgProblem:
    """The level-n problem of an MFG config; lambda, the model's gradient
    data and the m0 name are checked before the mesh is built."""
    model = hm.model_from_spec(config["hamiltonian"])
    coupling = mfg.coupling_from_spec(config["coupling"])
    lam = config["lambda"]
    mfg.check_model_and_lambda(model, lam)
    m0 = None if config.get("manufactured") else _m0_field(config["m0"])
    space = fem.make_space(mesh.unit_square_mesh(n))
    if m0 is None:
        g_hjb, g_fp = man.mfg_sources(model, coupling, lam)
        return mfg.make_mfg_problem(
            space, model, coupling, lam, man.m_star, g_hjb=g_hjb, g_fp=g_fp
        )
    return mfg.make_mfg_problem(space, model, coupling, lam, m0)


def _solve_mfg_once(config: dict, n: int) -> tuple:
    problem = _mfg_problem_from_config(config, n)
    if config["solver"] == "newton":
        report = mfg.mfg_newton(problem, tol=config["tol"], max_iter=config["max_iter"])
    else:
        report = mfg.mfg_picard(
            problem, tol=config["tol"], max_iter=config["max_iter"],
            theta_p=config["theta"],
        )
    return problem, report


def _cmd_solve_mfg(args) -> int:
    config = {**_mfg_config(args), "m0": args.m0}
    t0 = time.perf_counter()
    problem, report = _solve_mfg_once(config, config["n"])
    space = problem.space
    payload = {
        "command": "solve-mfg",
        "config": config,
        "h": space.mesh.mesh_size_h,
        "dofs": space.n_free,
        "converged": report.converged,
        "iterations": report.iterations,
        "residuals": report.residual_history,
        "message": report.message,
        "total_mass": float(
            fem.assemble_load(space, lambda X: np.ones(len(X))) @ report.final_state.m
        ),
    }
    if config["manufactured"]:
        payload["err_u_h1"] = fem.error_vs_exact(
            space, report.final_state.u, man.u_star, man.grad_u_star, "H1"
        )
        payload["err_m_l2"] = fem.error_vs_exact(
            space, report.final_state.m, man.m_star, man.grad_m_star, "L2"
        )
    payload["wall_time_s"] = time.perf_counter() - t0
    _write_report(args.out, payload)
    return EXIT_OK if report.converged else EXIT_NONCONVERGED


def _cmd_convergence_hj(args) -> int:
    levels = _positive_levels(args.levels)
    config = _hj_config(args)
    config["levels"] = levels
    del config["n"]
    model = hm.model_from_spec(config["hamiltonian"])
    lam = config["lambda"]
    source = man.hj_source(model, lam)

    def factory(n):
        space = fem.make_space(mesh.unit_square_mesh(n))
        return hj_solver.HjProblem(space=space, model=model, lam=lam, f=source)

    t0 = time.perf_counter()
    study = hj_solver.convergence_study_hj(
        factory, levels, man.u_star, man.grad_u_star,
        solver=config["solver"], tol=config["tol"], max_iter=config["max_iter"],
        theta_p=config["theta"],
    )
    return _write_study(args.out, "convergence-hj", config, study, t0)


def _cmd_convergence_mfg(args) -> int:
    levels = _positive_levels(args.levels)
    config = _mfg_config(args)
    config["levels"] = levels
    config["r"] = _check_finite("r", args.r)
    del config["n"]
    if not config["manufactured"]:
        raise UsageError("convergence-mfg requires --manufactured")
    t0 = time.perf_counter()
    study = mfg.convergence_study_mfg(
        lambda n: _mfg_problem_from_config(config, n),
        levels, man.u_star, man.grad_u_star, man.m_star, man.grad_m_star,
        solver=config["solver"], tol=config["tol"], max_iter=config["max_iter"],
        theta_p=config["theta"], r=config["r"],
    )
    return _write_study(args.out, "convergence-mfg", config, study, t0)


def _check_echo(config: dict, source: str) -> None:
    """The solve flags' rules (_SOLVER_RULES), and names as strings, on a
    report's config echo."""
    names = {key: (lambda c, key=key: isinstance(c[key], str), "a string")
             for key in ("hamiltonian", "coupling", "m0")}
    names["manufactured"] = (lambda c: c["manufactured"] in (None, *_MANUFACTURED), "null or sinsin")
    _check_rules(config, {**_SOLVER_RULES, **names}, f"config in {source!r}: ")


def _cmd_diagnose_stability(args) -> int:
    levels = _positive_levels(args.levels)
    if args.samples < 1:
        raise UsageError(f"samples must be at least 1, got {args.samples}")
    try:
        with open(args.source) as fh:
            source = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {args.source!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{args.source!r} is not valid JSON: {exc}") from exc
    config = source.get("config")
    if not isinstance(config, dict):
        raise UsageError(f"{args.source!r} carries no config echo")
    for key in ("hamiltonian", "coupling", "lambda", "tol", "solver"):
        if key not in config:
            raise UsageError(f"config in {args.source!r} lacks {key!r}")
    config = {"m0": "bump", "manufactured": None, "max_iter": 100, "theta": 0.5, **config}
    _check_echo(config, args.source)
    t0 = time.perf_counter()
    cases = []
    for n in levels:
        problem, report = _solve_mfg_once(config, n)
        if not report.converged:
            raise NonconvergenceError(
                f"level n={n} did not converge while rebuilding the scanned state"
            )
        cases.append((problem, report.final_state))
    scan = dg.stability_scan(cases, n_selection_samples=args.samples)
    lines = ["h,sample,smin"]
    for h, vals in zip(scan.hs, scan.smin):
        for idx, val in enumerate(vals):
            lines.append(f"{float(h)!r},{idx},{float(val)!r}")
    _emit(args.out, "\n".join(lines) + "\n")
    print(
        f"min={min(scan.min_per_level)!r} ratio_max_min={scan.ratio_max_min!r} "
        f"kink_elements={scan.meta['kink_elements']} "
        f"wall_time_s={time.perf_counter() - t0:.3f}"
    )
    return EXIT_OK


def _selftest_cases():
    def mesh_counts():
        grid = mesh.unit_square_mesh(4)
        assert grid.n_vertices == 25 and grid.n_triangles == 32
        assert abs(grid.mesh_size_h - np.sqrt(2.0) / 4.0) <= 1e-15

    def mesh_area():
        grid = mesh.unit_square_mesh(5)
        areas = np.full(grid.n_triangles, fem.make_space(grid).area)
        assert abs(areas.sum() - 1.0) <= 1e-13

    def eikonal_pointwise():
        model = hm.builtin_model("eikonal")
        assert hm.eval_many(model, np.array([3.0, 4.0]))[0] == 5.0
        assert np.array_equal(hm.selection_many(model, np.zeros(2))[0], np.zeros(2))

    def banach_identity():
        assert abs(dg.banach_constant(np.eye(5)) - 1.0) <= 1e-14

    def perturbation_zero_slack():
        holds, slack = dg.perturbation_check(np.eye(4), np.zeros((4, 4)))
        assert holds and slack == 0.0

    def hj_zero_model_single_newton_step():
        space = fem.make_space(mesh.unit_square_mesh(4))
        problem = hj_solver.HjProblem(
            space=space, model=hm.builtin_model("zero"), lam=1.0,
            f=lambda X: np.ones(len(X)),
        )
        report = hj_solver.solve_newton(problem, tol=1e-12)
        assert report.converged and report.iterations == 1

    def mfg_zero_data_zero_residual():
        space = fem.make_space(mesh.unit_square_mesh(4))
        problem = mfg.make_mfg_problem(
            space, hm.builtin_model("zero"), mfg.zero_coupling(), 1.0,
            np.zeros(space.n_free), g_fp=lambda X: np.zeros(len(X)),
        )
        state = mfg.MfgState(u=np.zeros(space.n_free), m=np.zeros(space.n_free))
        assert np.array_equal(
            mfg.mfg_residual(problem, state), np.zeros(2 * space.n_free)
        )

    def mfg_picard_decoupled_single_outer():
        space = fem.make_space(mesh.unit_square_mesh(4))
        problem = mfg.make_mfg_problem(
            space, hm.builtin_model("huber", delta=1.0), mfg.zero_coupling(), 1.0,
            man.bump,
        )
        report = mfg.mfg_picard(problem, tol=1e-9, max_iter=5, theta_p=1.0)
        assert report.converged and report.iterations == 1

    return [
        ("mesh counts", mesh_counts),
        ("mesh area", mesh_area),
        ("eikonal pointwise", eikonal_pointwise),
        ("banach identity", banach_identity),
        ("perturbation zero slack", perturbation_zero_slack),
        ("hj zero-model newton", hj_zero_model_single_newton_step),
        ("mfg zero-data residual", mfg_zero_data_zero_residual),
        ("mfg decoupled picard", mfg_picard_decoupled_single_outer),
    ]


def _cmd_selftest(args) -> int:
    failures = 0
    for label, case in _selftest_cases():
        try:
            case()
        except Exception as exc:
            failures += 1
            print(f"FAIL - {label}: {exc}")
        else:
            print(f"ok - {label}")
    if failures:
        print(f"{failures} selftest case(s) failed")
        return EXIT_NONCONVERGED
    print("selftest passed")
    return EXIT_OK


# -------------------------------------------------------------------- parsing


def _add_common_solver_flags(p, tol_default):
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--solver", choices=("newton", "picard"), default="newton")
    p.add_argument("--tol", type=float, default=tol_default)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nonsmooth-fem", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("mesh-info", help="structured mesh size summary")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_mesh_info)

    p = sub.add_parser("solve-hj", help="single Hamilton-Jacobi solve")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--hamiltonian", default="eikonal")
    p.add_argument("--manufactured", default="sinsin")
    _add_common_solver_flags(p, 1e-10)
    p.set_defaults(func=_cmd_solve_hj)

    p = sub.add_parser("solve-mfg", help="single coupled-system solve")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--hamiltonian", default="huber:1.0")
    p.add_argument("--coupling", default="local:linear")
    p.add_argument("--m0", default="bump")
    p.add_argument("--manufactured", default=None)
    _add_common_solver_flags(p, 1e-9)
    p.set_defaults(func=_cmd_solve_mfg)

    p = sub.add_parser("convergence-hj", help="refinement study, value equation")
    p.add_argument("--levels", default="8,16,32,64")
    p.add_argument("--hamiltonian", default="eikonal")
    p.add_argument("--manufactured", default="sinsin")
    _add_common_solver_flags(p, 1e-10)
    p.set_defaults(func=_cmd_convergence_hj)

    p = sub.add_parser("convergence-mfg", help="refinement study, coupled system")
    p.add_argument("--levels", default="8,16,32,64")
    p.add_argument("--hamiltonian", default="huber:1.0")
    p.add_argument("--coupling", default="local:linear")
    p.add_argument("--manufactured", default="sinsin")
    p.add_argument("--r", type=float, default=4.0)
    _add_common_solver_flags(p, 1e-9)
    p.set_defaults(func=_cmd_convergence_mfg)

    p = sub.add_parser("diagnose-stability", help="selection-sampled stability scan")
    p.add_argument("--from", dest="source", required=True, metavar="MFG_JSON")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--levels", default="8,16,32")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_diagnose_stability)

    p = sub.add_parser("selftest", help="run the built-in sanity examples")
    p.set_defaults(func=_cmd_selftest)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonconvergenceError as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except FemError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
