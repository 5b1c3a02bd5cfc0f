"""Command line front end.

Usage: ``antiplane <subcommand> --config <path> [--out <dir>] [--seed <n>]``.

Subcommands: ``constants`` (discrete embedding constants and the
contraction margin), ``solve`` (one frictional equilibrium problem),
``validate-1d`` (nodal comparison against the closed-form interval
solutions), ``tykhonov`` (perturbation sequence with convergence
verdict), ``control`` (boundary traction optimization) and
``oc-sequence`` (perturbed control problems against the unperturbed
optimum).

Exit codes: 0 on success, including a verdict that matches the
configured ``expect``; 1 when a check or verdict fails or a solve does
not converge; 2 on usage or configuration errors and on data that the
solvers refuse with a ValueError (e.g. a shear modulus that is not
positive).  All results land in the output directory as CSV tables
(always with a header row) and SVG plots, written atomically and
byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

import numpy as np

from . import config as cfgmod
from . import constants as constmod
from . import control, fem, oracle, output, qvi, tykhonov

# the subcommands that draw random numbers: the optimizer starts
NEEDS_SEED = {"control", "oc-sequence"}


class VerdictFailure(Exception):
    """A run finished but did not meet its configured expectation."""


def _resolve_out(args, cfg) -> str:
    out = args.out if args.out is not None else cfg["run"]["out"]
    os.makedirs(out, exist_ok=True)
    return out


def _resolve_seed(args, cfg, subcommand) -> int | None:
    seed = args.seed if args.seed is not None else cfg["run"]["seed"]
    if subcommand in NEEDS_SEED and seed is None:
        raise cfgmod.ConfigError(
            f"subcommand {subcommand!r} draws random numbers; "
            "set seed in the run section or pass --seed"
        )
    if seed is not None and seed < 0:
        raise cfgmod.ConfigError("seed must be nonnegative")
    return seed


def _write_summary(out, pairs) -> None:
    output.write_csv(os.path.join(out, "summary.csv"), ["key", "value"], pairs)


def _write_control(out, coeffs) -> None:
    output.write_csv(os.path.join(out, "control.csv"), ["patch", "value"], list(enumerate(coeffs)))


def _write_columns(path, columns) -> None:
    """A table from an ordered {column name: values} map, one row per index."""
    output.write_csv(path, list(columns), zip(*columns.values()))


def _node_table(mesh, idx, names, columns):
    """Header and rows of a per-node table: each node of ``idx``, its
    coordinates, then its value in each of the named ``columns``."""
    coords = mesh.nodes[idx].reshape(len(idx), mesh.dimension).T
    header = ["node", "x", "y"][: 1 + mesh.dimension] + names
    return header, [(int(i), *row) for i, *row in zip(idx, *coords, *columns)]


def _verdict(report, expect) -> int:
    print(f"verdict: {report.verdict} (expected {expect}), slope {report.slope!r}")
    if report.verdict != expect:
        raise VerdictFailure(f"verdict {report.verdict}, expected {expect}")
    return 0


# ---------------------------------------------------------------------------
# subcommands

def _run_constants(cfg, out, seed):
    mesh = cfgmod.build_mesh(cfg)
    section = cfgmod.build_constants(cfg)
    report = constmod.constants_report(mesh, section["lipschitz"], section["mu_star"])
    output.write_csv(
        os.path.join(out, "constants.csv"),
        ["quantity", "value"],
        [
            ("c0", report.c0),
            ("c3", report.c3),
            ("lipschitz", section["lipschitz"]),
            ("mu_star", section["mu_star"]),
            ("k", report.k),
            ("contraction", report.ok),
        ],
    )
    print(f"c0 = {report.c0!r}")
    print(f"c3 = {report.c3!r}")
    print(f"k = {report.k!r} ({'contraction' if report.ok else 'no contraction'})")
    if section["require_contraction"] and not report.ok:
        raise VerdictFailure(f"contraction required but k = {report.k!r} >= 1")
    return 0


def _run_solve(cfg, out, seed):
    mesh = cfgmod.build_mesh(cfg)
    problem = cfgmod.build_problem(cfg, mesh)
    solver_cfg = cfgmod.build_solver_config(cfg)
    u, report = qvi.solve_qvi(problem, solver_cfg)

    header, rows = _node_table(mesh, np.arange(mesh.n_nodes), ["u"], [u])
    output.write_csv(os.path.join(out, "solution.csv"), header, rows)

    # fixed_point gives one ratio fewer than increments: none for the first
    output.write_csv(
        os.path.join(out, "iterations.csv"),
        ["iteration", "increment", "ratio"],
        zip(itertools.count(1), report.increments, [None] + report.ratios),
    )

    idx, lam, G, stick_slack, comp = qvi.complementarity_report(problem, u)
    header, rows = _node_table(
        mesh,
        idx,
        ["u", "lambda", "bound", "stick_slack", "complementarity"],
        [u[idx], lam, G, stick_slack, comp],
    )
    output.write_csv(os.path.join(out, "multipliers.csv"), header, rows)

    final_increment = report.increments[-1]
    pairs = [
        ("converged", report.converged),
        ("outer_iterations", report.outer_iterations),
        ("c0", report.c0),
        ("c3", report.c3),
        ("k", report.k),
        ("contraction", report.contraction_ok),
        ("final_increment", final_increment),
        ("max_stick_slack", float(np.max(stick_slack)) if len(idx) else 0.0),
        ("max_complementarity", float(np.max(np.abs(comp))) if len(idx) else 0.0),
    ]
    code = 0
    if cfg["run"]["certify"]:
        theta = qvi.TykhonovIndex(eps=0.0, f0=problem.f0, f2=problem.f2, g=problem.g)
        violation = float(qvi.membership_violation(mesh, problem.mu, u, theta))
        pairs.append(("membership_violation", violation))
        print(f"membership violation = {violation!r}")
        if violation > qvi.CERT_TOL:
            code = 1
    _write_summary(out, pairs)
    print(
        f"converged in {report.outer_iterations} outer iterations, "
        f"final increment {final_increment!r}"
    )
    return code


def _run_validate_1d(cfg, out, seed):
    section = cfg["validate"]
    rows = []
    failures = 0
    for mu, f0, g in section["cases"]:
        problem = oracle.benchmark_problem(mu, f0, g, section["elements"])
        u, _ = qvi.solve_qvi(problem)
        exact = oracle.analytic_1d(mu, f0, g, problem.mesh.nodes)
        error = float(np.max(np.abs(u - exact)))
        passed = error <= section["tol"]
        failures += not passed
        regime = oracle.regime_of(mu, f0, g).name.lower()
        rows.append((mu, f0, g, regime, error, section["tol"], passed))
        print(
            f"mu={mu} f0={f0} g={g}: {regime}, max nodal error {error:.3e} "
            f"({'PASS' if passed else 'FAIL'})"
        )
    output.write_csv(
        os.path.join(out, "validation.csv"),
        ["mu", "f0", "g", "regime", "max_error", "tol", "passed"],
        rows,
    )
    if failures:
        raise VerdictFailure(f"{failures} of {len(rows)} cases exceeded tolerance")
    return 0


def _run_tykhonov(cfg, out, seed):
    mesh = cfgmod.build_mesh(cfg)
    problem = cfgmod.build_problem(cfg, mesh)
    solver_cfg = cfgmod.build_solver_config(cfg)
    schedule = cfgmod.build_schedule(cfg)
    report = tykhonov.run_convergence(
        problem,
        schedule,
        solver_cfg,
        noise_floor=cfg["schedule"]["noise_floor"],
    )

    columns = {
        "n": report.ns,
        "scale": report.scales,
        "eps": report.eps,
        "error": report.errors,
        "violation": report.violations,
    }
    if report.errors_to_limit is not None:
        columns["error_to_limit"] = report.errors_to_limit
    _write_columns(os.path.join(out, "sequence.csv"), columns)

    pairs = [
        ("kind", report.kind),
        ("verdict", report.verdict),
        ("slope", report.slope),
        ("noise_floor", report.noise_floor),
        ("max_violation", report.max_violation),
    ]
    if report.limit_gap is not None:
        pairs.append(("limit_gap", report.limit_gap))
    _write_summary(out, pairs)

    series = [("error to solution", report.ns, report.errors)]
    if report.errors_to_limit is not None:
        series.append(("error to limit", report.ns, report.errors_to_limit))
    output.write_svg_loglog(
        os.path.join(out, "errors.svg"),
        series,
        title=f"perturbation decay: {report.kind}",
        xlabel="n",
        ylabel="V-norm error",
    )

    return _verdict(report, cfg["schedule"]["expect"])


def _control_kwargs(cfg):
    """The optimizer keywords of the control section: its keys that
    ``minimize_cost`` takes, under their own names."""
    names = control.minimize_cost.__kwdefaults__
    return {key: value for key, value in cfg["control"].items() if key in names}


def _run_control(cfg, out, seed):
    mesh = cfgmod.build_mesh(cfg)
    problem = cfgmod.build_problem(cfg, mesh)
    solver_cfg = cfgmod.build_solver_config(cfg)
    patches = cfgmod.build_patches(cfg, mesh)
    weights = cfgmod.build_weights(cfg, mesh)
    result = control.minimize_cost(
        problem,
        patches,
        weights,
        solver_cfg,
        seed=seed,
        **_control_kwargs(cfg),
    )

    _write_control(out, result.pair.coeffs)
    output.write_csv(
        os.path.join(out, "trace.csv"),
        ["start", "evaluation", "cost"],
        [
            (s, i, J)
            for s, trace in enumerate(result.traces)
            for i, J in enumerate(trace)
        ],
    )
    d = patches.n_patches
    output.write_csv(
        os.path.join(out, "clusters.csv"),
        ["cluster", "cost", "size"] + [f"c{j}" for j in range(d)],
        [
            (i, cost, size) + tuple(coeffs)
            for i, (cost, coeffs, size) in enumerate(result.clusters)
        ],
    )
    pairs = [
        ("cost", result.cost),
        ("best_cost", result.best_cost),
        ("spread", result.spread),
        ("n_starts", len(result.starts)),
        ("n_clusters", len(result.clusters)),
        ("violation", result.violation),
    ]
    _write_summary(out, pairs)
    values = ", ".join(repr(float(c)) for c in result.pair.coeffs)
    print(f"optimal control: [{values}]")
    print(f"cost {result.cost!r}, {len(result.clusters)} cluster(s)")
    if result.violation is not None and result.violation > qvi.CERT_TOL:
        raise VerdictFailure(
            f"selected control violates admissibility by {result.violation!r}"
        )
    return 0


def _run_oc_sequence(cfg, out, seed):
    mesh = cfgmod.build_mesh(cfg)
    problem = cfgmod.build_problem(cfg, mesh)
    solver_cfg = cfgmod.build_solver_config(cfg)
    patches = cfgmod.build_patches(cfg, mesh)
    weights = cfgmod.build_weights(cfg, mesh)
    schedule = cfgmod.build_oc_schedule(cfg)
    oc = cfg["oc"]
    report = control.run_oc_sequence(
        problem,
        patches,
        weights,
        schedule,
        solver_cfg,
        seed=seed,
        seq_starts=oc["seq_starts"],
        ctrl_tol=oc["ctrl_tol"],
        noise_floor=oc["noise_floor"],
        **_control_kwargs(cfg),
    )

    columns = {
        "n": report.ns,
        "scale": report.scales,
        "eps": report.eps,
        "cost": report.costs,
        "cost_dev": report.cost_dev,
        "ctrl_dev": report.ctrl_dev,
        "ctrl_dev_set": report.ctrl_dev_set,
        "state_dev": report.state_dev,
        "violation": report.violations,
    }
    _write_columns(os.path.join(out, "oc_sequence.csv"), columns)
    _write_control(out, report.base.pair.coeffs)
    pairs = [
        ("kind", report.kind),
        ("verdict", report.verdict),
        ("slope", report.slope),
        ("base_cost", report.base.cost),
        ("ctrl_tol", report.ctrl_tol),
        ("noise_floor", report.noise_floor),
        ("max_violation", report.max_violation),
    ]
    _write_summary(out, pairs)
    output.write_svg_loglog(
        os.path.join(out, "deviations.svg"),
        [
            ("cost deviation", report.ns, report.cost_dev),
            ("control deviation", report.ns, report.ctrl_dev_set),
        ],
        title=f"control stability: {report.kind}",
        xlabel="n",
        ylabel="deviation",
    )

    return _verdict(report, oc["expect"])


_RUNNERS = {
    "constants": _run_constants,
    "solve": _run_solve,
    "validate-1d": _run_validate_1d,
    "tykhonov": _run_tykhonov,
    "control": _run_control,
    "oc-sequence": _run_oc_sequence,
}


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antiplane",
        description="frictional antiplane shear laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="random seed")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = cfgmod.parse_config(args.config, args.command)
        out = _resolve_out(args, cfg)
        seed = _resolve_seed(args, cfg, args.command)
        return _RUNNERS[args.command](cfg, out, seed)
    except cfgmod.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerdictFailure as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except (
        qvi.SolverError, control.ControlError, fem.MeshError, constmod.ConvergenceError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
