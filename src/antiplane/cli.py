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
import os
import sys

import numpy as np

from . import config as cfgmod
from . import constants as constmod
from . import control, fem, oracle, output, qvi, tykhonov

NEEDS_SEED = {"constants", "tykhonov", "control", "oc-sequence"}


class VerdictFailure(Exception):
    """A run finished but did not meet its configured expectation."""


def _resolve_out(args, cfg) -> str:
    out = args.out if args.out is not None else cfg["run"].get("out")
    out = out if out is not None else "."
    os.makedirs(out, exist_ok=True)
    return out


def _resolve_seed(args, cfg, subcommand) -> int | None:
    seed = args.seed if args.seed is not None else cfg["run"].get("seed")
    needed = subcommand in NEEDS_SEED or (
        subcommand == "solve" and cfg["run"]["certify"]
    )
    if needed and seed is None:
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
    section = cfg["constants"]
    mu_star = section["mu_star"]
    if mu_star is None:
        mu_star = 1.0
    report = constmod.constants_report(
        mesh,
        section["lipschitz"],
        mu_star,
        tol=section["tol"],
        maxiter=section["max_iterations"],
        seed=seed,
    )
    output.write_csv(
        os.path.join(out, "constants.csv"),
        ["quantity", "value"],
        [
            ("c0", report.c0),
            ("c3", report.c3),
            ("lipschitz", section["lipschitz"]),
            ("mu_star", mu_star),
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

    ratios = [None] + list(report.ratios)
    output.write_csv(
        os.path.join(out, "iterations.csv"),
        ["iteration", "increment", "ratio"],
        [
            (i + 1, inc, ratios[i] if i < len(ratios) else None)
            for i, inc in enumerate(report.increments)
        ],
    )

    idx, lam, G, stick_slack, comp = qvi.complementarity_report(problem, u)
    header, rows = _node_table(
        mesh,
        idx,
        ["u", "lambda", "bound", "stick_slack", "complementarity"],
        [u[idx], lam, G, stick_slack, comp],
    )
    output.write_csv(os.path.join(out, "multipliers.csv"), header, rows)

    final_increment = report.increments[-1] if report.increments else 0.0
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
        violation = float(
            qvi.membership_violation(mesh, problem.mu, u, theta, seed=seed)
        )
        pairs.append(("membership_violation", violation))
        print(f"membership violation = {violation!r}")
        if violation > 1e-8:
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
        seed=seed,
        noise_floor=cfg["schedule"]["noise_floor"],
    )

    header = ["n", "scale", "eps", "error", "violation"]
    columns = [report.ns, report.scales, report.eps, report.errors, report.violations]
    if report.errors_to_limit is not None:
        header.append("error_to_limit")
        columns.append(report.errors_to_limit)
    output.write_csv(
        os.path.join(out, "sequence.csv"), header, list(zip(*columns))
    )

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
    ctl = cfg["control"]
    kwargs = {
        "n_starts": ctl["n_starts"],
        "start_scale": ctl["start_scale"],
        "xatol": ctl["xatol"],
        "fatol": ctl["fatol"],
    }
    if ctl["max_evals"] is not None:
        kwargs["max_evals"] = ctl["max_evals"]
    return kwargs


def _run_control(cfg, out, seed):
    mesh = cfgmod.build_mesh(cfg)
    problem = cfgmod.build_problem(cfg, mesh)
    solver_cfg = cfgmod.build_solver_config(cfg)
    patches = cfgmod.build_patches(cfg, mesh)
    weights = cfgmod.build_weights(cfg)
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
    if result.violation is not None and result.violation > 1e-8:
        raise VerdictFailure(
            f"selected control violates admissibility by {result.violation!r}"
        )
    return 0


def _run_oc_sequence(cfg, out, seed):
    mesh = cfgmod.build_mesh(cfg)
    problem = cfgmod.build_problem(cfg, mesh)
    solver_cfg = cfgmod.build_solver_config(cfg)
    patches = cfgmod.build_patches(cfg, mesh)
    weights = cfgmod.build_weights(cfg)
    schedule = cfgmod.build_oc_schedule(cfg)
    oc = cfg["oc"]
    report = control.run_oc_sequence(
        problem,
        patches,
        weights,
        schedule,
        solver_cfg,
        seed=seed,
        n_starts=cfg["control"]["n_starts"],
        seq_starts=oc["seq_starts"],
        start_scale=cfg["control"]["start_scale"],
        ctrl_tol=oc["ctrl_tol"],
        noise_floor=oc["noise_floor"],
        xatol=cfg["control"]["xatol"],
        fatol=cfg["control"]["fatol"],
    )

    output.write_csv(
        os.path.join(out, "oc_sequence.csv"),
        [
            "n",
            "scale",
            "eps",
            "cost",
            "cost_dev",
            "ctrl_dev",
            "ctrl_dev_set",
            "state_dev",
            "violation",
        ],
        list(
            zip(
                report.ns,
                report.scales,
                report.eps,
                report.costs,
                report.cost_dev,
                report.ctrl_dev,
                report.ctrl_dev_set,
                report.state_dev,
                report.violations,
            )
        ),
    )
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
