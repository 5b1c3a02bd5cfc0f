"""Acceptance gate: ten quantitative criteria, one pass/fail line each.

Each criterion prints ``criterion N: PASS/FAIL (measured numbers)``; run
with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen.  The criteria pin the package end to end: closed-form interval
agreement, embedding constants, contraction rates, four perturbation
harness verdicts, control optima against closed forms and a brute-force
grid, friction-law residuals of every converged solve, and byte-level
reproducibility of the command line outputs.
"""

import time

import numpy as np
import pytest

from antiplane import cli, constants, control, fem, oracle, qvi, tykhonov


def _finish(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def control_mesh_1d(n):
    return fem.build_mesh(
        fem.MeshSpec(1, (1.0,), (n,), {"left": fem.GAMMA1, "right": fem.GAMMA2})
    )


def control_mesh_2d(n):
    return fem.build_mesh(
        fem.MeshSpec(
            2,
            (1.0, 1.0),
            (n, n),
            {
                "left": fem.GAMMA1,
                "right": fem.GAMMA2,
                "bottom": fem.GAMMA3,
                "top": fem.GAMMA3,
            },
        )
    )


def test_criterion_01_interval_closed_forms():
    cases = [(1.0, 1.0, 1.0), (1.0, 3.0, 1.0), (2.0, -3.0, 0.5), (1.0, 2.0, 1.0)]
    start = time.perf_counter()
    worst = 0.0
    for mu, f0, g in cases:
        problem = oracle.benchmark_problem(mu, f0, g, 256)
        u, report = qvi.solve_qvi(problem)
        exact = oracle.analytic_1d(mu, f0, g, problem.mesh.nodes)
        worst = max(worst, float(np.max(np.abs(u - exact))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 1.0
    _finish(1, ok, f"max nodal error {worst:.3e}, {elapsed:.2f} s for 4 cases")


def test_criterion_02_embedding_constants():
    start = time.perf_counter()
    mesh = oracle.benchmark_mesh(512)
    report = constants.constants_report(mesh, 0.0, 1.0, seed=0)
    elapsed = time.perf_counter() - start
    c0_ref = np.sqrt(1.0 + 4.0 / np.pi**2)
    c3_ref = np.sqrt(np.tanh(1.0))
    dc0 = abs(report.c0 - c0_ref) / c0_ref
    dc3 = abs(report.c3 - c3_ref) / c3_ref
    ok = dc0 <= 0.01 and dc3 <= 0.01 and elapsed < 5.0
    _finish(
        2,
        ok,
        f"c0 off by {dc0:.2e}, c3 off by {dc3:.2e}, {elapsed:.2f} s at 512 elements",
    )


def test_criterion_03_contraction_rates():
    mesh = oracle.benchmark_mesh(64)

    tight = qvi.ProblemData(
        mesh, 1.0, 3.0, None, fem.FrictionBound.affine(0.25, 0.9), mu_star=1.0
    )
    _, rep_tight = qvi.solve_qvi(tight, qvi.SolverConfig(max_outer=400))
    ratio_ok = (
        0.95 < rep_tight.k < 0.98
        and len(rep_tight.ratios) > 10
        and max(rep_tight.ratios) <= rep_tight.k + 0.05
    )

    loose = qvi.ProblemData(
        mesh, 1.0, 3.0, None, fem.FrictionBound.affine(0.5, 0.5), mu_star=1.0
    )
    _, rep_loose = qvi.solve_qvi(loose)
    budget = int(np.ceil(np.log(1e-10) / np.log(rep_loose.k))) + 5
    count_ok = 0.5 < rep_loose.k < 0.56 and rep_loose.outer_iterations <= budget

    ok = ratio_ok and count_ok
    _finish(
        3,
        ok,
        f"k={rep_tight.k:.3f}: max ratio {max(rep_tight.ratios):.3f}; "
        f"k={rep_loose.k:.3f}: {rep_loose.outer_iterations} iterations "
        f"(budget {budget})",
    )


def test_criterion_04_load_perturbation_decay():
    problem = oracle.benchmark_problem(1.0, 1.0, 1.0, 64)
    schedule = tykhonov.Schedule(kind="load_perturb", length=64, amplitude=1.0)
    report = tykhonov.run_convergence(problem, schedule, seed=11)
    violation = max(report.violations)
    ok = (
        report.verdict == tykhonov.CONVERGENT
        and -1.15 <= report.slope <= -0.85
        and violation <= 1e-8
    )
    _finish(4, ok, f"slope {report.slope:.3f}, max membership violation {violation:.2e}")


def test_criterion_05_modulus_perturbation_decay():
    problem = oracle.benchmark_problem(1.0, 1.0, 1.0, 64)
    schedule = tykhonov.Schedule(
        kind="lame_perturb", length=64, amplitude=1.0, mu_law="relative"
    )
    report = tykhonov.run_convergence(problem, schedule, seed=13)
    violation = max(report.violations)
    ok = (
        report.verdict == tykhonov.CONVERGENT
        and -1.15 <= report.slope <= -0.85
        and violation <= 1e-8
    )
    _finish(
        5,
        ok,
        f"slope {report.slope:.3f}, reduced-index membership violation {violation:.2e}",
    )


def test_criterion_06_adversarial_dichotomy():
    problem = oracle.benchmark_problem(1.0, 1.0, 1.0, 64)
    schedule = tykhonov.Schedule(
        kind="adversarial_load",
        length=20,
        amplitude=0.3,
        decay="geometric",
        ratio=0.5,
        f0_target=1.6,
    )
    report = tykhonov.run_convergence(problem, schedule, seed=17)
    gap = report.limit_gap
    tail = report.errors[len(report.errors) // 2 :]
    to_limit = report.errors_to_limit[-1]
    ok = (
        report.verdict == tykhonov.NON_CONVERGENT
        and gap >= 0.05
        and min(tail) >= 0.9 * gap
        and to_limit <= 1e-6
    )
    _finish(
        6,
        ok,
        f"limit gap {gap:.4f}, tail error {min(tail):.4f}, "
        f"distance to limit {to_limit:.2e} at n=20",
    )


def test_criterion_07_control_closed_form_and_grid():
    start = time.perf_counter()

    mesh = control_mesh_1d(128)
    problem = qvi.ProblemData(mesh, 1.0, 0.0, None, fem.FrictionBound.constant(0.0))
    patches = control.ControlPatches(mesh, 1)
    worst_f2 = 0.0
    worst_J = 0.0
    for a2 in (1.0 / 3.0, 1.0, 3.0):
        weights = control.CostWeights(a0=1.0, a2=a2, target=lambda x: x)
        result = control.minimize_cost(problem, patches, weights, seed=0)
        f2_ref = 1.0 / (1.0 + 3.0 * a2)
        J_ref = a2 / (1.0 + 3.0 * a2)
        worst_f2 = max(worst_f2, abs(float(result.pair.coeffs[0]) - f2_ref))
        worst_J = max(worst_J, abs(result.cost - J_ref))
    line_ok = worst_f2 <= 1e-3 and worst_J <= 1e-6

    mesh2 = control_mesh_2d(12)
    problem2 = qvi.ProblemData(mesh2, 1.0, 0.2, None, fem.FrictionBound.constant(0.0))
    patches2 = control.ControlPatches(mesh2, 2)
    solver = control.StateSolver(problem2, patches2)
    u0, _ = solver.solve(np.zeros(2))
    columns = [solver.solve(np.eye(2)[i])[0] - u0 for i in range(2)]
    V = np.column_stack(columns)
    phi, _ = solver.solve(np.array([0.6, -0.3]))
    weights2 = control.CostWeights(a0=1.0, a2=1e-3, target=phi)

    M = fem.mass_matrix(mesh2)
    r0 = u0 - phi
    A = V.T @ (M @ V)
    b = V.T @ (M @ r0)
    c_const = float(r0 @ (M @ r0))
    grid = np.linspace(-1.0, 1.0, 41)
    cell = grid[1] - grid[0]
    C0, C1 = np.meshgrid(grid, grid, indexing="ij")
    J_grid = (
        A[0, 0] * C0**2 + 2.0 * A[0, 1] * C0 * C1 + A[1, 1] * C1**2
        + 2.0 * (b[0] * C0 + b[1] * C1) + c_const
        + 1e-3 * (patches2.measures[0] * C0**2 + patches2.measures[1] * C1**2)
    )
    i, j = np.unravel_index(np.argmin(J_grid), J_grid.shape)
    c_grid = np.array([grid[i], grid[j]])

    result2 = control.minimize_cost(problem2, patches2, weights2, seed=1)
    dist = float(np.max(np.abs(result2.pair.coeffs - c_grid)))
    elapsed = time.perf_counter() - start
    grid_ok = dist <= cell + 1e-12 and elapsed < 30.0

    ok = line_ok and grid_ok
    _finish(
        7,
        ok,
        f"1D control off by {worst_f2:.2e}, cost off by {worst_J:.2e}; "
        f"2D optimum {dist:.3f} from grid argmin (cell {cell:.3f}); "
        f"{elapsed:.1f} s",
    )


def test_criterion_08_target_perturbation_control():
    mesh = control_mesh_1d(128)
    problem = qvi.ProblemData(mesh, 1.0, 0.0, None, fem.FrictionBound.constant(0.0))
    patches = control.ControlPatches(mesh, 1)
    weights = control.CostWeights(a0=1.0, a2=1.0, target=lambda x: x)
    schedule = tykhonov.Schedule(
        kind="target_perturb", length=32, amplitude=0.1, target_shape=lambda x: x
    )
    report = control.run_oc_sequence(problem, patches, weights, schedule, seed=7)
    ctrl_gap = report.ctrl_dev[-1]
    ok = (
        report.verdict == tykhonov.CONVERGENT
        and -1.2 <= report.slope <= -0.8
        and ctrl_gap <= 1e-3
    )
    _finish(
        8,
        ok,
        f"cost deviation slope {report.slope:.3f}, "
        f"control deviation {ctrl_gap:.2e} at n=32",
    )


def test_criterion_09_friction_law_residuals():
    solves = []
    for mu, f0, g in [(1.0, 1.0, 1.0), (1.0, 3.0, 1.0), (2.0, -3.0, 0.5), (1.0, 2.0, 1.0)]:
        solves.append(oracle.benchmark_problem(mu, f0, g, 256))
    mesh = oracle.benchmark_mesh(64)
    solves.append(
        qvi.ProblemData(mesh, 1.0, 3.0, None, fem.FrictionBound.affine(0.25, 0.9))
    )
    mesh2 = fem.build_mesh(
        fem.MeshSpec(
            2,
            (1.0, 1.0),
            (8, 8),
            {
                "left": fem.GAMMA1,
                "right": fem.GAMMA2,
                "bottom": fem.GAMMA3,
                "top": fem.GAMMA3,
            },
        )
    )
    solves.append(
        qvi.ProblemData(mesh2, 1.0, 1.0, 0.5, fem.FrictionBound.affine(0.2, 0.1))
    )

    worst_slack = -np.inf
    worst_comp = -np.inf
    for problem in solves:
        config = qvi.SolverConfig(max_outer=400)
        u, report = qvi.solve_qvi(problem, config)
        assert report.converged
        _, _, _, stick_slack, comp = qvi.complementarity_report(problem, u)
        worst_slack = max(worst_slack, float(np.max(stick_slack)))
        worst_comp = max(worst_comp, float(np.max(comp)))
    ok = worst_slack <= 1e-8 and worst_comp <= 1e-8
    _finish(
        9,
        ok,
        f"{len(solves)} solves: max |lambda|-G {worst_slack:.2e}, "
        f"max lambda*u+G|u| {worst_comp:.2e}",
    )


def test_criterion_10_deterministic_outputs(tmp_path):
    tyk_cfg = tmp_path / "tyk.cfg"
    tyk_cfg.write_text(
        "mesh:\n"
        "  dimension = 1\n"
        "  extents = 1.0\n"
        "  resolution = 64\n"
        "  partition = left:gamma1, right:gamma3\n"
        "problem:\n"
        "  mu = 1.0\n"
        "  f0 = 1.0\n"
        "  g = 1.0\n"
        "schedule:\n"
        "  kind = load_perturb\n"
        "  length = 12\n"
        "run:\n"
        "  seed = 11\n"
    )
    ctl_cfg = tmp_path / "ctl.cfg"
    ctl_cfg.write_text(
        "mesh:\n"
        "  dimension = 1\n"
        "  extents = 1.0\n"
        "  resolution = 128\n"
        "  partition = left:gamma1, right:gamma2\n"
        "problem:\n"
        "  mu = 1.0\n"
        "  f0 = 0.0\n"
        "  g = 0.0\n"
        "control:\n"
        "  patches = 1\n"
        "  a0 = 1.0\n"
        "  a2 = 1.0\n"
        "  target = poly(0, 1)\n"
        "run:\n"
        "  seed = 5\n"
    )

    compared = 0
    identical = True
    for name, cfg in (("tykhonov", tyk_cfg), ("control", ctl_cfg)):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}-{run}"
            code = cli.main([name, "--config", str(cfg), "--out", str(out)])
            assert code == 0
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir())
        for fname in files:
            compared += 1
            if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
                identical = False
    _finish(10, identical, f"{compared} output files byte-compared across reruns")
