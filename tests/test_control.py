"""Tests for boundary traction control.

Closed forms used below (unit interval, left end clamped, traction at
the right end, mu = 1, f0 = 0, target x):

* the state is u(f2) = f2 * x, exactly representable by P1 elements, so
  the reduced cost is J(f2) = (f2 - 1)^2 / 3 + a2 * f2^2 with minimizer
  f2* = 1/(1 + 3 a2) and J* = a2/(1 + 3 a2);
* adding a body force f0 shifts the state by f0 (x - x^2/2), giving
  f2*(f0) = 1/4 - (5/32) f0 when a2 = 1 (from <x, x - x^2/2> = 5/24).

In two dimensions with a zero friction bound the control-to-state map
is affine, so normal equations on sampled patch responses give an
optimizer-free oracle for the quadratic cost.
"""

import functools
import re
from collections import deque

import numpy as np
import pytest

from antiplane import control, fem, qvi, tykhonov


def traction_mesh_1d(n_elements=128):
    spec = fem.MeshSpec(
        dimension=1,
        extents=(1.0,),
        resolution=(n_elements,),
        partition={"left": "gamma1", "right": "gamma2"},
    )
    return fem.build_mesh(spec)


def control_mesh_2d(n=12):
    spec = fem.MeshSpec(
        dimension=2,
        extents=(1.0, 1.0),
        resolution=(n, n),
        partition={
            "left": "gamma1",
            "right": "gamma2",
            "bottom": "gamma3",
            "top": "gamma3",
        },
    )
    return fem.build_mesh(spec)


def frictional_square(n=4, n_patches=1):
    """Control on the n x n square under an affine bound active on all of
    gamma3; n = 4 with one patch is the square the control benchmark
    optimizes on.  Returns (problem, patches, weights)."""
    mesh = control_mesh_2d(n)
    problem = qvi.ProblemData(mesh, 1.0, 0.9635, None, fem.FrictionBound.affine(0.159, 0.1))
    weights = control.CostWeights(1.0, 1e-3, lambda x: np.sin(2.0 * x[:, 0]))
    return problem, control.ControlPatches(mesh, n_patches), weights


def frictionless_interval():
    """The closed-form 1D problem of the module docstring at a2 = 1."""
    mesh = traction_mesh_1d()
    problem = qvi.ProblemData(mesh, 1.0, 0.0, None, fem.FrictionBound.constant(0.0))
    return problem, control.ControlPatches(mesh, 1), control.CostWeights(1.0, 1.0, lambda x: x)


# warm starts cannot matter without friction, so each determinism test also
# runs a frictional 2D case of two patches
DETERMINISM_CASES = pytest.mark.parametrize(
    "case",
    [frictionless_interval, functools.partial(frictional_square, 4, 2)],
    ids=["1d-frictionless", "2d-two-patch-friction"],
)


@pytest.fixture(scope="module")
def setup_1d():
    mesh = traction_mesh_1d()
    problem = qvi.ProblemData(
        mesh=mesh, mu=1.0, f0=0.0, f2=None, g=fem.FrictionBound.constant(0.0)
    )
    patches = control.ControlPatches(mesh, 1)
    return mesh, problem, patches


@pytest.fixture(scope="module")
def setup_2d():
    mesh = control_mesh_2d()
    problem = qvi.ProblemData(
        mesh=mesh, mu=1.0, f0=0.2, f2=None, g=fem.FrictionBound.constant(0.0)
    )
    patches = control.ControlPatches(mesh, 2)
    solver = control.StateSolver(problem, patches)
    u_target, _ = solver.solve(np.array([0.9, 0.4]))
    weights = control.CostWeights(a0=1.0, a2=1e-3, target=u_target)
    return mesh, problem, patches, solver, weights


def test_state_solver_assembles_its_base_load(monkeypatch):
    # the DiscreteProblem assembles nothing: one base load f0 and one column per patch
    calls, assemble_load = [], fem.assemble_load
    monkeypatch.setattr(
        fem, "assemble_load", lambda *a, **kw: calls.append(a[1:]) or assemble_load(*a, **kw)
    )
    mesh = control_mesh_2d()
    problem = qvi.ProblemData(mesh, 1.0, 0.2, None, fem.FrictionBound.constant(0.1))
    solver = control.StateSolver(problem, control.ControlPatches(mesh, 2))
    assert calls[0] == (0.2,) and len(calls) == 3
    assert np.array_equal(solver.F0, assemble_load(mesh, 0.2))


def quadratic_oracle(mesh, patches, solver, weights):
    """Normal-equation minimizer of the cost for an affine state map."""
    d = patches.n_patches
    u0, _ = solver.solve(np.zeros(d))
    V = np.column_stack(
        [solver.solve(np.eye(d)[p])[0] - u0 for p in range(d)]
    )
    M = fem.mass_matrix(mesh)
    target = control.target_field(mesh, weights.target)
    A = weights.a0 * (V.T @ (M @ V)) + weights.a2 * np.diag(patches.measures)
    b = -weights.a0 * (V.T @ (M @ (u0 - target)))
    c_star = np.linalg.solve(A, b)
    J_star = control.cost(mesh, patches, weights, u0 + V @ c_star, c_star)
    return c_star, J_star


class TestTargetField:
    def test_callable_and_array_agree(self, setup_1d):
        mesh, _, _ = setup_1d
        a = control.target_field(mesh, lambda x: x)
        b = control.target_field(mesh, np.asarray(mesh.nodes, dtype=float))
        assert np.array_equal(a, b)

    def test_scalar_zero(self, setup_1d):
        mesh, _, _ = setup_1d
        assert np.array_equal(control.target_field(mesh, 0.0), np.zeros(mesh.n_nodes))

    def test_rejects_wrong_length(self, setup_1d):
        mesh, _, _ = setup_1d
        with pytest.raises(ValueError, match="nodal values"):
            control.target_field(mesh, np.zeros(3))

    @pytest.mark.parametrize(
        "target",
        [
            np.nan,
            lambda x: np.where(x > 0.5, np.nan, x),
            lambda x: np.where(x > 0.5, np.inf, x),
        ],
    )
    def test_rejects_non_finite(self, setup_1d, target):
        mesh, problem, patches = setup_1d
        with pytest.raises(ValueError, match="target must be finite, got .* at node"):
            control.target_field(mesh, target)
        weights = control.CostWeights(a0=1.0, a2=1.0, target=target)
        with pytest.raises(ValueError, match="target must be finite"):
            control.StateSolver(problem, patches).evaluate(np.zeros(1), weights)

    def test_rejects_nonzero_on_clamped_boundary(self, setup_1d):
        mesh, _, _ = setup_1d
        with pytest.raises(ValueError, match="clamped"):
            control.target_field(mesh, 1.0)


class TestCostWeights:
    def test_rejects_nonpositive_a0(self):
        with pytest.raises(ValueError, match="a0"):
            control.CostWeights(a0=0.0, a2=1.0)

    def test_rejects_negative_a2(self):
        with pytest.raises(ValueError, match="a2"):
            control.CostWeights(a0=1.0, a2=-0.1)

    @pytest.mark.parametrize(
        "a0, a2, field",
        [(np.nan, 1.0, "a0"), (1.0, np.nan, "a2"), (np.inf, 1.0, "a0"), (1.0, np.inf, "a2")],
    )
    def test_rejects_nan(self, a0, a2, field):
        with pytest.raises(ValueError, match=f"{field} must be .* and finite, got"):
            control.CostWeights(a0=a0, a2=a2)

    def test_zero_a2_allowed_for_evaluation(self):
        w = control.CostWeights(a0=1.0, a2=0.0)
        assert w.a2 == 0.0


class TestControlPatches:
    def test_needs_gamma2(self):
        spec = fem.MeshSpec(
            dimension=1,
            extents=(1.0,),
            resolution=(8,),
            partition={"left": "gamma1", "right": "gamma3"},
        )
        with pytest.raises(ValueError, match="gamma2"):
            control.ControlPatches(fem.build_mesh(spec), 1)

    def test_validates_patch_count(self, setup_1d):
        mesh, _, _ = setup_1d
        for bad in (0, 2):
            with pytest.raises(ValueError, match="n_patches"):
                control.ControlPatches(mesh, bad)

    def test_fractional_patch_count_refused(self):
        mesh = control_mesh_2d(4)
        for bad in (1.5, 2.0):
            with pytest.raises(ValueError, match=f"n_patches must be an integer, got {bad}"):
                control.ControlPatches(mesh, bad)
        assert control.ControlPatches(mesh, np.int64(2)).n_patches == 2

    def test_point_measure_1d(self, setup_1d):
        _, _, patches = setup_1d
        assert np.array_equal(patches.measures, [1.0])
        assert patches.norm_sq([0.3]) == pytest.approx(0.09)

    def test_two_patches_split_the_side(self):
        mesh = control_mesh_2d(12)
        patches = control.ControlPatches(mesh, 2)
        assert np.allclose(patches.measures, [0.5, 0.5])
        vals = patches.traction([2.0, -1.0])
        assert np.array_equal(vals[:6], np.full(6, 2.0))
        assert np.array_equal(vals[6:], np.full(6, -1.0))
        assert patches.norm_sq([2.0, -1.0]) == pytest.approx(0.5 * 4 + 0.5 * 1)

    def test_rejects_bad_box(self, setup_1d):
        mesh, _, _ = setup_1d
        with pytest.raises(ValueError, match="lower < upper"):
            control.ControlPatches(mesh, 1, lower=1.0, upper=1.0)

    @pytest.mark.parametrize(
        "box, field",
        [
            ({"lower": np.nan}, "lower"),
            ({"upper": np.nan}, "upper"),
            ({"lower": -1.0, "upper": [np.nan]}, "upper"),
        ],
    )
    def test_rejects_nan_bound(self, setup_1d, box, field):
        mesh, _, _ = setup_1d
        with pytest.raises(ValueError, match=f"patch bound {field} must not be NaN"):
            control.ControlPatches(mesh, 1, **box)

    def test_bounds_assembly(self):
        mesh = control_mesh_2d(8)
        patches = control.ControlPatches(mesh, 2, lower=0.0, upper=2.0)
        lo, hi = patches.bounds()
        assert lo.dtype == hi.dtype == np.float64
        assert lo.tolist() == [0.0, 0.0] and hi.tolist() == [2.0, 2.0]
        lo, hi = control.ControlPatches(mesh, 2, lower=0.0).bounds()
        assert lo.tolist() == [0.0, 0.0] and hi.tolist() == [np.inf, np.inf]
        assert control.ControlPatches(mesh, 2).bounds() is None


class TestCost:
    def test_zero_at_target_with_zero_control(self, setup_1d):
        mesh, _, patches = setup_1d
        w = control.CostWeights(1.0, 2.0, lambda x: x)
        u = control.target_field(mesh, w.target)
        assert control.cost(mesh, patches, w, u, [0.0]) == 0.0

    def test_direct_arithmetic(self, setup_1d):
        # misfit field constant 0.5 has squared L2 norm 0.25 on the unit
        # interval; a single point patch gives ||f2||^2 = 0.09
        mesh, _, patches = setup_1d
        w = control.CostWeights(1.0, 2.0, lambda x: x)
        u = control.target_field(mesh, w.target) + 0.5
        val = control.cost(mesh, patches, w, u, [0.3])
        assert val == pytest.approx(1.0 * 0.25 + 2.0 * 0.09, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_coefficients(self, setup_1d, bad):
        mesh, _, patches = setup_1d
        w = control.CostWeights(1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match=f"control coefficients must be finite, got {bad}"):
            control.cost(mesh, patches, w, np.zeros(mesh.n_nodes), [bad])

    def test_non_finite_coefficient_names_its_patch(self):
        patches = control.ControlPatches(control_mesh_2d(4), 2)
        with pytest.raises(ValueError, match="finite, got nan at patch 1$"):
            patches.traction([0.1, np.nan])

    def test_control_term_scales_quadratically(self, setup_1d):
        mesh, _, patches = setup_1d
        w = control.CostWeights(1.0, 3.0, 0.0)
        u = np.zeros(mesh.n_nodes)
        base = control.cost(mesh, patches, w, u, [0.7])
        assert control.cost(mesh, patches, w, u, [2.1]) == pytest.approx(
            9.0 * base, rel=1e-12
        )


class TestReducedCost:
    def test_matches_closed_form(self, setup_1d):
        _, problem, patches = setup_1d
        solver = control.StateSolver(problem, patches)
        w = control.CostWeights(1.0, 0.0, lambda x: x)
        assert solver.evaluate([1.0], w)[0] <= 1e-20
        assert solver.evaluate([0.0], w)[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
        w13 = control.CostWeights(1.0, 1.0 / 3.0, lambda x: x)
        assert solver.evaluate([0.5], w13)[0] == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_zero_everything(self, setup_1d):
        _, problem, patches = setup_1d
        w = control.CostWeights(1.0, 1.0, 0.0)
        assert control.StateSolver(problem, patches).evaluate([0.0], w)[0] == 0.0

    def test_propagates_solver_errors(self):
        mesh = control_mesh_2d(6)
        problem = qvi.ProblemData(
            mesh=mesh, mu=1.0, f0=0.0, f2=None, g=fem.FrictionBound.affine(0.1, 3.0)
        )
        patches = control.ControlPatches(mesh, 1)
        w = control.CostWeights(1.0, 1.0, 0.0)
        with pytest.raises(qvi.SolverError, match="contraction"):
            control.StateSolver(problem, patches).evaluate([1.0], w)[0]


class TestHoistedCost:
    """``StateSolver.evaluate`` interpolates the target once per weights
    object and gives bitwise the cost of ``control.cost``."""

    def test_bitwise_cost_as_the_weights_change(self, setup_2d, monkeypatch):
        mesh, problem, patches, _, weights = setup_2d
        solver = control.StateSolver(problem, patches)
        other = control.CostWeights(2.0, 1e-2, lambda x: 0.1 * x[:, 0])
        shifted = weights.target + 0.01 * mesh.nodes[:, 0]
        twin = control.CostWeights(weights.a0, weights.a2, shifted)
        interpolations = []
        target_field = control.target_field
        monkeypatch.setattr(
            control, "target_field", lambda m, t: interpolations.append(1) or target_field(m, t)
        )
        sequence = [
            (weights, [0.9, 0.4]), (weights, [0.5, 0.1]), (other, [0.5, 0.1]),
            (other, [0.3, 0.2]), (twin, [0.3, 0.2]), (weights, [0.2, -0.3]),
        ]
        u = None
        for w, x in sequence:
            J, u = solver.evaluate(np.array(x), w, eta0=u)
            assert J == control.cost(mesh, patches, w, u, x)
        # one per reference cost, and one each time the weights object changes
        assert len(interpolations) == len(sequence) + 4

    def test_target_off_the_clamped_boundary_raises(self, setup_1d):
        _, problem, patches = setup_1d
        solver = control.StateSolver(problem, patches)
        bad = control.CostWeights(1.0, 0.0, 1.0)
        for _ in range(2):  # a refused target is not kept
            with pytest.raises(ValueError, match="clamped"):
                solver.evaluate([0.5], bad)
        assert solver.evaluate([1.0], control.CostWeights(1.0, 0.0, lambda x: x))[0] <= 1e-20


class TestStateSolver:
    def test_rejects_fixed_traction(self, setup_1d):
        mesh, _, patches = setup_1d
        problem = qvi.ProblemData(
            mesh=mesh, mu=1.0, f0=0.0, f2=1.0, g=fem.FrictionBound.constant(0.0)
        )
        with pytest.raises(ValueError, match="f2"):
            control.StateSolver(problem, patches)

    def test_rejects_foreign_patches(self, setup_1d):
        _, problem, _ = setup_1d
        other = control.ControlPatches(traction_mesh_1d(16), 1)
        with pytest.raises(ValueError, match="different mesh"):
            control.StateSolver(problem, other)

    def test_state_map_is_affine_without_friction(self, setup_2d):
        _, _, patches, solver, _ = setup_2d
        rng = np.random.default_rng(0)
        u0, _ = solver.solve(np.zeros(2))
        V = np.column_stack(
            [solver.solve(np.eye(2)[p])[0] - u0 for p in range(2)]
        )
        for _ in range(5):
            c = rng.normal(size=2)
            u, _ = solver.solve(c)
            assert np.allclose(u, u0 + V @ c, atol=1e-12)


    def test_constants_resolved_once_per_state_solver(self, monkeypatch):
        # the 4x4 square of one patch that the control benchmark optimizes on:
        # about 80 state solves, which read c0 and c3 from their DiscreteProblem
        from antiplane import constants

        calls, built = [], []
        space_constants = constants.space_constants
        monkeypatch.setattr(
            constants,
            "space_constants",
            lambda *a, **k: calls.append(1) or space_constants(*a, **k),
        )
        init = control.StateSolver.__init__
        monkeypatch.setattr(
            control.StateSolver, "__init__", lambda *a: built.append(1) or init(*a)
        )
        problem, patches, weights = frictional_square()
        res = control.minimize_cost(problem, patches, weights, n_starts=1, seed=0)
        assert res.starts[0].n_evals > 20
        assert len(calls) == len(built) == 1


class TestMinimizeCost:
    @pytest.mark.parametrize("a2", [1.0 / 3.0, 1.0, 3.0])
    def test_closed_form_minimizer(self, setup_1d, a2):
        _, problem, patches = setup_1d
        w = control.CostWeights(1.0, a2, lambda x: x)
        res = control.minimize_cost(problem, patches, w, seed=0)
        assert res.pair.coeffs[0] == pytest.approx(1.0 / (1.0 + 3.0 * a2), abs=1e-6)
        assert res.cost == pytest.approx(a2 / (1.0 + 3.0 * a2), abs=1e-9)

    def test_multistarts_agree_in_convex_regime(self, setup_1d):
        _, problem, patches = setup_1d
        w = control.CostWeights(1.0, 1.0, lambda x: x)
        res = control.minimize_cost(problem, patches, w, seed=1)
        assert len(res.starts) == 5
        assert all(s.success for s in res.starts)
        assert res.spread <= 1e-6
        assert len(res.clusters) == 1
        assert res.clusters[0][2] == 5

    def test_selected_cost_shadows_every_evaluation(self, setup_1d):
        _, problem, patches = setup_1d
        w = control.CostWeights(1.0, 1.0, lambda x: x)
        res = control.minimize_cost(problem, patches, w, seed=2)
        assert res.cost <= res.best_cost + 1e-9
        assert res.cost <= min(min(t) for t in res.traces) + 1e-9

    def test_admissibility_certificate(self, setup_1d):
        _, problem, patches = setup_1d
        w = control.CostWeights(1.0, 0.5, lambda x: x)
        res = control.minimize_cost(problem, patches, w, seed=3)
        assert res.violation <= 1e-8

    def test_large_penalty_drives_control_to_zero(self, setup_1d):
        _, problem, patches = setup_1d
        w = control.CostWeights(1.0, 1e3, 0.0)
        res = control.minimize_cost(problem, patches, w, seed=4)
        assert abs(res.pair.coeffs[0]) <= 1e-6
        assert res.cost <= 1e-10

    def test_coercivity_lower_bound(self, setup_1d):
        _, problem, patches = setup_1d
        w = control.CostWeights(1.0, 0.7, lambda x: x)
        solver = control.StateSolver(problem, patches)
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = 3.0 * rng.standard_normal(1)
            J, _ = solver.evaluate(c, w)
            assert J >= w.a2 * patches.norm_sq(c) - 1e-12

    def test_strict_convexity_along_segments(self, setup_2d):
        _, _, patches, solver, weights = setup_2d
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = rng.normal(scale=1.5, size=2)
            b = rng.normal(scale=1.5, size=2)
            if np.allclose(a, b):
                continue
            Ja, _ = solver.evaluate(a, weights)
            Jb, _ = solver.evaluate(b, weights)
            Jm, _ = solver.evaluate(0.5 * (a + b), weights)
            assert Jm < 0.5 * (Ja + Jb)

    def test_matches_quadratic_oracle_2d(self, setup_2d):
        mesh, problem, patches, solver, weights = setup_2d
        c_star, J_star = quadratic_oracle(mesh, patches, solver, weights)
        res = control.minimize_cost(problem, patches, weights, seed=7)
        assert np.max(np.abs(res.pair.coeffs - c_star)) <= 1e-6
        assert res.cost == pytest.approx(J_star, abs=1e-12)
        assert res.violation <= 1e-8

    def test_box_constrained_optimum(self, setup_2d):
        mesh, problem, _, solver, weights = setup_2d
        boxed = control.ControlPatches(mesh, 2, lower=0.0, upper=0.5)
        res = control.minimize_cost(problem, boxed, weights, seed=8)
        assert np.all(res.pair.coeffs >= 0.0) and np.all(res.pair.coeffs <= 0.5)
        free = control.minimize_cost(problem, control.ControlPatches(mesh, 2), weights, seed=8)
        assert res.cost >= free.cost
        # no feasible point beats the boxed optimum, e.g. the clipped free one
        clipped = np.clip(free.pair.coeffs, 0.0, 0.5)
        J_clip, _ = control.StateSolver(problem, boxed).evaluate(clipped, weights)
        assert res.cost <= J_clip + 1e-9

    def test_exhausted_budget_raises_with_best(self, setup_1d, monkeypatch):
        _, problem, patches = setup_1d
        w = control.CostWeights(1.0, 1.0, lambda x: x)
        monkeypatch.setattr(control, "EVALS_PER_PATCH", 3)
        with pytest.raises(control.ControlError, match="no optimizer start") as info:
            control.minimize_cost(problem, patches, w, seed=9)
        best_cost, best_coeffs = info.value.best
        assert np.isfinite(best_cost)
        assert best_coeffs.shape == (1,)

    @DETERMINISM_CASES
    def test_deterministic(self, case):
        problem, patches, w = case()
        a = control.minimize_cost(problem, patches, w, seed=10)
        b = control.minimize_cost(problem, patches, w, seed=10)
        assert np.array_equal(a.pair.coeffs, b.pair.coeffs)
        assert np.array_equal(a.pair.u, b.pair.u)
        assert a.cost == b.cost
        assert a.traces == b.traces


class TestSecantWarmStart:
    """Each state solve of a start begins at the secant through the start's
    last d + 1 evaluated (control, state) pairs."""

    def test_fallbacks(self):
        u = [np.full(3, 1.0), np.full(3, 2.0)]
        history = deque(maxlen=2)  # one patch
        assert control._predict(history, np.array([0.5])) is None
        history.append((np.array([0.0]), u[0]))
        assert control._predict(history, np.array([0.5])) is u[0]
        history.append((np.array([0.0]), u[1]))  # coincident controls
        assert control._predict(history, np.array([0.5])) is u[1]

    def test_weight_cap(self):
        history = deque([(np.array([0.0]), np.zeros(2)), (np.array([1.0]), np.ones(2))], maxlen=2)
        assert np.allclose(control._predict(history, np.array([3.0])), 3.0)
        # beta = (-19, 20) lies beyond SECANT_WEIGHT_CAP: the last state
        assert control._predict(history, np.array([20.0])) is history[-1][1]

    @pytest.mark.parametrize("x", [0.95, 1.3])
    def test_exact_on_a_fixed_split(self, x):
        # on the all-slip split the state map is affine under the affine
        # bound; the tight tolerance keeps the stored states' own errors
        # (about 1e-11 at the default 1e-10) below the 1e-12 checked here
        problem, patches, _ = frictional_square()
        solver = control.StateSolver(problem, patches)
        config = qvi.SolverConfig(outer_tol=1e-13)
        gamma3 = problem.mesh.node_sets[fem.GAMMA3]
        history = deque(maxlen=2)
        for c in (0.9, 1.0):
            u, _ = solver.solve([c], config)
            history.append((np.array([c]), u))
        eta0 = control._predict(history, np.array([x]))
        u, report = solver.solve([x], config, eta0=eta0)
        assert all((h[gamma3] > 0.0).all() for _, h in history) and (u[gamma3] > 0.0).all()
        assert fem.v_norm(problem.mesh, u - eta0) <= 1e-12
        assert report.outer_iterations == 1

    @pytest.mark.parametrize("n, n_patches", [(4, 1), (8, 2)])
    def test_outer_steps_per_state_solve(self, monkeypatch, n, n_patches):
        # started from the previous evaluation's state, one simplex step
        # away, these runs average 7.4 and 7.3 outer steps per solve; the
        # count includes the cold solve of the selected optimum
        steps = []
        fixed_point = qvi.fixed_point

        def counting(*args, **kwargs):
            u, report = fixed_point(*args, **kwargs)
            steps.append(report.outer_iterations)
            return u, report

        monkeypatch.setattr(qvi, "fixed_point", counting)
        problem, patches, weights = frictional_square(n, n_patches)
        control.minimize_cost(problem, patches, weights, n_starts=1, seed=0)
        assert len(steps) > 50
        assert np.mean(steps) <= 2.0


def recorded_minimize_cost(monkeypatch, problem, patches, weights, n_starts):
    """``minimize_cost`` with seed 0 and the (control, cost) of each of its
    state solves, one list per start (each start's first solve and the
    final solve of the selected optimum are the cold ones)."""
    solves = []
    evaluate = control.StateSolver.evaluate

    def recording(self, coeffs, weights, config=None, eta0=None):
        if eta0 is None:
            solves.append([])
        J, u = evaluate(self, coeffs, weights, config, eta0)
        solves[-1].append((np.array(coeffs), J))
        return J, u

    monkeypatch.setattr(control.StateSolver, "evaluate", recording)
    result = control.minimize_cost(problem, patches, weights, n_starts=n_starts, seed=0)
    monkeypatch.setattr(control.StateSolver, "evaluate", evaluate)
    assert len(solves) == n_starts + 1 and len(solves[-1]) == 1
    return result, solves[:-1]


def reference_starts(problem, patches, weights, result):
    """The starts of ``result`` rerun as ``minimize_cost`` runs them but
    with a state solve at every optimizer call: [(OptimizeResult, trace,
    the controls of the calls)]."""
    from scipy.optimize import minimize

    d = patches.n_patches
    solver = control.StateSolver(problem, patches)
    runs = []
    for start in result.starts:
        history, trace, calls = deque(maxlen=d + 1), [], []

        def fun(x):
            calls.append(x.tobytes())
            J, u = solver.evaluate(x, weights, eta0=control._predict(history, x))
            history.append((x, u))
            trace.append(float(J))
            return J

        budget = control.EVALS_PER_PATCH * d
        options = {
            "xatol": control.NM_XATOL,
            "fatol": control.NM_FATOL,
            "maxiter": budget,
            "maxfev": budget,
        }
        box = patches.bounds()
        bounds = None if box is None else list(zip(*box))
        res = minimize(fun, start.x0, method="Nelder-Mead", bounds=bounds, options=options)
        runs.append((res, trace, calls))
    return runs


class TestRevisitMemo:
    """Each start solves the state once per distinct control and answers
    Nelder-Mead's revisits from its record of the costs it solved."""

    def test_one_state_solve_per_distinct_control(self, monkeypatch):
        problem, patches, weights = frictional_square()
        result, (solves,) = recorded_minimize_cost(monkeypatch, problem, patches, weights, 1)
        (start,), (trace,) = result.starts, result.traces
        assert len(solves) < start.n_evals == len(trace)
        assert len({x.tobytes() for x, _ in solves}) == len(solves)
        # a revisit's cost is the recorded one, bitwise
        assert set(trace) == {J for _, J in solves}

    def test_matches_the_solve_at_every_call(self, monkeypatch):
        # up to the first revisit both runs make the same calls; a revisit
        # solved again from another warm start lands on the same fixed point
        # within the outer tolerance, not bitwise, and so do the solves after
        # it, so the simplex may take another path to the same optimum
        problem, patches, weights = frictional_square()
        result, _ = recorded_minimize_cost(monkeypatch, problem, patches, weights, 1)
        ((ref, ref_trace, calls),) = reference_starts(problem, patches, weights, result)
        (start,), (trace,) = result.starts, result.traces
        first_revisit = next(i for i, x in enumerate(calls) if x in calls[:i])
        assert trace[:first_revisit] == ref_trace[:first_revisit]
        assert start.cost == pytest.approx(ref.fun, rel=1e-10)
        assert np.allclose(start.coeffs, ref.x, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("n_patches", [2, 3])
    def test_bitwise_equal_to_the_solve_at_every_call(self, monkeypatch, n_patches):
        problem, patches, weights = frictional_square(4, n_patches)
        result, solves = recorded_minimize_cost(monkeypatch, problem, patches, weights, 3)
        runs = reference_starts(problem, patches, weights, result)
        for start, trace, start_solves, (ref, ref_trace, _) in zip(
            result.starts, result.traces, solves, runs
        ):
            assert len(start_solves) == start.n_evals  # no revisit in these runs
            assert start.n_evals == ref.nfev and trace == ref_trace
            assert start.cost == ref.fun and np.array_equal(start.coeffs, ref.x)


def quadratic(d):
    """A convex quadratic on R^d with its minimizer off the axes."""
    A = np.eye(d) + 0.3 * np.ones((d, d))
    c = np.linspace(0.5, -0.7, d)
    return lambda x: float((x - c) @ A @ (x - c))


# (objective, x0, box as (lower, upper) or None, budget, (xatol, fatol));
# all but "budget-spent" converge within their budget; TOLS are the tolerances that
# minimize_cost passes
TOLS = (control.NM_XATOL, control.NM_FATOL)
NELDER_MEAD_CASES = {
    **{f"quadratic-d{d}": (quadratic(d), np.linspace(0.3, 1.1, d), None, 2000 * d, TOLS)
       for d in (1, 2, 3, 4)},
    "kinked": (
        lambda x: float(np.abs(x - [0.2, -0.4]).sum()), np.array([1.0, 1.0]), None, 4000, TOLS
    ),
    "tied": (
        lambda x: float(np.floor(4.0 * x @ x)), np.array([0.6, -0.3, 0.2]), None, 6000, TOLS
    ),
    # the expansion point ties with the reflection point on the plateau
    "plateau": (lambda x: max(float(x[0]), -0.6), np.array([0.0]), None, 4000, TOLS),
    "zero-entries": (quadratic(3), np.array([0.0, 0.8, 0.0]), None, 6000, TOLS),
    "on-upper-bound": (
        quadratic(2),
        np.array([0.5, 0.0]),
        (np.array([-1.0, -np.inf]), np.array([0.5, 0.6])),
        4000,
        TOLS,
    ),
    # the stop test holds only once the simplex has collapsed to one point
    "zero-tolerances": (quadratic(1), np.array([0.3]), None, 20000, (0.0, 0.0)),
    "budget-spent": (quadratic(3), np.array([0.4, 0.0, -0.2]), None, 23, TOLS),
}


class TestNelderMead:
    """``control._nelder_mead`` is bitwise scipy's Nelder-Mead with the
    options ``minimize_cost`` passes: the same points, in the same order,
    and the same result."""

    @pytest.mark.parametrize("case", list(NELDER_MEAD_CASES))
    def test_bitwise_equal_to_scipy(self, case):
        from scipy.optimize import minimize

        fun, x0, box, budget, (xatol, fatol) = NELDER_MEAD_CASES[case]
        ours, theirs = [], []

        def recording(calls):
            def f(x):
                calls.append(x.tobytes())
                J = fun(x)
                x[:] = np.nan  # harmless only if each call gets its own copy
                return J

            return f

        x, J, n_evals, success = control._nelder_mead(
            recording(ours), x0, box, xatol, fatol, budget
        )
        options = {"xatol": xatol, "fatol": fatol, "maxiter": budget, "maxfev": budget}
        bounds = None if box is None else list(zip(*box))
        ref = minimize(recording(theirs), x0, method="Nelder-Mead", bounds=bounds, options=options)
        assert ours == theirs and n_evals == ref.nfev == len(ours)
        assert x.dtype == ref.x.dtype and x.tobytes() == ref.x.tobytes()
        assert J == ref.fun and success is bool(ref.success) is (case != "budget-spent")
        if box is not None:
            # the start simplex reflected a vertex off the upper bound
            assert any(np.frombuffer(b)[0] < x0[0] for b in ours[:3])


class TestUpFrontRefusals:
    """Bad optimizer and gate settings are refused by name before any
    Tresca solver is built (the patched class fails if it is)."""

    @pytest.fixture(autouse=True)
    def no_tresca_setup(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Tresca solver was built before the refusal")

        monkeypatch.setattr(qvi, "TrescaSolver", refuse)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_starts": -1}, "n_starts must be at least 1, got -1"),
            # a numpy integer passes the type test and is refused by value
            ({"n_starts": np.int64(0)}, "n_starts must be at least 1, got 0"),
            ({"n_starts": 2.0}, "n_starts must be an integer, got 2.0"),
            ({"n_starts": 0}, "n_starts must be at least 1, got 0"),
            ({"n_starts": 1.5}, "n_starts must be an integer, got 1.5"),
            ({"n_starts": "5"}, "n_starts must be an integer, got 5"),
            ({"extra_starts": [[np.inf]]}, "control coefficients must be finite, got inf"),
            # a flat list is a list of scalar starts
            ({"extra_starts": [0.5]}, "expected 1 coefficients, got ()"),
            ({"extra_starts": [[]]}, "expected 1 coefficients, got (0,)"),
            ({"extra_starts": [[0.5], [0.5, 0.5]]}, "expected 1 coefficients, got (2,)"),
            ({"extra_starts": [[np.nan]]}, "control coefficients must be finite, got nan"),
            (
                {"extra_starts": [[0.5], [-np.inf]]},
                "control coefficients must be finite, got -inf",
            ),
            ({"extra_starts": [[0.5, 0.5]]}, "expected 1 coefficients, got (2,)"),
            # a bool is an int to isinstance, and is refused all the same
            ({"n_starts": True}, "n_starts must be an integer, got True"),
        ],
    )
    def test_minimize_cost(self, setup_1d, kwargs, message):
        _, problem, patches = setup_1d
        w = control.CostWeights(1.0, 1.0, lambda x: x)
        with pytest.raises(ValueError, match=re.escape(message)):
            control.minimize_cost(problem, patches, w, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"seq_starts": 0}, "seq_starts must be at least 1, got 0"),
            ({"seq_starts": 1.5}, "seq_starts must be an integer, got 1.5"),
            ({"n_starts": 1.5}, "n_starts must be an integer, got 1.5"),
            ({"ctrl_tol": np.nan}, "ctrl_tol must be nonnegative, got nan"),
            ({"ctrl_tol": -1e-3}, "ctrl_tol must be nonnegative, got -0.001"),
            ({"noise_floor": np.nan}, "noise_floor must be nonnegative, got nan"),
            ({"seq_starts": True}, "seq_starts must be an integer, got True"),
        ],
    )
    def test_run_oc_sequence(self, setup_1d, kwargs, message):
        _, problem, patches = setup_1d
        w = control.CostWeights(1.0, 1.0, lambda x: x)
        sched = tykhonov.Schedule(kind="target_perturb", length=4, target_shape=lambda x: x)
        with pytest.raises(ValueError, match=re.escape(message)):
            control.run_oc_sequence(problem, patches, w, sched, **kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [("xatol", 1e-9), ("fatol", 1e-12), ("start_scale", 1.0), ("max_evals", 3)],
    )
    def test_minimize_cost_runs_the_simplex_at_fixed_settings(self, setup_1d, name, value):
        _, problem, patches = setup_1d
        w = control.CostWeights(1.0, 1.0, lambda x: x)
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            control.minimize_cost(problem, patches, w, **{name: value})

    @pytest.mark.parametrize(
        "name, value", [("extra_starts", [[0.3]]), ("check_admissibility", False)]
    )
    def test_run_oc_sequence_refuses_what_each_instance_sets(self, setup_1d, name, value):
        _, problem, patches = setup_1d
        w = control.CostWeights(1.0, 1.0, lambda x: x)
        sched = tykhonov.Schedule(kind="target_perturb", length=4, target_shape=lambda x: x)
        with pytest.raises(TypeError, match=f"run_oc_sequence takes no {name}"):
            control.run_oc_sequence(problem, patches, w, sched, n_starts=1, **{name: value})

    def test_run_oc_sequence_passes_an_unknown_keyword_to_minimize_cost(self, setup_1d):
        _, problem, patches = setup_1d
        w = control.CostWeights(1.0, 1.0, lambda x: x)
        sched = tykhonov.Schedule(kind="target_perturb", length=4, target_shape=lambda x: x)
        with pytest.raises(TypeError, match="minimize_cost.*n_start"):
            control.run_oc_sequence(problem, patches, w, sched, n_start=2)

    def test_run_oc_sequence_holds_only_its_gate_defaults(self):
        # the optimizer keywords take minimize_cost's own defaults
        defaults = control.run_oc_sequence.__kwdefaults__
        assert set(defaults) == {"seq_starts", "ctrl_tol", "noise_floor"}


class TestOCSchedule:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            tykhonov.Schedule(kind="mesh_perturb", length=8)

    def test_rejects_short_length(self):
        with pytest.raises(ValueError, match="four"):
            tykhonov.Schedule(kind="eps_decay", length=2)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError, match="ratio"):
            tykhonov.Schedule(kind="eps_decay", length=8, decay="geometric", ratio=2.0)

    def test_rejects_negative_friction_shift(self):
        with pytest.raises(ValueError, match="nonnegative"):
            tykhonov.Schedule(kind="friction_perturb", length=8, friction_da=-1.0)

    def test_rejects_unknown_decay(self):
        with pytest.raises(ValueError, match="decay"):
            tykhonov.Schedule(kind="eps_decay", length=8, decay="sqrt")


class TestOCSequence:
    def test_target_perturbation_converges(self, setup_1d):
        # target (1 + 0.1/n) x gives f2*_n = (1 + 0.1/n)/4 at a2 = 1,
        # so the control deviation is exactly 0.025/n
        _, problem, patches = setup_1d
        w = control.CostWeights(1.0, 1.0, lambda x: x)
        sched = tykhonov.Schedule(
            kind="target_perturb", length=16, target_shape=lambda x: 0.1 * x
        )
        rep = control.run_oc_sequence(
            problem, patches, w, sched, seed=0, ctrl_tol=2e-3
        )
        assert rep.verdict == "CONVERGENT"
        assert -1.2 <= rep.slope <= -0.8
        ns = np.arange(1, 17)
        assert np.allclose(rep.ctrl_dev, 0.025 / ns, atol=1e-6)
        assert rep.max_violation <= 1e-8
        assert rep.base.cost == pytest.approx(0.25, abs=1e-9)

    def test_fixed_target_stays_at_optimizer_tolerance(self, setup_1d):
        _, problem, patches = setup_1d
        w = control.CostWeights(1.0, 1.0, lambda x: x)
        sched = tykhonov.Schedule(kind="target_perturb", length=6, decay="zero")
        rep = control.run_oc_sequence(problem, patches, w, sched, seed=1)
        assert rep.verdict == "CONVERGENT"
        assert max(rep.cost_dev) <= 1e-9
        assert max(rep.ctrl_dev) <= 1e-6

    def test_load_perturbation_moves_the_minimizer(self, setup_1d):
        # f2*(f0) = 1/4 - (5/32) f0, so the deviation is 5 s_n / 32
        _, problem, patches = setup_1d
        w = control.CostWeights(1.0, 1.0, lambda x: x)
        sched = tykhonov.Schedule(kind="load_perturb", length=16, amplitude=0.5)
        rep = control.run_oc_sequence(problem, patches, w, sched, seed=2)
        ns = np.arange(1, 17)
        assert np.allclose(rep.ctrl_dev, 5.0 * 0.5 / (32.0 * ns), rtol=1e-4)
        # still above the control threshold at n = 16
        assert rep.verdict == "NON-CONVERGENT"
        loose = control.run_oc_sequence(
            problem, patches, w, sched, seed=2, ctrl_tol=1e-2
        )
        assert loose.verdict == "CONVERGENT"

    def test_eps_relaxation_changes_nothing_but_the_index(self, setup_1d):
        _, problem, patches = setup_1d
        w = control.CostWeights(1.0, 1.0, lambda x: x)
        sched = tykhonov.Schedule(kind="eps_decay", length=6)
        rep = control.run_oc_sequence(problem, patches, w, sched, seed=3)
        assert rep.eps == pytest.approx(1.0 / np.arange(1, 7))
        assert max(rep.cost_dev) <= 1e-9
        assert rep.verdict == "CONVERGENT"
        assert rep.max_violation <= 1e-8

    def test_friction_perturbation_with_active_bound(self):
        mesh = control_mesh_2d(6)
        problem = qvi.ProblemData(
            mesh=mesh, mu=1.0, f0=0.2, f2=None, g=fem.FrictionBound.constant(0.05)
        )
        patches = control.ControlPatches(mesh, 1)
        solver = control.StateSolver(problem, patches)
        u_target, _ = solver.solve(np.array([0.6]))
        w = control.CostWeights(1.0, 1e-2, u_target)
        sched = tykhonov.Schedule(
            kind="friction_perturb", length=4, amplitude=0.02, friction_da=1.0
        )
        rep = control.run_oc_sequence(
            problem, patches, w, sched, seed=4, n_starts=2, seq_starts=2
        )
        assert rep.max_violation <= 1e-8
        assert rep.ctrl_dev[-1] < rep.ctrl_dev[0]

    def test_failure_names_the_instance(self, setup_1d):
        mesh = control_mesh_2d(6)
        problem = qvi.ProblemData(
            mesh=mesh, mu=1.0, f0=0.2, f2=None, g=fem.FrictionBound.constant(0.05)
        )
        patches = control.ControlPatches(mesh, 1)
        w = control.CostWeights(1.0, 1e-2, 0.0)
        sched = tykhonov.Schedule(
            kind="friction_perturb", length=4, friction_da=0.0, friction_db=5.0
        )
        with pytest.raises(qvi.SolverError, match="n=1"):
            control.run_oc_sequence(problem, patches, w, sched, seed=5, n_starts=2)

    @pytest.mark.parametrize("kind", ["traction_perturb", "lame_perturb", "adversarial_load"])
    def test_direct_only_kinds_refused_before_base_optimization(
        self, setup_1d, kind, monkeypatch
    ):
        def no_optimization(*args, **kwargs):
            raise AssertionError("optimized before the kind check")

        monkeypatch.setattr(control, "minimize_cost", no_optimization)
        _, problem, patches = setup_1d
        w = control.CostWeights(1.0, 1.0, lambda x: x)
        extra = {"f0_target": 1.0} if kind == "adversarial_load" else {}
        sched = tykhonov.Schedule(kind=kind, length=6, **extra)
        with pytest.raises(ValueError, match=kind):
            control.run_oc_sequence(problem, patches, w, sched)

    @pytest.mark.parametrize(
        "kind", ["eps_decay", "load_perturb", "friction_perturb", "target_perturb"]
    )
    def test_eps_is_the_scale_only_for_eps_decay(self, setup_1d, kind):
        _, problem, patches = setup_1d
        w = control.CostWeights(1.0, 1.0, lambda x: x)
        sched = tykhonov.Schedule(kind=kind, length=4, amplitude=0.1)
        rep = control.run_oc_sequence(problem, patches, w, sched, n_starts=1, seq_starts=1)
        expected = sched.scales() if kind == "eps_decay" else np.zeros(4)
        assert np.array_equal(rep.eps, expected)

    def test_one_stiffness_factorization_per_run(self, monkeypatch):
        # every optimization of a scalar-mu run builds its own Tresca
        # solver, and all of them and every certificate of a member share
        # the mesh's one factor of S_ff; the other is c3's Gram block
        factored = []
        factor = fem.spd_factor

        def counting(matrix, layout):
            factored.append(matrix)
            return factor(matrix, layout)

        monkeypatch.setattr(fem, "spd_factor", counting)
        mesh = control_mesh_2d(4)
        problem = qvi.ProblemData(mesh, 1.0, 0.2, None, fem.FrictionBound.affine(0.05, 0.2))
        patches = control.ControlPatches(mesh, 1)
        w = control.CostWeights(1.0, 1e-3, lambda x: 0.1 * x[:, 0])
        sched = tykhonov.Schedule(kind="load_perturb", length=4, amplitude=0.3)
        rep = control.run_oc_sequence(
            problem, patches, w, sched, seed=3, n_starts=1, seq_starts=1
        )
        assert rep.base.violation <= qvi.CERT_TOL and rep.max_violation <= qvi.CERT_TOL
        free = mesh.free_nodes
        gram = fem.submatrix(fem.gram_matrix(mesh), free, free)
        is_gram = [(A != gram).nnz == 0 for A in factored]
        assert is_gram.count(False) == 1 and is_gram.count(True) == 1

    @DETERMINISM_CASES
    def test_deterministic(self, case):
        problem, patches, w = case()
        sched = tykhonov.Schedule(kind="load_perturb", length=6, amplitude=0.3)
        a = control.run_oc_sequence(problem, patches, w, sched, seed=6)
        b = control.run_oc_sequence(problem, patches, w, sched, seed=6)
        assert a.ctrl_dev == b.ctrl_dev
        assert a.cost_dev == b.cost_dev
        assert a.violations == b.violations
