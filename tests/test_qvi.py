"""Frozen-bound solves, the fixed point, membership and diagnostics.

Hand-derived references on the unit interval (left end clamped, friction
point x = 1, weight one, constant source f0, modulus mu):

* frozen bound G: slip occurs when |f0| > 2 mu G... the positive-slip
  solution is u = -(f0/2mu) x^2 + ((f0 - G)/mu) x with traction -G;
* slip-dependent bound g(r) = a + b|r| with f0 = 3, mu = 1 fixes the end
  value t from t = f0/2 - (a + b t), e.g. a = b = 0.5 gives t = 2/3 and
  bound 5/6 at the fixed point.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from antiplane import constants, control, fem, qvi, tykhonov
from antiplane.oracle import analytic_1d, benchmark_problem
from oracle_helpers import linear_solve
from space_helpers import dual_norm, in_space, zero_on_gamma1
from tresca_helpers import tresca_solve, tresca_solver

RNG_SEED = 424242


def interval_mesh(n):
    spec = fem.MeshSpec(1, (1.0,), (n,), {"left": "gamma1", "right": "gamma3"})
    return fem.build_mesh(spec)


def square_mesh(n):
    spec = fem.MeshSpec(
        2, (1.0, 1.0), (n, n),
        {"left": "gamma1", "right": "gamma2", "bottom": "gamma3", "top": "gamma3"},
    )
    return fem.build_mesh(spec)


def friction_energy(mesh, K, F, g, u):
    """Full nonsmooth energy with the bound frozen at the slip of u itself."""
    return 0.5 * u @ (K @ u) - F @ u + fem.eval_j(mesh, g, u, u)


def cd_oracle(K, F, free, gamma3, c, tol=1e-14, max_sweeps=100000):
    """Frozen-bound solve by cyclic coordinate descent on the gamma3 block.

    The smooth free nodes are eliminated with dense solves; each sweep
    soft-thresholds one gamma3 value at a time, and the sweeps stop once
    no value moves by ``tol``.
    """
    Kd = K.toarray()
    T = np.intersect1d(gamma3, free)
    S = np.setdiff1d(free, T)
    K_st = Kd[np.ix_(S, T)]
    X = np.linalg.solve(Kd[np.ix_(S, S)], np.column_stack([K_st, F[S]]))
    A = Kd[np.ix_(T, T)] - K_st.T @ X[:, :-1]
    b = F[T] - K_st.T @ X[:, -1]
    d = np.diag(A)
    t = np.zeros(len(T))
    for _ in range(max_sweeps):
        max_update = 0.0
        for i in range(len(T)):
            r = b[i] - A[i] @ t + d[i] * t[i]
            new = np.sign(r) * max(abs(r) - c[i], 0.0) / d[i]
            max_update = max(max_update, abs(new - t[i]))
            t[i] = new
        if max_update < tol:
            u = np.zeros(len(F))
            u[T] = t
            u[S] = X[:, -1] - X[:, :-1] @ t
            return u
    raise AssertionError("coordinate descent oracle did not converge")


def kkt_residual(K, F, free, gamma3, c, u):
    """Largest violation of the discrete friction law by u.

    Covers equilibrium on the smooth free nodes, u = 0 on gamma1, the
    stick bound |lambda_i| <= c_i and lambda_i = c_i sign(u_i) on slip
    nodes, with lambda = F - K u on the gamma3 nodes.
    """
    T = np.intersect1d(gamma3, free)
    S = np.setdiff1d(free, T)
    fixed = np.setdiff1d(np.arange(len(u)), free)
    r = F - K @ u
    lam, t = r[T], u[T]
    slip = t != 0.0
    return max(
        np.max(np.abs(r[S]), initial=0.0),
        np.max(np.abs(u[fixed]), initial=0.0),
        np.max(np.abs(lam) - c, initial=0.0),
        np.max(np.abs(lam[slip] - c[slip] * np.sign(t[slip])), initial=0.0),
    )


def control_square():
    """The 6x6 square of the control tests: mu = 1, f0 = 0.2, bound 0.05.

    Returns (mesh, discrete, c, load): ``discrete`` the problem's
    ``DiscreteProblem`` (K, Tresca solver), c the frozen coefficients of
    the bound and load(traction) the load vector under a constant gamma2
    traction.
    """
    mesh = square_mesh(6)
    problem = qvi.ProblemData(mesh, 1.0, 0.2, None, fem.FrictionBound.constant(0.05))
    discrete = qvi.DiscreteProblem(problem)
    c = 0.05 * mesh.gamma3_weights[discrete.tresca.friction]
    return mesh, discrete, c, lambda traction: fem.assemble_load(mesh, 0.2, traction)


class TestTresca:
    def test_zero_bound_matches_direct_solve(self):
        mesh = interval_mesh(32)
        K = fem.assemble_stiffness(mesh, 1.0)
        F = fem.assemble_load(mesh, 2.0)
        solver = tresca_solver(K, mesh.free_nodes, mesh.node_sets["gamma3"])
        u, _ = tresca_solve(solver, F, np.zeros(1))
        ref = linear_solve(mesh, 1.0, 2.0)
        assert np.max(np.abs(u - ref)) < 1e-10

    def test_slip_solution_exact(self):
        # mu = 1, f0 = 3, G = 1: u = -1.5 x^2 + 2 x, end traction -1
        mesh = interval_mesh(64)
        K = fem.assemble_stiffness(mesh, 1.0)
        F = fem.assemble_load(mesh, 3.0)
        solver = tresca_solver(K, mesh.free_nodes, mesh.node_sets["gamma3"])
        u, _ = tresca_solve(solver, F, np.array([1.0]))
        x = mesh.nodes
        assert np.max(np.abs(u - (-1.5 * x**2 + 2.0 * x))) < 1e-10
        prob = qvi.ProblemData(mesh, 1.0, 3.0, 0.0, fem.FrictionBound.constant(1.0))
        _, lam, _, _, _ = qvi.complementarity_report(prob, u)
        assert np.allclose(lam, [-1.0], atol=1e-9)

    def test_stick_when_bound_large(self):
        mesh = interval_mesh(32)
        K = fem.assemble_stiffness(mesh, 1.0)
        F = fem.assemble_load(mesh, 1.0)
        solver = tresca_solver(K, mesh.free_nodes, mesh.node_sets["gamma3"])
        u, _ = tresca_solve(solver, F, np.array([10.0]))
        assert u[-1] == 0.0

    def test_minimizer_beats_perturbations(self):
        mesh = square_mesh(5)
        K = fem.assemble_stiffness(mesh, 1.0)
        F = fem.assemble_load(mesh, 1.0, 0.5)
        g3 = mesh.node_sets["gamma3"]
        w = mesh.gamma3_weights[g3]
        bound = 0.4 * w
        u, _ = tresca_solve(tresca_solver(K, mesh.free_nodes, g3), F, bound)
        g = fem.FrictionBound.constant(0.4)
        e_star = friction_energy(mesh, K, F, g, u)
        rng = np.random.default_rng(RNG_SEED)
        for scale in (1e-3, 1e-1, 1.0):
            for _ in range(30):
                v = u + scale * zero_on_gamma1(mesh, rng.standard_normal(mesh.n_nodes))
                assert friction_energy(mesh, K, F, g, v) >= e_star - 1e-12

    @pytest.mark.parametrize(
        "f2,G,stick",
        [(1.0, 0.3, False), (1.0, 1.5, True), (-3.0, 0.05, False), (-3.0, 1.0, True)],
    )
    def test_kkt_and_coordinate_descent_agreement(self, f2, G, stick):
        mesh = square_mesh(6)
        K = fem.assemble_stiffness(mesh, 1.0)
        F = fem.assemble_load(mesh, 2.0, f2)
        g3 = mesh.node_sets["gamma3"]
        c = G * mesh.gamma3_weights[g3]
        u, iterations = tresca_solve(tresca_solver(K, mesh.free_nodes, g3), F, c)
        assert type(iterations) is int and iterations >= 1
        assert np.any(u[g3] == 0.0) == stick
        assert kkt_residual(K, F, mesh.free_nodes, g3, c, u) <= 1e-10
        ref = cd_oracle(K, F, mesh.free_nodes, g3, c)
        assert np.max(np.abs(u - ref)) <= 1e-10

    def test_active_set_cap_raises(self, monkeypatch):
        # the state under traction 0.6 slips forward on all twelve gamma3
        # nodes; under -0.6 every node slips backward, so one iteration from
        # that warm start cannot settle the sets
        _, discrete, c, load = control_square()
        solver = discrete.tresca
        t0 = tresca_solve(solver, load(0.6), c)[0][solver.friction]
        monkeypatch.setattr(qvi, "MAX_ACTIVE_SET", 1)
        with pytest.raises(qvi.SolverError, match="within 1 active-set"):
            tresca_solve(solver, load(-0.6), c, t0=t0)

    @pytest.mark.parametrize(
        "warm,target",
        [
            (0.6, -0.6),  # every warm-start sign is wrong
            # met in the control sequence test: the warm start slips on all
            # twelve nodes, the answer sticks on six, and the step
            # sigma = 1/diag(A) cycles between active sets
            (-0.3258955783927158, -0.19553735),
        ],
    )
    def test_wrong_sign_warm_start_converges(self, warm, target):
        mesh, discrete, c, load = control_square()
        K, solver = discrete.K, discrete.tresca
        t0 = tresca_solve(solver, load(warm), c)[0][solver.friction]
        F = load(target)
        u, _ = tresca_solve(solver, F, c, t0=t0)
        cold, _ = tresca_solve(solver, F, c)
        assert np.max(np.abs(u - cold)) <= 1e-12
        g3 = mesh.node_sets["gamma3"]
        assert kkt_residual(K, F, mesh.free_nodes, g3, c, u) <= 1e-10
        assert np.max(np.abs(u - cd_oracle(K, F, mesh.free_nodes, g3, c))) <= 1e-10

    def test_repeated_sign_vector_switches_to_least_index_rule(self):
        # from this warm start the full active-set step returns to a sign
        # vector it has seen and would cycle until the cap; the least-index
        # rule reaches the cold-start answer in a few iterations
        K = sp.csr_matrix([[4.0, -2.0, 0.0], [-2.0, 2.0, -2.0], [0.0, -2.0, 5.0]])
        solver = tresca_solver(K, np.arange(3), np.arange(3))
        F, c = np.array([4.0, 0.0, -4.0]), np.ones(3)
        cold, cold_iterations = tresca_solve(solver, F, c)
        assert cold_iterations == 1
        assert np.max(np.abs(cold - [0.75, 0.0, -0.6])) <= 1e-14
        u, iterations = tresca_solve(solver, F, c, t0=[-3.0, -3.0, 1.0])
        assert iterations <= 20
        assert np.max(np.abs(u - cold)) <= 1e-14
        assert kkt_residual(K, F, np.arange(3), np.arange(3), c, u) <= 1e-12

    def test_rejects_nonpositive_diagonal(self):
        # sigma = 1e3 / diag(K)_T is checked before the factor is read; a zero
        # block has no factor
        index = qvi.mesh_index(interval_mesh(4))
        factor = (None, None)
        with np.errstate(divide="ignore"):
            sigma = 1e3 / np.zeros(1)
        with pytest.raises(qvi.SolverError, match="diagonal"):
            qvi.TrescaSolver(index, factor, sigma)

    def test_rejects_negative_bound(self, monkeypatch):
        # fixed_point computes each step's coefficients c; one negative beyond
        # rounding at a single gamma3 node is refused before any inner solve,
        # and one within rounding is clipped to the zero it stands for
        _, discrete, _, load = control_square()
        solver = discrete.tresca
        w = solver.reduce(load(0.6))

        def bound(value):
            return fem.FrictionBound(
                lambda x, r: np.where(np.arange(len(r)) == 2, value, 0.05), 0.0
            )

        u, rep = qvi.fixed_point(discrete, w, bound(0.0))
        assert rep.converged
        v, _ = qvi.fixed_point(discrete, w, bound(-1e-15))
        assert np.array_equal(u, v)

        def fail(*args):
            raise AssertionError("inner solve ran on a negative bound")

        monkeypatch.setattr(solver, "_iterate", fail)
        with pytest.raises(qvi.SolverError, match="negative"):
            qvi.fixed_point(discrete, w, bound(-1e-3))


def _values(n, lo, hi):
    return st.lists(
        st.floats(lo, hi, allow_nan=False), min_size=n, max_size=n
    ).map(np.array)


@st.composite
def tresca_instances(draw):
    """Random rectangle, per-element mu in [0.2, 5], mixed-sign loads,
    bounds c >= 0 with zeros, and a random or absent warm start."""
    tags = draw(st.lists(st.sampled_from(fem.TAGS), min_size=4, max_size=4))
    assume(fem.GAMMA1 in tags and fem.GAMMA3 in tags)
    spec = fem.MeshSpec(
        2,
        (draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))),
        (draw(st.integers(1, 8)), draw(st.integers(1, 8))),
        dict(zip(fem.SIDES_2D, tags)),
    )
    mesh = fem.build_mesh(spec)
    m = len(mesh.elements)
    n2 = len(mesh.facets[fem.GAMMA2])
    K = fem.assemble_stiffness(mesh, draw(_values(m, 0.2, 5.0)))
    F = fem.assemble_load(
        mesh, draw(_values(m, -3.0, 3.0)), draw(_values(n2, -3.0, 3.0)) if n2 else None
    )
    T = mesh.node_sets[fem.GAMMA3]
    G = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 3.0)), min_size=len(T), max_size=len(T)
        ).map(np.array)
    )
    t0 = draw(st.one_of(st.none(), _values(len(T), -2.0, 2.0)))
    return mesh, K, F, G * mesh.gamma3_weights[T], t0


class TestTrescaProperties:
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(tresca_instances())
    def test_kkt_and_agreement_with_coordinate_descent(self, instance):
        mesh, K, F, c, t0 = instance
        g3 = mesh.node_sets[fem.GAMMA3]
        u, _ = tresca_solve(tresca_solver(K, mesh.free_nodes, g3), F, c, t0=t0)
        assert kkt_residual(K, F, mesh.free_nodes, g3, c, u) <= 1e-10
        assert np.max(np.abs(u - cd_oracle(K, F, mesh.free_nodes, g3, c))) <= 1e-10


def box_qp_loop(Z, b, c, t, lam, stick_solve, sigma):
    """``qvi._box_qp`` as its loop ran every start: an all-stick start too
    runs the iteration that solves Z lam = b again and stops."""
    if lam is None:
        lam = stick_solve(np.arange(len(b)), b - t)
    tol = qvi.KKT_REL_TOL * (1.0 + c.max())
    s = np.sign(t)
    at_zero = (t == 0.0).nonzero()[0]
    if len(at_zero):
        s[at_zero] = np.sign(lam[at_zero]) * (np.abs(lam[at_zero]) > c[at_zero])
    seen, least_index = None, False
    for iteration in range(1, qvi.MAX_ACTIVE_SET + 1):
        lam = s * c
        t = b - Z @ lam
        I = (s == 0.0).nonzero()[0]
        if len(I):
            lam[I] = stick_solve(I, t[I])
            t -= Z[:, I] @ lam[I]
            t[I] = 0.0
        if (s * t).min() >= -tol and (not len(I) or (np.abs(lam[I]) <= c[I] + tol).all()):
            return lam, I, iteration
        if seen is None:
            seen, sigma_c = set(), sigma * c
        if not least_index:
            z = t + sigma * lam
            s_next = np.sign(z) * (np.abs(z) > sigma_c)
            seen.add(s.tobytes())
            least_index = s_next.tobytes() in seen
        if least_index:
            holds = np.where(s == 0.0, np.abs(lam) <= c + tol, s * t >= -tol)
            i = int(np.argmin(holds))
            s_next = s.copy()
            s_next[i] = np.sign(lam[i]) if s[i] == 0.0 else 0.0
        s = s_next
    raise AssertionError("the loop missed the friction law")


@st.composite
def box_qp_instances(draw):
    """A random SPD Z of order 1 to 6, its b, sigma and a start: the
    default multiplier from t = 0 with a box wide enough for every node to
    stick, or a random box with t = 0 or a random t, and the default or a
    random multiplier."""
    m = draw(st.integers(1, 6))
    A = draw(_values(m * m, -1.0, 1.0)).reshape(m, m)
    Z = A @ A.T + 0.1 * np.eye(m)
    b = draw(_values(m, -3.0, 3.0))
    sigma = draw(_values(m, 0.1, 1e3))
    if draw(st.booleans()):  # all stick
        lam_b = np.linalg.solve(Z, b)
        c = np.abs(lam_b) * draw(st.floats(1.0, 3.0)) + draw(st.floats(0.0, 1.0))
        return Z, b, c, np.zeros(m), None, sigma
    c = draw(_values(m, 0.0, 3.0))
    t = np.zeros(m) if draw(st.booleans()) else draw(_values(m, -2.0, 2.0))
    lam = draw(st.one_of(st.none(), _values(m, -3.0, 3.0)))
    return Z, b, c, t, lam, sigma


class TestBoxQP:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(box_qp_instances())
    def test_bitwise_equal_to_the_loop(self, instance):
        Z, b, c, t, lam, sigma = instance
        solves = {"box": 0, "loop": 0}

        def stick_solve(name):
            def solve(J, rhs):
                solves[name] += 1
                return qvi.dgetrs(*qvi.dgetrf(Z[np.ix_(J, J)])[:2], rhs)[0]
            return solve

        got = qvi._box_qp(Z, b, c, t, lam, stick_solve("box"), sigma, "box QP")
        ref = box_qp_loop(Z, b, c, t, lam, stick_solve("loop"), sigma)
        assert [x.tobytes() for x in got[:2]] == [x.tobytes() for x in ref[:2]]
        assert got[2] == ref[2]
        # an all-stick default start makes one stick solve, the loop two
        all_stick = lam is None and got[2] == 1 and len(got[1]) == len(b)
        assert solves["box"] == solves["loop"] - all_stick


class TestSolverConfig:
    """The outer loop runs at the module constants ``qvi.OUTER_TOL`` and
    ``qvi.MAX_OUTER``, read at call time."""

    def test_smallest_caps_accepted(self, monkeypatch):
        # zero data: the first increment is 0.0, below any positive tolerance
        monkeypatch.setattr(qvi, "MAX_OUTER", 1)
        monkeypatch.setattr(qvi, "OUTER_TOL", 1e-300)
        prob = qvi.ProblemData(interval_mesh(16), 1.0, 0.0, 0.0, fem.FrictionBound.constant(0.0))
        rep = qvi.solve_qvi(prob)[1]
        assert rep.converged and rep.outer_iterations == 1

    def test_numpy_integer_caps_accepted(self, monkeypatch):
        monkeypatch.setattr(qvi, "MAX_OUTER", np.int64(200))
        prob = benchmark_problem(1.0, 3.0, 1.0, 16)
        assert qvi.solve_qvi(prob)[1].converged


class TestFixedPoint:
    def test_benchmark_cases_nodal_exact(self):
        for mu, f0, g in [(1.0, 1.0, 1.0), (1.0, 3.0, 1.0), (2.0, -3.0, 0.5), (1.0, 2.0, 1.0)]:
            prob = benchmark_problem(mu, f0, g, 128)
            u, rep = qvi.solve_qvi(prob)
            assert rep.converged
            x = prob.mesh.nodes
            assert np.max(np.abs(u - analytic_1d(mu, f0, g, x))) < 1e-9

    def test_slip_dependent_fixed_point(self):
        # g(r) = 0.5 + 0.5|r|, f0 = 3: end value 2/3, bound 5/6 at the fixed point
        mesh = interval_mesh(64)
        prob = qvi.ProblemData(mesh, 1.0, 3.0, 0.0, fem.FrictionBound.affine(0.5, 0.5))
        u, rep = qvi.solve_qvi(prob)
        assert abs(u[-1] - 2.0 / 3.0) < 1e-9
        x = mesh.nodes
        ref = -1.5 * x**2 + (3.0 - 5.0 / 6.0) * x
        assert np.max(np.abs(u - ref)) < 1e-9

    @pytest.mark.parametrize(
        "spec",
        [
            fem.MeshSpec(1, (1.0,), (16,), {"left": "gamma1", "right": "gamma2"}),
            fem.MeshSpec(
                2, (1.0, 1.0), (4, 3),
                {"left": "gamma1", "right": "gamma2", "bottom": "gamma2", "top": "gamma2"},
            ),
        ],
    )
    def test_no_free_gamma3_node_needs_no_inner_iteration(self, spec):
        mesh = fem.build_mesh(spec)
        prob = qvi.ProblemData(mesh, 1.0, 1.0, 0.5, fem.FrictionBound.affine(0.2, 0.1))
        u, rep = qvi.solve_qvi(prob)
        assert rep.converged and rep.outer_iterations == 2
        assert rep.inner_sweeps == [0, 0]
        assert np.allclose(u, linear_solve(mesh, 1.0, 1.0, 0.5), rtol=0, atol=1e-12)

    def test_zero_data_single_iteration(self):
        mesh = interval_mesh(16)
        prob = qvi.ProblemData(mesh, 1.0, 0.0, 0.0, fem.FrictionBound.constant(0.0))
        u, rep = qvi.solve_qvi(prob)
        assert np.allclose(u, 0.0)
        assert rep.outer_iterations == 1

    def test_slip_independent_bound_two_iterations(self):
        prob = benchmark_problem(1.0, 3.0, 1.0, 32)
        u, rep = qvi.solve_qvi(prob)
        assert rep.outer_iterations == 2

    def test_observed_contraction_below_margin(self):
        # L_g = 0.9 on the interval: k just above 0.96, the problem of
        # acceptance criterion 3, whose increments reach OUTER_TOL in 224
        # steps at the default cap
        mesh = interval_mesh(64)
        prob = qvi.ProblemData(mesh, 1.0, 3.0, 0.0, fem.FrictionBound.affine(0.25, 0.9))
        u, rep = qvi.solve_qvi(prob)
        assert rep.k < 1.0
        assert len(rep.ratios) > 10
        assert max(rep.ratios) <= rep.k + 0.05
        assert rep.converged and rep.outer_iterations == 224 < qvi.MAX_OUTER
        assert rep.increments[-1] < qvi.OUTER_TOL <= rep.increments[-2]

    def test_iteration_count_follows_contraction(self):
        mesh = interval_mesh(64)
        prob = qvi.ProblemData(mesh, 1.0, 3.0, 0.0, fem.FrictionBound.affine(0.5, 0.5))
        u, rep = qvi.solve_qvi(prob)
        bound = int(np.ceil(np.log(1e-10) / np.log(rep.k))) + 5
        assert rep.outer_iterations <= bound

    def test_smallness_violation_requires_override(self):
        mesh = interval_mesh(32)
        prob = qvi.ProblemData(mesh, 1.0, 1.0, 0.0, fem.FrictionBound.affine(0.1, 1.0))
        with pytest.raises(qvi.SolverError, match="contraction factor") as info:
            qvi.solve_qvi(prob)
        assert "set ProblemData.allow_non_contractive" in str(info.value)

    def test_override_still_converges_when_map_contracts(self):
        # k >= 1 is only an upper bound; the interval map still contracts at 0.95
        mesh = interval_mesh(32)
        prob = qvi.ProblemData(mesh, 1.0, 3.0, 0.0, fem.FrictionBound.affine(0.1, 0.95))
        with pytest.warns(UserWarning, match="non-contractive"):
            u, rep = qvi.solve_qvi(prob.with_data(allow_non_contractive=True))
        assert rep.converged and not rep.contraction_ok
        assert rep.error_bound is None

    def test_error_bound_covers_distance_to_tight_solve(self, monkeypatch):
        # L_g = 0.5 on the interval: k about 0.54
        mesh = interval_mesh(64)
        prob = qvi.ProblemData(mesh, 1.0, 3.0, 0.0, fem.FrictionBound.affine(0.5, 0.5))
        monkeypatch.setattr(qvi, "OUTER_TOL", 1e-6)
        u, rep = qvi.solve_qvi(prob)
        monkeypatch.setattr(qvi, "OUTER_TOL", 1e-12)
        ref, _ = qvi.solve_qvi(prob)
        assert 0.5 < rep.k < 0.6 and rep.contraction_ok
        assert rep.error_bound == rep.k / (1.0 - rep.k) * rep.increments[-1]
        assert 0.0 < fem.v_norm(mesh, u - ref) <= rep.error_bound

    def test_outer_cap_raises(self, monkeypatch):
        monkeypatch.setattr(qvi, "MAX_OUTER", 1)
        prob = benchmark_problem(1.0, 3.0, 1.0, 16)
        with pytest.raises(qvi.SolverError, match="outer fixed point"):
            qvi.solve_qvi(prob)

    def test_negative_bound_function_rejected(self):
        mesh = interval_mesh(16)
        bad = fem.FrictionBound(lambda x, r: -np.ones_like(r), 0.0)
        prob = qvi.ProblemData(mesh, 1.0, 1.0, 0.0, bad)
        with pytest.raises(qvi.SolverError, match="negative"):
            qvi.solve_qvi(prob)

    def test_deterministic(self):
        prob = benchmark_problem(1.0, 3.0, 1.0, 64)
        u1, _ = qvi.solve_qvi(prob)
        u2, _ = qvi.solve_qvi(prob)
        assert np.array_equal(u1, u2)

    def test_square_with_slip_dependent_bound(self):
        mesh = square_mesh(6)
        prob = qvi.ProblemData(mesh, 1.0, 1.0, 0.5, fem.FrictionBound.affine(0.2, 0.2))
        u, rep = qvi.solve_qvi(prob)
        assert rep.converged and rep.contraction_ok
        assert in_space(mesh, u)
        theta = qvi.TykhonovIndex(0.0, 1.0, 0.5, prob.g)
        assert qvi.membership_violation(mesh, 1.0, u, theta, seed=5) <= 1e-8


def gamma3_columns(solver, I):
    """The columns I of Z = (K_ff^-1)_TT, band-solved one per node."""
    E = np.zeros((len(solver.free), len(I)))
    E[solver._pos[I], np.arange(len(I))] = 1.0
    return np.ascontiguousarray(solver._solve(E)[solver._pos])


def per_step_tresca(solver, F, c, t0, lam0, stick_sets=None):
    """The frozen-bound solve that reduces F on every call and, in every
    active-set iteration, band-solves for u, solves for the gamma3 columns
    of K_ff^-1 on the stick set and solves the stick system with
    ``np.linalg.solve`` afresh.  ``lam0`` is the multiplier of a warm
    start; None starts from the exact reaction Z^-1 (w_T - t0), with Z made
    of band-solved columns.  Returns (u, lam, iterations) and appends each
    nonempty stick set to ``stick_sets``, but for the first iteration of
    such a start at which every node sticks: ``qvi._box_qp`` returns that
    start's own stick solve as it."""
    free, pos = solver.free, solver._pos
    cold = lam0 is None
    w = solver._solve(F[free])
    u = np.zeros(solver.n_nodes)
    if len(pos) == 0:
        u[free] = w
        return u, lam0, 0
    t = np.array(t0, dtype=float)
    if lam0 is None:
        lam0 = np.linalg.solve(gamma3_columns(solver, np.arange(len(pos))), w[pos] - t)
    lam = lam0
    sigma = solver._sigma
    tol = qvi.KKT_REL_TOL * (1.0 + c.max())
    s = np.where(t != 0.0, np.sign(t), np.sign(lam) * (np.abs(lam) > c))
    rhs = np.zeros(len(free))
    for iteration in range(1, qvi.MAX_ACTIVE_SET + 1):
        I = np.flatnonzero(s == 0.0)
        lam = s * c
        rhs[pos] = lam
        u_free = w - solver._solve(rhs)
        t = u_free[pos]
        if len(I):
            all_stick_start = cold and iteration == 1 and len(I) == len(pos)
            if stick_sets is not None and not all_stick_start:
                stick_sets.append(I.tobytes())
            Z_I = gamma3_columns(solver, I)
            lam[I] = np.linalg.solve(Z_I[I], t[I])
            t -= Z_I @ lam[I]
            t[I] = 0.0
        if (s * t >= -tol).all() and (np.abs(lam[I]) <= c[I] + tol).all():
            if len(I):
                rhs[pos] = lam
                u_free = w - solver._solve(rhs)
                u_free[pos[I]] = 0.0
            u[free] = u_free
            return u, lam, iteration
        z = t + sigma * lam
        s = np.sign(z) * (np.abs(z) > sigma * c)
    raise AssertionError("per-step oracle missed the friction law")


def per_step_fixed_point(discrete, F, g, eta0=None, lam0=None, stick_sets=None):
    """The bound-update loop on the Tresca solver of ``discrete`` with one
    full frozen-bound solve per outer step, carrying the multiplier from
    step to step, at ``qvi.OUTER_TOL`` and ``qvi.MAX_OUTER``; the bound's
    nodes, weights and norms are looked up afresh.  A step whose
    coefficients equal the last step's is solved by the last iterate: it
    gives increment 0.0 and 0 inner iterations.
    Returns (u, increments, ratios, inner_sweeps, lam)."""
    mesh, solver = discrete.problem.mesh, discrete.tresca
    T = solver.friction
    w = mesh.gamma3_weights[T]
    eta = np.zeros(mesh.n_nodes) if eta0 is None else np.array(eta0, dtype=float)
    lam = lam0
    increments, ratios, sweeps = [], [], []
    c_last = None
    for _ in range(qvi.MAX_OUTER):
        c = w * np.maximum(g(mesh.nodes[T], np.abs(eta[T])), 0.0)
        if c_last is not None and np.array_equal(c, c_last):
            u, its = eta, 0
        else:
            u, lam, its = per_step_tresca(solver, F, c, eta[T], lam, stick_sets)
        c_last = c
        inc = fem.v_norm(mesh, u - eta)
        if increments and increments[-1] > 0.0:
            ratios.append(inc / increments[-1])
        increments.append(inc)
        sweeps.append(its)
        eta = u
        if inc < qvi.OUTER_TOL:
            return eta, increments, ratios, sweeps, lam
    raise AssertionError("per-step oracle missed the outer tolerance")


def set_changes(slip_sets):
    """Number of entries that differ from the one before (the first counts)."""
    return sum(a != b for a, b in zip([None] + slip_sets[:-1], slip_sets))


@st.composite
def fixed_point_instances(draw):
    """Random rectangle up to 8x8, per-element mu in [0.2, 5], mixed-sign
    loads, an affine bound a + b|r| with b > 0 inside the contraction
    limit, and a random or absent warm start."""
    tags = draw(st.lists(st.sampled_from(fem.TAGS), min_size=4, max_size=4))
    assume(fem.GAMMA1 in tags and fem.GAMMA3 in tags)
    spec = fem.MeshSpec(
        2,
        (draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))),
        (draw(st.integers(1, 8)), draw(st.integers(1, 8))),
        dict(zip(fem.SIDES_2D, tags)),
    )
    mesh = fem.build_mesh(spec)
    # the constants need a free node (a mesh clamped everywhere has none)
    assume(len(mesh.free_nodes))
    m = len(mesh.elements)
    n2 = len(mesh.facets[fem.GAMMA2])
    mu = draw(_values(m, 0.2, 5.0))
    f0 = draw(_values(m, -3.0, 3.0))
    f2 = draw(_values(n2, -3.0, 3.0)) if n2 else None
    c0, c3 = constants.space_constants(mesh)
    b = draw(st.floats(0.05, 0.9)) * mu.min() / (c0**2 * c3**2)
    g = fem.FrictionBound.affine(draw(st.floats(0.0, 1.0)), b)
    eta0 = draw(st.one_of(st.none(), _values(mesh.n_nodes, -2.0, 2.0)))
    return qvi.ProblemData(mesh, mu, f0, f2, g), eta0


def close_in_v_norm(mesh, u, ref, rtol=1e-12):
    """u within ``rtol`` of ref, relative in the V-norm."""
    return fem.v_norm(mesh, u - ref) <= rtol * fem.v_norm(mesh, ref)


def recording_stick_sets(solver):
    """List that gains the stick set I (as bytes) of every stick solve of
    ``solver``; a cold start's solve on the whole of gamma3 comes first."""
    sets, stick_solve = [], solver._stick_solve
    solver._stick_solve = lambda I, rhs: sets.append(I.tobytes()) or stick_solve(I, rhs)
    return sets


def whole_gamma3(solver):
    """The stick set of a cold start's solve: every gamma3 node, as bytes."""
    return np.arange(len(solver.friction)).tobytes()


class TestReducedFixedPoint:
    """The fixed point reduces its load once, runs its active-set
    iterations on Z and lifts once per outer step; it goes through the
    stick sets of the per-step loop, which solves for columns of K_ff^-1,
    to within rounding."""

    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(fixed_point_instances())
    def test_matches_per_step_loop(self, instance):
        problem, eta0 = instance
        discrete = qvi.DiscreteProblem(problem)
        stick_sets = recording_stick_sets(discrete.tresca)
        F = fem.assemble_load(problem.mesh, problem.f0, problem.f2)
        u, rep = discrete.solve(F, problem.g, eta0)
        # a second DiscreteProblem: a Tresca solver with no kept LU or multiplier
        oracle = qvi.DiscreteProblem(problem)
        ref_sets = []
        ref = per_step_fixed_point(oracle, F, problem.g, eta0, None, ref_sets)
        assert close_in_v_norm(problem.mesh, u, ref[0])
        assert rep.inner_sweeps == ref[3]
        assert stick_sets == [whole_gamma3(discrete.tresca)] + ref_sets

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(fixed_point_instances())
    def test_bitwise_equal_to_a_loop_of_solves(self, instance):
        problem, eta0 = instance
        discrete = qvi.DiscreteProblem(problem)
        F = fem.assemble_load(problem.mesh, problem.f0, problem.f2)
        w = discrete.tresca.reduce(F)
        u, rep = qvi.fixed_point(discrete, w, problem.g, eta0)
        # one Tresca solve a step: it reduces the load afresh and warm-starts
        # from t0 and its last multiplier; the first call of a fresh solver is cold;
        # a step whose coefficients equal the last step's bitwise solves nothing
        mesh, solver = problem.mesh, qvi.DiscreteProblem(problem).tresca
        T = solver.friction
        eta = np.zeros(mesh.n_nodes) if eta0 is None else np.array(eta0, dtype=float)
        sweeps, last = [], None
        for _ in range(rep.outer_iterations):
            c = mesh.gamma3_weights[T] * np.maximum(problem.g(mesh.nodes[T], np.abs(eta[T])), 0.0)
            if c.tobytes() == last:
                sweeps.append(0)
                break
            last = c.tobytes()
            eta, its = tresca_solve(solver, F, c, eta[T])
            sweeps.append(its)
        assert np.array_equal(u, eta)
        assert rep.inner_sweeps == sweeps

    @staticmethod
    def count_work(monkeypatch, solver):
        """Counters of the band solves of ``solver`` that see the load (its
        right-hand side is nonzero off gamma3), of those that lift a
        multiplier (zero off gamma3), of the columns solved for and of
        stick-block LU factorizations."""
        counts = {"load": 0, "lift": 0, "columns": 0, "stick": 0}
        band_solve, dgetrf = solver._solve, qvi.dgetrf
        off_gamma3 = np.ones(len(solver.free), dtype=bool)
        off_gamma3[solver._pos] = False

        def counted_solve(b):
            if b.ndim == 2:
                counts["columns"] += b.shape[1]
            else:
                counts["load" if b[off_gamma3].any() else "lift"] += 1
            return band_solve(b)

        def counted_dgetrf(a):
            counts["stick"] += 1
            return dgetrf(a)

        solver._solve = counted_solve
        monkeypatch.setattr(qvi, "dgetrf", counted_dgetrf)
        return counts

    # traction -0.2 leaves six of the twelve gamma3 nodes stuck
    @pytest.mark.parametrize("b, min_outer", [(0.0, 2), (0.2, 8), (0.6, 14)])
    def test_one_load_solve_and_lu_per_stick_set(self, monkeypatch, b, min_outer):
        _, discrete, _, load = control_square()
        solver = discrete.tresca
        g = fem.FrictionBound.affine(0.05, b)
        F = load(-0.2)
        ref_sets = []
        oracle = qvi.DiscreteProblem(discrete.problem)
        ref = per_step_fixed_point(oracle, F, g, stick_sets=ref_sets)
        counts = self.count_work(monkeypatch, solver)
        stick_sets = recording_stick_sets(solver)
        u, rep = discrete.solve(F, g)
        assert close_in_v_norm(discrete.problem.mesh, u, ref[0])
        assert rep.inner_sweeps == ref[3]
        assert stick_sets == [whole_gamma3(solver)] + ref_sets
        assert rep.outer_iterations >= min_outer
        assert counts["load"] == 1
        # one lift per step that ran an inner solve: b = 0 stops at step 2,
        # whose bound has not moved, with none
        assert counts["lift"] == rep.outer_iterations - rep.inner_sweeps.count(0)
        assert rep.inner_sweeps.count(0) == (b == 0.0)
        assert counts["columns"] == 0
        # the stick set repeats, so a factorization per iteration would show;
        # b = 0 repeated it only in its step 2, which no longer runs
        assert len(stick_sets) > set_changes(stick_sets) - (b == 0.0)
        assert set_changes(stick_sets) >= 2
        assert counts["stick"] <= set_changes(stick_sets)

    def test_unmoved_bound_stops_without_a_second_solve(self, monkeypatch):
        # a constant bound: step 2's coefficients are step 1's, whose iterate
        # solves its Tresca problem, so step 2 runs no iteration and no lift
        _, discrete, c, load = control_square()
        solver = discrete.tresca
        F, g = load(0.6), fem.FrictionBound.constant(0.05)
        # the two solves of a loop that re-solves step 2: cold, then warm
        other = qvi.DiscreteProblem(discrete.problem).tresca
        u1, _ = tresca_solve(other, F, c)
        u2, _ = tresca_solve(other, F, c, u1[other.friction])
        counts = self.count_work(monkeypatch, solver)
        u, rep = discrete.solve(F, g)
        assert np.all(u[solver.friction] != 0.0)
        assert counts == {"load": 1, "lift": 1, "columns": 0, "stick": 1}
        assert rep.outer_iterations == 2 and rep.inner_sweeps[-1] == 0
        assert rep.increments[-1] == 0.0 and rep.ratios == [0.0]
        assert np.array_equal(u, u2) and np.array_equal(u2, u1)

    def test_bound_that_understates_its_rate_still_iterates(self):
        # lipschitz = 0 declared for a bound that moves with the slip: the
        # stop reads the bound's values, so the run reaches the fixed point
        _, discrete, _, load = control_square()
        g = fem.FrictionBound(lambda x, r: 0.05 + 0.2 * r, lipschitz=0.0)
        F = load(0.6)
        u, rep = discrete.solve(F, g)
        ref = per_step_fixed_point(qvi.DiscreteProblem(discrete.problem), F, g)
        assert rep.k == 0.0 and rep.outer_iterations > 4
        assert 0 not in rep.inner_sweeps and rep.inner_sweeps == ref[3]
        assert close_in_v_norm(discrete.problem.mesh, u, ref[0])
        # the same values with their rate declared give the same run
        honest = qvi.DiscreteProblem(discrete.problem)
        u_honest, rep_honest = honest.solve(F, fem.FrictionBound.affine(0.05, 0.2))
        assert np.array_equal(u, u_honest) and rep.increments == rep_honest.increments

    def test_all_slip_solves_for_no_column(self, monkeypatch):
        _, discrete, _, load = control_square()
        solver = discrete.tresca
        counts = self.count_work(monkeypatch, solver)
        stick_sets = recording_stick_sets(solver)
        u, rep = discrete.solve(load(0.6), fem.FrictionBound.affine(0.05, 0.2))
        assert np.all(u[solver.friction] != 0.0)
        # the one stick solve is the cold start's, on Z itself
        assert stick_sets == [whole_gamma3(solver)]
        assert counts["columns"] == 0 and counts["stick"] == 1
        assert counts["load"] == 1 and counts["lift"] == rep.outer_iterations

    def test_lu_kept_across_state_evaluations(self, monkeypatch):
        mesh = square_mesh(6)
        problem = qvi.ProblemData(mesh, 1.0, 0.2, None, fem.FrictionBound.affine(0.05, 0.2))
        patches = control.ControlPatches(mesh, 2)
        state = control.StateSolver(problem, patches)
        weights = control.CostWeights(1.0, 1e-3, 0.0)
        oracle = control.StateSolver(problem, patches).discrete
        coeffs = [np.array([-0.2, -0.3]), np.array([-0.21, -0.29])]
        ref_sets, eta, lam, outer = [], None, None, 0
        for x in coeffs:
            F = state.F0 + state.B @ patches.coefficients(x)
            eta, _, _, sweeps, lam = per_step_fixed_point(
                oracle, F, problem.g, eta, lam, ref_sets
            )
            outer += len(sweeps)
        solver = state.discrete.tresca
        counts = self.count_work(monkeypatch, solver)
        stick_sets = recording_stick_sets(solver)
        u = None
        for x in coeffs:
            _, u = state.evaluate(x, weights, eta0=u)
        assert close_in_v_norm(mesh, u, eta)
        assert stick_sets == [whole_gamma3(solver)] + ref_sets
        assert counts["load"] == 0 and counts["lift"] == outer
        assert counts["columns"] == 0
        assert len(stick_sets) > set_changes(stick_sets) >= 2
        assert counts["stick"] <= set_changes(stick_sets)

    @staticmethod
    def two_patch_state(n=6, f0=0.2, extent=1.0, g=None):
        sides = {"left": "gamma1", "right": "gamma2", "bottom": "gamma3", "top": "gamma3"}
        mesh = fem.build_mesh(fem.MeshSpec(2, (extent, extent), (n, n), sides))
        g = g or fem.FrictionBound.affine(0.05, 0.2)
        problem = qvi.ProblemData(mesh, 1.0, f0, None, g)
        return control.StateSolver(problem, control.ControlPatches(mesh, 2))

    def test_load_and_patch_columns_reduced_at_construction(self):
        state = self.two_patch_state()
        solver = state.discrete.tresca
        # one band solve of d + 1 columns, each bitwise its own solve
        assert np.array_equal(state._R0, solver.reduce(state.F0))
        for p in range(2):
            assert np.array_equal(state._RB[:, p], solver.reduce(state.B[:, p]))

    def test_control_run_solves_no_load(self, monkeypatch):
        # a single-start optimization on the control benchmark's 4x4 square,
        # by the simplex alone: after the construction's d + 1 columns, every
        # state solve, warm or cold, lifts once per outer step and reduces no
        # load
        monkeypatch.setattr(control, "GN_MAX_STEPS", 0)
        steps, counts = [], []
        fixed_point, init = qvi.fixed_point, control.StateSolver.__init__

        def counting(*args, **kwargs):
            u, report = fixed_point(*args, **kwargs)
            steps.append(report.outer_iterations)
            return u, report

        def counted_init(state, *args):
            init(state, *args)
            counts.append(self.count_work(monkeypatch, state.discrete.tresca))

        monkeypatch.setattr(qvi, "fixed_point", counting)
        monkeypatch.setattr(control.StateSolver, "__init__", counted_init)
        g = fem.FrictionBound.affine(0.159, 0.1)
        problem = qvi.ProblemData(square_mesh(4), 1.0, 0.9635, None, g)
        patches = control.ControlPatches(problem.mesh, 1)
        weights = control.CostWeights(1.0, 1e-3, lambda x: np.sin(2.0 * x[:, 0]))
        control.minimize_cost(problem, patches, weights, n_starts=1, seed=0)
        (count,) = counts
        assert len(steps) > 50
        assert count["load"] == 0 and count["columns"] == 0
        assert count["lift"] == sum(steps)

    @pytest.mark.parametrize("warm", [False, True])
    def test_state_matches_the_solve_of_the_whole_load(self, warm):
        # the reference solves F0 + B c on a DiscreteProblem of its own, so
        # that a warm start carries each solver's own multiplier
        state, other = self.two_patch_state(8), self.two_patch_state(8)
        discrete = other.discrete
        rng = np.random.default_rng(RNG_SEED)
        u = ref = None
        for _ in range(6):
            x = rng.normal(scale=0.5, size=2)
            u, report = state.solve(x, eta0=u if warm else None)
            ref, ref_report = discrete.solve(
                state.F0 + state.B @ x, discrete.problem.g, eta0=ref if warm else None
            )
            assert close_in_v_norm(discrete.problem.mesh, u, ref, rtol=1e-13)
            assert report.inner_sweeps == ref_report.inner_sweeps

    def test_non_finite_reduced_load_raises_as_the_whole_load(self):
        x = np.array([0.3, -0.2])
        # a finite base load whose reduction overflows on gamma3
        state = self.two_patch_state(4, 1e307, 10.0, fem.FrictionBound.constant(0.1))
        assert np.isfinite(state.F0 + state.B @ x).all()
        weights = control.CostWeights(1.0, 0.0, 0.0)
        message = "load is non-finite on the gamma3 block"
        for run in (
            lambda: state.discrete.solve(state.F0 + state.B @ x, state.discrete.problem.g),
            lambda: state.solve(x),
            lambda: state.evaluate(x, weights),
        ):
            with pytest.raises(qvi.SolverError, match=message):
                run()
        # a control whose state overflows in the V-norm: no bogus convergence
        state = self.two_patch_state()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(qvi.SolverError, match="increment .* is not finite"):
                state.evaluate(np.array([1.7e308, 1.7e308]), weights)
        # a control whose reduced columns overflow (numpy's overflow warning aside)
        state = self.two_patch_state(4, 0.2, 10.0, fem.FrictionBound.constant(0.1))
        x = np.array([5e307, 0.0])
        with np.errstate(over="ignore"):
            assert np.isfinite(state.F0 + state.B @ x).all()
            with pytest.raises(qvi.SolverError, match=message):
                state.discrete.solve(state.F0 + state.B @ x, state.discrete.problem.g)
            with pytest.raises(qvi.SolverError, match=message):
                state.evaluate(x, weights)

    def test_cold_start_sticks_no_more_than_the_answer_needs(self):
        # mixed-0 of the benchmark catalogue: 24x24, 36 of 48 gamma3 nodes
        # stick at the answer; the clamped reaction K_TT w_T stuck all 48
        mesh = square_mesh(24)
        g = fem.FrictionBound.affine(0.9992, 0.1007)
        discrete = qvi.DiscreteProblem(qvi.ProblemData(mesh, 1.0, 0.9605, 0.5169, g))
        solver = discrete.tresca
        stick_sets = recording_stick_sets(solver)
        c = discrete.weights * g(discrete.points, np.zeros(len(solver.friction)))
        _, iterations = tresca_solve(solver, fem.assemble_load(mesh, 0.9605, 0.5169), c)
        assert iterations <= 3
        assert stick_sets[0] == whole_gamma3(solver)
        assert max(len(np.frombuffer(I, dtype=np.int64)) for I in stick_sets[1:]) < 48


class TestBadData:
    def test_nan_bound_fails_fast(self):
        mesh = square_mesh(4)
        bad = fem.FrictionBound(lambda x, r: np.full_like(r, np.nan), 0.0)
        prob = qvi.ProblemData(mesh, 1.0, 1.0, 0.5, bad)
        with pytest.raises(qvi.SolverError, match="friction bound .*non-finite"):
            qvi.solve_qvi(prob)

    def test_nan_bound_at_the_solution_fails_the_certificate(self):
        # the fixed point never evaluates the bound at its final iterate, so
        # only the certificates see a bound that is NaN above half the largest
        # slip; unchecked, they return NaN, which passes every "> 1e-8" gate
        mesh = square_mesh(6)
        prob = qvi.ProblemData(mesh, 1.0, 0.2, 0.6, fem.FrictionBound.affine(0.05, 0.2))
        u, _ = qvi.solve_qvi(prob)
        half = 0.5 * np.max(np.abs(u[mesh.node_sets["gamma3"]]))
        bad = fem.FrictionBound(lambda x, r: np.where(r > half, np.nan, 0.05 + 0.2 * r), 0.2)
        theta = qvi.TykhonovIndex(0.0, prob.f0, prob.f2, bad)
        with pytest.raises(qvi.SolverError, match="friction bound .*non-finite"):
            qvi.membership_violation(mesh, 1.0, u, theta, seed=0)
        with pytest.raises(qvi.SolverError, match="friction bound .*non-finite"):
            qvi.complementarity_report(prob.with_data(g=bad), u)
        with pytest.raises(ValueError, match="friction bound must be finite, got nan at node"):
            fem.eval_j(mesh, bad, u, u)

    @pytest.mark.parametrize("f0", ["nan", "inf", "half"])
    def test_non_finite_residual_fails_both_diagnostics(self, f0):
        # all eight gamma3 nodes slip, so the certificate runs no box QP;
        # unchecked, a load that is not finite gave a NaN violation and NaN
        # friction-law residuals, which pass every "> tolerance" gate
        mesh = square_mesh(4)
        prob = qvi.ProblemData(mesh, 1.0, 0.2, 0.6, fem.FrictionBound.constant(0.01))
        u, _ = qvi.solve_qvi(prob)
        assert (u[mesh.node_sets["gamma3"]] != 0.0).all()
        bad = {
            "nan": np.nan,
            "inf": np.inf,
            "half": lambda x: np.where(x[:, 1] > 0.5, np.nan, 0.2),
        }[f0]
        r = fem.assemble_load(mesh, bad, prob.f2) - fem.stiffness_matrix(mesh, 1.0) @ u

        def first_non_finite(nodes):  # the message naming the first such node
            node = nodes[np.argmin(np.isfinite(r[nodes]))]
            return f"residual F - Ku is non-finite at node {node}$"

        # the certificate reads every free node, the report the gamma3 nodes
        theta = qvi.TykhonovIndex(0.0, bad, prob.f2, prob.g)
        with pytest.raises(qvi.SolverError, match=first_non_finite(mesh.free_nodes)):
            qvi.membership_violation(mesh, 1.0, u, theta)
        with pytest.raises(qvi.SolverError, match=first_non_finite(mesh.node_sets["gamma3"])):
            qvi.complementarity_report(prob.with_data(f0=bad), u)

    def test_residual_at_a_clamped_node_is_not_read(self):
        mesh = square_mesh(4)
        prob = qvi.ProblemData(mesh, 1.0, 0.2, 0.6, fem.FrictionBound.constant(0.01))
        u, _ = qvi.solve_qvi(prob)
        theta = qvi.TykhonovIndex(0.0, prob.f0, prob.f2, prob.g)
        F = fem.assemble_load(mesh, prob.f0, prob.f2)
        expected = qvi.membership_violation(mesh, 1.0, u, theta, load=F)
        F[mesh.node_sets["gamma1"][0]] = np.nan
        assert qvi.membership_violation(mesh, 1.0, u, theta, load=F) == expected

    def test_infinite_bound_rejected(self):
        mesh = interval_mesh(16)
        bad = fem.FrictionBound(lambda x, r: np.full_like(r, np.inf), 0.0)
        prob = qvi.ProblemData(mesh, 1.0, 1.0, 0.0, bad)
        with pytest.raises(qvi.SolverError, match="friction bound .*non-finite"):
            qvi.solve_qvi(prob)

    @pytest.mark.parametrize("where", ["everywhere", "interior", "gamma3"])
    def test_nan_load_fails_fast(self, where):
        _, discrete, c, load = control_square()
        solver = discrete.tresca
        F = load(0.6)
        node = {"everywhere": slice(None), "interior": 24, "gamma3": solver.friction[0]}
        F[node[where]] = np.nan
        g = fem.FrictionBound.constant(0.05)
        with pytest.raises(qvi.SolverError, match="load .*non-finite"):
            discrete.solve(F, g)
        with pytest.raises(qvi.SolverError, match="load .*non-finite"):
            qvi.fixed_point(discrete, solver.reduce(F), g)

    @pytest.mark.parametrize("columns", [1, 3])
    @pytest.mark.parametrize("where", ["interior", "gamma3"])
    def test_reduce_names_the_node_of_a_non_finite_load(self, where, columns):
        # a NaN at an interior node read "non-finite on the gamma3 block"
        mesh, discrete, _, load = control_square()
        solver = discrete.tresca
        node = {"interior": 24, "gamma3": solver.friction[3]}[where]
        F = np.column_stack([load(0.6)] * columns)
        F[node, -1] = np.inf
        F[mesh.node_sets["gamma1"][0]] = np.nan  # a clamped node is not read
        with pytest.raises(qvi.SolverError, match=f"load is non-finite at node {node}$"):
            solver.reduce(F[:, 0] if columns == 1 else F)

    def test_nan_coefficient_rejected(self, monkeypatch):
        # a bound NaN at one gamma3 node: fixed_point refuses its coefficients
        # before any inner solve, where a NaN sign would cycle unseen
        _, discrete, _, load = control_square()
        solver = discrete.tresca
        bad = fem.FrictionBound(lambda x, r: np.where(np.arange(len(r)) == 2, np.nan, 0.05), 0.0)

        def fail(*args):
            raise AssertionError("inner solve ran on a NaN bound")

        monkeypatch.setattr(solver, "_iterate", fail)
        with pytest.raises(qvi.SolverError, match="friction bound .*non-finite"):
            qvi.fixed_point(discrete, solver.reduce(load(0.6)), bad)

    def test_wrong_length_eta0(self):
        mesh, discrete, _, load = control_square()
        g = fem.FrictionBound.constant(0.05)
        with pytest.raises(ValueError, match=f"eta0 must have {mesh.n_nodes} entries"):
            discrete.solve(load(0.6), g, eta0=np.zeros(mesh.n_nodes - 1))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["smooth", "gamma3", "gamma1"])
    def test_non_finite_eta0_rejected(self, where, value):
        # unchecked, a NaN off gamma3 gives a "converged" run with a NaN first
        # increment, and one on gamma3 an error that blames the bound or the
        # inner solve
        mesh, discrete, _, load = control_square()
        T = discrete.tresca.friction
        node = {
            "smooth": np.setdiff1d(mesh.free_nodes, T)[0],
            "gamma3": T[0],
            "gamma1": mesh.node_sets["gamma1"][0],
        }[where]
        eta0 = np.zeros(mesh.n_nodes)
        eta0[node] = value
        g = fem.FrictionBound.constant(0.05)
        with pytest.raises(ValueError, match=f"eta0 must be finite, got .* at node {node}"):
            discrete.solve(load(0.6), g, eta0=eta0)
        problem = qvi.ProblemData(mesh, 1.0, 0.2, None, g)
        state = control.StateSolver(problem, control.ControlPatches(mesh, 1))
        with pytest.raises(ValueError, match=f"eta0 must be finite, got .* at node {node}"):
            state.solve(np.array([0.6]), eta0=eta0)

    def test_reduce_of_a_block_is_its_columns(self):
        mesh, discrete, _, load = control_square()
        solver = discrete.tresca
        F = np.column_stack([load(t) for t in (0.6, -0.2, 0.0)])
        W = solver.reduce(F)
        assert W.shape == (len(mesh.free_nodes), 3)
        for k in range(3):
            assert np.array_equal(W[:, k], solver.reduce(F[:, k]))

    @pytest.mark.parametrize(
        "shape", [lambda n: (n - 1,), lambda n: (n - 1, 2), lambda n: (n, 2, 1), lambda n: ()]
    )
    def test_reduce_refuses_other_shapes(self, shape):
        mesh, discrete, _, _ = control_square()
        with pytest.raises(ValueError, match=f"F must have {mesh.n_nodes} entries"):
            discrete.tresca.reduce(np.zeros(shape(mesh.n_nodes)))

    def test_wrong_length_load_in_discrete_solve(self):
        mesh, discrete, _, load = control_square()
        g = fem.FrictionBound.constant(0.05)
        with pytest.raises(ValueError, match=f"F must have {mesh.n_nodes} entries"):
            discrete.solve(load(0.6)[:-1], g)

    def test_stiffness_block_that_does_not_factor_is_named(self, monkeypatch):
        # a per-element modulus factors its own K_ff by fem.free_factor; a
        # block that does not factor is refused when the problem is built
        mesh = square_mesh(4)
        constants.space_constants(mesh)  # c0 and c3 factor their own blocks

        def fail(mesh, A):
            raise fem.FactorizationError("matrix is not positive definite (pivot 3 of 20)")

        monkeypatch.setattr(fem, "free_factor", fail)
        mu = np.ones(len(mesh.elements))
        prob = qvi.ProblemData(mesh, mu, 1.0, 0.5, fem.FrictionBound.constant(0.05))
        with pytest.raises(qvi.SolverError, match="stiffness block factorization failed: matrix"):
            qvi.DiscreteProblem(prob)


class TestAPrioriBound:
    def test_solution_norm_bounded_by_dual_load(self):
        for mu, f0, g in [(1.0, 3.0, 1.0), (2.0, -3.0, 0.5)]:
            prob = benchmark_problem(mu, f0, g, 64)
            u, rep = qvi.solve_qvi(prob)
            F = fem.assemble_load(prob.mesh, prob.f0, prob.f2)
            mu_star = qvi.DiscreteProblem(prob).mu_star
            lhs = mu_star / rep.c0**2 * fem.v_norm(prob.mesh, u)
            assert lhs <= dual_norm(prob.mesh, F) * (1 + 1e-9)


class TestFourPointEstimate:
    def test_bound_difference_estimate(self):
        mesh = square_mesh(5)
        g = fem.FrictionBound.affine(0.3, 0.6)
        c3 = constants.trace_constant(mesh)
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            e1, e2, v1, v2 = (
                zero_on_gamma1(mesh, rng.standard_normal(mesh.n_nodes)) for _ in range(4)
            )
            lhs = (
                fem.eval_j(mesh, g, e1, v2)
                - fem.eval_j(mesh, g, e1, v1)
                + fem.eval_j(mesh, g, e2, v1)
                - fem.eval_j(mesh, g, e2, v2)
            )
            rhs = (
                g.lipschitz
                * c3**2
                * fem.v_norm(mesh, e1 - e2)
                * fem.v_norm(mesh, v1 - v2)
            )
            assert lhs <= rhs * (1 + 1e-10) + 1e-12


def membership_oracle(mesh, mu, u, theta, *, directions=None, n_random=100, seed=0,
                      basis_scale=1.0):
    """The sampled membership test, one test field v at a time: both signs
    of every scaled nodal basis field around u, v = 0, v = 2u and
    ``n_random`` seeded random fields, or the given ``directions``.
    Returns the rows (residual of the relaxed inequality at v, ||v - u||_V)."""
    K = fem.assemble_stiffness(mesh, mu)
    F = fem.assemble_load(mesh, theta.f0, theta.f2)
    res = F - K @ u
    ju_u = fem.eval_j(mesh, theta.g, u, u)
    norm_u = fem.v_norm(mesh, u)

    def row(v):
        d = v - u
        jv = fem.eval_j(mesh, theta.g, u, v)
        dist = fem.v_norm(mesh, d)
        return float(res @ d) - jv + ju_u - theta.eps * norm_u * dist, dist

    if directions is not None:
        return [row(np.asarray(v, dtype=float)) for v in directions]
    rows = []
    for i in mesh.free_nodes:
        for sign in (1.0, -1.0):
            v = u.copy()
            v[i] += sign * basis_scale
            rows.append(row(v))
    rows += [row(np.zeros(mesh.n_nodes)), row(2.0 * u)]
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        v = zero_on_gamma1(mesh, rng.standard_normal(mesh.n_nodes))
        nv = fem.v_norm(mesh, v)
        if nv > 0.0:
            v *= (1.0 + norm_u) / nv
        rows.append(row(v))
    return rows


def bounded_by(rows, value):
    """True when every sampled row is at most ||v - u||_V times ``value``,
    the certificate's residual per unit distance, plus rounding."""
    return all(r <= dist * value + 1e-12 * (1.0 + dist) for r, dist in rows)


def certificate_case(name):
    """(mesh, mu, u, theta, oracle keyword arguments) of a named certificate case."""
    if name.startswith("1d"):
        prob = benchmark_problem(1.0, 3.0, 1.0, 64)
        u, _ = qvi.solve_qvi(prob)
        eps, kwargs = 0.0, {}
        if name == "1d-eps-scaled":
            eps, kwargs = 1e-3, {"basis_scale": 0.5}
        elif name == "1d-perturbed":
            u = u.copy()
            u[32] += 0.3
        return prob.mesh, prob.mu, u, qvi.TykhonovIndex(eps, prob.f0, prob.f2, prob.g), kwargs
    partition = {"left": "gamma1", "right": "gamma2", "bottom": "gamma3", "top": "gamma3"}
    if name == "2d-no-gamma3":
        partition.update(bottom="gamma2", top="gamma2")
    mesh = fem.build_mesh(fem.MeshSpec(2, (1.5, 0.7), (6, 5), partition))
    mu = np.random.default_rng(RNG_SEED).uniform(0.5, 2.0, len(mesh.elements))
    prob = qvi.ProblemData(mesh, mu, 1.0, 0.5, fem.FrictionBound.affine(0.2, 0.1))
    u, _ = qvi.solve_qvi(prob)
    theta = qvi.TykhonovIndex(1e-4, 1.0, 0.5, prob.g)
    if name == "2d-solution":
        return mesh, mu, u, theta, {}
    # an oscillating error, sampled by small nodal steps and random fields
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    u = u + zero_on_gamma1(mesh, 0.05 * np.sin(9.0 * x) * np.cos(7.0 * y))
    return mesh, mu, u, theta, {"basis_scale": 1e-3, "seed": 253}


CERTIFICATE_CASES = ("1d-solution", "1d-eps-scaled", "1d-perturbed", "2d-solution",
                     "2d-perturbed", "2d-no-gamma3")


def mixed_certificate_case(n=4):
    """(mesh, u, theta): the n x n mixed solution against a load that pushes
    the multipliers of its stick nodes out of the box.  At n = 4 six of
    the eight gamma3 nodes are at zero and the certificate's QP takes two
    active-set iterations."""
    mesh = square_mesh(n)
    g = fem.FrictionBound.affine(0.9992, 0.1007)
    u, _ = qvi.solve_qvi(qvi.ProblemData(mesh, 1.0, 0.9605, 0.5169, g))
    return mesh, u, qvi.TykhonovIndex(1e-3, 0.0, 2.0, g)


def certificate_parts(mesh, mu, u, theta):
    """(z, T, I, c) of the certificate, formed here from a fresh K and F:
    z = r_f - xi with xi on the slip nodes, the gamma3 rows T of the free
    block, the stick positions I on gamma3 and the friction box c."""
    free, g3 = mesh.free_nodes, mesh.node_sets["gamma3"]
    F = fem.assemble_load(mesh, theta.f0, theta.f2)
    z = (F - fem.assemble_stiffness(mesh, mu) @ u)[free]
    T = np.searchsorted(free, g3)
    c = mesh.gamma3_weights[g3] * np.maximum(theta.g(mesh.nodes[g3], np.abs(u[g3])), 0.0)
    z[T] -= np.sign(u[g3]) * c
    return z, T, (u[g3] == 0.0).nonzero()[0], c


def block_distance(mesh, mu, u, theta, factor):
    """The certificate's box QP and distance on ``factor`` = (A_ff, solve,
    Z) of ``fem.free_factor`` and the diagonal diag(A_ff)_T."""
    z, T, I, c = certificate_parts(mesh, mu, u, theta)
    block, solve, Z = factor
    return qvi._dual_distance(z, T, I, c, block.diagonal()[T], solve, Z)


def gram_distance(mesh, mu, u, theta):
    """dist: the exact V*-distance of the residual to the friction
    subdifferential, on a factor of the free Gram block made here."""
    return block_distance(mesh, mu, u, theta, fem.free_factor(mesh, fem.gram_matrix(mesh)))


def stiffness_distance(mesh, mu, u, theta):
    """dist_S: the same box QP and distance on the unit stiffness block."""
    return block_distance(mesh, mu, u, theta, fem.free_block(mesh))


def exact_membership_violation(mesh, mu, u, theta):
    """The exact certificate max(0, dist - eps ||u||_V), on the Gram factor."""
    dist = gram_distance(mesh, mu, u, theta)
    return max(dist - theta.eps * fem.v_norm(mesh, u), 0.0) if theta.eps else dist


def bound_case(name):
    """(mesh, mu, u, theta): a solution and the index of its own data, on
    gamma3 nodes that stick ("1d-stick", "2d-mixed") or all slip."""
    if name.startswith("1d"):
        prob = benchmark_problem(1.0, 1.0 if name == "1d-stick" else 3.0, 1.0, 32)
    elif name == "2d-mixed":
        g = fem.FrictionBound.affine(0.9992, 0.1007)
        prob = qvi.ProblemData(square_mesh(8), 1.0, 0.9605, 0.5169, g)
    else:  # "2d-per-element": a per-element modulus, every gamma3 node slips
        mesh = fem.build_mesh(fem.MeshSpec(
            2, (1.5, 0.7), (6, 5),
            {"left": "gamma1", "right": "gamma2", "bottom": "gamma3", "top": "gamma3"},
        ))
        mu = np.random.default_rng(RNG_SEED).uniform(0.5, 2.0, len(mesh.elements))
        prob = qvi.ProblemData(mesh, mu, 1.0, 0.5, fem.FrictionBound.affine(0.2, 0.1))
    u, _ = qvi.solve_qvi(prob)
    return prob.mesh, prob.mu, u, qvi.TykhonovIndex(0.0, prob.f0, prob.f2, prob.g)


BOUND_CASES = ("1d-stick", "1d-slip", "2d-mixed", "2d-per-element")


class TestMembershipOracle:
    """The exact certificate against the sampled test of ``membership_oracle``."""

    @pytest.mark.parametrize("n_random", [0, 1, 17, 100])
    @pytest.mark.parametrize("name", CERTIFICATE_CASES)
    def test_agrees_with_loop_oracle(self, name, n_random):
        mesh, mu, u, theta, kwargs = certificate_case(name)
        got = qvi.membership_violation(mesh, mu, u, theta)
        assert type(got) is float
        assert bounded_by(membership_oracle(mesh, mu, u, theta, n_random=n_random, **kwargs), got)
        if name.endswith("perturbed"):
            assert got > 1e-3

    @pytest.mark.parametrize("name", CERTIFICATE_CASES)
    def test_directions_agree_with_loop_oracle(self, name):
        mesh, mu, u, theta, _ = certificate_case(name)
        noise = zero_on_gamma1(mesh, np.random.default_rng(RNG_SEED).standard_normal(mesh.n_nodes))
        dirs = [np.zeros(mesh.n_nodes), 2 * u, 0.5 * u, u + noise, u + 1e-6 * noise]
        got = qvi.membership_violation(mesh, mu, u, theta)
        assert bounded_by(membership_oracle(mesh, mu, u, theta, directions=dirs), got)

    def test_equals_brute_force_distance(self):
        # every split of the stick nodes into -c, +c and free; the free
        # values minimize z'G^-1 z with the others fixed, and the least
        # value of a split inside the box is the distance
        mesh, u, theta = mixed_certificate_case()
        got = qvi.membership_violation(mesh, 1.0, u, theta)
        free, g3 = mesh.free_nodes, mesh.node_sets["gamma3"]
        G_inv = np.linalg.inv(fem.gram_matrix(mesh).toarray()[np.ix_(free, free)])
        F = fem.assemble_load(mesh, theta.f0, theta.f2)
        r = (F - fem.assemble_stiffness(mesh, 1.0) @ u)[free]
        T = np.searchsorted(free, g3)
        c = mesh.gamma3_weights[g3] * theta.g(mesh.nodes[g3], np.abs(u[g3]))
        r[T] -= np.sign(u[g3]) * c
        stick = T[u[g3] == 0.0]
        c_stick = c[u[g3] == 0.0]
        best, best_z = np.inf, None
        for split in itertools.product((-1.0, 0.0, 1.0), repeat=len(stick)):
            xi = c_stick * np.array(split)
            J = np.flatnonzero(np.array(split) == 0.0)
            z = r.copy()
            z[stick] -= xi
            if len(J):
                xi[J] = np.linalg.solve(G_inv[np.ix_(stick[J], stick[J])], (G_inv @ z)[stick[J]])
                z[stick[J]] -= xi[J]
            if np.all(np.abs(xi) <= c_stick) and z @ G_inv @ z < best:
                best, best_z = z @ G_inv @ z, z
        norm_u = fem.v_norm(mesh, u)
        expected = np.sqrt(best) - theta.eps * norm_u
        assert len(stick) == 6 and expected > 0.1
        assert abs(got - expected) <= 1e-12 * (1.0 + expected)
        # and a test field attains it: a small step along the Riesz
        # representer of the closest z
        d = np.zeros(mesh.n_nodes)
        d[free] = 1e-6 * (G_inv @ best_z)
        [(residual, dist)] = membership_oracle(mesh, 1.0, u, theta, directions=[u + d])
        assert abs(residual / dist - got) <= 1e-6 * got

    def test_load_perturb_sequence_has_no_rounding_floor(self):
        # a benchmark load_perturb sweep: expanded as r'y - 2 xi'b + xi'Z xi,
        # the squared distance cancels to a floor of sqrt(ulp) and one of
        # these 32 certificates read 1.05e-8 (over the 1e-8 gate)
        prob = benchmark_problem(1.0797, 1.0208, 0.9523, 1024)
        sched = tykhonov.Schedule(kind="load_perturb", length=32)
        report = tykhonov.run_convergence(prob, sched, seed=1)
        assert 0.0 <= report.max_violation <= 1e-10

    def test_qp_iteration_cap_raises(self, monkeypatch):
        mesh, u, theta = mixed_certificate_case()
        monkeypatch.setattr(qvi, "MAX_ACTIVE_SET", 1)
        with pytest.raises(qvi.SolverError, match="membership certificate missed .* within 1 "):
            qvi.membership_violation(mesh, 1.0, u, theta)


class TestStiffnessBound:
    """The certificate bounds dist by dist_S on the unit stiffness factor
    and falls back to the exact value on the Gram factor only when the
    bound does not certify."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", BOUND_CASES)
    def test_bound_against_the_exact_value(self, name, seed):
        mesh, mu, u, theta0 = bound_case(name)
        g3 = mesh.node_sets["gamma3"]
        c0, _ = constants.space_constants(mesh)
        rng = np.random.default_rng(seed)
        stick = g3[u[g3] == 0.0]
        assert (len(stick) > 0) == (name in ("1d-stick", "2d-mixed"))
        verdicts = set()
        for scale in (0.0, 1e-10, 1e-9, 1e-6, 1e-2):
            noise = zero_on_gamma1(mesh, rng.standard_normal(mesh.n_nodes))
            noise[stick] = 0.0  # the stick set stays
            v = u + scale * noise
            dist = gram_distance(mesh, mu, v, theta0)
            dist_s = stiffness_distance(mesh, mu, v, theta0)
            # ||z||_V* <= sqrt(z'S_ff^-1 z) <= c0 ||z||_V*, and so for the least values
            assert dist <= dist_s + 1e-12 and dist_s <= c0 * dist + 1e-12
            norm_v = fem.v_norm(mesh, v)
            # eps = 0, eps below the gap, eps between dist and dist_S, eps above both
            for relaxation in (0.0, 0.5 * dist, 0.5 * (dist + dist_s), 1.0001 * dist_s):
                theta = replace(theta0, eps=relaxation / norm_v)
                value = qvi.membership_violation(mesh, mu, v, theta)
                exact = exact_membership_violation(mesh, mu, v, theta)
                assert (value <= qvi.CERT_TOL) == (exact <= qvi.CERT_TOL)
                verdicts.add(value <= qvi.CERT_TOL)
                if value > qvi.CERT_TOL:
                    assert value == exact  # bitwise the exact certificate
                else:
                    assert exact <= value + 1e-12
                if relaxation == 0.0:
                    assert value <= c0 * exact + 1e-12
        assert verdicts == {True, False}

    def test_bound_that_does_not_certify_falls_back(self, monkeypatch):
        # eps between dist and dist_S: the bound reads about 0.03, the exact
        # value 0, and the one Gram factor of the call gives it
        mesh, u, theta = mixed_certificate_case(8)
        theta = replace(theta, eps=0.0)
        dist = gram_distance(mesh, 1.0, u, theta)
        dist_s = stiffness_distance(mesh, 1.0, u, theta)
        assert dist_s - dist > 0.01
        theta = replace(theta, eps=0.5 * (dist + dist_s) / fem.v_norm(mesh, u))
        factored = counting_free_factors(monkeypatch)
        assert qvi.membership_violation(mesh, 1.0, u, theta) == 0.0
        assert len(factored) == 1 and factored[0] is fem.gram_matrix(mesh)

    @pytest.mark.parametrize("mu", [1.0, 0.8])
    def test_member_makes_no_gram_factor_beyond_c3(self, mu, monkeypatch):
        factored = counting_free_factors(monkeypatch)
        mesh = square_mesh(8)
        prob = qvi.ProblemData(mesh, mu, 0.9605, 0.5169, fem.FrictionBound.affine(0.9992, 0.1007))
        u, _ = qvi.solve_qvi(prob)
        assert (u[mesh.node_sets["gamma3"]] == 0.0).any()
        theta = qvi.TykhonovIndex(0.0, prob.f0, prob.f2, prob.g)
        assert qvi.membership_violation(mesh, mu, u, theta) <= qvi.CERT_TOL
        gram = fem.gram_matrix(mesh)
        assert sum(A is gram for A in factored) == 1  # c3's


def counting_free_factors(monkeypatch):
    """List that gains the matrix of every ``fem.free_factor`` call."""
    factored = []
    free_factor = fem.free_factor
    monkeypatch.setattr(
        fem, "free_factor", lambda mesh, A: factored.append(A) or free_factor(mesh, A)
    )
    return factored


class TestMembership:
    # perfbench/workloads.py passes a seed per op; none changes the value
    @pytest.mark.parametrize("seed", [1, 3, 9])
    def test_seed_is_not_used(self, seed):
        mesh, mu, u, theta, _ = certificate_case("2d-perturbed")
        value = qvi.membership_violation(mesh, mu, u, theta, seed=seed)
        assert value == qvi.membership_violation(mesh, mu, u, theta)

    @pytest.mark.parametrize("node, value", [(3, np.nan), (16, np.inf), (16, -np.inf)])
    def test_non_finite_u_refused_before_any_solve(self, node, value, monkeypatch):
        # a stick interval: unchecked, a NaN at node 3 ran every box-QP
        # iteration and an inf at the gamma3 node 16 gave NaN
        prob = benchmark_problem(1.0, 1.0, 1.0, 16)
        u, _ = qvi.solve_qvi(prob)
        assert u[16] == 0.0
        u[node] = value
        theta = qvi.TykhonovIndex(0.0, prob.f0, prob.f2, prob.g)
        monkeypatch.setattr(qvi, "_box_qp", lambda *a: pytest.fail("ran the box QP"))
        monkeypatch.setattr(fem, "free_factor", lambda *a: pytest.fail("factored the block"))
        with pytest.raises(ValueError, match=f"u must be finite, got {value} at node {node}$"):
            qvi.membership_violation(prob.mesh, prob.mu, u, theta)

    def test_stick_certificate_factors_the_stick_block_once(self, monkeypatch):
        # the stick node's multiplier lies in its box: the QP's start is its answer
        prob = benchmark_problem(1.0, 1.0, 1.0, 16)
        u, _ = qvi.solve_qvi(prob)
        assert u[16] == 0.0
        theta = qvi.TykhonovIndex(0.0, prob.f0, prob.f2, prob.g)
        factored = []
        dgetrf = qvi.dgetrf
        monkeypatch.setattr(qvi, "dgetrf", lambda a: factored.append(a.shape) or dgetrf(a))
        assert qvi.membership_violation(prob.mesh, prob.mu, u, theta) <= qvi.CERT_TOL
        assert factored == [(1, 1)]

    @pytest.mark.parametrize("name, shape", [("u", (16,)), ("u", (17, 1)), ("load", (18,))])
    def test_wrong_shape_refused(self, name, shape):
        prob = benchmark_problem(1.0, 3.0, 1.0, 16)
        u, _ = qvi.solve_qvi(prob)
        theta = qvi.TykhonovIndex(0.0, prob.f0, prob.f2, prob.g)
        args = {"u": u, "load": None, name: np.zeros(shape)}
        with pytest.raises(ValueError, match=rf"{name} must have shape \(17,\), got"):
            qvi.membership_violation(prob.mesh, prob.mu, args["u"], theta, load=args["load"])

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_passed_load_gives_the_same_value(self, eps, monkeypatch):
        mesh, mu, u, theta, _ = certificate_case("2d-perturbed")
        theta = qvi.TykhonovIndex(eps, theta.f0, theta.f2, theta.g)
        value = qvi.membership_violation(mesh, mu, u, theta)
        F = fem.assemble_load(mesh, theta.f0, theta.f2)
        monkeypatch.setattr(fem, "assemble_load", lambda *a: pytest.fail("assembled a load"))
        assert value > 1e-3
        assert qvi.membership_violation(mesh, mu, u, theta, load=F) == value

    def test_zero_eps_takes_no_norm_of_u(self, monkeypatch):
        mesh, mu, u, theta, _ = certificate_case("2d-perturbed")
        theta = qvi.TykhonovIndex(0.0, theta.f0, theta.f2, theta.g)
        value = qvi.membership_violation(mesh, mu, u, theta)
        monkeypatch.setattr(fem, "v_norm", lambda *a: pytest.fail("took ||u||_V"))
        assert qvi.membership_violation(mesh, mu, u, theta) == value

    def test_solution_certifies(self):
        prob = benchmark_problem(1.0, 3.0, 1.0, 64)
        u, _ = qvi.solve_qvi(prob)
        theta = qvi.TykhonovIndex(0.0, prob.f0, prob.f2, prob.g)
        v = qvi.membership_violation(prob.mesh, prob.mu, u, theta, seed=0)
        assert v <= 1e-8

    def test_perturbed_solution_fails(self):
        prob = benchmark_problem(1.0, 3.0, 1.0, 64)
        u, _ = qvi.solve_qvi(prob)
        bad = u.copy()
        bad[32] += 0.3
        theta = qvi.TykhonovIndex(0.0, prob.f0, prob.f2, prob.g)
        assert qvi.membership_violation(prob.mesh, prob.mu, bad, theta, seed=0) > 1e-3

    def test_relaxation_absorbs_load_error(self):
        # u solves the unperturbed problem; with the load shifted by delta
        # it only joins the approximating set once eps covers the gap
        prob = benchmark_problem(1.0, 3.0, 1.0, 64)
        u, _ = qvi.solve_qvi(prob)
        delta = 0.01
        tight = qvi.TykhonovIndex(0.0, prob.f0 + delta, prob.f2, prob.g)
        assert qvi.membership_violation(prob.mesh, prob.mu, u, tight, seed=0) > 1e-8
        F = fem.assemble_load(prob.mesh, prob.f0)
        F_shift = fem.assemble_load(prob.mesh, prob.f0 + delta)
        gap = dual_norm(prob.mesh, F_shift - F) / fem.v_norm(prob.mesh, u)
        relaxed = qvi.TykhonovIndex(gap * 1.0001, prob.f0 + delta, prob.f2, prob.g)
        assert qvi.membership_violation(prob.mesh, prob.mu, u, relaxed, seed=0) <= 1e-8

    def test_stick_solution_certifies_to_rounding(self):
        # the end node sticks, so its multiplier is a one-node box QP
        prob = benchmark_problem(1.0, 1.0, 1.0, 16)
        u, _ = qvi.solve_qvi(prob)
        assert u[-1] == 0.0
        theta = qvi.TykhonovIndex(0.0, prob.f0, prob.f2, prob.g)
        assert qvi.membership_violation(prob.mesh, prob.mu, u, theta) <= 1e-12

    def test_no_free_node_certifies(self):
        spec = fem.MeshSpec(1, (1.0,), (1,), {"left": "gamma1", "right": "gamma1"})
        mesh = fem.build_mesh(spec)
        theta = qvi.TykhonovIndex(0.0, 1.0, 0.0, fem.FrictionBound.constant(1.0))
        assert qvi.membership_violation(mesh, 1.0, np.zeros(2), theta) == 0.0

    @pytest.mark.parametrize("eps", [-1e-3, float("nan"), float("inf")])
    def test_index_rejects_bad_eps(self, eps):
        g = fem.FrictionBound.constant(1.0)
        with pytest.raises(ValueError, match="eps must be nonnegative"):
            qvi.TykhonovIndex(eps, 1.0, 0.0, g)

    def test_deterministic(self):
        prob = benchmark_problem(1.0, 3.0, 1.0, 32)
        u, _ = qvi.solve_qvi(prob)
        theta = qvi.TykhonovIndex(1e-3, prob.f0, prob.f2, prob.g)
        a = qvi.membership_violation(prob.mesh, prob.mu, u, theta, seed=9)
        b = qvi.membership_violation(prob.mesh, prob.mu, u, theta, seed=9)
        assert a == b


class TestComplementarity:
    @pytest.mark.parametrize(
        "mu,f0,g", [(1.0, 1.0, 1.0), (1.0, 3.0, 1.0), (2.0, -3.0, 0.5), (1.0, 2.0, 1.0)]
    )
    def test_friction_law_residuals(self, mu, f0, g):
        prob = benchmark_problem(mu, f0, g, 128)
        u, _ = qvi.solve_qvi(prob)
        idx, lam, G, stick_slack, comp = qvi.complementarity_report(prob, u)
        assert np.all(stick_slack <= 1e-8)
        assert np.all(comp <= 1e-8)

    def test_slip_traction_sign(self):
        # positive slip drags the traction to the negative bound
        prob = benchmark_problem(1.0, 3.0, 1.0, 64)
        u, _ = qvi.solve_qvi(prob)
        idx, lam, G, _, _ = qvi.complementarity_report(prob, u)
        assert u[idx][0] > 0.0
        assert np.isclose(lam[0], -G[0], atol=1e-9)

    def test_square_case(self):
        mesh = square_mesh(6)
        prob = qvi.ProblemData(mesh, 1.0, 1.0, 0.5, fem.FrictionBound.affine(0.2, 0.2))
        u, _ = qvi.solve_qvi(prob)
        idx, lam, G, stick_slack, comp = qvi.complementarity_report(prob, u)
        assert np.all(stick_slack <= 1e-8)
        assert np.all(comp <= 1e-8)

    def test_takes_the_solved_load(self, monkeypatch):
        mesh = square_mesh(6)
        prob = qvi.ProblemData(mesh, 1.0, 1.0, 0.5, fem.FrictionBound.affine(0.2, 0.2))
        F = fem.assemble_load(mesh, prob.f0, prob.f2)
        u, _ = qvi.DiscreteProblem(prob).solve(F, prob.g)
        own = qvi.complementarity_report(prob, u)
        monkeypatch.setattr(fem, "assemble_load", None)  # a call would fail
        given = qvi.complementarity_report(prob, u, load=F)
        assert all(np.array_equal(a, b) for a, b in zip(own, given))
        with pytest.raises(ValueError, match=r"load must have shape \(49,\), got \(48,\)"):
            qvi.complementarity_report(prob, u, load=F[:-1])


class TestSharedFreeFactor:
    """The free-T solver of a scalar mu factors nothing of its own, and its
    stick solves hold no array of |smooth| x |gamma3| entries."""

    @staticmethod
    def recording_factor(monkeypatch):
        """(factored shapes, right-hand-side and result sizes) of every
        ``fem.spd_factor`` made while patched and of its solves."""
        factored, sizes = [], []
        factor = fem.spd_factor

        def recording(matrix, layout):
            factored.append(matrix.shape)
            solve, Z = factor(matrix, layout)

            def recorded(b):
                x = solve(b)
                sizes.extend([np.size(b), np.size(x)])
                return x

            return recorded, Z

        monkeypatch.setattr(fem, "spd_factor", recording)
        return factored, sizes

    @pytest.mark.parametrize("mu", [1.0, 0.8])
    def test_certified_solve_factors_twice(self, mu, monkeypatch):
        factored, _ = self.recording_factor(monkeypatch)
        mesh = square_mesh(8)
        prob = qvi.ProblemData(mesh, mu, 1.0, 0.5, fem.FrictionBound.affine(0.2, 0.2))
        u, _ = qvi.solve_qvi(prob)
        qvi.complementarity_report(prob, u)
        theta = qvi.TykhonovIndex(0.0, prob.f0, prob.f2, prob.g)
        assert qvi.membership_violation(mesh, mu, u, theta, seed=3) <= 1e-8
        # the Gram block of c3, then S_ff, shared by c0, the Tresca solver
        # and the certificate of a member
        n_free = len(mesh.free_nodes)
        assert factored == [(n_free, n_free)] * 2
        # c3 keeps no factor: the mesh's cache holds S_ff's alone
        cache = fem._FORM_CACHE[mesh]
        assert sum(isinstance(entry, tuple) and len(entry) == 3 for entry in cache.values()) == 1

    @pytest.mark.parametrize("mu", [1.0, 0.8])
    def test_certified_solve_cuts_the_stiffness_block_once(self, mu, monkeypatch):
        cut = []
        submatrix = fem.submatrix
        monkeypatch.setattr(fem, "submatrix", lambda A, r, c: cut.append(A) or submatrix(A, r, c))
        mesh = square_mesh(8)
        prob = qvi.ProblemData(mesh, mu, 1.0, 0.5, fem.FrictionBound.affine(0.2, 0.2))
        u, _ = qvi.solve_qvi(prob)
        qvi.complementarity_report(prob, u)
        theta = qvi.TykhonovIndex(0.0, prob.f0, prob.f2, prob.g)
        assert qvi.membership_violation(mesh, mu, u, theta, seed=3) <= 1e-8
        # S_ff is cut once, for the factor that c0 and the Tresca solver share
        unit = fem.stiffness_matrix(mesh, 1.0)
        assert sum(A is unit for A in cut) == 1

    def test_no_smooth_by_gamma3_array(self, monkeypatch):
        _, sizes = self.recording_factor(monkeypatch)
        mesh = square_mesh(32)
        g = fem.FrictionBound.affine(0.9992, 0.1007)
        discrete = qvi.DiscreteProblem(qvi.ProblemData(mesh, 1.0, 0.9605, 0.5169, g))
        solver = discrete.tresca
        u, _ = discrete.solve(fem.assemble_load(mesh, 0.9605, 0.5169), g)
        stuck = int(np.sum(u[solver.friction] == 0.0))
        assert stuck > len(solver.friction) // 2
        limit = (len(mesh.free_nodes) - len(solver.friction)) * len(solver.friction)
        held = [v for v in vars(solver).values() if isinstance(v, np.ndarray)]
        assert max(sizes) < limit
        assert max(a.size for a in held) < limit


def counting_gradient_forms(monkeypatch):
    """The modulus of every gradient-form assembly (``fem._assemble_gradient_form``),
    the unit stiffness of the norms and constants included."""
    assembled = []
    assemble = fem._assemble_gradient_form

    def counting(mesh, coef_e):
        assembled.append(float(coef_e[0]))
        return assemble(mesh, coef_e)

    monkeypatch.setattr(fem, "_assemble_gradient_form", counting)
    return assembled


class TestCertifiedSolveAssembly:
    """solve_qvi, complementarity_report and membership_violation of one
    problem share the mesh's cached stiffness matrix."""

    @pytest.mark.parametrize("mu", [1.0, 0.8])
    def test_one_stiffness_assembly(self, mu, monkeypatch):
        assembled = counting_gradient_forms(monkeypatch)
        mesh = square_mesh(6)
        prob = qvi.ProblemData(mesh, mu, 1.0, 0.5, fem.FrictionBound.affine(0.2, 0.2))
        u, _ = qvi.solve_qvi(prob)
        kkt = qvi.complementarity_report(prob, u)
        theta = qvi.TykhonovIndex(0.0, prob.f0, prob.f2, prob.g)
        violation = qvi.membership_violation(mesh, mu, u, theta, seed=3)
        # the unit stiffness of c0, the V-norm and the solver, and K when mu
        # is not 1, which the solve does not read
        assert assembled == ([mu] if mu == 1.0 else [1.0, mu])
        # the same values as a certificate handed a freshly assembled K
        K = fem.assemble_stiffness(mesh, mu)
        fresh = qvi.membership_violation(mesh, mu, u, theta, seed=3, stiffness=K)
        assert violation == fresh <= 1e-8
        assert np.max(kkt[3]) <= 1e-8

    def test_scalar_modulus_assembles_on_first_read(self, monkeypatch):
        mesh = square_mesh(6)
        prob = qvi.ProblemData(mesh, 1.0, 1.0, 0.5, fem.FrictionBound.affine(0.2, 0.2))
        qvi.DiscreteProblem(prob)  # the mesh's unit stiffness, constants and index
        assembled = counting_gradient_forms(monkeypatch)
        discrete = qvi.DiscreteProblem(prob.with_data(mu=1.37, mu_star=None))
        u, _ = discrete.solve(fem.assemble_load(mesh, 1.0, 0.5), prob.g)
        assert assembled == []
        K = discrete.K
        assert assembled == [1.37] and discrete.K is K is fem.stiffness_matrix(mesh, 1.37)
        assert np.array_equal(u, qvi.solve_qvi(prob.with_data(mu=1.37, mu_star=None))[0])

    @pytest.mark.parametrize("kind", ["scalar", "per-element", "callable"])
    def test_modulus_sampled_once(self, kind, monkeypatch):
        mesh = square_mesh(6)
        evaluated = []
        mu = {
            "scalar": 1.37,
            "per-element": np.linspace(0.9, 1.3, len(mesh.elements)),
            "callable": lambda x: evaluated.append(1) or 1.0 + 0.4 * x[:, 0],
        }[kind]
        g = fem.FrictionBound.affine(0.2, 0.2)
        qvi.DiscreteProblem(qvi.ProblemData(mesh, 1.0, 1.0, 0.5, g))  # the mesh's caches
        calls = []  # (data, values) of each fem.element_values call
        element_values = fem.element_values

        def recording(mesh, data):
            calls.append((data, element_values(mesh, data)))
            return calls[-1][1]

        monkeypatch.setattr(fem, "element_values", recording)
        discrete = qvi.DiscreteProblem(qvi.ProblemData(mesh, mu, 1.0, 0.5, g))
        # mu is sampled once; the K of a per-element or callable mu is
        # assembled from those values, and mu_star is their least
        assert calls[0][0] is mu and len(evaluated) == (kind == "callable")
        assert len(calls) == (1 if kind == "scalar" else 2)
        assert all(data is calls[0][1] for data, _ in calls[1:])
        monkeypatch.undo()
        assert discrete.mu_star == float(fem.element_values(mesh, mu).min())
        K = fem.assemble_stiffness(mesh, mu)
        for a, b in ((discrete.K.data, K.data), (discrete.K.indices, K.indices)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize(
        "mu, mu_star, match",
        [
            (np.nan, None, "must be finite, sampled value nan"),
            (-1.0, None, "must be positive, min sampled value -1.0"),
            (0.5, 0.6, "drops to 0.5, below the floor 0.6"),
        ],
    )
    def test_scalar_modulus_refused_at_construction(self, mu, mu_star, match, monkeypatch):
        mesh = square_mesh(4)
        prob = qvi.ProblemData(mesh, mu, 1.0, 0.5, fem.FrictionBound.affine(0.2, 0.2), mu_star)
        monkeypatch.setattr(constants, "space_constants", lambda m: pytest.fail("constants"))
        with pytest.raises(ValueError, match=match):
            qvi.DiscreteProblem(prob)

    @pytest.mark.parametrize(
        "mesh, f2", [(square_mesh, 0.5), (interval_mesh, None)], ids=["2d", "1d"]
    )
    def test_discrete_problem_holds_no_load(self, mesh, f2, monkeypatch):
        assembled = []
        assemble_load = fem.assemble_load
        monkeypatch.setattr(
            fem, "assemble_load", lambda *a, **kw: assembled.append(1) or assemble_load(*a, **kw)
        )
        prob = qvi.ProblemData(mesh(6), 1.0, 1.0, f2, fem.FrictionBound.affine(0.2, 0.2))
        discrete = qvi.DiscreteProblem(prob)
        assert assembled == [] and not hasattr(discrete, "F")
        # a certified solve's own load: one assembly, bitwise the caller's
        u, _ = qvi.solve_qvi(prob)
        assert assembled == [1]
        F = assemble_load(prob.mesh, prob.f0, prob.f2)
        assert np.array_equal(u, discrete.solve(F, prob.g)[0])
