"""Discrete Poincare and trace constants, smallness margin."""

from __future__ import annotations

import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from antiplane import constants, fem, qvi
from space_helpers import gamma3_norm, grad_seminorm, zero_on_gamma1

RNG_SEED = 777

# continuum references on the unit interval with the left end clamped:
# -v'' = lam v, v(0)=0, v'(1)=0 has smallest eigenvalue (pi/2)^2, and
# maximizing v(1)^2 against the full H1 norm gives tanh(1)
C0_INTERVAL = float(np.sqrt(1.0 + 4.0 / np.pi**2))
C3_INTERVAL = float(np.sqrt(np.tanh(1.0)))


def interval_mesh(n):
    spec = fem.MeshSpec(1, (1.0,), (n,), {"left": "gamma1", "right": "gamma3"})
    return fem.build_mesh(spec)


def square_mesh(n):
    spec = fem.MeshSpec(
        2, (1.0, 1.0), (n, n),
        {"left": "gamma1", "right": "gamma2", "bottom": "gamma3", "top": "gamma3"},
    )
    return fem.build_mesh(spec)


class TestPoincare:
    def test_interval_matches_continuum(self):
        mesh = interval_mesh(512)
        c0 = constants.poincare_constant(mesh, seed=0)
        assert abs(c0 - C0_INTERVAL) / C0_INTERVAL < 1e-5

    def test_at_least_one(self):
        for mesh in (interval_mesh(16), square_mesh(5)):
            assert constants.poincare_constant(mesh, seed=0) >= 1.0

    def test_monotone_under_refinement(self):
        # nested spaces: the discrete best constant grows toward the limit
        values = [constants.poincare_constant(interval_mesh(n), seed=0) for n in (8, 16, 32, 64)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] <= C0_INTERVAL + 1e-12

    def test_inequality_on_random_fields(self):
        mesh = square_mesh(6)
        c0 = constants.poincare_constant(mesh, seed=0)
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(100):
            v = zero_on_gamma1(mesh, rng.standard_normal(mesh.n_nodes))
            assert fem.v_norm(mesh, v) <= c0 * grad_seminorm(mesh, v) * (1 + 1e-12)

    def test_deterministic(self):
        mesh = interval_mesh(32)
        a = constants.poincare_constant(mesh, seed=3)
        b = constants.poincare_constant(mesh, seed=3)
        assert a == b

    def test_iteration_cap(self):
        with pytest.raises(constants.ConvergenceError, match="missed tolerance"):
            constants.poincare_constant(interval_mesh(64), maxiter=1, seed=0)

    @pytest.mark.parametrize("dim, n", [(2, 4), (2, 8), (2, 16), (1, 16), (1, 64)])
    def test_matches_dense_eigensolver(self, dim, n, monkeypatch):
        mesh = square_mesh(n) if dim == 2 else interval_mesh(n)
        free = mesh.free_nodes
        S = fem.stiffness_matrix(mesh, 1.0)[free][:, free].toarray()
        A = fem.gram_matrix(mesh)[free][:, free].toarray()
        c0_ref = np.sqrt(scipy.linalg.eigh(A, S, eigvals_only=True)[-1])

        solves = []
        factor = fem.spd_factor

        def counting(matrix, last=(), layout=None):
            solve, Z = factor(matrix, last, layout)
            return (lambda b: solves.append(1) or solve(b)), Z

        monkeypatch.setattr(fem, "spd_factor", counting)
        c0 = constants.poincare_constant(mesh, seed=0)
        assert abs(c0 - c0_ref) <= 1e-12 * c0_ref
        # the mass-against-gradient iteration, not the slower H1-against-gradient one
        assert len(solves) <= 12


class CountingOperator:
    """A matrix whose products with vectors are counted."""

    def __init__(self, A):
        self.A, self.products = A, 0

    def __matmul__(self, v):
        self.products += 1
        return self.A @ v


def two_product_power_iteration(solve, B, A, v0, tol, maxiter):
    """The power iteration that forms B v twice per iteration: for the
    next iterate and again for the Rayleigh quotient."""
    v = v0 / np.linalg.norm(v0)
    lam = float((v @ (B @ v)) / (v @ (A @ v)))
    for _ in range(maxiter):
        v = solve(B @ v)
        v /= np.linalg.norm(v)
        lam_new = float((v @ (B @ v)) / (v @ (A @ v)))
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return lam_new
        lam = lam_new
    raise AssertionError("reference power iteration missed its tolerance")


class TestPowerIteration:
    def test_one_product_per_iteration(self):
        mesh = square_mesh(6)
        free = mesh.free_nodes
        S = fem.free_block(mesh)[0]
        M = CountingOperator(fem.submatrix(fem.mass_matrix(mesh), free, free))
        factor, solves = fem.spd_factor(S)[0], []
        v0 = np.random.default_rng(RNG_SEED).standard_normal(len(free))
        constants._power_iteration(
            lambda b: solves.append(1) or factor(b), M, S, v0, 1e-10, 100
        )
        # one product per iteration plus the first Rayleigh quotient
        assert len(solves) >= 5
        assert M.products == len(solves) + 1

    @pytest.mark.parametrize("dim, n", [(2, 4), (2, 12), (1, 16)])
    def test_constants_bitwise_equal_to_two_product_loop(self, dim, n, monkeypatch):
        mesh = square_mesh(n) if dim == 2 else interval_mesh(n)
        c0 = constants.poincare_constant(mesh, seed=0)
        c3 = constants.trace_constant(mesh)
        monkeypatch.setattr(constants, "_power_iteration", two_product_power_iteration)
        assert constants.poincare_constant(mesh, seed=0) == c0
        assert constants.trace_constant(mesh) == c3


class TestTrace:
    def test_interval_matches_continuum(self):
        mesh = interval_mesh(512)
        c3 = constants.trace_constant(mesh)
        assert abs(c3 - C3_INTERVAL) / C3_INTERVAL < 1e-5

    def test_empty_gamma3_gives_zero(self):
        spec = fem.MeshSpec(1, (1.0,), (8,), {"left": "gamma1", "right": "gamma2"})
        mesh = fem.build_mesh(spec)
        assert constants.trace_constant(mesh) == 0.0

    def test_inequality_on_random_fields(self):
        mesh = square_mesh(6)
        c3 = constants.trace_constant(mesh)
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(100):
            v = zero_on_gamma1(mesh, rng.standard_normal(mesh.n_nodes))
            assert gamma3_norm(mesh, v) <= c3 * fem.v_norm(mesh, v) * (1 + 1e-12)

    @pytest.mark.parametrize("dim, n", [(2, 4), (2, 12), (2, 24), (1, 16)])
    def test_matches_dense_eigensolver(self, dim, n):
        mesh = square_mesh(n) if dim == 2 else interval_mesh(n)
        free = mesh.free_nodes
        G = fem.gram_matrix(mesh)[free][:, free].toarray()
        on_gamma3 = np.isin(free, mesh.node_sets["gamma3"])
        B = np.diag(np.where(on_gamma3, mesh.gamma3_weights[free], 0.0))
        c3_ref = np.sqrt(scipy.linalg.eigh(B, G, eigvals_only=True)[-1])
        assert abs(constants.trace_constant(mesh) - c3_ref) <= 1e-13 * c3_ref

    def test_keeps_no_gram_factor(self, monkeypatch):
        made, dpbtrf = [], fem.dpbtrf

        def recording(ab, **kw):
            chol, info = dpbtrf(ab, **kw)
            made.append(weakref.ref(chol))
            return chol, info

        monkeypatch.setattr(fem, "dpbtrf", recording)
        mesh = square_mesh(6)
        constants.space_constants(mesh)
        # the Gram band of c3 is gone; the unit stiffness band of c0 is cached
        assert len(made) == 2 and made[0]() is None and made[1]() is not None
        n = len(mesh.free_nodes)
        blocks = [
            entry[0]
            for entry in fem._FORM_CACHE[mesh].values()
            if isinstance(entry, tuple) and sp.issparse(entry[0]) and entry[0].shape == (n, n)
        ]
        assert len(blocks) == 1 and blocks[0] is fem.free_block(mesh)[0]
        assert len(made) == 2


class TestSmallness:
    def test_zero_rate_is_contractive(self):
        k, ok = constants.smallness_margin(0.0, 1.3, 0.9, 1.0)
        assert k == 0.0 and ok

    def test_interval_margin_values(self):
        mesh = interval_mesh(512)
        c0 = constants.poincare_constant(mesh, seed=0)
        c3 = constants.trace_constant(mesh)
        k9, ok9 = constants.smallness_margin(0.9, c0, c3, 1.0)
        # continuum product c0^2 c3^2 = (1 + 4/pi^2) tanh(1) ~ 1.07026
        assert abs(k9 - 0.9 * (1.0 + 4.0 / np.pi**2) * np.tanh(1.0)) < 1e-4
        assert ok9
        k1, ok1 = constants.smallness_margin(1.0, c0, c3, 1.0)
        assert k1 > 1.0 and not ok1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            constants.smallness_margin(0.5, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            constants.smallness_margin(-0.5, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="lipschitz must be nonnegative, got nan"):
            constants.smallness_margin(np.nan, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="mu_star must be positive, got nan"):
            constants.smallness_margin(1.0, 1.0, 1.0, np.nan)

    @pytest.mark.parametrize(
        "lipschitz, mu_star, message",
        [
            (np.nan, 1.0, "lipschitz must be nonnegative, got nan"),
            (-0.5, 1.0, "lipschitz must be nonnegative, got -0.5"),
            (0.5, np.nan, "mu_star must be positive, got nan"),
            (0.5, 0.0, "mu_star must be positive, got 0.0"),
        ],
    )
    def test_report_refuses_before_the_constants(self, monkeypatch, lipschitz, mu_star, message):
        def not_called(*args, **kwargs):
            raise AssertionError("a constant was computed before the refusal")

        monkeypatch.setattr(constants, "poincare_constant", not_called)
        monkeypatch.setattr(constants, "trace_constant", not_called)
        with pytest.raises(ValueError, match=message):
            constants.constants_report(interval_mesh(16), lipschitz, mu_star)

    def test_report(self):
        mesh = interval_mesh(64)
        rep = constants.constants_report(mesh, 0.5, 1.0, seed=0)
        assert rep.ok and 0.0 < rep.k < 1.0
        assert rep.c0 >= 1.0 and 0.0 < rep.c3 < 1.0

    def test_report_reads_the_cached_constants(self, monkeypatch):
        mesh = interval_mesh(48)
        c0 = constants.poincare_constant(mesh, tol=1e-9, seed=3)
        c3 = constants.trace_constant(mesh)
        assert constants.space_constants(mesh, tol=1e-9, seed=3) == (c0, c3)

        def no_power_iteration(*args, **kwargs):
            raise AssertionError("constants recomputed")

        monkeypatch.setattr(constants, "poincare_constant", no_power_iteration)
        monkeypatch.setattr(constants, "trace_constant", no_power_iteration)
        rep = constants.constants_report(mesh, 0.5, 1.0, tol=1e-9, seed=3)
        assert (rep.c0, rep.c3) == (c0, c3)
        assert rep.k == constants.smallness_margin(0.5, c0, c3, 1.0)[0]


class TestIterationSettings:
    """Settings the power iteration cannot run with are refused by name
    before any factorization."""

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"maxiter": 0}, "maxiter must be at least 1, got 0"),
            ({"maxiter": -2}, "maxiter must be at least 1, got -2"),
            ({"maxiter": 2.5}, "maxiter must be an integer, got 2.5"),
            ({"tol": -1.0}, "tol must be positive, got -1.0"),
            ({"tol": 0.0}, "tol must be positive, got 0.0"),
            ({"tol": float("nan")}, "tol must be positive, got nan"),
        ],
    )
    @pytest.mark.parametrize("function", ["poincare_constant", "space_constants"])
    def test_refused_before_any_factorization(self, function, settings, message, monkeypatch):
        def no_factor(*args, **kwargs):
            raise AssertionError("factored before the settings were checked")

        monkeypatch.setattr(fem, "dpbtrf", no_factor)
        with pytest.raises(ValueError, match=message):
            getattr(constants, function)(square_mesh(4), **settings)

    def test_numpy_integer_cap_and_one_iteration_accepted(self):
        mesh = square_mesh(4)
        c0 = constants.poincare_constant(mesh, maxiter=np.int64(10000))
        assert c0 == constants.poincare_constant(mesh)
        with pytest.raises(constants.ConvergenceError, match="within 1 iterations"):
            constants.poincare_constant(mesh, maxiter=1)


class TestNoFreeNode:
    """Every node on gamma1: a named mesh error, not a numpy reduction error."""

    def test_interval_of_one_element(self):
        spec = fem.MeshSpec(1, (1.0,), (1,), {"left": "gamma1", "right": "gamma1"})
        mesh = fem.build_mesh(spec)
        with pytest.raises(fem.MeshError, match="no free node.*gamma1"):
            constants.poincare_constant(mesh)
        with pytest.raises(fem.MeshError, match="no free node.*gamma1"):
            constants.space_constants(mesh)
        with pytest.raises(fem.MeshError, match="no free node.*gamma1"):
            constants.constants_report(mesh, 0.5, 1.0)

    def test_square_of_one_element(self):
        spec = fem.MeshSpec(
            2, (1.0, 1.0), (1, 1),
            {"left": "gamma1", "right": "gamma1", "bottom": "gamma3", "top": "gamma2"},
        )
        mesh = fem.build_mesh(spec)
        problem = qvi.ProblemData(mesh, 1.0, 1.0, 0.5, fem.FrictionBound.constant(1.0))
        with pytest.raises(fem.MeshError, match="no free node.*gamma1"):
            qvi.solve_qvi(problem)
