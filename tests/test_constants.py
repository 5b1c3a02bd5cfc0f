"""Discrete Poincare and trace constants, smallness margin."""

from __future__ import annotations

import inspect
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
        c0 = constants.poincare_constant(mesh)
        assert abs(c0 - C0_INTERVAL) / C0_INTERVAL < 1e-5

    def test_at_least_one(self):
        for mesh in (interval_mesh(16), square_mesh(5)):
            assert constants.poincare_constant(mesh) >= 1.0

    def test_monotone_under_refinement(self):
        # nested spaces: the discrete best constant grows toward the limit
        values = [constants.poincare_constant(interval_mesh(n)) for n in (8, 16, 32, 64)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] <= C0_INTERVAL + 1e-12

    def test_inequality_on_random_fields(self):
        mesh = square_mesh(6)
        c0 = constants.poincare_constant(mesh)
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(100):
            v = zero_on_gamma1(mesh, rng.standard_normal(mesh.n_nodes))
            assert fem.v_norm(mesh, v) <= c0 * grad_seminorm(mesh, v) * (1 + 1e-12)

    def test_deterministic(self):
        mesh = interval_mesh(32)
        a = constants.poincare_constant(mesh)
        b = constants.poincare_constant(mesh)
        assert a == b

    @staticmethod
    def iteration_inputs(mesh):
        """(solve, M, S, v0) of c0's power iteration, v0 drawn from default_rng(0)."""
        S, solve, _ = fem.free_block(mesh)
        free = mesh.free_nodes
        M = fem.submatrix(fem.mass_matrix(mesh), free, free)
        return solve, M, S, np.random.default_rng(0).standard_normal(len(free))

    @pytest.mark.parametrize("dim, n", [(2, 6), (2, 12), (1, 16), (1, 64)])
    def test_fixed_settings(self, dim, n):
        # the mesh alone fixes c0: tolerance 1e-10, cap 10000, a seed-0 start
        mesh = square_mesh(n) if dim == 2 else interval_mesh(n)
        lam = constants._power_iteration(*self.iteration_inputs(mesh), 1e-10, 10000)
        assert constants.poincare_constant(mesh) == float(np.sqrt(1.0 + lam))

    @pytest.mark.parametrize("dim, n", [(2, 6), (1, 32)])
    def test_same_on_a_rebuilt_mesh(self, dim, n):
        # a second mesh of the same spec has its own cache and factor, and
        # draws from the global random state in between do not move c0 or c3
        build = square_mesh if dim == 2 else interval_mesh
        first = constants.space_constants(build(n))
        np.random.seed(n)
        np.random.standard_normal(n)
        assert constants.space_constants(build(n)) == first

    def test_iteration_cap(self):
        inputs = self.iteration_inputs(interval_mesh(64))
        with pytest.raises(
            constants.ConvergenceError, match="missed tolerance 1e-10 within 1 iterations"
        ):
            constants._power_iteration(*inputs, 1e-10, maxiter=1)

    @pytest.mark.parametrize("dim, n", [(2, 4), (2, 8), (2, 16), (1, 16), (1, 64)])
    def test_matches_dense_eigensolver(self, dim, n, monkeypatch):
        mesh = square_mesh(n) if dim == 2 else interval_mesh(n)
        free = mesh.free_nodes
        S = fem.stiffness_matrix(mesh, 1.0)[free][:, free].toarray()
        A = fem.gram_matrix(mesh)[free][:, free].toarray()
        c0_ref = np.sqrt(scipy.linalg.eigh(A, S, eigvals_only=True)[-1])

        solves = []
        factor = fem.spd_factor

        def counting(matrix, layout):
            solve, Z = factor(matrix, layout)
            return (lambda b: solves.append(1) or solve(b)), Z

        monkeypatch.setattr(fem, "spd_factor", counting)
        c0 = constants.poincare_constant(mesh)
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
        factor, solves = fem.spd_factor(S, fem.band_layout(S))[0], []
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
        c0 = constants.poincare_constant(mesh)
        c3 = constants.trace_constant(mesh)
        monkeypatch.setattr(constants, "_power_iteration", two_product_power_iteration)
        assert constants.poincare_constant(mesh) == c0
        assert constants.trace_constant(mesh) == c3


class TestMeshAlone:
    """c0 and c3 take no solver settings: one value per mesh."""

    @pytest.mark.parametrize(
        "name, params",
        [
            ("poincare_constant", ["mesh"]),
            ("space_constants", ["mesh"]),
            ("constants_report", ["mesh", "lipschitz", "mu_star"]),
        ],
    )
    def test_no_iteration_settings(self, name, params):
        function = getattr(constants, name)
        assert list(inspect.signature(function).parameters) == params
        with pytest.raises(TypeError, match="tol"):
            function(interval_mesh(8), *[1.0] * (len(params) - 1), tol=1e-3)

    def test_one_power_iteration_per_mesh(self, monkeypatch):
        calls, power_iteration = [], constants._power_iteration

        def counting(*args):
            calls.append(args[-2:])
            return power_iteration(*args)

        monkeypatch.setattr(constants, "_power_iteration", counting)
        mesh = square_mesh(5)
        c0, c3 = constants.space_constants(mesh)
        rep = constants.constants_report(mesh, 0.5, 2.0)
        assert constants.space_constants(mesh) == (rep.c0, rep.c3) == (c0, c3)
        assert calls == [(1e-10, 10000)]
        assert fem._FORM_CACHE[mesh]["constants"] == (c0, c3)


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
        c0 = constants.poincare_constant(mesh)
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
        rep = constants.constants_report(mesh, 0.5, 1.0)
        assert rep.ok and 0.0 < rep.k < 1.0
        assert rep.c0 >= 1.0 and 0.0 < rep.c3 < 1.0

    def test_report_reads_the_cached_constants(self, monkeypatch):
        mesh = interval_mesh(48)
        c0 = constants.poincare_constant(mesh)
        c3 = constants.trace_constant(mesh)
        assert constants.space_constants(mesh) == (c0, c3)

        def no_power_iteration(*args, **kwargs):
            raise AssertionError("constants recomputed")

        monkeypatch.setattr(constants, "poincare_constant", no_power_iteration)
        monkeypatch.setattr(constants, "trace_constant", no_power_iteration)
        rep = constants.constants_report(mesh, 0.5, 1.0)
        assert (rep.c0, rep.c3) == (c0, c3)
        assert rep.k == constants.smallness_margin(0.5, c0, c3, 1.0)[0]


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
