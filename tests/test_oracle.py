"""Closed-form interval solutions and frictionless direct solves."""

from __future__ import annotations

import numpy as np
import pytest

from antiplane import fem
from antiplane.oracle import Regime, analytic_1d, benchmark_problem, regime_of
from oracle_helpers import analytic_1d_slope, linear_solve

CASES = [
    (1.0, 1.0, 1.0, Regime.STICK),
    (1.0, 3.0, 1.0, Regime.POSITIVE_SLIP),
    (2.0, -3.0, 0.5, Regime.NEGATIVE_SLIP),
    (1.0, 2.0, 1.0, Regime.STICK),  # threshold tie counts as stick
    (1.0, -2.0, 1.0, Regime.STICK),
    (0.5, 0.0, 0.0, Regime.STICK),
]


class TestRegimes:
    @pytest.mark.parametrize("mu,f0,g,regime", CASES)
    def test_classification(self, mu, f0, g, regime):
        assert regime_of(mu, f0, g) is regime

    def test_rejects_bad_data(self):
        with pytest.raises(ValueError):
            regime_of(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            regime_of(1.0, 1.0, -1.0)


class TestClosedForm:
    @pytest.mark.parametrize("mu,f0,g,regime", CASES)
    def test_boundary_conditions(self, mu, f0, g, regime):
        x = np.linspace(0.0, 1.0, 201)
        u = analytic_1d(mu, f0, g, x)
        du = analytic_1d_slope(mu, f0, g, x)
        # clamped left end
        assert abs(u[0]) == 0.0
        # interior balance: the quadratic has curvature -f0/mu
        d2 = np.diff(u, 2) / (x[1] - x[0]) ** 2
        assert np.allclose(mu * d2, -f0, atol=1e-8 * max(1.0, abs(f0)))
        # normalized-flux friction law at the right end
        end_slip = u[-1]
        end_flux = du[-1]
        assert abs(end_flux) <= g + 1e-12
        if regime is Regime.STICK:
            assert abs(end_slip) < 1e-12
        else:
            assert abs(end_slip) > 0.0
            assert np.isclose(end_flux, -g * np.sign(end_slip))

    def test_example_values(self):
        # hand-computed quadratics for the three regimes
        x = np.array([0.0, 0.5, 1.0])
        assert np.allclose(analytic_1d(1.0, 3.0, 1.0, x), [0.0, 0.625, 0.5])
        assert np.allclose(analytic_1d(2.0, -3.0, 0.5, x), [0.0, -0.3125, -0.25])
        assert np.allclose(analytic_1d(1.0, 1.0, 1.0, x), [0.0, 0.125, 0.0])

    def test_continuity_across_thresholds(self):
        for f0 in (2.0, -2.0):
            below = analytic_1d(1.0, f0 * (1 - 1e-9), 1.0, 0.7)
            above = analytic_1d(1.0, f0 * (1 + 1e-9), 1.0, 0.7)
            assert abs(below - above) < 1e-6


class TestLinearSolve:
    def test_interval_traction_exact(self):
        spec = fem.MeshSpec(1, (1.0,), (16,), {"left": "gamma1", "right": "gamma2"})
        mesh = fem.build_mesh(spec)
        u = linear_solve(mesh, 1.0, 0.0, 2.5)
        assert np.allclose(u, 2.5 * mesh.nodes, atol=1e-12)

    def test_interval_body_force_exact(self):
        # -u'' = 1, u(0) = 0, u'(1) = 0 has u = x - x^2/2, exact at nodes
        spec = fem.MeshSpec(1, (1.0,), (32,), {"left": "gamma1", "right": "gamma2"})
        mesh = fem.build_mesh(spec)
        u = linear_solve(mesh, 1.0, 1.0)
        x = mesh.nodes
        assert np.allclose(u, x - x**2 / 2.0, atol=1e-12)

    def test_square_uniform_traction_exact(self):
        # unit flux through the right edge, insulated top and bottom: u = x
        spec = fem.MeshSpec(
            2, (1.0, 1.0), (6, 5),
            {"left": "gamma1", "right": "gamma2", "bottom": "gamma2", "top": "gamma2"},
        )
        mesh = fem.build_mesh(spec)
        F = fem.assemble_load(mesh, 0.0, lambda p: np.where(p[:, 0] > 0.999, 1.0, 0.0))
        K = fem.assemble_stiffness(mesh, 1.0)
        import scipy.sparse.linalg as spla

        free = mesh.free_nodes
        u = np.zeros(mesh.n_nodes)
        u[free] = spla.spsolve(K[free][:, free].tocsc(), F[free])
        assert np.allclose(u, mesh.nodes[:, 0], atol=1e-10)


class TestBenchmarkProblem:
    def test_bound_absorbs_modulus(self):
        prob = benchmark_problem(2.0, -3.0, 0.5, 8)
        pts = prob.mesh.nodes[prob.mesh.node_sets["gamma3"]]
        vals = prob.g(pts, np.array([0.0]))
        assert np.allclose(vals, 1.0)  # mu * g
        assert prob.g.lipschitz == 0.0

    def test_mesh_layout(self):
        prob = benchmark_problem(1.0, 1.0, 1.0, 8)
        mesh = prob.mesh
        assert list(mesh.node_sets["gamma1"]) == [0]
        assert list(mesh.node_sets["gamma3"]) == [8]
