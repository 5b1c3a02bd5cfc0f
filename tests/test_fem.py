"""Mesh construction, assembly and quadrature checks."""

from __future__ import annotations

import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order
from hypothesis import given, settings
from hypothesis import strategies as st

from antiplane import constants, fem, oracle, qvi, tykhonov
from space_helpers import dual_norm, in_space, zero_on_gamma1
from tresca_helpers import tresca_solve, tresca_solver

RNG_SEED = 20260814


def interval_mesh(n, right="gamma3", left="gamma1"):
    spec = fem.MeshSpec(1, (1.0,), (n,), {"left": left, "right": right})
    return fem.build_mesh(spec)


def square_mesh(nx, ny, partition=None):
    partition = partition or {
        "left": "gamma1",
        "right": "gamma2",
        "bottom": "gamma3",
        "top": "gamma3",
    }
    spec = fem.MeshSpec(2, (1.0, 1.0), (nx, ny), partition)
    return fem.build_mesh(spec)


# ---------------------------------------------------------------------------
# mesh specs


class TestMeshSpec:
    def test_requires_gamma1(self):
        with pytest.raises(fem.MeshError, match="gamma1"):
            fem.MeshSpec(1, (1.0,), (4,), {"left": "gamma2", "right": "gamma3"})

    def test_rejects_unknown_side(self):
        with pytest.raises(fem.MeshError, match="unknown sides"):
            fem.MeshSpec(1, (1.0,), (4,), {"left": "gamma1", "rigth": "gamma3"})

    def test_rejects_missing_side(self):
        with pytest.raises(fem.MeshError, match="misses"):
            fem.MeshSpec(2, (1.0, 1.0), (2, 2), {"left": "gamma1"})

    def test_rejects_bad_resolution(self):
        with pytest.raises(fem.MeshError, match="resolution"):
            fem.MeshSpec(1, (1.0,), (0,), {"left": "gamma1", "right": "gamma3"})

    @pytest.mark.parametrize("resolution", [(2.5,), (4.0,), (True,)])
    def test_rejects_fractional_resolution(self, resolution):
        with pytest.raises(fem.MeshError, match="resolution must be integers"):
            fem.MeshSpec(1, (1.0,), resolution, {"left": "gamma1", "right": "gamma3"})

    def test_accepts_numpy_integer_resolution(self):
        spec = fem.MeshSpec(1, (1.0,), (np.int64(4),), {"left": "gamma1", "right": "gamma3"})
        assert fem.build_mesh(spec).n_nodes == 5

    def test_rejects_bad_tag(self):
        with pytest.raises(fem.MeshError, match="unknown tags"):
            fem.MeshSpec(1, (1.0,), (4,), {"left": "gamma1", "right": "dirichlet"})


class TestBuildMesh:
    def test_interval_counts(self):
        mesh = interval_mesh(4)
        assert mesh.n_nodes == 5
        assert mesh.elements.shape == (4, 2)
        assert np.allclose(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert list(mesh.node_sets["gamma1"]) == [0]
        assert list(mesh.node_sets["gamma3"]) == [4]
        assert list(mesh.free_nodes) == [1, 2, 3, 4]
        # the 1D boundary point carries the point measure
        assert mesh.gamma3_weights[4] == 1.0

    def test_square_counts(self):
        mesh = square_mesh(2, 2)
        assert mesh.n_nodes == 9
        assert mesh.elements.shape == (8, 3)
        pts = mesh.nodes[mesh.elements]
        areas = 0.5 * np.abs(
            (pts[:, 1, 0] - pts[:, 0, 0]) * (pts[:, 2, 1] - pts[:, 0, 1])
            - (pts[:, 2, 0] - pts[:, 0, 0]) * (pts[:, 1, 1] - pts[:, 0, 1])
        )
        assert np.allclose(areas, 0.125)
        assert np.isclose(areas.sum(), 1.0)

    def test_corner_priority(self):
        # corners where differently tagged sides meet go to the stronger tag
        mesh = square_mesh(2, 2)
        g1 = set(mesh.node_sets["gamma1"])
        g2 = set(mesh.node_sets["gamma2"])
        g3 = set(mesh.node_sets["gamma3"])
        assert g1 & g2 == set()
        assert g1 & g3 == set()
        assert g2 & g3 == set()
        # left side (x = 0) is Dirichlet, including both of its corners
        left = {i for i, p in enumerate(mesh.nodes) if p[0] == 0.0}
        assert left <= g1
        # bottom-right corner joins gamma3 (bottom) and gamma2 (right): gamma3 wins
        corner = int(np.flatnonzero((mesh.nodes[:, 0] == 1.0) & (mesh.nodes[:, 1] == 0.0))[0])
        assert corner in g3 and corner not in g2

    def test_gamma3_weights_cover_side(self):
        mesh = square_mesh(2, 2)
        # bottom and top sides have length 1 each
        assert np.isclose(mesh.gamma3_weights.sum(), 2.0)
        bottom = np.flatnonzero(mesh.nodes[:, 1] == 0.0)
        assert np.allclose(np.sort(mesh.gamma3_weights[bottom]), [0.25, 0.25, 0.5])


def path_laplacian(n):
    return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))


def set_operation_node_sets(mesh):
    """(node_sets, free_nodes) by sorted-set operations on the facets."""
    taken = np.zeros(0, dtype=np.int64)
    node_sets = {}
    for tag in ("gamma1", "gamma3", "gamma2"):
        raw = np.unique(mesh.facets[tag].ravel())
        node_sets[tag] = np.setdiff1d(raw, taken)
        taken = np.union1d(taken, raw)
    return node_sets, np.setdiff1d(np.arange(mesh.n_nodes), node_sets["gamma1"])


class TestNodeSetMasks:
    """The node sets and free nodes made with boolean masks are bitwise,
    dtype included, those of the sorted-set operations."""

    @pytest.mark.parametrize(
        "partition",
        [
            None,
            dict(left="gamma1", right="gamma1", bottom="gamma2", top="gamma3"),
            dict(left="gamma3", right="gamma2", bottom="gamma1", top="gamma1"),
            dict(left="gamma1", right="gamma1", bottom="gamma1", top="gamma1"),
        ],
    )
    def test_rectangle(self, partition):
        mesh = square_mesh(5, 3, partition)
        node_sets, free = set_operation_node_sets(mesh)
        for tag in fem.TAGS:
            assert mesh.node_sets[tag].dtype == node_sets[tag].dtype
            assert mesh.node_sets[tag].tobytes() == node_sets[tag].tobytes()
        assert mesh.free_nodes.dtype == free.dtype and mesh.free_nodes.tobytes() == free.tobytes()

    @pytest.mark.parametrize("right", ["gamma1", "gamma2", "gamma3"])
    def test_interval(self, right):
        mesh = interval_mesh(6, right=right)
        node_sets, free = set_operation_node_sets(mesh)
        for tag in fem.TAGS:
            assert mesh.node_sets[tag].dtype == node_sets[tag].dtype
            assert mesh.node_sets[tag].tobytes() == node_sets[tag].tobytes()
        assert mesh.free_nodes.dtype == free.dtype and mesh.free_nodes.tobytes() == free.tobytes()

    def test_band_order_with_unreached_rows(self):
        # two paths; the search from ``last`` reaches only the second
        A = sp.csr_matrix(sp.block_diag([path_laplacian(9), path_laplacian(4)]))
        last = np.array([10, 12], dtype=np.int64)
        n = A.shape[0]
        indptr = np.append(A.indptr, A.nnz + len(last))
        graph = sp.csr_matrix(
            (np.ones(indptr[-1]), np.concatenate((A.indices, last)), indptr), shape=(n + 1, n + 1)
        )
        order = breadth_first_order(graph, n, return_predecessors=False)[:0:-1]
        ref = np.concatenate((np.setdiff1d(np.arange(n), order), order))
        got = fem._band_order(A, last)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert set(got[:9]) == set(range(9))


def rectangle_oracle(spec):
    """Triangles, side facets and gamma3 weights of a rectangle, built one
    cell, facet and weight at a time."""
    lx, ly = spec.extents
    nx, ny = spec.resolution

    def nid(ix, iy):
        return iy * (nx + 1) + ix

    tris = []
    for iy in range(ny):
        for ix in range(nx):
            a, b, c, d = nid(ix, iy), nid(ix + 1, iy), nid(ix + 1, iy + 1), nid(ix, iy + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    sides = {
        "left": [(nid(0, iy), nid(0, iy + 1)) for iy in range(ny)],
        "right": [(nid(nx, iy), nid(nx, iy + 1)) for iy in range(ny)],
        "bottom": [(nid(ix, 0), nid(ix + 1, 0)) for ix in range(nx)],
        "top": [(nid(ix, ny), nid(ix + 1, ny)) for ix in range(nx)],
    }
    facets = {
        tag: np.array(
            [f for side in fem.SIDES_2D if spec.partition[side] == tag for f in sides[side]],
            dtype=np.int64,
        ).reshape(-1, 2)
        for tag in fem.TAGS
    }
    xs, ys = np.linspace(0.0, lx, nx + 1), np.linspace(0.0, ly, ny + 1)
    nodes = np.array([(x, y) for y in ys for x in xs])
    weights = np.zeros(len(nodes))
    for a, b in facets["gamma3"]:
        half = 0.5 * float(np.linalg.norm(nodes[b] - nodes[a]))
        weights[a] += half
        weights[b] += half
    return np.array(tris, dtype=np.int64), facets, weights


class TestRectangleOracle:
    @pytest.mark.parametrize("resolution", [(1, 1), (3, 2), (7, 5)])
    @pytest.mark.parametrize(
        "partition",
        [
            {"left": "gamma1", "right": "gamma2", "bottom": "gamma3", "top": "gamma3"},
            {"left": "gamma3", "right": "gamma3", "bottom": "gamma1", "top": "gamma2"},
            {"left": "gamma1", "right": "gamma3", "bottom": "gamma3", "top": "gamma1"},
        ],
    )
    def test_matches_loop_oracle(self, resolution, partition):
        spec = fem.MeshSpec(2, (1.7, 0.6), resolution, partition)
        mesh = fem.build_mesh(spec)
        elements, facets, weights = rectangle_oracle(spec)
        assert mesh.elements.dtype == elements.dtype
        assert np.array_equal(mesh.elements, elements)
        for tag in fem.TAGS:
            assert mesh.facets[tag].dtype == facets[tag].dtype
            assert np.array_equal(mesh.facets[tag], facets[tag])
        assert np.array_equal(mesh.gamma3_weights, weights)


# ---------------------------------------------------------------------------
# assembly


class TestStiffness:
    def test_interval_two_elements_exact(self):
        mesh = interval_mesh(2)
        K = fem.assemble_stiffness(mesh, 1.0).toarray()
        expected = np.array([[2.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 2.0]])
        assert np.allclose(K, expected)

    def test_midpoint_sampling(self):
        mesh = interval_mesh(2)
        K = fem.assemble_stiffness(mesh, lambda x: x).toarray()
        # element midpoints 0.25 and 0.75, element length 0.5
        expected = np.array([[0.5, -0.5, 0.0], [-0.5, 2.0, -1.5], [0.0, -1.5, 1.5]])
        assert np.allclose(K, expected)

    def test_rejects_nonpositive_mu(self):
        mesh = interval_mesh(4)
        with pytest.raises(ValueError, match="positive"):
            fem.assemble_stiffness(mesh, 0.0)
        with pytest.raises(ValueError, match="positive"):
            fem.assemble_stiffness(mesh, lambda x: x - 0.5)

    def test_rejects_mu_below_floor(self):
        mesh = interval_mesh(4)
        with pytest.raises(ValueError, match="floor"):
            fem.assemble_stiffness(mesh, 1.0, mu_star=2.0)

    @pytest.mark.parametrize(
        "mu",
        [np.nan, np.inf, lambda x: np.where(np.abs(x - 0.375) < 0.01, np.nan, 1.0)],
        ids=["nan", "inf", "callable-nan-on-one-element"],
    )
    def test_rejects_non_finite_mu(self, mu):
        mesh = interval_mesh(4)
        with pytest.raises(ValueError, match="shear modulus must be finite"):
            fem.assemble_stiffness(mesh, mu)
        with pytest.raises(ValueError, match="shear modulus must be finite"):
            fem.stiffness_matrix(mesh, mu)

    @pytest.mark.parametrize("mu", [np.nan, np.inf])
    def test_solve_names_a_non_finite_modulus(self, mu):
        problem = qvi.ProblemData(
            interval_mesh(8), mu, 1.0, None, fem.FrictionBound.constant(0.5)
        )
        with pytest.raises(ValueError, match="shear modulus must be finite"):
            qvi.solve_qvi(problem)

    def test_symmetry_and_positive_semidefinite(self):
        for mesh in (interval_mesh(7), square_mesh(3, 4)):
            K = fem.assemble_stiffness(mesh, 2.5)
            assert np.allclose((K - K.T).toarray(), 0.0, atol=1e-14)
            rng = np.random.default_rng(RNG_SEED)
            for _ in range(20):
                v = rng.standard_normal(mesh.n_nodes)
                assert v @ (K @ v) >= -1e-12

    def test_square_energy_of_linear_field(self):
        # grad(x) = (1, 0), so the energy of the interpolant of x is mu*|D|
        mesh = square_mesh(3, 3)
        K = fem.assemble_stiffness(mesh, 2.0)
        v = mesh.nodes[:, 0].copy()
        assert np.isclose(v @ (K @ v), 2.0)

    def test_square_energy_converges(self):
        # interpolant of xy: the gradient energy tends to int(x^2 + y^2) = 2/3
        mesh = square_mesh(32, 32)
        K = fem.assemble_stiffness(mesh, 1.0)
        v = mesh.nodes[:, 0] * mesh.nodes[:, 1]
        assert abs(v @ (K @ v) - 2.0 / 3.0) < 5e-3


def counting_assembly(monkeypatch):
    """Record the modulus of every ``fem.assemble_stiffness`` call."""
    calls = []
    assemble = fem.assemble_stiffness

    def counting(mesh, mu, *args, **kwargs):
        calls.append(mu)
        return assemble(mesh, mu, *args, **kwargs)

    monkeypatch.setattr(fem, "assemble_stiffness", counting)
    return calls


def assert_read_only(K):
    for arr in (K.data, K.indices, K.indptr):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


class TestStiffnessCache:
    @pytest.mark.parametrize("mu", [1.0, 2.5])
    def test_bitwise_equal_to_fresh_assembly(self, mu):
        spec = square_mesh(5, 4).spec
        mesh = fem.build_mesh(spec)
        K = fem.stiffness_matrix(mesh, mu)
        # a second mesh of the same spec computes its geometry afresh
        fresh = fem.assemble_stiffness(fem.build_mesh(spec), mu)
        for a, b in ((K.data, fresh.data), (K.indices, fresh.indices), (K.indptr, fresh.indptr)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert fem.stiffness_matrix(mesh, mu) is K

    def test_geometry_is_cached_and_bitwise_equal(self):
        spec = square_mesh(5, 4).spec
        mesh = fem.build_mesh(spec)
        geometry = fem._element_geometry(mesh)
        assert fem._element_geometry(mesh) is geometry
        for cached, fresh in zip(geometry, fem._element_geometry(fem.build_mesh(spec))):
            assert np.array_equal(cached, fresh)

    def test_cached_arrays_are_read_only(self):
        mesh = square_mesh(3, 3)
        for K in (
            fem.stiffness_matrix(mesh, 1.0),
            fem.stiffness_matrix(mesh, 0.7),
            fem.mass_matrix(mesh),
            fem.gram_matrix(mesh),
        ):
            assert_read_only(K)
        meas, grads = fem._element_geometry(mesh)
        with pytest.raises(ValueError, match="read-only"):
            meas[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            grads[0, 0, 0] = 1.0

    def test_unit_modulus_is_the_unit_stiffness(self, monkeypatch):
        mesh = square_mesh(4, 4)
        calls = counting_assembly(monkeypatch)
        K = fem.stiffness_matrix(mesh, 1)
        assert fem.stiffness_matrix(mesh, np.float64(1.0)) is K
        # the Gram matrix and the free unit stiffness block read the same entry
        fem.gram_matrix(mesh)
        fem.free_block(mesh)
        assert calls == [1.0]
        # built for the Gram matrix first, the entry is served without assembly
        other = square_mesh(4, 4)
        fem.gram_matrix(other)
        fem.stiffness_matrix(other, 1.0)
        assert calls == [1.0, 1.0]

    def test_array_and_callable_moduli_are_not_cached(self, monkeypatch):
        mesh = interval_mesh(6)
        calls = counting_assembly(monkeypatch)
        per_element = np.linspace(1.0, 2.0, 6)
        for mu in (per_element, lambda x: 1.0 + x):
            first = fem.stiffness_matrix(mesh, mu)
            second = fem.stiffness_matrix(mesh, mu)
            assert first is not second
            assert np.array_equal(first.toarray(), second.toarray())
            first.data[0] += 0.0  # a fresh matrix stays writable
        assert len(calls) == 4
        assert "stiffness" not in fem._FORM_CACHE.get(mesh, {})

    def test_floor_is_checked_on_a_hit(self):
        mesh = interval_mesh(4)
        fem.stiffness_matrix(mesh, 1.5)
        with pytest.raises(ValueError, match="floor"):
            fem.stiffness_matrix(mesh, 1.5, mu_star=2.0)
        with pytest.raises(ValueError, match="positive"):
            fem.stiffness_matrix(mesh, -1.5)
        assert fem.stiffness_matrix(mesh, 1.5, mu_star=1.5) is fem.stiffness_matrix(mesh, 1.5)

    def test_cache_does_not_grow_with_the_moduli(self, monkeypatch):
        mesh = interval_mesh(4)
        calls = counting_assembly(monkeypatch)
        for mu in (1.0, 2.0, 3.0, 2.0, 4.0):
            fem.stiffness_matrix(mesh, mu)
        assert sorted(fem._FORM_CACHE[mesh]["stiffness"]) == [1.0, 4.0]
        assert calls == [1.0, 2.0, 3.0, 2.0, 4.0]
        fem.stiffness_matrix(mesh, 1.0)
        fem.stiffness_matrix(mesh, 4.0)
        assert len(calls) == 5


def _csr_arrays(A):
    return A.data, A.indices, A.indptr


class TestAssemblyCache:
    """The gradient products and the scatter pattern are built once per mesh."""

    def test_moduli_bitwise_equal_to_fresh_mesh_assembly(self):
        spec = square_mesh(5, 4).spec
        mesh = fem.build_mesh(spec)
        per_element = np.linspace(1.0, 2.0, len(mesh.elements))
        for mu in (0.5, 1.0, 2.5, per_element, lambda x: 1.0 + x[:, 0]):
            K = fem.assemble_stiffness(mesh, mu)
            # a second mesh of the same spec builds its products and pattern afresh
            fresh = fem.assemble_stiffness(fem.build_mesh(spec), mu)
            for a, b in zip(_csr_arrays(K), _csr_arrays(fresh)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        M, fresh = fem.assemble_mass(mesh), fem.assemble_mass(fem.build_mesh(spec))
        assert np.array_equal(M.data, fresh.data) and np.array_equal(M.indices, fresh.indices)

    def test_parts_are_cached_and_read_only(self):
        mesh = interval_mesh(6)
        fem.assemble_stiffness(mesh, 2.0)
        products = fem._gradient_products(mesh)
        assert fem._gradient_products(mesh) is products
        _, grads = fem._element_geometry(mesh)
        assert np.array_equal(products, np.einsum("eid,ejd->eij", grads, grads))
        rows, cols = fem._FORM_CACHE[mesh]["scatter"]
        for arr in (products, rows, cols):
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = arr.flat[0]


def index_sets(mesh):
    """The free, smooth, friction and empty node sets of the Tresca solver."""
    free = mesh.free_nodes
    friction = np.intersect1d(mesh.node_sets["gamma3"], free)
    return {
        "free": free,
        "smooth": np.setdiff1d(free, friction),
        "friction": friction,
        "empty": np.zeros(0, dtype=np.int64),
    }


class TestSubmatrix:
    @pytest.mark.parametrize("make_mesh", [lambda: interval_mesh(7), lambda: square_mesh(5, 4)])
    @pytest.mark.parametrize("rows", ["free", "smooth", "friction", "empty"])
    @pytest.mark.parametrize("cols", ["free", "smooth", "friction", "empty"])
    def test_equals_chained_fancy_indexing(self, make_mesh, rows, cols):
        mesh = make_mesh()
        sets = index_sets(mesh)
        r, c = sets[rows], sets[cols]
        for A in (fem.stiffness_matrix(mesh, 1.3), fem.mass_matrix(mesh), fem.gram_matrix(mesh)):
            block, ref = fem.submatrix(A, r, c), A[r][:, c]
            assert block.format == "csr" and block.shape == ref.shape == (len(r), len(c))
            for a, b in zip(_csr_arrays(block), _csr_arrays(ref)):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_free_block_is_cut_once(self, monkeypatch):
        from antiplane import constants

        cuts = []
        submatrix = fem.submatrix
        monkeypatch.setattr(fem, "submatrix", lambda A, r, c: cuts.append(A) or submatrix(A, r, c))
        mesh = square_mesh(4, 4)
        whole = fem.stiffness_matrix(mesh, 1.0)
        constants.space_constants(mesh)
        entry = fem.free_block(mesh)
        block, solve, Z = entry
        assert sum(A is whole for A in cuts) == 1
        assert fem.free_block(mesh) == entry
        assert_read_only(block)
        assert not Z.flags.writeable
        free = mesh.free_nodes
        assert np.array_equal(block.toarray(), whole[free][:, free].toarray())
        pos = np.searchsorted(free, mesh.node_sets["gamma3"])
        Z_ref = np.linalg.inv(block.toarray())[np.ix_(pos, pos)]
        assert np.allclose(Z, Z_ref, rtol=0, atol=1e-12)
        b = np.ones(len(free))
        assert np.allclose(block @ solve(b), b, rtol=0, atol=1e-12)


class TestMass:
    def test_total_mass_is_volume(self):
        for mesh, vol in ((interval_mesh(5), 1.0), (square_mesh(3, 2), 1.0)):
            M = fem.assemble_mass(mesh)
            ones = np.ones(mesh.n_nodes)
            assert np.isclose(ones @ (M @ ones), vol)

    def test_interval_entries(self):
        mesh = interval_mesh(2)
        M = fem.assemble_mass(mesh).toarray()
        h = 0.5
        expected = h / 6.0 * np.array([[2.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 2.0]])
        assert np.allclose(M, expected)


def stiffness_oracle(mesh, coef_e):
    """Weighted stiffness matrix assembled one element at a time."""
    rows, cols, vals = [], [], []
    if mesh.dimension == 1:
        h = np.diff(mesh.nodes)
        for (i, j), ke in zip(mesh.elements, coef_e / h):
            rows += [i, i, j, j]
            cols += [i, j, i, j]
            vals += [ke, -ke, -ke, ke]
    else:
        for conn, p, ce in zip(mesh.elements, mesh.nodes[mesh.elements], coef_e):
            b = np.array([p[1, 1] - p[2, 1], p[2, 1] - p[0, 1], p[0, 1] - p[1, 1]])
            c = np.array([p[2, 0] - p[1, 0], p[0, 0] - p[2, 0], p[1, 0] - p[0, 0]])
            area = 0.5 * abs(b[0] * c[1] - b[1] * c[0])
            ke = ce * (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)
            for a in range(3):
                for d in range(3):
                    rows.append(conn[a])
                    cols.append(conn[d])
                    vals.append(ke[a, d])
    n = mesh.n_nodes
    return np.asarray(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).todense())


def mass_oracle(mesh):
    """Consistent mass matrix assembled one element at a time."""
    M = np.zeros((mesh.n_nodes, mesh.n_nodes))
    if mesh.dimension == 1:
        for (i, j), he in zip(mesh.elements, np.diff(mesh.nodes)):
            M[np.ix_([i, j], [i, j])] += he / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    else:
        base = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
        for conn, p in zip(mesh.elements, mesh.nodes[mesh.elements]):
            area = 0.5 * abs(
                (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
                - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1])
            )
            M[np.ix_(conn, conn)] += area * base
    return M


@st.composite
def meshes_with_modulus(draw):
    """Interval or rectangle with non-unit extents and per-element mu."""
    dim = draw(st.sampled_from((1, 2)))
    extents = tuple(draw(st.floats(0.3, 3.0)) for _ in range(dim))
    resolution = tuple(draw(st.integers(1, 9)) for _ in range(dim))
    sides = fem.SIDES_1D if dim == 1 else fem.SIDES_2D
    partition = dict.fromkeys(sides, fem.GAMMA3) | {"left": fem.GAMMA1}
    mesh = fem.build_mesh(fem.MeshSpec(dim, extents, resolution, partition))
    m = len(mesh.elements)
    mu = draw(st.lists(st.floats(0.2, 5.0), min_size=m, max_size=m).map(np.array))
    return mesh, mu


class TestAssemblyOracle:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(meshes_with_modulus())
    def test_stiffness_and_mass_match_element_loops(self, instance):
        mesh, mu = instance
        K = fem.assemble_stiffness(mesh, mu).toarray()
        K_ref = stiffness_oracle(mesh, mu)
        assert np.max(np.abs(K - K_ref)) <= 1e-12 * np.max(np.abs(K_ref))
        M = fem.assemble_mass(mesh).toarray()
        M_ref = mass_oracle(mesh)
        assert np.max(np.abs(M - M_ref)) <= 1e-12 * np.max(np.abs(M_ref))


class TestLoad:
    def test_constant_source_hat_integrals(self):
        # exact integrals of a constant against hat functions: h inside, h/2 at ends
        mesh = interval_mesh(4)
        F = fem.assemble_load(mesh, 1.0)
        h = 0.25
        assert np.allclose(F, [h / 2, h, h, h, h / 2])

    def test_midpoint_sampled_source(self):
        mesh = interval_mesh(2)
        F = fem.assemble_load(mesh, lambda x: x)
        # piecewise-constant source from midpoints 0.25 and 0.75
        assert np.allclose(F, [0.0625, 0.25, 0.1875])

    def test_point_traction_1d(self):
        mesh = interval_mesh(4, right="gamma2")
        F = fem.assemble_load(mesh, 0.0, 3.0)
        expected = np.zeros(5)
        expected[4] = 3.0
        assert np.allclose(F, expected)

    def test_edge_traction_row_sums(self):
        # unit traction on the unit-length right edge must integrate to one
        mesh = square_mesh(2, 2)
        F = fem.assemble_load(mesh, 0.0, 1.0)
        assert np.isclose(F.sum(), 1.0)
        right = np.flatnonzero(mesh.nodes[:, 0] == 1.0)
        assert np.isclose(F[right].sum(), 1.0)
        assert np.allclose(np.sort(F[right]), [0.25, 0.25, 0.5])

    def test_volume_source_total(self):
        mesh = square_mesh(3, 3)
        F = fem.assemble_load(mesh, 2.0)
        assert np.isclose(F.sum(), 2.0)

    def test_traction_without_gamma2_warns(self):
        mesh = interval_mesh(4)  # right side is gamma3, no gamma2 anywhere
        with pytest.warns(UserWarning, match="gamma2 is empty"):
            F = fem.assemble_load(mesh, 1.0, 5.0)
        assert np.isclose(F.sum(), 1.0)

    def test_zero_traction_without_gamma2_is_silent(self):
        import warnings

        mesh = interval_mesh(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fem.assemble_load(mesh, 1.0, 0.0)


# ---------------------------------------------------------------------------
# SPD factorization kernel


SIDES = {"left": "gamma1", "right": "gamma2", "bottom": "gamma3", "top": "gamma3"}


def free_block(mesh, mu):
    free = mesh.free_nodes
    return fem.assemble_stiffness(mesh, mu)[free][:, free]


def band_factor(A, last=()):
    """``fem.spd_factor`` of A on a band layout made for A alone."""
    return fem.spd_factor(A, fem.band_layout(A, last))


def _index_arrays(A):
    return (A.row, A.col) if A.format == "coo" else (A.indices, A.indptr)


def recording_dpbtrf(monkeypatch):
    """Record the band array of every ``dpbtrf`` call made by the kernel."""
    bands = []
    original = fem.dpbtrf

    def recording(ab, **kw):
        bands.append(ab.copy())
        return original(ab, **kw)

    monkeypatch.setattr(fem, "dpbtrf", recording)
    return bands


class TestSpdFactor:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(meshes_with_modulus(), st.integers(0, 4), st.integers(0, 2**32 - 1))
    def test_matches_sparse_direct_solve(self, instance, n_columns, seed):
        mesh, mu = instance
        K = free_block(mesh, mu)
        shape = (K.shape[0],) if n_columns == 0 else (K.shape[0], n_columns)
        b = np.random.default_rng(seed).standard_normal(shape)
        x = band_factor(K)[0](b)
        x_ref = spla.spsolve(K.tocsc(), b).reshape(shape)  # spsolve drops a unit axis
        assert x.shape == shape
        assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))

    def test_solve_leaves_the_right_hand_side_alone(self):
        K = free_block(square_mesh(4, 3), 1.0)
        b = np.arange(2.0 * K.shape[0]).reshape(-1, 2)
        before = b.copy()
        band_factor(K)[0](b)
        assert np.array_equal(b, before)

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
    def test_leaves_the_matrix_alone(self, fmt):
        K = free_block(square_mesh(4, 3), 1.3).asformat(fmt)
        before = [arr.copy() for arr in (K.data, *_index_arrays(K))]
        band_factor(K)
        after = [K.data, *_index_arrays(K)]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_factors_a_read_only_cached_matrix(self):
        mesh = square_mesh(4, 3)
        K = fem.stiffness_matrix(mesh, 1.0)
        free = mesh.free_nodes
        solve = band_factor(K[free][:, free])[0]
        b = np.ones(len(free))
        assert np.allclose(K[free][:, free] @ solve(b), b, rtol=0, atol=1e-12)
        # a read-only matrix that is factored as it is
        whole = band_factor(fem.gram_matrix(mesh))[0]
        assert np.allclose(fem.gram_matrix(mesh) @ whole(np.ones(mesh.n_nodes)), 1.0)

    def test_duplicate_entries_are_summed(self):
        # uncompressed CSR: the diagonal entry of row 0 is stored as 1 + 3
        A = sp.csr_matrix(
            (
                np.array([1.0, 3.0, -1.0, -1.0, 4.0]),
                np.array([0, 0, 1, 0, 1]),
                np.array([0, 3, 5]),
            ),
            shape=(2, 2),
        )
        assert not A.has_canonical_format
        b = np.array([1.0, 2.0])
        assert np.allclose(band_factor(A)[0](b), np.linalg.solve(A.toarray(), b), rtol=1e-14)

    def test_reverse_cuthill_mckee_narrows_a_strip(self, monkeypatch):
        spec = fem.MeshSpec(
            2, (40.0, 0.4), (400, 4),
            {"left": "gamma1", "right": "gamma2", "bottom": "gamma3", "top": "gamma3"},
        )
        K = free_block(fem.build_mesh(spec), 1.0).tocoo()
        assert np.max(K.col - K.row) >= 400  # natural (row by row) order
        bands = recording_dpbtrf(monkeypatch)
        band_factor(K)
        [band] = bands
        assert band.shape[0] - 1 <= 6  # superdiagonals kept

    @pytest.mark.parametrize(
        "mesh, mu",
        [
            (interval_mesh(9), 1.0),
            (interval_mesh(9, right="gamma1", left="gamma3"), 1.0),
            (square_mesh(1, 1, dict(SIDES, right="gamma3")), 1.0),
            (square_mesh(7, 3, dict(SIDES, top="gamma2")), 1.0),
            (square_mesh(12, 12), 1.0),
            (square_mesh(12, 12, dict(SIDES, right="gamma3")), 1.0),
            (square_mesh(6, 5), np.linspace(0.2, 5.0, 60)),
        ],
    )
    def test_gamma3_block_of_the_inverse(self, mesh, mu):
        free = mesh.free_nodes
        K = free_block(mesh, mu)
        last = np.searchsorted(free, mesh.node_sets["gamma3"])
        solve, Z = band_factor(K, last)
        E = np.zeros((len(free), len(last)))
        E[last, np.arange(len(last))] = 1.0
        columns = solve(E)[last]
        dense = np.linalg.inv(K.toarray())[np.ix_(last, last)]
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(Z - columns)) <= 1e-13 * scale
        assert np.max(np.abs(Z - dense)) <= 1e-13 * scale
        assert np.array_equal(Z, Z.T)

    def test_rows_out_of_reach_of_last(self):
        # two uncoupled blocks: the search from ``last`` never enters the second
        K = free_block(interval_mesh(6), 1.0)
        A = sp.block_diag([K, 2.0 * K]).tocsr()
        last = np.array([5, 2])
        solve, Z = band_factor(A, last)
        dense = np.linalg.inv(A.toarray())
        assert np.allclose(Z, dense[np.ix_(last, last)], rtol=0, atol=1e-13)
        b = np.arange(12.0)
        assert np.allclose(solve(b), dense @ b, rtol=0, atol=1e-12)

    def test_gamma3_rows_come_last_in_the_band(self, monkeypatch):
        # the band of the 12x12 stiffness with gamma3 on bottom and top holds
        # two grid rows per level; the trailing block is gamma3's
        mesh = square_mesh(12, 12)
        K = free_block(mesh, 1.0)
        last = np.searchsorted(mesh.free_nodes, mesh.node_sets["gamma3"])
        bands = recording_dpbtrf(monkeypatch)
        band_factor(K, last)
        [band] = bands
        tail = band[:, -len(last):]
        assert sorted(tail[-1]) == sorted(K.diagonal()[last])
        assert band.shape[0] - 1 <= 2 * 13 + 1

    def test_indefinite_matrix_raises(self, monkeypatch):
        # positive diagonal, off-diagonal couplings three times too strong
        mesh = interval_mesh(8)
        K = fem.assemble_stiffness(mesh, 1.0)
        D = sp.diags(K.diagonal())
        K_bad = (D + 3.0 * (K - D)).tocsr()
        free = np.arange(1, 9)
        # a tridiagonal band: the second pivot of its LDL' factors is negative
        assert fem.band_layout(K_bad[free][:, free]).kd == 1
        message = r"not positive definite \(pivot 2 of 8 in band order\)"
        with pytest.raises(fem.FactorizationError, match=message):
            band_factor(K_bad[free][:, free])
        # a per-element modulus factors its own K_ff (fem.free_factor), after
        # c0 and c3 have factored theirs; one that does not factor is refused
        # when the DiscreteProblem is built
        constants.space_constants(mesh)
        free_factor = fem.free_factor
        monkeypatch.setattr(fem, "free_factor", lambda mesh, A: free_factor(mesh, K_bad))
        prob = qvi.ProblemData(mesh, np.ones(8), 1.0, 0.0, fem.FrictionBound.constant(1.0))
        message = "stiffness block factorization failed: matrix is not positive definite"
        with pytest.raises(qvi.SolverError, match=message):
            qvi.DiscreteProblem(prob)


def counting_kernels(monkeypatch):
    """Calls per band kernel name (``dpbtrf``, ``dpbtrs``, ``dpttrf``,
    ``dpttrs``) made through ``fem``."""
    calls = dict.fromkeys(("dpbtrf", "dpbtrs", "dpttrf", "dpttrs"), 0)

    def counting(name, kernel):
        def count(*args, **kw):
            calls[name] += 1
            return kernel(*args, **kw)

        return count

    for name in calls:
        monkeypatch.setattr(fem, name, counting(name, getattr(fem, name)))
    return calls


class TestTridiagonalFactor:
    """An interval's free block is tridiagonal in band order (kd = 1):
    ``spd_factor`` factors it with LAPACK's LDL' kernels."""

    @pytest.mark.parametrize(
        "left, right",
        [("gamma1", "gamma3"), ("gamma3", "gamma1"), ("gamma1", "gamma2")],
        ids=["gamma3-right", "gamma3-left", "no-gamma3"],
    )
    @pytest.mark.parametrize("mu", [1.0, "per-element"], ids=["scalar", "element"])
    def test_solve_and_Z_match_the_dense_inverse(self, left, right, mu, monkeypatch):
        mesh = interval_mesh(40, right=right, left=left)
        if mu == "per-element":
            mu = np.linspace(0.3, 3.0, len(mesh.elements))
        free = mesh.free_nodes
        K = free_block(mesh, mu)
        last = np.searchsorted(free, mesh.node_sets["gamma3"])
        layout = fem.band_layout(K, last)
        assert layout.kd == 1
        calls = counting_kernels(monkeypatch)
        solve, Z = fem.spd_factor(K, layout)
        dense = np.linalg.inv(K.toarray())
        b = np.random.default_rng(RNG_SEED).standard_normal((len(free), 3))
        for rhs in (b, b[:, 0]):
            x = solve(rhs)
            assert x.shape == rhs.shape
            assert np.max(np.abs(x - dense @ rhs)) <= 1e-12 * np.max(np.abs(dense @ rhs))
        dense_Z = dense[np.ix_(last, last)]
        assert Z.shape == (len(last), len(last))
        if len(last):
            assert np.max(np.abs(Z - dense_Z)) <= 1e-12 * np.max(np.abs(dense_Z))
        assert calls == {"dpbtrf": 0, "dpbtrs": 0, "dpttrf": 1, "dpttrs": 2}

    def test_interval_sequence_runs_on_the_tridiagonal_kernels(self, monkeypatch):
        calls = counting_kernels(monkeypatch)
        problem = oracle.benchmark_problem(mu=1.0, f0=3.0, g=1.0, n_elements=32)
        for kind in ("load_perturb", "lame_perturb"):
            tykhonov.run_convergence(problem, tykhonov.Schedule(kind=kind, length=4))
        assert calls["dpttrf"] > 0 and calls["dpttrs"] > 0
        assert calls["dpbtrf"] == calls["dpbtrs"] == 0
        # a square's free block is no tridiagonal band: the banded Cholesky
        certified_solve(square_mesh(6, 6), 1.0)
        assert calls["dpbtrf"] > 0 and calls["dpbtrs"] > 0


class TestProduct:
    """``fem.csr_product`` is bitwise the sparse product it stands for."""

    @pytest.mark.parametrize("n", [4, 24])
    def test_bitwise_equal_to_the_sparse_product(self, n):
        mesh = square_mesh(n, n)
        x = np.random.default_rng(RNG_SEED).standard_normal(mesh.n_nodes)
        for A in (fem.gram_matrix(mesh), fem.mass_matrix(mesh)):
            assert np.array_equal(fem.csr_product(A)(x), A @ x)

    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    def test_integer_and_strided_input(self, fmt):
        mesh = square_mesh(5, 4)
        A = fem.stiffness_matrix(mesh, 1.3).asformat(fmt)
        rng = np.random.default_rng(RNG_SEED)
        integers = rng.integers(-9, 9, mesh.n_nodes)
        strided = rng.standard_normal((mesh.n_nodes, 2))[:, 1]
        assert not strided.flags.c_contiguous
        product = fem.csr_product(A)
        for x in (integers, strided):
            y = product(x)
            assert y.dtype == np.float64 and np.array_equal(y, A @ x)

    def test_integer_matrix(self):
        A = sp.csr_matrix(np.array([[2, -1], [-1, 2]]))
        x = np.array([0.25, 1.5])
        assert np.array_equal(fem.csr_product(A)(x), A @ x)

    @pytest.mark.parametrize("shape", [(4,), (6,), (5, 1)])
    def test_other_shape_raises(self, shape):
        A = sp.identity(5, format="csr")
        with pytest.raises(ValueError, match="vector of 5 entries"):
            fem.csr_product(A)(np.ones(shape))


def counting_band_orders(monkeypatch):
    """List that gains one entry per ``fem._band_order`` call."""
    calls = []
    band_order = fem._band_order
    monkeypatch.setattr(fem, "_band_order", lambda A, last: calls.append(1) or band_order(A, last))
    return calls


def live_bands(monkeypatch):
    """For every ``dpbtrf`` call, the number of band factors made before it
    that are still alive."""
    alive, made = [], []
    original = fem.dpbtrf

    def recording(ab, **kw):
        alive.append(sum(ref() is not None for ref in made))
        chol, info = original(ab, **kw)
        made.append(weakref.ref(chol))
        return chol, info

    monkeypatch.setattr(fem, "dpbtrf", recording)
    return alive


def certified_solve(mesh, mu):
    prob = qvi.ProblemData(mesh, mu, 1.0, 0.5, fem.FrictionBound.affine(0.9, 0.2))
    u, _ = qvi.solve_qvi(prob)
    qvi.complementarity_report(prob, u)
    theta = qvi.TykhonovIndex(0.0, prob.f0, prob.f2, prob.g)
    assert qvi.membership_violation(mesh, mu, u, theta, seed=3) <= 1e-8
    return u


class TestBandLayout:
    """The free blocks of a mesh (Gram, unit stiffness, a per-element
    modulus) share one band layout, made once per mesh."""

    @pytest.mark.parametrize("mu", [1.0, "per-element"], ids=["scalar", "element"])
    def test_one_band_order_per_mesh(self, mu, monkeypatch):
        calls = counting_band_orders(monkeypatch)
        mesh = square_mesh(8, 8)
        if mu == "per-element":
            mu = np.linspace(0.8, 1.2, len(mesh.elements))
        certified_solve(mesh, mu)
        certified_solve(mesh, mu)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "mesh",
        [interval_mesh(9), square_mesh(7, 3, dict(SIDES, top="gamma2")), square_mesh(12, 12)],
        ids=["1D", "7x3", "12x12"],
    )
    def test_bitwise_equal_to_independent_factors(self, mesh):
        free = mesh.free_nodes
        last = np.searchsorted(free, mesh.node_sets["gamma3"])
        modulus = np.linspace(0.5, 2.0, len(mesh.elements))
        forms = (
            fem.gram_matrix(mesh),
            fem.stiffness_matrix(mesh, 1.0),
            fem.assemble_stiffness(mesh, modulus),
        )
        b = np.random.default_rng(RNG_SEED).standard_normal((len(free), 2))
        layout = None
        for A in forms:
            block = fem.submatrix(A, free, free)
            layout = layout or fem.band_layout(block, last)
            solve, Z = fem.spd_factor(block, layout)
            solve_ref, Z_ref = band_factor(block, last)
            assert np.array_equal(solve(b), solve_ref(b))
            assert np.array_equal(Z, Z_ref) and Z.shape == (len(last), len(last))

    def test_layout_of_another_pattern_raises(self):
        K = free_block(square_mesh(4, 4), 1.0)
        layout = fem.band_layout(K, [0, 1])
        with pytest.raises(ValueError, match="sparsity pattern"):
            fem.spd_factor(free_block(square_mesh(4, 3), 1.0), layout)
        diagonal = sp.diags(K.diagonal()).tocsr()  # the same size, fewer entries
        with pytest.raises(ValueError, match="sparsity pattern"):
            fem.spd_factor(diagonal, layout)
        fem.spd_factor(2.0 * K, layout)  # the same pattern, other values

    def test_per_element_modulus_holds_one_band_at_a_time(self, monkeypatch):
        alive = live_bands(monkeypatch)
        mesh = square_mesh(8, 8)
        mu = np.linspace(0.8, 1.2, len(mesh.elements))
        g = fem.FrictionBound.affine(0.9, 0.2)
        discrete = qvi.DiscreteProblem(qvi.ProblemData(mesh, mu, 1.0, 0.5, g))
        # the Gram band of c3, the unit band of c0 (released), then K_ff's
        assert alive == [0, 0, 0]
        free, gamma3 = mesh.free_nodes, mesh.node_sets["gamma3"]
        own = tresca_solver(discrete.K, free, gamma3)  # K_ff ordered and factored afresh
        c = np.full(len(gamma3), 0.05)
        F = fem.assemble_load(mesh, 1.0, 0.5)
        u = tresca_solve(discrete.tresca, F, c)[0]
        assert np.array_equal(u, tresca_solve(own, F, c)[0])
        # a later scalar modulus on the mesh factors the unit block again
        assert np.array_equal(certified_solve(mesh, 1.0), certified_solve(square_mesh(8, 8), 1.0))

    def test_dropped_scalar_problem_leaves_no_band(self, monkeypatch):
        alive = live_bands(monkeypatch)
        mesh = square_mesh(8, 8)
        g = fem.FrictionBound.affine(0.9, 0.2)
        mu = np.linspace(0.8, 1.2, len(mesh.elements))
        first = qvi.DiscreteProblem(qvi.ProblemData(mesh, 1.0, 1.0, 0.5, g))
        assert alive == [0, 0]  # the Gram band of c3, then the unit band
        del first
        qvi.DiscreteProblem(qvi.ProblemData(mesh, mu, 1.0, 0.5, g))
        # the release dropped the cache's unit band, and nothing else held it
        assert alive == [0, 0, 0]

    def test_held_scalar_problem_keeps_its_band_only(self, monkeypatch):
        alive = live_bands(monkeypatch)
        mesh = square_mesh(8, 8)
        g = fem.FrictionBound.affine(0.9, 0.2)
        mu = np.linspace(0.8, 1.2, len(mesh.elements))
        first = qvi.DiscreteProblem(qvi.ProblemData(mesh, 1.0, 1.0, 0.5, g))
        element = qvi.DiscreteProblem(qvi.ProblemData(mesh, mu, 1.0, 0.5, g))
        last = qvi.DiscreteProblem(qvi.ProblemData(mesh, 1.0, 1.0, 0.5, g))
        # the released unit band lives on in the first problem only: the
        # last one factors the unit block again
        assert alive == [0, 0, 1, 2]
        assert last.tresca._solve is not first.tresca._solve
        assert element.tresca._solve is not last.tresca._solve
        c = np.full(len(mesh.node_sets["gamma3"]), 0.05)
        fresh = qvi.DiscreteProblem(qvi.ProblemData(square_mesh(8, 8), 1.0, 1.0, 0.5, g))
        F = fem.assemble_load(mesh, 1.0, 0.5)  # the same on both meshes
        for problem in (first, last):
            u = tresca_solve(problem.tresca, F, c)[0]
            assert np.array_equal(u, tresca_solve(fresh.tresca, F, c)[0])


# ---------------------------------------------------------------------------
# friction functional and norms


class TestFrictionBound:
    def test_constant(self):
        g = fem.FrictionBound.constant(2.0)
        assert g.lipschitz == 0.0
        assert np.allclose(g(None, np.array([0.0, 5.0])), 2.0)

    def test_affine(self):
        g = fem.FrictionBound.affine(1.0, 0.5)
        assert g.lipschitz == 0.5
        assert np.allclose(g(None, np.array([-2.0, 4.0])), [2.0, 3.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fem.FrictionBound.constant(-1.0)
        with pytest.raises(ValueError):
            fem.FrictionBound.affine(1.0, -0.1)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: fem.FrictionBound.constant(np.nan), "constant friction bound"),
            (lambda: fem.FrictionBound.affine(np.nan, 0.5), "affine friction coefficients"),
            (lambda: fem.FrictionBound.affine(1.0, np.nan), "affine friction coefficients"),
            (lambda: fem.FrictionBound(lambda x, r: r, np.nan), "Lipschitz rate"),
            (lambda: fem.FrictionBound.constant(1.0).shifted(np.nan, 0.0), "perturbation"),
            (lambda: fem.FrictionBound.constant(1.0).shifted(0.0, np.nan), "perturbation"),
        ],
    )
    def test_rejects_nan(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_lipschitz_spot_check(self):
        rng = np.random.default_rng(RNG_SEED)
        for g in (fem.FrictionBound.affine(0.3, 0.7), fem.FrictionBound.constant(1.2)):
            r1 = rng.uniform(-10, 10, size=200)
            r2 = rng.uniform(-10, 10, size=200)
            gap = np.abs(g(None, r1) - g(None, r2))
            assert np.all(gap <= g.lipschitz * np.abs(r1 - r2) + 1e-12)
            assert np.all(g(None, r1) >= 0.0)

    def test_shifted(self):
        g = fem.FrictionBound.affine(1.0, 0.5).shifted(0.1, 0.05)
        assert np.isclose(g.lipschitz, 0.55)
        assert np.allclose(g(None, np.array([2.0])), [1.0 + 1.0 + 0.1 + 0.1])

    @pytest.mark.parametrize(
        "func",
        [
            lambda x, r: 0.5 + 0.25 * np.abs(r),
            lambda x, r: 0.75,  # a scalar is broadcast to r's shape
            lambda x, r: [1, 2, 3],  # integers, not an array
        ],
        ids=["array", "scalar", "int-list"],
    )
    def test_values_are_those_of_the_broadcast(self, func):
        r = np.array([-1.0, 0.5, 2.0])
        expected = np.broadcast_to(np.asarray(func(None, r), dtype=float), r.shape)
        out = fem.FrictionBound(func, 0.25)(None, r)
        assert out.dtype == float and out.shape == r.shape
        assert np.array_equal(out, expected)

    def test_result_is_a_fresh_array(self):
        stored = np.array([1.0, 2.0])
        r = np.array([0.5, 0.25])
        for func in (lambda x, r: r, lambda x, r: stored):
            out = fem.FrictionBound(func, 1.0)(None, r)
            assert not np.shares_memory(out, r) and not np.shares_memory(out, stored)
            out[:] = -1.0
        assert np.array_equal(r, [0.5, 0.25]) and np.array_equal(stored, [1.0, 2.0])

    def test_wrong_shape_names_the_bound(self):
        g = fem.FrictionBound(lambda x, r: np.ones(len(r) + 1), 0.0, label="too long")
        message = r"friction bound 'too long' returned shape \(4,\), expected \(3,\)"
        with pytest.raises(ValueError, match=message):
            g(None, np.zeros(3))

        def unlabelled(x, r):
            return np.ones(2)

        with pytest.raises(ValueError, match="friction bound 'unlabelled'"):
            fem.FrictionBound(unlabelled, 0.0)(None, np.zeros(3))

    def test_coefficient_callables_name_a_wrong_shape(self):
        mesh = square_mesh(2, 2)

        def body_force(x):
            return np.ones(len(x) + 1)

        message = r"coefficient 'body_force' returned shape \({}\), expected \({}\)"
        with pytest.raises(ValueError, match=message.format("9,", "8,")):
            fem.element_values(mesh, body_force)
        with pytest.raises(ValueError, match=message.format("3,", "2,")):
            fem.facet_values(mesh, "gamma2", body_force)
        # a scalar-valued callable still fills every element
        assert np.array_equal(fem.element_values(mesh, lambda x: 2.0), np.full(8, 2.0))


class TestEvalJ:
    def test_constant_bound_point(self):
        mesh = interval_mesh(4)
        g = fem.FrictionBound.constant(2.0)
        v = np.zeros(5)
        v[4] = 0.5
        eta = np.ones(5)
        assert np.isclose(fem.eval_j(mesh, g, eta, v), 1.0)

    def test_slip_dependent_point(self):
        mesh = interval_mesh(4)
        g = fem.FrictionBound.affine(0.0, 1.0)  # g(x, r) = |r|
        eta = np.zeros(5)
        eta[4] = 3.0
        v = np.zeros(5)
        v[4] = -2.0
        assert np.isclose(fem.eval_j(mesh, g, eta, v), 6.0)

    def test_positive_homogeneous_in_v(self):
        mesh = square_mesh(3, 2)
        g = fem.FrictionBound.affine(0.5, 0.25)
        rng = np.random.default_rng(RNG_SEED)
        eta = rng.standard_normal(mesh.n_nodes)
        v = rng.standard_normal(mesh.n_nodes)
        j1 = fem.eval_j(mesh, g, eta, v)
        assert j1 >= 0.0
        assert np.isclose(fem.eval_j(mesh, g, eta, 3.0 * v), 3.0 * j1)

    def test_matches_boundary_quadrature(self):
        # with g == 1 and v == 1, j equals the measure of gamma3
        mesh = square_mesh(4, 4)
        g = fem.FrictionBound.constant(1.0)
        ones = np.ones(mesh.n_nodes)
        idx = mesh.node_sets["gamma3"]
        assert np.isclose(fem.eval_j(mesh, g, ones, ones), mesh.gamma3_weights[idx].sum())


class TestNorms:
    def test_linear_field_norm_exact(self):
        # ||x||_V^2 = int x^2 + 1 dx = 4/3, exact for the nodal interpolant
        for n in (4, 8, 64):
            mesh = interval_mesh(n)
            v = mesh.nodes.copy()
            assert abs(fem.v_norm(mesh, v) - np.sqrt(4.0 / 3.0)) < 1e-12

    def test_norm_properties(self):
        mesh = square_mesh(3, 3)
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(25):
            a = rng.standard_normal(mesh.n_nodes)
            b = rng.standard_normal(mesh.n_nodes)
            na, nb = fem.v_norm(mesh, a), fem.v_norm(mesh, b)
            assert na > 0.0
            assert fem.v_norm(mesh, a + b) <= na + nb + 1e-12
            assert np.isclose(fem.v_norm(mesh, -2.0 * a), 2.0 * na)

    def test_dual_norm_riesz_identity(self):
        # the functional v -> (z, v)_V has dual norm ||z||_V
        mesh = interval_mesh(16)
        rng = np.random.default_rng(RNG_SEED)
        z = zero_on_gamma1(mesh, rng.standard_normal(mesh.n_nodes))
        F = fem.gram_matrix(mesh) @ z
        assert np.isclose(dual_norm(mesh, F), fem.v_norm(mesh, z), rtol=1e-10)

    def test_space_membership_helpers(self):
        mesh = interval_mesh(4)
        v = np.ones(5)
        assert not in_space(mesh, v)
        w = zero_on_gamma1(mesh, v)
        assert in_space(mesh, w)
        assert w[0] == 0.0 and np.all(w[1:] == 1.0)
