"""P1 finite elements on intervals and structured rectangle meshes.

The domain is an interval (0, Lx) or a rectangle (0, Lx) x (0, Ly).  Its
boundary is split into three tagged parts: ``gamma1`` carries the homogeneous
Dirichlet condition, ``gamma2`` carries a surface traction and ``gamma3``
carries the frictional contact law.  Every boundary face belongs to exactly
one tag; nodes shared by differently tagged faces are resolved with the
priority gamma1 > gamma3 > gamma2 so that Dirichlet constraints always win.

Discrete fields are plain numpy arrays of nodal coefficients.  A field lies
in the discrete working space V_h when its gamma1 coefficients vanish; the
V-norm is the full H1 norm assembled from the consistent mass and unit
stiffness matrices.  Friction terms on gamma3 are integrated with a lumped
(nodal) rule, which keeps the nonsmooth term separable across nodes.

Operators that depend only on the mesh are built once per mesh and kept
in a per-mesh cache (``cached``), weakly held so that it goes with the
mesh: the element geometry, the element gradient products and the
scatter pattern of the assembly, the mass and H1 Gram matrices, the
stiffness matrix of a scalar modulus keyed on its value (one entry for
mu = 1, which is also the unit stiffness, and one for the last other
scalar modulus), the band layout that the factors of all free blocks
share (``free_factor``), one band factor, that of the free block of the
unit stiffness with the gamma3 block of its inverse (``free_block``,
until ``release_free_block``), the constants (c0, c3) of
``constants.space_constants`` and the solver's index of
``qvi.mesh_index``, which depend on the mesh alone.
Cached arrays are read-only.
Every symmetric positive definite block is factored by ``spd_factor`` in
a band order: with LAPACK's tridiagonal LDL' kernels where that band is
tridiagonal (the free block of an interval), with its banded Cholesky
otherwise.
``assemble_stiffness`` itself always assembles; ``stiffness_matrix`` is
its cached form, which checks the modulus and its floor on every call.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotri, dpttrf, dpttrs
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
from scipy.sparse.csgraph import breadth_first_order, reverse_cuthill_mckee

GAMMA1 = "gamma1"
GAMMA2 = "gamma2"
GAMMA3 = "gamma3"
TAGS = (GAMMA1, GAMMA2, GAMMA3)

SIDES_1D = ("left", "right")
SIDES_2D = ("left", "right", "bottom", "top")


class MeshError(ValueError):
    """Raised for inconsistent mesh specifications."""


class FactorizationError(np.linalg.LinAlgError):
    """Raised when a matrix given to ``spd_factor`` is not positive definite."""


@dataclass(frozen=True)
class MeshSpec:
    """Parameters of a structured mesh.

    Parameters
    ----------
    dimension : int
        1 for an interval, 2 for a rectangle.
    extents : tuple of float
        Side lengths, one value per dimension.
    resolution : tuple of int
        Number of elements per direction (cells are split into two
        triangles in 2D, along a fixed diagonal).
    partition : dict
        Maps every side name ("left", "right" and, in 2D, "bottom",
        "top") to one of the boundary tags.
    """

    dimension: int
    extents: tuple[float, ...]
    resolution: tuple[int, ...]
    partition: dict[str, str]

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise MeshError(f"dimension must be 1 or 2, got {self.dimension}")
        sides = SIDES_1D if self.dimension == 1 else SIDES_2D
        if len(self.extents) != self.dimension:
            raise MeshError("extents must provide one length per dimension")
        if len(self.resolution) != self.dimension:
            raise MeshError("resolution must provide one count per dimension")
        if any(e <= 0 for e in self.extents):
            raise MeshError("extents must be positive")
        if not np.isfinite(self.extents).all():
            raise MeshError(f"extents must be finite, got {self.extents}")
        if any(int(r) < 1 for r in self.resolution):
            raise MeshError("resolution must be at least one element per direction")
        if not all(
            isinstance(r, (int, np.integer)) and not isinstance(r, bool) for r in self.resolution
        ):
            raise MeshError(f"resolution must be integers, got {self.resolution}")
        unknown = [s for s in self.partition if s not in sides]
        if unknown:
            raise MeshError(f"partition names unknown sides: {unknown}")
        missing = [s for s in sides if s not in self.partition]
        if missing:
            raise MeshError(f"partition misses sides: {missing}")
        bad = [t for t in self.partition.values() if t not in TAGS]
        if bad:
            raise MeshError(f"partition uses unknown tags: {bad}")
        if GAMMA1 not in self.partition.values():
            raise MeshError("at least one side must carry the gamma1 tag")


@dataclass(eq=False)
class Mesh:
    """Assembled structured mesh with tagged boundary data.

    Attributes
    ----------
    nodes : ndarray
        Shape (n,) in 1D, (n, 2) in 2D.
    elements : ndarray of int
        Shape (m, 2) segments or (m, 3) triangles.
    facets : dict
        Per tag, the boundary faces: node indices (k,) in 1D, edge node
        pairs (k, 2) in 2D.  Faces keep the order of the sides they come
        from, so facet lists are deterministic.
    node_sets : dict
        Per tag, the sorted node indices, deduplicated with priority
        gamma1 > gamma3 > gamma2.
    gamma3_weights : ndarray
        Lumped boundary quadrature weight per node (zero off gamma3
        faces); a point on the 1D boundary carries weight one.
    free_nodes : ndarray of int
        All nodes without a Dirichlet constraint.
    """

    spec: MeshSpec
    nodes: np.ndarray
    elements: np.ndarray
    facets: dict[str, np.ndarray]
    node_sets: dict[str, np.ndarray]
    gamma3_weights: np.ndarray
    free_nodes: np.ndarray

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def build_mesh(spec: MeshSpec) -> Mesh:
    """Build the structured mesh described by ``spec``."""
    if spec.dimension == 1:
        mesh = _build_interval(spec)
    else:
        mesh = _build_rectangle(spec)
    for arr in (mesh.nodes, mesh.elements, mesh.gamma3_weights, mesh.free_nodes):
        arr.flags.writeable = False
    return mesh


def _build_interval(spec: MeshSpec) -> Mesh:
    (length,) = spec.extents
    (n,) = spec.resolution
    nodes = np.linspace(0.0, length, n + 1)
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)]).astype(np.int64)
    side_faces = {"left": np.array([0]), "right": np.array([n])}
    return _finish_mesh(spec, nodes, elements, side_faces)


def _build_rectangle(spec: MeshSpec) -> Mesh:
    lx, ly = spec.extents
    nx, ny = spec.resolution
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    xx, yy = np.meshgrid(xs, ys)
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    ids = np.arange(len(nodes), dtype=np.int64).reshape(ny + 1, nx + 1)  # ids[iy, ix]
    a, b = ids[:-1, :-1].ravel(), ids[:-1, 1:].ravel()
    c, d = ids[1:, 1:].ravel(), ids[1:, :-1].ravel()
    # triangles (a, b, c) and (a, c, d) cell by cell, row by row; the fixed
    # diagonal a-c keeps the triangulation deterministic
    elements = np.column_stack([a, b, c, a, c, d]).reshape(-1, 3)

    def edges(line):
        return np.column_stack([line[:-1], line[1:]])

    side_faces = {
        "left": edges(ids[:, 0]),
        "right": edges(ids[:, -1]),
        "bottom": edges(ids[0]),
        "top": edges(ids[-1]),
    }
    return _finish_mesh(spec, nodes, elements, side_faces)


def _finish_mesh(spec, nodes, elements, side_faces) -> Mesh:
    sides = SIDES_1D if spec.dimension == 1 else SIDES_2D
    empty = np.zeros((0,) if spec.dimension == 1 else (0, 2), dtype=np.int64)
    facets = {tag: [] for tag in TAGS}
    for side in sides:
        facets[spec.partition[side]].append(np.atleast_1d(side_faces[side]))
    facets = {
        tag: (np.concatenate(chunks) if chunks else empty).astype(np.int64)
        for tag, chunks in facets.items()
    }

    taken = np.zeros(len(nodes), dtype=bool)
    node_sets = {}
    for tag in (GAMMA1, GAMMA3, GAMMA2):  # priority order
        on = np.zeros(len(nodes), dtype=bool)
        on[facets[tag].ravel()] = True
        node_sets[tag] = np.flatnonzero(on & ~taken)
        taken |= on
        if tag == GAMMA1:
            free = np.flatnonzero(~on)

    weights = np.zeros(len(nodes))
    g3 = facets[GAMMA3]
    if spec.dimension == 1:
        weights[g3] += 1.0  # point measure on the interval boundary
    else:
        half = 0.5 * np.linalg.norm(nodes[g3[:, 1]] - nodes[g3[:, 0]], axis=1)
        np.add.at(weights, g3, half[:, None])

    return Mesh(spec, nodes, elements, facets, node_sets, weights, free)


# ---------------------------------------------------------------------------
# coefficient sampling

def element_midpoints(mesh: Mesh) -> np.ndarray:
    """Midpoints (1D) or centroids (2D) of all elements."""
    return mesh.nodes[mesh.elements].mean(axis=1)


def _fresh(values, shape: tuple, source) -> np.ndarray:
    """New float array of ``values`` broadcast to ``shape``; a ValueError
    naming ``source``, the callable that returned them, when they do not fit."""
    out = np.array(values, dtype=float)
    if out.shape == shape:
        return out
    try:
        return np.broadcast_to(out, shape).copy()
    except ValueError:
        if isinstance(source, FrictionBound):
            name = f"friction bound {source.label or getattr(source.func, '__name__', '')!r}"
        else:
            name = f"coefficient {getattr(source, '__name__', source)!r}"
        raise ValueError(f"{name} returned shape {out.shape}, expected {shape}") from None


def _sample(data, m: int, points, what: str) -> np.ndarray:
    """``data`` at m points: a scalar fills them, a callable is evaluated at
    ``points()``, and an array must hold one value per point (a ValueError
    naming ``what`` otherwise)."""
    if callable(data):
        return _fresh(data(points()), (m,), data)
    if np.ndim(data) == 0:
        return np.full(m, float(data))
    out = np.asarray(data, dtype=float)
    if out.shape != (m,):
        raise ValueError(f"expected {m} {what} values, got shape {out.shape}")
    return out


def element_values(mesh: Mesh, data) -> np.ndarray:
    """Sample a coefficient at the element midpoints.

    ``data`` may be a scalar, a callable of the midpoint coordinates, or
    an array with one value per element.
    """
    return _sample(data, len(mesh.elements), lambda: element_midpoints(mesh), "element")


def _facet_midpoints(mesh: Mesh, tag: str) -> np.ndarray:
    faces = mesh.facets[tag]
    if mesh.dimension == 1:
        return mesh.nodes[faces]
    return mesh.nodes[faces].mean(axis=1)


def facet_values(mesh: Mesh, tag: str, data) -> np.ndarray:
    """Sample a boundary coefficient at the facet midpoints of ``tag``."""
    return _sample(data, len(mesh.facets[tag]), lambda: _facet_midpoints(mesh, tag), "facet")


def node_values(mesh: Mesh, data) -> np.ndarray:
    """Sample a field at the nodes, like ``element_values``."""
    return _sample(data, mesh.n_nodes, lambda: mesh.nodes, "nodal")


def require_finite(name: str, values: np.ndarray, nodes=None, what: str = "node") -> None:
    """ValueError naming ``name``, the first non-finite entry of ``values``
    and its index (``nodes[i]``, or i itself when ``nodes`` is None), called
    a ``what``."""
    if not np.isfinite(values).all():
        i = int(np.flatnonzero(~np.isfinite(values))[0])
        node = i if nodes is None else nodes[i]
        raise ValueError(f"{name} must be finite, got {values[i]} at {what} {node}")


def require_count(name: str, value) -> None:
    """ValueError naming ``name`` unless ``value`` is an integer (numpy
    integers included, bools not) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def facet_measures(mesh: Mesh, tag: str) -> np.ndarray:
    """Measure of each boundary facet of ``tag``: edge lengths in 2D,
    the unit point measure on interval endpoints in 1D."""
    faces = mesh.facets[tag]
    if mesh.dimension == 1:
        return np.ones(len(faces))
    return np.linalg.norm(mesh.nodes[faces[:, 1]] - mesh.nodes[faces[:, 0]], axis=1)


# ---------------------------------------------------------------------------
# assembly

def assemble_stiffness(mesh: Mesh, mu, mu_star: float | None = None) -> sp.csr_matrix:
    """Assemble the weighted stiffness matrix K[i,j] = (mu grad phi_j, grad phi_i).

    The shear modulus ``mu`` is sampled at element midpoints and must stay
    finite and positive; when ``mu_star`` is given, values below it are
    rejected (ValueError naming the value).  The element matrices
    mu_e meas_e grad phi_a . grad phi_b of all elements are formed at
    once and summed in one sparse scatter.  Assembles on every call;
    ``stiffness_matrix`` is the cached form.
    """
    return _assemble_gradient_form(mesh, modulus_values(mesh, mu, mu_star))


def modulus_values(mesh: Mesh, mu, mu_star: float | None = None) -> np.ndarray:
    """``element_values`` of the modulus mu; ValueError unless they are
    finite, positive and at least ``mu_star``."""
    mu_e = element_values(mesh, mu)
    bad = mu_e[~np.isfinite(mu_e)]
    if len(bad):
        raise ValueError(f"shear modulus must be finite, sampled value {bad[0]}")
    low = float(mu_e.min())
    if low <= 0.0:
        raise ValueError(f"shear modulus must be positive, min sampled value {low}")
    if mu_star is not None and low < mu_star - 1e-14:
        raise ValueError(f"shear modulus drops to {low}, below the floor {mu_star}")
    return mu_e


_FORM_CACHE: "weakref.WeakKeyDictionary[Mesh, dict]" = weakref.WeakKeyDictionary()


def cached(mesh: Mesh, key, build):
    """Entry ``key`` (hashable) of the mesh's cache, made by ``build()`` on a miss."""
    cache = _FORM_CACHE.setdefault(mesh, {})
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _read_only(A):
    """Mark the arrays of a cached matrix (or array) read-only; returns A."""
    for arr in (A.data, A.indices, A.indptr) if sp.issparse(A) else (A,):
        arr.flags.writeable = False
    return A


def _element_geometry(mesh: Mesh):
    """Measure and basis gradients of every element, cached per mesh.

    Returns (meas, grads) with grads[e, a] the gradient of the a-th local
    basis function, shape (m, k, d): lengths and -+1/h in 1D, areas and
    (b_a, c_a) / 2A in 2D.
    """
    return cached(mesh, "geometry", lambda: tuple(map(_read_only, _geometry(mesh))))


def _geometry(mesh: Mesh):
    pts = mesh.nodes[mesh.elements]
    if mesh.dimension == 1:
        h = pts[:, 1] - pts[:, 0]
        return h, np.stack([-1.0 / h, 1.0 / h], axis=1)[:, :, None]
    x, y = pts[:, :, 0], pts[:, :, 1]
    b = y[:, [1, 2, 0]] - y[:, [2, 0, 1]]
    c = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    area = 0.5 * np.abs(b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    return area, np.stack([b, c], axis=2) / (2.0 * area)[:, None, None]


def _scatter(mesh: Mesh, local: np.ndarray) -> sp.csr_matrix:
    """Sum local (m, k, k) element matrices into the global sparse matrix.

    The COO row and column arrays depend on the mesh only and are cached.
    """
    rows, cols = cached(mesh, "scatter", lambda: _scatter_pattern(mesh))
    n = mesh.n_nodes
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _scatter_pattern(mesh: Mesh):
    """Global (row, column) of every local matrix entry, row-major per element."""
    k = mesh.elements.shape[1]
    rows = np.repeat(mesh.elements, k, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, k)).ravel()
    return _read_only(rows), _read_only(cols)


def _gradient_products(mesh: Mesh) -> np.ndarray:
    """grad phi_a . grad phi_b of every element, shape (m, k, k), cached per mesh."""
    _, grads = _element_geometry(mesh)
    return cached(
        mesh, "gradient_products", lambda: _read_only(np.einsum("eid,ejd->eij", grads, grads))
    )


def _assemble_gradient_form(mesh: Mesh, coef_e: np.ndarray) -> sp.csr_matrix:
    meas, _ = _element_geometry(mesh)
    return _scatter(mesh, (coef_e * meas)[:, None, None] * _gradient_products(mesh))


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Assemble the consistent mass matrix M[i,j] = (phi_j, phi_i).

    The element matrix of a k-vertex simplex is
    meas (1 + delta_ab) / (k (k + 1)), summed like the stiffness.
    """
    meas, _ = _element_geometry(mesh)
    k = mesh.elements.shape[1]
    base = (np.ones((k, k)) + np.eye(k)) / (k * (k + 1))
    return _scatter(mesh, meas[:, None, None] * base)


def assemble_load(mesh: Mesh, f0, f2=None) -> np.ndarray:
    """Assemble the load vector of the body force and the gamma2 traction.

    ``f0`` is sampled at element midpoints and each element's share
    f0_e meas_e is split equally among its vertices; ``f2`` is sampled at
    gamma2 facet midpoints.  A 1D gamma2 point carries the point measure,
    so its value enters the load with weight one.
    """
    import warnings

    F = np.zeros(mesh.n_nodes)
    f0_e = element_values(mesh, f0)
    meas, _ = _element_geometry(mesh)
    k = mesh.elements.shape[1]
    for a in range(k):
        np.add.at(F, mesh.elements[:, a], f0_e * meas / k)

    if f2 is not None:
        faces = mesh.facets[GAMMA2]
        if len(faces) == 0:
            val = f2 if np.ndim(f2) == 0 else np.asarray(f2)
            nonzero = (callable(f2) or np.any(np.asarray(val) != 0.0))
            if nonzero:
                warnings.warn("traction given but gamma2 is empty; it is ignored")
            return F
        # each facet's share f2_f meas_f is split equally among its nodes
        ends = faces.reshape(len(faces), -1)
        share = facet_values(mesh, GAMMA2, f2) * facet_measures(mesh, GAMMA2) / ends.shape[1]
        for a in range(ends.shape[1]):
            np.add.at(F, ends[:, a], share)
    return F


# ---------------------------------------------------------------------------
# friction bound

@dataclass(frozen=True)
class FrictionBound:
    """Slip-dependent friction bound g(x, r) with a declared Lipschitz rate.

    ``func(points, r)`` must be vectorized over gamma3 nodes, nonnegative,
    and Lipschitz in r with constant at most ``lipschitz``.
    """

    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lipschitz: float
    label: str = ""

    def __post_init__(self):
        if not self.lipschitz >= 0.0:  # refuses NaN too, as do the checks below
            raise ValueError("Lipschitz rate must be nonnegative")

    def __call__(self, points: np.ndarray, r: np.ndarray) -> np.ndarray:
        """A new float array of g(points, r), shaped like r."""
        r = np.asarray(r, dtype=float)
        return _fresh(self.func(points, r), r.shape, self)

    @classmethod
    def constant(cls, c: float) -> "FrictionBound":
        if not c >= 0.0:
            raise ValueError("constant friction bound must be nonnegative")
        return cls(lambda x, r: np.full_like(r, float(c)), 0.0, label=f"{c}")

    @classmethod
    def affine(cls, a: float, b: float) -> "FrictionBound":
        """Bound a + b*|r|, nonnegative for a, b >= 0."""
        if not (a >= 0.0 and b >= 0.0):
            raise ValueError("affine friction coefficients must be nonnegative")
        return cls(lambda x, r: a + b * np.abs(r), float(b), label=f"{a}+{b}|r|")

    def shifted(self, da: float, db: float) -> "FrictionBound":
        """Perturbed bound g(x, r) + da + db*|r| (da, db >= 0); self for 0, 0."""
        if not (da >= 0.0 and db >= 0.0):
            raise ValueError("perturbation coefficients must be nonnegative")
        if da == 0.0 and db == 0.0:
            return self
        return FrictionBound(
            lambda x, r: self(x, r) + da + db * np.abs(r),
            self.lipschitz + db,
            label=f"({self.label})+{da}+{db}|r|",
        )


def eval_j(mesh: Mesh, g: FrictionBound, eta: np.ndarray, v: np.ndarray) -> float:
    """Lumped friction functional j(eta, v) = sum_i w_i g(x_i, |eta_i|) |v_i|;
    ValueError when the bound is not finite or negative on gamma3."""
    idx = mesh.node_sets[GAMMA3]
    if len(idx) == 0:
        return 0.0
    w = mesh.gamma3_weights[idx]
    G = g(mesh.nodes[idx], np.abs(eta[idx]))
    require_finite("friction bound", G, idx)
    if np.any(G < -1e-14):
        raise ValueError("friction bound took a negative value on gamma3")
    return float(np.sum(w * G * np.abs(v[idx])))


# ---------------------------------------------------------------------------
# blocks and SPD factorization

def submatrix(A, rows, cols) -> sp.csr_matrix:
    """The block of a sparse matrix A on ``rows`` and ``cols``, as CSR.

    ``rows`` and ``cols`` are sorted arrays of distinct indices.  The block
    is cut in one pass over the index arrays of A in CSR form and keeps
    its entry order, so data, indices and indptr equal those of scipy's
    chained fancy indexing (rows first, then columns) without its
    intermediate copy and index checks.
    """
    A = A.tocsr()
    n_rows, n_cols = A.shape
    row_pos = np.full(n_rows, -1)
    row_pos[rows] = np.arange(len(rows))
    col_pos = np.full(n_cols, -1)
    col_pos[cols] = np.arange(len(cols))
    entry_row = row_pos[np.repeat(np.arange(n_rows), np.diff(A.indptr))]
    entry_col = col_pos[A.indices]
    keep = (entry_row >= 0) & (entry_col >= 0)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(entry_row[keep], minlength=len(rows)))))
    return sp.csr_matrix((A.data[keep], entry_col[keep], indptr), shape=(len(rows), len(cols)))


def _band_order(A, last: np.ndarray) -> np.ndarray:
    """Band ordering of the symmetric sparse A (CSR) with the rows ``last`` last.

    Without ``last`` it is the reverse Cuthill-McKee order (none for an
    empty A).  Otherwise the breadth-first levels from a virtual node
    joined to ``last`` (an extra CSR row) are reversed, so ``last`` fills
    the tail; rows the search does not reach come first.
    """
    n = A.shape[0]
    if len(last) == 0:
        return reverse_cuthill_mckee(A, symmetric_mode=True) if n else np.arange(0)
    indptr = np.append(A.indptr, A.nnz + len(last))
    graph = sp.csr_matrix(
        (np.ones(indptr[-1]), np.concatenate((A.indices, last)), indptr), shape=(n + 1, n + 1)
    )
    order = breadth_first_order(graph, n, return_predecessors=False)[:0:-1]
    reached = np.zeros(n, dtype=bool)
    reached[order] = True
    return np.concatenate((np.flatnonzero(~reached), order))


@dataclass(frozen=True, eq=False)
class BandLayout:
    """Where ``spd_factor`` puts the entries of a sparse symmetric matrix.

    It holds the CSR pattern it was made for (``indptr``, ``indices``),
    the band order ``perm`` of ``_band_order`` with the rows ``last``
    last and its ``inverse``, the mask ``upper`` of the entries on or
    above the diagonal in that order, the half bandwidth ``kd`` (1 for a
    tridiagonal band, on which ``spd_factor`` runs its tridiagonal
    kernels) and the flat (Fortran-order) band position ``at`` of each
    upper entry; for Z = (A^-1)[last, last], the flat positions
    ``z_band`` of the trailing block's upper triangle within the band,
    their flat places ``z_at`` in the m x m block, and ``z_take``, the
    rows of ``last`` in that block.  All are integer or boolean arrays of
    O(nnz) entries.
    """

    indptr: np.ndarray
    indices: np.ndarray
    perm: np.ndarray
    inverse: np.ndarray
    upper: np.ndarray
    kd: int
    at: np.ndarray
    z_band: np.ndarray
    z_at: np.ndarray
    z_take: np.ndarray


def _canonical(A) -> sp.csr_matrix:
    """A as CSR with sorted indices and no duplicates; a copy only when A
    is not already so."""
    A = sp.csr_matrix(A)
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    return A


def band_layout(A, last=()) -> BandLayout:
    """The ``BandLayout`` of the pattern of the sparse symmetric A with the
    rows ``last`` last; it depends on the positions of the entries only."""
    A = _canonical(A)
    last = np.asarray(last, dtype=np.int64)
    n, m = A.shape[0], len(last)
    perm = _band_order(A, last)
    inverse = np.argsort(perm)
    i = inverse[np.repeat(np.arange(n), np.diff(A.indptr))]
    j = inverse[A.indices]
    upper = i <= j
    i, j = i[upper], j[upper]
    kd = int(np.max(j - i, initial=0))
    row, col = np.triu_indices(m)
    near = col - row <= kd
    row, col = row[near], col[near]
    return BandLayout(
        A.indptr, A.indices, perm, inverse, upper, kd,
        at=kd + i - j + (kd + 1) * j,
        z_band=kd + row - col + (kd + 1) * (n - m + col),
        z_at=row * m + col,
        z_take=inverse[last] - (n - m),
    )


def spd_factor(A, layout: BandLayout):
    """Band factorization of a sparse symmetric positive definite A.

    ``layout``, a ``band_layout`` of A's pattern that several matrices
    may share, orders the rows into a narrow band with its rows ``last``
    last (ValueError when A's CSR pattern is not the layout's).  The
    entries of A on or above the diagonal of the reordered matrix are
    packed in LAPACK upper band storage; A itself is left unchanged.  The
    layout's half bandwidth ``kd`` picks the kernel: a tridiagonal band
    (kd = 1, the free block of an interval) is factored LDL' by
    ``dpttrf`` and solved by ``dpttrs``, any other band is factored U'U
    by the banded Cholesky ``dpbtrf`` and solved by ``dpbtrs``, whose one
    BLAS call per column outweighs the arithmetic of a tridiagonal band
    (22 against 9 us a solve at 1,024 rows, 1 BLAS thread, 2-vCPU host).

    Returns (solve, Z): ``solve(b)`` for a vector or an (n, k) array b
    permutes b, calls the band solve and undoes the permutation; Z =
    (A^-1)[last, last] in the order of ``last``.  The trailing block U_TT
    of the Cholesky factor U (for kd = 1, D^1/2 L' of dpttrf's factors)
    satisfies U_TT'U_TT = A_TT - A_TS A_SS^-1 A_ST (the Schur complement,
    George-Liu 1981), so ``dpotri`` on U_TT gives Z with no solve.  Raises
    FactorizationError on a nonpositive pivot.
    """
    A = _canonical(A)
    n = A.shape[0]
    if n == 0:
        return (lambda b: np.array(b, dtype=float)), np.zeros((0, 0))
    if not (
        np.array_equal(A.indptr, layout.indptr) and np.array_equal(A.indices, layout.indices)
    ):
        raise ValueError("the matrix's sparsity pattern is not the one of the band layout")
    perm, inverse, kd = layout.perm, layout.inverse, layout.kd
    band = np.zeros((kd + 1) * n)  # upper band storage, flat in Fortran order
    band[layout.at] = A.data[layout.upper]
    if kd == 1:  # the diagonal band[1::2] and the superdiagonal band[2::2]
        d, e, info = dpttrf(band[1::2], band[2::2])
        kernel = lambda b: dpttrs(d, e, b, overwrite_b=1)[0]
    else:
        chol, info = dpbtrf(band.reshape((kd + 1, n), order="F"), overwrite_ab=1)
        kernel = lambda b: dpbtrs(chol, b, overwrite_b=1)[0]
    if info > 0:
        raise FactorizationError(
            f"matrix is not positive definite (pivot {info} of {n} in band order)"
        )

    def solve(b):
        return kernel(np.asarray(b, dtype=float)[perm])[inverse]

    m = len(layout.z_take)
    Z = np.zeros((m, m))
    if m:
        if kd == 1:  # U = D^1/2 L' in the band
            band[1::2] = np.sqrt(d)
            band[2::2] = band[1:-1:2] * e
        else:
            band = chol.reshape(-1, order="F")
        Z.flat[layout.z_at] = band[layout.z_band]  # U_TT
        Z = dpotri(Z)[0]  # its upper triangle
        Z = np.triu(Z) + np.triu(Z, 1).T
        Z = Z[np.ix_(layout.z_take, layout.z_take)]
    return solve, Z


# ---------------------------------------------------------------------------
# cached forms and norms

def stiffness_matrix(mesh: Mesh, mu, mu_star: float | None = None) -> sp.csr_matrix:
    """``assemble_stiffness(mesh, mu, mu_star)``, cached per mesh for a scalar mu.

    ``mu`` and ``mu_star`` are checked on every call, hit or miss.  A
    scalar modulus is kept under its value: mu = 1 is the unit stiffness
    of the norms and constants, and one more entry holds the last other
    scalar modulus, so the cache does not grow with the number of moduli
    used.  The cached matrix is read-only.  A per-element array or a
    callable mu is assembled afresh on every call.
    """
    if callable(mu) or np.ndim(mu) != 0:
        return assemble_stiffness(mesh, mu, mu_star)
    mu = float(mu)
    modulus_values(mesh, mu, mu_star)
    moduli = cached(mesh, "stiffness", dict)
    if mu not in moduli:
        if mu != 1.0:  # keep the unit modulus and the last other one
            for old in [m for m in moduli if m != 1.0]:
                del moduli[old]
        moduli[mu] = _read_only(assemble_stiffness(mesh, mu))
    return moduli[mu]


def mass_matrix(mesh: Mesh) -> sp.csr_matrix:
    return cached(mesh, "mass", lambda: _read_only(assemble_mass(mesh)))


def gram_matrix(mesh: Mesh) -> sp.csr_matrix:
    """Matrix of the full H1 inner product (mass + unit stiffness)."""
    return cached(
        mesh, "gram", lambda: _read_only((mass_matrix(mesh) + stiffness_matrix(mesh, 1.0)).tocsr())
    )


def csr_product(A):
    """x -> A @ x for a sparse matrix A, taken as float64 CSR, and a vector
    x of A.shape[1] entries (ValueError for another shape), bitwise
    ``A @ x``: it calls the kernel that ``@`` calls after its operator
    dispatch, which takes about 3 us a product (4.7 against 1.4 us for the
    Gram matrix of a 4x4 mesh, timeit, 2-vCPU host).  The kernel casts an
    integer or strided x as ``@`` does; callers with a vector from outside
    pass it as a contiguous float64 array."""
    A = A.tocsr().astype(float, copy=False)
    n, m = A.shape
    indptr, indices, data = A.indptr, A.indices, A.data

    def product(x):
        if x.shape != (m,):
            raise ValueError(f"expected a vector of {m} entries, got shape {x.shape}")
        y = np.zeros(n)
        _csr_matvec(n, m, indptr, indices, data, x, y)
        return y

    return product


def v_norm(mesh: Mesh, v: np.ndarray) -> float:
    """Full H1 norm of a nodal field, consistent element quadrature."""
    v = np.ascontiguousarray(v, dtype=float)
    return float(np.sqrt(max(v @ csr_product(gram_matrix(mesh))(v), 0.0)))


def free_factor(mesh: Mesh, A):
    """(A_ff, solve, Z): the block of A on the free nodes and its
    ``spd_factor`` with the gamma3 nodes last, for A of the mesh's element
    pattern (an H1 form or a stiffness matrix).  The band layout is made
    once per mesh, from the first block factored, and kept in the mesh's
    cache for the others; ValueError when A's free block has another
    pattern."""
    free = mesh.free_nodes
    block = submatrix(A, free, free)
    last = np.searchsorted(free, mesh.node_sets[GAMMA3])
    layout = cached(mesh, "band layout", lambda: band_layout(block, last))
    return (block, *spd_factor(block, layout))


def free_block(mesh: Mesh):
    """(S_ff, solve, Z): the block on the free nodes of the unit stiffness,
    its band factor's ``solve`` and the gamma3 part Z = (S_ff^-1)_TT of its
    inverse, made by ``free_factor`` once per mesh and kept in the mesh's
    cache until ``release_free_block``.  The arrays are read-only.  Raises
    MeshError when every node is clamped."""
    if len(mesh.free_nodes) == 0:
        raise MeshError("no free node: every node lies on gamma1")

    def build():
        block, solve, Z = free_factor(mesh, stiffness_matrix(mesh, 1.0))
        return _read_only(block), solve, _read_only(Z)

    return cached(mesh, "free block", build)


def release_free_block(mesh: Mesh) -> None:
    """Drop the mesh's cached ``free_block``: its band factor goes once no
    solver holds its ``solve``, and the next ``free_block`` call cuts and
    factors the block again."""
    _FORM_CACHE.get(mesh, {}).pop("free block", None)
