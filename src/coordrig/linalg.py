"""Rigidity matrices in floats and over GF(q), motions and stresses.

``rigidity_matrix`` returns R(p) as an m x dn numpy array and
``coordinated_matrix`` returns [R(p) | 1(c)] as an m x (dn + k) array, rows
in canonical edge order; from them come motions, stresses, load
resolutions and the projection Gram matrix of the coordination criterion.
One private row builder fills R(p) and the loads: an edge's load is its
row of R(p) and a class's load the sum of its rows, so a load never
builds the whole matrix.  A load is in equilibrium when it is orthogonal
to the trivial motions, the rows of ``trivial_motion_generators``: the
translations give the net force and the rotations the net torque.
``modular_matrix`` returns the same matrix as a tuple of int rows over
GF(q), with q fixed at MODULUS = 2^30 - 35, for exact ranks and kernels:
the largest prime below 2^30, so that every entry, pivot inverse and
multiplier is a one-digit CPython int.
Each float routine imports numpy in its body, so numpy is loaded by the
first float call and never by the exact routines or by code that uses
only them.
Random sampling always takes an explicit seed and parallel trials must
derive their seeds as root_seed + trial_index.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cgraph import ColouredGraph

if TYPE_CHECKING:
    import numpy as np

MODULUS = (1 << 30) - 35  # the largest prime below 2^30

Edge = tuple[int, int]


# ---------------------------------------------------------------------------
# configurations


def as_points(p, n: int) -> np.ndarray:
    """Coerce to an (n, d) float array of finite points, one per vertex."""
    import numpy as np
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != n:
        raise ValueError(f"expected {n} points, got array of shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    return arr


def random_configuration(n: int, d: int, seed: int) -> np.ndarray:
    """Deterministic float configuration with coordinates in (0, 1)."""
    import numpy as np
    rng = random.Random(seed)
    return np.array([[rng.random() for _ in range(d)] for _ in range(n)])


def sample_modular_configuration(n: int, d: int, seed: int):
    """Integer configuration for ``modular_matrix``, coordinates in [1, MODULUS - 1]."""
    rng = random.Random(seed)
    return [[rng.randrange(1, MODULUS) for _ in range(d)] for _ in range(n)]


# ---------------------------------------------------------------------------
# matrix construction


def indicator_matrix(g: ColouredGraph) -> np.ndarray:
    """The m x k matrix whose columns are the class characteristic vectors."""
    import numpy as np
    ind = np.zeros((g.m, g.k))
    for row, c in enumerate(g.colours):
        if c >= 1:
            ind[row, c - 1] = 1.0
    return ind


def _rigidity_rows(pts: np.ndarray, edges) -> np.ndarray:
    """The rows of R(p) for ``edges``, in that order: p(i) - p(j) on i's
    column block and p(j) - p(i) on j's."""
    import numpy as np
    n, d = pts.shape
    I, J = np.array(edges, dtype=int).reshape(-1, 2).T
    R = np.zeros((len(I), n, d))  # R[row, i] is vertex i's column block
    rows = np.arange(len(I))
    diff = pts[I] - pts[J]
    R[rows, I] = diff
    R[rows, J] = -diff
    return R.reshape(len(I), d * n)


def rigidity_matrix(g: ColouredGraph, p) -> np.ndarray:
    """The m x dn float rigidity matrix R(p) of the underlying bar framework.

    Row for edge {i, j} carries p(i) - p(j) on i's column block and
    p(j) - p(i) on j's block; the kernel is the space of infinitesimal
    motions of (G, p).  An edge with coincident endpoints gives a zero row.
    """
    return _rigidity_rows(as_points(p, g.n), g.edges)


def coordinated_matrix(g: ColouredGraph, p) -> np.ndarray:
    """The m x (dn + k) float matrix [R(p) | 1(c)]: R(p) followed by the k
    class-indicator columns (R(p) itself when k = 0)."""
    import numpy as np
    return np.hstack([rigidity_matrix(g, p), indicator_matrix(g)])


def modular_matrix(
    g: ColouredGraph, p, d: int, k: int = 0, positions=None
) -> tuple[tuple[int, ...], ...]:
    """R(p) over GF(MODULUS) at an integer configuration, as a tuple of int
    rows, one per edge, or one per edge position in ``positions`` in that
    order; with k = g.k the k class-indicator columns follow."""
    q = MODULUS
    n = g.n
    if positions is None:
        positions = range(g.m)
    rows = []
    for e in positions:
        (i, j), c = g.edges[e], g.colours[e]
        r = [0] * (d * n + k)
        for a in range(d):
            diff = (p[i][a] - p[j][a]) % q
            r[d * i + a] = diff
            r[d * j + a] = (-diff) % q
        if k and c >= 1:
            r[d * n + c - 1] = 1
        rows.append(tuple(r))
    return tuple(rows)


# ---------------------------------------------------------------------------
# rank and kernels


def _numerical_rank(s: np.ndarray, shape, tol: float | None = None) -> int:
    """Number of singular values ``s`` (descending) of a matrix of ``shape``
    above ``tol``, by default the standard cut max(shape) * eps * s[0]."""
    import numpy as np
    if tol is None:
        tol = max(shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    return int(np.sum(s > tol))


def float_rank(A: np.ndarray, tol: float | None = None) -> int:
    import numpy as np
    if A.size == 0:
        return 0
    return _numerical_rank(np.linalg.svd(A, compute_uv=False), A.shape, tol)


def _row_reduce(rows) -> tuple[list[int], list[list[int]]]:
    """Gaussian elimination over GF(MODULUS) for every modular rank and kernel.

    One forward pass over rows with entries in [0, MODULUS).  Returns the
    pivot columns and the unit-pivot echelon rows, each zero left of its
    pivot.  A pivot row updates the rows below it only in the columns where
    it is nonzero, so sparse matrices such as R(p) and R(p)ᵀ cost far less
    than their size.
    """
    q = MODULUS
    work = [list(r) for r in rows if any(r)]
    pivots: list[int] = []
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        top = len(pivots)
        if top == len(work):
            break
        piv = next((i for i in range(top, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[top], work[piv] = work[piv], work[top]
        prow = work[top]
        inv = pow(prow[c], -1, q)
        prow[c] = 1
        support = []
        for j in range(c + 1, ncols):
            if prow[j]:
                prow[j] = prow[j] * inv % q
                support.append((j, prow[j]))
        for i in range(top + 1, len(work)):
            ri = work[i]
            f = ri[c]
            if f:
                ri[c] = 0
                for j, x in support:
                    ri[j] = (ri[j] - f * x) % q
        pivots.append(c)
    return pivots, work[: len(pivots)]


def modular_rank_rows(rows, *, row_subset=None) -> int:
    """Exact rank over GF(MODULUS) of the rows (or of those in row_subset)."""
    if row_subset is not None:
        rows = [rows[i] for i in row_subset]
    return len(_row_reduce(rows)[0])


def modular_nullspace(rows, ncols: int) -> list[list[int]]:
    """Kernel basis over GF(MODULUS) in reduced echelon form.

    One vector per free column fc: 1 at fc, 0 at the other free columns,
    and the pivot entries by back-substitution through the echelon rows.
    Only pivots left of fc can be nonzero.  The basis is the one a reduced
    echelon form would give, since it is unique once the pivots are fixed.
    """
    q = MODULUS
    pivots, echelon = _row_reduce(rows)
    upward = list(zip(pivots, echelon))[::-1]
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[fc] = 1
        known = [(fc, 1)]  # the nonzero entries of vec so far
        for pc, row in upward:
            if pc < fc:
                x = -sum(row[j] * v for j, v in known) % q
                if x:
                    vec[pc] = x
                    known.append((pc, x))
        basis.append(vec)
    return basis


def _svd_spaces(A: np.ndarray, tol: float | None = None):
    """(rank, left-null basis as columns, right-null basis as columns)."""
    import numpy as np
    m, c = A.shape
    if m == 0:
        return 0, np.zeros((0, 0)), np.eye(c)
    u, s, vt = np.linalg.svd(A, full_matrices=True)
    r = _numerical_rank(s, A.shape, tol)
    return r, u[:, r:], vt[r:].T


# ---------------------------------------------------------------------------
# motions and stresses


def trivial_motion_generators(p: np.ndarray, k: int = 0) -> np.ndarray:
    """Velocity fields of the ambient isometries evaluated at p.

    d translations plus C(d, 2) infinitesimal rotations, each padded with
    r' = 0 on the k coordination entries.  Their span is the trivial motion
    space; its dimension is computed, never assumed, so degenerate
    configurations are handled correctly.
    """
    import numpy as np
    n, d = p.shape
    gens = np.zeros((math.comb(d + 1, 2), d * n + k))
    for a in range(d):
        gens[a, a : d * n : d] = 1.0
    for row, (a, b) in enumerate(itertools.combinations(range(d), 2), start=d):
        gens[row, b : d * n : d] = p[:, a]
        gens[row, a : d * n : d] = -p[:, b]
    return gens


@dataclass(frozen=True)
class MotionReport:
    """Kernel of the coordinated matrix split against the trivial space.

    ``basis`` rows span the kernel of (R(p), 1(c)); each row is a motion
    (p', r') of length dn + k.  ``nontrivial_basis`` rows span the
    orthogonal complement of the trivial motions inside the kernel; the
    framework is infinitesimally rigid iff ``nontrivial_dim`` is zero.
    """

    basis: np.ndarray
    trivial_dim: int
    nontrivial_dim: int
    nontrivial_basis: np.ndarray

    @property
    def nullity(self) -> int:
        return self.basis.shape[0]


def infinitesimal_motions(g: ColouredGraph, p, tol: float | None = None) -> MotionReport:
    """Basis of the motion space M+(p) with its trivial/nontrivial split."""
    import numpy as np
    pts = as_points(p, g.n)
    M = coordinated_matrix(g, pts)
    nonzero = M[:, : pts.size].any(axis=1)
    zero = [e for e, nz in zip(g.edges, nonzero) if not nz]
    if zero:
        raise ValueError(
            f"zero-length edges {zero}: motion analysis "
            "requires distinct endpoints on every edge"
        )
    _, _, kern = _svd_spaces(M, tol)
    basis = kern.T  # rows are motions
    gens = trivial_motion_generators(pts, g.k)
    # orthonormal row basis of the trivial space via SVD (QR is unsafe when
    # a degenerate configuration makes interior generators dependent)
    _, gs, gvt = np.linalg.svd(gens, full_matrices=False)
    t_dim = _numerical_rank(gs, gens.shape)
    q_t = gvt[:t_dim].T  # columns orthonormal, span = trivial space
    # the trivial space is a subspace of the kernel by construction, so the
    # nontrivial dimension is the exact difference of the two computed ranks;
    # the residual SVD then only supplies an orthonormal basis for it
    nt_dim = max(0, basis.shape[0] - t_dim)
    if nt_dim and basis.size:
        resid = basis - (basis @ q_t) @ q_t.T
        _, _, vt = np.linalg.svd(resid, full_matrices=False)
        nontrivial = vt[:nt_dim]
    else:
        nontrivial = np.zeros((0, M.shape[1]))
    return MotionReport(
        basis=basis,
        trivial_dim=t_dim,
        nontrivial_dim=nt_dim,
        nontrivial_basis=nontrivial,
    )


def equilibrium_stresses(g: ColouredGraph, p, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis (rows) of the left kernel S(p) of R(p).

    dim S(p) = m - rank R(p); the framework is independent iff it is 0.
    """
    _, left, _ = _svd_spaces(rigidity_matrix(g, p), tol)
    return left.T


def edge_load(g: ColouredGraph, p, edge: Edge) -> np.ndarray:
    """The equilibrium load of one edge, its row of R(p): p(i)-p(j) at i,
    p(j)-p(i) at j."""
    return _rigidity_rows(as_points(p, g.n), [g.edges[g.edge_index(edge)]])[0]


def colour_class_load(g: ColouredGraph, p, i: int) -> np.ndarray:
    """Sum of the edge loads over colour class i (1 <= i <= k): the sum of
    the class's rows of R(p)."""
    if not 1 <= i <= g.k:
        raise ValueError(f"colour class index {i} out of range 1..{g.k}")
    return _rigidity_rows(as_points(p, g.n), g.colour_class(i)).sum(axis=0)


def is_equilibrium_load(p: np.ndarray, f: np.ndarray, tol: float = 1e-9) -> bool:
    """No net force and no net torque, to tolerance: f is orthogonal to the
    d translations and to the C(d, 2) rotations at p."""
    import numpy as np
    d = p.shape[1]
    moments = np.abs(trivial_motion_generators(p) @ np.ravel(f))
    bound = tol * (1.0 + float(np.abs(f).sum()))
    if np.any(moments[:d] > bound):  # net force
        return False
    return not np.any(moments[d:] > bound * (1.0 + float(np.abs(p).max())))


def resolve_load(g: ColouredGraph, p, f, tol: float = 1e-9):
    """Minimum-norm stress resolving an equilibrium load, or None.

    Solves sum_j rho({i,j}) [p(j) - p(i)] = -f(i) for all i; returns None
    when f lies outside the resolvable space (the row space of R(p)).
    Raises if f is not an equilibrium load.
    """
    import numpy as np
    pts = as_points(p, g.n)
    f = np.asarray(f, dtype=float).reshape(-1)
    if f.shape[0] != pts.size:
        raise ValueError("load vector length must be d*n")
    if not is_equilibrium_load(pts, f, tol):
        raise ValueError("not an equilibrium load (net force or torque nonzero)")
    A = rigidity_matrix(g, pts).T  # (dn) x m
    rho, *_ = np.linalg.lstsq(A, f, rcond=None)
    resid = float(np.linalg.norm(A @ rho - f))
    if resid > tol * (1.0 + float(np.linalg.norm(f))):
        return None
    return rho


def coordination_gram(g: ColouredGraph, p, tol: float | None = None) -> np.ndarray:
    """Gram matrix of the projections of the indicator columns onto S(p).

    When the underlying framework (G, p) is infinitesimally rigid, the
    coordinated framework is infinitesimally rigid iff this k x k matrix is
    nonsingular; an independent framework (S(p) = 0) yields the zero matrix.
    """
    proj = equilibrium_stresses(g, p, tol) @ indicator_matrix(g)  # s x k
    return proj.T @ proj


def check_equivalent(g: ColouredGraph, placement_a, placement_b, tol: float):
    """Edge-by-edge equivalence test for two placements of the same graph.

    Uncoloured edges must preserve length; an edge of class l must preserve
    length + offset(l).  Returns (equivalent, residuals) with one residual
    per edge in canonical order.
    """
    import numpy as np
    pa, ra = placement_a
    pb, rb = placement_b
    pa = as_points(pa, g.n)
    pb = as_points(pb, g.n)
    ra = np.asarray(ra, dtype=float).reshape(-1)
    rb = np.asarray(rb, dtype=float).reshape(-1)
    if ra.shape[0] != g.k or rb.shape[0] != g.k:
        raise ValueError(f"offset vectors must have length k={g.k}")
    residuals = np.zeros(g.m)
    for row, ((i, j), c) in enumerate(zip(g.edges, g.colours)):
        la = float(np.linalg.norm(pa[i] - pa[j]))
        lb = float(np.linalg.norm(pb[i] - pb[j]))
        if c >= 1:
            la += float(ra[c - 1])
            lb += float(rb[c - 1])
        residuals[row] = abs(la - lb)
    return bool(np.all(residuals <= tol)), residuals
