"""Monte-Carlo generic-rank oracle and the rainbow-redundancy decider.

Ranks are evaluated exactly over GF(q) at random integer configurations p.
Every edge at a vertex of degree <= d is a coloop of the generic
d-dimensional rigidity matroid, because every circuit has minimum degree
d + 1; peeling such vertices repeatedly (``cgraph.coloops``) leaves the
(d+1)-core.  The coloops C lie in every basis and on no circuit, and every
equilibrium stress (a vector of the left kernel of R(p)) vanishes on them.
The projection criterion reads the stresses only on the coloured edges:

* rank[R(p) | I] = rank R(p) + rank(S·I), with I the m x k class-indicator
  matrix and S a basis of the stresses;
* a rainbow tuple T (one edge per coordination class) is redundant iff
  the columns of S on T are independent; one is found by self-reduction
  of S·I, one class at a time.

Each of these ranks is a rank of columns of S on coloured edges, so it
depends only on the row space of S cut to those columns: the projection
of the stress space onto the coloured edges.  A trial therefore
eliminates R_core(p)ᵀ once, its columns (one per core edge) ordered
uncoloured first.  The pivots give rank R(p) = |C| + rank R_core(p).  The
echelon rows with a pivot in an uncoloured column can be solved for that
pivot whatever the coloured entries are, so the projection is the kernel
of N, the other echelon rows cut to the coloured columns.  No basis of it
is built: the rows of N are independent and span (ker N)^⊥, so over any
field rank(S·A) = rank[N; Aᵀ] - rank N for a matrix A on the coloured
columns.  rank(S·I) is one elimination of N above the k class-indicator
rows, and a self-reduction step one with a class's row swapped for an
edge's unit row.  The ranks, the tuple and the verdict are those the full
S gives, at every sample.

The targets subtract the generic trivial dimension, a closed form in n
and d (``_trivial_dim``).  The error is one-sided.  A sampled rank never
exceeds the generic rank, which never exceeds dn minus that dimension, so
a rigid verdict is certain.  At a degenerate p, |C| + rank R_core(p) can
exceed rank R(p), but never the generic rank, since every edge of C is a
coloop of the generic matroid, so this still holds.  A flexible verdict
is wrong only when every trial samples a root of a nonzero minor; an
r x r minor has degree at most r in the coordinates, so by
Schwartz-Zippel this happens with probability at most r/(q - 1) per
trial: with q = 2^30 - 35 and r <= dn, about 1.8·10⁻⁶ at d = 3,
n = 640.

Sampling stops once a trial reaches both caps, upper bounds on the generic
ranks read from the core.  One cap covers the whole core: R_core(p) has
one row per core edge and rank at most d·n_core - t_core, n_core the
vertices the core edges touch and t_core their trivial dimension, so rank
R(p) is at most |C| + min(m_core, d·n_core - t_core); rank[R(p) | I] is
at most m and at most that cap plus the number of classes with an edge in
the core, since a class inside C has a zero column in S·I.  No later trial
can raise either maximum, so ``trials`` is an upper bound on the trials
eliminated.  A rigid verdict stops at the trial that shows it rigid, the
first one except at an unlucky sample.  A flexible one stops when its
sampled ranks reach the caps, and otherwise takes every trial and keeps
the bound above; a core in several connected components, whose rank is
below the one cap even when each component is rigid, may thus sample
every trial.  When a cap is below its target, no sample can reach the
target, so that flexible verdict is certain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cgraph import ColouredGraph, coloops, low_degree_vertex
from . import linalg

Edge = tuple[int, int]

MAX_TRIALS = 64  # most trials an OracleParams allows, so every call ends


class BackendError(RuntimeError):
    """Randomized backend failed to reach a self-consistent verdict."""


@dataclass(frozen=True)
class OracleParams:
    """Sampling parameters for the exact randomized rank oracle; ``trials``
    is the most trials sampled, since sampling stops at the rank caps, and
    is at most ``MAX_TRIALS``: a flexible graph whose sampled ranks stay
    below the caps samples every trial."""

    d: int = 2
    trials: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"at most {MAX_TRIALS} trials, got {self.trials}")


@dataclass(frozen=True)
class RigidityVerdict:
    """Rigid/flexible decision with a replayable certificate."""

    decision: str  # "rigid" | "flexible"
    method: str
    d: int
    k: int
    seed: int | None
    ranks: dict
    certificate: dict | None = None
    witness: str | None = None
    isostatic: bool | None = None

    @property
    def rigid(self) -> bool:
        return self.decision == "rigid"

    def to_json(self) -> dict:
        out = {
            "decision": self.decision,
            "method": self.method,
            "d": self.d,
            "k": self.k,
            "seed": self.seed,
            "ranks": self.ranks,
            "certificate": self.certificate,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.isostatic is not None:
            out["isostatic"] = self.isostatic
        return out


class _RankOracle:
    """Per-seed batch of sampled configurations with exact rank queries.

    Trial t draws its configuration from seed + t, the documented splitting
    rule, so parallel evaluation schemes must reproduce exactly what the
    sequential loop does.  Only the core rows are eliminated: the coloops
    C of the d-dimensional rigidity matroid are dropped and rank R(p) is
    counted as |C| + rank R_core(p).  ``core`` maps a core position to the
    edge's position in ``g.edges``, the uncoloured edges first and then
    ``coloured``; ``classes`` holds positions in ``coloured``.  A trial
    eliminates R_core(p)ᵀ once (``linalg.modular_projection``) and keeps
    that rank, the coordinated rank rank R(p) + rank[N; Iᵀ] - rank N and
    N itself, whose kernel is the projection of the stresses onto the
    coloured core edges; ``class_rows`` are the rows of Iᵀ on those edges.
    A trial's rows of R_core(p) are built when first used.  ``trivial`` is
    the generic trivial dimension t, and ``target`` and
    ``coordinated_target`` are the rigidity targets dn - t and dn + k - t
    of rank R(p) and rank[R(p) | I].

    Trials are eliminated in order only while the best rank or coordinated
    rank is below its cap.  ``rank_cap`` is one cap over the whole core,
    |C| + min(m_core, d·n_core - t_core), n_core the vertices the core edges
    touch and t_core their trivial dimension (0 for an empty core);
    ``coordinated_cap`` is min(m, rank_cap + k_core), k_core the classes
    with an edge in the core.
    No sample exceeds the generic rank, so no later trial can raise either
    maximum; ``trials`` holds the trials eliminated, at most
    ``params.trials`` of them.
    """

    def __init__(self, g: ColouredGraph, params: OracleParams):
        self.g = g
        self.params = params
        self.stripped = coloops(g, params.d)
        core = [i for i, e in enumerate(g.edges) if e not in self.stripped]
        self.coloured = [i for i in core if g.colours[i]]
        self.core = [i for i in core if not g.colours[i]] + self.coloured
        self.classes = [[] for _ in range(g.k)]  # coloured positions of classes 1..k
        self.class_rows = [[0] * len(self.coloured) for _ in range(g.k)]  # rows of Iᵀ
        for j, i in enumerate(self.coloured):
            self.classes[g.colours[i] - 1].append(j)
            self.class_rows[g.colours[i] - 1][j] = 1
        self._rows = {}  # trial -> core rows, built on first use
        self.trivial = _trivial_dim(g.n, params.d)
        self.target = params.d * g.n - self.trivial
        self.coordinated_target = self.target + g.k
        n_core = len({v for i in core for v in g.edges[i]})
        self.rank_cap = len(self.stripped) + min(
            len(core), params.d * n_core - _trivial_dim(n_core, params.d)
        )
        k_core = sum(1 for idx in self.classes if idx)
        self.coordinated_cap = min(g.m, self.rank_cap + k_core)
        plain = len(self.core) - len(self.coloured)
        self.trials = []
        self.rank_full = self.coordinated_rank = 0
        for t in range(params.trials):
            core_rank, projected = linalg.modular_projection(zip(*self.rows(t)), plain)
            rank = len(self.stripped) + core_rank
            coordinated = rank + _stress_rank(projected, self.class_rows)
            self.trials.append((rank, coordinated, projected))
            self.rank_full = max(self.rank_full, rank)
            self.coordinated_rank = max(self.coordinated_rank, coordinated)
            if (self.rank_full >= self.rank_cap
                    and self.coordinated_rank >= self.coordinated_cap):
                break

    def rows(self, t: int) -> tuple[tuple[int, ...], ...]:
        """The core rows of R(p) at trial t's configuration, built once."""
        if t not in self._rows:
            g, d = self.g, self.params.d
            p = linalg.sample_modular_configuration(g.n, d, self.params.seed + t)
            self._rows[t] = linalg.modular_matrix(g, p, d, positions=self.core)
        return self._rows[t]

    def keeps_rank(self, edges) -> bool:
        """Whether R(p) without the rows of ``edges`` keeps rank_full in
        some trial of ``params.trials``, by a fresh elimination of the
        remaining core rows; the rows of a trial that was not eliminated
        are built here.  A set holding a coloop never does.  No trial
        exceeds rank_full, so the first trial that reaches it decides."""
        edges = [tuple(e) for e in edges]
        if not self.stripped.isdisjoint(edges):
            return False
        drop = {self.g.edge_index(e) for e in edges}
        subset = [j for j, i in enumerate(self.core) if i not in drop]
        core_rank = self.rank_full - len(self.stripped)
        return any(
            linalg.modular_rank_rows(self.rows(t), row_subset=subset) == core_rank
            for t in range(self.params.trials)
        )


def generic_rank(g: ColouredGraph, params: OracleParams) -> int:
    """Rank of the edge set in the d-dimensional rigidity matroid.

    Max over trials of rank R(p) at independently sampled exact
    configurations; never exceeds the true generic rank and is monotone in
    the number of trials.
    """
    return _RankOracle(g, params).rank_full


def is_redundant_set(g: ColouredGraph, edges, params: OracleParams) -> bool:
    """Whether removing ``edges`` keeps the sampled generic rank in some
    trial, on shared samples."""
    return _RankOracle(g, params).keeps_rank(edges)


def _stress_rank(projected, rows) -> int:
    """rank(S·A), A the columns of ``rows``: rank[N; Aᵀ] - rank N."""
    return linalg.modular_rank_rows(projected + rows) - len(projected)


def _trivial_dim(n: int, d: int) -> int:
    """Dimension of the trivial motions of n generic points in R^d:
    C(d+1, 2), less the C(d+1-n, 2) rotations that fix the affine span of
    n <= d points."""
    return math.comb(d + 1, 2) - math.comb(max(d + 1 - n, 0), 2)


def _ranks(g: ColouredGraph, **fields) -> dict:
    """A verdict's ``ranks``: n and m, then ``fields``, then the isolated
    vertices when there are any."""
    out = {"n": g.n, "m": g.m, **fields}
    isolated = g.isolated_vertices()
    if isolated:
        out["isolated_vertices"] = list(isolated)
    return out


def _rank_fields(oracle: _RankOracle) -> dict:
    """The oracle's sampled ranks of R(p) and [R(p) | I] with their
    rigidity targets dn - t and dn + k - t, t the generic trivial
    dimension."""
    return {
        "generic_rank": oracle.rank_full,
        "target_rank": oracle.target,
        "coordinated_rank": oracle.coordinated_rank,
        "coordinated_target": oracle.coordinated_target,
        "trivial_dim": oracle.trivial,
    }


def rank_summary(g: ColouredGraph, params: OracleParams) -> dict:
    """Sampled ranks of both matrices with their rigidity targets; the
    trivial dimension is the generic closed form (``_trivial_dim``)."""
    return _rank_fields(_RankOracle(g, params))


def find_rainbow_redundant_tuple(g: ColouredGraph, params: OracleParams, _oracle=None):
    """A redundant rainbow tuple read from the projected stresses, or None.

    The k-minors of S·I are multilinear in its columns, the class sums of
    the edge columns of S, so S·I has rank k iff some rainbow tuple has
    independent columns, i.e. is redundant.  In the first trial at full
    rank where S·I has rank k, classes 1..k in turn have their column
    replaced by that of their first edge that keeps rank k.  Each rank is
    rank[N; Aᵀ] - rank N, Aᵀ the current indicator rows with the class's
    row swapped for the edge's unit row.  This is the lexicographically
    first redundant tuple of the class product, except at an unlucky
    sample, where it may be a later, still redundant one.
    """
    if g.k < 1:
        raise ValueError("rainbow tuples need k >= 1")
    oracle = _oracle or _RankOracle(g, params)
    full = oracle.rank_full
    for rank, coordinated, projected in oracle.trials:
        if rank == full and coordinated == full + g.k:
            break
    else:
        return None
    rows = oracle.class_rows
    tup = []
    for c, idx in enumerate(oracle.classes):
        for i in idx:
            unit = [int(j == i) for j in range(len(oracle.coloured))]
            swapped = rows[:c] + [unit] + rows[c + 1 :]
            if _stress_rank(projected, swapped) == g.k:
                rows = swapped
                tup.append(g.edges[oracle.coloured[i]])
                break
        else:
            raise BackendError(
                f"no edge of class {c + 1} keeps the stress rank {g.k} "
                f"(seed {params.seed})"
            )
    return tuple(tup)


def rainbow_stress_certificates(g: ColouredGraph, p, tup, tol: float = 1e-9):
    """Float equilibrium stresses w_1..w_k with w_i nonzero exactly on the
    i-th tuple edge among the tuple's entries.

    Exists whenever the tuple is redundant and the underlying framework is
    rigid at p; each returned stress is normalized to unit norm.
    """
    import numpy as np
    basis = linalg.equilibrium_stresses(g, p)  # rows orthonormal
    if basis.size == 0:
        return None
    B = basis.T  # m x s
    idx = [g.edge_index(tuple(e)) for e in tup]
    out = []
    for i, ei in enumerate(idx):
        others = [e for j, e in enumerate(idx) if j != i]
        _, _, K = linalg._svd_spaces(B[others, :])
        if K.size == 0:
            return None
        v = B[ei, :] @ K  # coefficients of the target row on the kernel
        if np.linalg.norm(v) <= tol:
            return None
        omega = B @ (K @ v)
        out.append(omega / np.linalg.norm(omega))
    return out


def decide_generic_coordinated_rigidity(
    g: ColouredGraph, params: OracleParams
) -> RigidityVerdict:
    """Decide generic rigidity of the coordinated framework in dimension d.

    Rigid iff the sampled rank of [R(p) | I] = rank R(p) + rank(S·I),
    with rank(S·I) read as rank[N; Iᵀ] - rank N, reaches dn + k minus the
    generic trivial dimension; then the underlying graph has full generic
    rank and the certificate is a redundant rainbow tuple read the same
    way (``find_rainbow_redundant_tuple``),
    checked by eliminating R(p) without the tuple's rows (``keeps_rank``).  A
    rigid verdict is certain, as sampled ranks are lower bounds; a flexible
    one is wrong with probability at most r/(q - 1) per trial, r <= dn the
    rank of the minor, about 1.8·10⁻⁶ at d = 3, n = 640.  Trials stop
    once both ranks reach their caps, so a rigid verdict stops at the
    trial that shows it rigid.

    A flexible verdict's certificate carries ``flex``, a nontrivial
    infinitesimal motion (v, r) with [R(p) | I]·(v, r) = 0 at the seeded
    float configuration, of unit norm and orthogonal to the trivial
    motions, and ``flex_from``, its route (``_nontrivial_flex``).  With
    n >= d + 1 and a vertex of degree below d, it is "vertex:<v>": the
    lowest such v moves orthogonally to its edges, the rest stays still,
    and no SVD is taken.  Otherwise it is "svd", read from the SVD of the
    coordinated matrix.
    """
    oracle = _RankOracle(g, params)
    ranks = _ranks(g, **_rank_fields(oracle), trials=params.trials)
    coord_rank, coord_target = oracle.coordinated_rank, oracle.coordinated_target
    bound = min(g.m, coord_target)
    if coord_rank > bound:
        raise BackendError(
            f"sampled coordinated rank {coord_rank} exceeds the matroid-union "
            f"bound {bound} (seed {params.seed})"
        )
    underlying_rigid = oracle.rank_full == oracle.target
    rigid = underlying_rigid and coord_rank == coord_target
    if rigid:
        witness = None
        tup = ()
        if g.k >= 1:
            tup = find_rainbow_redundant_tuple(g, params, _oracle=oracle)
            if not oracle.keeps_rank(tup):
                raise BackendError(
                    f"rainbow tuple {list(tup)} read from the stresses is "
                    f"not redundant (seed {params.seed})"
                )
        certificate = {"rainbow_tuple": [list(e) for e in tup]}
    else:
        witness = ("no-rainbow-redundant-tuple" if underlying_rigid
                   else "underlying-flexible")
        certificate = {"kind": witness}
        found = _nontrivial_flex(g, params.d, params.seed)
        if found is not None:
            flex, certificate["flex_from"] = found
            certificate["flex"] = [round(float(x), 12) for x in flex]
    return RigidityVerdict(
        decision="rigid" if rigid else "flexible", method="numeric", d=params.d,
        k=g.k, seed=params.seed, ranks=ranks, certificate=certificate,
        witness=witness, isostatic=g.m == coord_target if rigid else None,
    )


def _nontrivial_flex(g: ColouredGraph, d: int, seed: int):
    """A nontrivial unit infinitesimal motion orthogonal to the trivial
    motions at a seeded float configuration, with its route, or None.

    With n >= d + 1, the lowest vertex v of degree below d gives one with
    no SVD (``linalg.vertex_motion``): v moves orthogonally to its edges
    and all else stays still.  It is not trivial.  A nonzero
    infinitesimal isometry x -> Ax + b, A skew, vanishes on an affine set
    of dimension at most d - 2: on none if A = 0, and otherwise on none or
    on one of dimension d - rank A, as a nonzero skew A has rank at least
    2.  The n - 1 >= d other generic points span a hyperplane, so no
    nonzero trivial motion vanishes on all of them, while this motion
    does and is nonzero at v.  The route is "vertex:<v>".  Otherwise, or
    when that motion degenerates at p, the route is "svd": the first row
    of ``infinitesimal_motions``' nontrivial basis.
    """
    p = linalg.random_configuration(g.n, d, seed)
    low = low_degree_vertex(g, d) if g.n >= d + 1 else None
    if low is not None:
        flex = linalg.vertex_motion(p, *low, g.k)
        if flex is not None:
            return flex, f"vertex:{low[0]}"
    try:
        report = linalg.infinitesimal_motions(g, p)
    except ValueError:
        return None
    if report.nontrivial_dim == 0:
        return None
    return report.nontrivial_basis[0], "svd"
