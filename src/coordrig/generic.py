"""Monte-Carlo generic-rank oracle and the rainbow-redundancy decider.

Ranks are evaluated exactly over GF(q) at random integer configurations p.
Every edge at a vertex of degree <= d is a coloop of the generic
d-dimensional rigidity matroid, because every circuit has minimum degree
d + 1; peeling such vertices repeatedly (``cgraph.coloops``) leaves the
(d+1)-core.  The coloops C lie in every basis and on no circuit, so each
trial eliminates only the core rows, R_core(p)ᵀ, once, and keeps
rank R(p) = |C| + rank R_core(p) and a basis S of the equilibrium
stresses (the left kernel of R(p), which vanishes on C).  At a generic p
the coloop columns of R(p)ᵀ are pivots, so S is the same vector set as
the full elimination gives.  The projection criterion reads everything
else from that pair:

* rank[R(p) | I] = rank R(p) + rank(S·I), with I the m x k class-indicator
  matrix;
* a rainbow tuple T (one edge per coordination class) is redundant iff
  the columns of S on T are independent; one is found by self-reduction
  of S·I, one class at a time.

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

Sampling stops once a trial reaches both caps, min(m, dn - t) for
rank R(p) and min(m, dn + k - t) for rank[R(p) | I], t the trivial
dimension: no later trial can raise either maximum.  ``trials`` is
therefore an upper bound.  A rigid verdict stops at the trial that
shows it rigid, the first one except at an unlucky sample.  A flexible
one stops early only when the ranks reach min(m, dn - t) and m, as on an
independent graph; otherwise it takes every trial and keeps the bound
above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cgraph import ColouredGraph, coloops
from . import linalg
from .linalg import MODULUS

Edge = tuple[int, int]


class BackendError(RuntimeError):
    """Randomized backend failed to reach a self-consistent verdict."""


@dataclass(frozen=True)
class OracleParams:
    """Sampling parameters for the exact randomized rank oracle; ``trials``
    is the most trials sampled, since sampling stops at the rank caps."""

    d: int = 2
    trials: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.trials < 1:
            raise ValueError("need at least one trial")


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
    counted as |C| + rank R_core(p).  A trial eliminates R_core(p)ᵀ once
    and keeps that rank, the stress basis S (one row per stress, one entry
    per core edge) and the columns of S·I.  ``core`` maps a core position
    to the edge's position in ``g.edges``; ``classes`` holds core
    positions.  ``trivial`` is the generic trivial dimension t, and
    ``target`` and ``coordinated_target`` are the rigidity targets dn - t
    and dn + k - t of rank R(p) and rank[R(p) | I].

    Trials are eliminated in order only while the best rank or coordinated
    rank is below its cap, min(m, target) or min(m, coordinated_target).
    No sample exceeds the generic rank, so no later trial can raise either
    maximum; ``trials`` holds the trials eliminated, at most
    ``params.trials`` of them.
    """

    def __init__(self, g: ColouredGraph, params: OracleParams):
        self.g = g
        self.params = params
        self.stripped = coloops(g, params.d)
        self.core = [i for i, e in enumerate(g.edges) if e not in self.stripped]
        self.classes = [[] for _ in range(g.k)]  # core positions of classes 1..k
        for j, i in enumerate(self.core):
            c = g.colours[i]
            if c:
                self.classes[c - 1].append(j)
        self._rows = [None] * params.trials
        self.trivial = _trivial_dim(g.n, params.d)
        self.target = params.d * g.n - self.trivial
        self.coordinated_target = self.target + g.k
        rank_cap, coordinated_cap = min(g.m, self.target), min(g.m, self.coordinated_target)
        self.trials = []
        self.rank_full = self.coordinated_rank = 0
        for t in range(params.trials):
            rows = self.rows(t)
            stresses = linalg.modular_nullspace(list(zip(*rows)), len(rows))
            cols = [self.stress_column(stresses, idx) for idx in self.classes]
            rank = len(self.stripped) + len(rows) - len(stresses)
            coordinated = rank + linalg.modular_rank_rows(cols)  # rank[R(p) | I]
            self.trials.append((rank, coordinated, stresses, cols))
            self.rank_full = max(self.rank_full, rank)
            self.coordinated_rank = max(self.coordinated_rank, coordinated)
            if self.rank_full >= rank_cap and self.coordinated_rank >= coordinated_cap:
                break

    def rows(self, t: int) -> tuple[tuple[int, ...], ...]:
        """The core rows of R(p) at trial t's configuration, built once."""
        if self._rows[t] is None:
            g, d = self.g, self.params.d
            p = linalg.sample_modular_configuration(g.n, d, self.params.seed + t)
            self._rows[t] = linalg.modular_matrix(g, p, d, positions=self.core)
        return self._rows[t]

    def stress_column(self, stresses, idx) -> list[int]:
        """Column of S·1_idx: each stress summed over the edge rows idx."""
        return [sum(w[i] for i in idx) % MODULUS for w in stresses]

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
    """A redundant rainbow tuple read from the stress basis S, or None.

    The k-minors of S·I are multilinear in its columns, the class sums of
    the edge columns of S, so S·I has rank k iff some rainbow tuple has
    independent columns, i.e. is redundant.  In the first trial at full
    rank where S·I has rank k, classes 1..k in turn have their column
    replaced by that of their first edge that keeps rank k.  This is the
    lexicographically first redundant tuple of the class product, except
    at an unlucky sample, where it may be a later, still redundant one.
    """
    if g.k < 1:
        raise ValueError("rainbow tuples need k >= 1")
    oracle = _oracle or _RankOracle(g, params)
    full = oracle.rank_full
    for rank, coordinated, stresses, cols in oracle.trials:
        if rank == full and coordinated == full + g.k:
            break
    else:
        return None
    tup = []
    for c, idx in enumerate(oracle.classes):
        for i in idx:
            trial_cols = cols[:c] + [oracle.stress_column(stresses, [i])] + cols[c + 1 :]
            if linalg.modular_rank_rows(trial_cols) == g.k:
                cols = trial_cols
                tup.append(g.edges[oracle.core[i]])
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

    Rigid iff the sampled rank of [R(p) | I] = rank R(p) + rank(S·I)
    reaches dn + k minus the generic trivial dimension; then the
    underlying graph has full generic rank and the certificate is a
    redundant rainbow tuple read from S (``find_rainbow_redundant_tuple``),
    checked by eliminating R(p) without the tuple's rows (``keeps_rank``).  A
    rigid verdict is certain, as sampled ranks are lower bounds; a flexible
    one is wrong with probability at most r/(q - 1) per trial, r <= dn the
    rank of the minor, about 1.8·10⁻⁶ at d = 3, n = 640.  Trials stop
    once both ranks reach their caps, so a rigid verdict stops at the
    trial that shows it rigid.
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
                    f"rainbow tuple {list(tup)} read from the stress basis is "
                    f"not redundant (seed {params.seed})"
                )
        certificate = {"rainbow_tuple": [list(e) for e in tup]}
    else:
        witness = ("no-rainbow-redundant-tuple" if underlying_rigid
                   else "underlying-flexible")
        certificate = {"kind": witness}
        flex = _nontrivial_flex(g, params.d, params.seed)
        if flex is not None:
            certificate["flex"] = [round(float(x), 12) for x in flex]
    return RigidityVerdict(
        decision="rigid" if rigid else "flexible", method="numeric", d=params.d,
        k=g.k, seed=params.seed, ranks=ranks, certificate=certificate,
        witness=witness, isostatic=g.m == coord_target if rigid else None,
    )


def _nontrivial_flex(g: ColouredGraph, d: int, seed: int):
    """A nontrivial infinitesimal motion at a seeded float configuration."""
    p = linalg.random_configuration(g.n, d, seed)
    try:
        report = linalg.infinitesimal_motions(g, p)
    except ValueError:
        return None
    if report.nontrivial_dim == 0:
        return None
    return report.nontrivial_basis[0]
