"""Independent brute-force oracles used to pin expected test values.

These deliberately avoid the production code paths they are used to check:
sparsity is tested subgraph-by-subgraph from the definition, ranks by
maximizing over all edge subsets, circuits as minimal dependent sets, and
the union rank by exhausting the min-formula over every subset,
rainbow tuples by enumerating the class product with row-removal ranks,
and plane rainbow pairs by a fresh (2,3) rank of every E - e - f.

The rest are earlier implementations kept as references for the code
that replaced them: the union rank that replays a fresh game on E minus T
in every augmentation round, GF(q) elimination to reduced echelon form,
the float rigidity matrix built one edge row at a time, the trivial motion
generators filled one vertex at a time, edge and class loads written out
per edge, and the equilibrium test as explicit force and torque sums.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from coordrig.laman import UnionRankReport, _augment, _plane_target, transversal_rank
from coordrig.linalg import (
    MODULUS,
    modular_matrix,
    modular_rank_rows,
    sample_modular_configuration,
)
from coordrig.pebble import PLANE, PebbleGame, sparsity_rank


def brute_sparse(edges, n: int, kk: int = 2, ll: int = 3) -> bool:
    """Definition check: every n' >= 2 vertex subset induces <= kk*n' - ll."""
    for r in range(2, n + 1):
        for subset in combinations(range(n), r):
            inside = set(subset)
            count = sum(1 for (u, v) in edges if u in inside and v in inside)
            if count > kk * r - ll:
                return False
    return True


def _subset_checks(edges, n: int, kk: int, ll: int):
    checks = []
    for r in range(2, n + 1):
        for subset in combinations(range(n), r):
            inside = set(subset)
            mask = 0
            for i, (u, v) in enumerate(edges):
                if u in inside and v in inside:
                    mask |= 1 << i
            checks.append((mask, kk * r - ll))
    return checks


def brute_rank(edges, n: int, kk: int = 2, ll: int = 3) -> int:
    """Largest sparse edge subset, maximized over all 2^m subsets."""
    edges = list(edges)
    checks = _subset_checks(edges, n, kk, ll)
    best = 0
    for sub in range(1 << len(edges)):
        size = sub.bit_count()
        if size <= best:
            continue
        if all((sub & mask).bit_count() <= cap for mask, cap in checks):
            best = size
    return best


def brute_circuits(edges, n: int, kk: int = 2, ll: int = 3):
    """All minimal dependent subsets (circuits) of the count matroid."""
    edges = list(edges)
    out = []
    for r in range(3, len(edges) + 1):
        for sub in combinations(edges, r):
            if brute_sparse(sub, n, kk, ll):
                continue
            if all(
                brute_sparse([e for e in sub if e != f], n, kk, ll) for f in sub
            ):
                out.append(tuple(sorted(sub)))
    return out


def brute_union_rank(g) -> int:
    """min over F of |E \\ F| + pebble_rank(F) + transversal_rank(F).

    Exhausts every subset F via depth-first include/exclude decisions,
    keeping a running pebble game (with snapshot/undo) so each subset costs
    one insertion.
    """
    m = g.m
    best = m + 1_000_000
    game = PebbleGame(g.n, PLANE)

    def recurse(i: int, rank_f: int, colours: set[int], size_f: int) -> None:
        nonlocal best
        if i == m:
            best = min(best, (m - size_f) + rank_f + len(colours))
            return
        recurse(i + 1, rank_f, colours, size_f)
        state = (list(game.pebbles), [list(s) for s in game.succ], len(game.accepted))
        gained = 1 if game.try_insert(g.edges[i]) else 0
        c = g.colours[i]
        added = c > 0 and c not in colours
        if added:
            colours.add(c)
        recurse(i + 1, rank_f + gained, colours, size_f + 1)
        if added:
            colours.remove(c)
        game.pebbles, game.succ, size = state
        del game.accepted[size:]

    recurse(0, 0, set(), 0)
    return best


def brute_rainbow_tuple(g, params):
    """First redundant rainbow tuple in lexicographic class-product order.

    Uses the same samples as the GF(q) oracle (trial t from seed + t).  A
    set is redundant when removing its rows keeps the rank of R(p), max
    over trials.  Bridges (edges that are not redundant alone) are pruned
    before the product is enumerated; returns None when it is exhausted.
    """
    samples = []
    for t in range(params.trials):
        p = sample_modular_configuration(g.n, params.d, params.seed + t)
        samples.append(modular_matrix(g, p, params.d))

    def rank_without(drop) -> int:
        keep = [i for i in range(g.m) if i not in drop]
        return max(modular_rank_rows(rows, row_subset=keep) for rows in samples)

    full = rank_without(())
    bridges = {i for i in range(g.m) if rank_without((i,)) < full}
    classes = [
        [g.edge_index(e) for e in g.colour_class(c)] for c in range(1, g.k + 1)
    ]
    for cand in product(*classes):
        if bridges.isdisjoint(cand) and rank_without(cand) == full:
            return tuple(g.edges[i] for i in cand)
    return None


def brute_rainbow_pair(g):
    """First redundant class-1 edge e, in canonical order, with the first
    class-2 edge f such that the (2,3)-rank of E - e - f equals that of E;
    None when there is no such pair.  Every rank is a fresh game."""

    def rank_without(*drop) -> int:
        return sparsity_rank(([x for x in g.edges if x not in drop], g.n))[0]

    full = rank_without()
    for e in g.colour_class(1):
        if rank_without(e) != full:
            continue
        for f in g.colour_class(2):
            if rank_without(e, f) == full:
                return (e, f)
    return None


def replay_union_rank(g) -> UnionRankReport:
    """Plane union rank with a fresh game on E minus T, in canonical order,
    for every augmentation round; the last round's game is the witness."""
    held = {}
    while True:
        tset = set(held.values())
        game = PebbleGame(g.n)
        circuits = game.insert_all(e for e in g.edges if e not in tset)
        if len(held) == g.k or not _augment(g, held, game, circuits):
            break
    transversal = tuple(sorted(held.values()))
    if transversal_rank(g, transversal) != len(transversal):
        raise RuntimeError("T is not rainbow")
    if any(game.try_insert(e) for e in transversal):
        raise RuntimeError("removing T lowers the rank")
    accepted = tuple(game.accepted)
    rank = len(accepted) + len(transversal)
    return UnionRankReport(
        union_rank=rank,
        independent_rigidity=accepted,
        transversal=transversal,
        deficiency=(_plane_target(g.n) + g.k) - rank,
    )


def reduced_echelon(rows):
    """Pivot columns and unit-pivot reduced echelon rows over GF(MODULUS):
    every pivot column is cleared above and below its pivot."""
    q = MODULUS
    work = [list(r) for r in rows if any(r)]
    pivots = []
    for c in range(len(work[0]) if work else 0):
        top = len(pivots)
        if top == len(work):
            break
        piv = next((i for i in range(top, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[top], work[piv] = work[piv], work[top]
        prow = work[top]
        inv = pow(prow[c], q - 2, q)
        prow[c:] = [x * inv % q for x in prow[c:]]
        for i in range(len(work)):
            f = work[i][c]
            if f and i != top:
                ri = work[i]
                ri[c:] = [(a - f * b) % q for a, b in zip(ri[c:], prow[c:])]
        pivots.append(c)
    return pivots, work[: len(pivots)]


def reduced_echelon_nullspace(rows, ncols: int):
    """Kernel basis over GF(MODULUS) read off the reduced echelon form:
    one vector per free column, 1 there and 0 at the other free columns."""
    pivots, echelon = reduced_echelon(rows)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(echelon, pivots):
            vec[pc] = (-row[fc]) % MODULUS
        basis.append(vec)
    return basis


def loop_rigidity_matrix(g, pts):
    """Float R(p) filled one edge row at a time: p(i) - p(j) on i's column
    block and p(j) - p(i) on j's."""
    d = pts.shape[1]
    R = np.zeros((g.m, d * g.n))
    for row, (i, j) in enumerate(g.edges):
        diff = pts[i] - pts[j]
        R[row, d * i : d * i + d] = diff
        R[row, d * j : d * j + d] = -diff
    return R


def loop_trivial_motion_generators(p, k: int = 0):
    """The d translations, then the rotations (a, b) for a < b, each filled
    one vertex at a time: p(i)_a on coordinate b and -p(i)_b on a."""
    n, d = p.shape
    gens = []
    for a in range(d):
        vec = np.zeros(d * n + k)
        vec[a : d * n : d] = 1.0
        gens.append(vec)
    for a in range(d):
        for b in range(a + 1, d):
            vec = np.zeros(d * n + k)
            for i in range(n):
                vec[d * i + b] = p[i, a]
                vec[d * i + a] = -p[i, b]
            gens.append(vec)
    return np.array(gens)


def loop_edge_load(g, pts, edge):
    """p(i) - p(j) at i and p(j) - p(i) at j, each written out."""
    d = pts.shape[1]
    f = np.zeros(d * g.n)
    i, j = edge
    f[d * i : d * i + d] = pts[i] - pts[j]
    f[d * j : d * j + d] = pts[j] - pts[i]
    return f


def loop_colour_class_load(g, pts, c):
    """The edge loads of class c added one at a time to a zero vector."""
    f = np.zeros(pts.shape[1] * g.n)
    for e in g.colour_class(c):
        f += loop_edge_load(g, pts, e)
    return f


def loop_is_equilibrium_load(p, f, tol: float = 1e-9) -> bool:
    """Net force per axis, then net torque per coordinate plane (a, b),
    each against its tolerance."""
    n, d = p.shape
    fv = f.reshape(n, d)
    scale = 1.0 + float(np.abs(fv).sum())
    if np.any(np.abs(fv.sum(axis=0)) > tol * scale):
        return False
    for a in range(d):
        for b in range(a + 1, d):
            torque = float(np.sum(fv[:, a] * p[:, b] - fv[:, b] * p[:, a]))
            if abs(torque) > tol * scale * (1.0 + float(np.abs(p).max())):
                return False
    return True
