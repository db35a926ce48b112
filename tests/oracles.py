"""Independent brute-force oracles used to pin expected test values.

These deliberately avoid the production code paths they are used to check:
sparsity is tested subgraph-by-subgraph from the definition, ranks by
maximizing over all edge subsets, circuits as minimal dependent sets, and
the union rank by exhausting the min-formula over every subset,
rainbow tuples by enumerating the class product with row-removal ranks,
and plane rainbow pairs by a fresh (2,3) rank of every E - e - f.

The rest are earlier implementations kept as references for the code
that replaced them: the one-class Henneberg generator that picked an edge
split's third vertex from a list of the candidates, the union rank that
replays a fresh game on E minus T in every augmentation round, the pebble game that searched from one
endpoint at a time and walked a rejected edge's region again for its
circuit, the two-sided game that searched for every edge, whatever its
endpoints' degrees, GF(q) elimination to reduced echelon form, the
forward GF(q) elimination that pivoted on the first nonzero row of each
column, the random graph that drew its edges from a list of all pairs,
the stress basis over every core edge with the rainbow tuple read from it,
the float rigidity matrix built one edge row at a time, the trivial motion
generators filled one vertex at a time, edge and class loads written out
per edge, the equilibrium test as explicit force and torque sums, the
GF(q) and float samplers that drew through ``randrange`` and a nested
list, and ``cli.main`` when every argv went through the top-level parser
before the command's parser.
"""

from __future__ import annotations

import random
import sys
from itertools import combinations, product

import numpy as np

from coordrig import cli, generic
from coordrig.cgraph import build, coloops
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
    keeping a running pebble game (a copy taken before each insertion is
    put back after it) so each subset costs one insertion.
    """
    m = g.m
    best = m + 1_000_000
    game = PebbleGame(g.n, PLANE)

    def recurse(i: int, rank_f: int, colours: set[int], size_f: int) -> None:
        nonlocal best, game
        if i == m:
            best = min(best, (m - size_f) + rank_f + len(colours))
            return
        recurse(i + 1, rank_f, colours, size_f)
        saved = game.copy()
        gained = 1 if game.try_insert(g.edges[i]) else 0
        c = g.colours[i]
        added = c > 0 and c not in colours
        if added:
            colours.add(c)
        recurse(i + 1, rank_f + gained, colours, size_f + 1)
        if added:
            colours.remove(c)
        game = saved

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


def brute_rainbow_pair(g, params=PLANE):
    """First redundant class-1 edge e, in canonical order, with the first
    class-2 edge f such that the rank of E - e - f in the ``params`` count
    matroid ((2,3) by default) equals that of E; None when there is no
    such pair.  Every rank is a fresh game."""

    def rank_without(*drop) -> int:
        return sparsity_rank(([x for x in g.edges if x not in drop], g.n), params)[0]

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
    for every augmentation round, reading every circuit in full; the last
    round's game is the witness."""
    held = {}
    while True:
        tset = set(held.values())
        game = PebbleGame(g.n)
        circuits = game.insert_all(e for e in g.edges if e not in tset)
        if len(held) == g.k or not _augment(g, held, game, circuits, game.accepted):
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


def listed_henneberg_k1_sample(target_n: int, seed: int):
    """``laman.henneberg_k1_sample``'s moves, with the edge split's third
    vertex drawn by ``rng.choice`` from a list of every vertex but the
    split edge's ends; the graph is not checked."""
    rng = random.Random(seed)
    edges = []
    for u in range(4):
        for v in range(u + 1, 4):
            edges.append((u, v, 1 if rng.random() < 0.25 else 0))
    if not any(c == 1 for _, _, c in edges):
        u, v, _ = edges[rng.randrange(len(edges))]
        edges = [(a, b, 1 if (a, b) == (u, v) else c) for a, b, c in edges]
    n = 4
    while n < target_n:
        w = n
        if rng.random() < 0.5:
            i, j = sorted(rng.sample(range(n), 2))
            edges.append((i, w, 1 if rng.random() < 0.25 else 0))
            edges.append((j, w, 1 if rng.random() < 0.25 else 0))
        else:
            i, j, c = edges.pop(rng.randrange(len(edges)))
            z = rng.choice([v for v in range(n) if v not in (i, j)])
            if c == 1:
                ci = 1 if rng.random() < 0.25 else 0
                cj = 1 if rng.random() < 0.25 else 0
                if ci == 0 and cj == 0:
                    if rng.random() < 0.5:
                        ci = 1
                    else:
                        cj = 1
                cz = 1 if rng.random() < 0.25 else 0
            else:
                ci = cj = cz = 0
            edges += [(i, w, ci), (j, w, cj), (z, w, cz)]
        n += 1
    return build(n, 1, edges)


def listed_random_coloured_graph(n: int, k: int, seed: int, m: int | None = None):
    """``corpus.random_coloured_graph`` with its edges drawn by
    ``rng.sample`` from a list of all n(n - 1)/2 pairs."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    max_m = len(pairs)
    if k > max_m:
        raise ValueError(f"{k} classes need {k} edges, but n={n} allows {max_m}")
    if m is None:
        target = 2 * n - 3 + k
        low = min(max(k, 1, target - 4), max_m)  # nearly complete graphs
        m = rng.randint(low, min(max_m, target + 3))
    if not k <= m <= max_m:
        raise ValueError(f"edge count {m} out of range [{k}, {max_m}]")
    edges = rng.sample(pairs, m)
    rng.shuffle(edges)
    colours = [0] * m
    for i in range(k):
        colours[i] = i + 1
    for i in range(k, m):
        if k > 0 and rng.random() > 2 / 3:
            colours[i] = rng.randint(1, k)
    return build(n, k, [(u, v, c) for (u, v), c in zip(edges, colours)])


class OneSidedPebbleGame:
    """The (kk, ll) pebble game whose searches start at one endpoint.

    ``try_insert`` gathers pebbles on u until a search from u fails, then
    on v; the edge is rejected when a search from v fails too, and
    ``rejection_circuit`` walks the region reachable from both endpoints
    again.  Visits are stamped in two lists of length n.
    """

    def __init__(self, n: int, params=PLANE) -> None:
        self.n, self.params = n, params
        self.pebbles = [params.kk] * n
        self.succ = [[] for _ in range(n)]
        self.accepted = []
        self.seen, self.parent, self.stamp = [0] * n, [0] * n, 0

    def _find_pebble(self, start: int, other: int) -> bool:
        pebbles, succ, seen, parent = self.pebbles, self.succ, self.seen, self.parent
        self.stamp += 1
        stamp = self.stamp
        seen[start] = stamp
        stack = [start]
        while stack:
            v = stack.pop()
            for w in succ[v]:
                if seen[w] == stamp:
                    continue
                seen[w] = stamp
                parent[w] = v
                if pebbles[w] and w != other:
                    pebbles[w] -= 1
                    pebbles[start] += 1
                    while w != start:
                        u = parent[w]
                        succ[u].remove(w)
                        succ[w].append(u)
                        w = u
                    return True
                stack.append(w)
        return False

    def try_insert(self, edge) -> bool:
        u, v = edge
        pebbles = self.pebbles
        u_live = True
        while pebbles[u] + pebbles[v] < self.params.ll + 1:
            if u_live and self._find_pebble(u, v):
                continue
            u_live = False
            if not self._find_pebble(v, u):
                return False
        if pebbles[v]:
            pebbles[v] -= 1
            self.succ[v].append(u)
        else:
            pebbles[u] -= 1
            self.succ[u].append(v)
        self.accepted.append(edge)
        return True

    def rejection_circuit(self, edge):
        self.stamp += 1
        seen, stamp = self.seen, self.stamp
        u, v = edge
        seen[u] = seen[v] = stamp
        stack = [u, v]
        while stack:
            for w in self.succ[stack.pop()]:
                if seen[w] != stamp:
                    seen[w] = stamp
                    stack.append(w)
        inside = [e for e in self.accepted if seen[e[0]] == stamp and seen[e[1]] == stamp]
        return tuple(sorted(inside + [edge]))

    def insert_all(self, edges):
        circuits = {}
        for e in edges:
            if not self.try_insert(e):
                circuits[e] = self.rejection_circuit(e)
        return circuits


class TwoSidedPebbleGame:
    """The (kk, ll) pebble game that searches for every edge.

    ``try_insert`` runs searches seeded with both endpoints until ll + 1
    pebbles sit on them, whatever their degrees; the first failed search
    rejects the edge and its marks are the region ``rejection_circuit``
    reads.  The later endpoint pays when it has a pebble.  Visits are
    stamped in two lists of length n.
    """

    def __init__(self, n: int, params=PLANE) -> None:
        self.n, self.params = n, params
        self.pebbles = [params.kk] * n
        self.succ = [[] for _ in range(n)]
        self.accepted = []
        self.seen, self.parent, self.stamp = [0] * n, [0] * n, 0

    def _find_pebble(self, u: int, v: int) -> bool:
        pebbles, succ, seen, parent = self.pebbles, self.succ, self.seen, self.parent
        self.stamp += 1
        stamp = self.stamp
        seen[u] = seen[v] = stamp
        stack = [u, v]
        while stack:
            x = stack.pop()
            for w in succ[x]:
                if seen[w] == stamp:
                    continue
                seen[w] = stamp
                parent[w] = x
                if pebbles[w]:
                    pebbles[w] -= 1
                    while w != u and w != v:
                        x = parent[w]
                        succ[x].remove(w)
                        succ[w].append(x)
                        w = x
                    pebbles[w] += 1
                    return True
                stack.append(w)
        return False

    def try_insert(self, edge) -> bool:
        u, v = edge
        pebbles = self.pebbles
        while pebbles[u] + pebbles[v] < self.params.ll + 1:
            if not self._find_pebble(u, v):
                return False
        if pebbles[v]:
            pebbles[v] -= 1
            self.succ[v].append(u)
        else:
            pebbles[u] -= 1
            self.succ[u].append(v)
        self.accepted.append(edge)
        return True

    def rejection_circuit(self, edge):
        seen, stamp = self.seen, self.stamp
        inside = [e for e in self.accepted if seen[e[0]] == stamp and seen[e[1]] == stamp]
        return tuple(sorted(inside + [edge]))

    def insert_all(self, edges):
        circuits = {}
        for e in edges:
            if not self.try_insert(e):
                circuits[e] = self.rejection_circuit(e)
        return circuits


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


def first_nonzero_echelon(rows):
    """``linalg._row_reduce`` with each column pivoted on its first nonzero
    row, not its sparsest: the same pivot columns, unit-pivot rows zero
    left of their pivot, but more fill in the rows below."""
    q = MODULUS
    work = [list(r) for r in rows if any(r)]
    pivots = []
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


def core_stress_bases(g, params, trials: int):
    """The core positions in canonical order and, for trials 0..trials-1,
    the stress basis over every core edge: the kernel of the whole
    R_core(p)ᵀ, read off its reduced echelon form."""
    stripped = coloops(g, params.d)
    core = [i for i, e in enumerate(g.edges) if e not in stripped]
    bases = []
    for t in range(trials):
        p = sample_modular_configuration(g.n, params.d, params.seed + t)
        rows = modular_matrix(g, p, params.d, positions=core)
        bases.append(reduced_echelon_nullspace(list(zip(*rows)), len(core)))
    return core, bases


def full_stress_rainbow_tuple(g, params, trials: int):
    """The rainbow tuple read from the full core stress bases of
    ``core_stress_bases``: in the first trial at the largest rank where S·I
    has rank k, each class in turn takes the column of its first edge that
    keeps rank k.  None when no trial has S·I of rank k, or a class has no
    such edge."""
    core, bases = core_stress_bases(g, params, trials)
    classes = [[j for j, i in enumerate(core) if g.colours[i] == c]
               for c in range(1, g.k + 1)]

    def column(basis, idx):
        return [sum(w[j] for j in idx) % MODULUS for w in basis]

    def rank(cols) -> int:
        return len(reduced_echelon(cols)[0])

    fewest = min(len(basis) for basis in bases)  # the largest rank
    for basis in bases:
        cols = [column(basis, idx) for idx in classes]
        if len(basis) == fewest and rank(cols) == g.k:
            break
    else:
        return None
    tup = []
    for c, idx in enumerate(classes):
        for j in idx:
            swapped = cols[:c] + [column(basis, [j])] + cols[c + 1 :]
            if rank(swapped) == g.k:
                cols = swapped
                tup.append(g.edges[core[j]])
                break
        else:
            return None
    return tuple(tup)


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


def randrange_modular_configuration(n: int, d: int, seed: int):
    """Every coordinate drawn by ``randrange(1, MODULUS)``, vertex by vertex."""
    rng = random.Random(seed)
    return [[rng.randrange(1, MODULUS) for _ in range(d)] for _ in range(n)]


def nested_random_configuration(n: int, d: int, seed: int) -> np.ndarray:
    """The float configuration built from one list of d draws per vertex."""
    rng = random.Random(seed)
    return np.array([[rng.random() for _ in range(d)] for _ in range(n)])


def top_level_main(argv=None) -> int:
    """``cli.main`` with every argv parsed by the top-level parser, which
    hands the tokens after the command on to that command's parser."""
    args = cli._parser().parse_args(argv)
    try:
        if "seed" in args and args.seed is None:
            args.seed = cli._default_seed()
        return args.func(args)
    except (cli.CliError, generic.BackendError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return cli.USAGE_ERROR
