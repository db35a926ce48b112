"""Deterministic plane deciders for coordinated rigidity.

For one coordination class the test is: Laman+1 with a coloured edge in the
unique circuit.  For two classes: Laman+2, no class made entirely of
bridges, and the three coloured sparsity counts.

Every decision first strips the coloops C (``cgraph.coloops(g, 2)``): the
edges removed by repeatedly peeling a vertex of degree <= 2.  (2,3)- and
(2,2)-circuits have minimum degree 3, so C lies in every basis and on no
circuit; the rank is |C| plus the rank of the 3-core, and the circuits,
the redundant edges and the redundant rainbow sets are those of the core.
The games below are played on the core only.

Every decider plays the same first game (``_plane_game``): the core,
each rejection's circuit read only on the game's accepted coloured edges
(``_insert_coloured``).  It is played in one of two orders.  The union
plays the canonical order, because its printed rigidity part and T are
read off the canonical greedy basis.  The one- and two-class deciders
play the vertex order (``_vertex_order``), the canonical order reversed,
in which each vertex joins with no edge, so its first two edges need no
search.  They read the game's final state (``_PlaneGame``): the rank,
the Laman+p kind, the redundant coloured edges, G0's (2,3)-sparsity and,
for two classes, the (2,2) counts of G0 plus each class and the rainbow
pair.  Lemma: none of these depends on the order, since each is a
matroid property or a read that holds for any basis.  The rank, the
redundant edges and each circuit, the minimal tight set spanning its
edge (Lee & Streinu 2008), are the same over every basis; so are G0's
sparsity, both (2,2) counts, the first rainbow pair in the canonical
order of the redundant lists and the one circuit of an isostatic
one-class graph; and ``_g0_read``'s cases and (2,2) bound (a) hold for
any basis.  A state of the game minus the edges it deletes is a valid
game on the rest (Lee & Streinu 2008), so where the state alone does not
settle a count, the game (or a copy, while a later read needs it)
deletes its accepted coloured edges of one kind and re-inserts only
rejected edges.  A circuit is read in full only where a verdict prints
it: the one circuit of an isostatic one-class graph, re-read by
inserting its rejected edge into the final game once more, and G0's
first canonical circuit, from a fresh game on G0's core, in canonical
order, that stops at its first rejection.

For any number of classes the decider uses the rank of the union of the
plane rigidity matroid M with the colour partition matroid P (uncoloured
edges are loops, at most one edge per colour): r(E) plus the largest
rainbow set T independent in the dual M*, i.e. whose removal keeps the rank
r(E).  T is a matroid intersection of M* with P, grown by shortest
augmenting paths, at most one per colour that has a redundant edge: every
edge of T is redundant, so no search is made for another colour.  One
game on the core stays live on the core minus T: every arc is read from
it, each path moves T by deleting and re-inserting edges (Lee & Streinu
2008), and the game is the witness.  Uncoloured edges are loops of P and
carry no exchange arc, so every circuit is read only on the game's
accepted coloured edges.  The search pops the rejected edges first, in
canonical order, then the other circuit edges, in canonical order.  A
rejected edge of a colour T does not hold is both a source and a sink,
so whenever one exists the path is the first of them, a path of length
zero: T takes it with no search, and the game deletes and re-inserts
nothing.  Most rounds are of that kind.  The witness basis is the
canonical greedy one by construction: the first game is greedy, and a
shortest path keeps every rejected edge the last of its circuit
(``union_rank_d2``).  After the last path no circuit is read, so only
the edges the basis gains go back in: those leaving T and the first
rejected edge whose circuit met a deleted edge.
The k = 2 rainbow pair is read from one set, R', the redundant edges of
E - e0 for e0 the first redundant class-1 edge.  For redundant e and f,
f is redundant in E - e iff e and f are not in series, an equivalence
relation, so e0 pairs with the first class-2 edge in R', and when there
is none, a later class-1 edge pairs with the first class-2 edge iff it
is in R'.  R' is the union of the decider's circuits but the one that
holds e0 when e0 is rejected or one circuit holds it; otherwise a copy of
the game deletes e0 and re-inserts the rejected edges whose circuit
holds it.  The pair decides every two-class verdict.  It changes no
game, so it runs before the count tests strip it, and on a Laman+2 graph
it is checked against the three coloured conditions both ways.

Also houses the inductive generator for one-class isostatic graphs used to
build test corpora.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .cgraph import ColouredGraph, build, coloops
from .generic import RigidityVerdict, _ranks, _trivial_dim
from .pebble import PLANE, PLANE_LOOSE, PebbleGame, _span

Edge = tuple[int, int]


def _plane_target(n: int) -> int:
    """Plane rank of a rigid framework on n vertices: 2n - 3, 0 for n = 1."""
    return 2 * n - _trivial_dim(n, 2)


def laman_kind(n: int, m: int, rank: int) -> str:
    """Kind of an n-vertex, m-edge graph by its (2,3)-rank against 2n - 3.

    "laman" or "laman+p" (p = 1, 2) means the rank is full (2n-3) and
    exactly p surplus edges exist, so removing the rejected edges leaves a
    Laman graph; "deficit" means the rank falls short; "other" is full rank
    with three or more surplus edges.
    """
    if n < 2:
        raise ValueError("Laman classification needs n >= 2")
    if rank < _plane_target(n):
        return "deficit"
    surplus = m - rank
    if surplus == 0:
        return "laman"
    if surplus in (1, 2):
        return f"laman+{surplus}"
    return "other"


def transversal_rank(g: ColouredGraph, edges) -> int:
    """Number of distinct nonzero colours among ``edges``.

    The colour classes partition E, so the transversal matroid of the
    classes is a partition matroid with unit capacities; uncoloured edges
    are loops.
    """
    return len({g.colour_of(tuple(e)) for e in edges} - {0})


@dataclass(frozen=True)
class UnionRankReport:
    """Rank of E in the union matroid with a witnessing partition.

    ``independent_rigidity`` is (2,3)-sparse, ``transversal`` has pairwise
    distinct nonzero colours, the two are disjoint and their union has size
    ``union_rank``.  ``deficiency`` is (t + k) - union_rank, where the
    plane target t is 2n - 3 (0 for a single vertex).
    """

    union_rank: int
    independent_rigidity: tuple[Edge, ...]
    transversal: tuple[Edge, ...]
    deficiency: int


def union_rank_d2(g: ColouredGraph) -> UnionRankReport:
    """Exact rank of E in the plane union matroid by dual matroid intersection.

    The union rank is r(E) + |T| for a largest rainbow set T whose removal
    keeps the (2,3)-rank r(E).  T grows by shortest augmenting paths, at
    most one per colour.  The coloops C (``coloops(g, 2)``) lie on no
    circuit, so T avoids them, and the game is played on the core E minus
    C alone.  One game, played on the core in canonical order (not the
    k <= 2 deciders' vertex order: the witness is read off its basis),
    stays live on the core minus T: after each path it deletes the
    entering edges it had accepted and re-inserts, in canonical order,
    the edges leaving T and the rejected edges whose circuit met a
    deleted edge.  Every other circuit lies in the remaining basis, so
    its edge would be rejected again with the same circuit and change no
    other insert; it is kept.  The circuits are the next round's sources.
    The round that finds no path, or after which T holds every colour
    with a redundant edge, is the witness, so a call plays one game.
    ``transversal`` is T in canonical order and ``independent_rigidity``
    C together with the game's basis, in canonical order.  The
    coordinated framework is generically rigid in the plane iff
    union_rank = t + k, and generically isostatic iff additionally
    m = t + k, where t is 2n - 3 (0 for a single vertex).

    Uncoloured edges are loops of the colour partition matroid, so they
    start and carry no exchange arc: each circuit is read only on the
    game's accepted coloured edges, kept in a list beside the game
    (``_insert_coloured``).  T is rainbow, so the deleted edges are
    coloured and "met a deleted edge" reads only coloured edges.

    The game's basis B is the canonical greedy basis of the core minus T
    after every round, so the witness is deterministic.  A basis is the
    greedy one iff every rejected edge is the last edge of its circuit,
    and the first game is greedy.  For a later round write S for the core
    minus T before it, C(w, B) for the circuit of w on B, and x0, y1, x1,
    ..., yl, xl for the path, with x_i on C(y_i, B); Y is the y_i and D
    the x_i that B holds.  By ``_augment``'s lemma deleting D breaks only
    the circuits that hold x0, and only when x0 is in B.  A breadth-first
    path has no shortcut, x_i is not on C(y_j, B) for j < i, so
    I = B - D + Y is independent, and I + x0 is a basis of S + Y when x0
    is in B.  A rejected w with x0 on C(w, B) then has x0 on C(w, I + x0),
    so I does not span it: re-inserting Y and these w in canonical order
    accepts all of Y and the first such w1, and rejects every later w.
    Strong circuit elimination at x0 gives each later w a circuit inside
    C(w, B) and C(w1, B) minus x0, every edge of it at most w, so w is
    again the last edge of its circuit.  Kept circuits do not change, so
    B stays greedy.  The search pops the rejected edges first
    (``_augment``), so whenever a rejected edge of an unheld colour exists
    the path is the first of them alone, of length zero: x0 is rejected,
    D and Y are empty, nothing is deleted or re-inserted, and every other
    circuit is kept as it is.  B is then the greedy basis of S - x0 too,
    since whether the greedy order takes an edge depends only on the edges
    it took before, and x0 is not one of them.

    Two parts of that work feed nothing and are skipped.  Removing T keeps
    the rank, so every edge of T is a coloured redundant edge of the core
    and lies on the fundamental circuit of a rejected edge of the first
    game, whose entry holds it.  T therefore holds at most ``most``
    colours, those of the first entries' coloured edges, and the loop
    stops there, with no exhausting search for a colour that no circuit
    holds.  The round after which T holds ``most`` colours is the last:
    no circuit is read after it, and a rejected edge leaves the basis as
    it is.  So by the lemma it re-inserts only Y and w1, the edges the
    basis gains, and raises RuntimeError if one of them is rejected.

    T is independent in M* iff the core minus T keeps the rank of the
    core.  The game holds a basis of the core minus T, so its size is
    checked against the first game's.
    """
    held: dict[int, Edge] = {}  # colour -> the edge of T that holds it
    stripped = coloops(g, 2)
    plane = _plane_game(g, stripped)
    game, coloured, circuits = plane.game, plane.coloured, plane.circuits
    full = len(game.accepted)
    # the colours with a redundant edge: T holds no other
    most = len({g.colour_of(e) for e in plane.redundant} - {0})
    while len(held) < most:
        before = set(held.values())
        if not _augment(g, held, game, circuits, coloured):
            break
        after = set(held.values())
        entering, leaving = after - before, before - after
        deleted = {e for e in entering if e not in circuits}
        if deleted:
            game.delete_all(deleted)
            coloured = [e for e in coloured if e not in deleted]
        # deletion leaves a valid game on the rest of the basis; a circuit
        # avoiding the deleted edges still lies in it, so only the edges of
        # broken circuits and those leaving T go back in
        kept, broken = {}, []
        for e, circuit in circuits.items():
            if e in entering:
                continue
            if deleted.isdisjoint(circuit):
                kept[e] = circuit
            else:
                broken.append(e)
        if len(held) == most:
            # the last round: no circuit is read after it, so only Y and
            # the first broken edge go back in, which the lemma accepts
            for e in sorted(leaving.union(sorted(broken)[:1])):
                if not game.try_insert(e):
                    raise RuntimeError(
                        f"union invariant broken: the last path's re-insert rejects {e}")
            break
        kept.update(_insert_coloured(g, game, sorted(broken + list(leaving)), coloured))
        circuits = kept
    transversal = tuple(sorted(held.values()))
    if transversal_rank(g, transversal) != len(transversal):
        raise RuntimeError("union invariant broken: T is not rainbow")
    if len(game.accepted) != full:
        raise RuntimeError("union invariant broken: removing T lowers the rank")
    rank = len(stripped) + full + len(transversal)
    return UnionRankReport(
        union_rank=rank,
        independent_rigidity=tuple(sorted(stripped.union(game.accepted))),
        transversal=transversal,
        deficiency=(_plane_target(g.n) + g.k) - rank,
    )


def _insert_coloured(g: ColouredGraph, game: PebbleGame, edges, coloured, colours=None):
    """Insert ``edges`` into ``game`` in order, appending each accepted
    coloured edge to ``coloured``, the game's accepted coloured edges.
    ``colours`` gives the edges' colours in the same order; when None they
    are looked up in g.

    Returns {rejected edge e: e plus the edges of ``coloured`` on its
    circuit}, read by ``rejection_circuit`` from ``coloured`` alone.
    """
    if colours is None:
        colours = map(g.colour_of, edges)
    circuits = {}
    for e, c in zip(edges, colours):
        if game.try_insert(e):
            if c:
                coloured.append(e)
            continue
        circuits[e] = game.rejection_circuit(e, coloured)
    return circuits


def _augment(g: ColouredGraph, held: dict[int, Edge], game: PebbleGame,
             circuits, among) -> bool:
    """Grow T = held.values() by one colour along a shortest exchange path.

    ``game`` is a game on E minus T, holding any basis B of it, and
    ``circuits`` its rejection circuits, each read on the accepted edges
    ``among`` (all of them, or only the coloured ones); together they give
    every arc.  Sources are its redundant edges as read, the union of the
    circuits (adding one to T keeps it independent in M*); an edge x
    outside T has an arc to the edge of T holding x's colour; an edge y of
    T has arcs to the redundant edges of (E minus T) + y, which are the
    sources plus the fundamental circuit C(y, B), read from ``among`` by
    inserting y into the same game; sinks are coloured edges whose colour
    T does not hold.
    The new arcs of y are the coloops of E minus T in C(y, B), those on a
    circuit with y, so no arc depends on which basis the game holds.
    Breadth-first, with the sources queued in a fixed order: the rejected
    edges (the keys of ``circuits``) in canonical order, then the other
    circuit edges in canonical order; every later edge is queued in the
    order its arcs are read.  So the path found is deterministic, and it
    is shortest whatever the order of the sources.  A rejected edge is not
    in T, so the first one of an unheld colour is the search's first sink
    whenever one exists, before any arc is read: the path is that edge
    alone, and it is taken directly, with no search, insert or circuit
    read.
    An uncoloured edge is a loop of the partition matroid: it is skipped
    when popped, neither a sink nor the tail of an arc, so reading only
    the coloured edges gives every coloured edge the same predecessor and
    finds the same path.  Returns False when no path exists, i.e. T is
    already largest; the game then still has the accepted edges of E
    minus T.  Every edge the search reaches is a source or lies on a
    circuit with an edge of T, so it is redundant in E: once T holds
    every colour that has a redundant edge in E, no sink is reachable and
    the call would return False (``union_rank_d2`` does not make it).

    Lemma: the sources go into ``pred`` before the search starts, and
    they hold every coloured redundant edge of S = E minus T, since a
    redundant basis edge lies on the circuit of some rejected edge.  So
    a path edge x_i after the source x0, reached from y_i in T, coloured
    and not yet in ``pred``, is a coloop of S.  Deleting the entering
    edges that B holds therefore breaks only the circuits that hold x0,
    and only when x0 is in B (``union_rank_d2``).
    """
    rejected = sorted(circuits)
    for x in rejected:
        colour = g.colour_of(x)
        if colour and colour not in held:  # the first pop, a source and a sink
            held[colour] = x
            return True
    tset = set(held.values())
    sources = rejected + sorted({e for circuit in circuits.values() for e in circuit
                                 if e not in circuits})
    pred: dict[Edge, Edge | None] = dict.fromkeys(sources)
    queue: deque[Edge] = deque(sources)
    while queue:
        x = queue.popleft()
        if x in tset:
            if game.try_insert(x):
                raise RuntimeError("union invariant broken: removing T lowers the rank")
            arcs = game.rejection_circuit(x, among)
        else:
            colour = g.colour_of(x)
            if colour == 0:  # a loop of P: no exchange, not a sink
                continue
            if colour not in held:
                # walk back to the source: each edge outside T takes the
                # colour of the edge of T it displaces, the sink a new one
                while x is not None:
                    held[g.colour_of(x)] = x
                    y = pred[x]
                    x = None if y is None else pred[y]
                return True
            arcs = (held[colour],)
        for y in arcs:
            if y not in pred:
                pred[y] = x
                queue.append(y)
    return False


# ---------------------------------------------------------------------------
# one and two coordination classes


@dataclass(frozen=True)
class _PlaneGame:
    """One (2,3) game on the core E of g, in any order, and the reads the
    one- and two-class verdicts take off its final state.

    Write B for the basis the game holds, G0 for the uncoloured edges,
    Ci for class i, R0 for G0's rejected edges, surplus(X) = |X| - r(X),
    and r*(X) = |X| - r(E) + r(E - X) for the rank of X in the dual.
    Every count is decided on the core: (2,3)- and (2,2)-circuits have
    minimum degree 3, so a coloop of g lies on no circuit of any of its
    subgraphs.

    G0's (2,3)-sparsity (``_g0_read``).  Sparse when R0 is empty.  Not
    sparse when the entry of an edge of R0 holds no coloured edge, since
    its circuit lies in G0.  Sparse when R0 is one edge e whose entry
    holds a coloured edge: that circuit is the only one in B + e, and
    G0's accepted edges plus e, a part of B + e that misses one of its
    edges, are independent.
    Otherwise the game deletes its accepted coloured edges, which leaves
    a valid game on G0's accepted edges (Lee & Streinu 2008), and G0 is
    sparse iff all of R0 goes back in (``_sparse_after``).

    The (2,2) count of G0 + Ci, for j the other class.  A (2,2)-violating
    set has m' >= 2n' - 1 edges and (2,3)-rank at most 2n' - 3, so its
    surplus is at least 2; surplus never falls on a superset, so a set of
    surplus at most 1 is (2,2)-sparse.  G0 + Ci is E - Cj, and
    (a) its accepted edges are independent, so its surplus is at most the
        number of its rejected edges, those outside Cj;
    (b) surplus(E - Cj) = surplus(E) - r*(Cj), by expanding both sides,
        and r*(Cj) >= 1 iff Cj holds a redundant edge (one whose removal
        keeps the rank, so one on a circuit); the surplus is then at
        most surplus(E) - 1.  The game's ``redundant`` holds every
        redundant coloured edge, whatever the rank.
    When neither bound is at most 1, the game deletes Cj's accepted edges,
    which leaves a (2,3)-sparse, hence (2,2)-sparse, valid game on the
    accepted edges of E - Cj, and since kk is 2 in both counts, it
    switches to the (2,2) count and re-inserts the rejected edges outside
    Cj: G0 + Ci is (2,2)-sparse iff they all go in.

    The rainbow pair (``_rainbow_pair_general``) reads the game and its
    circuits first, on a copy where the circuits alone do not give the
    redundant edges of E - e0, and changes neither; after it each count
    test strips a copy, except the last, which strips the game itself.

    None of these reads depends on the order the game played the core in,
    so the deciders play the vertex order (``_vertex_order``).  The rank,
    the redundant edges and each circuit, the minimal tight set spanning
    its edge, are the same over every basis (Lee & Streinu 2008), so the
    coloured redundant edges, G0's sparsity, both (2,2) counts, the first
    rainbow pair in the canonical order of the redundant lists and the one
    circuit of an isostatic one-class graph are too.  The cases of
    ``_g0_read`` and bound (a) above hold for any basis B, and bound (b)
    reads only the redundant edges.  Only which edge is rejected, which
    count test runs and whether the pair read copies the game follow the
    order.
    """

    rank: int  # the (2,3)-rank, |stripped| plus the game's
    circuits: dict  # rejected edge -> it plus the accepted coloured edges on its circuit
    redundant: set  # the union of the circuits
    game: PebbleGame
    coloured: list  # the game's accepted coloured edges


def _plane_game(g: ColouredGraph, stripped, order=None) -> _PlaneGame:
    """The first game of every plane decider: the core of g, g minus its
    coloops ``stripped``, each rejection read on the accepted coloured
    edges alone (``_insert_coloured``).  Every circuit's coloured edges
    are thus in its entry, and every redundant coloured edge is in
    ``redundant``.  The core is inserted in canonical order, or, when
    ``order`` is given, in the order ``order(edges, colours)`` returns
    for the core's edges and colours in canonical order.  The union
    reads the canonical greedy basis; the k <= 2 deciders read only what
    holds for any basis (``_PlaneGame``) and pass ``_vertex_order``."""
    core, colours = [], []
    for e, c in zip(g.edges, g.colours):
        if e not in stripped:
            core.append(e)
            colours.append(c)
    if order is not None:
        core, colours = order(core, colours)
    game = PebbleGame(_span(core))
    coloured: list[Edge] = []
    circuits = _insert_coloured(g, game, core, coloured, colours)
    redundant = {e for circuit in circuits.values() for e in circuit}
    return _PlaneGame(len(stripped) + len(game.accepted), circuits, redundant, game, coloured)


def _vertex_order(edges, colours):
    """The k <= 2 deciders' play order: canonical ``edges`` and their
    ``colours``, both reversed in place.  That is vertex by vertex from
    the top: vertex u's edges (u, v) with v > u come together, after
    every edge among the vertices above u, so u joins the game with no
    edge and its first two edges are 0-extensions, placed with no
    search (``PebbleGame.try_insert``)."""
    edges.reverse()
    colours.reverse()
    return edges, colours


def _g0_read(circuits, coloured_rejected):
    """G0's (2,3)-sparsity as far as the final state shows it
    (``_PlaneGame``): True, False, or None when the game must re-insert
    G0's rejected edges R0; and R0, the edges of ``circuits`` outside
    ``coloured_rejected``."""
    r0 = [e for e in circuits if e not in coloured_rejected]
    if any(len(circuits[e]) == 1 for e in r0):
        return False, r0
    return (True if len(r0) <= 1 else None), r0


def _sparse_after(game: PebbleGame, deleted, params, edges) -> bool:
    """Whether the accepted edges of ``game`` minus ``deleted``, together
    with ``edges``, are sparse for ``params`` (``_PlaneGame``).  Strips
    ``game`` in place and stops at the first rejection."""
    game.delete_all(deleted)
    game.params = params
    return all(game.try_insert(e) for e in edges)


def check_k1(g: ColouredGraph) -> RigidityVerdict:
    """Plane decision for one coordination class.

    Isostatic iff the graph is Laman+1 and the unique circuit contains a
    coloured edge; rigid in general iff the plane rank is full and some
    coloured edge is redundant.  The verdict carries an independence report:
    independent iff the uncoloured subgraph is Laman-sparse and at most one
    circuit exists.
    """
    if g.k != 1:
        raise ValueError(f"one-class decider called with k={g.k}")
    plane = _plane_game(g, coloops(g, 2), _vertex_order)
    rank, circuits, game = plane.rank, plane.circuits, plane.game
    target = _plane_target(g.n)
    cert_edges = [e for e in g.colour_class(1) if e in plane.redundant]
    rigid = rank == target and bool(cert_edges)
    isostatic = rigid and g.m == target + 1
    if isostatic:
        # the one rejection: the final game rejects it again, and the
        # marks of that search are its whole circuit
        (e,) = circuits
        game.try_insert(e)
        circuit = game.rejection_circuit(e)
    g0_sparse, r0 = _g0_read(circuits, {e for e in cert_edges if e in circuits})
    if g0_sparse is None:
        g0_sparse = _sparse_after(game, plane.coloured, PLANE, r0)
    diagnosis = {
        "g0_laman_sparse": g0_sparse,
        "independent": g0_sparse and (g.m - rank) <= 1,
    }
    if isostatic:
        diagnosis["circuit"] = [list(e) for e in circuit]
    certificate = {"diagnosis": diagnosis}
    if rigid:
        witness = None
        certificate["rainbow_tuple"] = [list(cert_edges[0])]
    elif rank < target:
        witness = f"deficiency:{target - rank}"
    elif g.m < target + 1:
        witness = "not-laman-plus-1"
    else:
        witness = "class-all-bridges:1"
    return RigidityVerdict(
        decision="rigid" if rigid else "flexible", method="k1-laman", d=2, k=1,
        seed=None, ranks=_ranks(g, target_rank=target, rank23=rank,
                                 classification=laman_kind(g.n, g.m, rank)),
        certificate=certificate, witness=witness, isostatic=isostatic,
    )


def check_k2(g: ColouredGraph) -> RigidityVerdict:
    """Plane decision for two coordination classes.

    Isostatic iff (1) Laman+2, (2) no colour class consists only of
    bridges, (3) the uncoloured subgraph is Laman-sparse and both one-class
    subgraphs are (2,2)-sparse.  All three conditions are evaluated even
    after one fails so the diagnosis is complete, and ``failing`` lists
    those that fail.  The rainbow pair decides every verdict: rigid iff
    the plane rank is full and some rainbow pair is redundant.  On a
    Laman+2 graph a pair exists iff no condition fails (the two-class
    theorem), and RuntimeError is raised when the two disagree.  A
    flexible verdict's witness is the rank deficiency when the rank is
    short; else, up to Laman+2, the first failing condition; else the
    first class made of bridges, or no-rainbow-redundant-pair when there
    is none.

    The pair read (``_rainbow_pair_general``), one read of the redundant
    edges of E - e0 for e0 the first redundant class-1 edge, runs first
    and changes no game.  G0's sparsity and the (2,2) counts are then
    read off the plane game's final state, or, where it does not settle
    them, by deleting edges from a copy of the game, the last from the
    game itself, and re-inserting rejected ones (``_PlaneGame``).
    """
    if g.k != 2:
        raise ValueError(f"two-class decider called with k={g.k}")
    stripped = coloops(g, 2)
    plane = _plane_game(g, stripped, _vertex_order)
    rank, circuits = plane.rank, plane.circuits
    kind = laman_kind(g.n, g.m, rank)
    target = _plane_target(g.n)
    surplus = len(circuits)
    classes = {i: g.colour_class(i) for i in (1, 2)}
    # the game's redundant and rejected edges of each class
    red = {i: [e for e in classes[i] if e in plane.redundant] for i in (1, 2)}
    rejected = {i: {e for e in red[i] if e in circuits} for i in (1, 2)}
    redundant = plane.redundant if rank == target else set()
    class_red = {i: red[i] if rank == target else [] for i in (1, 2)}

    # the pair decides the verdict; it changes no game, so the count tests
    # read the game after it, each but the last on a copy
    pair = None
    if rank == target and surplus >= 2:
        pair = _rainbow_pair_general(plane.game, circuits, class_red[1], class_red[2])

    g0_sparse, r0 = _g0_read(circuits, rejected[1] | rejected[2])
    tests = []  # (key, edges to delete, count, edges to re-insert)
    if g0_sparse is None:
        tests.append(("g0", plane.coloured, PLANE, r0))
    sub_22 = {}
    for i, j in ((1, 2), (2, 1)):
        # the surplus of G0 + Ci = E - Cj is at most 1 by bound (a) or (b)
        if surplus - len(rejected[j]) <= 1 or surplus - bool(red[j]) <= 1:
            sub_22[i] = True
        else:
            accepted_j = [e for e in classes[j] if e not in circuits and e not in stripped]
            outside_j = [e for e in circuits if e not in rejected[j]]
            tests.append((i, accepted_j, PLANE_LOOSE, outside_j))
    for n, (key, deleted, params, edges) in enumerate(tests, 1):
        game = plane.game if n == len(tests) else plane.game.copy()
        sparse = _sparse_after(game, deleted, params, edges)
        if key == "g0":
            g0_sparse = sparse
        else:
            sub_22[key] = sparse

    failing = [] if kind == "laman+2" else ["not-laman-plus-2"]
    failing += [f"class-all-bridges:{i}" for i in (1, 2) if not class_red[i]]
    if not g0_sparse:
        failing.append("G0-not-sparse")
    failing += [f"G{i}-not-22-sparse" for i in (1, 2) if not sub_22[i]]
    diagnosis = {
        "laman_plus_2": kind == "laman+2",
        "class_redundant": {str(i): [list(e) for e in class_red[i]] for i in (1, 2)},
        "class_bridges": {
            str(i): [list(e) for e in classes[i] if e not in redundant]
            for i in (1, 2)
        },
        "g0_laman_sparse": g0_sparse,
        "g1_22_sparse": sub_22[1],
        "g2_22_sparse": sub_22[2],
        "failing": failing,
    }
    if not g0_sparse:
        g0 = [e for e, c in zip(g.edges, g.colours) if not c and e not in stripped]
        diagnosis["g0_circuit"] = [list(e) for e in _first_circuit(g0)]

    # the two-class theorem: a Laman+2 graph has a pair iff no condition fails
    if kind == "laman+2" and (pair is None) != bool(failing):
        raise RuntimeError(
            "internal inconsistency: a Laman+2 graph has a rainbow redundant "
            "pair iff no coloured sparsity condition fails, but the pair is "
            f"{pair} and the failing conditions are {failing}"
        )
    rigid = pair is not None
    certificate = {"diagnosis": diagnosis}
    if rigid:
        witness = None
        certificate["rainbow_tuple"] = [list(pair[0]), list(pair[1])]
    elif rank < target:
        witness = f"deficiency:{target - rank}"
    elif g.m <= target + 2:
        witness = failing[0]
    else:
        witness = next((f for f in failing if f.startswith("class-all-bridges:")),
                       "no-rainbow-redundant-pair")
    return RigidityVerdict(
        decision="rigid" if rigid else "flexible", method="k2-laman", d=2, k=2,
        seed=None, ranks=_ranks(g, target_rank=target, rank23=rank, classification=kind),
        certificate=certificate, witness=witness,
        isostatic=rigid and kind == "laman+2",
    )


def _first_circuit(edges):
    """The whole circuit of the first edge that a fresh (2,3) game on
    ``edges``, in order, rejects; None when it rejects none."""
    game = PebbleGame(_span(edges))
    for e in edges:
        if not game.try_insert(e):
            return game.rejection_circuit(e)
    return None


def _rainbow_pair_general(game, circuits, r1, r2):
    """First rainbow redundant pair of a rank-full graph of any surplus.

    {e, f} is jointly redundant iff E - e - f keeps the rank of E, so e is
    in R1 and f in R2, the redundant edges of classes 1 and 2, given in
    canonical order as ``r1`` and ``r2``.  The pair is the first e that
    has a partner, with its first partner.  ``game`` is the plane game on
    E with basis B and ``circuits`` its rejection circuits, of which only
    the coloured edges are read (``_plane_game``); the game is not changed.

    Lemma (Oxley, "Matroid Theory", series classes): for redundant edges
    e != f, E - e - f keeps the rank iff {e, f} is not a cocircuit, i.e.
    e and f are not in series, and being in series is the parallel
    relation of the dual matroid, an equivalence relation.  So the pair
    is fixed by one set, R', the redundant edges of E - e0 for e0 the
    first edge of R1: the partners of e0 are the edges of R2 in R'.  When
    it has none, all of R2 lies in e0's series class S, and a later e of
    R1 pairs with every edge of R2 if it lies outside S, i.e. in R', and
    with none if inside, so its pair is with the first edge of R2.

    R' is the union of the fundamental circuits of any basis of E - e0,
    and only its edges of R1 and R2 are read.  When e0 is rejected, B is
    such a basis, with every circuit but e0's.  When the circuit of one
    rejected edge x holds e0, B - e0 + x is one and keeps every other
    circuit, which lies in B - e0.  Otherwise a copy of the game deletes
    e0, which leaves a valid game on B - e0 (Lee & Streinu 2008), and
    re-inserts the rejected edges whose circuit holds e0 in canonical
    order: the first goes in and restores the rank, and each later one is
    rejected with its circuit on the new basis, read on the copy's
    accepted edges of R1 and R2.  Every other circuit is kept.
    """
    if not r1 or not r2:
        return None
    e0 = r1[0]
    holders, kept = [], []
    for x, circuit in circuits.items():
        if e0 in circuit:
            holders.append(x)
        else:
            kept.append(circuit)
    if len(holders) > 1:
        first, *rest = sorted(holders)
        trial = game.copy()
        trial.delete_all([e0])
        if not trial.try_insert(first):
            raise RuntimeError(f"pair invariant broken: the game on B - {e0} rejects {first}")
        # the copy's basis edges that may be in R1 or R2
        among = [e for e in r1 + r2 if e != e0 and e not in circuits] + [first]
        for x in rest:
            # B - e0 + first spans E - e0, so x is rejected; were it not,
            # the read would raise RuntimeError
            trial.try_insert(x)
            kept.append(trial.rejection_circuit(x, among))
    redundant = set().union(*kept)
    f = next((f for f in r2 if f in redundant), None)
    if f is not None:
        return (e0, f)
    e = next((e for e in r1[1:] if e in redundant), None)
    return None if e is None else (e, r2[0])


def check_union(g: ColouredGraph) -> RigidityVerdict:
    """Plane decision for any number of classes via the union rank."""
    rep = union_rank_d2(g)
    target = _plane_target(g.n) + g.k
    rigid = rep.union_rank == target
    certificate = {"partition": {
        "rigidity_part": [list(e) for e in rep.independent_rigidity],
        "transversal_part": [list(e) for e in rep.transversal],
    }}
    if rigid:
        tuple_by_colour = sorted(rep.transversal, key=g.colour_of)
        certificate["rainbow_tuple"] = [list(e) for e in tuple_by_colour]
    return RigidityVerdict(
        decision="rigid" if rigid else "flexible", method="matroid-union", d=2,
        k=g.k, seed=None,
        ranks=_ranks(g, target_rank=_plane_target(g.n), union_rank=rep.union_rank,
                     union_target=target, deficiency=rep.deficiency),
        certificate=certificate,
        witness=None if rigid else f"deficiency:{rep.deficiency}",
        isostatic=rigid and g.m == target,
    )


def decide_plane(g: ColouredGraph) -> RigidityVerdict:
    """Dispatch the combinatorial plane decision on the class count."""
    if g.k == 1:
        return check_k1(g)
    if g.k == 2:
        return check_k2(g)
    return check_union(g)


# ---------------------------------------------------------------------------
# inductive generator (one class)


def henneberg_k1_sample(target_n: int, seed: int) -> ColouredGraph:
    """Random isostatic one-class graph grown by vertex-addition and
    edge-split moves.

    Starts from a random colouring of K4 with a non-empty class and applies
    target_n - 4 random moves: vertex addition joins a new degree-2 vertex
    to two existing vertices (each new edge coloured with probability 1/4);
    edge split removes an edge, joining a new degree-3 vertex to its ends
    and one more vertex, and when the removed edge was coloured at least
    one of the two replacement edges at its ends is coloured.  When the
    removed edge was uncoloured all three new edges stay uncoloured.  The
    output is validated to be isostatic before being returned.  target_n
    must be an exact ``int``, as a graph's n is.
    """
    if type(target_n) is not int:
        raise ValueError(f"generator size must be an int, got {target_n!r}")
    if target_n < 4:
        raise ValueError("generator needs target_n >= 4")
    rng = random.Random(seed)
    edges: list[tuple[int, int, int]] = []
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
            t = rng.randrange(len(edges))
            i, j, c = edges.pop(t)
            # the vertex rng.choice would draw from range(n) minus i < j,
            # found by index without building that list
            z = rng.randrange(n - 2)
            z += z >= i
            z += z >= j
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
            edges.append((i, w, ci))
            edges.append((j, w, cj))
            edges.append((z, w, cz))
        n += 1
    g = build(n, 1, edges)
    verdict = check_k1(g)
    if not (verdict.rigid and verdict.isostatic):
        raise RuntimeError(
            f"generator produced a non-isostatic graph (seed {seed}); "
            "this indicates a bug in the move rules"
        )
    return g
