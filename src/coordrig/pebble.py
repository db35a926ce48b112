"""Deterministic (k, l)-sparsity engine built on the pebble game.

Provides rank in the count matroid (for the plane: (2,3), with (2,2) also
needed by the two-class decider), maximal independent edge sets,
fundamental circuits of rejected edges and d=2 redundant-edge detection.
The plane count 2n - 3 and the Laman+p classification live in ``laman``.

Determinism comes from the canonical (sorted) edge order alone.  The
accepted set is the greedy basis in that order, and the circuit of a
rejected edge is the unique minimal tight set spanning it (Lee & Streinu
2008), so neither depends on which pebble a search finds.

A game can be copied (``PebbleGame.copy``) and can drop accepted edges
(``PebbleGame.delete_all``): removing an edge's arc and returning its
pebble to the arc's tail leaves a valid game on the remaining accepted
edges (Lee & Streinu 2008).  Re-inserting the rejected edges then gives the
rank, the redundant edges and the circuits of the smaller edge set without
replaying the whole game; a rejected edge whose circuit avoids the deleted
edges keeps that circuit and need not go back in.

A search is seeded with both endpoints of the pending edge and moves a
free pebble to whichever endpoint its path starts from, so an edge is
rejected by its first failed search.  That search has then marked every
vertex reachable from the endpoints, which is the minimal tight set
spanning the edge (Lee & Streinu 2008), and the circuit is read from its
marks without a second walk.  Searches mark visits in a game's own
lists, with an integer stamp bumped once per search, so no dict or set
is built per search and no list is cleared.  A game makes these lists
and the per-vertex ones (pebbles, arcs, degrees) once, for the vertices
its edges touch: the callers size it by the span of the edges it plays
(``_span``), not by n, so a far coloop costs nothing.  A copy gets its
own marks.

Most inserts make no search at all.  An edge with an endpoint of
accepted degree below kk, and parallel to no accepted edge, is
independent (Henneberg's 0-extension: a vertex set holding both
endpoints loses at most kk spanned edges with that endpoint, so it spans
at most kk*n' - ll, and the two endpoints alone span one edge, at most
2*kk - ll), and that endpoint, whose out-degree is below kk, has a free
pebble to pay with.  Otherwise an accepted edge is paid for by its later
endpoint when that one has a pebble, which spares the next edge, usually
at the same first endpoint, a search: edges with the same first endpoint
come together both in canonical order and in its reverse, the order the
one- and two-class plane deciders play (``laman._vertex_order``).  None of
this changes any output: the pebble game is exact from any valid
orientation (Lee & Streinu 2008), so the payer only orients an arc, and
a rejection still costs one failed search whose marks give the circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .cgraph import ColouredGraph

Edge = tuple[int, int]


@dataclass(frozen=True)
class SparsityParams:
    """Count-matroid parameters: m' <= kk*n' - ll on every n' >= 2 subgraph.

    The admissible range is kk >= 1, 0 <= ll <= 2*kk - 1; outside it the
    pebble game does not model the count.  (kk here is the count parameter,
    unrelated to the number of coordination classes.)
    """

    kk: int = 2
    ll: int = 3

    def __post_init__(self) -> None:
        if self.kk < 1 or not 0 <= self.ll <= 2 * self.kk - 1:
            raise ValueError(
                f"invalid sparsity parameters ({self.kk}, {self.ll}); "
                f"need kk >= 1 and 0 <= ll <= 2*kk - 1"
            )


PLANE = SparsityParams(2, 3)
PLANE_LOOSE = SparsityParams(2, 2)


class PebbleGame:
    """Incremental (kk, ll)-independence tester on vertices 0..n-1.

    Each vertex starts with kk pebbles; inserting an edge requires ll + 1
    pebbles gathered on its endpoints, after which one pebble pays for the
    edge and the edge is oriented away from the paying endpoint.  Every
    vertex v keeps pebbles[v] + len(succ[v]) == kk, and deg[v] is its
    number of accepted edges.  The lists are made once, for the n
    vertices the caller's edges touch; an endpoint beyond them raises
    IndexError.
    """

    def __init__(self, n: int, params: SparsityParams = PLANE) -> None:
        self.n = n
        self.params = params
        self.pebbles = [params.kk] * n
        self.succ: list[list[int]] = [[] for _ in range(n)]
        self.deg = [0] * n
        self.accepted: list[Edge] = []
        # seen[w] == stamp marks w as visited by the current search, and
        # parent[w] is then its predecessor
        self._seen, self._parent, self._stamp = [0] * n, [0] * n, 0
        self._rejected: Edge | None = None  # the last try_insert's edge if rejected

    def copy(self) -> PebbleGame:
        """An independent game in the same state, made without replaying
        any insertion: pebbles, arcs and degrees are copied, and the twin
        gets its own search marks, so neither game's searches touch the
        other's."""
        twin = object.__new__(type(self))
        twin.n, twin.params = self.n, self.params
        twin.pebbles = list(self.pebbles)
        twin.succ = [list(s) for s in self.succ]
        twin.deg = list(self.deg)
        twin.accepted = list(self.accepted)
        twin._seen, twin._parent, twin._stamp = [0] * self.n, [0] * self.n, 0
        twin._rejected = None
        return twin

    def delete_all(self, edges) -> None:
        """Remove accepted edges: drop each one's arc and return the pebble
        that paid for it to the arc's tail.  The state is then a valid game
        on the remaining accepted edges (Lee & Streinu 2008).  O(n + m) for
        any number of edges: a vertex has at most kk arcs, so each arc goes
        in O(1), and the accepted list is filtered once."""
        gone = set(edges)
        succ, pebbles, deg = self.succ, self.pebbles, self.deg
        for u, v in gone:
            tail, head = (u, v) if v in succ[u] else (v, u)
            succ[tail].remove(head)
            pebbles[tail] += 1
            deg[u] -= 1
            deg[v] -= 1
        self.accepted = [e for e in self.accepted if e not in gone]
        self._rejected = None

    def _find_pebble(self, u: int, v: int) -> bool:
        """Move one free pebble to u or v along a reversed search path.

        One depth-first search seeded with both endpoints of the pending
        edge, over the edge orientations in stored order, testing each
        vertex for a free pebble when it is discovered; the endpoints are
        marked before the search starts, so neither donates.  A vertex is
        visited when it carries this search's stamp, and its ``parent``
        entry, written at the same time, leads back to the endpoint its
        path started from, which receives the pebble.  Returns False when
        no free pebble is reachable; the stamp then marks exactly the
        vertices reachable from u and v.
        """
        pebbles, succ, seen, parent = self.pebbles, self.succ, self._seen, self._parent
        stamp = self._stamp = self._stamp + 1
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

    def try_insert(self, edge: Edge) -> bool:
        """Accept ``edge`` if it is independent over the accepted set.

        An endpoint of accepted degree below kk certifies the edge, unless
        an accepted edge joins the same endpoints, and pays for it with its
        free pebble, with no search: the later endpoint v when v qualifies.
        Otherwise two-sided searches gather ll + 1 pebbles on the endpoints
        u < v; the first search that fails rejects the edge, so a rejection
        costs one failed search, and its stamp marks the region that
        ``rejection_circuit`` reads.  Such an edge, once accepted, is paid
        for by v when it has a pebble and by u only otherwise: the next
        edge, in canonical order or in its reverse, usually starts at u
        again and finds u's pebbles in place, which saves it a search.
        The certificate and the payer set only the arc's direction; the
        accepted set is the greedy basis and each circuit the minimal
        tight set spanning its edge, so neither depends on them.
        """
        u, v = edge
        pebbles, deg, succ = self.pebbles, self.deg, self.succ
        kk = self.params.kk
        if (deg[v] < kk or deg[u] < kk) and v not in succ[u] and u not in succ[v]:
            tail, head = (v, u) if deg[v] < kk else (u, v)
        else:
            need = self.params.ll + 1
            while pebbles[u] + pebbles[v] < need:
                if not self._find_pebble(u, v):
                    self._rejected = edge
                    return False
            tail, head = (v, u) if pebbles[v] else (u, v)
        self._rejected = None
        pebbles[tail] -= 1
        succ[tail].append(head)
        deg[u] += 1
        deg[v] += 1
        self.accepted.append(edge)
        return True

    def insert_all(self, edges) -> dict[Edge, tuple[Edge, ...]]:
        """Insert ``edges`` in order; returns {rejected edge: its circuit}.

        Each circuit is computed on the spot, which matches the circuit
        over the final accepted set because the circuit of e is already
        contained in the accepted edges present at rejection time.
        """
        circuits: dict[Edge, tuple[Edge, ...]] = {}
        for e in edges:
            if not self.try_insert(e):
                circuits[e] = self.rejection_circuit(e)
        return circuits

    def rejection_circuit(self, edge: Edge, among=None) -> tuple[Edge, ...]:
        """Fundamental circuit of a just-rejected edge, or its part in
        ``among``.

        Valid only immediately after ``try_insert(edge)`` returned False:
        its failed search marked the vertices reachable from the endpoints,
        which are then the minimal tight set containing both (Lee & Streinu
        2008), and the accepted edges inside it together with the rejected
        edge form the unique circuit.  No search runs here; the edges are
        read by a scan of the accepted edges, which come in nearly
        canonical order or nearly its reverse (the one- and two-class
        plane deciders' order), runs the sort takes in linear time;
        collecting the
        region's own arcs and sorting them costs more than the scan saves
        when, as is typical, the region holds a third of the vertices or
        more.  ``among``, a sequence of accepted edges, narrows the scan
        to those edges: the result is then ``edge`` with the edges of
        ``among`` on its circuit, for a caller that reads only some of
        them (the plane deciders read only the coloured ones).  Raises
        RuntimeError when ``edge`` is not the edge the last ``try_insert``
        of this game rejected, because the marks then belong to another
        region.  A copy searches with its own marks, so its searches leave
        this read valid.
        """
        if self._rejected != edge:
            raise RuntimeError(
                f"no circuit to read for {edge}: it is not the edge the last "
                "try_insert of this game rejected")
        seen, stamp = self._seen, self._stamp
        if among is None:
            among = self.accepted
        inside = [e for e in among if seen[e[0]] == stamp and seen[e[1]] == stamp]
        inside.append(edge)
        inside.sort()
        return tuple(inside)


def _span(edges) -> int:
    """The number of vertices a game on canonical ``edges`` (u < v) needs:
    one more than the largest endpoint, 0 for no edges."""
    return 1 + max(edges, key=itemgetter(1))[1] if edges else 0


def _edges_of(g) -> tuple[tuple[Edge, ...], int]:
    """The edges of a ColouredGraph or of an (edges, n) pair, and their
    span, the number of vertices a game on them needs.  A ColouredGraph
    was validated when it was built; a plain edge list is checked here,
    since the game would take a negative endpoint for an index from the
    end of its lists, play a loop as an edge, and play True as vertex 1
    or fail on a float or a string with an error that does not name the
    edge.  An endpoint must be exactly an int."""
    if isinstance(g, ColouredGraph):
        return g.edges, _span(g.edges)
    edges, n = g
    edges = tuple(edges)
    top = -1
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"edge {(u, v)} has an endpoint that is not an int")
        if u == v:
            raise ValueError(f"edge {(u, v)} is a loop")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {(u, v)} has an endpoint outside 0..{n - 1}")
        top = max(top, u, v)
    return edges, top + 1


def run_game(g, params: SparsityParams = PLANE):
    """Play the full game; returns (accepted, {rejected edge: circuit}).

    Edges are inserted in the order given (canonical for a ColouredGraph),
    so the accepted set is the greedy basis in that order.  The game is
    sized by the span of the edges, not by n.
    """
    edges, span = _edges_of(g)
    game = PebbleGame(span, params)
    circuits = game.insert_all(edges)
    return tuple(game.accepted), circuits


def sparsity_rank(g, params: SparsityParams = PLANE) -> tuple[int, tuple[Edge, ...]]:
    """Rank of the edge set in the (kk, ll) count matroid.

    Returns the rank together with the canonical maximal sparse subset (the
    edges accepted in canonical order).  For params (2, 3) this is the rank
    in the plane rigidity matroid by the Pollaczek-Geiringer/Laman count.
    """
    accepted, _ = run_game(g, params)
    return len(accepted), accepted


def redundant_edges_d2(g) -> tuple[Edge, ...]:
    """Edges whose removal keeps the (2,3)-rank: the union of all circuits.

    The complement within E is the set of rigidity-bridges (edges present
    in every basis).  Computed from one game run: rejected edges are
    redundant, and so is every accepted edge lying in some rejected edge's
    fundamental circuit.
    """
    _, circuits = run_game(g)
    return tuple(sorted({e for circuit in circuits.values() for e in circuit}))
