"""Deterministic (k, l)-sparsity engine built on the pebble game.

Provides rank in the count matroid (for the plane: (2,3), with (2,2) also
needed by the two-class decider), maximal independent edge sets,
fundamental circuits of rejected edges and d=2 redundant-edge detection.
The plane count 2n - 3 and the Laman+p classification live in ``laman``.

Determinism comes from the canonical (sorted) edge order alone.  The
accepted set is the greedy basis in that order, and the circuit of a
rejected edge is the unique minimal tight set spanning it (Lee & Streinu
2008), so neither depends on which pebble a search finds.

A game can be copied (``PebbleGame.copy``) and can drop an accepted edge
(``PebbleGame.delete``): removing the edge's arc and returning its pebble
to the arc's tail leaves a valid game on the remaining accepted edges
(Lee & Streinu 2008).  Re-inserting the rejected edges then gives the
rank, the redundant edges and the circuits of the smaller edge set without
replaying the whole game.

A search marks the vertices it visits in lists that a game shares with
its copies, with an integer stamp bumped once per search, so no dict or
set is built per search and no list is cleared.  An accepted edge is paid
for by its later endpoint when that one has a pebble, which spares the
next edge in canonical order, usually at the same first endpoint, a
search.  Neither choice changes any output: the payer only orients an arc.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Incremental (kk, ll)-independence tester.

    Each vertex starts with kk pebbles; inserting an edge requires ll + 1
    pebbles gathered on its endpoints, after which one pebble pays for the
    edge and the edge is oriented away from the paying endpoint.  Every
    vertex v keeps pebbles[v] + len(succ[v]) == kk.
    """

    def __init__(self, n: int, params: SparsityParams = PLANE) -> None:
        self.n = n
        self.params = params
        self.pebbles = [params.kk] * n
        self.succ: list[list[int]] = [[] for _ in range(n)]
        self.accepted: list[Edge] = []
        # [seen, parent, stamp]: seen[w] == stamp marks w as visited by the
        # current search, and parent[w] is then its predecessor.  Made at the
        # first search, so a game that never searches allocates nothing of
        # length n, and shared with the game's copies.
        self._visits: list | None = None

    def _next_stamp(self) -> list:
        """[seen, parent, stamp], with a stamp that no earlier search of
        this game or of a game sharing the lists used."""
        visits = self._visits
        if visits is None:
            visits = self._visits = [[0] * self.n, [0] * self.n, 0]
        visits[2] += 1
        return visits

    def copy(self) -> PebbleGame:
        """An independent game in the same state, made without replaying
        any insertion.  The twin shares the visit lists together with
        its stamp counter, so no search of either game takes the other's
        marks for its own, as shared lists with separate counters would."""
        twin = object.__new__(type(self))
        twin.n, twin.params = self.n, self.params
        twin.pebbles = list(self.pebbles)
        twin.succ = [list(s) for s in self.succ]
        twin.accepted = list(self.accepted)
        twin._visits = self._visits
        return twin

    def delete(self, edge: Edge) -> None:
        """Remove an accepted edge: drop its arc and return the pebble that
        paid for it to the arc's tail.  The state is then a valid game on
        the remaining accepted edges (Lee & Streinu 2008)."""
        u, v = edge
        if v in self.succ[u]:
            self.succ[u].remove(v)
            self.pebbles[u] += 1
        else:
            self.succ[v].remove(u)
            self.pebbles[v] += 1
        self.accepted.remove(edge)

    def _find_pebble(self, start: int, other: int) -> bool:
        """Move one pebble to ``start`` along a reversed search path.

        Depth-first over the edge orientations in stored order, testing
        each vertex for a free pebble when it is discovered; the endpoints
        of the pending edge (``start`` and ``other``) never donate.  A
        vertex is visited when it carries this search's stamp, and its
        ``parent`` entry, written at the same time, leads back to
        ``start``.  Returns False when no free pebble is reachable.
        """
        pebbles, succ = self.pebbles, self.succ
        seen, parent, stamp = self._next_stamp()
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

    def try_insert(self, edge: Edge) -> bool:
        """Accept ``edge`` if it is independent over the accepted set.

        With ll + 1 pebbles on the endpoints u < v, v pays when it has a
        pebble and u only otherwise: the next edge in canonical order
        usually starts at u again and finds u's pebbles in place, which
        saves it a search.  The payer sets only the arc's direction; the
        accepted set is the greedy basis and each circuit the minimal tight
        set spanning its edge, so neither depends on it.
        """
        u, v = edge
        pebbles = self.pebbles
        need = self.params.ll + 1
        u_live = True
        while pebbles[u] + pebbles[v] < need:
            # a failed search from u leaves no free pebble reachable from u;
            # a later path from v avoids that region (it would end inside
            # it), so u's searches keep failing for the rest of this insert
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

    def rejection_circuit(self, edge: Edge) -> tuple[Edge, ...]:
        """Fundamental circuit of a just-rejected edge.

        Valid immediately after ``try_insert`` returned False: the vertices
        still reachable from the endpoints are then the minimal tight set
        containing both, whichever pebbles the searches moved, and the
        accepted edges inside it together with the rejected edge form the
        unique circuit.  The region is marked with a fresh search stamp,
        and its edges are read by a scan of the accepted edges, which come
        in nearly canonical order, so the sort is nearly linear; collecting
        the region's own arcs and sorting them costs more than the scan
        saves when, as is typical, the region holds a third of the vertices
        or more.
        """
        succ = self.succ
        seen, _, stamp = self._next_stamp()
        u, v = edge
        seen[u] = seen[v] = stamp
        stack = [u, v]
        while stack:
            for w in succ[stack.pop()]:
                if seen[w] != stamp:
                    seen[w] = stamp
                    stack.append(w)
        inside = [e for e in self.accepted if seen[e[0]] == stamp and seen[e[1]] == stamp]
        inside.append(edge)
        inside.sort()
        return tuple(inside)


def _edges_of(g) -> tuple[tuple[Edge, ...], int]:
    if isinstance(g, ColouredGraph):
        return g.edges, g.n
    edges, n = g
    return tuple(edges), n


def run_game(g, params: SparsityParams = PLANE):
    """Play the full game; returns (accepted, {rejected edge: circuit}).

    Edges are inserted in the order given (canonical for a ColouredGraph),
    so the accepted set is the greedy basis in that order.
    """
    edges, n = _edges_of(g)
    game = PebbleGame(n, params)
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
