"""Deterministic (k, l)-sparsity engine built on the pebble game.

Provides rank in the count matroid (for the plane: (2,3), with (2,2) also
needed by the two-class decider), maximal independent edge sets,
fundamental circuits of rejected edges, Laman+p classification and d=2
redundant-edge detection.

Determinism comes from the canonical (sorted) edge order alone.  The
accepted set is the greedy basis in that order, and the circuit of a
rejected edge is the unique minimal tight set spanning it (Lee & Streinu
2008), so neither depends on which pebble a search finds.
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
    edge and the edge is oriented away from the paying endpoint.
    """

    def __init__(self, n: int, params: SparsityParams = PLANE) -> None:
        self.n = n
        self.params = params
        self.pebbles = [params.kk] * n
        self.succ: list[list[int]] = [[] for _ in range(n)]
        self.accepted: list[Edge] = []

    def _find_pebble(self, start: int, blocked: tuple[int, int]) -> bool:
        """Move one pebble to ``start`` along a reversed search path.

        Depth-first over the edge orientations in stored order; the
        endpoints of the pending edge never donate.  Returns False when no
        free pebble is reachable.
        """
        parent: dict[int, int] = {start: -1}
        stack = [start]
        while stack:
            v = stack.pop()
            if v not in blocked and self.pebbles[v] > 0:
                self.pebbles[v] -= 1
                self.pebbles[start] += 1
                while parent[v] != -1:
                    u = parent[v]
                    self.succ[u].remove(v)
                    self.succ[v].append(u)
                    v = u
                return True
            for w in self.succ[v]:
                if w not in parent:
                    parent[w] = v
                    stack.append(w)
        return False

    def try_insert(self, edge: Edge) -> bool:
        """Accept ``edge`` if it is independent over the accepted set."""
        u, v = edge
        need = self.params.ll + 1
        while self.pebbles[u] + self.pebbles[v] < need:
            if not (self._find_pebble(u, edge) or self._find_pebble(v, edge)):
                return False
        if self.pebbles[u] > 0:
            self.pebbles[u] -= 1
            self.succ[u].append(v)
        else:
            self.pebbles[v] -= 1
            self.succ[v].append(u)
        self.accepted.append(edge)
        return True

    def rejection_circuit(self, edge: Edge) -> tuple[Edge, ...]:
        """Fundamental circuit of a just-rejected edge.

        Valid immediately after ``try_insert`` returned False: the vertices
        still reachable from the endpoints are then the minimal tight set
        containing both, whichever pebbles the searches moved, and the
        accepted edges inside it together with the rejected edge form the
        unique circuit.
        """
        region = set(edge)
        stack = list(edge)
        while stack:
            for w in self.succ[stack.pop()]:
                if w not in region:
                    region.add(w)
                    stack.append(w)
        inside = [e for e in self.accepted if e[0] in region and e[1] in region]
        return tuple(sorted(inside + [edge]))


def _edges_of(g) -> tuple[tuple[Edge, ...], int]:
    if isinstance(g, ColouredGraph):
        return g.edges, g.n
    edges, n = g
    return tuple(edges), n


def run_game(g, params: SparsityParams = PLANE):
    """Play the full game; returns (accepted, {rejected edge: circuit}).

    Edges are inserted in the order given (canonical for a ColouredGraph),
    so the accepted set is the greedy basis in that order; each rejection
    records its fundamental circuit (computed on the spot, which matches
    the circuit over the final accepted set because the circuit of e is
    already contained in the accepted edges present at rejection time).
    """
    edges, n = _edges_of(g)
    game = PebbleGame(n, params)
    circuits: dict[Edge, tuple[Edge, ...]] = {}
    for e in edges:
        if not game.try_insert(e):
            circuits[e] = game.rejection_circuit(e)
    return tuple(game.accepted), circuits


def sparsity_rank(g, params: SparsityParams = PLANE) -> tuple[int, tuple[Edge, ...]]:
    """Rank of the edge set in the (kk, ll) count matroid.

    Returns the rank together with the canonical maximal sparse subset (the
    edges accepted in canonical order).  For params (2, 3) this is the rank
    in the plane rigidity matroid by the Pollaczek-Geiringer/Laman count.
    """
    accepted, _ = run_game(g, params)
    return len(accepted), accepted


@dataclass(frozen=True)
class LamanClassification:
    """Outcome of the Laman+p test: kind, (2,3)-rank, and rank deficit."""

    kind: str  # "deficit" | "laman" | "laman+1" | "laman+2" | "other"
    rank: int
    deficit: int = 0


def laman_kind(n: int, m: int, rank: int) -> LamanClassification:
    """Classify an n-vertex, m-edge graph by its (2,3)-rank against 2n - 3.

    laman / laman+p means the rank is full (2n-3) and exactly p surplus
    edges exist, so removing the rejected edges leaves a Laman graph;
    deficit(t) means the rank falls short by t; "other" is full rank with
    three or more surplus edges.
    """
    if n < 2:
        raise ValueError("Laman classification needs n >= 2")
    target = 2 * n - 3
    if rank < target:
        return LamanClassification("deficit", rank, target - rank)
    surplus = m - rank
    if surplus == 0:
        return LamanClassification("laman", rank)
    if surplus in (1, 2):
        return LamanClassification(f"laman+{surplus}", rank)
    return LamanClassification("other", rank)


def redundant_edges_d2(g) -> tuple[Edge, ...]:
    """Edges whose removal keeps the (2,3)-rank: the union of all circuits.

    The complement within E is the set of rigidity-bridges (edges present
    in every basis).  Computed from one game run: rejected edges are
    redundant, and so is every accepted edge lying in some rejected edge's
    fundamental circuit.
    """
    _, circuits = run_game(g)
    return tuple(sorted({e for circuit in circuits.values() for e in circuit}))
