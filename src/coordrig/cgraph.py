"""Coloured-graph data model: validation, JSON (de)serialization, subgraphs.

A coloured graph is a simple graph on vertices 0..n-1 whose edges carry a
colour in {0, ..., k}.  Colour 0 marks ordinary fixed-length bars; colours
1..k are the coordination classes and must each be non-empty.  Edges are
kept in canonical (lexicographically sorted) order so that every algorithm
downstream produces reproducible output.

Each check lives in one place.  ``parse_coloured_graph`` checks only the
JSON document's shape, ``build`` sorts the triples without coercing them,
and ``validate``, which every ``ColouredGraph`` runs, checks every value
once: the graph, the placement ``coords`` and the offsets ``r``.  The graph
builds its colour classes once, and each fact that only some callers read
on first use: the edge -> position map behind ``colour_of`` and
``edge_index``, and the per-vertex adjacency behind ``coloops``,
``low_degree_vertex`` and ``isolated_vertices``.  A parsed file may name
at most ``MAX_VERTICES`` vertices, which bounds every per-vertex list that
a short file can make the program build.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

MAX_VERTICES = 1_000_000  # largest n that parse_coloured_graph accepts


class GraphError(ValueError):
    """Raised for structurally invalid graphs or malformed input documents."""


@dataclass(frozen=True)
class ColouredGraph:
    """Simple graph with an edge colouring c : E -> {0, ..., k}.

    ``edges`` is a tuple of (u, v) pairs with u < v, sorted lexicographically;
    ``colours`` is the parallel tuple of colour indices.  ``coords`` and ``r``
    are optional payloads carried through from input files (a point
    configuration and a coordination offset vector), stored as float
    tuples; they play no role in graph-level algorithms.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    colours: tuple[int, ...]
    k: int
    coords: tuple[tuple[float, ...], ...] | None = None
    r: tuple[float, ...] | None = None
    _classes: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False, hash=False, default=()
    )

    def __post_init__(self) -> None:
        validate(self.n, self.edges, self.colours, self.k, self.coords, self.r)
        if self.coords is not None:
            object.__setattr__(self, "coords", tuple(tuple(map(float, p)) for p in self.coords))
        if self.r is not None:
            object.__setattr__(self, "r", tuple(map(float, self.r)))
        classes = [[] for _ in range(self.k + 1)]
        for e, c in zip(self.edges, self.colours):
            classes[c].append(e)
        object.__setattr__(self, "_classes", tuple(map(tuple, classes)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def _position(self) -> dict[tuple[int, int], int]:
        """Edge -> its position in canonical order, built on first use."""
        return {e: i for i, e in enumerate(self.edges)}

    @functools.cached_property
    def _adjacency(self) -> list[list[int]]:
        """Neighbours of each vertex up to the largest endpoint, in edge
        order, built on first use; a vertex above it has no edge."""
        top = max([v for _, v in self.edges], default=-1)
        adj: list[list[int]] = [[] for _ in range(top + 1)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def colour_of(self, edge: tuple[int, int]) -> int:
        try:
            return self.colours[self._position[edge]]
        except (KeyError, TypeError):  # TypeError: unhashable, as a list
            raise GraphError(f"edge {edge!r} is not in the graph") from None

    def colour_class(self, i: int) -> tuple[tuple[int, int], ...]:
        """Edges of class i (i = 0 gives the uncoloured edges); i must be
        an exact ``int``, so True is not class 1."""
        if type(i) is not int:
            raise GraphError(f"colour class {i!r} is not an integer in 0..{self.k}")
        if not 0 <= i <= self.k:
            raise GraphError(f"colour class {i} out of range 0..{self.k}")
        return self._classes[i]

    def isolated_vertices(self) -> tuple[int, ...]:
        """The vertices on no edge, in increasing order."""
        adj = self._adjacency
        if len(adj) == self.n and [] not in adj:
            return ()
        return tuple([v for v, nbrs in enumerate(adj) if not nbrs]) + tuple(
            range(len(adj), self.n))

    def edge_index(self, edge: tuple[int, int]) -> int:
        """Position of an edge in canonical order; ``GraphError`` for an
        edge that is not in the graph, or is not a hashable (u, v) tuple."""
        try:
            return self._position[edge]
        except (KeyError, TypeError):  # TypeError: unhashable, as a list
            raise GraphError(f"edge {edge!r} is not in the graph") from None


def coloops(g: ColouredGraph, d: int) -> frozenset[tuple[int, int]]:
    """The edges outside the (d+1)-core: those removed by repeatedly
    peeling a vertex of degree <= d with its edges.

    Every circuit of the generic d-dimensional rigidity matroid has
    minimum degree d + 1 (a vertex of degree <= d adds its edges
    independently), so it lies in the core, and each peeled edge is a
    coloop: in every basis and in no circuit.  The same holds for the
    (2,2) count matroid at d = 2.  O(m) on the graph's adjacency, whose
    lists run up to the largest endpoint, not to n.
    """
    adj = g._adjacency
    degree = [len(nbrs) for nbrs in adj]
    stack = [v for v, deg in enumerate(degree) if deg <= d]
    peeled = [False] * len(adj)
    stripped = []
    while stack:
        v = stack.pop()
        peeled[v] = True
        for w in adj[v]:
            if peeled[w]:  # the edge went with w
                continue
            stripped.append((v, w) if v < w else (w, v))
            degree[w] -= 1
            if degree[w] == d:  # w drops to d once, unless it started there
                stack.append(w)
    return frozenset(stripped)


def low_degree_vertex(g: ColouredGraph, d: int) -> tuple[int, list[int]] | None:
    """The lowest vertex of degree below d with its neighbours, or None.
    A vertex above the adjacency's largest endpoint has no edge."""
    adj = g._adjacency
    for v, nbrs in enumerate(adj):
        if len(nbrs) < d:
            return v, nbrs
    return (len(adj), []) if len(adj) < g.n else None


def validate(n: int, edges, colours, k: int, coords, r) -> None:
    """Check a graph's values, its edges in one pass.

    n, k, the vertices and the colours must be exact ``int``s (so no bool,
    float or numpy scalar), every edge must be a (u, v) tuple with
    0 <= u < v < n and a colour in 0..k, the edges must be strictly
    increasing (sorted, no duplicates) and every class 1..k must be
    non-empty.  ``coords`` must be None or n rows of one length d >= 1,
    ``r`` None or k entries, all finite reals (no bool, string or int
    beyond the float range).
    """
    if type(n) is not int or n < 1:
        raise GraphError(f"vertex count must be a positive integer, got {n!r}")
    if type(k) is not int or k < 0:
        raise GraphError(f"class count must be a non-negative integer, got {k!r}")
    if coords is not None:
        if _len(coords) != n or not all(_len(p) > 0 for p in coords):
            raise GraphError("'coords' must be an array of n non-empty coordinate rows")
        if len({len(p) for p in coords}) != 1:
            raise GraphError("'coords' rows have inconsistent dimension")
        if not _finite_numbers(x for p in coords for x in p):
            raise GraphError("'coords' entries must be finite numbers")
    if r is not None:
        if _len(r) != k:
            raise GraphError("'r' must be an array of k numbers")
        if not _finite_numbers(r):
            raise GraphError("'r' entries must be finite numbers")
    if len(edges) != len(colours):
        raise GraphError("edge list and colour list lengths differ")
    prev = (-1, -1)  # below every edge that passes the range check
    for e, c in zip(edges, colours):
        if type(e) is not tuple or len(e) != 2:
            raise GraphError(f"edge entry {e!r} is not a (u, v) tuple")
        u, v = e
        if type(u) is not int or type(v) is not int:
            raise GraphError(f"non-integer vertex in edge ({u!r}, {v!r})")
        if not 0 <= u < v < n:
            what = f"loop at vertex {u}" if u == v else f"edge ({u}, {v})"
            raise GraphError(f"{what} violates 0 <= u < v < n={n}")
        if e <= prev:
            if e == prev:
                raise GraphError(f"duplicate edge ({u}, {v})")
            raise GraphError("edges not in canonical sorted order")
        prev = e
        if type(c) is not int or not 0 <= c <= k:
            why = "out of range" if type(c) is int else "is not an integer in"
            raise GraphError(f"colour {c!r} of edge ({u}, {v}) {why} 0..{k}")
    present = set(colours)
    for i in range(1, k + 1):
        if i not in present:
            raise GraphError(f"colour class {i} is empty")


def build(n: int, k: int, coloured_edges, coords=None, r=None) -> ColouredGraph:
    """Construct a graph from an iterable of (u, v, colour) triples.

    Sorts the triples into canonical order as given, without coercing any
    value; the graph's ``validate`` then checks them and ``coords`` and
    ``r``.  Values that cannot be ordered against each other raise
    ``GraphError``.
    """
    try:
        triples = sorted(coloured_edges)
    except TypeError as exc:
        raise GraphError(f"edge entries cannot be ordered: {exc}") from exc
    edges = tuple([(u, v) for u, v, _ in triples])
    colours = tuple([c for _, _, c in triples])
    return ColouredGraph(n=n, edges=edges, colours=colours, k=k, coords=coords, r=r)


def parse_coloured_graph(text: str) -> ColouredGraph:
    """Parse the JSON graph format into a validated, canonical ColouredGraph.

    The document is an object with integer ``n`` >= 1, integer ``k`` >= 0 and
    ``edges``: an array of ``[u, v, colour]`` integer triples with
    0 <= u < v < n and 0 <= colour <= k.  Optional keys: ``coords`` (n rows
    of d numbers) and ``r`` (k numbers).  This function checks only the JSON
    shape (``edges`` an array of triples, ``coords`` an array of arrays,
    ``r`` an array); ``validate`` checks every value.  An integer ``n``
    above ``MAX_VERTICES`` raises ``GraphError`` before anything of length
    n is built.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer beyond the digit limit
        raise GraphError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphError("top-level JSON value must be an object")
    for key in ("n", "k", "edges"):
        if key not in doc:
            raise GraphError(f"missing required key {key!r}")
    n, k, raw_edges = doc["n"], doc["k"], doc["edges"]
    if type(n) is int and n > MAX_VERTICES:
        raise GraphError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    if not isinstance(raw_edges, list):
        raise GraphError("'edges' must be an array")
    for item in raw_edges:
        if not (isinstance(item, list) and len(item) == 3):
            raise GraphError(f"edge entry {item!r} is not a [u, v, colour] triple")

    coords, r = doc.get("coords"), doc.get("r")
    if coords is not None and not (
        isinstance(coords, list) and all(isinstance(p, list) for p in coords)
    ):
        raise GraphError("'coords' must be an array of n non-empty coordinate rows")
    if r is not None and not isinstance(r, list):
        raise GraphError("'r' must be an array of k numbers")
    return build(n, k, raw_edges, coords=coords, r=r)


def _len(x) -> int:
    """len(x), or -1 for a value that has no length."""
    try:
        return len(x)
    except TypeError:
        return -1


def _finite_numbers(values) -> bool:
    """Whether every value is a finite number; JSON also admits NaN,
    Infinity, booleans and integers beyond the float range."""
    try:
        return all(math.isfinite(x) and not isinstance(x, bool) for x in values)
    except (TypeError, OverflowError):  # not a number, or no float value
        return False


def serialize(g: ColouredGraph) -> str:
    """Emit canonical JSON; parse(serialize(g)) == g."""
    doc: dict = {
        "n": g.n,
        "k": g.k,
        "edges": [[u, v, c] for (u, v), c in zip(g.edges, g.colours)],
    }
    if g.coords is not None:
        doc["coords"] = [list(p) for p in g.coords]
    if g.r is not None:
        doc["r"] = list(g.r)
    return json.dumps(doc, sort_keys=True, separators=(", ", ": "))


def subgraph_by_colours(g: ColouredGraph, keep: set[int]) -> ColouredGraph:
    """Keep exactly the edges whose colour lies in ``keep``; same vertex set.

    Retained nonzero classes are renumbered 1..k' in increasing order of
    their original index, so the usual conventions are S={0} for the
    uncoloured subgraph and S={0, i} for the class-i subgraph.  Every
    entry of ``keep`` must be an exact ``int``.
    """
    odd = sorted(repr(c) for c in keep if type(c) is not int)
    if odd:
        raise GraphError(f"colour selection {odd[0]} is not an integer in 0..{g.k}")
    bad = sorted(c for c in keep if not 0 <= c <= g.k)
    if bad:
        raise GraphError(f"colour selection {bad} out of range 0..{g.k}")
    surviving = [c for c in range(1, g.k + 1) if c in keep]  # none is empty
    renum = {old: new for new, old in enumerate(surviving, start=1)}
    renum[0] = 0
    kept = [(e, renum[c]) for e, c in zip(g.edges, g.colours) if c in keep]
    return ColouredGraph(
        n=g.n,
        edges=tuple(e for e, _ in kept),
        colours=tuple(c for _, c in kept),
        k=len(surviving),
        coords=g.coords,
        r=None if g.r is None else tuple(g.r[c - 1] for c in surviving),
    )
