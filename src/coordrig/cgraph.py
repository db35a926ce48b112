"""Coloured-graph data model: validation, JSON (de)serialization, subgraphs.

A coloured graph is a simple graph on vertices 0..n-1 whose edges carry a
colour in {0, ..., k}.  Colour 0 marks ordinary fixed-length bars; colours
1..k are the coordination classes and must each be non-empty.  Edges are
kept in canonical (lexicographically sorted) order so that every algorithm
downstream produces reproducible output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


class GraphError(ValueError):
    """Raised for structurally invalid graphs or malformed input documents."""


@dataclass(frozen=True)
class ColouredGraph:
    """Simple graph with an edge colouring c : E -> {0, ..., k}.

    ``edges`` is a tuple of (u, v) pairs with u < v, sorted lexicographically;
    ``colours`` is the parallel tuple of colour indices.  ``coords`` and ``r``
    are optional payloads carried through from input files (a point
    configuration and a coordination offset vector); they play no role in
    graph-level algorithms.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    colours: tuple[int, ...]
    k: int
    coords: tuple[tuple[float, ...], ...] | None = None
    r: tuple[float, ...] | None = None
    _colour_of: dict[tuple[int, int], int] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        validate(self.n, self.edges, self.colours, self.k)
        object.__setattr__(
            self, "_colour_of", dict(zip(self.edges, self.colours))
        )

    @property
    def m(self) -> int:
        return len(self.edges)

    def colour_of(self, edge: tuple[int, int]) -> int:
        return self._colour_of[edge]

    def colour_class(self, i: int) -> tuple[tuple[int, int], ...]:
        """Edges of class i (i = 0 gives the uncoloured edges)."""
        if not 0 <= i <= self.k:
            raise GraphError(f"colour class {i} out of range 0..{self.k}")
        return tuple(e for e, c in zip(self.edges, self.colours) if c == i)

    def colour_classes(self) -> list[tuple[tuple[int, int], ...]]:
        """All classes, indexed 0..k."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.k + 1)]
        for e, c in zip(self.edges, self.colours):
            out[c].append(e)
        return [tuple(cls) for cls in out]

    def isolated_vertices(self) -> tuple[int, ...]:
        seen = set()
        for a, b in self.edges:
            seen.add(a)
            seen.add(b)
        return tuple(v for v in range(self.n) if v not in seen)

    def edge_index(self, edge: tuple[int, int]) -> int:
        """Position of an edge in canonical order."""
        return self.edges.index(edge)

    def without_edges(self, drop: set[tuple[int, int]] | frozenset) -> "ColouredGraph":
        """Same vertex set with the given edges removed; colours renumbered.

        Classes emptied by the removal are dropped and the remaining nonzero
        classes renumbered 1..k' in increasing order of their old index.
        """
        kept = [(e, c) for e, c in zip(self.edges, self.colours) if e not in drop]
        surviving = sorted({c for _, c in kept if c > 0})
        renum = {old: new for new, old in enumerate(surviving, start=1)}
        renum[0] = 0
        new_r = None
        if self.r is not None:
            new_r = tuple(self.r[old - 1] for old in surviving)
        return ColouredGraph(
            n=self.n,
            edges=tuple(e for e, _ in kept),
            colours=tuple(renum[c] for _, c in kept),
            k=len(surviving),
            coords=self.coords,
            r=new_r,
        )


def validate(n: int, edges, colours, k: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise GraphError(f"vertex count must be a positive integer, got {n!r}")
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise GraphError(f"class count must be a non-negative integer, got {k!r}")
    if len(edges) != len(colours):
        raise GraphError("edge list and colour list lengths differ")
    seen: set[tuple[int, int]] = set()
    for (u, v), c in zip(edges, colours):
        if not (isinstance(u, int) and isinstance(v, int)):
            raise GraphError(f"non-integer vertex in edge ({u!r}, {v!r})")
        if u == v:
            raise GraphError(f"loop at vertex {u}")
        if not (0 <= u < v < n):
            raise GraphError(f"edge ({u}, {v}) violates 0 <= u < v < n={n}")
        if (u, v) in seen:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        if not isinstance(c, int) or not 0 <= c <= k:
            raise GraphError(f"colour {c!r} of edge ({u}, {v}) out of range 0..{k}")
    if list(edges) != sorted(edges):
        raise GraphError("edges not in canonical sorted order")
    present = {c for c in colours if c > 0}
    for i in range(1, k + 1):
        if i not in present:
            raise GraphError(f"colour class {i} is empty")


def build(n: int, k: int, coloured_edges, coords=None, r=None) -> ColouredGraph:
    """Construct a graph from an iterable of (u, v, colour) triples.

    Canonicalizes the edge order; everything else is validated strictly.
    """
    triples = sorted((int(u), int(v), int(c)) for u, v, c in coloured_edges)
    edges = tuple((u, v) for u, v, _ in triples)
    colours = tuple(c for _, _, c in triples)
    return ColouredGraph(
        n=n,
        edges=edges,
        colours=colours,
        k=k,
        coords=None if coords is None else tuple(tuple(float(x) for x in p) for p in coords),
        r=None if r is None else tuple(float(x) for x in r),
    )


def parse_coloured_graph(text: str) -> ColouredGraph:
    """Parse the JSON graph format into a validated, canonical ColouredGraph.

    The document is an object with integer ``n`` >= 1, integer ``k`` >= 0 and
    ``edges``: an array of ``[u, v, colour]`` integer triples with
    0 <= u < v < n and 0 <= colour <= k.  Optional keys: ``coords`` (n rows
    of d numbers) and ``r`` (k numbers).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphError("top-level JSON value must be an object")
    for key in ("n", "k", "edges"):
        if key not in doc:
            raise GraphError(f"missing required key {key!r}")
    n, k, raw_edges = doc["n"], doc["k"], doc["edges"]
    if not isinstance(raw_edges, list):
        raise GraphError("'edges' must be an array")
    triples = []
    for item in raw_edges:
        if not (isinstance(item, list) and len(item) == 3):
            raise GraphError(f"edge entry {item!r} is not a [u, v, colour] triple")
        u, v, c = item
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (u, v, c)):
            raise GraphError(f"edge entry {item!r} has non-integer components")
        if u >= v:
            raise GraphError(f"edge ({u}, {v}) must satisfy u < v")
        triples.append((u, v, c))

    coords = doc.get("coords")
    if coords is not None:
        if (
            not isinstance(coords, list)
            or not isinstance(n, int)
            or len(coords) != n
            or not coords
            or any(not isinstance(p, list) or not p for p in coords)
        ):
            raise GraphError("'coords' must be an array of n non-empty coordinate rows")
        d = len(coords[0])
        if any(len(p) != d for p in coords):
            raise GraphError("'coords' rows have inconsistent dimension")
        if not _finite_numbers(x for p in coords for x in p):
            raise GraphError("'coords' entries must be finite numbers")
    r = doc.get("r")
    if r is not None:
        if not isinstance(r, list) or len(r) != k:
            raise GraphError("'r' must be an array of k numbers")
        if not _finite_numbers(r):
            raise GraphError("'r' entries must be finite numbers")

    return build(n, k, triples, coords=coords, r=r)


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
    uncoloured subgraph and S={0, i} for the class-i subgraph.
    """
    bad = sorted(c for c in keep if not 0 <= c <= g.k)
    if bad:
        raise GraphError(f"colour selection {bad} out of range 0..{g.k}")
    drop = {e for e, c in zip(g.edges, g.colours) if c not in keep}
    return g.without_edges(drop)
