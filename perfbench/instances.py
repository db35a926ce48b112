"""Seeded instance generators for the benchmark.

Every instance carries its decision by construction, so the correctness
gate has a label for any seed:

* ``laman_plus`` grows a plane Laman+1 graph with ``henneberg_k1_sample``
  and adds k - 1 extra edges in fresh colours 2..k.  Some coloured edge of
  the Laman+1 part is redundant, so it and the extra edges form a rainbow
  tuple T whose removal leaves a Laman graph: the framework is rigid.
  Further extra edges (overbracing) keep it rigid.
* ``vertex_addition`` grows an isostatic graph in dimension d by joining
  each new vertex to d old ones, then adds extra edges.  When k of them
  take colours 1..k they form the rainbow tuple T: the framework is rigid.
  With no extra edge and class 1 a single base edge, that class is a
  bridge: the underlying graph is rigid but no rainbow tuple is redundant.
* ``circuit`` builds a wheel (d = 2) or the cone over a wheel (d = 3), in
  which every edge is redundant and the surplus is 1.  With k - 2 more
  edges the surplus k - 1 is too small for a redundant rainbow tuple, and
  every tuple the numeric decider tries costs it an elimination.
* the mutants turn a rigid instance flexible: deleting an edge of an
  isostatic graph breaks the count; deleting an edge at a vertex of degree
  d makes the underlying graph flexible; recolouring so that one class is
  a single edge at a vertex of degree d leaves a class made of one bridge.
* plane random graphs come from ``random_coloured_graph`` with fewer edges
  than 2n - 3 + k, so the count alone makes them flexible.

Only ``henneberg_k1_sample``, ``random_coloured_graph`` and ``build`` are
taken from the library; the program under test sees only the JSON files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from coordrig import build, henneberg_k1_sample
from coordrig.corpus import random_coloured_graph

RIGID, FLEXIBLE = "rigid", "flexible"
# numeric witness each flexible kind must report
NO_RAINBOW, UNDERLYING = "no-rainbow-redundant-tuple", "underlying-flexible"
# kinds whose underlying graph is rigid but which have no redundant rainbow tuple
NO_RAINBOW_KINDS = ("recol", "short")


@dataclass(frozen=True)
class Instance:
    """One generated file with its construction label."""

    ident: str
    n: int
    k: int
    d: int
    method: str  # "auto" | "numeric"
    kind: str
    decision: str
    witness: str | None  # expected numeric witness of a flexible instance
    edges: tuple[tuple[int, int, int], ...]

    def argv(self, path: str, seed: int) -> list[str]:
        out = ["check", path, "--dim", str(self.d), "--json"]
        if self.method == "numeric":
            out += ["--method", "numeric", "--seed", str(seed)]
        return out

    def graph(self):
        return build(self.n, self.k, self.edges)


def _degrees(n, edges):
    deg = [0] * n
    for u, v, _ in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _add_non_edges(rng, n, edges, colours, avoid=()):
    """Append one new edge per entry of ``colours`` between random vertices
    outside ``avoid``."""
    present = {(u, v) for u, v, _ in edges}
    pool = [v for v in range(n) if v not in avoid]
    room = len(pool) * (len(pool) - 1) // 2 - sum(u in pool and v in pool for u, v in present)
    if room < len(colours):
        raise ValueError(f"no room for {len(colours)} more edges on {n} vertices")
    for c in colours:
        while True:
            u, v = sorted(rng.sample(pool, 2))
            if (u, v) not in present:
                break
        present.add((u, v))
        edges.append((u, v, c))


def laman_plus(n, k, rng):
    """Rigid plane graph: a Laman+1 sample plus k - 1 rainbow edges, with a
    quarter of the other uncoloured edges recoloured.  Returns (edges, w):
    w has degree 2 and no added or recoloured edge touches it."""
    while True:
        base = henneberg_k1_sample(n, rng.randrange(1 << 30))
        edges = [(u, v, c) for (u, v), c in zip(base.edges, base.colours)]
        deg = _degrees(n, edges)
        free = [v for v in range(n) if deg[v] == 2]
        if free:
            break
    w = free[rng.randrange(len(free))]
    _add_non_edges(rng, n, edges, range(2, k + 1), avoid=(w,))
    for i, (u, v, c) in enumerate(edges):
        if c == 0 and w not in (u, v) and rng.random() < 0.25:
            edges[i] = (u, v, rng.randint(1, k))
    return edges, w


def vertex_addition(n, d, k, rng, extra):
    """Isostatic d-dimensional graph plus ``extra`` added edges.

    The first k added edges take colours 1..k and the rest stay uncoloured;
    a class that no added edge covers gets one base edge.  Returns (edges,
    w): w = n - 1 has degree d and no added or coloured edge touches it.
    """
    edges = [(u, v, 0) for u in range(d) for v in range(u + 1, d)]
    for w in range(d, n):
        for u in sorted(rng.sample(range(w), d)):
            edges.append((u, w, 0))
    w = n - 1
    colours = list(range(1, min(extra, k) + 1)) + [0] * max(0, extra - k)
    _add_non_edges(rng, n, edges, colours, avoid=(w,))
    missing = range(len(colours) + 1, k + 1)
    base = [i for i, (u, v, c) in enumerate(edges) if c == 0 and w not in (u, v)]
    for c, i in zip(missing, rng.sample(base, len(missing))):
        u, v, _ = edges[i]
        edges[i] = (u, v, c)
    return edges, w


def circuit(n, d, rng):
    """A rigidity circuit on n vertices with shuffled labels: the wheel at
    d = 2, the cone over a wheel at d = 3.  Every edge is redundant and the
    surplus over dn - C(d+1, 2) is 1."""
    label = list(range(n))
    rng.shuffle(label)
    rim = label[d - 1:]
    edges = [(label[a], label[b]) for a in range(d - 1) for b in range(a + 1, d - 1)]
    edges += [(hub, r) for hub in label[:d - 1] for r in rim]
    edges += [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    return [(min(u, v), max(u, v), 0) for u, v in edges]


def colour_classes(edges, k, rng, product):
    """Colour random edges so that the k class sizes are as even as
    possible with a product of at least ``product``."""
    sizes = [1] * k
    while math.prod(sizes) < product and sum(sizes) < len(edges):
        sizes[sizes.index(min(sizes))] += 1
    picks = rng.sample(range(len(edges)), sum(sizes))
    out = list(edges)
    colours = [c for c, size in enumerate(sizes, start=1) for _ in range(size)]
    for i, c in zip(picks, colours):
        u, v, _ = out[i]
        out[i] = (u, v, c)
    return out


def _class_sizes(edges):
    sizes = {}
    for _, _, c in edges:
        sizes[c] = sizes.get(c, 0) + 1
    return sizes


def delete_edge(edges, rng, at=None):
    """Drop one edge (at vertex ``at`` if given) whose class keeps a member."""
    sizes = _class_sizes(edges)
    cands = [
        i for i, (u, v, c) in enumerate(edges)
        if (c == 0 or sizes[c] >= 2) and (at is None or at in (u, v))
    ]
    out = list(edges)
    del out[cands[rng.randrange(len(cands))]]
    return out


def bridge_class(edges, k, w, rng):
    """Make class k a single edge at w (degree d, so that edge is a bridge);
    the other members of class k move to random classes 0..k-1."""
    out = []
    at_w = [i for i, (u, v, c) in enumerate(edges) if w in (u, v)]
    pick = at_w[rng.randrange(len(at_w))]
    for i, (u, v, c) in enumerate(edges):
        if i == pick:
            c = k
        elif c == k:
            c = rng.randint(0, k - 1)
        out.append((u, v, c))
    # every class 1..k-1 must stay non-empty: the picked edge may have been
    # the only member of its old class
    sizes = _class_sizes(out)
    for c in range(1, k):
        if c not in sizes:
            i = next(i for i, (u, v, cc) in enumerate(out) if cc == 0 and w not in (u, v))
            u, v, _ = out[i]
            out[i] = (u, v, c)
    return out


def _instance(idx, n, k, d, method, kind, decision, witness, edges):
    ident = f"{idx:03d}_{kind}_d{d}_n{n}_k{k}"
    g = build(n, k, edges)  # validates and canonicalizes
    triples = tuple((u, v, c) for (u, v), c in zip(g.edges, g.colours))
    return Instance(ident, n, k, d, method, kind, decision, witness, triples)


# ---------------------------------------------------------------------------
# workloads: fixed size ladders, seeded structure


def _plane_family(idx, n, k, kinds, rng):
    """Plane instances of the given kinds, the rigid ones and their mutants
    sharing one Laman+k base graph (auto method)."""
    target = 2 * n - 3 + k
    base, w = laman_plus(n, k, rng)
    out = []
    for kind in kinds:
        if kind == "iso":
            edges, decision = base, RIGID
        elif kind == "over":
            edges = list(base)
            _add_non_edges(rng, n, edges, [rng.randint(0, k) for _ in range(2 + n // 40)])
            decision = RIGID
        elif kind == "del":
            edges, decision = delete_edge(base, rng), FLEXIBLE
        elif kind == "recol":
            edges, decision = bridge_class(base, k, w, rng), FLEXIBLE
        elif kind == "random":
            g = random_coloured_graph(n, k, rng.randrange(1 << 30),
                                      m=rng.randint(target - 4, target - 1))
            edges = [(u, v, c) for (u, v), c in zip(g.edges, g.colours)]
            decision = FLEXIBLE
        else:
            raise ValueError(kind)
        out.append(_instance(idx + len(out), n, k, 2, "auto", kind, decision, None, edges))
    return out


def _numeric(idx, n, k, d, kind, rng):
    """One numeric instance.  Rigid ones have one edge per class, so the
    bridge loop is their cost; "short" ones on a circuit have only
    redundant edges, so every rainbow tuple of the classes, about 2m of
    them, costs an elimination each."""
    if kind == "rigid":
        edges, _ = vertex_addition(n, d, k, rng, extra=k + 1)
        return _instance(idx, n, k, d, "numeric", kind, RIGID, None, edges)
    if kind == "short" and k == 1:  # a class of bridges on an isostatic graph
        edges, _ = vertex_addition(n, d, k, rng, extra=0)
        return _instance(idx, n, k, d, "numeric", kind, FLEXIBLE, NO_RAINBOW, edges)
    if kind == "short":  # surplus k - 1 on a circuit
        edges = circuit(n, d, rng)
        _add_non_edges(rng, n, edges, [0] * (k - 2))
        edges = colour_classes(edges, k, rng, product=2 * len(edges))
        return _instance(idx, n, k, d, "numeric", kind, FLEXIBLE, NO_RAINBOW, edges)
    if kind == "loose":
        edges, w = vertex_addition(n, d, k, rng, extra=k)
        return _instance(idx, n, k, d, "numeric", kind, FLEXIBLE, UNDERLYING,
                         delete_edge(edges, rng, at=w))
    raise ValueError(kind)


# Size ladders are fixed; the seed picks only the graph structure.  The
# ladders are dense, so the sorted check times rise without big jumps and
# a percentile does not sit on a jump between two sizes.  Each workload has
# 72 or 80 instances, so that its median and tail average over many graphs
# and move little from seed to seed.
# n from 40 to 640 in 20 geometric steps, k alternating 1, 2
PLANE_K12 = [(round(40 * 16 ** (j / 19)), 1 + j % 2, ("iso", "over", "del", "recol"))
             for j in range(20)]
PLANE_UNION = [(40 + round(j * 56 / 39), 3 + j % 4, (("over", "recol", "random")[j % 3],))
               for j in range(40)]
# kinds rotate fastest, so each (rigid, short, loose) triple shares n and k
NUMERIC = ([(8 + round(j * 12 / 23), 1 + (j // 3) % 6, 2, ("rigid", "short", "loose")[j % 3])
            for j in range(24)]
           + [(9 + round(j * 3 / 11), 3 + j // 3, 3, ("rigid", "short", "loose")[j % 3])
              for j in range(12)])

TINY = {
    "plane_k12": [(12, 1, ("iso", "recol")), (12, 2, ("over", "del"))],
    "plane_union": [(12, 3, ("over", "recol", "random"))],
    "numeric": [(7, 2, 2, "rigid"), (7, 2, 2, "short"), (7, 1, 3, "loose")],
}


def generate(workload: str, seed: int, tiny: bool = False) -> list[Instance]:
    """The workload's instances for ``seed``; same seed, same instances."""
    rng = random.Random(f"{workload}:{seed}")
    if tiny:
        spec = TINY[workload]
    else:  # the union and numeric ladders run twice, with fresh structure
        spec = {"plane_k12": PLANE_K12, "plane_union": PLANE_UNION * 2,
                "numeric": NUMERIC * 2}[workload]
    if workload == "numeric":
        return [_numeric(i, n, k, d, kind, rng) for i, (n, k, d, kind) in enumerate(spec)]
    out: list[Instance] = []
    for n, k, kinds in spec:
        out += _plane_family(len(out), n, k, kinds, rng)
    return out


WORKLOADS = ("plane_k12", "plane_union", "numeric")
