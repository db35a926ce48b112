"""Seeded random coloured graphs for corpora and property suites."""

from __future__ import annotations

import math
import random

from .cgraph import ColouredGraph, build


def random_coloured_graph(
    n: int, k: int, seed: int, m: int | None = None
) -> ColouredGraph:
    """Uniform-ish random simple graph with a valid k-colouring.

    Edge count defaults to a window around 2n - 3 + k so that rigid,
    flexible and overbraced instances all occur.  One edge per nonzero
    class is forced so the colouring is always valid; remaining edges are
    uncoloured with probability 2/3.  The edges are drawn as indices into
    the n(n - 1)/2 pairs in lexicographic order, each mapped to its pair
    arithmetically, so no list of all pairs is built: memory is O(n + m).
    n, k and m (when given) must be exact ``int``s, as a graph's n is.
    """
    for name, value in (("n", n), ("k", k), ("m", m)):
        if type(value) is not int and not (name == "m" and value is None):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if n < 2:
        raise ValueError("need n >= 2")
    rng = random.Random(seed)
    max_m = n * (n - 1) // 2
    if k > max_m:
        raise ValueError(f"{k} classes need {k} edges, but n={n} allows {max_m}")
    if m is None:
        target = 2 * n - 3 + k
        low = min(max(k, 1, target - 4), max_m)  # nearly complete graphs
        m = rng.randint(low, min(max_m, target + 3))
    if not k <= m <= max_m:
        raise ValueError(f"edge count {m} out of range [{k}, {max_m}]")
    edges = [_pair(n, t) for t in rng.sample(range(max_m), m)]
    rng.shuffle(edges)
    colours = [0] * m
    for i in range(k):
        colours[i] = i + 1
    for i in range(k, m):
        if k > 0 and rng.random() > 2 / 3:
            colours[i] = rng.randint(1, k)
    return build(n, k, [(u, v, c) for (u, v), c in zip(edges, colours)])


def _pair(n: int, t: int) -> tuple[int, int]:
    """The t-th pair (u, v), u < v < n, in lexicographic order: u is the
    largest value with u(2n - u - 1)/2 <= t, the number of pairs before
    row u.  The smaller root of u(b - u) = 2t, b = 2n - 1, rounded with
    an integer square root, overshoots u by at most one."""
    b = 2 * n - 1
    u = (b - math.isqrt(b * b - 8 * t)) // 2
    if u * (b - u) > 2 * t:
        u -= 1
    return u, t - u * (b - u) // 2 + u + 1


def random_corpus(count: int, seed: int, n_range=(3, 8), k_range=(0, 3)):
    """Deterministic list of random graphs; instance i uses seed + i."""
    out = []
    for i in range(count):
        rng = random.Random(seed + i)
        n = rng.randint(*n_range)
        k_hi = min(k_range[1], n * (n - 1) // 2)
        k = rng.randint(k_range[0], k_hi)
        out.append(random_coloured_graph(n, k, seed=seed + i + 10_000))
    return out
