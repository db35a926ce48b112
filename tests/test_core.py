"""The (d+1)-core: coloops are stripped once and every route adds |C|.

Every edge at a vertex of degree <= d is a coloop of the generic
d-dimensional rigidity matroid; ``coloops`` peels such vertices until the
(d+1)-core is left.  These tests check the stripped set against a naive
peel and the full-matrix ranks, and check that the plane games, the union
and the GF(q) oracle give what they give on the whole edge set.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordrig import (
    ColouredGraph,
    OracleParams,
    build,
    check_k1,
    check_union,
    decide_generic_coordinated_rigidity,
    generic_rank,
    henneberg_k1_sample,
    is_redundant_set,
    sparsity_rank,
    union_rank_d2,
)
from coordrig import generic, laman, linalg
from coordrig.cgraph import coloops
from coordrig.corpus import random_coloured_graph
from coordrig.pebble import PebbleGame, run_game

from oracles import replay_union_rank

K4_EDGES = [(u, v, 0) for u in range(4) for v in range(u + 1, 4)]


def naive_coloops(g, d):
    """Remove any vertex of degree <= d with its edges until none is left."""
    edges = set(g.edges)
    stripped = set()
    while True:
        degree = {}
        for e in edges:
            for v in e:
                degree[v] = degree.get(v, 0) + 1
        low = next((v for v, deg in sorted(degree.items()) if deg <= d), None)
        if low is None:
            return stripped
        gone = {e for e in edges if low in e}
        stripped |= gone
        edges -= gone


@st.composite
def graphs(draw):
    """Small random coloured graphs and one-class Henneberg graphs."""
    seed = draw(st.integers(min_value=0, max_value=10**6))
    if draw(st.booleans()):
        return henneberg_k1_sample(draw(st.integers(min_value=4, max_value=14)), seed)
    n = draw(st.integers(min_value=2, max_value=14))
    pairs = n * (n - 1) // 2
    k = draw(st.integers(min_value=0, max_value=min(3, pairs)))
    m = draw(st.integers(min_value=max(k, 1), max_value=min(pairs, 3 * n)))
    return random_coloured_graph(n, k, seed=seed, m=m)


def full_modular_rank(g, d, seed, drop=()):
    """rank R(p) over GF(q) of all rows but ``drop`` at the oracle's sample."""
    p = linalg.sample_modular_configuration(g.n, d, seed)
    rows = linalg.modular_matrix(g, p, d)
    keep = [i for i, e in enumerate(g.edges) if e not in drop]
    return linalg.modular_rank_rows(rows, row_subset=keep)


@settings(max_examples=80, deadline=None)
@given(graphs(), st.integers(min_value=1, max_value=3))
def test_coloops_match_a_naive_peel(g, d):
    assert coloops(g, d) == naive_coloops(g, d)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_plane_core_keeps_circuits_and_adds_coloops(g):
    stripped = coloops(g, 2)
    core = tuple(e for e in g.edges if e not in stripped)
    _, circuits = run_game(g)
    assert not stripped & {e for circuit in circuits.values() for e in circuit}
    assert sparsity_rank(g)[0] == len(stripped) + sparsity_rank((core, g.n))[0]
    assert run_game((core, g.n))[1] == circuits
    assert union_rank_d2(g) == replay_union_rank(g)


@settings(max_examples=40, deadline=None)
@given(graphs(), st.sampled_from([2, 3]), st.integers(min_value=0, max_value=10**6))
def test_oracle_rank_equals_the_full_matrix_rank(g, d, seed):
    full = full_modular_rank(g, d, seed)
    assert generic_rank(g, OracleParams(d=d, trials=1, seed=seed)) == full
    # each stripped edge is a coloop of R(p): removing its row lowers the rank
    for e in coloops(g, d):
        assert full_modular_rank(g, d, seed, drop={e}) == full - 1


def test_coloops_store_only_the_vertices_of_edges():
    g = ColouredGraph(n=3_000_000, edges=((0, 1),), colours=(0,), k=0)
    tracemalloc.start()
    try:
        got = coloops(g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == {(0, 1)}
    assert peak < 100_000


@pytest.fixture
def inserted(monkeypatch):
    """A list of every edge offered to ``PebbleGame.try_insert``."""
    edges = []
    insert = PebbleGame.try_insert

    def recording_insert(self, edge):
        edges.append(edge)
        return insert(self, edge)

    monkeypatch.setattr(PebbleGame, "try_insert", recording_insert)
    return edges


def test_plane_game_inserts_only_core_edges(inserted):
    # a Henneberg graph's vertex additions leave degree-2 vertices
    g = henneberg_k1_sample(12, seed=4)
    stripped = coloops(g, 2)
    assert len(stripped) == 12
    core = [e for e in g.edges if e not in stripped]
    # check_k1 plays the core in vertex order, the canonical order
    # reversed, whose game rejects another edge than the canonical one
    (rejected,) = run_game((core[::-1], g.n))[1]
    assert rejected not in run_game((core, g.n))[1]
    inserted.clear()  # the generator checks its graph with check_k1
    verdict = check_k1(g)
    assert verdict.rigid and verdict.isostatic
    # every core edge once, and the one rejected edge once more, to read
    # its circuit off the final game
    assert sorted(inserted) == sorted(core + [rejected])


def test_union_and_oracle_work_on_the_core(inserted, monkeypatch):
    g = random_coloured_graph(16, 4, seed=3, m=30)
    stripped = coloops(g, 2)
    assert stripped
    rep = union_rank_d2(g)
    assert inserted and not stripped & set(inserted)
    assert stripped <= set(rep.independent_rigidity)
    assert not stripped & set(rep.transversal)

    widths = []  # the columns from ``start`` on: the coloured core edges
    projection = linalg.modular_projection

    def recording_projection(rows, start):
        rows = list(rows)
        widths.append(len(rows[0]) - start)
        return projection(rows, start)

    monkeypatch.setattr(linalg, "modular_projection", recording_projection)
    generic._RankOracle(g, OracleParams(d=2, trials=2, seed=5))
    # trials after one that reaches both rank caps are not eliminated
    assert 1 <= len(widths) <= 2
    coloured_core = [e for e in g.edges if e not in stripped and g.colour_of(e)]
    assert widths == [len(coloured_core)] * len(widths)


def test_class_made_only_of_coloops():
    # K4 uncoloured, and class 1 is the two edges of a degree-2 vertex: every
    # route must call it flexible, since no coloured edge is redundant
    g = build(5, 1, K4_EDGES + [(0, 4, 1), (1, 4, 1)])
    assert coloops(g, 2) == {(0, 4), (1, 4)}
    plane = check_k1(g)
    assert (plane.decision, plane.witness) == ("flexible", "class-all-bridges:1")
    assert plane.ranks["classification"] == "laman+1"
    assert check_union(g).witness == "deficiency:1"
    params = OracleParams(d=2, trials=2, seed=1)
    numeric = decide_generic_coordinated_rigidity(g, params)
    assert numeric.witness == "no-rainbow-redundant-tuple"
    assert numeric.ranks["generic_rank"] == 7
    assert not is_redundant_set(g, [(0, 4)], params)
    assert is_redundant_set(g, [(2, 3)], params)


def test_isolated_vertices_and_a_single_vertex():
    # an isolated vertex has no edge to strip, and n = 1 has no edge at all
    g = build(6, 1, K4_EDGES + [(3, 4, 1)])
    assert coloops(g, 2) == {(3, 4)}
    assert check_k1(g).ranks["isolated_vertices"] == [5]
    for d in (2, 3):
        params = OracleParams(d=d, trials=1, seed=2)
        assert generic_rank(g, params) == full_modular_rank(g, d, 2)
    single = build(1, 0, [])
    assert coloops(single, 2) == frozenset()
    assert union_rank_d2(single).union_rank == 0
    assert generic_rank(single, OracleParams(d=3, trials=1)) == 0


def test_laman_plus_1_circuit_excludes_the_coloops():
    # K4 with one coloured edge, plus a degree-2 vertex: the unique circuit
    # is K4, read from the game on the core
    g = build(5, 1, [(0, 1, 1)] + K4_EDGES[1:] + [(2, 4, 0), (3, 4, 0)])
    assert coloops(g, 2) == {(2, 4), (3, 4)}
    verdict = check_k1(g)
    assert verdict.rigid and verdict.isostatic
    circuit = verdict.certificate["diagnosis"]["circuit"]
    assert circuit == [[u, v] for u, v, _ in K4_EDGES]
    on_core = laman._plane_game(g, coloops(g, 2))
    whole = laman._plane_game(g, frozenset())
    for field in ("rank", "circuits", "redundant", "coloured"):
        assert getattr(on_core, field) == getattr(whole, field), field

