import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordrig import (
    ColouredGraph,
    GraphError,
    build,
    henneberg_k1_sample,
    parse_coloured_graph,
    serialize,
    subgraph_by_colours,
)
from coordrig import corpus
from coordrig.cgraph import MAX_VERTICES
from coordrig.corpus import _pair, random_coloured_graph

from oracles import listed_random_coloured_graph

TRIANGLE = '{"n":3,"k":0,"edges":[[0,1,0],[1,2,0],[0,2,0]]}'
QUAD_RIGID = '{"n":4,"k":1,"edges":[[0,1,1],[0,2,0],[0,3,0],[1,2,0],[1,3,1],[2,3,1]]}'


def test_parse_triangle_uncoloured():
    g = parse_coloured_graph(TRIANGLE)
    assert (g.n, g.m, g.k) == (3, 3, 0)
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.colours == (0, 0, 0)


def test_parse_quad_with_one_class():
    g = parse_coloured_graph(QUAD_RIGID)
    assert (g.n, g.m, g.k) == (4, 6, 1)
    assert g.colour_class(1) == ((0, 1), (1, 3), (2, 3))


def test_parse_rejects_empty_class():
    doc = '{"n":3,"k":2,"edges":[[0,1,1],[1,2,1],[0,2,0]]}'
    with pytest.raises(GraphError, match="class 2 is empty"):
        parse_coloured_graph(doc)


PARSE_ERRORS = [
    ("[1,2]", "object"),
    ('{"n":2,"k":0}', "edges"),
    ('{"n":2,"k":0,"edges":[[0,0,0]]}', "u < v"),
    ('{"n":2,"k":0,"edges":[[1,0,0]]}', "u < v"),
    ('{"n":2,"k":0,"edges":[[0,1,0],[0,1,0]]}', "duplicate"),
    ('{"n":2,"k":0,"edges":[[0,1,1]]}', "out of range"),
    ('{"n":2,"k":0,"edges":[[0,2,0]]}', "violates"),
    ('{"n":2,"k":1,"edges":[[0,1,2]]}', "out of range"),
    ('{"n":0,"k":0,"edges":[]}', "positive"),
    ('{"n":true,"k":0,"edges":[]}', "vertex count"),
    ('{"n":2,"k":false,"edges":[]}', "class count"),
    ('{"n":2,"k":0,"edges":[[0,1,0]], "coords":[[0,0]]}', "coords"),
    ('{"n":2,"k":1,"edges":[[0,1,1]], "r":[1,2]}', "array of k numbers"),
    ('{"n":2,"k":0,"edges":[[0,1,0]], "coords":[[0,NaN],[1,0]]}', "finite"),
    ('{"n":2,"k":0,"edges":[[0,1,0]], "coords":[[0,0],[-Infinity,0]]}', "finite"),
    pytest.param(
        '{"n":2,"k":0,"edges":[[0,1,0]], "coords":[[0,0],[1,1' + "0" * 400 + "]]}",
        "finite",
        id="coords-int-beyond-float-range",
    ),
    ('{"n":2,"k":1,"edges":[[0,1,1]], "r":[Infinity]}', "finite"),
    ("{not json", "malformed JSON"),
]


@pytest.mark.parametrize("doc,match", PARSE_ERRORS)
def test_parse_errors(doc, match):
    with pytest.raises(GraphError, match=match):
        parse_coloured_graph(doc)


def _documents_with_a_graph():
    """The parse-error documents that decode to an object with n, k, edges."""
    for case in PARSE_ERRORS:
        text = getattr(case, "values", case)[0]
        try:
            doc = json.loads(text)
        except ValueError:
            continue
        if isinstance(doc, dict) and {"n", "k", "edges"} <= doc.keys():
            yield pytest.param(doc, id=getattr(case, "id", None) or text)


@pytest.mark.parametrize("doc", _documents_with_a_graph())
def test_build_rejects_every_parse_error(doc):
    # a check that only the parser makes would let the library build a
    # graph that fails to parse back once serialized
    with pytest.raises(GraphError):
        build(doc["n"], doc["k"], doc["edges"], coords=doc.get("coords"), r=doc.get("r"))


def test_build_with_integer_payload_serializes_floats():
    g = build(3, 1, [(1, 2, 1), (0, 1, 0)], coords=[[0, 0], [1, 0], [0, 2]], r=[3])
    assert serialize(g) == (
        '{"coords": [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]], '
        '"edges": [[0, 1, 0], [1, 2, 1]], "k": 1, "n": 3, "r": [3.0]}'
    )


def test_serialize_canonical_order():
    g = parse_coloured_graph(TRIANGLE)
    assert json.loads(serialize(g))["edges"] == [[0, 1, 0], [0, 2, 0], [1, 2, 0]]


def test_round_trip_fixture_corpus():
    from conftest import FIXTURE_NAMES, load_fixture

    for name in FIXTURE_NAMES:
        g = load_fixture(name)
        assert parse_coloured_graph(serialize(g)) == g


def test_serialize_parse_idempotent():
    g1 = parse_coloured_graph(QUAD_RIGID)
    once = serialize(g1)
    assert serialize(parse_coloured_graph(once)) == once


def test_subgraph_identity(seven_rigid_k2):
    g = seven_rigid_k2
    assert subgraph_by_colours(g, {0, 1, 2}) == g


def test_subgraph_uncoloured_part(twin_blocks_k2):
    g0 = subgraph_by_colours(twin_blocks_k2, {0})
    assert g0.m == 10
    assert g0.k == 0
    assert g0.n == twin_blocks_k2.n
    assert set(g0.edges) == {
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
        (4, 5), (4, 6), (4, 7), (5, 6), (5, 7),
    }


def test_subgraph_one_class(seven_rigid_k2):
    g1 = subgraph_by_colours(seven_rigid_k2, {0, 1})
    assert g1.m == 10  # 7 uncoloured + 3 of class 1
    assert g1.k == 1
    g2 = subgraph_by_colours(seven_rigid_k2, {2})
    assert g2.m == 3
    assert g2.k == 1  # class renumbered 2 -> 1
    assert set(g2.colours) == {1}


def test_subgraph_rejects_bad_selection(square_k1):
    with pytest.raises(GraphError):
        subgraph_by_colours(square_k1, {0, 7})


def test_class_sizes_partition(seven_rigid_k2):
    g = seven_rigid_k2
    assert sum(len(g.colour_class(i)) for i in range(g.k + 1)) == g.m


def test_isolated_vertices():
    g = build(5, 0, [(0, 1, 0), (1, 2, 0)])
    assert g.isolated_vertices() == (3, 4)


def _isolated_by_scan(g):
    touched = {x for e in g.edges for x in e}
    return tuple(v for v in range(g.n) if v not in touched)


@pytest.mark.parametrize("n, edges, isolated", [
    (1, [], (0,)),  # n = 1 and m = 0
    (4, [], (0, 1, 2, 3)),
    (6, [(0, 2), (2, 4)], (1, 3, 5)),  # below and above the largest endpoint
    (4, [(1, 3), (2, 3)], (0,)),
    (3, [(0, 1), (1, 2)], ()),
])
def test_isolated_vertices_cases(n, edges, isolated):
    g = build(n, 0, [(u, v, 0) for u, v in edges])
    assert g.isolated_vertices() == isolated == _isolated_by_scan(g)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_isolated_vertices_match_a_scan(data):
    n = data.draw(st.integers(min_value=1, max_value=12), label="n")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs
                      else st.just([]), label="edges")
    g = build(n, 0, [(u, v, 0) for u, v in edges])
    assert g.isolated_vertices() == _isolated_by_scan(g)


@pytest.mark.parametrize("call, error", [
    (lambda g: g.colour_class(True), GraphError),
    (lambda g: g.colour_class(1.0), GraphError),
    (lambda g: subgraph_by_colours(g, {"1"}), GraphError),
    (lambda g: subgraph_by_colours(g, {None}), GraphError),
    (lambda g: subgraph_by_colours(g, {0, True}), GraphError),
    (lambda g: henneberg_k1_sample(4.5, 0), ValueError),
    (lambda g: henneberg_k1_sample(True, 0), ValueError),
], ids=["class-True", "class-1.0", "keep-str", "keep-None", "keep-True",
        "gen-4.5", "gen-True"])
def test_class_indices_and_sizes_must_be_exact_ints(quad_rigid_k1, call, error):
    # as for a graph's n, k and colours: True is not 1, and 1.0 is not 1
    with pytest.raises(error, match="integer|an int") as info:
        call(quad_rigid_k1)
    assert type(info.value) is error


def test_parse_bounds_the_vertex_count():
    assert parse_coloured_graph(f'{{"n": {MAX_VERTICES}, "k": 0, "edges": []}}').n == MAX_VERTICES
    with pytest.raises(GraphError, match=f"vertex count {MAX_VERTICES + 1} exceeds"):
        parse_coloured_graph(f'{{"n": {MAX_VERTICES + 1}, "k": 0, "edges": []}}')
    # the library itself stays unbounded
    assert ColouredGraph(n=MAX_VERTICES + 1, edges=(), colours=(), k=0).n == MAX_VERTICES + 1


def test_build_rejects_loop_and_duplicate():
    with pytest.raises(GraphError, match="loop"):
        build(3, 0, [(1, 1, 0)])
    with pytest.raises(GraphError, match="duplicate"):
        build(3, 0, [(0, 1, 0), (0, 1, 0)])


@pytest.mark.parametrize(
    "construct",
    [
        pytest.param(lambda: build(3, 0, [(0, 1.7, 0)]), id="float-vertex"),
        pytest.param(lambda: build(3, 1, [(True, 2, 1)]), id="bool-vertex"),
        pytest.param(lambda: build(3, 1, [(0, 1, True)]), id="bool-colour"),
        pytest.param(lambda: build(3, 1, [(0, np.int64(1), 1)]), id="numpy-vertex"),
        pytest.param(
            lambda: ColouredGraph(n=3, edges=((True, 2),), colours=(1,), k=1),
            id="graph-bool-vertex",
        ),
        pytest.param(
            lambda: ColouredGraph(n=3, edges=((0, 1),), colours=(True,), k=1),
            id="graph-bool-colour",
        ),
        pytest.param(
            lambda: build(2, 0, [(0, 1, 0)], coords=[["1", True], [0, 1]]),
            id="string-and-bool-coords",
        ),
        pytest.param(
            lambda: ColouredGraph(
                n=2, edges=((0, 1),), colours=(0,), k=0, coords=((math.nan,),), r=(1.0,)
            ),
            id="graph-one-nan-row-and-r-at-k0",
        ),
        pytest.param(lambda: build(2, 0, [(0, 1, 0)], coords=[0, 1]), id="coords-row-not-a-sequence"),
        pytest.param(lambda: build(2, 1, [(0, 1, 1)], r=[10**400]), id="r-beyond-float-range"),
    ],
)
def test_library_construction_rejects_what_the_parser_rejects(construct):
    # coercing these would turn 1.7 into vertex 1, and a bool would be
    # serialized as `true`, which the parser rejects
    with pytest.raises(GraphError):
        construct()


@pytest.mark.parametrize(
    "edges", [([0, 1],), ((0, 1, 2),)], ids=["list-edge", "triple-edge"]
)
def test_graph_rejects_an_edge_that_is_not_a_pair(edges):
    # checked before the edge is unpacked or compared, so neither raises a
    # raw TypeError or ValueError
    with pytest.raises(GraphError, match=r"is not a \(u, v\) tuple"):
        ColouredGraph(n=3, edges=edges, colours=(0,), k=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_graph_round_trip(seed):
    g = random_coloured_graph(5, 2, seed=seed)
    assert parse_coloured_graph(serialize(g)) == g
    assert list(g.edges) == sorted(g.edges)
    for i, (e, c) in enumerate(zip(g.edges, g.colours)):
        assert g.edge_index(e) == g.edges.index(e) == i
        assert g.colour_of(e) == c
    assert all(c for c in range(1, g.k + 1) if g.colour_class(c))


@pytest.mark.parametrize("args,name", [
    ((5.0, 1, 7), "n"), ((True, 1, 7), "n"), ((5, 1.0, 7), "k"), ((5, None, 7), "k"),
    ((5, 1, 7.0), "m"), ((5, 1, True), "m"), ((5, 1, "7"), "m"),
])
def test_random_graph_sizes_must_be_exact_ints(monkeypatch, args, name):
    # a float, bool or string size is refused by name before any draw;
    # without the check m=True built a graph with one edge
    value = dict(zip("nkm", args))[name]
    drawn = []
    monkeypatch.setattr(corpus.random, "Random", lambda *a: drawn.append(a))
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
        random_coloured_graph(*args[:2], seed=0, m=args[2])
    assert drawn == []


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=4))
def test_colour_classes_match_a_scan(seed, k):
    g = random_coloured_graph(7, k, seed=seed)
    for h in (g, subgraph_by_colours(g, set(range(0, k + 1, 2)))):
        for i in range(h.k + 1):
            assert h.colour_class(i) == tuple(
                e for e, c in zip(h.edges, h.colours) if c == i
            )


def test_edge_index_missing_edge(quad_rigid_k1):
    with pytest.raises(GraphError, match=r"edge \(0, 9\) is not in the graph"):
        quad_rigid_k1.edge_index((0, 9))


def test_colour_of_missing_edge(quad_rigid_k1):
    with pytest.raises(GraphError, match=r"edge \(0, 9\) is not in the graph"):
        quad_rigid_k1.colour_of((0, 9))


def test_list_edge_is_a_graph_error(quad_rigid_k1):
    # a list is not hashable, so it cannot be a key of the position map
    for lookup in (quad_rigid_k1.edge_index, quad_rigid_k1.colour_of):
        with pytest.raises(GraphError, match=r"edge \[0, 1\] is not in the graph"):
            lookup([0, 1])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sets(st.integers(min_value=0, max_value=2), min_size=1),
)
def test_subgraph_keeps_exactly_selected_colours(seed, keep):
    g = random_coloured_graph(6, 2, seed=seed)
    keep = {c for c in keep if c <= g.k}
    if not keep:
        keep = {0}
    sub = subgraph_by_colours(g, keep)
    expected = {e for e, c in zip(g.edges, g.colours) if c in keep}
    assert set(sub.edges) == expected
    assert sub.n == g.n
    # every surviving class is non-empty
    for c in range(1, sub.k + 1):
        assert sub.colour_class(c)


def test_random_graph_any_class_count():
    # every class count up to n(n-1)/2 draws a graph, including the nearly
    # complete ones whose default edge window used to start above it
    for n in range(2, 9):
        pairs = n * (n - 1) // 2
        for k in range(pairs + 1):
            for seed in range(3):
                g = random_coloured_graph(n, k, seed=seed)
                assert k <= g.m <= pairs
                assert sorted(set(g.colours) - {0}) == list(range(1, k + 1))
    k4 = random_coloured_graph(4, 6, seed=0)
    assert (k4.m, sorted(k4.colours)) == (6, [1, 2, 3, 4, 5, 6])


def test_pair_index_maps_to_lexicographic_pairs():
    for n in list(range(2, 40)) + [97, 640]:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assert [_pair(n, t) for t in range(len(pairs))] == pairs, n


def test_random_graph_draws_match_the_listed_pairs():
    # sampling indices draws the same positions, and leaves the RNG in the
    # same state, as sampling the list of all pairs: the colours drawn
    # after the edges agree too
    for n in list(range(2, 40)) + [97, 640, 1000]:
        pairs = n * (n - 1) // 2
        seeds, full = (range(20), pairs) if n < 100 else (range(3), 4 * n)
        for m in (None, min(pairs, n), full):
            for seed in seeds:
                k = min(3, pairs)
                g = random_coloured_graph(n, k, seed=seed, m=m)
                ref = listed_random_coloured_graph(n, k, seed=seed, m=m)
                assert (g.edges, g.colours) == (ref.edges, ref.colours), (n, m, seed)
