import random
import re
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordrig import build, henneberg_k1_sample, laman, pebble, redundant_edges_d2, sparsity_rank
from coordrig.corpus import random_coloured_graph
from coordrig.laman import _rainbow_pair_general, laman_kind
from coordrig.pebble import (
    PLANE,
    PLANE_LOOSE,
    PebbleGame,
    SparsityParams,
    run_game,
)

from oracles import (
    OneSidedPebbleGame,
    TwoSidedPebbleGame,
    brute_circuits,
    brute_rainbow_pair,
    brute_rank,
    brute_sparse,
)

K4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
TRIANGLE = [(0, 1), (0, 2), (1, 2)]


def plain(edges, n):
    return (tuple(sorted(edges)), n)


def classify(edges, n):
    return laman_kind(n, len(edges), sparsity_rank(plain(edges, n))[0])


def test_params_validation():
    SparsityParams(2, 3)
    SparsityParams(1, 0)
    SparsityParams(3, 5)
    for kk, ll in [(0, 0), (2, 4), (2, -1), (1, 2)]:
        with pytest.raises(ValueError):
            SparsityParams(kk, ll)


def test_k4_rank_and_tight_set():
    rank, tight = sparsity_rank(plain(K4, 4))
    assert rank == 5
    # canonical insertion accepts the first five edges and rejects the last
    assert tight == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))


def test_triangle_rank():
    rank, tight = sparsity_rank(plain(TRIANGLE, 3))
    assert rank == 3
    assert set(tight) == set(TRIANGLE)


def test_seven_vertex_fixture_rank(seven_rigid_k2):
    rank, _ = sparsity_rank(seven_rigid_k2)
    assert rank == 11 == 2 * 7 - 3


def test_classify_k4():
    assert classify(K4, 4) == "laman+1"


def test_classify_fixture_plus_two(twin_blocks_k2):
    g = twin_blocks_k2
    rank = sparsity_rank(g)[0]
    assert rank == 13
    assert laman_kind(g.n, g.m, rank) == "laman+2"


def test_classify_deficit():
    # K4 minus an edge plus an isolated vertex: rank 5 against target 7
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    assert sparsity_rank(plain(edges, 5))[0] == 5
    assert classify(edges, 5) == "deficit"


def test_classify_laman_and_other():
    assert classify(TRIANGLE, 3) == "laman"
    # triangle plus all three multi... use K5: m=10, rank 7, surplus 3
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    assert classify(k5, 5) == "other"


def test_classify_rejects_tiny():
    with pytest.raises(ValueError):
        classify([], 1)


def test_k4_circuit_is_whole_graph():
    rank, tight = sparsity_rank(plain(K4, 4))
    missing = next(e for e in K4 if e not in tight)
    _, circuits = run_game(plain(K4, 4))
    assert list(circuits) == [missing]
    assert set(circuits[missing]) == set(K4)
    # matches the brute-force minimal dependent set
    assert [set(c) for c in brute_circuits(K4, 4)] == [set(K4)]


def test_circuit_confined_to_overbraced_block(nested_circuit_k2):
    # the uncoloured part plus one coloured edge: the only dependency lives
    # inside the six-vertex block
    g0_edges = [e for e, c in zip(nested_circuit_k2.edges, nested_circuit_k2.colours) if c == 0]
    coloured = next(e for e, c in zip(nested_circuit_k2.edges, nested_circuit_k2.colours) if c == 1)
    accepted, circuits = run_game(plain(g0_edges + [coloured], 7))
    assert len(circuits) == 1
    circuit = next(iter(circuits.values()))
    assert set(circuit) == set(g0_edges)  # the block's unique circuit
    assert all(v <= 5 for e in circuit for v in e)


def test_circuit_inside_rigid_block_only():
    # Laman graph with a K4-minus-edge block and a pendant vertex; adding
    # the missing block edge closes a circuit that avoids the pendant
    laman = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (1, 4)]
    rank, tight = sparsity_rank(plain(laman, 5))
    assert rank == 7 and set(tight) == set(laman)
    _, circuits = run_game(plain(laman + [(2, 3)], 5))
    assert list(circuits) == [(2, 3)]
    assert set(circuits[(2, 3)]) == set(K4)
    expected = [c for c in brute_circuits(laman + [(2, 3)], 5)]
    assert [set(circuits[(2, 3)])] == [set(c) for c in expected]


def test_circuit_independent_of_build_order():
    rng = random.Random(7)
    base = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (1, 4), (2, 4)]
    reference = None
    for _ in range(10):
        shuffled = base[:]
        rng.shuffle(shuffled)
        game = PebbleGame(5, PLANE)
        circuit = None
        for e in shuffled:
            if not game.try_insert(e):
                assert circuit is None
                circuit = set(game.rejection_circuit(e))
        assert circuit is not None
        if reference is None:
            reference = circuit
        assert circuit == reference


def test_redundant_k4_and_triangle():
    assert set(redundant_edges_d2(plain(K4, 4))) == set(K4)
    assert redundant_edges_d2(plain(TRIANGLE, 3)) == ()


def test_redundant_fixture_blocks(twin_blocks_k2):
    red = set(redundant_edges_d2(twin_blocks_k2))
    block1 = {(u, v) for u in range(4) for v in range(u + 1, 4)}
    block2 = {(u + 4, v + 4) for u in range(4) for v in range(u + 1, 4)}
    assert red == block1 | block2
    # the three connectors are bridges
    assert set(twin_blocks_k2.colour_class(2)) & red == set()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_rank_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = rng.randint(1, min(len(pairs), 12))
    edges = sorted(rng.sample(pairs, m))
    assert sparsity_rank(plain(edges, n))[0] == brute_rank(edges, n)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_rank_matches_brute_force_22(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = rng.randint(1, min(len(pairs), 9))
    edges = sorted(rng.sample(pairs, m))
    got = sparsity_rank(plain(edges, n), PLANE_LOOSE)[0]
    assert got == brute_rank(edges, n, 2, 2)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_redundant_equals_naive_definition(seed):
    g = random_coloured_graph(random.Random(seed).randint(3, 7), 0, seed=seed)
    full, _ = sparsity_rank(g)
    naive = {
        e
        for e in g.edges
        if sparsity_rank(plain([x for x in g.edges if x != e], g.n))[0] == full
    }
    assert set(redundant_edges_d2(g)) == naive


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_redundant_edges_lie_on_circuits(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 6)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = rng.randint(3, min(len(pairs), 9))
    edges = sorted(rng.sample(pairs, m))
    on_circuit = set()
    for c in brute_circuits(edges, n):
        on_circuit.update(c)
    assert set(redundant_edges_d2(plain(edges, n))) == on_circuit


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_circuit_shape_invariant(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(rng.sample(pairs, min(len(pairs), rng.randint(6, 12))))
    _, circuits = run_game(plain(edges, n))
    for e, circuit in circuits.items():
        assert e in circuit
        spanned = {v for f in circuit for v in f}
        assert len(circuit) == 2 * len(spanned) - 2
        for f in circuit:
            assert brute_sparse([x for x in circuit if x != f], n)


class ShuffledSearch(PebbleGame):
    """The same game, but every search visits successors in a random order."""

    rng = random.Random(0)

    def _find_pebble(self, start, blocked):
        for succ in self.succ:
            self.rng.shuffle(succ)
        return super()._find_pebble(start, blocked)


@pytest.mark.parametrize("params", [PLANE, PLANE_LOOSE])
def test_game_independent_of_search_order(monkeypatch, params):
    # the accepted set is the greedy basis in insertion order and each
    # circuit the minimal tight set spanning its edge, so no output may
    # depend on which pebble a search finds
    graphs = []
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(4, 25)
        m = min(n * (n - 1) // 2, rng.randint(2 * n - 3, 2 * n + 4))
        graphs.append(random_coloured_graph(n, 0, seed=seed, m=m))
    expected = [run_game(g, params) for g in graphs]
    monkeypatch.setattr(ShuffledSearch, "rng", random.Random(99))
    monkeypatch.setattr(pebble, "PebbleGame", ShuffledSearch)
    for g, (accepted, circuits) in zip(graphs, expected):
        assert run_game(g, params) == (accepted, circuits)
    assert sum(bool(circuits) for _, circuits in expected) >= 20


@pytest.mark.parametrize("params", [PLANE, PLANE_LOOSE])
def test_delete_then_reinsert_equals_fresh_game(params):
    # deleting accepted edges leaves a valid game on the rest of the basis
    # (Lee & Streinu 2008); re-inserting the rejected edges must then give
    # what a fresh game on the remaining edges gives
    rng = random.Random(2024)
    changed = 0
    for seed in range(60):
        n = rng.randint(4, 18)
        m = min(n * (n - 1) // 2, rng.randint(2 * n - 3, 2 * n + 6))
        g = random_coloured_graph(n, 0, seed=seed, m=m)
        game = PebbleGame(g.n, params)
        circuits = game.insert_all(g.edges)
        gone = set(rng.sample(game.accepted, rng.randint(1, 4)))
        for e in gone:
            game.delete_all([e])
        rest_circuits = game.insert_all(circuits)
        rest = [e for e in g.edges if e not in gone]
        accepted, fresh = run_game((rest, g.n), params)
        assert len(game.accepted) == len(accepted)
        assert set(game.accepted) == set(accepted)
        assert rest_circuits == fresh
        redundant = {e for c in rest_circuits.values() for e in c}
        assert redundant == {e for c in fresh.values() for e in c}
        changed += rest_circuits.keys() != circuits.keys()
    assert changed >= 20


@pytest.mark.parametrize("params", [PLANE, PLANE_LOOSE])
def test_copy_is_independent_of_original(params):
    g = random_coloured_graph(12, 0, seed=5, m=24)
    game = PebbleGame(g.n, params)
    circuits = game.insert_all(g.edges)
    state = (list(game.pebbles), [list(s) for s in game.succ], list(game.deg),
             list(game.accepted))
    twin = game.copy()
    assert type(twin) is PebbleGame
    assert (twin.pebbles, twin.succ, twin.deg, twin.accepted) == state
    for e in twin.accepted[:5]:
        twin.delete_all([e])
    twin.insert_all(circuits)
    assert (twin.pebbles, twin.succ, twin.deg, twin.accepted) != state
    assert (game.pebbles, game.succ, game.deg, game.accepted) == state


def test_delete_returns_the_pebble_to_the_tail():
    game = PebbleGame(4, PLANE)
    assert game.insert_all(K4) == {(2, 3): tuple(K4)}
    for e in list(game.accepted):
        game.delete_all([e])
    assert game.pebbles == [2] * 4
    assert game.succ == [[] for _ in range(4)]
    assert game.accepted == []


def _played(cls, g, params):
    """The outcome of every search, the game and the circuits of a game of
    ``cls`` played on g."""
    found = []
    game = cls(g.n, params)
    find = game._find_pebble

    def counting_find(u, v):
        found.append(find(u, v))
        return found[-1]

    game._find_pebble = counting_find
    circuits = game.insert_all(g.edges)
    return found, game, circuits


@pytest.mark.parametrize("params", [PLANE, PLANE_LOOSE])
def test_two_sided_search_fails_once_per_rejection(params):
    # a search seeded with both endpoints fails only when no free pebble is
    # reachable from either, which rejects the edge; the one-sided kernel
    # also failed from an endpoint already holding kk pebbles, and walked
    # the region again for the circuit
    old_total = new_total = rejected = 0
    for seed in range(40):
        n = 6 + seed % 12
        m = min(n * (n - 1) // 2, 2 * n + seed % 9)
        g = random_coloured_graph(n, 0, seed=seed, m=m)
        old, oracle, old_circuits = _played(OneSidedPebbleGame, g, params)
        new, game, circuits = _played(PebbleGame, g, params)
        assert game.accepted == oracle.accepted
        assert circuits == old_circuits
        assert new.count(False) == len(circuits)
        old_total += len(old)
        new_total += len(new)
        rejected += len(circuits)
    assert new_total <= old_total
    assert rejected >= 100


@pytest.mark.parametrize("fixture", ["seven_rigid_k2", "nested_circuit_k2"])
def test_failed_side_is_not_searched_again(request, fixture):
    # one search seeded with both endpoints covers both sides, so a rejected
    # edge costs one failed search and no side is searched a second time
    g = request.getfixturevalue(fixture)
    old, oracle, old_circuits = _played(OneSidedPebbleGame, g, PLANE)
    new, game, circuits = _played(PebbleGame, g, PLANE)
    assert game.accepted == oracle.accepted
    assert circuits == old_circuits
    assert circuits
    assert new.count(False) == len(circuits)
    assert old.count(False) > len(circuits)
    assert len(new) < len(old)


def test_circuit_read_needs_the_edge_just_rejected():
    game = PebbleGame(5, PLANE)
    with pytest.raises(RuntimeError, match="not the edge"):
        game.rejection_circuit((2, 3))  # nothing rejected yet
    game.insert_all(K4[:5])
    assert not game.try_insert((2, 3))
    with pytest.raises(RuntimeError, match="not the edge"):
        game.rejection_circuit((0, 1))
    assert game.rejection_circuit((2, 3)) == tuple(K4)
    # any later insert or delete ends the read, even one that moved no
    # pebble and left the marks in place
    assert game.try_insert((0, 4))
    with pytest.raises(RuntimeError, match="not the edge"):
        game.rejection_circuit((2, 3))
    assert not game.try_insert((2, 3))
    game.delete_all([(0, 4)])
    with pytest.raises(RuntimeError, match="not the edge"):
        game.rejection_circuit((2, 3))


def test_a_copy_searches_with_its_own_marks():
    # two disjoint copies of K4 less its last edge; the copy's failed
    # search on the second leaves the original's marks, and so its
    # circuit read, on the first
    left, right = K4[:5], [(u + 4, v + 4) for u, v in K4[:5]]
    game = PebbleGame(8, PLANE)
    game.insert_all(left + right)
    assert not game.try_insert((2, 3))
    twin = game.copy()
    with pytest.raises(RuntimeError, match="not the edge"):
        twin.rejection_circuit((2, 3))  # a copy starts with no rejection
    assert not twin.try_insert((6, 7))
    assert game.rejection_circuit((2, 3)) == tuple(K4)
    assert twin.rejection_circuit((6, 7)) == tuple(right) + ((6, 7),)
    with pytest.raises(RuntimeError, match="not the edge"):
        game.rejection_circuit((6, 7))


def test_circuit_read_among_given_edges():
    # ``among`` narrows the read to the circuit's edges that it lists; the
    # stale-read check holds for it as for a full read
    game = PebbleGame(5, PLANE)
    game.insert_all(K4[:5] + [(3, 4)])
    assert not game.try_insert((2, 3))
    assert game.rejection_circuit((2, 3), [(3, 4), (1, 2), (0, 1)]) == ((0, 1), (1, 2), (2, 3))
    assert game.rejection_circuit((2, 3), [(3, 4)]) == ((2, 3),)
    assert game.rejection_circuit((2, 3), []) == ((2, 3),)
    assert game.rejection_circuit((2, 3)) == tuple(K4)
    twin = game.copy()
    assert not twin.try_insert((2, 3))
    assert game.rejection_circuit((2, 3), [(0, 1)]) == ((0, 1), (2, 3))
    with pytest.raises(RuntimeError, match="not the edge"):
        twin.rejection_circuit((0, 1), [(0, 1)])


BAD_EDGE_LISTS = [
    ([(0, 1), (0, 2), (1, 2), (-1, 0), (-1, 1)], "(-1, 0)", "outside 0..2"),
    ([(0, 1), (0, 2), (1, 3)], "(1, 3)", "outside 0..2"),
    ([(0, 1), (1, 1)], "(1, 1)", "loop"),
    ([(0, 1.0), (1, 2)], "(0, 1.0)", "not an int"),
    ([("0", 1)], "('0', 1)", "not an int"),
    ([(0, True), (1, 2)], "(0, True)", "not an int"),
]


@pytest.mark.parametrize("edges,named,why", BAD_EDGE_LISTS)
@pytest.mark.parametrize("call", [run_game, sparsity_rank, redundant_edges_d2])
def test_plain_edge_lists_reject_bad_endpoints(call, edges, named, why):
    # a negative endpoint would index the game's lists from the end, a
    # loop would be played as an edge, True as vertex 1, and a float or a
    # string would fail inside the game without naming the edge; a plain
    # list is checked before any game, and the error names the first bad
    # edge
    with pytest.raises(ValueError, match=re.escape(named) + ".*" + why):
        call((edges, 3))


def test_coloured_graph_edges_pass_through():
    # a ColouredGraph was validated when it was built; its edge tuple goes
    # to the game as it is, while a plain list of good edges is only made
    # a tuple; both come with their span, not with n
    g = build(9, 0, [(u, v, 0) for u, v in K4])
    edges, span = pebble._edges_of(g)
    assert edges is g.edges and span == 4
    assert pebble._edges_of((iter(K4), 9)) == (tuple(K4), 4)
    assert pebble._edges_of(([(5, 2), (1, 3)], 9)) == (((5, 2), (1, 3)), 6)
    assert pebble._edges_of(([], 9)) == ((), 0)


FAR = 3_000_000


@pytest.mark.parametrize("call", [run_game, sparsity_rank, redundant_edges_d2])
@pytest.mark.parametrize("coloured", [False, True])
def test_games_cover_only_the_span_of_their_edges(call, coloured):
    # K4 on three million vertices makes a game on four
    g = build(FAR, 0, [(u, v, 0) for u, v in K4]) if coloured else (K4, FAR)
    tracemalloc.start()
    try:
        call(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_a_game_covers_the_vertices_it_is_made_for():
    # the lists are made once, for 0..n-1, and never grow: an endpoint
    # beyond them is the caller's error, raised before any list changes
    game = PebbleGame(4, PLANE)
    assert game.insert_all(K4) == {(2, 3): tuple(K4)}
    state = (list(game.pebbles), [list(s) for s in game.succ], list(game.deg))
    for e in [(3, 4), (0, 4), (4, 9)]:
        with pytest.raises(IndexError):
            game.try_insert(e)
    assert (game.pebbles, game.succ, game.deg) == state
    assert len(game._seen) == len(game._parent) == 4


def _dense_graph(seed):
    """A random plane graph a little denser than 2n - 3."""
    rng = random.Random(seed)
    n = rng.randint(5, 20)
    m = min(n * (n - 1) // 2, rng.randint(2 * n - 3, 2 * n + 5))
    return random_coloured_graph(n, 0, seed=seed, m=m)


@pytest.mark.parametrize("params", [PLANE, PLANE_LOOSE])
def test_bulk_removal_leaves_a_valid_game(params):
    # delete_all drops any number of accepted edges in one pass; the game
    # must stay valid (every vertex keeps pebbles + out-arcs = kk, degrees
    # count the accepted edges) and every later insert must decide as a
    # fresh game on the remaining accepted edges decides it
    rejected_later = 0
    for seed in range(40):
        rng = random.Random(seed)
        g = _dense_graph(seed)
        game = PebbleGame(g.n, params)
        rejected = list(game.insert_all(g.edges))
        gone = rng.sample(game.accepted, rng.randint(0, len(game.accepted)))
        rest = [e for e in game.accepted if e not in gone]
        game.delete_all(gone)
        assert game.accepted == rest
        assert all(game.pebbles[v] + len(game.succ[v]) == params.kk for v in range(g.n))
        assert game.deg == [sum(v in e for e in rest) for v in range(g.n)]
        fresh = PebbleGame(g.n, params)
        assert fresh.insert_all(rest) == {}
        later = rejected + gone
        rng.shuffle(later)
        for e in later:
            ok = fresh.try_insert(e)
            assert game.try_insert(e) == ok, (seed, e)
            rejected_later += not ok
    assert rejected_later >= 40


@pytest.mark.parametrize("params", [PLANE, PLANE_LOOSE])
def test_interleaved_copies_play_fresh_games(params):
    # a game and its copies each search with their own marks, so
    # searches of the three can alternate
    for seed in range(30):
        g = _dense_graph(seed)
        half = len(g.edges) // 2
        game = PebbleGame(g.n, params)
        game.insert_all(g.edges[:half])
        twin = game.copy()
        triplet = twin.copy()
        players = [(game, {}), (twin, {}), (triplet, {})]
        for e in g.edges[half:]:
            for player, circuits in players:
                if not player.try_insert(e):
                    circuits[e] = player.rejection_circuit(e)
        accepted, fresh = run_game(g, params)
        for player, circuits in players:
            assert tuple(player.accepted) == accepted
            assert circuits == {e: c for e, c in fresh.items() if e in g.edges[half:]}


@pytest.mark.parametrize("params", [PLANE, PLANE_LOOSE])
def test_rainbow_pair_copies_play_fresh_games(monkeypatch, params):
    # ``_rainbow_pair_general`` reads the redundant edges of E - e0, for
    # e0 the first redundant class-1 edge, off the searched game and its
    # circuits, in any count matroid, and never replays E - e0.  It copies
    # the game only when two or more circuits hold e0, and the copy's
    # re-inserts must give the pair fresh games on every E - e - f give
    replays, copies = [], []
    insert_all, copy = PebbleGame.insert_all, PebbleGame.copy
    monkeypatch.setattr(PebbleGame, "insert_all",
                        lambda self, edges: replays.append(edges) or insert_all(self, edges))
    monkeypatch.setattr(PebbleGame, "copy", lambda self: copies.append(1) or copy(self))
    cases = {"copy": 0, "no copy": 0, "pair": 0, "none": 0}
    for seed in range(40):
        g = _dense_graph(seed)
        rng = random.Random(seed)
        colours = [1, 2] + [rng.choice((0, 0, 1, 2)) for _ in g.edges[2:]]
        rng.shuffle(colours)
        g = build(g.n, 2, [(u, v, c) for (u, v), c in zip(g.edges, colours)])
        game = PebbleGame(g.n, params)
        circuits = game.insert_all(g.edges)
        redundant = {e for c in circuits.values() for e in c}
        r1, r2 = ([e for e in g.colour_class(c) if e in redundant] for c in (1, 2))
        expected = brute_rainbow_pair(g, params)
        del replays[:], copies[:]
        assert _rainbow_pair_general(game, circuits, r1, r2) == expected
        assert replays == [], seed
        holders = sum(r1[0] in c for c in circuits.values()) if r1 and r2 else 0
        assert len(copies) == (holders > 1), seed
        cases["copy" if copies else "no copy"] += 1
        cases["none" if expected is None else "pair"] += 1
    assert min(cases.values()) >= 5, cases


@pytest.mark.parametrize("params", [PLANE, PLANE_LOOSE])
def test_series_relation_is_an_equivalence(params):
    # for redundant e != f, "f is not redundant in E - e" says e and f are
    # in series, the parallel relation of the dual matroid.  It must be
    # symmetric and transitive: the pair search tests a later class-1 edge
    # with the first candidate alone because of it.  The redundant edges
    # are the brute-force circuits' and every rank is a fresh game
    seen = {"series": 0, "not series": 0, "chains": 0}
    for seed in range(12):
        n = 5 + seed % 2
        m = min(n * (n - 1) // 2, 2 * n - params.ll + 1 + seed % 3)
        g = random_coloured_graph(n, 0, seed=seed, m=m)

        def rank_without(*drop):
            return sparsity_rank(([x for x in g.edges if x not in drop], n), params)[0]

        full = rank_without()
        redundant = sorted({e for c in brute_circuits(g.edges, n, params.kk, params.ll)
                            for e in c})
        assert redundant and redundant == [e for e in g.edges if rank_without(e) == full]
        series = {(e, f): rank_without(e, f) < full for e, f in permutations(redundant, 2)}
        for (e, f), together in series.items():
            assert together == series[f, e], (seed, e, f)
            seen["series" if together else "not series"] += 1
        for e, f, h in permutations(redundant, 3):
            if series[e, f] and series[f, h]:
                assert series[e, h], (seed, e, f, h)
                seen["chains"] += 1
    assert min(seen.values()) >= 200, seen


def _random_play(params, seed):
    """A game after each step of random inserts, deletes and copies on a
    dense graph, with the set of vertices the steps touched."""
    rng = random.Random(seed)
    g = _dense_graph(seed)
    game = PebbleGame(g.n, params)
    touched = set()
    for step in range(60):
        action = rng.random()
        if action < 0.6:
            e = rng.choice(g.edges)
            touched.update(e)
            if e not in game.accepted and not game.try_insert(e):
                game.rejection_circuit(e)
        elif action < 0.9 and game.accepted:
            game.delete_all([rng.choice(game.accepted)])
        else:
            game = game.copy()
        yield game, touched


@pytest.mark.parametrize("params", [PLANE, PLANE_LOOSE])
def test_every_vertex_keeps_kk_pebbles_or_arcs(params):
    # a pebble either lies on its vertex or pays for one arc leaving it;
    # the lists cover every vertex an edge touched, and no other vertex
    # holds an arc
    for seed in range(30):
        for game, touched in _random_play(params, seed):
            assert len(game.pebbles) == len(game.succ) > max(touched, default=-1)
            assert all(game.pebbles[v] + len(game.succ[v]) == params.kk
                       for v in range(len(game.pebbles)))
            assert not any(game.succ[v] for v in range(len(game.succ)) if v not in touched)
            assert min(game.pebbles, default=0) >= 0


@pytest.mark.parametrize("params", [PLANE, PLANE_LOOSE])
def test_degrees_match_the_accepted_edges(params):
    # try_insert raises both endpoints' degrees, delete lowers them and
    # copy copies them, whatever the sequence
    for seed in range(30):
        for game, _ in _random_play(params, seed):
            recount = [0] * len(game.deg)
            for u, v in game.accepted:
                recount[u] += 1
                recount[v] += 1
            assert game.deg == recount


@pytest.mark.parametrize("params,copies", [(PLANE, 1), (PLANE_LOOSE, 2),
                                           (SparsityParams(1, 1), 1)])
def test_parallel_edges_are_searched(params, copies):
    # two endpoints of low degree certify an edge only when no accepted
    # edge joins them: a multigraph keeps at most 2*kk - ll copies of an
    # edge, as the game that searches for every edge finds
    edges = [(0, 1)] * 3 + [(0, 2), (1, 2), (1, 2)]
    game, oracle = PebbleGame(3, params), TwoSidedPebbleGame(3, params)
    assert game.insert_all(edges) == oracle.insert_all(edges)
    assert game.accepted == oracle.accepted
    assert game.accepted.count((0, 1)) == copies


def _degree_play(cls, g, params):
    """Searches per insert of a game of ``cls`` on g, each with the least
    accepted degree of the edge's endpoints before it, and the game's
    accepted edges and circuits."""
    game = cls(g.n, params)
    find = game._find_pebble
    found = []

    def counting_find(u, v):
        found.append(find(u, v))
        return found[-1]

    game._find_pebble = counting_find
    deg = [0] * g.n
    inserts, circuits = [], {}
    for e in g.edges:
        before = len(found)
        if game.try_insert(e):
            deg[e[0]] += 1
            deg[e[1]] += 1
        else:
            circuits[e] = game.rejection_circuit(e)
        inserts.append((min(deg[e[0]], deg[e[1]]), found[before:]))
    return inserts, game.accepted, circuits


@pytest.mark.parametrize("params", [PLANE, PLANE_LOOSE])
def test_degree_certified_inserts_save_searches(params):
    # an endpoint of accepted degree below kk makes its edge independent
    # (a 0-extension) and holds a free pebble to pay with, so such an
    # insert makes no search; every other insert searches as the
    # two-sided game does, and no output depends on which arcs result
    oracle_total = total = certified = rejected = 0
    for seed in range(40):
        g = henneberg_k1_sample(6 + seed % 25, seed=seed)
        rng = random.Random(seed)
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                 if (u, v) not in g.edges]
        extra = [(u, v, 0) for u, v in rng.sample(pairs, 3)]
        g = build(g.n, 1, [(u, v, c) for (u, v), c in zip(g.edges, g.colours)] + extra)
        old, old_accepted, old_circuits = _degree_play(TwoSidedPebbleGame, g, params)
        new, accepted, circuits = _degree_play(PebbleGame, g, params)
        assert accepted == old_accepted
        assert circuits == old_circuits
        searches = [s for _, s in new]
        assert sum(s.count(False) for s in searches) == len(circuits)
        assert all(s.count(False) == 1 for s, e in zip(searches, g.edges) if e in circuits)
        low = [s for d, s in new if d < params.kk]
        assert not any(low)
        oracle_total += sum(len(s) for _, s in old)
        total += sum(len(s) for s in searches)
        certified += len(low)
        rejected += len(circuits)
    assert total < oracle_total
    assert certified >= 500 and rejected >= 100
