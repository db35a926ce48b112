import json
import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordrig import (
    GraphError,
    OracleParams,
    build,
    check_k1,
    check_k2,
    check_union,
    decide_generic_coordinated_rigidity,
    decide_plane,
    henneberg_k1_sample,
    rank_summary,
    redundant_edges_d2,
    sparsity_rank,
    subgraph_by_colours,
    transversal_rank,
    union_rank_d2,
)
from coordrig import laman
from coordrig.cgraph import coloops
from coordrig.corpus import random_coloured_graph, random_corpus
from coordrig.generic import _ranks
from coordrig.pebble import PLANE, PLANE_LOOSE, PebbleGame, run_game

from conftest import FIXTURE_NAMES, load_fixture
from oracles import (
    brute_circuits,
    brute_rainbow_pair,
    brute_sparse,
    brute_union_rank,
    listed_henneberg_k1_sample,
    replay_union_rank,
)

K4_ONE_COLOURED = build(
    4, 1, [(0, 1, 1), (0, 2, 0), (0, 3, 0), (1, 2, 0), (1, 3, 0), (2, 3, 0)]
)


def test_transversal_rank_cases(seven_rigid_k2):
    g = seven_rigid_k2
    assert transversal_rank(g, g.colour_class(0)) == 0
    assert transversal_rank(g, [(0, 1), (0, 4)]) == 2  # one of each class
    assert transversal_rank(g, [(0, 1), (1, 4), (4, 6)]) == 2  # 1,1,2


def test_transversal_rank_missing_edge(quad_rigid_k1):
    with pytest.raises(GraphError, match=r"edge \(7, 8\) is not in the graph"):
        transversal_rank(quad_rigid_k1, [(7, 8)])


def test_union_rank_k4_one_class():
    rep = union_rank_d2(K4_ONE_COLOURED)
    assert rep.union_rank == 6 == 2 * 4 - 3 + 1
    assert rep.deficiency == 0


def test_union_rank_fixtures(seven_rigid_k2, twin_blocks_k2, nested_circuit_k2):
    assert union_rank_d2(seven_rigid_k2).union_rank == 13
    rep_a = union_rank_d2(twin_blocks_k2)
    assert (rep_a.union_rank, rep_a.deficiency) == (14, 1)
    rep_b = union_rank_d2(nested_circuit_k2)
    assert (rep_b.union_rank, rep_b.deficiency) == (12, 1)


def test_union_report_invariants(seven_rigid_k2, twin_blocks_k2):
    for g in (seven_rigid_k2, twin_blocks_k2):
        rep = union_rank_d2(g)
        part1, part2 = set(rep.independent_rigidity), set(rep.transversal)
        assert not part1 & part2
        assert len(part1) + len(part2) == rep.union_rank
        game = PebbleGame(g.n, PLANE)
        assert all(game.try_insert(e) for e in sorted(part1))
        colours = [g.colour_of(e) for e in part2]
        assert 0 not in colours
        assert len(set(colours)) == len(colours)


def test_union_rank_matches_brute_force_formula():
    for idx, g in enumerate(random_corpus(40, seed=9009, n_range=(3, 6))):
        if g.m > 10:
            continue
        assert union_rank_d2(g).union_rank == brute_union_rank(g), f"instance {idx}"


def _colours_with_redundant_edges(g):
    """The colours that have an edge on some circuit: T holds no other."""
    return {g.colour_of(e) for e in redundant_edges_d2(g)} - {0}


def _bridge_class_graphs(count, seed):
    """Graphs with k = 3..5 classes and m <= 14 whose class k is made of
    bridges only.  Even instances are dense random graphs with a vertex
    of degree 1 or 2 added, so that their bridges are coloops; odd ones
    join a K4 and a triangle by three bars, so that the bars and the
    triangle are bridges of the core."""
    out = []
    i = seed
    while len(out) < count:
        rng = random.Random(i)
        k = rng.randint(3, 5)
        if i % 2 == 0:
            n = rng.randint(5, 6)
            dense = random_coloured_graph(n, 0, seed=i, m=rng.randint(2 * n - 1, 2 * n))
            edges = list(dense.edges) + [(u, n) for u in rng.sample(range(n), rng.randint(1, 2))]
            n += 1
        else:
            n, label = 7, rng.sample(range(7), 7)
            edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
            edges += [(4, 5), (4, 6), (5, 6)] + [(rng.randrange(4), w) for w in (4, 5, 6)]
            edges = [tuple(sorted((label[u], label[v]))) for u, v in edges]
        i += 1
        redundant = set(redundant_edges_d2((edges, n)))
        bridges = [e for e in edges if e not in redundant]
        others = [e for e in edges if e in redundant]
        if not bridges or len(others) < k - 1:
            continue
        chosen = rng.sample(bridges, rng.randint(1, len(bridges)))
        others += [e for e in bridges if e not in chosen]
        rng.shuffle(others)
        colours = list(range(1, k)) + [rng.choice((0, 0, rng.randint(1, k - 1)))
                                       for _ in others[k - 1:]]
        triples = [(u, v, c) for (u, v), c in zip(others, colours)]
        out.append(build(n, k, triples + [(u, v, k) for u, v in chosen]))
    return out


def _basis_class_graph(g, first=None):
    """g with the edges of classes ``first``..k (k alone by default) moved,
    in order, onto its first edges in canonical order, and the other
    colours kept in order after them.  The first game meets the moved
    edges first, so it rejects few of them, and none at vertices 0 and 1,
    whose edges are (2,3)-sparse.  A path that gives T a class with no
    rejected edge ends at a basis edge and deletes it."""
    moved = range(g.k if first is None else first, g.k + 1)
    colours = [c for c in moved for _ in g.colour_class(c)]
    colours += [c for c in g.colours if c not in moved]
    return build(g.n, g.k, [(u, v, c) for (u, v), c in zip(g.edges, colours)])


def test_union_rank_with_a_class_of_bridges(monkeypatch):
    # a colour with no redundant edge is never held, so the loop stops once
    # T holds every colour that has one, with no exhausting search for the
    # rest; the report is the per-round replay's, with the rank of the
    # min-formula
    augment = laman._augment
    failed = []

    def recording_augment(g, held, *args):
        found = augment(g, held, *args)
        if not found:
            failed.append(set(range(1, g.k + 1)) - set(held))
        return found

    monkeypatch.setattr(laman, "_augment", recording_augment)
    in_core = capped = 0
    for i, g in enumerate(_bridge_class_graphs(60, 4242)):
        del failed[:]
        rep = union_rank_d2(g)
        assert rep == replay_union_rank(g), f"instance {i}"
        assert rep.union_rank == brute_union_rank(g), f"instance {i}"
        colours = _colours_with_redundant_edges(g)
        assert g.k not in colours
        assert all(unheld & colours for unheld in failed), f"instance {i}"
        in_core += any(e not in coloops(g, 2) for e in g.colour_class(g.k))
        capped += len(rep.transversal) == len(colours)
    assert in_core >= 20 and capped >= 10


def test_union_rank_matches_modular_rank_beyond_brute_force():
    # the brute-force oracle stops at m <= 12; the sampled rank of the
    # coordinated matrix [R | I] checks larger graphs, and every rigid
    # certificate must leave a Laman-rank graph once its tuple is removed
    rigid = 0
    for i in range(60):
        g = random_coloured_graph(10 + i % 11, 3 + i % 4, seed=i)
        rep = union_rank_d2(g)
        summary = rank_summary(g, OracleParams(d=2, seed=i))
        assert rep.union_rank == summary["coordinated_rank"], f"instance {i}"
        v = check_union(g)
        if v.rigid:
            rigid += 1
            tup = {tuple(e) for e in v.certificate["rainbow_tuple"]}
            assert sorted(g.colour_of(e) for e in tup) == list(range(1, g.k + 1))
            rest = [e for e in g.edges if e not in tup]
            assert sparsity_rank((rest, g.n))[0] == 2 * g.n - 3, f"instance {i}"
    assert rigid >= 10


def test_union_invariant_check_fires(monkeypatch, twin_blocks_k2):
    # a path that puts a bridge into T breaks the dual independence of T,
    # which the last round's game must catch rather than report a wrong rank
    g = twin_blocks_k2
    bridge = g.colour_class(2)[0]
    assert bridge not in redundant_edges_d2(g)

    def augment_with_bridge(g, held, game, circuits, among):
        if held:
            return False
        held[2] = bridge
        return True

    monkeypatch.setattr(laman, "_augment", augment_with_bridge)
    with pytest.raises(RuntimeError, match="lowers the rank"):
        union_rank_d2(g)


def test_union_last_round_check_fires(monkeypatch):
    # the last round re-inserts only the edges the lemma says go in; a path
    # without the lemma's shortcut-free exchange, here swapping the held
    # class-1 edge for another rejected one, leaves one of them spanned
    g = build(5, 2, [(u, v, {(2, 3): 1, (2, 4): 1, (3, 4): 2}.get((u, v), 0))
                     for u in range(5) for v in range(u + 1, 5)])

    def swapping_augment(g, held, game, circuits, among):
        held.update({1: (2, 3)} if not held else {1: (2, 4), 2: (3, 4)})
        return True

    monkeypatch.setattr(laman, "_augment", swapping_augment)
    with pytest.raises(RuntimeError, match=r"re-insert rejects \(2, 3\)"):
        union_rank_d2(g)


def test_augment_invariant_check_fires():
    # an edge of T that the game on E minus T accepts is a bridge: T is
    # then not independent in M*, and the augmentation must say so
    g = build(5, 1, [(u, v, int((u, v) == (0, 1))) for u in range(4)
                     for v in range(u + 1, 4)] + [(0, 4, 1), (1, 4, 0)])
    game, coloured = PebbleGame(g.n), []
    circuits = laman._insert_coloured(g, game, [e for e in g.edges if e != (0, 4)],
                                      coloured)
    assert coloured == [(0, 1)]
    with pytest.raises(RuntimeError, match="lowers the rank"):
        laman._augment(g, {1: (0, 4)}, game, circuits, coloured)


def test_union_plays_one_game_per_round(pebble_games):
    # one game on E stays live on E minus T through every augmentation and
    # is the witness, whether or not T reaches k colours
    short = 0
    for i in range(120):
        g = random_coloured_graph(8 + i % 20, 3 + i % 4, seed=i)
        pebble_games.clear()
        rep = union_rank_d2(g)
        assert len(pebble_games) == 1, f"instance {i}"
        short += len(rep.transversal) < g.k
    assert short >= 40


def test_live_union_matches_per_round_replay(monkeypatch):
    # the live game moves T along each path by deleting and re-inserting
    # edges; every field must equal a fresh game per round, including
    # paths that swap edges of T out and graphs whose T stays short of k
    swaps = []
    augment = laman._augment

    def counting_augment(g, held, game, circuits, among):
        before = set(held.values())
        found = augment(g, held, game, circuits, among)
        swaps.append(len(before - set(held.values())))
        return found

    monkeypatch.setattr(laman, "_augment", counting_augment)
    graphs = []
    for i in range(300):
        rng = random.Random(i)
        k = rng.randint(3, 6)
        if i % 3 == 0:  # default edge-count window around 2n - 3 + k
            n, m = rng.randint(6, 60), None
        elif i % 3 == 1:  # dense: far more edges than 2n - 3 + k
            n = rng.randint(6, 60)
            m = min(n * (n - 1) // 2, 2 * n - 3 + k + rng.randint(3, 3 * n))
        else:  # small and exactly at the count, where paths swap T most
            n = rng.randint(6, 12)
            m = min(n * (n - 1) // 2, 2 * n - 3 + k)
        graphs.append(random_coloured_graph(n, k, seed=i, m=m))
    graphs.append(random_coloured_graph(320, 6, seed=1))
    short = rigid = 0
    for i, g in enumerate(graphs):
        rep = union_rank_d2(g)
        assert rep == replay_union_rank(g), f"instance {i}"  # all four fields
        short += len(rep.transversal) < g.k
        rigid += rep.deficiency == 0
    assert short >= 25 and rigid >= 100
    assert sum(1 for x in swaps if x) >= 15


def _coloured_entries(g, circuits):
    """Each circuit cut to its rejected edge and its coloured edges, the
    part of it that ``union_rank_d2`` reads."""
    return {e: tuple(x for x in circuit if x == e or g.colour_of(x))
            for e, circuit in circuits.items()}


def _late(circuits):
    """The rejected edges that are not the last edge of their circuit."""
    return {e for e, circuit in circuits.items() if circuit[-1] != e}


def _full_reinsert_union(g):
    """T and the rigidity part of the union loop that re-inserts every
    rejected edge of E minus T after each path, so that every circuit is
    computed afresh, and read in full; the final basis must be greedy."""
    held = {}
    stripped = coloops(g, 2)
    core = [e for e in g.edges if e not in stripped]
    game = PebbleGame(g.n)
    circuits = game.insert_all(core)
    while len(held) < g.k:
        before = set(held.values())
        if not laman._augment(g, held, game, circuits, game.accepted):
            break
        after = set(held.values())
        entering = after - before
        for e in sorted(entering):
            if e not in circuits:
                game.delete_all([e])
        circuits = game.insert_all(sorted(
            [e for e in circuits if e not in entering] + list(before - after)))
    assert not _late(circuits)
    return tuple(sorted(held.values())), tuple(sorted(stripped.union(game.accepted)))


def test_union_rounds_keep_unbroken_circuits(monkeypatch):
    # a circuit that avoids the deleted basis edges still lies in the game's
    # basis, so keeping it gives every augmentation the coloured circuit
    # entries and the basis a full re-insert gives, with fewer edges
    # inserted; the one round the live loop leaves out is the reference's
    # failing last one, made only when no unheld colour has a redundant edge
    rounds = []
    inserted = [0]
    augment, try_insert = laman._augment, PebbleGame.try_insert

    def recording_augment(g, held, game, circuits, among):
        rounds.append((dict(held), _coloured_entries(g, circuits), list(game.accepted)))
        return augment(g, held, game, circuits, among)

    def counting_try_insert(game, edge):
        inserted[0] += 1
        return try_insert(game, edge)

    monkeypatch.setattr(laman, "_augment", recording_augment)
    monkeypatch.setattr(PebbleGame, "try_insert", counting_try_insert)
    graphs = [load_fixture(name) for name in FIXTURE_NAMES]
    graphs += random_corpus(120, 777, n_range=(20, 60), k_range=(3, 6))
    graphs += _bridge_class_graphs(60, 4242)
    live = full = later_rounds = skipped = 0
    for i, g in enumerate(graphs):
        del rounds[:]
        inserted[0] = 0
        transversal, rigidity = _full_reinsert_union(g)
        expected, full_inserts = list(rounds), inserted[0]
        del rounds[:]
        inserted[0] = 0
        rep = union_rank_d2(g)
        assert (rep.transversal, rep.independent_rigidity) == (transversal, rigidity), f"instance {i}"
        if rounds != expected:
            assert rounds == expected[:-1], f"instance {i}"
            unheld = set(range(1, g.k + 1)) - set(expected[-1][0])
            assert unheld.isdisjoint(_colours_with_redundant_edges(g)), f"instance {i}"
            skipped += 1
        live += inserted[0]
        full += full_inserts
        later_rounds += len(rounds) - 1
    assert later_rounds >= 100 and skipped >= 12
    assert live < full


def test_union_inserts_no_edge_of_t_after_the_last_path(monkeypatch):
    # the game on the core minus T holds a basis of it, so T's independence
    # in M* is read from the basis size: no edge of T is inserted into the
    # game once the last augmentation has returned, and every edge that
    # the last path's round re-inserts is accepted
    events = []
    augment, try_insert = laman._augment, PebbleGame.try_insert

    def marking_augment(*args):
        found = augment(*args)
        events.append(None)
        return found

    def recording_try_insert(self, edge):
        accepted = try_insert(self, edge)
        events.append((edge, accepted))
        return accepted

    monkeypatch.setattr(laman, "_augment", marking_augment)
    monkeypatch.setattr(PebbleGame, "try_insert", recording_try_insert)
    graphs = [load_fixture(name) for name in FIXTURE_NAMES]
    graphs += random_corpus(40, 24, n_range=(8, 30), k_range=(3, 6))
    # class k moved onto the first edges mostly has no rejected edge; it is
    # then taken last, by a path that deletes a basis edge, so the last
    # round re-inserts the first broken rejection
    graphs += map(_basis_class_graph, random_corpus(20, 25, n_range=(8, 30), k_range=(3, 6)))
    held = last_rounds = 0
    for i, g in enumerate(graphs):
        del events[:]
        rep = union_rank_d2(g)
        if None not in events:  # no path was searched: T is empty
            assert not rep.transversal, f"instance {i}"
            continue
        tail = events[len(events) - events[::-1].index(None):]
        assert not set(rep.transversal).intersection(e for e, _ in tail), f"instance {i}"
        assert all(accepted for _, accepted in tail), f"instance {i}"
        held += bool(rep.transversal)
        last_rounds += bool(tail)
    assert held >= 40 and last_rounds >= 30, (held, last_rounds)


def test_rejected_edges_of_unheld_colours_take_zero_length_rounds(monkeypatch):
    # a rejected edge of a colour T does not hold is a source and a sink of
    # the exchange graph, and the search pops the rejected edges first, so
    # it is the path: T takes it and the game deletes and re-inserts
    # nothing.  When every colour with a redundant edge has a rejected edge
    # in the first game, every round is such a round, and T is the first
    # rejected edge of each of those colours.  Under the order that lists
    # each class's rejected edges first, that T is also the
    # lexicographically first redundant rainbow tuple, because any set of
    # rejected edges is jointly redundant: removing it leaves the greedy
    # basis.  The other graphs still need a path that changes the game
    events = []
    plane_game = laman._plane_game

    def first_game(*args):  # the events after the first game are kept
        plane = plane_game(*args)
        events.clear()
        return plane

    def recording(name):
        method = getattr(PebbleGame, name)
        return lambda self, edge, *args: events.append((name, edge)) or method(self, edge, *args)

    monkeypatch.setattr(laman, "_plane_game", first_game)
    for name in ("try_insert", "delete_all", "rejection_circuit"):
        monkeypatch.setattr(PebbleGame, name, recording(name))
    zero_length = searched = 0
    for i in range(300):
        rng = random.Random(i)
        n, k = rng.randint(6, 40), rng.randint(3, 6)
        m = min(n * (n - 1) // 2, 2 * n - 3 + k + rng.randint(-2, n if i % 3 else 3 * n))
        g = random_coloured_graph(n, k, seed=i, m=m)
        _, circuits = run_game(g)
        colours = _colours_with_redundant_edges(g)
        first = {}
        for e in circuits:
            first.setdefault(g.colour_of(e), e)
        rep = union_rank_d2(g)
        after = list(events)
        assert rep == replay_union_rank(g), f"instance {i}"
        if colours <= set(first):
            assert rep.transversal == tuple(sorted(first[c] for c in colours)), f"instance {i}"
            assert after == [], f"instance {i}"
            zero_length += bool(colours)
        else:
            assert after, f"instance {i}"
            searched += 1
    assert zero_length >= 30 and searched >= 30, (zero_length, searched)


def test_coloured_augment_matches_full_circuits(monkeypatch):
    # uncoloured edges are loops of the partition matroid and carry no
    # exchange arc, so every round's path, read from the coloured circuit
    # entries, is the path the full circuits give on a copy of the game
    augment = laman._augment
    rounds = []

    def checking_augment(g, held, game, circuits, among):
        assert among == [e for e in game.accepted if g.colour_of(e)]
        twin = game.copy()
        full = {}
        for e in circuits:
            assert not twin.try_insert(e)
            full[e] = twin.rejection_circuit(e)
        assert circuits == _coloured_entries(g, full)
        expected = dict(held)
        found = augment(g, expected, twin, full, twin.accepted)
        result = augment(g, held, game, circuits, among)
        assert (result, held) == (found, expected)
        rounds.append(circuits != full)
        return result

    monkeypatch.setattr(laman, "_augment", checking_augment)
    graphs = [load_fixture(name) for name in FIXTURE_NAMES]
    graphs += random_corpus(120, 777, n_range=(20, 60), k_range=(3, 6))
    for g in graphs:
        union_rank_d2(g)
    assert len(rounds) >= 500 and sum(rounds) >= 450


_insert_coloured = laman._insert_coloured  # unpatched, for the checks below


def _checked_insert_coloured(g, game, edges, coloured, colours=None):
    """``laman._insert_coloured`` checked against a copy of ``game`` that
    inserts the same edges and reads every circuit in full: the entries
    are the coloured part of the full circuits."""
    full = game.copy().insert_all(edges)
    circuits = _insert_coloured(g, game, edges, coloured, colours)
    assert circuits == _coloured_entries(g, full)
    return circuits


def test_shortest_paths_keep_the_basis_greedy(monkeypatch):
    # _augment's lemma: every path edge after the source is a coloop of S,
    # the core minus T.  union_rank_d2's: re-inserting after a path leaves
    # every rejected edge the last of its full circuit, so the live game
    # holds the canonical greedy basis and the witness is a fresh game's
    rounds, after_source, redone = [], [], []
    augment = laman._augment

    def checking_augment(g, held, game, circuits, among):
        before = set(held.values())
        stripped = coloops(g, 2)
        rest = [e for e in g.edges if e not in stripped and e not in before]
        full = game.copy().insert_all(list(circuits))
        assert set(full) == set(rest) - set(game.accepted)
        assert not _late(full)
        found = augment(g, held, game, circuits, among)
        entering = set(held.values()) - before
        coloops_of_s = entering - set(redundant_edges_d2((rest, g.n)))
        assert len(coloops_of_s) == len(entering) - found  # all but the source
        rounds.append(found)
        after_source.append(len(coloops_of_s))
        if found and len(held) == len(_colours_with_redundant_edges(g)):
            # the last round re-inserts only the edges leaving T and the
            # first broken rejection w1; on a copy, a full re-insert
            # accepts exactly those and keeps every rejection late-free
            deleted = {e for e in entering if e not in circuits}
            broken = sorted(e for e, circuit in circuits.items()
                            if e not in entering and not deleted.isdisjoint(circuit))
            twin = game.copy()
            for e in deleted:
                twin.delete_all([e])
            rejected = twin.insert_all(sorted(broken + list(before - set(held.values()))))
            assert set(rejected) == set(broken[1:])
            assert not _late(rejected)
            redone.append(len(rejected))
        return found

    def recording(g, game, edges, coloured, colours=None):
        circuits = _checked_insert_coloured(g, game, edges, coloured, colours)
        redone.append(len(circuits))
        return circuits

    monkeypatch.setattr(laman, "_augment", checking_augment)
    monkeypatch.setattr(laman, "_insert_coloured", recording)
    redone_rounds = redone_rejections = 0
    for i in range(1000):
        seed = i % 300 if i < 600 else i
        rng = random.Random(seed)
        if i < 300 or i >= 700:  # dense: many paths, each re-inserting circuits
            n, k = rng.randint(5, 24), rng.randint(2, 7)
            m = min(n * (n - 1) // 2, 2 * n - 3 + k + rng.randint(0, 3 * n))
        else:  # small and exactly at the count: paths that pass through T
            n, k = rng.randint(6, 12), rng.randint(3, 6)
            m = min(n * (n - 1) // 2, 2 * n - 3 + k)
        g = random_coloured_graph(n, k, seed=seed, m=m)
        if i >= 600:
            # a rejected edge of an unheld colour is a path with no arc that
            # deletes nothing; with every class moved onto the first edges,
            # mostly basis edges, the paths delete basis edges and break
            # circuits again
            g = _basis_class_graph(g, 1)
        del redone[:]
        assert union_rank_d2(g) == replay_union_rank(g), f"instance {i}"
        redone_rounds += len(redone) - 1
        redone_rejections += sum(redone[1:])
    assert sum(rounds) >= 2400 and sum(1 for x in after_source if x) >= 75, (
        sum(rounds), sum(1 for x in after_source if x))
    assert redone_rounds >= 2400 and redone_rejections >= 13000, (redone_rounds, redone_rejections)


@pytest.mark.parametrize(
    "decide,fixture,most",
    [
        # random k = 5 graph whose augmenting paths pass through edges of T
        # and whose T ends with 4 colours: one game on E, moved along each
        # path by deleting and re-inserting edges, is also the witness;
        # edges of T are read by inserting them into the game
        (union_rank_d2, None, 1),
        # one game on the core, read off its final state
        (check_k1, "quad_rigid_k1", 1),
        # that game alone: the (2,2) counts are read off its final state,
        # and the pair read takes at most one copy of it
        (check_k2, "seven_rigid_k2", 2),
        # no pair search: G0 is not Laman-sparse, and its printed circuit
        # comes from a second, fresh game on G0's core
        (check_k2, "nested_circuit_k2", 2),
    ],
)
def test_pebble_games_per_decision(pebble_games, request, decide, fixture, most):
    if fixture is None:
        g = random_coloured_graph(14, 5, seed=2, m=31)
    else:
        g = request.getfixturevalue(fixture)
    decide(g)
    assert len(pebble_games) <= most


def _fresh_22_sparse(g, stripped, *_):
    """Whether G0 plus class i is (2,2)-sparse, for i = 1, 2, from a fresh
    (2,2) game on G0's core, copied for each class."""
    game = PebbleGame(g.n, PLANE_LOOSE)
    g0_sparse = all(game.try_insert(e) for e in g.colour_class(0) if e not in stripped)
    sub_22 = {}
    for i in (1, 2):
        trial = game.copy()
        sub_22[i] = g0_sparse and all(
            trial.try_insert(e) for e in g.colour_class(i) if e not in stripped)
    return sub_22


def _k2_instance(i):
    """A random two-class graph; every third one has a dense G0."""
    n = 5 + i % 12
    dense = n if i % 3 == 0 else 0
    m = min(n * (n - 1) // 2, 2 * n - 4 + i % 9 + dense)
    return random_coloured_graph(n, 2, seed=i, m=m)


def _laman_plus_graph(i):
    """A Laman+1 one-class graph with class 2 one new edge, so Laman+2,
    and 0 to 2 more edges of random colours."""
    rng = random.Random(i)
    base = henneberg_k1_sample(6 + i % 9, seed=i)
    triples = [(u, v, c) for (u, v), c in zip(base.edges, base.colours)]
    missing = [(u, v) for u in range(base.n) for v in range(u + 1, base.n)
               if (u, v) not in set(base.edges)]
    extra = rng.sample(missing, 1 + i % 3)
    triples += [(*extra[0], 2)] + [(*e, rng.choice((0, 1, 2))) for e in extra[1:]]
    return build(base.n, 2, triples)


def _reads_corpus():
    """k = 1, 2 graphs for the final-state reads: random graphs with sparse
    and dense G0, Laman+2 graphs with extra edges, and the fixtures."""
    graphs = [load_fixture(name) for name in FIXTURE_NAMES if load_fixture(name).k in (1, 2)]
    for i in range(500):
        graphs.append(_k2_instance(i))
        n = 4 + i % 12
        dense = n if i % 3 == 0 else 0
        graphs.append(random_coloured_graph(
            n, 1, seed=i, m=min(n * (n - 1) // 2, 2 * n - 4 + i % 6 + dense)))
    graphs += [_laman_plus_graph(i) for i in range(150)]
    return graphs


def test_final_state_reads_match_fresh_games(monkeypatch):
    # G0's sparsity and the (2,2) counts read off the plane game's final
    # state must equal a fresh canonical (2,3) game on G0's core (with its
    # first circuit) and a fresh (2,2) game on the core of G0 plus class i;
    # every branch of the reads must be taken often
    cases = Counter()
    plane_game, g0_read = laman._plane_game, laman._g0_read
    sparse_after, first_circuit = laman._sparse_after, laman._first_circuit
    played = []

    def recording_plane_game(g, stripped, order=None):
        played.append(plane_game(g, stripped, order))
        return played[-1]

    def recording_g0_read(circuits, coloured_rejected):
        sparse, r0 = g0_read(circuits, coloured_rejected)
        if sparse is False:
            cases["entry with no coloured edge"] += 1
        elif sparse:
            cases[f"rho0 = {len(r0)}"] += 1
        return sparse, r0

    def recording_sparse_after(game, deleted, params, edges):
        sparse = sparse_after(game, deleted, params, edges)
        cases[f"{'drop' if params == PLANE else '(2,2)'} test {sparse}"] += 1
        return sparse

    def recording_first_circuit(edges):
        cases["G0 replay"] += 1
        return first_circuit(edges)

    monkeypatch.setattr(laman, "_plane_game", recording_plane_game)
    monkeypatch.setattr(laman, "_g0_read", recording_g0_read)
    monkeypatch.setattr(laman, "_sparse_after", recording_sparse_after)
    monkeypatch.setattr(laman, "_first_circuit", recording_first_circuit)
    for g in _reads_corpus():
        stripped = coloops(g, 2)
        del played[:]
        diagnosis = decide_plane(g).certificate["diagnosis"]
        g0_core = [e for e in g.colour_class(0) if e not in stripped]
        g0_circuits = run_game((g0_core, g.n))[1]
        assert diagnosis["g0_laman_sparse"] == (not g0_circuits), g
        if g.k == 1:
            continue
        if g0_circuits:
            assert diagnosis["g0_circuit"] == [list(e) for e in next(iter(g0_circuits.values()))]
        else:
            assert "g0_circuit" not in diagnosis
        expected = _fresh_22_sparse(g, stripped)
        assert {i: diagnosis[f"g{i}_22_sparse"] for i in (1, 2)} == expected, g
        (plane,) = played
        surplus = len(plane.circuits)
        for j in (1, 2):
            outside = sum(e not in g.colour_class(j) for e in plane.circuits)
            held = any(e in plane.redundant for e in g.colour_class(j))
            if outside <= 1:
                cases["(2,2) bound a"] += 1
            elif surplus - held <= 1:
                cases["(2,2) bound b"] += 1
    branches = ["rho0 = 0", "entry with no coloured edge", "rho0 = 1", "drop test True",
                "drop test False", "G0 replay", "(2,2) bound a", "(2,2) bound b",
                "(2,2) test True", "(2,2) test False"]
    assert min(cases[b] for b in branches) >= 30, cases


def _brute_first_circuit(edges, n):
    """The circuit of the first edge e of ``edges`` whose prefix P is not
    (2,3)-sparse, or None.  P minus e is sparse, so P holds one circuit C,
    and every vertex set that P overfills holds C; V(C) is overfilled,
    so the smallest such set is V(C), and P's edges inside it are C."""
    for i in range(len(edges)):
        prefix = edges[:i + 1]
        if brute_sparse(prefix, n):
            continue
        for r in range(2, n + 1):
            for subset in combinations(range(n), r):
                inside = [(u, v) for u, v in prefix if u in subset and v in subset]
                if len(inside) > 2 * r - 3:
                    return tuple(inside)
    return None


def _small_k12_graphs():
    """Every graph of a seeded generator with k = 1, 2 and n <= 7: random
    graphs; each again with only the first edge of each class coloured,
    so that G0 is dense; and two-class graphs whose class 2 is the two
    edges of a degree-2 vertex, so that it holds no redundant edge."""
    graphs = []
    for i in range(160):
        n = 4 + i % 4
        k = 1 + i // 4 % 2
        m = min(n * (n - 1) // 2, 2 * n - 4 + i // 8 % 6 + (i % 5 == 0) * n)
        g = random_coloured_graph(n, k, seed=i, m=m)
        firsts = {g.colour_class(c)[0] for c in range(1, k + 1)}
        graphs += [g, build(n, k, [(u, v, c if (u, v) in firsts else 0)
                                   for u, v, c in _triples(g)])]
        if k == 2 and n >= 5:
            h = random_coloured_graph(n - 1, 1, seed=i, m=min((n - 1) * (n - 2) // 2, 2 * n + i % 3))
            graphs.append(build(n, 2, _triples(h) + [(0, n - 1, 2), (1, n - 1, 2)]))
    return graphs


def test_small_graph_reads_match_brute_force():
    # the diagnosis keys read off the game's final state, against the
    # definitions alone: brute_sparse for every count, and brute_circuits
    # for G0's first circuit and the one circuit of an isostatic graph
    cases = Counter()
    for g in _small_k12_graphs():
        diagnosis = decide_plane(g).certificate["diagnosis"]
        g0 = list(g.colour_class(0))
        g0_sparse = brute_sparse(g0, g.n)
        assert diagnosis["g0_laman_sparse"] == g0_sparse, g
        if g.k == 1:
            circuit = diagnosis.get("circuit")
            if circuit is not None:
                assert brute_circuits(g.edges, g.n) == [tuple(map(tuple, circuit))]
                cases["circuit"] += 1
            cases[f"k=1 g0 {g0_sparse}"] += 1
            continue
        first = _brute_first_circuit(g0, g.n)
        if first is None:
            assert "g0_circuit" not in diagnosis
        else:
            assert brute_circuits(first, g.n) == [first]
            assert diagnosis["g0_circuit"] == [list(e) for e in first]
        cases[f"k=2 g0 {g0_sparse}"] += 1
        for i in (1, 2):
            sub = sorted(g0 + list(g.colour_class(i)))
            sparse = brute_sparse(sub, g.n, 2, 2)
            assert diagnosis[f"g{i}_22_sparse"] == sparse, (g, i)
            cases[f"(2,2) {sparse}"] += 1
    assert min(cases.values()) >= 10, cases


@pytest.mark.parametrize("fixture", ["seven_rigid_k2", "nested_circuit_k2"])
def test_check_k2_plays_one_game_fewer(pebble_games, monkeypatch, request, fixture):
    # the (2,2) counts used to play fresh (2,2) games on G0 and the classes;
    # they are read off the one (2,3) game's final state, with the same
    # verdict.  nested_circuit_k2's G0 is not Laman-sparse, so its printed
    # circuit comes from a second, fresh game on G0's core
    g = request.getfixturevalue(fixture)
    verdict = check_k2(g)
    replay = fixture == "nested_circuit_k2"
    assert len(pebble_games) == 1 + replay
    diagnosis = verdict.certificate["diagnosis"]
    sub_22 = {i: diagnosis[f"g{i}_22_sparse"] for i in (1, 2)}
    del pebble_games[:]
    assert _fresh_22_sparse(g, coloops(g, 2)) == sub_22
    assert len(pebble_games) == 1


@pytest.mark.parametrize("name", [n for n in FIXTURE_NAMES if load_fixture(n).k in (1, 2)])
def test_k12_fixture_games_and_copies(pebble_games, monkeypatch, name):
    # a k = 1 decision plays one game and takes no copy; a k = 2 decision
    # copies nothing before the pair search, which runs first, and after it
    # only for the pair search and for every count test but the last;
    # nested_circuit_k2 is the only fixture that replays G0 in a second game
    g = load_fixture(name)
    copies, at_pair = [], []
    copy, pair = PebbleGame.copy, laman._rainbow_pair_general
    monkeypatch.setattr(PebbleGame, "copy", lambda self: copies.append(1) or copy(self))
    monkeypatch.setattr(laman, "_rainbow_pair_general",
                        lambda *args: at_pair.append(len(copies)) or pair(*args))
    decide_plane(g)
    assert len(pebble_games) == 1 + (name == "nested_circuit_k2")
    if g.k == 1:
        assert copies == []
    else:
        assert (at_pair[0] if at_pair else len(copies)) == 0


def test_check_k2_copies_the_game_once_per_22_count(monkeypatch):
    # no G0-phase copy: the pair read runs first and copies only for its
    # own re-inserts; after it every test that strips the game (G0's drop
    # test or a (2,2) count) strips a copy, except the last, which strips
    # the game itself
    copies, pair_span, played, stripped_itself = [], [], [], []
    copy, pair = PebbleGame.copy, laman._rainbow_pair_general
    plane_game, sparse_after = laman._plane_game, laman._sparse_after

    def recording_pair(*args):
        pair_span.append(len(copies))
        found = pair(*args)
        pair_span.append(len(copies))
        return found

    monkeypatch.setattr(PebbleGame, "copy", lambda self: copies.append(1) or copy(self))
    monkeypatch.setattr(laman, "_rainbow_pair_general", recording_pair)
    monkeypatch.setattr(laman, "_plane_game",
                        lambda *args: played.append(plane_game(*args)) or played[-1])
    monkeypatch.setattr(
        laman, "_sparse_after",
        lambda game, *args: stripped_itself.append(game is played[-1].game)
        or sparse_after(game, *args))
    cases = Counter()
    for i in range(300):
        g = _k2_instance(i)
        del copies[:], pair_span[:], played[:], stripped_itself[:]
        check_k2(g)
        before, after = pair_span or (0, 0)
        assert before == 0, i
        tests = len(stripped_itself)
        assert len(copies) - after == max(tests - 1, 0), i
        assert stripped_itself == [False] * (tests - 1) + [True] * bool(tests), i
        cases[(tests, bool(pair_span))] += 1
    # (tests, searched): every count of tests, each with and without a
    # pair search before it, except no test after a search, which is rare
    kinds = [(0, False)] + [(t, searched) for t in (1, 2, 3) for searched in (False, True)]
    assert min(cases[t] for t in kinds) >= 5, cases


def test_pair_search_reads_the_first_games_basis(monkeypatch):
    # the pair search is entered with the plane game as the first game
    # left it, in vertex order, before any count test strips it, and leaves
    # its basis as it found it
    entered = []
    pair = laman._rainbow_pair_general

    def recording_pair(game, *args):
        basis = tuple(game.accepted)
        found = pair(game, *args)
        entered.append((basis, tuple(game.accepted)))
        return found

    monkeypatch.setattr(laman, "_rainbow_pair_general", recording_pair)
    searched = 0
    for i in range(300):
        g = _k2_instance(i)
        del entered[:]
        check_k2(g)
        if entered:
            ((basis, left),) = entered
            first = laman._plane_game(g, coloops(g, 2), laman._vertex_order).game
            assert basis == left == tuple(first.accepted), i
            searched += 1
    assert searched >= 100, searched


def test_22_counts_match_fresh_games():
    # the (2,2) verdicts read off the plane game's final state equal a
    # fresh (2,2) game on the whole of G0 plus class i, coloops included
    cases = {True: 0, False: 0}
    for i in range(300):
        g = _k2_instance(i)
        diagnosis = check_k2(g).certificate["diagnosis"]
        for c in (1, 2):
            sub = subgraph_by_colours(g, {0, c})
            sparse = sparsity_rank(sub, PLANE_LOOSE)[0] == sub.m
            assert diagnosis[f"g{c}_22_sparse"] == sparse, (i, c)
            cases[sparse] += 1
    assert min(cases.values()) >= 100, cases


def _full_reads_expected(g):
    """The rejections whose circuit a plane verdict prints: for k = 2, G0's
    first, in canonical order; for k = 1, the one rejection of an
    isostatic graph, in the decider's vertex order.  Read from fresh games
    on the core."""
    stripped = coloops(g, 2)
    core = [e for e in g.edges if e not in stripped]
    if g.k == 2:
        return list(run_game(([e for e in core if g.colour_of(e) == 0], g.n))[1])[:1]
    accepted, circuits = run_game((core[::-1], g.n))
    if len(stripped) + len(accepted) != 2 * g.n - 3 or len(circuits) != 1:
        return []
    ((e, circuit),) = circuits.items()
    return [e] if any(g.colour_of(x) for x in circuit) else []


def test_plane_game_reads_in_full_only_printed_circuits(monkeypatch):
    # the plane game reads every circuit on the accepted coloured edges
    # alone; a decider reads a whole circuit only where it prints one
    full_reads = []
    read = PebbleGame.rejection_circuit

    def recording_read(self, edge, among=None):
        if among is None:
            full_reads.append(edge)
        return read(self, edge, among)

    monkeypatch.setattr(PebbleGame, "rejection_circuit", recording_read)
    cases = {"k=1 read": 0, "k=1 none": 0, "k=2 read": 0, "k=2 none": 0}
    for i in range(400):
        k = 1 + i % 2
        n = 4 + i % 10
        # k = 1 mostly at m = 2n - 2, where the one circuit may be printed,
        # k = 2 from there to Laman+2 and beyond; every seventh graph dense
        m = min(n * (n - 1) // 2, 2 * n - 2 + (i // 2) % 4 * (k - 1) + (i % 7 == 0) * n)
        g = random_coloured_graph(n, k, seed=i, m=m)
        if k == 1 and i % 5 == 0:
            g = henneberg_k1_sample(n, i)
        expected = _full_reads_expected(g)
        del full_reads[:]
        laman._plane_game(g, coloops(g, 2))
        assert full_reads == [], i
        diagnosis = decide_plane(g).certificate["diagnosis"]
        assert full_reads == expected, i
        printed = diagnosis.get("g0_circuit", diagnosis.get("circuit"))
        assert (printed is not None) == bool(expected), i
        cases[f"k={k} {'read' if expected else 'none'}"] += 1
    assert min(cases.values()) >= 20, cases


def _mutants(g, rng):
    """The benchmark's mutants of g: "over", g with two new edges of
    random colours; "del", g less one edge of a class that keeps a member;
    and "recol", g with class k cut to one edge at a vertex of least
    degree and its other edges moved to random lower classes, left out
    when that empties a class."""
    triples = _triples(g)
    present = set(g.edges)
    missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in present]
    over = triples + [(u, v, rng.randint(0, g.k))
                      for u, v in rng.sample(missing, min(2, len(missing)))]
    sizes = Counter(g.colours)
    dropped = rng.choice([t for t in triples if t[2] == 0 or sizes[t[2]] >= 2])
    less = [t for t in triples if t != dropped]
    degree = Counter(x for e in g.edges for x in e)
    w = min(degree, key=degree.__getitem__)
    pick = rng.choice([t for t in triples if w in t[:2]])
    recol = [(u, v, g.k if (u, v, c) == pick else rng.randint(0, g.k - 1) if c == g.k else c)
             for u, v, c in triples]
    mutants = [over, less]
    if len({c for *_, c in recol} - {0}) == g.k:
        mutants.append(recol)
    return [build(g.n, g.k, t) for t in mutants]


def _order_corpus():
    """k = 1, 2 graphs: Henneberg graphs (Laman+1, and Laman+2 with up to
    two more edges) with their mutants, random graphs with sparse and
    dense G0, and the fixtures."""
    graphs = [load_fixture(name) for name in FIXTURE_NAMES if load_fixture(name).k in (1, 2)]
    for i in range(80):
        base = henneberg_k1_sample(6 + i % 12, seed=i) if i % 2 else _laman_plus_graph(i)
        graphs += [base] + _mutants(base, random.Random(i))
    for i in range(150):
        graphs.append(_k2_instance(i))
        n = 4 + i % 12
        dense = n if i % 3 == 0 else 0
        graphs.append(random_coloured_graph(
            n, 1, seed=i, m=min(n * (n - 1) // 2, 2 * n - 4 + i % 6 + dense)))
    return graphs


def test_k12_verdicts_do_not_depend_on_the_game_order(monkeypatch):
    # every k <= 2 read is a matroid property or holds for any basis, so
    # the verdict bytes and the exit decision are the same whether the
    # first game plays the core in vertex order, in canonical order or in
    # a seeded random order
    rng = random.Random(33)

    def shuffled(edges, colours):
        order = rng.sample(range(len(edges)), len(edges))
        return [edges[i] for i in order], [colours[i] for i in order]

    orders = {"vertex": laman._vertex_order, "canonical": lambda edges, colours: (edges, colours),
              "random": shuffled}
    cases = Counter()
    for i, g in enumerate(_order_corpus()):
        outputs = set()
        for order in orders.values():
            monkeypatch.setattr(laman, "_vertex_order", order)
            verdict = decide_plane(g)
            outputs.add((verdict.rigid, json.dumps(verdict.to_json())))
        assert len(outputs) == 1, i
        cases[verdict.decision] += 1
        if g.k == 2:
            cases.update(verdict.certificate["diagnosis"]["failing"])
    failing = ["not-laman-plus-2", "class-all-bridges:1", "class-all-bridges:2",
               "G0-not-sparse", "G1-not-22-sparse", "G2-not-22-sparse"]
    assert cases["rigid"] >= 200 and cases["flexible"] >= 100, cases
    assert min(cases[f] for f in failing) >= 25, cases


@pytest.mark.parametrize("name", [n for n in FIXTURE_NAMES if load_fixture(n).k in (1, 2)])
def test_plane_verdicts_build_no_position_map(name):
    # no k = 1, 2 decider looks an edge up by position; the map is built on
    # first use and then agrees with a scan of the edges
    g = load_fixture(name)
    decide_plane(g)
    assert "_position" not in g.__dict__
    assert g.colour_of(g.edges[-1]) == g.colours[-1]
    assert g._position == {e: i for i, e in enumerate(g.edges)}


def _pair_from(r1, r2, redundant):
    """The pair the series-class lemma reads off ``redundant``, the
    redundant edges of E - e0 for e0 = r1[0]: e0 with its first partner
    in r2, else the first later edge of r1 in it with r2[0], else None."""
    f = next((f for f in r2 if f in redundant), None)
    if f is not None:
        return (r1[0], f)
    e = next((e for e in r1[1:] if e in redundant), None)
    return None if e is None else (e, r2[0])


def _pair_read_branch(plane, e0):
    """The branch the pair read of ``plane`` takes for the first redundant
    class-1 edge e0: "rejected", "one" when e0 is in the basis and one
    circuit holds it, and "copy" when two or more do."""
    if e0 in plane.circuits:
        return "rejected"
    holders = sum(e0 in circuit for circuit in plane.circuits.values())
    return "one" if holders == 1 else "copy"


def _rainbow_pair_graphs():
    """Two-class graphs around the count, some with the coloured edges
    moved onto the last edges in canonical order, and graphs of surplus
    1 to 4 on up to 30 vertices."""
    for i in range(600):
        n = 5 + i % 9
        m = min(n * (n - 1) // 2, 2 * n - 4 + i % 7)
        g = random_coloured_graph(n, 2, seed=i, m=m)
        if i >= 500:
            # denser, and the coloured edges moved onto the last edges in
            # canonical order, which the game meets last, so they are
            # often rejected
            g = random_coloured_graph(n, 2, seed=i, m=min(n * (n - 1) // 2, m + 4))
            colours = [c for c in g.colours if not c]
            colours += [c for c in g.colours if c]
            g = build(g.n, 2, [(u, v, c) for (u, v), c in zip(g.edges, colours)])
        yield g
    for i in range(300):
        rng = random.Random(i)
        n = rng.randint(6, 30)
        m = min(n * (n - 1) // 2, 2 * n - 3 + rng.randint(1, 4))
        yield random_coloured_graph(n, 2, seed=i, m=m)


def test_rainbow_pair_matches_fresh_games(monkeypatch, seven_rigid_k2, twin_blocks_k2):
    # the pair read takes R', the redundant edges of E - e0, from the
    # decider's game and its circuits, copying the game only when two or
    # more circuits hold e0.  A fresh (2,3) game on every E - e - f must
    # find the same pair, and so must the series-class lemma applied to a
    # fresh game's redundant edges of E - e0.  Both play orders, every
    # branch of the read and every kind of pair must occur often
    cases = Counter()
    copies, replays = [], []
    copy, insert_all = PebbleGame.copy, PebbleGame.insert_all
    monkeypatch.setattr(PebbleGame, "copy", lambda self: copies.append(1) or copy(self))
    monkeypatch.setattr(PebbleGame, "insert_all",
                        lambda self, edges: replays.append(edges) or insert_all(self, edges))
    graphs = [seven_rigid_k2, twin_blocks_k2, *_rainbow_pair_graphs()]
    for i, g in enumerate(graphs):
        expected = brute_rainbow_pair(g)
        for order in (None, laman._vertex_order):
            plane = laman._plane_game(g, coloops(g, 2), order)
            if order is None:
                # the game on the whole of E has the same rank and circuits
                whole = laman._plane_game(g, frozenset())
                assert (whole.rank, whole.circuits) == (plane.rank, plane.circuits)
            del copies[:], replays[:]
            basis = tuple(plane.game.accepted)
            found = _pair_search(g, plane.game, plane.circuits, plane.redundant)
            assert found == expected, i
            assert tuple(plane.game.accepted) == basis and replays == [], i
            r1, r2 = ([e for e in g.colour_class(c) if e in plane.redundant] for c in (1, 2))
            if not (r1 and r2):
                assert found is None and copies == [], i
                cases["no candidates"] += 1
                continue
            branch = _pair_read_branch(plane, r1[0])
            assert len(copies) == (branch == "copy"), i
            rest = [x for x in g.edges if x != r1[0]]
            assert _pair_from(r1, r2, set(redundant_edges_d2((rest, g.n)))) == found, i
            cases[branch] += 1
            cases["none" if found is None else "e0" if found[0] == r1[0] else "later"] += 1
        kind = laman.laman_kind(g.n, g.m, plane.rank)
        got = check_k2(g).certificate.get("rainbow_tuple")
        assert got == ([list(e) for e in expected] if kind != "deficit" and expected else None)
        cases[kind] += 1
    assert min(cases[c] for c in ("rejected", "one", "copy", "e0", "none",
                                  "no candidates", "laman+2", "other", "deficit")) >= 40, cases
    assert cases["later"] >= 15, cases


def _rejecting_graphs(g0_rejections, coloured_rejections, count):
    """Rank-full two-class graphs on six vertices whose plane game rejects
    at least the given numbers of uncoloured and coloured edges."""
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    rng = random.Random(11)
    out = []
    while len(out) < count:
        colours = [1, 2] + [rng.choice((0, 0, 0, 0, 1, 2)) for _ in range(10)]
        rng.shuffle(colours)
        g = build(6, 2, [(u, v, c) for (u, v), c in zip(rng.sample(pairs, 12), colours)])
        plane = laman._plane_game(g, coloops(g, 2))
        in_g0 = sum(g.colour_of(e) == 0 for e in plane.circuits)
        if (plane.rank == 9 and in_g0 >= g0_rejections
                and len(plane.circuits) - in_g0 >= coloured_rejections):
            out.append(g)
    return out


def test_check_k2_redundant_classes_match_brute_circuits():
    # the decider reads every rejection's circuit only for its coloured
    # edges; the redundant coloured edges must still be those on some
    # circuit
    for g in _rejecting_graphs(2, 1, 2) + _rejecting_graphs(1, 2, 1):
        on_circuit = {e for c in brute_circuits(g.edges, g.n) for e in c}
        diagnosis = check_k2(g).certificate["diagnosis"]
        for i in (1, 2):
            red = [e for e in g.colour_class(i) if e in on_circuit]
            bridges = [e for e in g.colour_class(i) if e not in on_circuit]
            assert diagnosis["class_redundant"][str(i)] == [list(e) for e in red]
            assert diagnosis["class_bridges"][str(i)] == [list(e) for e in bridges]


def test_k1_circuit_read_in_full_when_only_a_coloured_edge_is_rejected():
    # with G0 Laman-sparse the one circuit holds a coloured edge, so the
    # graph is isostatic and its circuit, read in full off the final game,
    # is printed
    graphs = [K4_ONE_COLOURED]
    for seed in range(40):
        g = henneberg_k1_sample(6 + seed % 10, seed=seed)
        if run_game((g.colour_class(0), g.n))[1] == {}:
            graphs.append(g)
    assert len(graphs) >= 10
    for g in graphs:
        verdict = check_k1(g)
        assert verdict.rigid and verdict.isostatic
        (circuit,) = run_game(g)[1].values()
        assert verdict.certificate["diagnosis"]["circuit"] == [list(e) for e in circuit]
        assert any(g.colour_of(e) == 0 for e in circuit)


# an uncoloured K4 on 4, 5, 7, 8, whose rejected edge (7, 8) comes first
# in the game's order and has a circuit avoiding e0 = (0, 1)
BRACED_BLOCK = [(4, 7, 0), (4, 8, 0), (5, 7, 0), (5, 8, 0), (7, 8, 0)]


@pytest.mark.parametrize("extra", [[], BRACED_BLOCK], ids=["laman+2", "braced block"])
def test_pair_search_makes_no_failed_search(seven_rigid_k2, monkeypatch, extra):
    # e0 = (0, 1) is a basis edge and only the circuit of (2, 3) holds it,
    # so B - e0 + (2, 3) is a basis of E - e0 that keeps every other
    # circuit: R' is their union, read with no copy and no search.  The
    # braced block's (7, 8) keeps its circuit, which avoids e0
    g = seven_rigid_k2
    g = build(g.n + 2 * bool(extra), 2,
              [(u, v, c) for (u, v), c in zip(g.edges, g.colours)] + extra)
    plane = laman._plane_game(g, coloops(g, 2))
    assert laman.laman_kind(g.n, g.m, plane.rank) == ("other" if extra else "laman+2")
    assert _pair_read_branch(plane, (0, 1)) == "one"
    found = []
    find = PebbleGame._find_pebble

    def counting_find(self, u, v):
        found.append(find(self, u, v))
        return found[-1]

    monkeypatch.setattr(PebbleGame, "_find_pebble", counting_find)
    copy = PebbleGame.copy
    monkeypatch.setattr(PebbleGame, "copy", lambda self: found.append("copy") or copy(self))
    pair = _pair_search(g, plane.game, plane.circuits, plane.redundant)
    assert pair == ((0, 1), (4, 6))
    assert found == []


def _wheel_on_k5(rim):
    """A wheel with hub 0 and rim 1..rim whose edges alternate classes 1
    and 2, except the spoke (0, 1), glued at 0 and 1 to an uncoloured K5
    on 0, 1 and three new vertices, which holds the spoke."""
    wheel = [(0, v) for v in range(2, rim + 1)] + [(v, v + 1) for v in range(1, rim)]
    block = [0, 1, rim + 1, rim + 2, rim + 3]
    edges = [(u, v, 1 + i % 2) for i, (u, v) in enumerate(wheel + [(1, rim)])]
    edges += [(u, v, 0) for i, u in enumerate(block) for v in block[i + 1:]]
    return build(rim + 4, 2, edges)


@pytest.mark.parametrize("rim", [5, 12, 60])
def test_one_series_class_takes_one_test_per_redundant_edge(monkeypatch, rim):
    # the K5 holds 0 and 1 rigid, so the coloured wheel edges carry one edge
    # more than their rank: each is redundant, any two of them are in
    # series, and there is no pair.  R' holds no edge of R1 or R2, so
    # the read tests each edge once against it, |R1| + |R2| - 1 tests,
    # and no E - e is replayed
    g = _wheel_on_k5(rim)
    replays, insert_all = [], PebbleGame.insert_all
    monkeypatch.setattr(PebbleGame, "insert_all",
                        lambda self, edges: replays.append(edges) or insert_all(self, edges))
    verdict = check_k2(g)
    assert verdict.witness == "no-rainbow-redundant-pair"
    r1, r2 = g.colour_class(1), g.colour_class(2)
    assert verdict.certificate["diagnosis"]["class_redundant"] == {
        "1": [list(e) for e in r1], "2": [list(e) for e in r2]}
    assert replays == []
    if rim <= 5:
        assert brute_rainbow_pair(g) is None


@pytest.mark.parametrize("make,branch", [
    # rank tests of pairs of basis edges copied these games twice each
    (lambda: random_coloured_graph(7, 2, seed=2198, m=13), "copy"),
    (lambda: random_coloured_graph(16, 2, seed=2027, m=35), "copy"),
    (lambda: random_coloured_graph(20, 2, seed=3507, m=39), "copy"),
    # the vertex-order game rejects the wheel's e0 = (0, 2)
    (lambda: _wheel_on_k5(5), "rejected"),
    (lambda: _wheel_on_k5(12), "rejected"),
    (lambda: _wheel_on_k5(60), "rejected"),
], ids=["n7", "n16", "n20", "wheel5", "wheel12", "wheel60"])
def test_pair_read_copies_the_game_at_most_once(monkeypatch, make, branch):
    # a k = 2 verdict's pair read copies the decider's game once when two
    # or more circuits hold e0, and not at all when e0 is rejected or one
    # circuit holds it
    g = make()
    plane = laman._plane_game(g, coloops(g, 2), laman._vertex_order)
    e0 = next(e for e in g.colour_class(1) if e in plane.redundant)
    assert _pair_read_branch(plane, e0) == branch
    copies, reading = [], [False]
    copy, pair = PebbleGame.copy, laman._rainbow_pair_general

    def recording_pair(*args):
        reading[0] = True
        found = pair(*args)
        reading[0] = False
        return found

    monkeypatch.setattr(laman, "_rainbow_pair_general", recording_pair)
    monkeypatch.setattr(PebbleGame, "copy",
                        lambda self: copies.append(reading[0]) or copy(self))
    verdict = check_k2(g)
    assert copies.count(True) == (branch == "copy")
    # brute force only up to n = 20; the rim-60 wheel has no pair, as
    # test_one_series_class_takes_one_test_per_redundant_edge shows
    expected = brute_rainbow_pair(g) if g.n <= 20 else None
    assert verdict.certificate.get("rainbow_tuple") == (
        [list(e) for e in expected] if expected else None)


def test_g0_read_from_the_game_on_e():
    # the deciders read G0's sparsity off the final state of their game on
    # the core; a standalone game on the uncoloured edges must agree
    corpus = [henneberg_k1_sample(6 + i % 8, seed=i) for i in range(20)]
    for i in range(80):
        n = 5 + i % 10
        k = 1 + i % 2
        m = min(n * (n - 1) // 2, 2 * n - 3 + k + i % 8)
        corpus.append(random_coloured_graph(n, k, seed=i, m=m))
    sparse = 0
    for g in corpus:
        _, g0_circuits = run_game((g.colour_class(0), g.n))
        diag = (check_k1 if g.k == 1 else check_k2)(g).certificate["diagnosis"]
        assert diag["g0_laman_sparse"] == (not g0_circuits)
        sparse += not g0_circuits
        if g.k == 1:
            surplus = g.m - sparsity_rank(g)[0]
            assert diag["independent"] == (not g0_circuits and surplus <= 1)
        elif g0_circuits:
            first = [list(e) for e in next(iter(g0_circuits.values()))]
            assert diag["g0_circuit"] == first
        else:
            assert "g0_circuit" not in diag
    assert 15 <= sparse <= len(corpus) - 15


# metamorphic properties of the plane verdict; k runs over 1, 2 and 3 so
# that each of the three deciders is exercised

def _plane_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 10)
    k = rng.randint(1, 3)
    return rng, random_coloured_graph(n, k, seed=seed)


def _triples(g):
    return [(u, v, c) for (u, v), c in zip(g.edges, g.colours)]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_plane_verdict_invariant_under_relabelling(seed):
    rng, g = _plane_instance(seed)
    vertex = list(range(g.n))
    rng.shuffle(vertex)
    colour = [0] + rng.sample(range(1, g.k + 1), g.k)
    twin = build(g.n, g.k, [
        (*sorted((vertex[u], vertex[v])), colour[c]) for u, v, c in _triples(g)
    ])
    v, w = decide_plane(g), decide_plane(twin)
    assert (v.decision, v.isostatic) == (w.decision, w.isostatic)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_plane_rigid_survives_an_uncoloured_edge(seed):
    rng, g = _plane_instance(seed)
    present = set(g.edges)
    missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
               if (u, v) not in present]
    if not missing or not decide_plane(g).rigid:
        return
    bigger = build(g.n, g.k, _triples(g) + [(*rng.choice(missing), 0)])
    assert decide_plane(bigger).rigid


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_plane_rigid_survives_merging_two_classes(seed):
    # the rainbow tuple minus the merged class's second edge still works
    # (the converse fails: a merge can make a flexible graph rigid)
    rng, g = _plane_instance(seed)
    if g.k < 2 or not decide_plane(g).rigid:
        return
    keep, gone = sorted(rng.sample(range(1, g.k + 1), 2))
    relabel = [c - (c > gone) if c != gone else keep for c in range(g.k + 1)]
    merged = build(g.n, g.k - 1, [(u, v, relabel[c]) for u, v, c in _triples(g)])
    assert decide_plane(merged).rigid


def test_union_rank_monotone_under_edge_addition():
    rng = random.Random(777)
    for g in random_corpus(30, seed=5500, n_range=(4, 7)):
        pairs = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if (u, v) not in set(g.edges)
        ]
        if not pairs:
            continue
        extra = rng.choice(pairs)
        bigger = build(
            g.n,
            g.k,
            [(u, v, c) for (u, v), c in zip(g.edges, g.colours)] + [(*extra, 0)],
        )
        assert union_rank_d2(bigger).union_rank >= union_rank_d2(g).union_rank


def test_check_k1_quad_rigid(quad_rigid_k1):
    v = check_k1(quad_rigid_k1)
    assert v.rigid and v.isostatic
    assert v.method == "k1-laman"
    assert v.certificate["rainbow_tuple"] == [[0, 1]]
    circuit = {tuple(e) for e in v.certificate["diagnosis"]["circuit"]}
    assert circuit == {(u, v) for u in range(4) for v in range(u + 1, 4)}


def test_check_k1_quad_flex(quad_flex_k1):
    v = check_k1(quad_flex_k1)
    assert not v.rigid
    assert v.witness == "not-laman-plus-1"


def test_check_k1_uncoloured_circuit_rejected():
    # K4 block with a pendant vertex: the unique circuit is uncoloured and
    # the one coloured edge is a bridge, so the framework is flexible
    g = build(
        5,
        1,
        [(0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 2, 0), (1, 3, 0), (2, 3, 0),
         (0, 4, 1), (1, 4, 0)],
    )
    v = check_k1(g)
    assert not v.rigid
    assert v.witness == "class-all-bridges:1"
    numeric = decide_generic_coordinated_rigidity(g, OracleParams(seed=3))
    assert numeric.decision == "flexible"


def test_check_k1_independence_report(quad_rigid_k1, quad_flex_k1):
    assert check_k1(quad_rigid_k1).certificate["diagnosis"]["independent"]
    assert check_k1(quad_flex_k1).certificate["diagnosis"]["independent"]
    # overbraced: K4 plus coloured edge on a 5th vertex pair, one circuit + G0 fine
    g = build(
        5, 1,
        [(0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 2, 0), (1, 3, 0), (2, 3, 1),
         (0, 4, 0), (1, 4, 1)],
    )
    rep = check_k1(g).certificate["diagnosis"]
    assert rep["independent"]  # one circuit, G0 sparse


def test_check_k1_wrong_k(seven_rigid_k2):
    with pytest.raises(ValueError):
        check_k1(seven_rigid_k2)


def test_check_k2_seven_fixture(seven_rigid_k2):
    v = check_k2(seven_rigid_k2)
    assert v.rigid and v.isostatic
    assert v.certificate["rainbow_tuple"] == [[0, 1], [4, 6]]
    diag = v.certificate["diagnosis"]
    assert diag["laman_plus_2"]
    assert diag["g0_laman_sparse"] and diag["g1_22_sparse"] and diag["g2_22_sparse"]
    assert diag["failing"] == []


def test_check_k2_twin_blocks(twin_blocks_k2):
    v = check_k2(twin_blocks_k2)
    assert not v.rigid
    assert v.witness == "class-all-bridges:2"
    diag = v.certificate["diagnosis"]
    assert diag["class_redundant"]["2"] == []
    assert set(map(tuple, (tuple(e) for e in diag["class_bridges"]["2"]))) == {
        (0, 4), (1, 5), (2, 6),
    }


def test_check_k2_nested_circuit(nested_circuit_k2):
    v = check_k2(nested_circuit_k2)
    assert not v.rigid
    assert v.witness == "G0-not-sparse"
    diag = v.certificate["diagnosis"]
    circuit = {tuple(e) for e in diag["g0_circuit"]}
    g0 = subgraph_by_colours(nested_circuit_k2, {0})
    assert circuit == set(g0.edges)  # the block's unique circuit
    assert all(v <= 5 for e in circuit for v in e)


def test_check_k2_wrong_k(quad_rigid_k1):
    with pytest.raises(ValueError):
        check_k2(quad_rigid_k1)


def test_check_k2_verdict_invariants():
    # 1500 graphs with m from 2n - 3 to 2n + 1, around Laman+2 (2n - 1)
    branches = {"isostatic": 0, "rigid surplus>2": 0, "deficiency": 0,
                "failing[0]": 0, "class-all-bridges surplus>2": 0}
    for i in range(1500):
        n = 5 + i % 10
        m = min(n * (n - 1) // 2, 2 * n - 3 + i % 5)
        g = random_coloured_graph(n, 2, seed=i, m=m)
        verdict = check_k2(g)
        ranks, diagnosis = verdict.ranks, verdict.certificate["diagnosis"]
        failing, target = diagnosis["failing"], ranks["target_rank"]
        assert diagnosis["laman_plus_2"] == (ranks["classification"] == "laman+2")
        if verdict.rigid:
            assert verdict.witness is None
            assert verdict.isostatic == (not failing)
            branches["isostatic" if verdict.isostatic else "rigid surplus>2"] += 1
            continue
        assert failing and verdict.isostatic is False
        bridges = [f for f in failing if f.startswith("class-all-bridges:")]
        if verdict.witness.startswith("deficiency:"):
            assert verdict.witness == f"deficiency:{target - ranks['rank23']}"
            branches["deficiency"] += 1
        elif verdict.witness == "no-rainbow-redundant-pair":
            assert g.m > target + 2 and not bridges
        else:
            assert verdict.witness in failing
            if g.m > target + 2:
                assert verdict.witness == bridges[0]
                branches["class-all-bridges surplus>2"] += 1
            else:
                assert verdict.witness == failing[0]
                branches["failing[0]"] += 1
    assert min(branches.values()) >= 5, branches


def _pair_search(g, game, circuits, redundant):
    """The pair search on ``game``, given each class's edges in
    ``redundant``."""
    r1, r2 = ([e for e in g.colour_class(c) if e in redundant] for c in (1, 2))
    return laman._rainbow_pair_general(game, circuits, r1, r2)


def _rainbow_pair(g):
    """The pair search on the plane game of g's core."""
    plane = laman._plane_game(g, coloops(g, 2))
    return _pair_search(g, plane.game, plane.circuits, plane.redundant)


def test_rainbow_pair_seven_fixture(seven_rigid_k2):
    assert _rainbow_pair(seven_rigid_k2) == ((0, 1), (4, 6))
    assert check_k2(seven_rigid_k2).certificate["rainbow_tuple"] == [[0, 1], [4, 6]]


def test_rainbow_pair_none_fixtures(twin_blocks_k2, nested_circuit_k2):
    assert _rainbow_pair(twin_blocks_k2) is None
    assert _rainbow_pair(nested_circuit_k2) is None


@pytest.mark.parametrize("fixture,pair", [
    ("nested_circuit_k2", ((2, 6), (0, 6))),  # only G0-not-sparse fails
    ("seven_rigid_k2", None),  # no condition fails
], ids=["pair-despite-failing", "no-pair-though-all-hold"])
def test_laman_plus_2_counts_checked_against_the_pair_both_ways(
        monkeypatch, request, fixture, pair):
    # the pair decides every k = 2 verdict; on a Laman+2 graph a pair must
    # exist iff the coloured sparsity conditions hold, in either direction
    g = request.getfixturevalue(fixture)
    assert check_k2(g).ranks["classification"] == "laman+2"
    monkeypatch.setattr(laman, "_rainbow_pair_general", lambda *args: pair)
    with pytest.raises(RuntimeError, match="internal inconsistency"):
        check_k2(g)


def shared_edge_monochromatic_graph():
    # two K4 blocks glued along an edge (so their circuits share it), one
    # coloured-1 edge inside each block, and a pendant vertex carrying the
    # only class-2 edge
    return build(
        7,
        2,
        [(0, 1, 1), (0, 2, 0), (0, 3, 0), (1, 2, 0), (1, 3, 0), (2, 3, 0),
         (2, 4, 0), (2, 5, 0), (3, 4, 0), (3, 5, 0), (4, 5, 1),
         (0, 6, 2), (1, 6, 0)],
    )


def test_shared_monochromatic_circuits_rejected():
    g = shared_edge_monochromatic_graph()
    assert _rainbow_pair(g) is None
    v = check_k2(g)
    assert not v.rigid
    diag = v.certificate["diagnosis"]
    assert not diag["g1_22_sparse"]
    assert "G1-not-22-sparse" in diag["failing"]
    numeric = decide_generic_coordinated_rigidity(g, OracleParams(seed=6))
    assert numeric.decision == "flexible"


def monochromatic_circuits(g, colour):
    gi = subgraph_by_colours(g, {0, colour})
    coloured = set(g.colour_class(colour))
    out = []
    for c in brute_circuits(gi.edges, g.n):
        if set(c) & coloured:
            out.append(set(c))
    return out


def test_monochromatic_circuits_edge_disjoint_on_accepted(seven_rigid_k2):
    # every instance the two-class decider accepts as isostatic (the coloured
    # sparsity conditions) keeps same-colour monochromatic circuits pairwise
    # edge-disjoint; rigid-but-overbraced instances are exempt
    accepted = [seven_rigid_k2]
    for g in random_corpus(150, seed=2710, n_range=(4, 7), k_range=(2, 2)):
        if g.k == 2 and check_k2(g).isostatic:
            accepted.append(g)
    assert len(accepted) >= 2
    for g in accepted:
        for colour in (1, 2):
            circuits = monochromatic_circuits(g, colour)
            for i in range(len(circuits)):
                for j in range(i + 1, len(circuits)):
                    assert not circuits[i] & circuits[j]
    # and the glued-blocks counterexample does violate it
    bad = shared_edge_monochromatic_graph()
    circuits = monochromatic_circuits(bad, 1)
    assert any(
        circuits[i] & circuits[j]
        for i in range(len(circuits))
        for j in range(i + 1, len(circuits))
    )


def test_check_union_matches_specialized(quad_rigid_k1, seven_rigid_k2):
    for g in (quad_rigid_k1, seven_rigid_k2):
        assert check_union(g).decision == decide_plane(g).decision


def test_union_certificate_is_rainbow(seven_rigid_k2):
    v = check_union(seven_rigid_k2)
    tup = [tuple(e) for e in v.certificate["rainbow_tuple"]]
    assert [seven_rigid_k2.colour_of(e) for e in tup] == [1, 2]


def test_henneberg_base_case():
    g = henneberg_k1_sample(4, seed=0)
    assert g.n == 4 and g.m == 6
    assert check_k1(g).isostatic


def test_henneberg_one_step():
    g = henneberg_k1_sample(5, seed=1)
    assert g.n == 5 and g.m == 8 == 2 * 5 - 2
    assert check_k1(g).isostatic


def test_henneberg_rejects_tiny():
    with pytest.raises(ValueError):
        henneberg_k1_sample(3, seed=0)


def test_henneberg_draws_match_the_listed_pick():
    # the edge split's third vertex is drawn by index past the split edge's
    # ends, the same draw as rng.choice from the list of the other vertices
    splits = 0
    for n in (5, 6, 9, 17, 40, 100):
        for seed in range(40):
            g = henneberg_k1_sample(n, seed)
            ref = listed_henneberg_k1_sample(n, seed)
            assert (g.edges, g.colours) == (ref.edges, ref.colours), (n, seed)
            # a vertex with three edges to earlier ones came by a split
            earlier = Counter(v for _, v in g.edges)
            splits += sum(earlier[v] == 3 for v in range(4, n))
    assert splits >= 1000


def test_henneberg_smoke_corpus():
    for i in range(12):
        n = 4 + (i % 6)
        g = henneberg_k1_sample(n, seed=100 + i)
        assert g.m == 2 * g.n - 2
        v = check_k1(g)
        assert v.rigid and v.isostatic
        numeric = decide_generic_coordinated_rigidity(
            g, OracleParams(d=2, trials=1, seed=500 + i)
        )
        assert numeric.rigid


def test_union_single_vertex_is_rigid():
    g = build(1, 0, [])
    v = check_union(g)
    assert v.rigid
    # the plane target of a single vertex is 0, not 2n - 3 = -1
    assert v.ranks["target_rank"] == v.ranks["union_target"] == 0
    assert v.ranks["deficiency"] == union_rank_d2(g).deficiency == 0
    numeric = decide_generic_coordinated_rigidity(g, OracleParams(d=2))
    assert numeric.ranks["target_rank"] == 0
    assert v.isostatic == numeric.isostatic


def test_decider_agreement_small_corpus():
    for idx, g in enumerate(random_corpus(60, seed=31415)):
        plane = decide_plane(g)
        numeric = decide_generic_coordinated_rigidity(
            g, OracleParams(d=2, trials=1, seed=idx)
        )
        union = check_union(g)
        assert plane.decision == numeric.decision == union.decision, f"instance {idx}"
        if plane.rigid:
            assert union.ranks["union_rank"] == 2 * g.n - 3 + g.k
        if plane.isostatic:
            assert g.m == 2 * g.n - 3 + g.k


def test_plane_and_numeric_rainbow_tuples_agree_for_one_and_two_classes():
    # for k = 1, 2 both backends print the lexicographically first
    # redundant rainbow tuple: the first class-1 edge that extends to one,
    # then the first class-2 edge given it
    params = OracleParams(d=2, trials=3, seed=0)
    rigid = Counter()
    for i in range(240):
        rng = random.Random(i)
        n, k = rng.randint(5, 30), 1 + i % 2
        m = min(n * (n - 1) // 2, 2 * n - 3 + k + rng.randint(0, n))
        g = random_coloured_graph(n, k, seed=i, m=m)
        plane = decide_plane(g)
        numeric = decide_generic_coordinated_rigidity(g, params)
        assert plane.decision == numeric.decision, f"instance {i}"
        if plane.rigid:
            rigid[g.k] += 1
            assert plane.certificate["rainbow_tuple"] == numeric.certificate["rainbow_tuple"], f"instance {i}"
    assert rigid[1] >= 50 and rigid[2] >= 50


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("check,k", [(check_k1, 1), (check_k2, 2), (check_union, 4)])
def test_deciders_size_their_games_by_the_core(monkeypatch, check, k):
    # a K4 core, its edges coloured 0..k in turn, and a coloop to the last
    # of 100 000 vertices: the coloop is stripped before any game is made,
    # so every game covers the core's four vertices, and each decider
    # needs under 1 MB beyond the peel and the verdict's isolated
    # vertices; a game on n, or on the adjacency's span, holds about 10 MB
    n = 100_000
    core = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    g = build(n, k, [(u, v, i % (k + 1)) for i, (u, v) in enumerate(core)] + [(0, n - 1, 0)])
    floor = max(_traced_peak(lambda: coloops(g, 2)), _traced_peak(lambda: _ranks(g)))
    sizes = []
    init = PebbleGame.__init__
    monkeypatch.setattr(PebbleGame, "__init__",
                        lambda self, n, *args: sizes.append(n) or init(self, n, *args))
    assert _traced_peak(lambda: check(g)) < floor + 1_000_000
    assert sizes and set(sizes) == {4}
