import math
import random

import numpy as np
import pytest

from coordrig import generic, linalg
from coordrig import (
    GraphError,
    OracleParams,
    build,
    decide_generic_coordinated_rigidity,
    find_rainbow_redundant_tuple,
    generic_rank,
    is_redundant_set,
    rainbow_stress_certificates,
    rank_summary,
    sparsity_rank,
)
from coordrig.corpus import random_coloured_graph, random_corpus
from coordrig.laman import decide_plane, union_rank_d2
from coordrig.linalg import MODULUS, random_configuration
from conftest import load_fixture
from oracles import (
    brute_rainbow_tuple,
    core_stress_bases,
    full_stress_rainbow_tuple,
    reduced_echelon,
    reduced_echelon_nullspace,
)

K4 = build(4, 0, [(u, v, 0) for u in range(4) for v in range(u + 1, 4)])
TRIANGLE = build(3, 0, [(0, 1, 0), (0, 2, 0), (1, 2, 0)])


def params(d=2, trials=2, seed=17):
    return OracleParams(d=d, trials=trials, seed=seed)


def test_params_validation():
    with pytest.raises(ValueError):
        OracleParams(d=0)
    with pytest.raises(ValueError):
        OracleParams(trials=0)
    assert OracleParams(trials=generic.MAX_TRIALS).trials == generic.MAX_TRIALS
    with pytest.raises(ValueError, match=f"at most {generic.MAX_TRIALS} trials"):
        OracleParams(trials=generic.MAX_TRIALS + 1)


@pytest.mark.parametrize(
    "field, value",
    [("d", 2.5), ("d", 2.0), ("d", True), ("d", "2"), ("trials", 2.0),
     ("trials", True), ("trials", None), ("seed", 1.5), ("seed", False),
     ("seed", "0"), ("seed", np.int64(0))],
)
def test_params_reject_fields_that_are_not_ints(field, value):
    # a float, bool, string or numpy scalar would fail deep inside the
    # oracle, or be echoed in the verdict as it is
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        OracleParams(**{field: value})


def test_generic_rank_k4_plane_and_space():
    assert generic_rank(K4, params(d=2)) == 5
    assert generic_rank(K4, params(d=3)) == 6  # independent in 3-space


def test_generic_rank_seven_fixture(seven_rigid_k2):
    assert generic_rank(seven_rigid_k2, params()) == 11


def test_redundant_single_edges():
    assert is_redundant_set(K4, [(0, 1)], params())
    assert not is_redundant_set(TRIANGLE, [(0, 1)], params())


def test_redundant_pairs_fixture(seven_rigid_k2):
    g = seven_rigid_k2
    # a second valid redundant pair besides the canonical-first one
    assert is_redundant_set(g, [(2, 3), (4, 6)], params())
    # a rainbow pair whose removal splits a block: not redundant
    assert not is_redundant_set(g, [(1, 4), (5, 6)], params())


def test_rainbow_tuple_quad(quad_rigid_k1):
    assert find_rainbow_redundant_tuple(quad_rigid_k1, params()) == ((0, 1),)


def test_rainbow_tuple_requires_classes():
    with pytest.raises(ValueError):
        find_rainbow_redundant_tuple(K4, params())


def test_rainbow_tuple_none_when_class_is_bridges(twin_blocks_k2):
    assert find_rainbow_redundant_tuple(twin_blocks_k2, params()) is None


def test_rainbow_tuple_seven_fixture(seven_rigid_k2):
    # the first edge of class 1, (0,1), already pairs with (4,6), the
    # lexicographically first redundant tuple of the class product
    assert find_rainbow_redundant_tuple(seven_rigid_k2, params()) == ((0, 1), (4, 6))


@pytest.mark.parametrize("d", [2, 3])
def test_rainbow_tuple_matches_product_search(d):
    # the seeded corpus is mostly flexible; the dense graphs sit near
    # d*n - C(d+1, 2) + k edges, where redundant tuples are common
    rng = random.Random(4200 + d)
    dense = []
    for i in range(30):
        n, k = rng.randint(d + 2, 8), rng.randint(1, 3)
        m = d * n - math.comb(d + 1, 2) + k + rng.randint(-1, 2)
        m = min(m, n * (n - 1) // 2)
        dense.append(random_coloured_graph(n, k, seed=4300 + 100 * d + i, m=m))
    p = params(d=d, seed=29)
    found = 0
    for g in random_corpus(40, seed=4100 + d, k_range=(1, 3)) + dense:
        tup = find_rainbow_redundant_tuple(g, p)
        assert tup == brute_rainbow_tuple(g, p)
        found += tup is not None
    assert found >= 10


def _wheel_plus(n, extra, k):
    """Wheel on hub 0 and rim 1..n-1 plus chords, coloured round-robin."""
    rim = list(range(1, n))
    pairs = [(0, v) for v in rim] + [(1, n - 1)]
    pairs += [(u, u + 1) for u in rim[:-1]] + list(extra)
    return build(n, k, [(u, v, 1 + i % k) for i, (u, v) in enumerate(sorted(pairs))])


def test_decide_cost_is_polynomial_in_classes(monkeypatch):
    # 26 edges in six classes of 4-5 edges, stress dimension 26 - 21 = 5 < 6:
    # rigid underneath, but no rainbow tuple is redundant.  A product search
    # would need trials * 5 * 5 * 4**4 eliminations.
    g = _wheel_plus(12, [(1, 3), (4, 6), (7, 9), (2, 8)], k=6)
    p = params(trials=3)
    sizes = [len(g.colour_class(i)) for i in range(1, g.k + 1)]
    assert min(sizes) >= 4
    budget = p.trials * (5 + sum(sizes))
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            if len(calls) > budget:
                pytest.fail(f"more than {budget} eliminations")
            return fn(*args, **kwargs)

        return wrapper

    for name in ("modular_rank_rows", "modular_projection"):
        monkeypatch.setattr(linalg, name, counted(getattr(linalg, name)))
    v = decide_generic_coordinated_rigidity(g, p)
    assert v.witness == "no-rainbow-redundant-tuple"
    assert v.ranks["generic_rank"] == v.ranks["target_rank"]
    assert len(calls) <= budget


def test_rigid_tuple_is_checked_by_one_elimination(monkeypatch, seven_rigid_k2):
    # a sampled rank is a lower bound, so the first trial that keeps the
    # rank without the tuple's rows settles it; the other trials are skipped
    removed = []
    rank_rows = linalg.modular_rank_rows

    def counted(rows, *, row_subset=None):
        if row_subset is not None:
            removed.append(len(rows) - len(row_subset))
        return rank_rows(rows, row_subset=row_subset)

    monkeypatch.setattr(linalg, "modular_rank_rows", counted)
    v = decide_generic_coordinated_rigidity(seven_rigid_k2, params(trials=3))
    assert v.rigid
    assert removed == [seven_rigid_k2.k]


@pytest.fixture
def projections(monkeypatch):
    """A list that gets one entry per ``modular_projection`` call, one per
    trial eliminated."""
    calls = []
    projection = linalg.modular_projection

    def counted(rows, start):
        calls.append(start)
        return projection(rows, start)

    monkeypatch.setattr(linalg, "modular_projection", counted)
    return calls


# K4 with a pendant edge of class 1: the edge is a coloop, so the core K4
# caps the rank at 1 + 5 = 6, no class has a core edge, and the first
# trial reaches both caps
K4_PENDANT = build(5, 1, [(u, v, 0) for u, v in K4.edges] + [(3, 4, 1)])
# two K4s sharing vertex 3, one edge of class 1: one core component caps
# the rank at 2·7 - 3 = 11, but it is 10, so every trial stays short
TWIN_K4 = build(
    7, 1, [(u, v, int((u, v) == (0, 1))) for u, v in K4.edges]
    + [(u + 3, v + 3, 0) for u, v in K4.edges]
)
# two K4s joined through the degree-2 vertex 8, class 1 the edge (0, 1):
# rank 2 + 5 + 5 = 12 against the core-wide cap 2 + min(12, 2·8 - 3) = 14
# and the target 15, so the count proves it flexible but every trial runs
TWO_BLOCKS = build(
    9, 1, [(u, v, int((u, v) == (0, 1))) for u, v in K4.edges]
    + [(u + 4, v + 4, 0) for u, v in K4.edges] + [(0, 8, 0), (4, 8, 0)]
)
# K4 uncoloured, and class 1 is the two edges of a degree-2 vertex
CLASS_OF_COLOOPS = build(5, 1, [(u, v, 0) for u, v in K4.edges] + [(0, 4, 1), (1, 4, 1)])
# a path: independent, so its first trial reaches both caps, m and m
PATH = build(4, 1, [(0, 1, 1), (1, 2, 0), (2, 3, 0)])


def test_rigid_verdict_eliminates_one_trial(projections, seven_rigid_k2):
    v = decide_generic_coordinated_rigidity(seven_rigid_k2, params(trials=3))
    assert v.rigid and v.ranks["trials"] == 3
    assert len(projections) == 1


@pytest.mark.parametrize(
    "g, witness, eliminations",
    [
        (K4_PENDANT, "underlying-flexible", 1),
        (load_fixture("twin_blocks_k2"), "no-rainbow-redundant-tuple", 3),
        (PATH, "underlying-flexible", 1),
        (TWIN_K4, "underlying-flexible", 3),
        (TWO_BLOCKS, "underlying-flexible", 3),
    ],
    ids=["underlying-flexible", "no-rainbow-tuple", "independent", "below-the-cap",
         "two-core-components"],
)
def test_flexible_verdict_eliminates_until_the_caps(
    projections, g, witness, eliminations
):
    v = decide_generic_coordinated_rigidity(g, params(trials=3))
    assert v.witness == witness
    assert len(projections) == eliminations


def test_caps_bound_the_exact_plane_ranks():
    # at d = 2 the (2,3) game and the union rank are exact: no sample
    # exceeds them, and no cap is below them, so a cap below its target
    # proves the graph flexible; TWO_BLOCKS's core in two components is
    # still proved by the one core-wide cap
    graphs = random_corpus(200, seed=6100, n_range=(4, 16), k_range=(0, 4))
    proved = []
    for s, g in enumerate(graphs + [TWO_BLOCKS]):
        oracle = generic._RankOracle(g, params(trials=3, seed=s))
        exact = sparsity_rank(g)[0]
        union = union_rank_d2(g).union_rank
        assert oracle.rank_full <= exact <= oracle.rank_cap
        assert oracle.coordinated_rank <= union <= oracle.coordinated_cap
        if (oracle.rank_cap < oracle.target
                or oracle.coordinated_cap < oracle.coordinated_target):
            proved.append(g)
            assert not decide_plane(g).rigid
    assert len(proved) >= 50 and proved[-1] is TWO_BLOCKS


@pytest.mark.parametrize("d", [1, 2, 3])
def test_projected_stresses_span_the_full_projection(d):
    # ker N is the full stress space cut to the coloured core edges, so
    # rank[N; Iᵀ] - rank N is rank(S·I) for a full stress basis S, and the
    # tuple read through N is the one read from S
    graphs = random_corpus(100, seed=7300 + d, n_range=(4, 14), k_range=(0, 4))
    rng = random.Random(d)  # denser graphs, whose cores at d = 3 are not empty
    for s in range(30):
        n = rng.randint(7, 14)
        graphs.append(random_coloured_graph(n, rng.randint(1, 4), seed=s, m=3 * n))
    graphs += [K4_PENDANT, CLASS_OF_COLOOPS, TWIN_K4, TWO_BLOCKS]
    seen = {"no coloured core edge": 0, "class of coloops": 0, "tuple": 0}
    for s, g in enumerate(graphs):
        p = params(d=d, trials=3, seed=s)
        oracle = generic._RankOracle(g, p)
        core, bases = core_stress_bases(g, p, len(oracle.trials))
        coloured = [j for j, i in enumerate(core) if g.colours[i]]
        assert oracle.coloured == [core[j] for j in coloured]
        for (rank, coordinated, projected), basis in zip(oracle.trials, bases):
            assert rank == len(oracle.stripped) + len(core) - len(basis)
            cut = [[w[j] for j in coloured] for w in basis]
            kernel = reduced_echelon_nullspace(projected, len(coloured))
            assert reduced_echelon(kernel) == reduced_echelon(cut)
            columns = [[sum(w[j] for j in idx) % MODULUS for w in cut]
                       for idx in oracle.classes]
            assert coordinated == rank + len(reduced_echelon(columns)[0])
        if g.k:
            tup = find_rainbow_redundant_tuple(g, p, _oracle=oracle)
            assert tup == full_stress_rainbow_tuple(g, p, len(oracle.trials))
            seen["tuple"] += tup is not None
        seen["no coloured core edge"] += g.k > 0 and not coloured
        seen["class of coloops"] += not all(oracle.classes)
    assert all(seen.values()), seen


def test_keeps_rank_tries_every_trial(monkeypatch, seven_rigid_k2):
    # two edges of the degree-3 vertex 3 are not redundant; the one
    # eliminated trial does not settle that, so the rows of the two
    # skipped trials are built and eliminated as well
    oracle = generic._RankOracle(seven_rigid_k2, params(trials=3))
    assert len(oracle.trials) == 1
    built = []
    matrix = linalg.modular_matrix

    def counted(*args, **kwargs):
        built.append(kwargs["positions"])
        return matrix(*args, **kwargs)

    monkeypatch.setattr(linalg, "modular_matrix", counted)
    assert not oracle.keeps_rank([(0, 3), (1, 3)])
    assert built == [oracle.core] * 2
    assert oracle.keeps_rank([(0, 1), (4, 6)])
    assert len(built) == 2  # each trial's rows are built once


@pytest.mark.parametrize("d", [2, 3])
def test_rank_summary_is_the_max_over_single_trials(d):
    # a sampled rank is a lower bound, so stopping at the caps loses nothing
    for s, g in enumerate(random_corpus(40, seed=5200 + d, k_range=(0, 3))):
        got = rank_summary(g, OracleParams(d=d, trials=3, seed=s))
        single = [
            rank_summary(g, OracleParams(d=d, trials=1, seed=s + t)) for t in range(3)
        ]
        assert got == {key: max(r[key] for r in single) for key in got}


def test_decide_fixtures(quad_rigid_k1, twin_blocks_k2, nested_circuit_k2):
    v = decide_generic_coordinated_rigidity(quad_rigid_k1, params())
    assert v.rigid
    assert v.certificate["rainbow_tuple"] == [[0, 1]]
    assert v.isostatic
    w = decide_generic_coordinated_rigidity(twin_blocks_k2, params())
    assert not w.rigid
    assert w.witness == "no-rainbow-redundant-tuple"
    assert w.certificate["flex_from"] == "svd"  # every vertex has degree >= 2
    x = decide_generic_coordinated_rigidity(nested_circuit_k2, params())
    assert not x.rigid


def test_decide_underlying_flexible():
    g = build(4, 1, [(0, 1, 1), (0, 2, 0), (1, 2, 0), (2, 3, 0)])
    v = decide_generic_coordinated_rigidity(g, params())
    assert v.decision == "flexible"
    assert v.witness == "underlying-flexible"
    assert v.ranks["generic_rank"] < v.ranks["target_rank"]


def _flex_corpus():
    """Seeded graphs with flexible numeric verdicts at d = 1, 2, 3: random
    graphs from n = 2 up, so n <= d occurs, plus graphs with an isolated
    vertex inside and past the last endpoint, and wheels, whose vertices
    all have degree >= 3."""
    wheels = [_wheel_plus(n, [], k) for n, k in ((5, 1), (6, 2), (7, 3))]
    extra = [
        build(5, 1, [(0, 1, 1), (0, 2, 0), (1, 2, 0)]),
        build(5, 1, [(0, 1, 1), (0, 4, 0), (1, 4, 0), (3, 4, 0)]),
        build(3, 0, [(0, 1, 0), (1, 2, 0)]),
        PATH, K4_PENDANT, TWIN_K4,
    ] + wheels
    for d in (1, 2, 3):
        for s, g in enumerate(random_corpus(60, seed=7100 + d, n_range=(2, 9))):
            yield d, s, g
        for s, g in enumerate(extra):
            yield d, s, g


def test_flex_is_a_unit_nontrivial_motion():
    routes = set()
    for d, seed, g in _flex_corpus():
        v = decide_generic_coordinated_rigidity(g, params(d=d, seed=seed))
        if v.rigid:
            continue
        flex = np.array(v.certificate["flex"])
        p = random_configuration(g.n, d, seed)
        assert np.linalg.norm(linalg.coordinated_matrix(g, p) @ flex) <= 1e-8
        assert abs(np.linalg.norm(flex) - 1) <= 1e-9
        trivial = linalg.trivial_motion_generators(p, g.k)
        assert np.abs(trivial @ flex).max() <= 1e-8
        degree = [0] * g.n
        for e in g.edges:
            for u in e:
                degree[u] += 1
        low = [u for u in range(g.n) if degree[u] < d]
        route = f"vertex:{low[0]}" if g.n >= d + 1 and low else "svd"
        assert v.certificate["flex_from"] == route, (d, seed, g)
        routes.add((d, route.partition(":")[0], g.n <= d))
    for d in (1, 2, 3):
        assert {(d, "vertex", False), (d, "svd", False)} <= routes
    assert {(2, "svd", True), (3, "svd", True)} <= routes  # n = 1 is rigid


def test_vertex_flex_takes_no_svd(monkeypatch):
    # the wheel needs the SVD at d = 3; a pendant vertex does not
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    v = decide_generic_coordinated_rigidity(K4_PENDANT, params(d=3))
    assert v.certificate["flex_from"] == "vertex:4" and not calls
    w = decide_generic_coordinated_rigidity(_wheel_plus(6, [], 2), params(d=3))
    assert w.certificate["flex_from"] == "svd" and calls


def test_decide_k0_plain_graph():
    v = decide_generic_coordinated_rigidity(K4, params())
    assert v.rigid
    assert v.certificate == {"rainbow_tuple": []}
    w = decide_generic_coordinated_rigidity(TRIANGLE, params())
    assert w.rigid  # a triangle is generically rigid (isostatic) in the plane
    assert w.isostatic


def test_decide_reports_isolated_vertices():
    g = build(5, 0, [(u, v, 0) for u in range(4) for v in range(u + 1, 4)])
    v = decide_generic_coordinated_rigidity(g, params())
    assert not v.rigid
    assert v.ranks["isolated_vertices"] == [4]


def test_verdict_json_schema(quad_rigid_k1):
    v = decide_generic_coordinated_rigidity(quad_rigid_k1, params())
    doc = v.to_json()
    for key in ("decision", "certificate", "method", "d", "k", "seed", "ranks"):
        assert key in doc
    assert doc["method"] == "numeric"
    assert doc["decision"] == "rigid"


def test_rigid_verdict_tuple_is_rainbow_and_redundant(seven_rigid_k2):
    p = params()
    v = decide_generic_coordinated_rigidity(seven_rigid_k2, p)
    tup = [tuple(e) for e in v.certificate["rainbow_tuple"]]
    colours = sorted(seven_rigid_k2.colour_of(e) for e in tup)
    assert colours == [1, 2]
    assert is_redundant_set(seven_rigid_k2, tup, p)


def test_one_sided_error_monotone_in_trials():
    for g in random_corpus(25, seed=3300):
        r1 = generic_rank(g, OracleParams(d=2, trials=1, seed=7))
        r3 = generic_rank(g, OracleParams(d=2, trials=3, seed=7))
        pebble, _ = sparsity_rank(g)
        assert r1 <= r3 <= pebble


def test_stress_certificates_quad(quad_rigid_k1):
    g = quad_rigid_k1
    p = random_configuration(g.n, 2, seed=51)
    tup = [(0, 1)]
    out = rainbow_stress_certificates(g, p, tup)
    assert out is not None
    (omega,) = out
    assert abs(omega[g.edge_index((0, 1))]) > 1e-8


def test_stress_certificates_seven(seven_rigid_k2):
    g = seven_rigid_k2
    p = random_configuration(g.n, 2, seed=52)
    tup = [(0, 1), (4, 6)]
    out = rainbow_stress_certificates(g, p, tup)
    assert out is not None
    for i, omega in enumerate(out):
        assert np.isclose(np.linalg.norm(omega), 1.0)
        for j, e in enumerate(tup):
            value = abs(omega[g.edge_index(e)])
            if i == j:
                assert value > 1e-8
            else:
                assert value < 1e-8


def test_redundant_set_missing_edge(quad_rigid_k1):
    with pytest.raises(GraphError, match=r"edge \(2, 7\) is not in the graph"):
        is_redundant_set(quad_rigid_k1, [(2, 7)], params())


def test_stress_certificates_missing_edge(quad_rigid_k1):
    g = quad_rigid_k1
    p = random_configuration(g.n, 2, seed=51)
    with pytest.raises(GraphError, match=r"edge \(5, 6\) is not in the graph"):
        rainbow_stress_certificates(g, p, [(5, 6)])


def test_rank_summary(seven_rigid_k2):
    from coordrig import rank_summary

    summary = rank_summary(seven_rigid_k2, params())
    assert summary == {
        "generic_rank": 11,
        "target_rank": 11,
        "coordinated_rank": 13,
        "coordinated_target": 13,
        "trivial_dim": 3,
    }


def test_seed_reproducibility(seven_rigid_k2):
    a = decide_generic_coordinated_rigidity(seven_rigid_k2, params(seed=123))
    b = decide_generic_coordinated_rigidity(seven_rigid_k2, params(seed=123))
    assert a == b


def test_decide_single_vertex_rigid():
    g = build(1, 0, [])
    v = decide_generic_coordinated_rigidity(g, params())
    assert v.rigid
    assert v.ranks["trivial_dim"] == 2  # only translations act on one point


def test_decide_two_points_in_3d():
    # n < d: the trivial space is 5-dimensional, as one rotation fixes the
    # segment; the closed form subtracts C(d + 1 - n, 2) = 1 from C(4, 2)
    g = build(2, 0, [(0, 1, 0)])
    v = decide_generic_coordinated_rigidity(g, params(d=3))
    assert v.rigid
    assert v.ranks["trivial_dim"] == 5
    assert v.ranks["target_rank"] == 1


def test_trivial_dim_closed_form_matches_float_rank():
    # the closed form is the trivial dimension at generic points, also for
    # n <= d, where rotations fixing the points' affine span drop out
    for d in range(1, 6):
        for n in range(1, 9):
            for s in range(3):
                p = random_configuration(n, d, s)
                gens = linalg.trivial_motion_generators(p)
                assert generic._trivial_dim(n, d) == linalg.float_rank(gens), (n, d, s)


def test_decide_edgeless_graph_flexible():
    g = build(3, 0, [])
    v = decide_generic_coordinated_rigidity(g, params())
    assert not v.rigid
    assert v.ranks["generic_rank"] == 0


def test_decide_k5_coordinated_in_3_space():
    # K5 overcounts the 3-space target by one, so every edge is redundant
    # and a single coloured edge suffices for coordination
    g = build(5, 1, [(0, 1, 1)] + [
        (u, v, 0) for u in range(5) for v in range(u + 1, 5) if (u, v) != (0, 1)
    ])
    v = decide_generic_coordinated_rigidity(g, params(d=3))
    assert v.rigid
    assert v.certificate["rainbow_tuple"] == [[0, 1]]
    assert v.ranks["generic_rank"] == 9 == v.ranks["target_rank"]
    # but K4 with one coloured edge is flexible there: no redundancy exists
    k4 = build(4, 1, [(0, 1, 1), (0, 2, 0), (0, 3, 0), (1, 2, 0), (1, 3, 0), (2, 3, 0)])
    assert not decide_generic_coordinated_rigidity(k4, params(d=3)).rigid


def test_decide_cycle_on_the_line():
    # on the line the rigidity matroid is graphic: a 4-cycle is a circuit,
    # so one coloured edge makes it coordinated-rigid in d = 1
    cyc = build(4, 1, [(0, 1, 1), (0, 3, 0), (1, 2, 0), (2, 3, 0)])
    v = decide_generic_coordinated_rigidity(cyc, params(d=1))
    assert v.rigid
    assert v.ranks["trivial_dim"] == 1
    # a tree is rigid on the line but has no redundant edge at all
    path = build(4, 1, [(0, 1, 1), (1, 2, 0), (2, 3, 0)])
    w = decide_generic_coordinated_rigidity(path, params(d=1))
    assert not w.rigid
    assert w.witness == "no-rainbow-redundant-tuple"
