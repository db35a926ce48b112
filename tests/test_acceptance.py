"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  The random corpora are seeded and the decisions replayable.
"""

import random
import time

import numpy as np
import pytest

from coordrig import (
    OracleParams,
    build,
    check_equivalent,
    check_k1,
    check_k2,
    check_union,
    coordination_gram,
    decide_generic_coordinated_rigidity,
    generic_rank,
    henneberg_k1_sample,
    infinitesimal_motions,
    is_redundant_set,
    rainbow_stress_certificates,
    sparsity_rank,
    union_rank_d2,
)
from coordrig.corpus import random_coloured_graph, random_corpus
from coordrig.linalg import (
    float_rank,
    modular_matrix,
    modular_rank_rows,
    random_configuration,
    sample_modular_configuration,
)

from conftest import load_fixture
from oracles import brute_union_rank

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
MOVED = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.64767, 0.761921]]


@pytest.fixture(scope="module")
def agreement_corpus():
    """500 random coloured graphs (n <= 8, k <= 3) with all plane verdicts."""
    results = []
    for i, g in enumerate(random_corpus(500, seed=20260808)):
        numeric = decide_generic_coordinated_rigidity(
            g, OracleParams(d=2, trials=1, seed=9000 + i)
        )
        union = check_union(g)
        if g.k == 1:
            special = check_k1(g)
        elif g.k == 2:
            special = check_k2(g)
        else:
            special = None
        results.append((g, numeric, union, special))
    return results


@pytest.fixture(scope="module")
def henneberg_corpus():
    """100 generated one-class graphs with n up to 12, plus their verdicts."""
    out = []
    for i in range(100):
        n = 4 + (i % 9)
        g = henneberg_k1_sample(n, seed=7000 + i)
        combinatorial = check_k1(g)
        numeric = decide_generic_coordinated_rigidity(
            g, OracleParams(d=2, trials=1, seed=8000 + i)
        )
        out.append((g, combinatorial, numeric))
    return out


def test_c01_equivalence_fixture_tolerances_and_speed():
    g = load_fixture("square_k1")
    placement_a = (SQUARE, [0.0])
    placement_b = (MOVED, [0.574773])
    ok, _ = check_equivalent(g, placement_a, placement_b, tol=1e-4)
    assert ok, "equivalent placements must be accepted at 1e-4"
    strict, residuals = check_equivalent(g, placement_a, placement_b, tol=1e-7)
    assert not strict, "the published coordinates are only approximate"
    assert residuals.max() > 1e-7
    best = min(_timed_equivalence(g, placement_a, placement_b) for _ in range(20))
    assert best < 1e-3, f"single equivalence check took {best:.2e} s"


def _timed_equivalence(g, a, b):
    t0 = time.perf_counter()
    check_equivalent(g, a, b, tol=1e-4)
    return time.perf_counter() - t0


def test_c02_flexible_and_rigid_quads_three_methods_agree():
    flex = load_fixture("quad_flex_k1")
    p = random_configuration(flex.n, 2, seed=1234)
    report = infinitesimal_motions(flex, p)
    assert report.nontrivial_dim == 1
    assert not check_k1(flex).rigid

    rigid = load_fixture("quad_rigid_k1")
    combinatorial = check_k1(rigid)
    assert combinatorial.rigid and combinatorial.isostatic
    numeric = decide_generic_coordinated_rigidity(rigid, OracleParams(d=2, seed=77))
    assert numeric.rigid
    q = random_configuration(rigid.n, 2, seed=5678)
    gram = coordination_gram(rigid, q)
    assert gram.shape == (1, 1) and float_rank(gram) == 1
    assert combinatorial.rigid == numeric.rigid == (float_rank(gram) == 1)


def test_c03_two_class_isostatic_fixture_certificates():
    g = load_fixture("seven_rigid_k2")
    verdict = check_k2(g)
    assert verdict.rigid and verdict.isostatic
    pair = [tuple(e) for e in verdict.certificate["rainbow_tuple"]]
    assert [g.colour_of(e) for e in pair] == [1, 2]
    params = OracleParams(d=2, trials=2, seed=404)
    assert is_redundant_set(g, pair, params)
    # a second redundant rainbow pair exists (the canonical-order search
    # legitimately returns a different, equally valid one first)
    assert is_redundant_set(g, [(2, 3), (4, 6)], params)
    # the alternative rainbow pair is not redundant
    assert not is_redundant_set(g, [(1, 4), (5, 6)], params)
    # removing that redundant pair leaves a Laman graph
    remaining = [e for e in g.edges if e not in {(2, 3), (4, 6)}]
    rank, _ = sparsity_rank((tuple(remaining), g.n))
    assert rank == 11 == len(remaining)


def test_c04_flexible_two_class_fixtures_diagnoses():
    blocks = load_fixture("twin_blocks_k2")
    va = check_k2(blocks)
    assert not va.rigid
    assert va.witness == "class-all-bridges:2"
    bridges = {tuple(e) for e in va.certificate["diagnosis"]["class_bridges"]["2"]}
    assert bridges == {(0, 4), (1, 5), (2, 6)}

    nested = load_fixture("nested_circuit_k2")
    vb = check_k2(nested)
    assert not vb.rigid
    assert vb.witness == "G0-not-sparse"
    circuit = {tuple(e) for e in vb.certificate["diagnosis"]["g0_circuit"]}
    uncoloured = {e for e, c in zip(nested.edges, nested.colours) if c == 0}
    assert circuit <= uncoloured and len(circuit) >= 3

    assert union_rank_d2(blocks).deficiency >= 1
    assert union_rank_d2(nested).deficiency >= 1


def test_c05_pebble_rank_matches_modular_rank_500_under_30s():
    t0 = time.monotonic()
    agree = 0
    for i, g in enumerate(random_corpus(500, seed=31337)):
        pebble, _ = sparsity_rank(g)
        modular = generic_rank(g, OracleParams(d=2, trials=2, seed=40_000 + i))
        if pebble == modular:
            agree += 1
    elapsed = time.monotonic() - t0
    assert agree == 500
    assert elapsed < 30.0, f"cross-validation took {elapsed:.1f} s"


def test_c06_three_deciders_agree_on_500_graphs(agreement_corpus):
    for idx, (g, numeric, union, special) in enumerate(agreement_corpus):
        assert union.decision == numeric.decision, f"instance {idx}"
        if special is not None:
            assert special.decision == numeric.decision, f"instance {idx}"


def test_c07_union_rank_matches_exhaustive_formula_200():
    rng = random.Random(616)
    checked = 0
    i = 0
    while checked < 200:
        n = rng.randint(3, 8)
        k = rng.randint(0, min(3, n))
        max_m = n * (n - 1) // 2
        m = rng.randint(max(k, 1), min(12, max_m))
        g = random_coloured_graph(n, k, seed=50_000 + i, m=m)
        i += 1
        assert g.m <= 12
        assert union_rank_d2(g).union_rank == brute_union_rank(g), f"suite item {checked}"
        checked += 1


def test_c08_generated_corpus_isostatic_and_mutation_flips(henneberg_corpus):
    for g, combinatorial, numeric in henneberg_corpus:
        assert combinatorial.rigid and combinatorial.isostatic
        assert numeric.rigid
    flipped = tested = 0
    for g, combinatorial, _ in henneberg_corpus:
        circuit = {tuple(e) for e in combinatorial.certificate["diagnosis"]["circuit"]}
        coloured = set(g.colour_class(1))
        survivors = coloured - circuit
        if not survivors:
            continue  # recolouring would empty the class: not a valid instance
        tested += 1
        mutated = build(
            g.n,
            1,
            [
                (u, v, 0 if ((u, v) in circuit and c == 1) else c)
                for (u, v), c in zip(g.edges, g.colours)
            ],
        )
        verdict = check_k1(mutated)
        assert not verdict.rigid, "no coloured edge in the circuit: must flex"
        assert verdict.witness == "class-all-bridges:1"
        flipped += 1
    assert tested >= 20  # the corpus genuinely exercises the necessity half
    assert flipped == tested


def test_c09_counting_invariants_on_rigid_verdicts(agreement_corpus, henneberg_corpus):
    rigid_seen = isostatic_seen = 0
    for g, numeric, union, special in agreement_corpus:
        if numeric.rigid:
            rigid_seen += 1
            assert numeric.ranks["coordinated_rank"] == 2 * g.n + g.k - 3
            p = sample_modular_configuration(g.n, 2, numeric.seed)
            direct = modular_rank_rows(modular_matrix(g, p, 2, k=g.k))
            assert direct == 2 * g.n + g.k - 3
        for verdict in (numeric, union, special):
            if verdict is not None and verdict.isostatic:
                isostatic_seen += 1
                assert g.m == 2 * g.n - 3 + g.k
    for g, combinatorial, numeric in henneberg_corpus:
        assert numeric.ranks["coordinated_rank"] == 2 * g.n + 1 - 3
        assert combinatorial.isostatic and g.m == 2 * g.n - 3 + 1
    assert rigid_seen >= 30
    assert isostatic_seen >= 10


def test_c10_rainbow_stress_certificates_for_rigid_instances(agreement_corpus):
    checked = 0
    for idx, (g, numeric, _, _) in enumerate(agreement_corpus):
        if not numeric.rigid or g.k == 0:
            continue
        tup = [tuple(e) for e in numeric.certificate["rainbow_tuple"]]
        p = random_configuration(g.n, 2, seed=60_000 + idx)
        stresses = rainbow_stress_certificates(g, p, tup)
        assert stresses is not None, f"instance {idx}"
        for i, omega in enumerate(stresses):
            assert np.isclose(np.linalg.norm(omega), 1.0)
            for j, e in enumerate(tup):
                value = abs(omega[g.edge_index(e)])
                if i == j:
                    assert value > 1e-8, f"instance {idx}: certificate vanishes"
                else:
                    assert value < 1e-8, f"instance {idx}: cross-support"
        checked += 1
    assert checked >= 20
