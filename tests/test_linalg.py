import math
import random

import numpy as np
import pytest

from coordrig import (
    GraphError,
    build,
    check_equivalent,
    colour_class_load,
    coordinated_matrix,
    coordination_gram,
    edge_load,
    equilibrium_stresses,
    infinitesimal_motions,
    resolve_load,
    rigidity_matrix,
)
from coordrig.corpus import random_coloured_graph, random_corpus
from coordrig.linalg import (
    MODULUS,
    _row_reduce,
    float_rank,
    indicator_matrix,
    is_equilibrium_load,
    modular_matrix,
    modular_projection,
    modular_rank_rows,
    random_configuration,
    sample_modular_configuration,
    trivial_motion_generators,
    vertex_motion,
)

from conftest import FIXTURE_NAMES, load_fixture
from oracles import (
    first_nonzero_echelon,
    loop_colour_class_load,
    loop_edge_load,
    loop_is_equilibrium_load,
    loop_rigidity_matrix,
    loop_trivial_motion_generators,
    nested_random_configuration,
    randrange_modular_configuration,
    reduced_echelon,
    reduced_echelon_nullspace,
)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
K4 = build(4, 0, [(u, v, 0) for u in range(4) for v in range(u + 1, 4)])
TRIANGLE = build(3, 0, [(0, 1, 0), (0, 2, 0), (1, 2, 0)])


def test_single_edge_row():
    g = build(2, 0, [(0, 1, 0)])
    M = rigidity_matrix(g, [[0.0, 0.0], [1.0, 0.0]])
    assert M.tolist() == [[-1.0, 0.0, 1.0, 0.0]]
    assert float_rank(M) == 1


def test_triangle_is_isostatic():
    p = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    M = rigidity_matrix(TRIANGLE, p)
    assert float_rank(M) == 3
    assert M.shape == (3, 6)
    report = infinitesimal_motions(TRIANGLE, p)
    assert report.nullity == 3
    assert report.trivial_dim == 3
    assert report.nontrivial_dim == 0


def test_k4_modular_rank_three_configurations():
    votes = []
    for seed in (1, 2, 3):
        p = sample_modular_configuration(4, 2, seed)
        M = modular_matrix(K4, p, 2)
        votes.append(modular_rank_rows(M))
    assert votes == [5, 5, 5]


def test_coordinated_matrix_structure_at_square(square_k1):
    M = coordinated_matrix(square_k1, SQUARE)
    assert M.shape == (6, 9)
    expected = np.array(
        [
            # (0,1)      (columns by vertex, then the class indicator)
            [-1, 0, 1, 0, 0, 0, 0, 0, 0],
            # (0,2)
            [-1, -1, 0, 0, 1, 1, 0, 0, 0],
            # (0,3)
            [0, -1, 0, 0, 0, 0, 0, 1, 0],
            # (1,2)
            [0, 0, 0, -1, 0, 1, 0, 0, 0],
            # (1,3)
            [0, 0, 1, -1, 0, 0, -1, 1, 1],
            # (2,3)
            [0, 0, 0, 0, 1, 0, -1, 0, 1],
        ],
        dtype=float,
    )
    assert np.allclose(M, expected)
    assert M[:, 8].tolist() == [0, 0, 0, 0, 1, 1]
    # the square is a degenerate configuration for this colouring: the K4
    # stress there is +1 on sides and -1 on diagonals, so it annihilates the
    # indicator column and the rank stays at 5 (the bound of 6 is attained
    # only at generic configurations; that flexibility is exactly what makes
    # an equivalent non-congruent placement possible)
    assert float_rank(M) == 5
    exact = modular_matrix(square_k1, [[0, 0], [1, 0], [1, 1], [0, 1]], 2, k=1)
    assert modular_rank_rows(exact) == 5
    for seed in (1, 2):
        p = sample_modular_configuration(4, 2, seed)
        assert modular_rank_rows(modular_matrix(square_k1, p, 2, k=1)) == 6


def test_row_support_only_on_endpoints_and_class(seven_rigid_k2):
    g = seven_rigid_k2
    p = random_configuration(g.n, 2, seed=3)
    M = coordinated_matrix(g, p)
    for row, ((i, j), c) in enumerate(zip(g.edges, g.colours)):
        allowed = {2 * i, 2 * i + 1, 2 * j, 2 * j + 1}
        if c >= 1:
            allowed.add(2 * g.n + c - 1)
        support = set(np.nonzero(M[row])[0].tolist())
        assert support <= allowed
        if c >= 1:
            assert M[row, 2 * g.n + c - 1] == 1.0


def _same_bytes(a, b):
    # array_equal alone would let -0.0 stand for 0.0
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rigidity_matrix_matches_edge_loop(d):
    # the same IEEE subtraction per entry, so the bytes agree, signed zeros
    # included; every third configuration puts vertices 0 and 1 together,
    # and the last graph has no edges
    graphs = random_corpus(40, seed=100 * d, n_range=(2, 9)) + [build(4, 0, [])]
    for i, g in enumerate(graphs):
        p = random_configuration(g.n, d, seed=i)
        if i % 3 == 0:
            p[1] = p[0]
        assert _same_bytes(rigidity_matrix(g, p), loop_rigidity_matrix(g, p))


def test_rigidity_matrix_coincident_points():
    g = build(3, 0, [(0, 1, 0), (0, 2, 0), (1, 2, 0)])
    p = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]])
    R = rigidity_matrix(g, p)
    assert not R[0].any()  # the edge of coincident endpoints is a zero row
    assert _same_bytes(R, loop_rigidity_matrix(g, p))


def test_k0_coordinated_equals_rigidity():
    p = random_configuration(4, 2, seed=9)
    assert np.allclose(coordinated_matrix(K4, p), rigidity_matrix(K4, p))


def test_quad_rigid_coordinated_rank(quad_rigid_k1):
    for seed in (10, 11):
        p = sample_modular_configuration(4, 2, seed)
        M = modular_matrix(quad_rigid_k1, p, 2, k=1)
        assert modular_rank_rows(M) == 6 == 2 * 4 + 1 - 3


def test_zero_matrix_rank():
    assert modular_rank_rows([(0, 0), (0, 0)]) == 0
    assert float_rank(np.zeros((3, 4))) == 0


def test_twin_blocks_coordinated_rank_short(twin_blocks_k2):
    # one indicator column lies in the column space (its class is all
    # bridges), so the rank stops one short of the 2n + k - 3 target
    for seed in (31, 32):
        p = sample_modular_configuration(8, 2, seed)
        M = modular_matrix(twin_blocks_k2, p, 2, k=2)
        assert modular_rank_rows(M) == 14 < 15


def test_modulus_is_a_one_digit_prime():
    # below 2^30, trial division by every d < 2^15 settles primality
    assert 2 < MODULUS < 1 << 30
    assert all(MODULUS % d for d in range(2, 1 << 15))


@pytest.mark.parametrize("n, d, seed", [(1, 1, 0), (7, 2, 3), (40, 3, 11)])
def test_modular_configuration_range(n, d, seed):
    p = sample_modular_configuration(n, d, seed)
    assert len(p) == n and all(len(row) == d for row in p)
    assert all(type(x) is int and 1 <= x <= MODULUS - 1 for row in p for x in row)


RETRY_STRIDE = 1_000_003  # perfbench's seed step between decider attempts
SKIPPING_SEED = 16_179 * RETRY_STRIDE  # its 1193rd 30-bit draw is skipped


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 7, 20, 81, 640])
def test_samplers_draw_what_randrange_and_nested_lists_drew(n, d):
    # the stated draw rule gives every trial the configuration that
    # randrange(1, MODULUS) and one list per vertex gave before it; trial t
    # of an attempt draws from its seed + t
    seeds = [root + a * RETRY_STRIDE + t
             for root in (0, 5, 11) for a in range(2) for t in range(3)]
    for seed in seeds + [SKIPPING_SEED]:
        assert sample_modular_configuration(n, d, seed) == (
            randrange_modular_configuration(n, d, seed)
        )
        p, ref = random_configuration(n, d, seed), nested_random_configuration(n, d, seed)
        assert np.array_equal(p, ref)
        assert (p.dtype, p.shape) == (ref.dtype, ref.shape) == (np.float64, (n, d))


def test_a_skipped_draw_moves_the_later_coordinates():
    # a 30-bit draw of at least MODULUS - 1 is skipped, and the next one
    # taken; SKIPPING_SEED meets one inside the n = 640 grid above
    draw = random.Random(SKIPPING_SEED).getrandbits
    skipped = [draw(30) >= MODULUS - 1 for _ in range(1920)]
    assert [i for i, s in enumerate(skipped) if s] == [1192]
    flat = sum(sample_modular_configuration(640, 2, SKIPPING_SEED), [])
    draw = random.Random(SKIPPING_SEED).getrandbits
    raw = [1 + draw(30) for _ in range(1281)]
    assert flat == raw[:1192] + raw[1193:]


def test_modular_matrix_positions(seven_rigid_k2):
    g = seven_rigid_k2
    p = sample_modular_configuration(g.n, 2, seed=8)
    full = modular_matrix(g, p, 2, k=g.k)
    positions = [12, 0, 5, 6]
    assert modular_matrix(g, p, 2, k=g.k, positions=positions) == tuple(
        full[i] for i in positions
    )
    assert modular_matrix(g, p, 2, positions=[]) == ()


def test_k4_stress_projection():
    # K4 is a plane circuit: one stress, nonzero on every edge, so its
    # projection onto the last two edges is a line, cut out by one row of N
    p = sample_modular_configuration(4, 2, seed=5)
    rt = list(zip(*modular_matrix(K4, p, 2)))
    (stress,) = reduced_echelon_nullspace(rt, 6)
    assert all(stress)
    rank, N = modular_projection(rt, 4)
    assert (rank, len(N)) == (5, 1)
    assert sum(a * b for a, b in zip(N[0], stress[4:])) % MODULUS == 0
    assert modular_rank_rows(N + [[1, 0]]) - len(N) == 1
    assert modular_rank_rows(N + [[1, 0], [0, 1]]) - len(N) == 1


def _assert_projection_ranks(rows, ncols, rng, label):
    # ker N is the kernel K of ``rows`` cut to the columns from ``start``
    # on, and rank(K·Aᵀ) = rank[N; A] - rank N for any A
    full = reduced_echelon_nullspace(rows, ncols)
    for start in sorted({0, rng.randint(0, ncols), ncols}):
        rank, N = modular_projection(rows, start)
        assert rank == len(reduced_echelon(rows)[0]), label
        width = ncols - start
        cut = [w[start:] for w in full]
        assert reduced_echelon(reduced_echelon_nullspace(N, width)) == reduced_echelon(cut), label
        for _ in range(3):
            A = [[rng.randrange(MODULUS) if rng.random() < 0.5 else rng.randint(0, 1)
                  for _ in range(width)] for _ in range(rng.randint(1, 4))]
            KA = [[sum(a * b for a, b in zip(w, row)) % MODULUS for row in A] for w in cut]
            assert len(reduced_echelon(KA)[0]) == modular_rank_rows(N + A) - len(N), label


def _random_gf_matrices():
    # seeded GF(q) matrices of every awkward shape: wide, tall, square,
    # rank-deficient products, zero rows and zero columns, one row or
    # column, and sparse ones like rigidity matrices
    rng = random.Random(2024)

    def dense(r, c):
        return [[rng.randrange(MODULUS) for _ in range(c)] for _ in range(r)]

    out = []
    for _ in range(12):
        r, c = rng.randint(1, 14), rng.randint(1, 14)
        out.append(dense(r, c))  # wide, tall or square
        inner = rng.randint(1, min(r, c))
        left, right = dense(r, inner), dense(inner, c)
        out.append([[sum(a * b for a, b in zip(row, col)) % MODULUS
                     for col in zip(*right)] for row in left])  # rank <= inner
        m = dense(r, c)
        for i in rng.sample(range(r), rng.randint(0, r)):
            m[i] = [0] * c
        for j in rng.sample(range(c), rng.randint(0, c)):
            for row in m:
                row[j] = 0
        out.append(m)  # zero rows and zero columns
        out.append([[x if rng.random() < 0.2 else 0 for x in row]
                    for row in dense(r, c)])  # sparse
    out += [dense(1, 9), dense(9, 1), [[0] * 5 for _ in range(3)]]
    return out


def _fixture_transposes():
    for name in FIXTURE_NAMES:
        g = load_fixture(name)
        for d in (2, 3):
            p = sample_modular_configuration(g.n, d, seed=d)
            yield f"{name}-d{d}", list(zip(*modular_matrix(g, p, d))), g.m


def test_eliminator_matches_reduced_echelon_on_random_matrices():
    rng = random.Random(7)
    for i, m in enumerate(_random_gf_matrices()):
        ncols = len(m[0])
        assert modular_rank_rows(m) == len(reduced_echelon(m)[0]), f"matrix {i}"
        _assert_projection_ranks(m, ncols, rng, f"matrix {i}")
        keep = list(range(0, len(m), 2))
        expect = len(reduced_echelon([m[j] for j in keep])[0])
        assert modular_rank_rows(m, row_subset=keep) == expect, f"matrix {i}"


def test_eliminator_matches_reduced_echelon_on_fixture_transposes():
    # R(p)ᵀ has one row per vertex coordinate and one column per edge; its
    # kernel is the stress space the rank oracle reads rainbow tuples from
    rng = random.Random(8)
    for label, rt, m in _fixture_transposes():
        _assert_projection_ranks(rt, m, rng, label)
        assert modular_rank_rows(rt) == len(reduced_echelon(rt)[0]), label
        rows = list(zip(*rt))
        assert modular_rank_rows(rows) == len(reduced_echelon(rows)[0]), label


def _eliminator_cases():
    # the random matrices, each also with duplicated rows and with its rows
    # permuted, and R(p)ᵀ of seeded random graphs at d = 2 and 3
    rng = random.Random(31)
    for i, m in enumerate(_random_gf_matrices()):
        yield f"matrix {i}", m
        doubled = m + [list(m[j]) for j in rng.sample(range(len(m)), (len(m) + 1) // 2)]
        rng.shuffle(doubled)
        yield f"matrix {i} duplicated", doubled
        yield f"matrix {i} permuted", rng.sample(m, len(m))
    for d in (2, 3):
        for i in range(6):
            n = rng.randint(d + 2, 16)
            m = rng.randint(d * n - 4, min(d * n + 4, n * (n - 1) // 2))
            g = random_coloured_graph(n, 0, seed=100 * d + i, m=m)
            p = sample_modular_configuration(n, d, seed=i)
            yield f"R(p)ᵀ d={d} n={n} m={m}", list(zip(*modular_matrix(g, p, d)))


def test_sparsest_pivot_keeps_pivots_and_row_space():
    for label, rows in _eliminator_cases():
        pivots, echelon = _row_reduce(rows)
        expect = reduced_echelon(rows)
        assert pivots == expect[0], label
        for c, row in zip(pivots, echelon):
            assert row[c] == 1 and not any(row[:c]), label
        assert reduced_echelon(echelon) == expect, label


def test_projected_stress_rank_ignores_row_order():
    # N differs with the pivot rows chosen, but rank[N; A] - rank N does not
    rng = random.Random(32)
    for label, rows in _eliminator_cases():
        ncols = len(rows[0])
        start = rng.randint(0, ncols)
        A = [[rng.randrange(MODULUS) if rng.random() < 0.5 else rng.randint(0, 1)
              for _ in range(ncols - start)] for _ in range(rng.randint(1, 4))]
        ranks = set()
        for _ in range(4):
            rank, N = modular_projection(rng.sample(rows, len(rows)), start)
            ranks.add((rank, modular_rank_rows(N + A) - len(N)))
        assert len(ranks) == 1, label


def test_sparsest_pivot_fills_less_than_first_nonzero():
    # same pivots; on this fixed R(p)ᵀ about half the echelon nonzeros
    g = random_coloured_graph(60, 0, seed=3, m=3 * 60 - 6)
    rt = list(zip(*modular_matrix(g, sample_modular_configuration(60, 3, seed=3), 3)))
    pivots, echelon = _row_reduce(rt)
    ref_pivots, ref_echelon = first_nonzero_echelon(rt)
    assert pivots == ref_pivots
    fill = sum(len(r) - r.count(0) for r in echelon)
    ref_fill = sum(len(r) - r.count(0) for r in ref_echelon)
    assert fill < ref_fill


def test_motions_quad_flex_vs_rigid(quad_flex_k1, quad_rigid_k1):
    p = random_configuration(4, 2, seed=21)
    flex = infinitesimal_motions(quad_flex_k1, p)
    assert flex.trivial_dim == 3
    assert flex.nontrivial_dim == 1
    rigid = infinitesimal_motions(quad_rigid_k1, p)
    assert rigid.nontrivial_dim == 0
    assert rigid.nullity == 3


def test_vertex_motion_none_on_a_zero_length_edge():
    # the decider then falls back to the SVD route
    p = random_configuration(4, 3, seed=5)
    p[2] = p[1]
    assert vertex_motion(p, 1, [0, 2], 0) is None
    assert vertex_motion(p, 0, [3], 0) is not None


def test_motion_kernel_residual(seven_rigid_k2):
    g = seven_rigid_k2
    p = random_configuration(g.n, 2, seed=33)
    M = coordinated_matrix(g, p)
    report = infinitesimal_motions(g, p)
    for vec in report.basis:
        assert np.linalg.norm(M @ vec) < 1e-9


def test_trivial_dim_is_computed_not_assumed():
    # two distinct collinear points: the generator fields still span three
    # dimensions (the rotation field is independent of the translations)
    g = build(2, 0, [(0, 1, 0)])
    p = np.array([[1.0, 0.0], [2.0, 0.0]])
    gens = trivial_motion_generators(p)
    assert float_rank(gens) == 3
    report = infinitesimal_motions(g, p)
    assert report.trivial_dim == 3
    # coincident points collapse the span; with an edge there this is a
    # zero-length bar, which motion analysis refuses
    coincident = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert float_rank(trivial_motion_generators(coincident)) == 2
    with pytest.raises(ValueError, match="zero-length"):
        infinitesimal_motions(g, coincident)
    # coincident points that are not joined by an edge are fine
    path = build(3, 0, [(0, 1, 0), (1, 2, 0)])
    pp = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    report = infinitesimal_motions(path, pp)
    assert report.trivial_dim == float_rank(trivial_motion_generators(pp)) == 3


@pytest.mark.parametrize("d", [1, 2, 3])
def test_trivial_generators_match_vertex_loop(d):
    # the same entries written by strided slices, so the bytes agree, signed
    # zeros included; every third configuration puts vertices 0 and 1
    # together and every fourth puts vertex 0 at the origin
    for i, n in enumerate(range(1, 13)):
        p = random_configuration(n, d, seed=i)
        if i % 3 == 0 and n > 1:
            p[1] = p[0]
        if i % 4 == 0:
            p[0] = 0.0
        for k in (0, 2):
            assert _same_bytes(trivial_motion_generators(p, k),
                               loop_trivial_motion_generators(p, k))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_loads_match_per_edge_formula(d):
    # a load is read from the rows of R(p), which write -(p(i) - p(j)) for
    # p(j) - p(i) and start a class sum at its first row, not at a zero
    # vector; the values agree exactly, but a zero may differ in sign, which
    # array_equal does not see
    for i, g in enumerate(random_corpus(40, seed=200 * d, n_range=(2, 9))):
        p = random_configuration(g.n, d, seed=i)
        if i % 3 == 0:
            p[1] = p[0]
        for e in g.edges:
            assert np.array_equal(edge_load(g, p, e), loop_edge_load(g, p, e))
        for c in range(1, g.k + 1):
            assert np.array_equal(colour_class_load(g, p, c),
                                  loop_colour_class_load(g, p, c))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_equilibrium_matches_force_and_torque_loops(d, tol):
    # edge and class loads are in equilibrium; a load moved off it along one
    # net force or torque component, by 0.5x or 2x that component's bound,
    # is accepted or rejected alike by both tests; coordinates up to 10 make
    # the torque bound ten times the force bound, so the two are told apart
    for i, g in enumerate(random_corpus(12, seed=300 * d, n_range=(d + 2, 9))):
        p = 10 * random_configuration(g.n, d, seed=i)
        loads = [edge_load(g, p, e) for e in g.edges]
        loads += [colour_class_load(g, p, c) for c in range(1, g.k + 1)]
        for f in loads:
            assert is_equilibrium_load(p, f, tol)
            assert loop_is_equilibrium_load(p, f, tol)
        G = trivial_motion_generators(p)
        f = loads[0]
        force = tol * (1.0 + np.abs(f).sum())
        torque = force * (1.0 + np.abs(p).max())
        for j in range(G.shape[0]):
            for factor in (0.5, 2.0):
                moments = np.zeros(G.shape[0])
                moments[j] = factor * (force if j < d else torque)
                moved = f + G.T @ np.linalg.solve(G @ G.T, moments)
                expected = factor < 1
                assert is_equilibrium_load(p, moved, tol) == expected
                assert loop_is_equilibrium_load(p, moved, tol) == expected


def test_stress_triangle_empty():
    p = random_configuration(3, 2, seed=2)
    assert equilibrium_stresses(TRIANGLE, p).shape[0] == 0


def test_stress_k4_nonvanishing():
    for seed in (4, 5, 6):
        p = random_configuration(4, 2, seed=seed)
        basis = equilibrium_stresses(K4, p)
        assert basis.shape == (1, 6)
        assert np.min(np.abs(basis[0])) > 1e-6


def test_stress_left_kernel_residual(twin_blocks_k2):
    g = twin_blocks_k2
    p = random_configuration(g.n, 2, seed=8)
    R = rigidity_matrix(g, p)
    basis = equilibrium_stresses(g, p)
    assert basis.shape[0] == 2 == g.m - float_rank(R)
    for omega in basis:
        assert np.linalg.norm(R.T @ omega) < 1e-9
    # both basis stresses vanish on the three connector (bridge) edges
    for e in g.colour_class(2):
        idx = g.edge_index(e)
        assert np.max(np.abs(basis[:, idx])) < 1e-9


def test_edge_load_and_resolution():
    p = random_configuration(4, 2, seed=14)
    f = edge_load(K4, p, (1, 3))
    assert is_equilibrium_load(np.asarray(p), f)
    rho = resolve_load(K4, p, f)
    assert rho is not None
    # the dedicated edge resolution (1 on the edge, 0 elsewhere) is a witness
    direct = np.zeros(6)
    direct[K4.edge_index((1, 3))] = 1.0
    R = rigidity_matrix(K4, p)
    assert np.allclose(R.T @ direct, f)
    assert np.allclose(R.T @ rho, f, atol=1e-9)


def test_edge_load_missing_edge(quad_rigid_k1):
    p = random_configuration(4, 2, seed=14)
    with pytest.raises(GraphError, match=r"edge \(0, 9\) is not in the graph"):
        edge_load(quad_rigid_k1, p, (0, 9))


def test_edge_load_list_edge(quad_rigid_k1):
    p = random_configuration(4, 2, seed=14)
    with pytest.raises(GraphError, match=r"edge \[0, 1\] is not in the graph"):
        edge_load(quad_rigid_k1, p, [0, 1])


@pytest.mark.parametrize(
    "f",
    [
        [math.nan] * 6,
        [math.inf, 0.0, -math.inf, 0.0, 0.0, 0.0],
        [0.0, 0.0, math.nan, 0.0, 0.0, 0.0],
    ],
    ids=["nan", "inf", "one-nan"],
)
def test_non_finite_load_is_not_in_equilibrium(f):
    # every bound comparison with NaN is False, so no bound can reject it
    p = random_configuration(3, 2, seed=14)
    assert not is_equilibrium_load(p, np.array(f))
    with pytest.raises(ValueError, match="not an equilibrium load"):
        resolve_load(TRIANGLE, p, f)


def test_resolve_zero_load_is_zero():
    p = random_configuration(4, 2, seed=15)
    rho = resolve_load(K4, p, np.zeros(8))
    assert np.allclose(rho, 0)


def test_resolve_minimum_norm_and_affine_space():
    p = random_configuration(4, 2, seed=16)
    f = edge_load(K4, p, (0, 2))
    rho = resolve_load(K4, p, f)
    S = equilibrium_stresses(K4, p)
    # minimum-norm solution is orthogonal to the stress space
    assert np.max(np.abs(S @ rho)) < 1e-9
    # the full solution set is rho + S(p)
    R = rigidity_matrix(K4, p)
    rng = np.random.default_rng(5)
    for _ in range(3):
        shifted = rho + S.T @ rng.normal(size=S.shape[0])
        assert np.allclose(R.T @ shifted, f, atol=1e-8)


def test_resolve_rejects_non_equilibrium():
    p = random_configuration(3, 2, seed=17)
    with pytest.raises(ValueError, match="equilibrium"):
        resolve_load(TRIANGLE, p, np.array([1.0, 0, 0, 0, 0, 0]))


def test_unresolvable_load_on_flexible_framework():
    # a 4-cycle resolves only a 4-dimensional space of the 5-dimensional
    # equilibrium load space; build an equilibrium load outside the row space
    cycle = build(4, 0, [(0, 1, 0), (0, 3, 0), (1, 2, 0), (2, 3, 0)])
    p = np.asarray(random_configuration(4, 2, seed=18))
    n, d = 4, 2
    constraints = []
    for a in range(d):
        row = np.zeros(d * n)
        row[a::d] = 1.0
        constraints.append(row)
    row = np.zeros(d * n)
    for i in range(n):
        row[d * i] = -p[i, 1]
        row[d * i + 1] = p[i, 0]
    constraints.append(row)
    _, _, vt = np.linalg.svd(np.array(constraints))
    eq_basis = vt[3:]  # equilibrium loads
    R = rigidity_matrix(cycle, p)
    # project the equilibrium basis off the resolvable space
    q, _ = np.linalg.qr(R.T)
    found = None
    for vec in eq_basis:
        resid = vec - q @ (q.T @ vec)
        if np.linalg.norm(resid) > 1e-8:
            found = resid
            break
    assert found is not None
    assert is_equilibrium_load(p, found)
    assert resolve_load(cycle, p, found) is None


def test_colour_class_load_single_edge(quad_rigid_k1):
    g = build(3, 1, [(0, 1, 1), (0, 2, 0), (1, 2, 0)])
    p = random_configuration(3, 2, seed=19)
    assert np.allclose(colour_class_load(g, p, 1), edge_load(g, p, (0, 1)))
    with pytest.raises(ValueError):
        colour_class_load(g, p, 2)


def test_colour_class_load_explicit_vector(quad_rigid_k1):
    f = colour_class_load(quad_rigid_k1, SQUARE, 1)
    assert np.allclose(f, [-1, 0, 2, -1, 1, 0, -2, 1])
    assert is_equilibrium_load(SQUARE, f)


def test_colour_class_load_shared_vertex_linearity():
    g = build(3, 1, [(0, 1, 1), (0, 2, 1), (1, 2, 0)])
    p = random_configuration(3, 2, seed=20)
    total = colour_class_load(g, p, 1)
    assert np.allclose(total, edge_load(g, p, (0, 1)) + edge_load(g, p, (0, 2)))


def test_class_load_resolvable_directly(twin_blocks_k2):
    g = twin_blocks_k2
    p = random_configuration(g.n, 2, seed=23)
    f = colour_class_load(g, p, 2)
    assert resolve_load(g, p, f) is not None


def test_gram_quad_rigid_nonsingular(quad_rigid_k1):
    p = random_configuration(4, 2, seed=24)
    gram = coordination_gram(quad_rigid_k1, p)
    assert gram.shape == (1, 1)
    assert float_rank(gram) == 1


def test_gram_twin_blocks_singular(twin_blocks_k2):
    p = random_configuration(8, 2, seed=25)
    gram = coordination_gram(twin_blocks_k2, p)
    assert gram.shape == (2, 2)
    assert float_rank(gram) == 1
    # the class-2 indicator column projects to (numerically) zero
    assert abs(gram[1, 1]) < 1e-16


def test_gram_zero_for_independent_framework():
    g = build(3, 1, [(0, 1, 1), (0, 2, 0), (1, 2, 0)])
    p = random_configuration(3, 2, seed=26)
    gram = coordination_gram(g, p)
    assert np.allclose(gram, 0)
    assert float_rank(gram) == 0


def test_equivalence_fixture(square_k1):
    g = square_k1
    p = SQUARE
    q = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.64767, 0.761921]])
    ok, residuals = check_equivalent(g, (p, [0.0]), (q, [0.574773]), tol=1e-4)
    assert ok
    ok7, _ = check_equivalent(g, (p, [0.0]), (q, [0.574773]), tol=1e-7)
    assert not ok7
    same, res0 = check_equivalent(g, (p, [0.0]), (p, [0.0]), tol=0.0)
    assert same and np.all(res0 == 0)
    # dropping the offset: the residual concentrates on the coordinated edges
    bad, res = check_equivalent(g, (p, [0.0]), (q, [0.0]), tol=1e-4)
    assert not bad
    assert res[g.edge_index((1, 3))] == pytest.approx(0.574773, abs=1e-4)


def test_matrix_dimension_mismatch_errors():
    with pytest.raises(ValueError, match="expected 3 points"):
        rigidity_matrix(TRIANGLE, [[0.0, 0.0], [1.0, 0.0]])
    g = build(2, 1, [(0, 1, 1)])
    with pytest.raises(ValueError, match="length k"):
        check_equivalent(g, ([[0, 0], [1, 0]], []), ([[0, 0], [1, 0]], [0.0]), 1e-6)


def test_configuration_type_validation():
    g = build(2, 0, [(0, 1, 0)])
    assert rigidity_matrix(g, ((0.0, 0.0), (1.0, 2.0))).shape == (1, 4)
    for points in ((), ((0.0,), (1.0, 2.0)), ((math.inf, 0.0), (1.0, 2.0))):
        with pytest.raises(ValueError):
            rigidity_matrix(g, points)


# ---------------------------------------------------------------------------
# randomized structural properties


def test_congruence_invariance_of_ranks():
    rng = random.Random(99)
    for g in random_corpus(12, seed=640):
        p = np.asarray(random_configuration(g.n, 2, seed=rng.randrange(10**6)))
        theta = rng.random() * 2 * math.pi
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        moved = p @ rot.T + np.array([rng.random(), rng.random()])
        a = coordinated_matrix(g, p)
        b = coordinated_matrix(g, moved)
        assert float_rank(a) == float_rank(b)
        assert float_rank(a[:, : 2 * g.n]) == float_rank(b[:, : 2 * g.n])


def test_scaled_indicator_nullity_matches():
    # scaling each indicator entry by its edge length (the Jacobian of the
    # normalized constraint system) never changes the kernel dimension
    for idx, g in enumerate(random_corpus(25, seed=7100)):
        if g.k == 0:
            continue
        p = np.asarray(random_configuration(g.n, 2, seed=3000 + idx))
        M = coordinated_matrix(g, p)
        lens = np.array([np.linalg.norm(p[u] - p[v]) for u, v in g.edges])
        scaled = M.copy()
        scaled[:, 2 * g.n :] *= lens[:, None]
        cols = M.shape[1]
        assert cols - float_rank(M) == cols - float_rank(scaled)


def test_gram_criterion_matches_rank_criterion():
    # on frameworks whose underlying graph is rigid at p, the Gram matrix is
    # nonsingular exactly when the coordinated matrix has full rank; when the
    # underlying framework is flexible the coordinated framework is flexible
    # no matter what the Gram matrix looks like
    checked_rigid = 0
    for idx, g in enumerate(random_corpus(200, seed=8200)):
        if g.k == 0:
            continue
        p = np.asarray(random_configuration(g.n, 2, seed=4000 + idx))
        t = float_rank(trivial_motion_generators(p))
        base_rank = float_rank(rigidity_matrix(g, p))
        coord_rank = float_rank(coordinated_matrix(g, p))
        coord_rigid = coord_rank == 2 * g.n + g.k - t
        gram_full = float_rank(coordination_gram(g, p)) == g.k
        if base_rank == 2 * g.n - t:
            checked_rigid += 1
            assert gram_full == coord_rigid
        else:
            assert not coord_rigid
    assert checked_rigid >= 10


def test_rank_is_r_independent(square_k1):
    # the coordinated matrix is built from p alone; offsets never enter
    M = coordinated_matrix(square_k1, SQUARE)
    g2 = build(
        square_k1.n,
        square_k1.k,
        [(u, v, c) for (u, v), c in zip(square_k1.edges, square_k1.colours)],
        coords=square_k1.coords,
        r=[123.456],
    )
    M2 = coordinated_matrix(g2, SQUARE)
    assert np.array_equal(M, M2)


def test_float_and_modular_backends_agree_on_generic_ranks():
    # at random configurations the float SVD rank and the exact modular rank
    # of the coordinated matrix coincide (both see the generic value)
    for idx, g in enumerate(random_corpus(40, seed=9750)):
        p_float = np.asarray(random_configuration(g.n, 2, seed=5000 + idx))
        p_mod = sample_modular_configuration(g.n, 2, seed=5000 + idx)
        f_rank = float_rank(coordinated_matrix(g, p_float))
        m_rank = modular_rank_rows(modular_matrix(g, p_mod, 2, k=g.k))
        assert f_rank == m_rank, f"instance {idx}"


def test_indicator_matrix_columns(seven_rigid_k2):
    ind = indicator_matrix(seven_rigid_k2)
    assert ind.shape == (13, 2)
    for row, c in enumerate(seven_rigid_k2.colours):
        expected = np.zeros(2)
        if c >= 1:
            expected[c - 1] = 1
        assert np.array_equal(ind[row], expected)
