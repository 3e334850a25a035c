import numpy as np
import pytest

from qbdr import (assemble_generator, deviation_block_asymptotic,
                  deviation_matrix_diffeq, deviation_recursive, gmatrices,
                  oracle_deviation, oracle_passage, oracle_stationary,
                  passage_column, passage_level_matrices, random_blocks,
                  stationary_rmatrix)
from qbdr.diffeq import BoundarySystem
from conftest import (UNFILTERED, censored_passage_generator,
                      exact_generator, exact_solve, gth_passage,
                      gth_stationary, mapph_example, mu_k, passage_z_factor,
                      passage_z_matrix, scalar_blocks, unfiltered_model)


def test_mu_boundary_single_term():
    blocks = scalar_blocks(1.0, 2.0, 1)
    gm = gmatrices(blocks)
    expected = gm.Ghat @ gm.H0 @ np.ones(1)
    np.testing.assert_allclose(mu_k(blocks, gm, 0), expected, atol=1e-13)


def test_mu_scalar_value(scalar_pr):
    gm = gmatrices(scalar_pr)
    assert mu_k(scalar_pr, gm, 1)[0] == pytest.approx(1.5, abs=1e-12)


def test_mu_sweep_matches_direct():
    blocks = random_blocks(3, 6, np.random.default_rng(1))
    gm = gmatrices(blocks)
    swept = BoundarySystem(blocks, gm, np.full((7, 3, 1), -1.0)).p
    for k in range(7):
        np.testing.assert_allclose(mu_k(blocks, gm, k), swept[k, :, 0],
                                   atol=1e-10)


def test_mu_limit_matches_large_capacity(scalar_pr):
    # with no upper boundary the levels above k add
    # sum_{j>=1} Ghat^j H0 1 = (I - Ghat)^{-1} Ghat H0 1
    big = scalar_blocks(1.0, 2.0, 200)
    gm_big = gmatrices(big)
    gm = gmatrices(scalar_pr)
    h = gm.H0 @ np.ones(1)
    tail = np.linalg.solve(np.eye(1) - gm.Ghat, gm.Ghat @ h)
    for k in range(6):
        limit = tail + sum(np.linalg.matrix_power(gm.G, j) @ h
                           for j in range(k))
        gap = np.max(np.abs(mu_k(big, gm_big, k) - limit))
        assert gap <= 1e-8


def test_passage_exponential_first_arrival():
    blocks = scalar_blocks(1.0, 2.0, 1)
    col = passage_column(blocks, 1, 0)
    assert col.m[0][0] == pytest.approx(1.0, abs=1e-12)
    assert col.m[1][0] == 0.0
    col0 = passage_column(blocks, 0, 0)
    assert col0.m[1][0] == pytest.approx(0.5, abs=1e-12)
    assert col0.m[0][0] == 0.0


@pytest.mark.parametrize("seed,n,c", [(0, 1, 4), (1, 2, 5), (2, 3, 6),
                                      (3, 2, 3), (4, 2, 8)])
def test_passage_matches_oracle_all_targets(seed, n, c):
    blocks = random_blocks(n, c, np.random.default_rng(seed))
    q = assemble_generator(blocks)
    for level in range(c + 1):
        for j in range(n):
            col = passage_column(blocks, level, j)
            reference = oracle_passage(q, level * n + j)
            assert np.max(np.abs(col.stacked() - reference)) <= 1e-8
            assert col.residual <= 1e-8
            assert col.m[level][j] == 0.0
            assert col.stacked().min() >= 0.0


def test_passage_small_capacity_routes():
    for c in (1, 2):
        blocks = random_blocks(2, c, np.random.default_rng(c))
        q = assemble_generator(blocks)
        for level in range(c + 1):
            col = passage_column(blocks, level, 0)
            np.testing.assert_allclose(col.stacked(),
                                       oracle_passage(q, level * 2),
                                       atol=1e-10)


def test_passage_null_recurrent_matches_oracle():
    # the finite chain has finite passage times whatever the drift
    blocks = scalar_blocks(1.0, 1.0, 4)
    q = assemble_generator(blocks)
    for level in range(5):
        col = passage_column(blocks, level, 0)
        np.testing.assert_allclose(col.stacked(), oracle_passage(q, level),
                                   rtol=1e-12)


@pytest.mark.parametrize("seed,n,c", [(0, 2, 5), (1, 3, 4), (2, 2, 7)])
def test_passage_z_factorization(seed, n, c):
    blocks = random_blocks(n, c, np.random.default_rng(seed))
    gm = gmatrices(blocks)
    for level in (0, 1, c - 1, c):
        for j in range(n):
            z = passage_z_matrix(blocks, level, j, gm)
            ring = censored_passage_generator(blocks, level, j)
            factor = passage_z_factor(blocks, level, gm)
            assert np.max(np.abs(z - ring @ factor)) <= 1e-10


@pytest.mark.parametrize("seed,n,c", [(0, 2, 5), (1, 3, 4), (2, 2, 7)])
def test_level_matrices_match_single_columns(seed, n, c):
    blocks = random_blocks(n, c, np.random.default_rng(seed))
    for level in (0, 1, c - 1, c):
        mats = passage_level_matrices(blocks, level)
        for j in range(n):
            col = np.array(passage_column(blocks, level, j).m)
            gap = np.max(np.abs(mats[:, :, j] - col))
            assert gap <= 1e-13 * np.max(np.abs(col))


@pytest.mark.parametrize("seed,n,c", [(0, 2, 5), (1, 3, 4), (2, 2, 7)])
def test_passage_residual_matches_dense_pinned_system(seed, n, c):
    blocks = random_blocks(n, c, np.random.default_rng(seed))
    for level in (0, 1, c - 1, c):
        for j in range(n):
            col = passage_column(blocks, level, j)
            q = assemble_generator(blocks)
            idx = level * n + j
            q[idx, :] = 0.0
            q[idx, idx] = -1.0
            rhs = -np.ones(q.shape[0])
            rhs[idx] = 0.0
            dense = np.max(np.abs(q @ col.stacked() - rhs))
            assert abs(col.residual - dense) <= 1e-12


def test_deviation_block_two_state_hand_value(two_state):
    # M_01 = M_10 = 1 at unit rates, pi = (1/2, 1/2):
    # D_01 = (1/2 - 1) * 1/2 = -1/4
    pi = [np.array([0.5]), np.array([0.5])]
    block = deviation_block_asymptotic(two_state, pi, 0, 1)
    assert block[0, 0] == pytest.approx(-0.25, abs=1e-12)


@pytest.mark.parametrize("seed,n,c", [(0, 2, 4), (1, 3, 5), (2, 1, 7)])
def test_deviation_assembly_identities(seed, n, c):
    blocks = random_blocks(n, c, np.random.default_rng(seed))
    q = assemble_generator(blocks)
    pi = stationary_rmatrix(blocks)
    dev = deviation_matrix_diffeq(blocks, pi)
    size = q.shape[0]
    np.testing.assert_allclose(dev @ np.ones(size), 0.0, atol=1e-9)
    np.testing.assert_allclose(q @ dev, np.outer(np.ones(size), pi.stacked())
                               - np.eye(size), atol=1e-9)
    np.testing.assert_allclose(pi.stacked() @ dev, 0.0, atol=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_deviation_assembly_matches_oracle(seed):
    blocks = random_blocks(1 + seed % 3, 3 + seed, np.random.default_rng(seed))
    q = assemble_generator(blocks)
    dev = deviation_matrix_diffeq(blocks)
    reference = oracle_deviation(q, oracle_stationary(q))
    rel = np.linalg.norm(dev - reference) / np.linalg.norm(reference)
    assert rel <= 1e-8


@pytest.mark.parametrize("blocks", [
    mapph_example(C=6), mapph_example(C=6, swapped=True),
    random_blocks(3, 8, np.random.default_rng(3)),
    random_blocks(1, 29, np.random.default_rng(4), min_drift=0.05)],
    ids=["queue-high", "queue-low", "n3", "n1"])
def test_gth_references_match_exact_solve(blocks):
    # the dense references of the entrywise tests, against exact rational
    # solves of the same equations
    q = assemble_generator(blocks)
    size = len(q)
    gen = exact_generator(q)
    system = [list(col) for col in zip(*gen)][:-1] + [[1] * size]
    exact = np.array(exact_solve(system, [0] * (size - 1) + [1]),
                     dtype=float)
    assert np.max(np.abs(gth_stationary(q) - exact) / exact) <= 1e-12
    targets = [0, size // 2, size - 1]
    times = gth_passage(q, targets)
    for i, target in enumerate(targets):
        taboo = [[-v for j, v in enumerate(row) if j != target]
                 for r, row in enumerate(gen) if r != target]
        exact = np.array(exact_solve(taboo, [1] * (size - 1)), dtype=float)
        keep = np.arange(size) != target
        assert times[target, i] == 0.0
        assert np.max(np.abs(times[keep, i] - exact) / exact) <= 1e-12


def worst_column_error(blocks):
    """Largest gap of the passage columns to targets {0, 1, C//2, C-1, C}
    x every phase, each relative to the column's max-norm, against the
    dense subtraction-free reference."""
    n, C = blocks.n, blocks.C
    levels = sorted({0, 1, C // 2, C - 1, C})
    reference = gth_passage(assemble_generator(blocks),
                            [level * n + j for level in levels
                             for j in range(n)])
    got = np.concatenate([passage_level_matrices(blocks, level)
                          .reshape(-1, n) for level in levels], axis=1)
    return np.max(np.abs(got - reference)
                  / np.max(np.abs(reference), axis=0))


def test_passage_matches_gth_on_unfiltered_models():
    # 38 of these models once missed 1e-8, by up to the column's size
    worst = max(worst_column_error(unfiltered_model(seed, i))
                for seed, i in UNFILTERED)
    assert worst <= 1e-8


@pytest.mark.parametrize("swapped", [False, True], ids=["high", "low"])
@pytest.mark.parametrize("c", [60, 80])
def test_passage_matches_gth_on_queues(c, swapped):
    # passage times reach about 1e37 on both queues at C = 80
    assert worst_column_error(mapph_example(C=c, swapped=swapped)) <= 1e-8


def test_level_matrices_zero_diagonal():
    blocks = random_blocks(3, 5, np.random.default_rng(9))
    mats = passage_level_matrices(blocks, 2)
    np.testing.assert_allclose(np.diag(mats[2]), 0.0)


def relative_gap(value, reference):
    return np.max(np.abs(value - reference)) / np.max(np.abs(reference))


def column_gap(value, reference):
    """The largest error in a column over that column's largest entry."""
    return np.max(np.max(np.abs(value - reference), axis=0)
                  / np.max(np.abs(reference), axis=0))


def test_deviation_matrix_matches_ladder_on_unfiltered_models():
    # Forming D from mean passage times cancels on these draws, whose
    # passage times reach 1e19 and more: 29 of the 100 missed 1e-8.  The
    # route through G, Ghat and H0 at s = 0 read 1.1e-13 column-relative.
    worst = max(column_gap(deviation_matrix_diffeq(blocks),
                           deviation_recursive(blocks).dev)
                for blocks in (unfiltered_model(seed, i)
                               for seed, i in UNFILTERED))
    assert worst <= 1e-12


def test_deviation_matrix_matches_ladder_on_small_models():
    # The 54 unfiltered models with at most 90 states, column-relative: the
    # ladder reads 2.8e-14 on them against a 40-digit reference.
    worst = 0.0
    for seed, i in UNFILTERED:
        blocks = unfiltered_model(seed, i)
        if blocks.n * (blocks.C + 1) > 90:
            continue
        worst = max(worst, column_gap(deviation_matrix_diffeq(blocks),
                                      deviation_recursive(blocks).dev))
    assert worst <= 1e-12


@pytest.mark.parametrize("seed,i,pin_level", [(8, 2, 1), (7, 15, 27)])
def test_deviation_matrix_pin_splits_run(seed, i, pin_level):
    # The most probable state, whose equation gives way to the pin, lies
    # inside the levels, so both sweeps censor levels: one level below it
    # and many above at level 1, and one level above it at C - 1.
    blocks = unfiltered_model(seed, i)
    pi = stationary_rmatrix(blocks)
    assert np.argmax(pi.stacked()) // blocks.n == pin_level
    assert relative_gap(deviation_matrix_diffeq(blocks, pi),
                        deviation_recursive(blocks).dev) <= 1e-8


@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize("seed", range(3))
def test_deviation_matrix_small_capacities(c, seed):
    blocks = random_blocks(1 + seed, c, np.random.default_rng([c, seed]))
    q = assemble_generator(blocks)
    reference = oracle_deviation(q, oracle_stationary(q))
    assert relative_gap(deviation_matrix_diffeq(blocks), reference) <= 1e-12


def test_deviation_matrix_uses_supplied_pi():
    blocks = random_blocks(3, 12, np.random.default_rng(5))
    q = assemble_generator(blocks)
    pi = oracle_stationary(q)
    rows = [pi[k * 3:(k + 1) * 3] for k in range(13)]
    dev = deviation_matrix_diffeq(blocks, rows)
    assert relative_gap(dev, oracle_deviation(q, pi)) <= 1e-10
    # the centring uses the supplied rows: pi D = 0 in them
    assert np.max(np.abs(pi @ dev)) <= 1e-13 * np.max(np.abs(dev))


def test_deviation_matrix_rejects_levels_out_of_range():
    blocks = random_blocks(2, 4, np.random.default_rng(0))
    for levels in ([5], [-1], [0, 5], [2.5]):
        with pytest.raises(ValueError):
            deviation_matrix_diffeq(blocks, levels=levels)


def test_passage_rejects_targets_outside_the_states():
    # a fractional level or phase fails here, not in numpy indexing
    blocks = random_blocks(2, 4, np.random.default_rng(0))
    for level in (2.5, 5, -1):
        with pytest.raises(ValueError):
            passage_level_matrices(blocks, level)
    for level, phase in ((2.5, 1), (2, 1.5), (2, 2), (2, -1)):
        with pytest.raises(ValueError):
            passage_column(blocks, level, phase)
    # a deviation block's row k = -1 once read row C, and k = C + 1 failed
    # in numpy indexing
    pi = stationary_rmatrix(blocks)
    for k, level in ((-1, 2), (5, 2), (2.5, 2), (2, 5)):
        with pytest.raises(ValueError, match="out of range 0..4"):
            deviation_block_asymptotic(blocks, pi, k, level)


@pytest.mark.parametrize("eps", [1e-6, 1e-8, 0.0])
def test_deviation_matrix_near_null_matches_ladder(eps):
    # H0 = -(A0 + A1 G + A_minus1 Ghat)^{-1} grows like 1/eps here: the
    # route through it read 3.1e-10 and 7.8e-9 column-relative at eps =
    # 1e-6 and 1e-8, and raised PreconditionError at 0, although a finite
    # chain has a deviation matrix whatever its drift.
    blocks = scalar_blocks(1.0, 1.0 + eps, 40)
    assert column_gap(deviation_matrix_diffeq(blocks),
                      deviation_recursive(blocks).dev) <= 1e-12
