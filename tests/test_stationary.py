import numpy as np
import pytest

from qbdr import (assemble_generator, oracle_stationary, random_blocks,
                  rate_matrices, stationary_rmatrix)
from qbdr.linalg import left_null_vector
from conftest import (UNFILTERED, boundary_matrix, censored_generator,
                      gth_stationary, mapph_example, scalar_blocks,
                      unfiltered_model)


def test_scalar_geometric(scalar_pr):
    dist = stationary_rmatrix(scalar_pr)
    np.testing.assert_allclose(dist.stacked(), [4 / 7, 2 / 7, 1 / 7],
                               atol=1e-13)


@pytest.mark.parametrize("seed", range(8))
def test_defining_residual(seed):
    blocks = random_blocks(1 + seed % 4, 2 + seed, np.random.default_rng(seed))
    dist = stationary_rmatrix(blocks)
    q = assemble_generator(blocks)
    pi = dist.stacked()
    assert np.max(np.abs(pi @ q)) <= 1e-10
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert pi.min() >= 0.0


def test_matches_oracle_on_mapph():
    blocks = mapph_example(C=5)
    dist = stationary_rmatrix(blocks)
    pi_oracle = oracle_stationary(assemble_generator(blocks))
    np.testing.assert_allclose(dist.stacked(), pi_oracle, atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_boundary_system_rank(seed):
    blocks = random_blocks(2, 4, np.random.default_rng(seed))
    r, rhat = rate_matrices(blocks)
    system = boundary_matrix(blocks, r, rhat)
    sing = np.linalg.svd(system, compute_uv=False)
    null_count = np.count_nonzero(sing <= 4 * 2 * np.finfo(float).eps
                                  * sing[0] * 100)
    assert null_count == 1


def test_geometric_structure(scalar_pr):
    dist = stationary_rmatrix(scalar_pr)
    r, rhat = rate_matrices(scalar_pr)
    kernel = left_null_vector(boundary_matrix(scalar_pr, r, rhat))
    rows = [kernel[:1] @ np.linalg.matrix_power(r, k)
            + kernel[1:] @ np.linalg.matrix_power(rhat, 2 - k)
            for k in range(3)]
    total = sum(row.sum() for row in rows)
    for k in range(3):
        np.testing.assert_allclose(dist.pi[k], rows[k] / total, atol=1e-14)


def test_null_recurrent_matches_oracle():
    # the finite chain has a stationary vector whatever the drift
    blocks = scalar_blocks(1.0, 1.0, 3)
    np.testing.assert_allclose(
        stationary_rmatrix(blocks).stacked(),
        oracle_stationary(assemble_generator(blocks)), atol=1e-14)


def worst_relative_error(blocks):
    """Largest entrywise relative gap of pi to the dense GTH solve."""
    ref = gth_stationary(assemble_generator(blocks))
    gap = np.abs(stationary_rmatrix(blocks).stacked() - ref)
    return np.max(gap / ref) if ref.min() > 0 else np.inf


def test_entrywise_matches_gth_on_unfiltered_models():
    # Small entries of pi once came out wrong by factors up to 5.8e30 here
    # while the normwise error stayed below 1e-10.
    worst = max(worst_relative_error(unfiltered_model(seed, i))
                for seed, i in UNFILTERED)
    assert worst <= 1e-8


@pytest.mark.parametrize("swapped", [False, True], ids=["high", "low"])
@pytest.mark.parametrize("c", [60, 80])
def test_entrywise_matches_gth_on_queues(c, swapped):
    # level C of the low-blocking queue holds the blocking probability,
    # and the high-blocking queue's level 0 mass is below 1e-28
    assert worst_relative_error(mapph_example(C=c, swapped=swapped)) <= 1e-8


def test_unrestricted_geometric(scalar_pr):
    # the unbounded process censored onto the levels 0..6 keeps
    # pi_k = (1/2)^(k+1), over the mass 1 - (1/2)^7 of those levels
    rows = gth_stationary(censored_generator(scalar_pr, 0.0, 6))
    expected = [0.5 ** (k + 1) / (1 - 0.5 ** 7) for k in range(7)]
    np.testing.assert_allclose(rows, expected, atol=1e-13)


def test_unrestricted_matches_large_capacity():
    blocks = mapph_example(C=5, swapped=True)  # positive recurrent
    big = mapph_example(C=60, swapped=True)
    rows = gth_stationary(censored_generator(blocks, 0.0, 4))
    near = stationary_rmatrix(big).stacked()[:rows.size]
    np.testing.assert_allclose(rows, near / near.sum(), atol=1e-9)
