import numpy as np
import pytest

from qbdr import (StructuralError, assemble_generator, oracle_deviation,
                  oracle_passage, oracle_reward, oracle_stationary,
                  oracle_transient_deviation, random_blocks)

TWO_STATE = np.array([[-1.0, 1.0], [1.0, -1.0]])


def test_stationary_two_state_symmetric():
    np.testing.assert_allclose(oracle_stationary(TWO_STATE), [0.5, 0.5],
                               atol=1e-14)


def test_stationary_scalar_geometric(scalar_pr):
    q = assemble_generator(scalar_pr)
    np.testing.assert_allclose(oracle_stationary(q),
                               [4 / 7, 2 / 7, 1 / 7], atol=1e-14)


@pytest.mark.parametrize("seed", range(6))
def test_stationary_residual(seed):
    blocks = random_blocks(1 + seed % 3, 2 + seed, np.random.default_rng(seed))
    q = assemble_generator(blocks)
    pi = oracle_stationary(q)
    assert np.max(np.abs(pi @ q)) <= 1e-12
    assert pi.sum() == pytest.approx(1.0, abs=1e-14)


def test_deviation_two_state_closed_form():
    expected = np.array([[0.25, -0.25], [-0.25, 0.25]])
    np.testing.assert_allclose(oracle_deviation(TWO_STATE), expected,
                               atol=1e-13)


@pytest.mark.parametrize("seed", range(4))
def test_deviation_identities(seed):
    blocks = random_blocks(3, 4, np.random.default_rng(seed))
    q = assemble_generator(blocks)
    pi = oracle_stationary(q)
    dev = oracle_deviation(q, pi)
    size = q.shape[0]
    np.testing.assert_allclose(q @ dev, np.outer(np.ones(size), pi)
                               - np.eye(size), atol=1e-10)
    np.testing.assert_allclose(pi @ dev, 0.0, atol=1e-12)
    np.testing.assert_allclose(dev @ np.ones(size), 0.0, atol=1e-12)


def test_transient_deviation_at_zero(scalar_pr):
    q = assemble_generator(scalar_pr)
    assert not oracle_transient_deviation(q, t=0.0).any()


def test_transient_deviation_rows(scalar_pr):
    q = assemble_generator(scalar_pr)
    dev_t = oracle_transient_deviation(q, t=2.5)
    np.testing.assert_allclose(dev_t @ np.ones(3), 0.0, atol=1e-12)


def test_transient_deviation_converges(scalar_pr):
    q = assemble_generator(scalar_pr)
    pi = oracle_stationary(q)
    gap = np.max(np.abs(oracle_transient_deviation(q, pi, 50.0)
                        - oracle_deviation(q, pi)))
    assert gap <= 1e-6


def test_reward_uniform_rate(scalar_pr):
    q = assemble_generator(scalar_pr)
    r = oracle_reward(q, 0.7 * np.ones(3), 4.0)
    np.testing.assert_allclose(r, 0.7 * 4.0 * np.ones(3), atol=1e-9)


def test_reward_initial_condition(scalar_pr):
    q = assemble_generator(scalar_pr)
    assert not oracle_reward(q, np.array([1.0, 2.0, 3.0]), 0.0).any()


def simpson_transient_deviation(q, pi, t, steps):
    """D(t) by composite Simpson quadrature of exp(q u) - 1 pi over an even
    number of steps, the exponential of one step propagated by products."""
    import scipy.linalg
    h = t / steps
    one_pi = np.outer(np.ones(len(q)), pi)
    step_exp = scipy.linalg.expm(q * h)
    acc = np.eye(len(q)) - one_pi
    cur = np.eye(len(q))
    for j in range(1, steps + 1):
        cur = cur @ step_exp
        acc += (1.0 if j == steps else 4.0 if j % 2 else 2.0) * (cur - one_pi)
    return acc * (h / 3.0)


def test_reward_cross_check(scalar_pr):
    # R(t) = (pi g) t 1 + D(t) g between the two closed forms, and the
    # closed D(t) = D - exp(q t) D against Simpson quadrature of its integral
    q = assemble_generator(scalar_pr)
    pi = oracle_stationary(q)
    g = np.array([0.0, 0.0, 1.5])
    for t in (1.0, 10.0):
        dev_t = oracle_transient_deviation(q, pi, t)
        expected = (pi @ g) * t + dev_t @ g
        gap = np.max(np.abs(oracle_reward(q, g, t) - expected))
        assert gap <= 1e-12 * np.max(np.abs(expected))
    witness = simpson_transient_deviation(q, pi, 1.0, 2000)
    assert np.max(np.abs(oracle_transient_deviation(q, pi, 1.0)
                         - witness)) <= 1e-12


def test_passage_two_state():
    np.testing.assert_allclose(oracle_passage(TWO_STATE, 1), [1.0, 0.0],
                               atol=1e-14)


@pytest.mark.parametrize("seed", range(3))
def test_passage_nonnegative(seed):
    blocks = random_blocks(2, 4, np.random.default_rng(seed))
    q = assemble_generator(blocks)
    for target in range(q.shape[0]):
        assert oracle_passage(q, target).min() >= 0.0


def test_size_cap():
    with pytest.raises(StructuralError):
        oracle_stationary(np.zeros((2001, 2001)))
