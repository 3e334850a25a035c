from dataclasses import replace

import numpy as np
import pytest

from qbdr import (assemble_generator, block_update, deviation_matrix_diffeq,
                  deviation_recursive, deviation_update, oracle_deviation,
                  oracle_stationary, pi_step, random_blocks,
                  resolvent_recursive, stationary_rmatrix, t_group_inverse,
                  transform_context, deviation_transform)
from conftest import mapph_example, t_generator


def ladder_ingredients(blocks, capacity):
    """Previous-rung pi and deviation, plus T and its group inverse."""
    q_prev = assemble_generator(replace(blocks, C=capacity - 1))
    pi_prev = oracle_stationary(q_prev)
    dev_prev = oracle_deviation(q_prev, pi_prev)
    t = t_generator(blocks, capacity)
    t_sharp = t_group_inverse(dev_prev, pi_prev, blocks)
    return pi_prev, dev_prev, t, t_sharp


@pytest.mark.parametrize("seed,n,c", [(0, 1, 3), (1, 2, 4), (2, 3, 5)])
def test_group_inverse_axioms(seed, n, c):
    blocks = random_blocks(n, c, np.random.default_rng(seed))
    _, _, t, t_sharp = ladder_ingredients(blocks, c)
    np.testing.assert_allclose(t @ t_sharp @ t, t, atol=1e-9)
    np.testing.assert_allclose(t_sharp @ t @ t_sharp, t_sharp, atol=1e-9)
    np.testing.assert_allclose(t @ t_sharp, t_sharp @ t, atol=1e-9)


def test_group_inverse_bottom_right_block(scalar_pr):
    _, _, _, t_sharp = ladder_ingredients(scalar_pr, 2)
    assert t_sharp[-1, -1] == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_group_inverse_annihilated_by_phi(seed):
    blocks = random_blocks(2, 4, np.random.default_rng(seed))
    pi_prev, _, _, t_sharp = ladder_ingredients(blocks, 4)
    phi = np.concatenate([pi_prev, np.zeros(2)])
    np.testing.assert_allclose(phi @ t_sharp, 0.0, atol=1e-10)


@pytest.mark.parametrize("seed,n,c", [(0, 2, 3), (1, 3, 4)])
def test_block_update_reconstructs_generator(seed, n, c):
    blocks = random_blocks(n, c, np.random.default_rng(seed))
    update = block_update(blocks, c)
    t = t_generator(blocks, c)
    size = n * (c + 1)
    e_k = np.zeros((size, n))
    e_k[update.K * n:(update.K + 1) * n] = np.eye(n)
    np.testing.assert_allclose(t + e_k @ update.P,
                               assemble_generator(blocks), atol=0.0)


def test_pi_step_scalar_geometric(scalar_pr):
    pi_prev, _, _, t_sharp = ladder_ingredients(scalar_pr, 2)
    np.testing.assert_allclose(pi_prev, [2 / 3, 1 / 3], atol=1e-12)
    pi = pi_step(pi_prev, t_sharp, block_update(scalar_pr, 2))
    np.testing.assert_allclose(pi, [4 / 7, 2 / 7, 1 / 7], atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_pi_step_stationarity(seed):
    blocks = random_blocks(2, 5, np.random.default_rng(seed))
    pi_prev, _, _, t_sharp = ladder_ingredients(blocks, 5)
    pi = pi_step(pi_prev, t_sharp, block_update(blocks, 5))
    q = assemble_generator(blocks)
    assert np.max(np.abs(pi @ q)) <= 1e-10
    assert pi.sum() == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(pi, stationary_rmatrix(blocks).stacked(),
                               atol=1e-10)


def test_deviation_update_null_perturbation():
    blocks = random_blocks(2, 3, np.random.default_rng(5))
    q = assemble_generator(blocks)
    pi = oracle_stationary(q)
    dev = oracle_deviation(q, pi)
    update = block_update(blocks, 3)
    null_update = type(update)(K=update.K, P=np.zeros_like(update.P))
    np.testing.assert_allclose(deviation_update(dev, pi, null_update), dev,
                               atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_deviation_update_defining_identity(seed):
    blocks = random_blocks(2, 4, np.random.default_rng(seed))
    _, _, _, t_sharp = ladder_ingredients(blocks, 4)
    update = block_update(blocks, 4)
    pi = stationary_rmatrix(blocks).stacked()
    dev = deviation_update(-t_sharp, pi, update)
    q = assemble_generator(blocks)
    size = q.shape[0]
    np.testing.assert_allclose(q @ dev, np.outer(np.ones(size), pi)
                               - np.eye(size), atol=1e-9)


def test_deviation_update_two_forms_agree():
    # low-rank form vs the direct full-size inverse it replaces
    blocks = random_blocks(2, 4, np.random.default_rng(11))
    _, _, _, t_sharp = ladder_ingredients(blocks, 4)
    update = block_update(blocks, 4)
    pi = stationary_rmatrix(blocks).stacked()
    dev = -t_sharp
    size = dev.shape[0]
    e_k = np.zeros((size, 2))
    e_k[update.K * 2:(update.K + 1) * 2] = np.eye(2)
    direct = (np.eye(size) - np.outer(np.ones(size), pi)) @ dev \
        @ np.linalg.inv(np.eye(size) - e_k @ update.P @ dev)
    low_rank = deviation_update(dev, pi, update)
    assert np.max(np.abs(direct - low_rank)) <= 1e-10


def test_ladder_base_case_two_state(two_state):
    state = deviation_recursive(two_state)
    expected = np.array([[0.25, -0.25], [-0.25, 0.25]])
    np.testing.assert_allclose(state.dev, expected, atol=1e-12)


def test_ladder_matches_oracle(scalar_pr):
    state = deviation_recursive(scalar_pr)
    q = assemble_generator(scalar_pr)
    reference = oracle_deviation(q)
    assert np.linalg.norm(state.dev - reference) <= 1e-9


def test_ladder_matches_diffeq_on_mapph():
    blocks = mapph_example(C=5)
    state = deviation_recursive(blocks)
    assembled = deviation_matrix_diffeq(blocks)
    rel = np.linalg.norm(state.dev - assembled) / np.linalg.norm(state.dev)
    assert rel <= 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_ladder_every_rung_consistent(seed):
    blocks = random_blocks(2, 6, np.random.default_rng(seed))
    rungs = deviation_recursive(blocks, return_all=True)
    for state in rungs:
        q = assemble_generator(replace(blocks, C=state.level_count))
        np.testing.assert_allclose(state.pi @ q, 0.0, atol=1e-10)
        reference = oracle_deviation(q, oracle_stationary(q))
        assert np.linalg.norm(state.dev - reference) \
            / np.linalg.norm(reference) <= 1e-8


def test_resolvent_inverse_identity(scalar_pr):
    q = assemble_generator(scalar_pr)
    s = 1.0
    resolvent, _ = resolvent_recursive(scalar_pr, s, oracle_stationary(q))
    np.testing.assert_allclose(resolvent @ (s * np.eye(3) - q), np.eye(3),
                               atol=1e-9)
    np.testing.assert_allclose(resolvent, np.linalg.inv(s * np.eye(3) - q),
                               atol=1e-12)


@pytest.mark.parametrize("model,s", [
    ("random", 0.5), ("random", 1.0), ("random", 2.0 + 1.0j),
    ("queue", 0.3 + 2.5j)], ids=["0.5", "1.0", "(2+1j)", "queue-(0.3+2.5j)"])
def test_resolvent_transform_matches_blocks(model, s):
    blocks = (random_blocks(2, 4, np.random.default_rng(3))
              if model == "random" else mapph_example(C=15))
    _, dtilde = resolvent_recursive(blocks, s,
                                    deviation_recursive(blocks).pi)
    pi = stationary_rmatrix(blocks)
    assembled = deviation_transform(transform_context(blocks, s), pi)
    assert np.max(np.abs(dtilde - assembled)) <= 1e-8
