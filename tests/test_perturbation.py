import tracemalloc

import numpy as np
import pytest

from qbdr import (UpdateError, assemble_generator, block_update,
                  deviation_matrix_diffeq, deviation_recursive,
                  deviation_time_recursive, deviation_update, inversion_nodes,
                  oracle_deviation, oracle_stationary, pi_step, random_blocks,
                  resolvent_recursive, stationary_rmatrix, t_group_inverse,
                  transform_context, deviation_transform)
from conftest import mapph_example, t_generator


def ladder_ingredients(blocks, capacity):
    """Previous-rung pi and deviation, plus T and its group inverse."""
    q_prev = assemble_generator(blocks.with_capacity(capacity - 1))
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
    np.testing.assert_allclose(pi, stationary_rmatrix(blocks).reshape(-1),
                               atol=1e-10)


def test_pi_step_reads_only_top_two_levels():
    blocks = random_blocks(2, 5, np.random.default_rng(6))
    pi_prev, _, _, t_sharp = ladder_ingredients(blocks, 5)
    update = block_update(blocks, 5)
    poisoned = t_sharp.copy()
    poisoned[:-4] = np.nan
    np.testing.assert_array_equal(pi_step(pi_prev, poisoned, update),
                                  pi_step(pi_prev, t_sharp, update))
    with pytest.raises(ValueError, match="second-to-last"):
        pi_step(pi_prev, t_sharp, update._replace(K=2))


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
    pi = stationary_rmatrix(blocks).reshape(-1)
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
    pi = stationary_rmatrix(blocks).reshape(-1)
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
    # the rungs below C do not depend on C, so the ladder to each c
    # climbs the same rungs as the ladder to 6
    blocks = random_blocks(2, 6, np.random.default_rng(seed))
    for c in range(1, 7):
        state = deviation_recursive(blocks.with_capacity(c))
        q = assemble_generator(blocks.with_capacity(c))
        np.testing.assert_allclose(state.pi @ q, 0.0, atol=1e-10)
        reference = oracle_deviation(q, oracle_stationary(q))
        assert np.linalg.norm(state.dev - reference) \
            / np.linalg.norm(reference) <= 1e-8


def composed_ladder(blocks):
    """Reference: the ladder as a composition of the one-rung public
    functions, each rung in new arrays."""
    q1 = assemble_generator(blocks.with_capacity(1))
    pi = oracle_stationary(q1)
    one_pi = np.outer(np.ones(q1.shape[0]), pi)
    dev = np.linalg.inv(one_pi - q1) - one_pi
    for c in range(2, blocks.C + 1):
        t_sharp = t_group_inverse(dev, pi, blocks)
        update = block_update(blocks, c)
        pi = pi_step(pi, t_sharp, update)
        dev = deviation_update(-t_sharp, pi, update)
    return pi, dev


def unfiltered_models(seed, count, step=5):
    """Every ``step``-th model of the unfiltered random set."""
    for i in range(0, count, step):
        yield random_blocks(1 + i % 4, 3 + (7 * i) % 80,
                            np.random.default_rng([seed, i]), min_drift=0.05)


@pytest.mark.parametrize("models", ["seed7", "seed8", "queue"])
def test_in_place_ladder_matches_composed_ladder(models):
    if models == "queue":
        cases = [mapph_example(C=30), mapph_example(C=30, swapped=True)]
    else:
        cases = unfiltered_models(*{"seed7": (7, 60), "seed8": (8, 40)}[models])
    for blocks in cases:
        pi, dev = composed_ladder(blocks)
        state = deviation_recursive(blocks)
        assert _rel_gap(state.pi, pi) <= 1e-12
        assert _rel_gap(state.dev, dev) <= 1e-12


def test_ladder_peak_memory():
    blocks = random_blocks(4, 80, np.random.default_rng(1))
    size = 4 * 81
    tracemalloc.start()
    try:
        deviation_recursive(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * size ** 2 * 8


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


def full_resolvent_ladder(blocks, s):
    """Reference: the full (C+1)n square resolvent at one node, each rung
    extending it by the transient top level and taking the Woodbury step
    with P x over every row."""
    n = blocks.n
    lower = np.linalg.inv(s * np.eye(n) - blocks.C0)
    x = np.linalg.inv(s * np.eye(2 * n)
                      - assemble_generator(blocks.with_capacity(1)))
    for c in range(2, blocks.C + 1):
        size = x.shape[0]
        ext = np.zeros((size + n, size + n), dtype=complex)
        ext[:size, :size] = x
        ext[size:, :size] = lower @ blocks.A_minus1 @ x[size - n:]
        ext[size:, size:] = lower
        update = block_update(blocks, c)
        cols = slice(update.K * n, (update.K + 1) * n)
        px = update.P @ ext
        x = ext + ext[:, cols] @ np.linalg.solve(np.eye(n) - px[:, cols], px)
    return x


def _rel_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("t", [0.5, 10.0])
@pytest.mark.parametrize("model", ["random-n2", "random-n3", "queue"])
def test_resolvent_rows_match_full_ladder(model, t):
    if model == "queue":
        blocks = mapph_example(C=15)
    else:
        n = int(model[-1])
        blocks = random_blocks(n, 12 - n, np.random.default_rng(n))
    n, C = blocks.n, blocks.C
    nodes = inversion_nodes(t)
    pi = deviation_recursive(blocks).pi
    full = np.array([full_resolvent_ladder(blocks, s) for s in nodes])
    dtilde = full / nodes[:, None, None] - pi / nodes[:, None, None] ** 2
    targets = [0, 1, C // 2, C]
    for levels in [[k] for k in targets] + [targets]:
        rows = _state_indices(levels, n)
        for columns in [None, levels, [0], [C - 1], [C], [0, C - 1, C]]:
            cols = _state_indices(range(C + 1) if columns is None
                                  else columns, n)
            resolvent, dt = resolvent_recursive(blocks, nodes, pi, levels,
                                                columns)
            assert resolvent.shape == (len(nodes), len(rows), len(cols))
            assert _rel_gap(resolvent, full[:, rows][..., cols]) <= 1e-12
            assert _rel_gap(dt, dtilde[:, rows][..., cols]) <= 1e-12


def _state_indices(levels, n):
    return np.concatenate([np.arange(k * n, (k + 1) * n) for k in levels])


@pytest.mark.parametrize("at", ["scalar", "nodes"])
@pytest.mark.parametrize("C", [1, 3, 4, 5, 8, 9])
def test_multilevel_rungs_match_single_level_ladder(C, at):
    # rungs of four levels above the dense seed at capacity (C - 1) % 4 + 1,
    # against the one-level reference: targets at the seed's levels and at
    # the first, interior and top levels of every band, and all levels
    blocks = random_blocks(2 + C % 2, C, np.random.default_rng(C))
    n, top = blocks.n, (C - 1) % 4 + 1
    firsts = list(range(top + 1, C + 1, 4))
    targets = [sorted({0, top - 1, top}), firsts,
               sorted([k + 1 for k in firsts] + [k + 2 for k in firsts]),
               [k + 3 for k in firsts], None]
    targets = [levels for levels in targets if levels != []]
    s = 0.4 + 1.5j if at == "scalar" else inversion_nodes(2.0)
    pi = deviation_recursive(blocks).pi
    nodes = np.asarray(s)[..., None, None]
    full = np.array([full_resolvent_ladder(blocks, node)
                     for node in np.ravel(s)]).reshape(nodes.shape[:-2]
                                                       + (n * (C + 1),) * 2)
    dtilde = full / nodes - pi / nodes ** 2
    for levels in targets:
        rows = _state_indices(range(C + 1) if levels is None else levels, n)
        for columns in targets:
            cols = _state_indices(range(C + 1) if columns is None
                                  else columns, n)
            resolvent, dt = resolvent_recursive(blocks, s, pi, levels,
                                                columns)
            assert resolvent.shape == np.shape(s) + (len(rows), len(cols))
            assert _rel_gap(resolvent, full[..., rows, :][..., cols]) <= 1e-12
            assert _rel_gap(dt, dtilde[..., rows, :][..., cols]) <= 1e-12


def test_resolvent_all_levels_is_full_resolvent():
    blocks = random_blocks(3, 6, np.random.default_rng(8))
    nodes = inversion_nodes(2.0)
    pi = deviation_recursive(blocks).pi
    full = np.array([full_resolvent_ladder(blocks, s) for s in nodes])
    every, _ = resolvent_recursive(blocks, nodes, pi, range(blocks.C + 1))
    default, _ = resolvent_recursive(blocks, nodes, pi)
    assert _rel_gap(every, full) <= 1e-12
    np.testing.assert_array_equal(default, every)


def test_resolvent_singular_rung_names_capacity(monkeypatch):
    # at C = 14 the ladder solves for the seed at capacity 2, then climbs
    # rungs of four levels to 6, 10 and 14: the third solve is the rung to 10
    blocks = random_blocks(2, 14, np.random.default_rng(1))
    pi = deviation_recursive(blocks).pi
    solve, calls = np.linalg.solve, []

    def failing_third_solve(*args):
        calls.append(args)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", failing_third_solve)
    with pytest.raises(UpdateError, match="capacity 10"):
        resolvent_recursive(blocks, inversion_nodes(1.0), pi, [2])


@pytest.mark.parametrize("targets", [[1, 1], [0, 7], [2.0]],
                         ids=["repeated", "outside", "float"])
def test_resolvent_rejects_bad_levels(targets):
    blocks = random_blocks(2, 6, np.random.default_rng(1))
    pi = deviation_recursive(blocks).pi
    for axis in ("levels", "columns"):
        with pytest.raises(ValueError, match=f"{axis} .* in 0..6"):
            resolvent_recursive(blocks, 1.0, pi, **{axis: targets})


@pytest.mark.parametrize("block", [(0, 0), (7, 3), (12, 0), (0, 12),
                                   (11, 12), (12, 12)],
                         ids=lambda b: f"{b[0]},{b[1]}")
def test_block_ladder_carries_at_most_three_levels(monkeypatch, block):
    # the O((C/4) n^3) shape: one Woodbury step per rung of four levels,
    # each on the target block row, the old top level, the band's first
    # level and the new top, and on the target block column, the old top
    # and the new top, whatever the capacity
    import qbdr.perturbation as perturbation
    blocks = random_blocks(2, 12, np.random.default_rng(5))
    shapes, woodbury = [], perturbation._woodbury
    monkeypatch.setattr(perturbation, "_woodbury",
                        lambda x, *args: shapes.append(x.shape)
                        or woodbury(x, *args))
    deviation_time_recursive(blocks, 2.0, block=block)
    assert len(shapes) == (blocks.C - 1) // 4
    assert all(shape[-2] <= 4 * 2 and shape[-1] <= 3 * 2
               for shape in shapes)


def test_woodbury_rejects_update_below_top():
    blocks = random_blocks(2, 4, np.random.default_rng(2))
    update = block_update(blocks, 4)
    dev = deviation_recursive(blocks).dev
    with pytest.raises(ValueError, match="second-to-last"):
        deviation_update(dev, np.ones(10) / 10, update._replace(K=2))


@pytest.mark.parametrize("block", [None, (3, 1)], ids=["full", "block"])
def test_time_split_stacks_match_one_call(monkeypatch, block):
    # all 41 nodes of the band in one ladder call, then one call per node
    import qbdr.perturbation as perturbation
    import qbdr.transform as transform
    blocks = random_blocks(2, 10, np.random.default_rng(4))
    calls, ladder = [], perturbation.resolvent_recursive
    monkeypatch.setattr(perturbation, "resolvent_recursive",
                        lambda *args: calls.append(args) or ladder(*args))
    one_call = deviation_time_recursive(blocks, 2.0, block=block)
    monkeypatch.setattr(transform, "_STACK_ENTRIES", 1)
    split = deviation_time_recursive(blocks, 2.0, block=block)
    assert len(calls) == 1 + 41
    assert one_call.shape == ((2, 2) if block else (22, 22))
    assert np.max(np.abs(split - one_call)) \
        <= 1e-12 * np.max(np.abs(one_call))
