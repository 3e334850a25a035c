"""The boundary-system kernel on a general forcing, and against the paper's
system in its stacked-power form.

:class:`conftest.StackedBoundarySystem` reads every power of G and Ghat from
the sequential stacks 0..top and evaluates the solution level by level, as
the kernel did before it squared the few end powers its rows read and swept
the solution from the free vectors; it also splits the levels into runs and
pins one state, as the paper's s = 0 systems do.  Every transform route
below is run once with each, and the two must agree to 1e-12 relative in
the max-norm; the s = 0 routes, which go by level reduction, must agree
with the paper's pinned systems as closely.
"""

import numpy as np
import pytest

import qbdr.transform as transform
from qbdr import (assemble_generator, deviation_matrix_diffeq, gmatrices,
                  deviation_transform, deviation_transform_block,
                  inversion_nodes, lost_revenue_rewards,
                  passage_level_matrices, random_blocks, reward_transform,
                  stationary_rmatrix, transform_context)
from qbdr.diffeq import BoundarySystem
from conftest import (StackedBoundarySystem, mapph_example,
                      pinned_deviation_matrix, pinned_passage_matrices)

TOL = 1e-12


def green_sum(gmat, f, k):
    """The particular term at level k, term by term:
    sum_{l=1}^{k} G^{k-l} a_l + sum_{l=k+1}^{top} Ghat^{l-k} a_l with the
    atoms a_l = -H0 f_l."""
    def term(g, e, level):
        return -np.linalg.matrix_power(g, e) @ gmat.H0 @ f[level]
    return (sum(term(gmat.G, k - lv, lv) for lv in range(1, k + 1))
            + sum(term(gmat.Ghat, lv - k, lv)
                  for lv in range(k + 1, len(f))))


def _max_gap(value, reference):
    return np.max(np.abs(value - reference)) / np.max(np.abs(reference))


@pytest.mark.parametrize("segments", [[(0, 12)], [(0, 4), (5, 12)]])
def test_general_forcing_at_complex_nodes(segments):
    # three right-hand-side columns forced at every level, at a batch of
    # nodes: the kernel's solution, and that of the paper's system on the
    # runs ``segments``, meet every level equation (Q - sI) x = f
    blocks = random_blocks(3, 12, np.random.default_rng(11))
    nodes = np.array([0.3 + 2.0j, 1.5 - 0.5j, 4.0 + 0.0j])
    gmat = gmatrices(blocks, nodes)
    rng = np.random.default_rng(12)
    f = rng.normal(size=(13, 3, 3, 3)) + 1j * rng.normal(size=(13, 3, 3, 3))
    system = BoundarySystem(blocks, gmat, f)
    q = assemble_generator(blocks)
    for solution in (system.solve(), StackedBoundarySystem(
            blocks, gmat, f, segments=segments).solve()):
        x = np.moveaxis(solution, 0, 1).reshape(3, 39, 3)
        for node, xs, fs in zip(nodes, x,
                                np.moveaxis(f, 0, 1).reshape(3, 39, 3)):
            residual = (q - node * np.eye(39)) @ xs - fs
            assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(fs))
    for k in range(13):
        assert _max_gap(system.p[k], green_sum(gmat, f, k)) <= 1e-12


def test_general_forcing_at_zero_with_pin():
    # Q is singular: a forcing with pi f = 0 keeps Q x = f solvable, so in
    # the paper's pinned system the equation of the pinned state holds too
    # once the others do
    blocks = random_blocks(3, 12, np.random.default_rng(11))
    pi = stationary_rmatrix(blocks).reshape(-1)
    rng = np.random.default_rng(13)
    flat = rng.normal(size=(39, 4))
    flat -= np.outer(np.ones(39), pi @ flat)
    f = flat.reshape(13, 3, 4)
    gmat = gmatrices(blocks)
    system = StackedBoundarySystem(blocks, gmat, f,
                                   segments=[(0, 6), (7, 12)])
    x = system.solve((6, 1))
    assert np.max(np.abs(x[6, 1])) <= 1e-12 * np.max(np.abs(x))
    residual = assemble_generator(blocks) @ x.reshape(39, 4) - flat
    assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(flat))
    for k in range(13):
        assert _max_gap(system.p[k], green_sum(gmat, f, k)) <= 1e-12


@pytest.mark.parametrize("segments", [
    [(0, 12)], [(0, 4), (5, 12)], [(0, 3), (4, 4), (5, 12)]],
    ids=["one-run", "two-runs", "one-level-run"])
@pytest.mark.parametrize("blocks", [
    mapph_example(C=12), random_blocks(3, 12, np.random.default_rng(6))],
    ids=["queue", "n3"])
def test_level_read_matches_swept_column(blocks, segments):
    # block columns forced by -E_l / s at their target level l, at complex
    # nodes: the kernel's read at each level k from its two end powers is
    # level k of its swept solution to roundoff, and the paper's system
    # on the runs ``segments`` reads the same value from the end powers of
    # the run that holds k.  One forced level l >= 1 takes p_k from the
    # table of squares, which is the Green's sum; level 0 is no atom
    nodes = np.array([0.5 + 3.0j, 2.0 - 1.0j, 7.0 + 0.0j])
    divisor = nodes[:, None, None]
    gmat = gmatrices(blocks, nodes)
    n = blocks.n
    for target in (0, 1, 5, 11, 12):
        f = np.zeros((13, n, n))
        f[target] = -np.eye(n)
        system = BoundarySystem(blocks, gmat, f, divisor=divisor)
        runs = StackedBoundarySystem(blocks, gmat, f, divisor=divisor,
                                     segments=segments)
        swept = system.solve()
        for k in range(13):
            assert _max_gap(system.solve(level=k), swept[k]) <= 1e-14, (
                target, k)
            assert _max_gap(runs.solve(level=k), swept[k]) <= TOL, (target, k)
            if target:
                assert _max_gap(system._particular_at(k),
                                green_sum(gmat, f, k) / divisor) <= TOL
        assert target or not system.p.any()


def test_deviation_block_reads_its_row_level_only(monkeypatch):
    # a transformed deviation block and its inverse never sweep the
    # solution over the levels of its column
    blocks = mapph_example(C=12)
    pi = stationary_rmatrix(blocks)
    ctx = transform_context(blocks, inversion_nodes(2.0))
    full = deviation_transform(ctx, pi)

    def swept(self, u):
        raise AssertionError("BoundarySystem.evaluate called")

    monkeypatch.setattr(BoundarySystem, "evaluate", swept)
    for k, level in ((0, 0), (3, 9), (12, 0), (12, 12)):
        block = deviation_transform_block(ctx, pi, k, level)
        assert _max_gap(block, full[..., 4 * k:4 * k + 4,
                                    4 * level:4 * level + 4]) <= 1e-12
    transform.deviation_time(blocks, 2.0, pi, block=(3, 9))


def test_one_level_forcing_sweeps_no_particular_term(monkeypatch):
    # a block column forces one level, or none at level 0, and the
    # lost-revenue reward forces level C only: their particular terms are
    # read from the table of squares or carried in the solution's sweeps,
    # never swept on their own
    import qbdr.diffeq as diffeq
    blocks = mapph_example(C=12)
    pi = stationary_rmatrix(blocks)
    ctx = transform_context(blocks, inversion_nodes(2.0))

    def sweep(*args):
        raise AssertionError("diffeq.particular called")

    monkeypatch.setattr(diffeq, "particular", sweep)
    for k, level in ((0, 0), (3, 9), (12, 1), (0, 12)):
        deviation_transform_block(ctx, pi, k, level)
    transform.deviation_time(blocks, 2.0, pi, block=(3, 9))
    transform.reward_time(blocks, lost_revenue_rewards(blocks, 1.0),
                          np.array([0.5, 2.0, 6.0]))


def test_table_powers_match_matrix_power():
    # every power is the squares of its exponent's bits multiplied in
    # np.linalg.matrix_power's order, so at real nodes, where the kernel's
    # products are plain matmuls, it is that function's value per node to
    # the last bit, up to 2C; complex products go through real ones and
    # agree to roundoff (test_transform)
    blocks = random_blocks(3, 12, np.random.default_rng(6))
    nodes = np.array([0.3, 1.0, 7.5])
    gmat = gmatrices(blocks, nodes)
    system = BoundarySystem(blocks, gmat, np.zeros((13, 3, 1)))
    for which, g in enumerate((gmat.G, gmat.Ghat)):
        for e in range(2 * blocks.C + 1):
            power = system._power(which, e)
            for node in range(len(nodes)):
                assert np.array_equal(
                    power[node], np.linalg.matrix_power(g[node], e)), (
                        which, e, node)


def _gap_to_stacked(monkeypatch, compute):
    """The relative max-norm gap between compute() with the kernel and
    with the stacked-power reference."""
    new = np.asarray(compute())
    with monkeypatch.context() as patch:
        patch.setattr(transform, "BoundarySystem", StackedBoundarySystem)
        reference = np.asarray(compute())
    assert new.shape == reference.shape
    return _max_gap(new, reference)


@pytest.mark.parametrize("blocks", [
    random_blocks(2, 30, np.random.default_rng(3)),
    random_blocks(3, 25, np.random.default_rng(4)),
    random_blocks(4, 20, np.random.default_rng(5))], ids=["n2", "n3", "n4"])
def test_passage_runs_match_stacked_kernel(blocks):
    # Level reduction against the paper's pinned system, whose runs split
    # at the target level: a boundary target keeps one run, C // 2 splits
    # it mid-run and C - 1 leaves a one-level last run (C, C).  The two
    # agree to 1e-12 only where the paper's system is well conditioned: on
    # the blocking queue the passage times reach 1e9 at C = 20, and it
    # misses the exact times by ~1e-5 relative.
    C = blocks.C
    for level in (0, C // 2, C - 1, C):
        gap = _max_gap(passage_level_matrices(blocks, level),
                       pinned_passage_matrices(blocks, level))
        assert gap <= TOL, (level, gap)


@pytest.mark.parametrize("t", [0.5, 10.0])
def test_batched_inversion_nodes_match_stacked_kernel(monkeypatch, t):
    nodes = inversion_nodes(t)
    queue = mapph_example(C=60)
    ctx = transform_context(queue, nodes)
    pi = stationary_rmatrix(queue)
    assert _gap_to_stacked(monkeypatch, lambda: reward_transform(
        ctx, lost_revenue_rewards(queue, 1.0))) <= TOL
    for k, level in ((0, 0), (17, 60), (60, 3)):
        assert _gap_to_stacked(monkeypatch, lambda: deviation_transform_block(
            ctx, pi, k, level)) <= TOL
    small = mapph_example(C=12)
    ctx = transform_context(small, nodes)
    pi = stationary_rmatrix(small)
    assert _gap_to_stacked(monkeypatch,
                           lambda: deviation_transform(ctx, pi)) <= TOL


def test_criterion_1_grid_matches_stacked_kernel(monkeypatch):
    from test_acceptance import model_grid
    worst = 0.0
    for blocks in model_grid(50, max_n=4, max_c=20):
        pi = stationary_rmatrix(blocks)
        worst = max(worst, _max_gap(deviation_matrix_diffeq(blocks, pi),
                                    pinned_deviation_matrix(blocks, pi)))
        for s in (0.1, 1.0 + 2.0j):
            ctx = transform_context(blocks, s)
            worst = max(worst, _gap_to_stacked(
                monkeypatch, lambda: deviation_transform(ctx, pi)))
    assert worst <= TOL, worst
