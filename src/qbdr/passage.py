"""Mean first passage times and asymptotic deviation matrices.

The passage times to a target state (l, j) solve Q m = -1 off the target,
with m = 0 on it, and column (l, j) of the deviation matrix solves
Q d = pi_(l,j) 1 - e_(l,j).  Both go by the level reduction of
:mod:`qbdr.stationary`: one sweep from each end censors the levels above
and below one level, carrying the forcing (1, or I - 1 pi) along; the
taboo system left on that level is solved with one entry pinned at zero,
and the solution climbs back out by x_k = X_k x_(k-+1) + y_k.  For passage
times the pinned entry is the target, and X_k and y_k are nonnegative; for
D it is the most probable state, and the centring d - 1 (pi d) follows.
A finite chain has finite passage times and a deviation matrix whatever
its drift.

Entry (k i, l j) of the deviation matrix equals
pi_(l,j) [ M_pi(l,j) - M_(k,i)(l,j) ] where M holds mean first entrance
times, and :func:`deviation_block_asymptotic` forms blocks that way.  The
entries of a passage column can all lie close to one large value, though,
and the subtraction cancels their leading digits, so
:func:`deviation_matrix_diffeq`, which the CLI uses for D and for its
block columns, solves for the deviation columns themselves.
"""

import warnings
from typing import NamedTuple

import numpy as np

from .model import require_finite
from .stationary import _negated, _solve, _sweep, stationary_rmatrix
from .transform import levels_in_range

__all__ = [
    "PassageColumn",
    "passage_column",
    "passage_level_matrices",
    "deviation_block_asymptotic",
    "deviation_matrix_diffeq",
]


class PassageColumn(NamedTuple):
    """Mean first passage times to state (target_level, target_phase).

    ``m[k][i]`` is the expected entrance time from level k, phase i; the
    target entry is exactly zero.
    """

    target_level: int
    target_phase: int
    m: tuple
    residual: float

    def stacked(self):
        return np.concatenate(self.m)


def _column_residual(blocks, level, j, m):
    """Max-norm residual of the pinned taboo system for the column ``m``.

    The generator is applied level by level as a block-tridiagonal product
    over the stacked (C+1, n) levels, O(C n^2), rather than assembled.  Every
    row's right-hand side is -1 except the pinned target row, whose row is
    -e^T with right-hand side 0, so its residual is -m[level][j].
    """
    x = np.asarray(m)
    y = x @ blocks.A0.T
    y[0] = blocks.B0 @ x[0]
    y[-1] = blocks.C0 @ x[-1]
    y[1:] += x[:-1] @ blocks.A_minus1.T
    y[:-1] += x[1:] @ blocks.A1.T
    y += 1.0
    y[level, j] = -x[level, j]
    return float(np.max(np.abs(y)))


def passage_column(blocks, level, j):
    """Mean first passage times from every state to target (level, j).

    Phases are 0-based.  The column j of :func:`passage_level_matrices`,
    which raises the same errors, with the max-norm residual of its pinned
    taboo system.
    """
    if not levels_in_range([j], blocks.n - 1):
        raise ValueError(f"target phase {j} out of range 0..{blocks.n - 1}")
    m = passage_level_matrices(blocks, level)[:, :, j]
    return PassageColumn(target_level=level, target_phase=j, m=tuple(m),
                         residual=_column_residual(blocks, level, j, m))


def passage_level_matrices(blocks, level):
    """All blocks M_{k, level}, k = 0..C, for one target level, stacked
    as a (C+1, n, n) array.

    Column j of M_{k, level} holds the passage times to (level, j).  The
    levels above and below ``level`` are censored once for all n phases,
    leaving a conservative block T and a forcing r on ``level``; column j
    there solves -T m = r without row and column j.

    Raises
    ------
    StructuralError
        If a block holds a NaN or infinite entry.
    NumericalError
        If a censored level block is singular.
    """
    n, C = blocks.n, blocks.C
    if not levels_in_range([level], C):
        raise ValueError(f"target level {level} out of range 0..{C}")
    require_finite(blocks)
    return _level_reduction(blocks, level, np.ones((C + 1, n, 1)),
                            np.arange(n))


def _level_reduction(blocks, level, force, pins):
    """The solution x, shape (C + 1, n, len(pins)), of (Q x)_k = -force_k
    (``force`` (C + 1, n, 1) or (C + 1, n, len(pins))) on every row but
    the state (level, pins[c]) of column c, where x is zero instead.

    The levels above and below ``level`` are censored by two sweeps
    (:func:`qbdr.stationary._sweep`), which leave on ``level`` the
    conservative block T and the forcing r; column c there solves -T x = r
    without row and column pins[c], and the sweeps' x_k = X_k x_(k-+1) + y_k
    climb back out from it.
    """
    n, C = blocks.n, blocks.C
    down, y_down, inflow_down, force_down = _sweep(blocks, level, force)
    up, y_up, inflow_up, force_up = _sweep(blocks, level, force, up=True)
    off = (blocks.B0 if level == 0 else blocks.C0 if level == C
           else blocks.A0) + inflow_down + inflow_up
    np.fill_diagonal(off, 0.0)
    taboo = _negated(off)
    rhs = np.broadcast_to(force[level] + force_down + force_up,
                          (n, len(pins)))
    cols = np.arange(len(pins))[:, None]
    # row c: the phases other than pins[c], in increasing order
    rest = np.arange(n - 1) + (np.arange(n - 1) >= np.asarray(pins)[:, None])
    x = np.empty((C + 1, n, len(pins)))
    x[level] = 0.0
    x[level][rest, cols] = _solve(taboo[rest[:, :, None], rest[:, None, :]],
                                  rhs[rest, cols][..., None])[..., 0]
    for k, step, y in zip(range(level + 1, C + 1),
                          down[::-1] @ blocks.A_minus1, y_down[::-1]):
        x[k] = step @ x[k - 1] + y
    for k, step, y in zip(range(level - 1, -1, -1),
                          up[::-1] @ blocks.A1, y_up[::-1]):
        x[k] = step @ x[k + 1] + y
    return x


def deviation_block_asymptotic(blocks, pi, k, level):
    """Asymptotic deviation block D_{k, level} from passage times.

    D_{k,l} = [ 1 (sum_x pi_x M_{x,l}) - M_{k,l} ] diag(pi_l).  Raises
    ValueError if k or ``level`` is outside 0..C.
    """
    n, C = blocks.n, blocks.C
    if not levels_in_range((k, level), C):
        raise ValueError(f"block ({k}, {level}) out of range 0..{C}")
    mats = passage_level_matrices(blocks, level)
    pi_level = np.asarray(pi[level])
    if np.any((pi_level != 0) & (np.abs(pi_level) < 1e-300)):
        warnings.warn(f"stationary weights at level {level} underflow",
                      RuntimeWarning, stacklevel=2)
    mean_row = np.zeros(n)
    for x in range(C + 1):
        mean_row = mean_row + np.asarray(pi[x]) @ mats[x]
    return (np.outer(np.ones(n), mean_row) - mats[k]) * pi_level


def deviation_matrix_diffeq(blocks, pi=None, levels=None):
    """Asymptotic deviation matrix by level reduction: the block columns
    ``levels`` of D, shape (n(C+1), n len(levels)), or all of D with
    ``levels`` None.

    Column (l, j) of D solves Q d = pi_(l,j) 1 - e_(l,j) with pi d = 0.  Q
    is singular, so the levels are censored towards the level of the most
    probable state r, whose equation gives way to the pin d_r = 0 as a
    passage target's does; the centring d - 1 (pi d) then restores
    pi d = 0.  All the columns share the two sweeps.  A finite chain has a
    deviation matrix whatever its drift, so null-recurrent models are
    accepted.  The name is kept from the difference-equation route this
    replaced: ``qbdr deviation --method diffeq`` selects it.

    Raises
    ------
    StructuralError
        If a block holds a NaN or infinite entry.
    NumericalError
        If a censored level block is singular.
    ValueError
        If a level is outside 0..C.
    """
    n, C = blocks.n, blocks.C
    levels = range(C + 1) if levels is None else levels
    if not levels_in_range(levels, C):
        raise ValueError(f"target levels {levels} out of range 0..{C}")
    require_finite(blocks)
    if pi is None:
        pi = stationary_rmatrix(blocks)
    row = np.concatenate([np.asarray(pi[k]) for k in range(C + 1)])
    targets = row.reshape(C + 1, n)[list(levels)].reshape(-1)
    force = np.broadcast_to(-targets, (C + 1, n, targets.size)).copy()
    for i, level in enumerate(levels):
        force[level, :, i * n:(i + 1) * n] += np.eye(n)
    level, j = divmod(int(np.argmax(row)), n)
    d = _level_reduction(blocks, level, force, np.full(targets.size, j))
    d = d.reshape(row.size, targets.size)
    return d - row @ d
