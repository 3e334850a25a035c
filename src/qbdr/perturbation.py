"""Capacity-ladder recursions for the full deviation matrix.

Growing the capacity from C-1 to C splits the generator as

    Q(C) = T(C) + E_{C-1} Delta(C),

where T(C) embeds Q(C-1) above a transient level-C band and the block row
Delta(C) = [0 ... 0  A0 - C0  A1] restores the interior dynamics at level
C-1.  The group inverse of T(C) is available in closed form from the
previous rung's stationary vector and deviation matrix, so the stationary
vector, the deviation matrix and the resolvent all update by one-block
low-rank formulas per rung.

Note the printed source for the group inverse of T(C) carries a typo in
its lower-left block; the form implemented here is the one that satisfies
the defining equations T X = I - W, W X = 0 (checked directly in the
tests).
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import StructuralError, UpdateError
from .model import assemble_generator
from .oracle import oracle_stationary

__all__ = [
    "CapacityLadderState",
    "BlockUpdate",
    "block_update",
    "t_group_inverse",
    "pi_step",
    "deviation_update",
    "deviation_recursive",
    "resolvent_recursive",
]


@dataclass(frozen=True)
class CapacityLadderState:
    """One rung of the ladder: capacity, stationary vector, deviation."""

    level_count: int
    pi: np.ndarray
    dev: np.ndarray


@dataclass(frozen=True)
class BlockUpdate:
    """Block-row perturbation Q = T + E_K P."""

    K: int
    P: np.ndarray


def block_update(blocks, capacity):
    """The perturbation restoring level capacity-1 interior dynamics."""
    n = blocks.n
    p = np.zeros((n, n * (capacity + 1)))
    p[:, (capacity - 1) * n:capacity * n] = blocks.A0 - blocks.C0
    p[:, capacity * n:] = blocks.A1
    return BlockUpdate(K=capacity - 1, P=p)


def _extend(x, blocks, lower, offset=0.0):
    """``x`` extended by a transient top level: [[x, 0], [lower (M x +
    offset), lower]] with M = [0 ... 0 A_minus1]."""
    n = blocks.n
    size = x.shape[0]
    out = np.zeros((size + n, size + n), dtype=np.result_type(x, lower))
    out[:size, :size] = x
    out[size:, :size] = lower @ (blocks.A_minus1 @ x[size - n:] + offset)
    out[size:, size:] = lower
    return out


def _woodbury(x, update):
    """x (I - E_K P x)^{-1} = x + x E_K (I - P x E_K)^{-1} P x, through one
    n x n solve; raises UpdateError if that system is singular."""
    n = update.P.shape[0]
    cols = slice(update.K * n, (update.K + 1) * n)
    px = update.P @ x
    try:
        scaled = np.linalg.solve(np.eye(n) - px[:, cols], px)
    except np.linalg.LinAlgError as exc:
        raise UpdateError(f"low-rank update singular: {exc}") from exc
    return x + x[:, cols] @ scaled


def t_group_inverse(dev_prev, pi_prev, blocks):
    """Group inverse of T(C) from the rung below.

    Block form: the top-left is -D(C-1), the bottom-right C0^{-1}, the
    bottom-left C0^{-1} (M D(C-1) - 1 pi(C-1)) with M = [0 ... 0 A_minus1],
    and the top-right is zero.

    Raises
    ------
    StructuralError
        If C0 is singular (not a proper sub-generator).
    """
    try:
        c0_inv = np.linalg.inv(blocks.C0)
    except np.linalg.LinAlgError as exc:
        raise StructuralError("C0 must be nonsingular") from exc
    return -_extend(dev_prev, blocks, -c0_inv, -pi_prev)


def pi_step(pi_prev, t_sharp, update):
    """Stationary vector one rung up:
    pi(C) = [pi(C-1), 0] (I + E_K Delta T^#)^{-1}.

    The inverse is applied through its low-rank form, so only an n x n
    system is solved.
    """
    n = update.P.shape[0]
    phi = np.concatenate([pi_prev, np.zeros(n)])
    pd = update.P @ t_sharp  # Delta T^#, one block row tall
    cols = slice(update.K * n, (update.K + 1) * n)
    inner = np.eye(n) + pd[:, cols]
    try:
        correction = np.linalg.solve(inner, pd)
    except np.linalg.LinAlgError as exc:
        raise UpdateError(f"stationary update singular: {exc}") from exc
    pi = phi - phi[cols] @ correction
    pi[(pi < 0) & (pi > -1e-13)] = 0.0
    return pi / pi.sum()


def deviation_update(dev, pi_new, update):
    """Deviation matrix of the one-block-updated generator.

    Given the deviation matrix ``dev`` of Q and the stationary vector of
    Qtilde = Q + E_K P, returns

        Dtilde = (I - 1 pi_new) dev (I + E_K (I - P dev E_K)^{-1} P dev),

    where the inner inverse is only one block in size.

    Raises
    ------
    UpdateError
        If the inner block system is singular.
    """
    w = _woodbury(dev, update)
    return w - pi_new @ w


def _seed(blocks):
    """Dense rung C = 1."""
    q1 = assemble_generator(replace(blocks, C=1))
    pi1 = oracle_stationary(q1)
    one_pi = np.outer(np.ones(q1.shape[0]), pi1)
    return pi1, np.linalg.inv(one_pi - q1) - one_pi


def deviation_recursive(blocks, return_all=False):
    """Full deviation matrix D(C) by climbing the capacity ladder.

    Seeds at capacity 1 with a dense fundamental-matrix solve, then applies
    the group-inverse, stationary and deviation updates once per rung.
    Returns the final :class:`CapacityLadderState` (or all rungs).

    Raises
    ------
    UpdateError
        With the failing rung noted, if an update system is singular.
    """
    pi, dev = _seed(blocks)
    state = CapacityLadderState(level_count=1, pi=pi, dev=dev)
    rungs = [state]
    for c in range(2, blocks.C + 1):
        try:
            t_sharp = t_group_inverse(state.dev, state.pi, blocks)
            update = block_update(blocks, c)
            pi = pi_step(state.pi, t_sharp, update)
            dev = deviation_update(-t_sharp, pi, update)
        except UpdateError as exc:
            raise UpdateError(f"ladder failed at capacity {c}: {exc}") from exc
        state = CapacityLadderState(level_count=c, pi=pi, dev=dev)
        if return_all:
            rungs.append(state)
    return rungs if return_all else state


def resolvent_recursive(blocks, s, pi):
    """(sI - Q(C))^{-1} and the transformed deviation matrix, recursively.

    Each rung extends the previous resolvent by the transient top level,
    with (sI - C0)^{-1} where the group inverse has -C0^{-1}, and takes the
    deviation ladder's Woodbury step.  ``pi`` is the stationary vector of
    Q(C), which does not depend on s, for

        Dtilde(C)(s) = (1/s)(sI - Q(C))^{-1} - (1/s^2) 1 pi(C).

    Returns (resolvent, dtilde).
    """
    n = blocks.n
    lower = np.linalg.inv(s * np.eye(n) - blocks.C0)
    q1 = assemble_generator(replace(blocks, C=1))
    resolvent = np.linalg.inv(s * np.eye(2 * n) - q1)
    for c in range(2, blocks.C + 1):
        try:
            resolvent = _woodbury(_extend(resolvent, blocks, lower),
                                  block_update(blocks, c))
        except UpdateError as exc:
            raise UpdateError(
                f"resolvent ladder failed at capacity {c}: {exc}") from exc
    return resolvent, resolvent / s - pi / s ** 2
