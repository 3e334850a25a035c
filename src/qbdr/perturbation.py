"""Capacity-ladder recursions for the full deviation matrix.

Growing the capacity from C-1 to C splits the generator as

    Q(C) = T(C) + E_{C-1} Delta(C),

where T(C) embeds Q(C-1) above a transient level-C band and the block row
Delta(C) = [0 ... 0  A0 - C0  A1] restores the interior dynamics at level
C-1.  The group inverse of T(C) is available in closed form from the
previous rung's stationary vector and deviation matrix, so the stationary
vector, the deviation matrix and the resolvent all update by one-block
low-rank formulas per rung.

The resolvent ladder climbs four levels per rung and carries only the
block rows and columns asked for, plus the top level: a block of D(t)
costs O((C/4) n^3) per Laplace node plus one inverse of size 4n, and the
41 nodes of every inversion band of a t-grid climb it as one stack.  A
full D(t) carries every row and column and splits the nodes at the memory
cap shared with :mod:`qbdr.transform`.

Note the printed source for the group inverse of T(C) carries a typo in
its lower-left block; the form implemented here is the one that satisfies
the defining equations T X = I - W, W X = 0 (checked directly in the
tests).
"""

from typing import NamedTuple

import numpy as np

from .errors import StructuralError, UpdateError
from .linalg import stack_matmul
from .model import assemble_generator, levels_in_range, require_finite
from .oracle import oracle_stationary
from .transform import invert_stacked

__all__ = [
    "CapacityLadderState",
    "BlockUpdate",
    "block_update",
    "t_group_inverse",
    "pi_step",
    "deviation_update",
    "deviation_recursive",
    "resolvent_recursive",
    "deviation_time_recursive",
]


class CapacityLadderState(NamedTuple):
    """The top of the ladder: stationary vector and deviation matrix."""

    pi: np.ndarray
    dev: np.ndarray


class BlockUpdate(NamedTuple):
    """Block-row perturbation Q = T + E_K P.

    As :func:`block_update` builds it: K is the second-to-last level and P
    is zero outside its last 2n columns, levels K and K+1.  The Woodbury
    step in :func:`deviation_update` relies on both.
    """

    K: int
    P: np.ndarray


def block_update(blocks, capacity):
    """The perturbation restoring level capacity-1 interior dynamics."""
    n = blocks.n
    p = np.zeros((n, n * (capacity + 1)))
    p[:, (capacity - 1) * n:capacity * n] = blocks.A0 - blocks.C0
    p[:, capacity * n:] = blocks.A1
    return BlockUpdate(K=capacity - 1, P=p)


def _extend(x, blocks, lower, offset=0.0, first=None):
    """Rows ``x`` of a matrix extended by a transient band of levels.

    ``x`` has shape (*batch, m, size), its last n rows the top level; the
    extended matrix is [[x, 0], [first (M x + offset), lower]] with M = [0
    ... 0 A_minus1] and ``first`` the band's first column block in
    ``lower``'s rows (default: ``lower``, a one-level band).
    """
    n = blocks.n
    m, size = x.shape[-2:]
    rows, cols = lower.shape[-2:]
    out = np.zeros(x.shape[:-2] + (m + rows, size + cols),
                   dtype=np.result_type(x, lower))
    out[..., :m, :size] = x
    out[..., m:, :size] = stack_matmul(
        lower if first is None else first,
        stack_matmul(blocks.A_minus1, x[..., -n:, :]) + offset)
    out[..., m:, size:] = lower
    return out


def _top_product(x, update):
    """P x through the last 2n rows of ``x``.

    P is zero outside its last 2n columns, levels K and K+1, so P x needs
    only the last 2n rows of ``x``, which must hold those two levels.
    """
    n = update.P.shape[0]
    if update.K != update.P.shape[1] // n - 2:
        raise ValueError(f"update level {update.K} is not the second-to-last"
                         f" of {update.P.shape[1] // n} levels")
    return stack_matmul(update.P[:, -2 * n:], x[..., -2 * n:, :])


def _woodbury(x, update, end=None, k=-2):
    """Rows ``x`` of x (I - E_K P x)^{-1} = x + x E_K (I - P x E_K)^{-1} P x,
    through one n x n solve; raises UpdateError if that system is singular.
    The rows of ``x`` up to ``end`` (default: all) end with levels K and
    K+1, and level K's columns are its column block ``k`` (default: the
    second-to-last), so ``x`` may carry any subset of the other blocks.
    """
    n = update.P.shape[0]
    cols = slice(k * n, (k + 1) * n or None)
    px = _top_product(x[..., :end, :], update)
    try:
        scaled = np.linalg.solve(np.eye(n) - px[..., cols], px)
    except np.linalg.LinAlgError as exc:
        raise UpdateError(f"low-rank update singular: {exc}") from exc
    return x + stack_matmul(x[..., cols], scaled)


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
    return -_extend(dev_prev, blocks, -_c0_inverse(blocks), -pi_prev)


def _c0_inverse(blocks):
    """C0^{-1}; raises StructuralError if C0 is singular."""
    try:
        return np.linalg.inv(blocks.C0)
    except np.linalg.LinAlgError as exc:
        raise StructuralError("C0 must be nonsingular") from exc


def pi_step(pi_prev, t_sharp, update):
    """Stationary vector one rung up:
    pi(C) = [pi(C-1), 0] (I + E_K Delta T^#)^{-1}.

    The inverse is applied through its low-rank form, so only an n x n
    system is solved, and Delta T^# is read from the last 2n rows of
    ``t_sharp`` only (see :func:`_top_product`): O(n^2 N) work for N
    states, not O(n N^2).
    """
    n = update.P.shape[0]
    phi = np.concatenate([pi_prev, np.zeros(n)])
    pd = _top_product(t_sharp, update)  # Delta T^#, one block row tall
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

    where the inner inverse is only one block in size.  ``update`` must be
    shaped as :func:`block_update` builds it (see :class:`BlockUpdate`).

    Raises
    ------
    UpdateError
        If the inner block system is singular.
    """
    w = _woodbury(dev, update)
    return w - pi_new @ w


def _seed(blocks):
    """Dense rung C = 1."""
    q1 = assemble_generator(blocks.with_capacity(1))
    pi1 = oracle_stationary(q1)
    one_pi = np.outer(np.ones(q1.shape[0]), pi1)
    return pi1, np.linalg.inv(one_pi - q1) - one_pi


def _ladder_rung(dev, pi, blocks, c0_inv, p_top, work):
    """One rung up the deviation ladder, in place.

    ``dev`` (N x N) and ``pi`` (N) are views whose leading m = N - n rows,
    columns and entries hold D and pi of the rung below; on return the
    whole views hold the rung above.  ``work`` is an N x N scratch array
    for the product x_K S.  The rung writes the new top level of
    -T^# (see :func:`t_group_inverse`) around D, forms P (-T^#) from
    ``p_top`` = [A0 - C0, A1] and the top two levels, and solves the one
    n x n system that serves both :func:`pi_step` and the Woodbury step of
    :func:`deviation_update`; their n x N right-hand side S then gives

        pi <- [pi, 0] + pi_K S,    D <- (I - 1 pi)(x + x_K S),

    with x = -T^# and x_K its level-K columns.  Raises UpdateError if the
    n x n system is singular.
    """
    n = blocks.n
    m = dev.shape[0] - n
    k = slice(m - n, m)
    dev[:m, m:] = 0.0
    dev[m:, :m] = c0_inv @ (pi[:m] - blocks.A_minus1 @ dev[k, :m])
    dev[m:, m:] = -c0_inv
    px = p_top @ dev[m - n:]
    try:
        scaled = np.linalg.solve(np.eye(n) - px[:, k], px)
    except np.linalg.LinAlgError as exc:
        raise UpdateError(f"low-rank update singular: {exc}") from exc
    pi[m:] = 0.0
    pi += pi[k] @ scaled
    pi[(pi < 0) & (pi > -1e-13)] = 0.0
    pi /= pi.sum()
    dev += np.matmul(dev[:, k], scaled, out=work)
    dev -= pi @ dev


def deviation_recursive(blocks):
    """Full deviation matrix D(C) by climbing the capacity ladder.

    Seeds at capacity 1 with a dense fundamental-matrix solve, then takes
    the group-inverse, stationary and deviation updates once per rung, in
    place in one N x N array and one N-vector (N = n (C + 1)): a peak of
    about 2 N^2 doubles, the array and one product.  Returns the final
    :class:`CapacityLadderState`.

    Raises
    ------
    StructuralError
        If a block holds a NaN or infinite entry, or C0 is singular.
    UpdateError
        With the failing rung noted, if an update system is singular.
    """
    require_finite(blocks)
    n, C = blocks.n, blocks.C
    c0_inv = _c0_inverse(blocks)
    p_top = np.hstack([blocks.A0 - blocks.C0, blocks.A1])
    size = n * (C + 1)
    dev, pi, work = np.empty((size, size)), np.empty(size), np.empty(size**2)
    pi[:2 * n], dev[:2 * n, :2 * n] = _seed(blocks)
    for c in range(2, C + 1):
        m = n * (c + 1)
        try:
            _ladder_rung(dev[:m, :m], pi[:m], blocks, c0_inv, p_top,
                         work[:m * m].reshape(m, m))
        except UpdateError as exc:
            raise UpdateError(f"ladder failed at capacity {c}: {exc}") from exc
    return CapacityLadderState(pi=pi, dev=dev)


def _targets(levels, C, what):
    """The target ``levels`` (default: all of 0..C) as a set; raises
    ValueError unless they are distinct integers in 0..C."""
    levels = list(range(C + 1) if levels is None else levels)
    if len(set(levels)) < len(levels) or not levels_in_range(levels, C):
        raise ValueError(f"target {what} {levels} must be distinct levels"
                         f" in 0..{C}")
    return set(levels)


# Levels per rung of the resolvent ladder.  Min of 40 calls of the ladder
# on the four transient perturb block jobs, summed over seeds 1-3, one BLAS
# thread: 34.1 ms at one level; 23.5, 19.0, 18.6, 23.7, 19.5 and 36.0 ms at
# 2, 3, 4, 5, 6 and 8; 17.9 ms at 12 // n, within the host's noise of 4.
_RUNG_LEVELS = 4


def resolvent_recursive(blocks, s, pi, levels=None, columns=None):
    """Block rows of (sI - Q(C))^{-1} and of the transformed deviation
    matrix, recursively, at one node or a 1-d array of nodes at once.

    From the dense resolvent at capacity (C - 1) mod L + 1, each rung adds
    a transient band S of L = ``_RUNG_LEVELS`` levels above the top level
    a: T = [[Q(a), 0], [M, S]], M = A_minus1 from the band's first level to
    a, has resolvent [[R, 0], [W M R, W]], W = (sI - S)^{-1} at every rung,
    and :func:`deviation_update`'s Woodbury step through a gives Q(a + L).
    It reads the rows of levels a, a + 1 and the columns of a, so the
    ladder carries only the rows of the target ``levels``, the columns of
    the target ``columns`` (default: all) and those of the top level: a
    block costs O((C/L) n^3) per node plus one inverse of size Ln, not
    O(C^3 n^3).  ``pi`` is the stationary vector of Q(C), flat or of shape
    (C+1, n), for

        Dtilde(C)(s) = (1/s)(sI - Q(C))^{-1} - (1/s^2) 1 pi(C).

    Returns (resolvent, dtilde), each of shape (*s.shape, n * len(levels),
    n * len(columns)), the rows and columns of the targets in ascending
    level order.

    Raises
    ------
    ValueError
        If a target level or column is not an integer in 0..C, or repeated.
    UpdateError
        With the failing capacity noted, if a rung's system is singular.
    """
    n, C, h = blocks.n, blocks.C, _RUNG_LEVELS
    rows_kept = _targets(levels, C, "levels")
    cols_kept = _targets(columns, C, "columns")
    s = np.asarray(s)[..., None, None]
    idx = np.arange(n * (C + 1)).reshape(C + 1, n)  # state indices by level

    def kept(x, rl, cl, top):  # x cut to the target levels and ``top``
        ri = [i for i, k in enumerate(rl) if k in rows_kept or k == top]
        ci = [i for i, k in enumerate(cl) if k in cols_kept or k == top]
        x = x if len(ri) == len(rl) else x[..., idx[ri].ravel(), :]
        x = x if len(ci) == len(cl) else x[..., idx[ci].ravel()]
        return x, [rl[i] for i in ri], [cl[i] for i in ci]

    band = np.linalg.inv(s * np.eye(h * n) - assemble_generator(
        blocks.with_capacity(h))[n:, n:])
    top = (C - 1) % h + 1
    rl = list(range(top + 1))
    cl = [k for k in rl if k in cols_kept or k == top]
    q, eye = assemble_generator(blocks.with_capacity(top)), np.eye(len(rl) * n)
    x, rl, cl = kept(np.linalg.solve(s * eye - q, eye[:, idx[cl].ravel()]),
                     rl, cl, top)
    for c in range(top + h, C + 1, h):
        a = c - h
        band_rows = sorted({a + 1, c} | {k for k in rows_kept if a < k < c})
        band_cols = sorted({c} | {k for k in cols_kept if a < k < c})
        w = band[..., idx[band_rows].ravel() - n * (a + 1), :]
        lower = w[..., idx[band_cols].ravel() - n * (a + 1)]
        try:
            x = _woodbury(_extend(x, blocks, lower, first=w[..., :n]),
                          block_update(blocks, a + 1), n * len(rl) + n,
                          len(cl) - 1)
        except UpdateError as exc:
            raise UpdateError(
                f"resolvent ladder failed at capacity {c}: {exc}") from exc
        x, rl, cl = kept(x, rl + band_rows, cl + band_cols, c)
    x = kept(x, rl, cl, None)[0]
    pi = np.reshape(pi, (C + 1, n))[sorted(cols_kept)].reshape(-1)
    return x, x / s - pi / s ** 2


def deviation_time_recursive(blocks, t, block=None):
    """Transient deviation matrix D(t) by inversion of the resolvent ladder.

    The nodes of all inversion bands of a t-grid climb the ladder as one
    stack, split at the transform module's memory cap for a full D(t).
    With ``block`` = (k, level), only the n x n block D(t)_{k, level}, from
    the ladder over block row k and block column level: O(C n^3 / 4) per node.
    pi(C) does not depend on s, so its ladder is climbed once.
    """
    n, C = blocks.n, blocks.C
    size = n * (C + 1)
    if block is not None and not levels_in_range(block, C):
        raise ValueError(f"block {block} out of range 0..{C}")
    pi = deviation_recursive(blocks).pi
    if block is None:
        rows, cols, shape = None, None, (size, size)
    else:
        rows, cols, shape = [block[0]], [block[1]], (n, n)

    def transform(nodes):
        return resolvent_recursive(blocks, nodes, pi, rows, cols)[1]

    return invert_stacked(transform, t, shape, size)
