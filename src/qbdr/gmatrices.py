"""Solvers for the quadratic matrix equations of a QBD process.

G(s) is the minimal nonnegative solution of

    A_minus1 + (A0 - sI) X + A1 X^2 = 0,

and Ghat(s) solves the same equation with the roles of A1 and A_minus1
exchanged.  Entry (i, j) of G(s) is the Laplace transform of the first
passage time one level down, restricted to the paths that land in phase j;
Ghat(s) is the analogous one-level-up quantity.  Both are evaluated here
for real s >= 0 and, for the numerical transform inversion, for complex s
with positive real part (the iterations carry over unchanged in complex
arithmetic).  An array of s, such as the 2M + 1 = 41 nodes
gamma + i pi k / T of one inversion band (Re s = gamma > 0 at every node,
see :mod:`qbdr.transform`), is solved as one batch, G and Ghat together,
in which each node keeps its own stopping rule for each matrix.

Both are solved by logarithmic reduction (quadratically convergent), one
reduction for G and Ghat, until the defining-equation residual of each,
in the entrywise max-norm, is at most _TOLERANCE.
"""

from typing import NamedTuple

import numpy as np

from .errors import AsymptoticsUndefinedError, IterationLimitError
from .linalg import stack_matmul
from .model import Drift, require_finite

__all__ = [
    "GMatrices",
    "solve_g",
    "solve_ghat",
    "g_residual",
    "ghat_residual",
    "h0",
    "gmatrices",
    "rate_matrices",
]


# Stopping rule of the logarithmic reduction: the largest entry of the
# defining-equation residual at a returned solution, and the most sweeps.
_TOLERANCE = 1e-12
_MAX_ITERATIONS = 100_000


class GMatrices(NamedTuple):
    """G(s), Ghat(s) and the local kernel H0(s) with solver residuals.

    For an array of transform variables the matrices carry its shape as
    leading axes, and each residual is the largest over the nodes.
    """

    s: complex
    G: np.ndarray
    Ghat: np.ndarray
    H0: np.ndarray
    residual_G: float
    residual_Ghat: float


def _check_s(s):
    """The transform variable(s) as a float or complex array: s >= 0 on
    the real axis; complex nodes need positive real parts."""
    s = np.asarray(s)
    if np.iscomplexobj(s) and s.imag.any():
        if (s.real <= 0).any():
            raise ValueError("complex s requires a positive real part")
        return s
    s = np.asarray(s.real, dtype=float)
    if (s < 0).any():
        raise ValueError("s must be nonnegative")
    return s


def g_residual(blocks, s, g):
    """Max-norm residual of A_minus1 + (A0 - sI) G + A1 G^2."""
    shifted = blocks.A0 - s * np.eye(blocks.n)
    return float(np.max(np.abs(blocks.A_minus1 + shifted @ g + blocks.A1 @ g @ g)))


def ghat_residual(blocks, s, ghat):
    """Max-norm residual of A1 + (A0 - sI) Ghat + A_minus1 Ghat^2."""
    shifted = blocks.A0 - s * np.eye(blocks.n)
    return float(np.max(np.abs(
        blocks.A1 + shifted @ ghat + blocks.A_minus1 @ ghat @ ghat)))


def _solve_pair(blocks, s):
    """G and Ghat at every node of the checked ``s``: shape
    (2, *s.shape, n, n), with the residuals, shape (2, s.size).  Each
    solution keeps its own stopping rule; if any fails, the whole call
    raises."""
    n = blocks.n
    nodes = s.reshape(-1)[:, None, None]
    down = np.array([blocks.A_minus1, blocks.A1])[:, None]
    up = down[::-1]
    # One-step kernels of the uniformized jump chain, (b_down, b_up) with
    # b_down + b_up (sub)stochastic: G solves X = b_down + b_up X^2 and
    # Ghat the same with the kernels swapped.  One solve per node serves
    # both, against [A_minus1 | A1].
    both = np.linalg.solve(nodes * np.eye(n) - blocks.A0,
                           np.hstack([blocks.A_minus1, blocks.A1]))
    kernels = np.stack([both[..., :n], both[..., n:]])

    def residual(x, s):
        """Max-norm residuals of (G, Ghat) iterates, shape (2, B, n, n),
        at the B nodes ``s``, shape (B, 1, 1)."""
        r = (down + stack_matmul(blocks.A0, x) - s * x
             + stack_matmul(up, stack_matmul(x, x)))
        return np.max(np.abs(r), axis=(-2, -1))

    x, res = _logarithmic_reduction(kernels, nodes, residual)
    return x.reshape((2,) + s.shape + x.shape[-2:]), res


def _logarithmic_reduction(kernels, s, residual):
    """Logarithmic reduction of G and Ghat together: each sweep squares
    the number of jump-chain steps accounted for, so convergence is
    quadratic away from the null-recurrent boundary and linear (rate 1/2)
    on it.

    G's reduction starts from (low, high) = (b_down, b_up) and Ghat's is
    the same with the pair swapped, so the mix, its inverse and both
    squarings serve both: only the running sums x and their trails differ,
    x_G += trail_G low with trail_G high..., x_Ghat += trail_Ghat high with
    trail_Ghat low....  Each side of a node keeps its best iterate and is
    done once that meets the tolerance; a side that has not improved for
    ten sweeps has stalled, and so has every one still sweeping after
    _MAX_ITERATIONS.  A node leaves the sweeps once both sides are done,
    and the arrays of the sweeping nodes shrink when one leaves."""
    tol = _TOLERANCE
    eye = np.eye(kernels.shape[-1])
    x_out = kernels
    res_out = residual(x_out, s)
    sweeping = res_out > tol
    nodes = np.flatnonzero(sweeping.any(axis=0))
    pair = x_out[:, nodes]  # (low, high)
    s = s[nodes]
    x, trail = pair, pair[::-1]
    x_best, best, sweeping = x, res_out[:, nodes], sweeping[:, nodes]
    stale = np.zeros(best.shape, dtype=int)
    for _ in range(_MAX_ITERATIONS if nodes.size else 0):
        low, high = pair
        mix = stack_matmul(high, low) + stack_matmul(low, high)
        try:
            factor = np.linalg.inv(eye - mix)
        except np.linalg.LinAlgError as exc:
            raise _lr_error("broke down at residual", best[sweeping]) from exc
        pair = stack_matmul(factor, stack_matmul(pair, pair))
        x = x + stack_matmul(trail, pair)
        trail = stack_matmul(trail, pair[::-1])
        res = residual(x, s)
        better = res < best
        if better.all():
            x_best, best, stale = x, res, stale * 0
        else:
            bad = sweeping & ~np.isfinite(res)
            if bad.any():
                raise _lr_error("diverged (last residual", best[bad], ")")
            x_best = np.where(better[..., None, None], x, x_best)
            best = np.where(better, res, best)
            stale = np.where(better, 0, stale + 1)
            if (stale[sweeping] >= 10).any():
                raise _lr_error("stalled at residual",
                                best[sweeping & (stale >= 10)])
        done = sweeping & (best <= tol)
        if done.any():
            side, node = np.nonzero(done)
            x_out[side, nodes[node]] = x_best[side, node]
            res_out[side, nodes[node]] = best[side, node]
            sweeping = sweeping & ~done
            keep = sweeping.any(axis=0)
            if not keep.any():
                break
            nodes, s = nodes[keep], s[keep]
            pair, x, trail, x_best, best, stale, sweeping = (
                a[:, keep] for a in (pair, x, trail, x_best, best, stale,
                                     sweeping))
    if (res_out <= tol).all():
        return x_out, res_out
    raise _lr_error("stalled at residual", best[sweeping])


def _lr_error(what, residuals, close=""):
    worst = float(np.max(residuals))
    return IterationLimitError(
        f"logarithmic reduction {what} {worst:.3e}{close}", residual=worst)


def solve_g(blocks, s=0.0):
    """Minimal nonnegative solution G(s); see module docstring."""
    return _solve_pair(blocks, _check_s(s))[0][0]


def solve_ghat(blocks, s=0.0):
    """Minimal nonnegative solution Ghat(s); roles of A1/A_minus1 swapped."""
    return _solve_pair(blocks, _check_s(s))[0][1]


def h0(blocks, s, g, ghat):
    """Local-time kernel H0(s) = -(A0 - sI + A1 G(s) + A_minus1 Ghat(s))^{-1}.

    For s = 0 this exists only away from null recurrence, where the inner
    matrix turns singular; that case fails fast.  ``s`` may be an array,
    with G and Ghat stacked in its shape.
    """
    if np.any(np.asarray(s) == 0):
        require_not_null_recurrent(blocks, "the s=0 local kernel H0")
    eye = np.eye(blocks.n)
    inner = (blocks.A0 - np.asarray(s)[..., None, None] * eye
             + stack_matmul(blocks.A1, g)
             + stack_matmul(blocks.A_minus1, ghat))
    try:
        return -np.linalg.inv(inner)
    except np.linalg.LinAlgError as exc:
        raise AsymptoticsUndefinedError(
            "H0 undefined: local kernel singular (null-recurrent model at s=0)"
        ) from exc


def gmatrices(blocks, s=0.0):
    """Solve both quadratic equations at s and bundle G, Ghat, H0.

    ``s`` is one transform variable or an array of them, such as the 41
    nodes of one Laplace inversion band; for an array every node is solved
    in the same stacked operations, and the matrices carry the shape of
    ``s`` as leading axes.

    Raises
    ------
    StructuralError
        If a block holds a NaN or infinite entry.
    IterationLimitError
        If either solver fails to reach the residual tolerance.
    AsymptoticsUndefinedError
        If s = 0 and the model is null recurrent (H0 singular).
    """
    require_finite(blocks)
    s = _check_s(s)
    (g, ghat), res = _solve_pair(blocks, s)
    s = s[()] if s.ndim == 0 else s
    return GMatrices(s=s, G=g, Ghat=ghat, H0=h0(blocks, s, g, ghat),
                     residual_G=float(res[0].max()),
                     residual_Ghat=float(res[1].max()))


def rate_matrices(blocks):
    """Sojourn-rate matrices (R, Rhat) from the s = 0 passage matrices.

    R records the expected sojourn rate one level up per unit of local time
    in the current level, Rhat the same one level down:

        R = A1 (-(A0 + A1 G))^{-1},   Rhat = A_minus1 (-(A0 + A_minus1 Ghat))^{-1}.
    """
    require_not_null_recurrent(blocks, "the sojourn-rate matrices")
    (g, ghat), _ = _solve_pair(blocks, _check_s(0.0))
    try:
        r = blocks.A1 @ np.linalg.inv(-(blocks.A0 + blocks.A1 @ g))
        rhat = blocks.A_minus1 @ np.linalg.inv(
            -(blocks.A0 + blocks.A_minus1 @ ghat))
    except np.linalg.LinAlgError as exc:
        raise AsymptoticsUndefinedError(
            "rate matrices undefined: inner matrix singular") from exc
    return r, rhat


def require_not_null_recurrent(blocks, what="asymptotic quantities"):
    """Raise :class:`AsymptoticsUndefinedError` for null-recurrent models."""
    if blocks.drift.tag is Drift.NULL_RECURRENT:
        raise AsymptoticsUndefinedError(
            f"{what} undefined for a null-recurrent model")
