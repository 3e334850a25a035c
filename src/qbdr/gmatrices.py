"""Solvers for the quadratic matrix equations of a QBD process.

G(s) is the minimal nonnegative solution of

    A_minus1 + (A0 - sI) X + A1 X^2 = 0,

and Ghat(s) solves the same equation with the roles of A1 and A_minus1
exchanged.  Entry (i, j) of G(s) is the Laplace transform of the first
passage time one level down, restricted to the paths that land in phase j;
Ghat(s) is the analogous one-level-up quantity.  Both are evaluated here
for real s >= 0 and, for the numerical transform inversion, for complex s
with positive real part (the iterations carry over unchanged in complex
arithmetic).  An array of s, such as the nodes of one inversion, is solved
as one batch, G and Ghat together, in which each node keeps its own
stopping rule.

Two algorithms are provided: logarithmic reduction (quadratically
convergent, the default) and plain functional iteration from the zero
matrix (linearly convergent, kept as an independent reference path).
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import AsymptoticsUndefinedError, IterationLimitError
from .model import Drift

__all__ = [
    "Algorithm",
    "SolverConfig",
    "GMatrices",
    "solve_g",
    "solve_ghat",
    "g_residual",
    "ghat_residual",
    "h0",
    "gmatrices",
    "rate_matrices",
]


class Algorithm(enum.Enum):
    FUNCTIONAL_ITERATION = "functional"
    LOGARITHMIC_REDUCTION = "logred"


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule for the quadratic-equation solvers.

    ``tolerance`` bounds the entrywise max-norm of the defining-equation
    residual at the returned solution.
    """

    tolerance: float = 1e-12
    max_iterations: int = 100_000
    algorithm: Algorithm = Algorithm.LOGARITHMIC_REDUCTION

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class GMatrices:
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


def _solve_quadratic(down, shifted, up, config):
    """Minimal solutions of down - shifted X + up X^2 = 0, all of shape
    (B, n, n), with shifted = sI - A0 at each solution's node: shape
    (B, n, n), with the residuals, shape (B,).  Each solution keeps its
    own stopping rule; if any fails, the whole call raises."""
    # One-step kernels of the uniformized jump chain: the equation becomes
    # X = b_down + b_up X^2 with b_down + b_up (sub)stochastic.
    b_down = np.linalg.solve(shifted, down)
    b_up = np.linalg.solve(shifted, up)

    def residual(x, down, shifted, up):
        return np.max(np.abs(down - shifted @ x + up @ x @ x), axis=(1, 2))

    terms = (down, shifted, up)
    if config.algorithm is Algorithm.FUNCTIONAL_ITERATION:
        return _functional_iteration(b_down, b_up, terms, residual, config)
    return _logarithmic_reduction(b_down, b_up, terms, residual, config)


def _functional_iteration(b_down, b_up, terms, residual, config):
    """X <- b_down + b_up X^2 from X = 0, solution by solution until the
    residual meets the tolerance."""
    x = np.zeros_like(b_down)
    res = residual(x, *terms)
    for _ in range(config.max_iterations):
        active = np.flatnonzero(res > config.tolerance)
        if active.size == 0:
            break
        x[active] = b_down[active] + b_up[active] @ (x[active] @ x[active])
        res[active] = residual(x[active], *(t[active] for t in terms))
    worst = float(res.max())
    if worst <= config.tolerance:
        return x, res
    raise IterationLimitError(
        f"functional iteration stalled at residual {worst:.3e}",
        residual=worst)


def _logarithmic_reduction(b_down, b_up, terms, residual, config):
    """Logarithmic reduction: each sweep squares the number of jump-chain
    steps accounted for, so convergence is quadratic away from the
    null-recurrent boundary and linear (rate 1/2) on it.

    Every solution keeps its best iterate and leaves the sweeps once that
    meets the tolerance; one that has not improved for ten sweeps has
    stalled, and so has every one still sweeping after max_iterations.
    The arrays of the sweeping solutions shrink when one leaves."""
    tol = config.tolerance
    eye = np.eye(b_down.shape[-1])
    x_out = b_down.copy()
    res_out = residual(x_out, *terms)
    nodes = np.flatnonzero(res_out > tol)
    low, high = b_down[nodes], b_up[nodes]
    terms = tuple(t[nodes] for t in terms)
    x, trail, x_best, best = low, high, low, res_out[nodes]
    stale = np.zeros(nodes.size, dtype=int)
    for _ in range(config.max_iterations if nodes.size else 0):
        mix = high @ low + low @ high
        try:
            factor = np.linalg.inv(eye - mix)
        except np.linalg.LinAlgError as exc:
            raise _lr_error("broke down at residual", best) from exc
        high = factor @ (high @ high)
        low = factor @ (low @ low)
        x = x + trail @ low
        trail = trail @ high
        res = residual(x, *terms)
        better = res < best
        if better.all():
            x_best, best, stale = x, res, stale * 0
        else:
            if not np.isfinite(res).all():
                raise _lr_error("diverged (last residual",
                                best[~np.isfinite(res)], ")")
            x_best = np.where(better[:, None, None], x, x_best)
            best = np.where(better, res, best)
            stale = np.where(better, 0, stale + 1)
            if stale.max() >= 10:
                raise _lr_error("stalled at residual", best[stale >= 10])
        if best.min() <= tol:
            done = best <= tol
            x_out[nodes[done]], res_out[nodes[done]] = x_best[done], best[done]
            if done.all():
                break
            keep = ~done
            terms = tuple(t[keep] for t in terms)
            nodes, low, high, x, trail, x_best, best, stale = (
                a[keep] for a in (nodes, low, high, x, trail, x_best, best,
                                  stale))
    if (res_out <= tol).all():
        return x_out, res_out
    raise _lr_error("stalled at residual", best)


def _lr_error(what, residuals, close=""):
    worst = float(np.max(residuals))
    return IterationLimitError(
        f"logarithmic reduction {what} {worst:.3e}{close}", residual=worst)


def _solve_equations(blocks, s, config, pairs):
    """Minimal solutions of down + (A0 - sI) X + up X^2 = 0 for every
    (down, up) in ``pairs`` at every node of the checked ``s``, solved as
    one batch: shape (len(pairs), *s.shape, n, n), with the residuals,
    shape (len(pairs), s.size)."""
    nodes = s.reshape(-1)
    shifted = nodes[:, None, None] * np.eye(blocks.n) - blocks.A0
    down, up = (np.concatenate([np.broadcast_to(pair[i], shifted.shape)
                                for pair in pairs]) for i in (0, 1))
    x, res = _solve_quadratic(down, np.concatenate([shifted] * len(pairs)),
                              up, config)
    return (x.reshape((len(pairs),) + s.shape + x.shape[1:]),
            res.reshape(len(pairs), -1))


def _solve_pair(blocks, s, config):
    """G and Ghat at the checked ``s``, as one batch."""
    return _solve_equations(blocks, s, config,
                            [(blocks.A_minus1, blocks.A1),
                             (blocks.A1, blocks.A_minus1)])


def solve_g(blocks, s=0.0, config=SolverConfig()):
    """Minimal nonnegative solution G(s); see module docstring."""
    pair = (blocks.A_minus1, blocks.A1)
    return _solve_equations(blocks, _check_s(s), config, [pair])[0][0]


def solve_ghat(blocks, s=0.0, config=SolverConfig()):
    """Minimal nonnegative solution Ghat(s); roles of A1/A_minus1 swapped."""
    pair = (blocks.A1, blocks.A_minus1)
    return _solve_equations(blocks, _check_s(s), config, [pair])[0][0]


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
             + blocks.A1 @ g + blocks.A_minus1 @ ghat)
    try:
        return -np.linalg.inv(inner)
    except np.linalg.LinAlgError as exc:
        raise AsymptoticsUndefinedError(
            "H0 undefined: local kernel singular (null-recurrent model at s=0)"
        ) from exc


def gmatrices(blocks, s=0.0, config=SolverConfig()):
    """Solve both quadratic equations at s and bundle G, Ghat, H0.

    ``s`` is one transform variable or an array of them, such as the nodes
    of one Laplace inversion; for an array every node is solved in the
    same stacked operations, and the matrices carry the shape of ``s`` as
    leading axes.

    Raises
    ------
    IterationLimitError
        If either solver fails to reach the residual tolerance.
    AsymptoticsUndefinedError
        If s = 0 and the model is null recurrent (H0 singular).
    """
    s = _check_s(s)
    (g, ghat), res = _solve_pair(blocks, s, config)
    s = s[()] if s.ndim == 0 else s
    return GMatrices(s=s, G=g, Ghat=ghat, H0=h0(blocks, s, g, ghat),
                     residual_G=float(res[0].max()),
                     residual_Ghat=float(res[1].max()))


def rate_matrices(blocks, g=None, ghat=None, config=SolverConfig()):
    """Sojourn-rate matrices (R, Rhat) from the s = 0 passage matrices.

    R records the expected sojourn rate one level up per unit of local time
    in the current level, Rhat the same one level down:

        R = A1 (-(A0 + A1 G))^{-1},   Rhat = A_minus1 (-(A0 + A_minus1 Ghat))^{-1}.
    """
    require_not_null_recurrent(blocks, "the sojourn-rate matrices")
    if g is None or ghat is None:
        (g_0, ghat_0), _ = _solve_pair(blocks, _check_s(0.0), config)
        g = g_0 if g is None else g
        ghat = ghat_0 if ghat is None else ghat
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
