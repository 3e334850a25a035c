"""Stationary distribution of the finite QBD by block linear level reduction.

Censoring the levels above k one at a time (Gaver, Jacobs & Latouche 1984)
leaves at level k the block

    S_C = C0,    S_k = A0 + A1 (-S_(k+1))^{-1} A_minus1    (B0 at level 0),

and the stationary rows follow from pi_0 S_0 = 0 and
pi_k = pi_(k-1) A1 (-S_k)^{-1}.  Every block is kept as its off-diagonal
rates, and its diagonal is taken from the row sums plus the rates out of
the kept levels, never by subtraction (Grassmann, Taksar & Heyman 1985).
Then -S_k is a diagonally dominant M-matrix whose small inverse, taken by
an LU solve, is nonnegative, and all other terms are sums and products of
nonnegative numbers, so even the smallest entries of pi keep their
relative accuracy.  The same sweep, run
from both ends towards a target level with a forcing carried along, gives
the mean first passage times and the deviation matrix of
:mod:`qbdr.passage`.
"""

import numpy as np

from .errors import NumericalError
from .model import Frozen, require_finite

__all__ = [
    "StationaryDistribution",
    "stationary_rmatrix",
]


class StationaryDistribution(Frozen):
    """Per-level stationary rows pi_0..pi_C."""

    def __init__(self, pi):
        vars(self).update(pi=pi)

    def stacked(self):
        return np.concatenate(self.pi)

    def __getitem__(self, k):
        return self.pi[k]

    def __len__(self):
        return len(self.pi)


def _negated(off, out=0.0):
    """-S for the level block S with off-diagonal rates ``off`` and rates
    ``out`` leaving its level: the diagonal is a sum, not a difference."""
    return np.diag(off.sum(axis=-1) + out) - off


def _solve(a, b):
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular censored level block: {exc}") from exc


def _sweep(blocks, stop, force, up=False):
    """Censor the levels above ``stop`` one at a time from level C down,
    or with ``up`` the levels below it from level 0 up, carrying along the
    forcing ``force``, shape (C + 1, n, m), of the level equations
    (Q x)_k = -force_k.

    Returns (inv, y, inflow, inflow_y).  For the eliminated levels k, in
    sweep order, ``inv`` stacks (-S_k)^{-1} and ``y`` the terms of
    x_k = (-S_k)^{-1} A_in x_(k-+1) + y_k, with A_in = A_minus1 going down
    and A1 going up: y_k = (-S_k)^{-1} (force_k + A_out y_(k+-1)), with
    A_out the other one.  Under the forcing 1, y_k holds the mean times
    from level k until the next level towards ``stop`` is first entered.
    ``inflow`` is what the eliminated levels add to the off-diagonal rates
    of level ``stop``, and ``inflow_y`` = A_out y what they add to its
    forcing.  A singular block raises :class:`NumericalError`.
    """
    n, C = blocks.n, blocks.C
    if up:
        levels, toward, away = range(stop), blocks.A1, blocks.A_minus1
    else:
        levels, toward, away = range(C, stop, -1), blocks.A_minus1, blocks.A1
    out = toward.sum(axis=1)
    inv = np.empty((len(levels), n, n))
    y = np.empty((len(levels),) + force.shape[1:])
    inflow, inflow_y = np.zeros((n, n)), np.zeros(force.shape[1:])
    for i, k in enumerate(levels):
        block = (blocks.B0 if k == 0 else blocks.C0 if k == C
                 else blocks.A0) + inflow
        np.fill_diagonal(block, 0.0)
        inv[i] = _solve(_negated(block, out), np.eye(n))
        y[i] = inv[i] @ (force[k] + inflow_y)
        inflow = away @ inv[i] @ toward
        inflow_y = away @ y[i]
    np.fill_diagonal(inflow, 0.0)
    return inv, y, inflow, inflow_y


def stationary_rmatrix(blocks):
    """Stationary distribution of the finite QBD by level reduction.

    The levels are censored from the top down to level 0, pi_0 comes from
    the taboo system of S_0 with phase 0 given weight 1, and
    pi_k = pi_(k-1) A1 (-S_k)^{-1} climbs back up before the rows are
    normalized.  The name is kept from the R/Rhat boundary route this
    replaced: ``qbdr stationary --method rmatrix`` selects it and callers
    import it under that name.  A finite chain has a stationary vector
    whatever the drift, so null-recurrent models are accepted.

    Raises
    ------
    StructuralError
        If a block holds a NaN or infinite entry.
    NumericalError
        If a censored level block is singular.
    """
    require_finite(blocks)
    n, C = blocks.n, blocks.C
    inv, _, inflow, _ = _sweep(blocks, 0, np.empty((C + 1, n, 0)))
    off = blocks.B0 + inflow
    np.fill_diagonal(off, 0.0)
    pi = np.empty((C + 1, n))
    pi[0, 0] = 1.0
    pi[0, 1:] = _solve(_negated(off)[1:, 1:].T, off[0, 1:])
    for k, step in enumerate(blocks.A1 @ inv[::-1], start=1):
        pi[k] = pi[k - 1] @ step
    pi /= pi.sum()
    return StationaryDistribution(pi=tuple(pi))

