"""Stationary distribution of the finite QBD via matrix-geometric boundaries.

The level distribution mixes a forward geometric term in R and a backward
one in Rhat:

    pi_k = v0 R^k + vC Rhat^{C-k},    0 <= k <= C,

where (v0, vC) spans the one-dimensional left kernel of a 2n x 2n boundary
matrix and is scaled so the level probabilities sum to one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalRankError
from .gmatrices import SolverConfig, rate_matrices, require_not_null_recurrent
from .linalg import left_null_vector, matrix_powers
from .model import require_finite

__all__ = [
    "StationaryDistribution",
    "boundary_matrix",
    "stationary_rmatrix",
    "stationary_unrestricted",
]

_CLAMP = 1e-13


@dataclass(frozen=True)
class StationaryDistribution:
    """Per-level stationary rows pi_0..pi_C plus the boundary solutions."""

    pi: tuple
    v0: np.ndarray
    vC: np.ndarray

    def stacked(self):
        return np.concatenate(self.pi)

    def __getitem__(self, k):
        return self.pi[k]

    def __len__(self):
        return len(self.pi)


def boundary_matrix(blocks, r, rhat):
    """The 2n x 2n homogeneous system satisfied by (v0, vC)."""
    n, C = blocks.n, blocks.C
    r_pow = np.linalg.matrix_power(r, C - 1)
    rhat_pow = np.linalg.matrix_power(rhat, C - 1)
    top = np.hstack([blocks.B0 + r @ blocks.A_minus1,
                     r_pow @ (r @ blocks.C0 + blocks.A1)])
    bottom = np.hstack([rhat_pow @ (rhat @ blocks.B0 + blocks.A_minus1),
                        blocks.C0 + rhat @ blocks.A1])
    return np.vstack([top, bottom])


def stationary_rmatrix(blocks, config=SolverConfig(), gmat=None):
    """Stationary distribution from the R/Rhat boundary system.

    ``gmat`` may carry already-solved s = 0 passage matrices to reuse.

    Raises
    ------
    StructuralError
        If a block holds a NaN or infinite entry.
    AsymptoticsUndefinedError
        If the model is null recurrent (R, Rhat undefined).
    NumericalRankError
        If the boundary system kernel is not one-dimensional.
    """
    require_finite(blocks)
    require_not_null_recurrent(blocks, "stationary boundary matrices")
    n, C = blocks.n, blocks.C
    if gmat is not None:
        r, rhat = rate_matrices(blocks, gmat.G, gmat.Ghat, config)
    else:
        r, rhat = rate_matrices(blocks, config=config)
    system = boundary_matrix(blocks, r, rhat)
    kernel = left_null_vector(system)
    v0, vc = kernel[:n], kernel[n:]

    r_powers = matrix_powers(r, C)
    rhat_powers = matrix_powers(rhat, C)
    pi = [v0 @ r_powers[k] + vc @ rhat_powers[C - k] for k in range(C + 1)]
    total = sum(row.sum() for row in pi)
    if total < 0:
        v0, vc, total = -v0, -vc, -total
        pi = [-row for row in pi]
    if abs(total) < 1e-300:
        raise NumericalRankError("boundary kernel orthogonal to normalization")
    scale = 1.0 / total
    v0, vc = v0 * scale, vc * scale
    out = []
    for row in pi:
        row = row * scale
        # tiny negative roundoff would poison diag(pi_l) factors downstream
        row[(row < 0) & (row > -_CLAMP)] = 0.0
        out.append(row)
    return StationaryDistribution(pi=tuple(out), v0=v0, vC=vc)


def stationary_unrestricted(blocks, kmax, config=SolverConfig()):
    """Level rows pi_0..pi_kmax of the unrestricted positive-recurrent QBD.

    pi_0 spans the left kernel of B0 + R A_minus1, normalized by
    pi_0 (I - R)^{-1} 1 = 1, and pi_k = pi_0 R^k.
    """
    n = blocks.n
    r, _ = rate_matrices(blocks, config=config)
    if np.max(np.abs(np.linalg.eigvals(r))) >= 1.0:
        raise NumericalRankError(
            "unrestricted stationary distribution needs sp(R) < 1 "
            "(positive recurrent model)")
    if n == 1:
        pi0 = np.ones(1)
    else:
        pi0 = left_null_vector(blocks.B0 + r @ blocks.A_minus1)
    mass = pi0 @ np.linalg.solve(np.eye(n) - r, np.ones(n))
    pi0 = pi0 / mass
    powers = matrix_powers(r, kmax)
    return [pi0 @ powers[k] for k in range(kmax + 1)]
