"""Mean first passage times and asymptotic deviation blocks.

For a fixed target state (l, j) the passage-time vectors over all levels
solve the matrix difference equation Q m = -1 with the target entry pinned
to zero.  A boundary target leaves one run of levels 0..C; any other
target splits it into 0..l and l+1..C.  :class:`qbdr.diffeq.BoundarySystem`
takes the forcing -1, forms the particular term from it and fixes the free
vectors from the level equations at the run ends.

Entry (k i, l j) of the deviation matrix equals
pi_(l,j) [ M_pi(l,j) - M_(k,i)(l,j) ] where M holds mean first entrance
times, and :func:`deviation_block_asymptotic` and
:func:`deviation_block_column` form blocks from passage columns that way.
The entries of a passage column all lie close to one large value, though,
and the subtraction cancels their leading digits, so
:func:`deviation_matrix_diffeq`, which the CLI uses for D and for its
block columns, solves the equation of the deviation columns themselves,
Q d = pi_(l,j) 1 - e_(l,j), with the same kernel: only the forcing
differs.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .diffeq import BoundarySystem
from .errors import NumericalError, PreconditionError
from .gmatrices import SolverConfig, gmatrices, require_not_null_recurrent
from .model import Drift, assemble_generator, classify_drift
from .stationary import stationary_rmatrix

__all__ = [
    "PassageColumn",
    "passage_column",
    "passage_column_unbounded",
    "passage_level_matrices",
    "deviation_block_asymptotic",
    "deviation_block_column",
    "deviation_matrix_diffeq",
]

_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class PassageColumn:
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


def _passage_segments(upper, level):
    """Runs of levels around a target level; ``upper`` is the top level,
    None for the upper-unbounded process."""
    if level in (0, upper):
        return [(0, upper)]
    return [(0, level), (level + 1, upper)]


def _passage_system(blocks, level, gmat, top=None):
    """The boundary system of Q m = -1 for a target on ``level``, on the
    levels 0..C; with ``top``, on the levels 0..top of the upper-unbounded
    process, whose levels above ``top`` add the tail
    (I - Ghat)^{-1} Ghat H0 1 to the particular term."""
    n = blocks.n
    if top is None:
        top, upper, tail = blocks.C, blocks.C, 0.0
    else:
        upper = None
        tail = np.linalg.solve(np.eye(n) - gmat.Ghat,
                               gmat.Ghat @ (gmat.H0 @ np.ones(n)))
    return BoundarySystem(blocks, _passage_segments(upper, level), gmat,
                          np.full((top + 1, n), -1.0), tail)


def _modified_generator(blocks, level, j):
    """Full generator with the target-state row pinned to -e^T."""
    q = assemble_generator(blocks)
    idx = level * blocks.n + j
    q[idx, :] = 0.0
    q[idx, idx] = -1.0
    return q, idx


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


def _direct_taboo_column(blocks, level, j):
    """Dense pinned-system solve, used for the C <= 2 degenerate sizes."""
    q, idx = _modified_generator(blocks, level, j)
    rhs = -np.ones(q.shape[0])
    rhs[idx] = 0.0
    try:
        m = np.linalg.solve(q, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"taboo passage system singular: {exc}") from exc
    return m


def passage_column(blocks, level, j, gmat=None, config=SolverConfig()):
    """Mean first passage times from every state to target (level, j).

    Phases are 0-based.  A boundary target leaves one run of levels, any
    other target two, and the boundary system pins their free vectors.
    Capacities C <= 2 have no interior band and route to a dense pinned
    solve with the same output contract.

    Raises
    ------
    AsymptoticsUndefinedError
        For null-recurrent models (mu_k undefined).
    NumericalError
        If a boundary system is singular.
    """
    C, n = blocks.C, blocks.n
    if not 0 <= level <= C:
        raise ValueError(f"target level {level} out of range 0..{C}")
    if not 0 <= j < n:
        raise ValueError(f"target phase {j} out of range 0..{n - 1}")

    if C <= 2:
        m = _direct_taboo_column(blocks, level, j).reshape(C + 1, n)
        return _finish_column(blocks, level, j, m)

    gmat = _column_gmat(blocks, gmat, config)
    system = _passage_system(blocks, level, gmat)
    return _finish_column(blocks, level, j, system.solve((level, j)))


def _finish_column(blocks, level, j, m):
    m[level][j] = 0.0  # entrance time from the target itself
    scale = max(1.0, max(np.max(np.abs(v)) for v in m))
    for v in m:
        v[(v < 0) & (v > -1e-12 * scale)] = 0.0
    res = _column_residual(blocks, level, j, m)
    return PassageColumn(target_level=level, target_phase=j,
                         m=tuple(m), residual=res)


def passage_column_unbounded(blocks, level, j, kmax, gmat=None,
                             config=SolverConfig()):
    """Passage times to (level, j) in the upper-unbounded QBD, levels
    0..kmax.

    Only defined for positive recurrent models, whose particular term
    converges as the levels above grow without bound.
    """
    if classify_drift(blocks).tag is not Drift.POSITIVE_RECURRENT:
        raise PreconditionError(
            "unbounded passage times need a positive recurrent model")
    n = blocks.n
    if not 0 <= j < n:
        raise ValueError(f"target phase {j} out of range 0..{n - 1}")
    if gmat is None:
        gmat = gmatrices(blocks, 0.0, config)
    system = _passage_system(blocks, level, gmat, max(kmax, level + 2))
    m = system.solve((level, j))[:kmax + 1]
    if level <= kmax:
        m[level][j] = 0.0
    return tuple(m)


def _column_gmat(blocks, gmat, config):
    """The G/Ghat matrices shared by every passage column; None for
    C <= 2, whose columns take the dense pinned solve."""
    if blocks.C <= 2:
        return None
    require_not_null_recurrent(blocks, "mean first passage expansions")
    return gmatrices(blocks, 0.0, config) if gmat is None else gmat


def passage_level_matrices(blocks, level, gmat=None, config=SolverConfig()):
    """All blocks M_{k, level}, k = 0..C, for one target level, stacked
    as a (C+1, n, n) array.

    Column j of M_{k, level} is the passage column for phase j.
    """
    n = blocks.n
    if not 0 <= level <= blocks.C:
        raise ValueError(f"target level {level} out of range 0..{blocks.C}")
    gmat = _column_gmat(blocks, gmat, config)
    if gmat is None:
        cols = [passage_column(blocks, level, j).m for j in range(n)]
    else:  # the n columns share one assembled boundary system
        system = _passage_system(blocks, level, gmat)
        cols = [_finish_column(blocks, level, j, system.solve((level, j))).m
                for j in range(n)]
    return np.stack(cols, axis=2)


def deviation_block_asymptotic(blocks, pi, k, level, level_mats=None,
                               gmat=None, config=SolverConfig()):
    """Asymptotic deviation block D_{k, level} from passage times.

    D_{k,l} = [ 1 (sum_x pi_x M_{x,l}) - M_{k,l} ] diag(pi_l).
    """
    n, C = blocks.n, blocks.C
    if level_mats is None:
        level_mats = passage_level_matrices(blocks, level, gmat, config)
    pi_level = np.asarray(pi[level])
    if np.any((pi_level != 0) & (np.abs(pi_level) < 1e-300)):
        warnings.warn(f"stationary weights at level {level} underflow",
                      RuntimeWarning, stacklevel=2)
    mean_row = np.zeros(n)
    for x in range(C + 1):
        mean_row = mean_row + np.asarray(pi[x]) @ level_mats[x]
    return (np.outer(np.ones(n), mean_row) - level_mats[k]) * pi_level


def deviation_block_column(blocks, pi, level, level_mats=None, gmat=None,
                           config=SolverConfig()):
    """All blocks D_{k, level}, k = 0..C, as a (C+1, n, n) array.

    The same blocks as :func:`deviation_block_asymptotic`, with the mean
    row sum_x pi_x M_{x,l} formed once for the column, so the whole
    column costs O(C n^2) once its passage matrices are known.
    """
    C = blocks.C
    if level_mats is None:
        level_mats = passage_level_matrices(blocks, level, gmat, config)
    level_mats = np.asarray(level_mats)
    pi_rows = np.array([pi[x] for x in range(C + 1)])
    if np.any((pi_rows[level] != 0) & (np.abs(pi_rows[level]) < 1e-300)):
        warnings.warn(f"stationary weights at level {level} underflow",
                      RuntimeWarning, stacklevel=2)
    mean_row = np.einsum("xi,xij->j", pi_rows, level_mats)
    return (mean_row - level_mats) * pi_rows[level]


def deviation_matrix_diffeq(blocks, pi=None, config=SolverConfig(),
                            levels=None):
    """Asymptotic deviation matrix from one pinned boundary system: the
    block columns ``levels`` of D, shape (n(C+1), n len(levels)), or all of
    D with ``levels`` None.

    Column (l, j) of D solves Q d = pi_(l,j) 1 - e_(l,j) with pi d = 0.  Q
    is singular, so the level equation row of the most probable state r
    gives way to the pin d_r = 0, with the run split at r's level so that r
    sits at a run end; the centring d - 1 (pi d) then restores pi d = 0.
    All the columns share one boundary system and one solve.

    Raises
    ------
    AsymptoticsUndefinedError
        For null-recurrent models (H0 undefined).
    NumericalError
        If the boundary system is singular.
    ValueError
        If a level is outside 0..C.
    """
    n, C = blocks.n, blocks.C
    levels = range(C + 1) if levels is None else levels
    if not all(0 <= lv <= C for lv in levels):
        raise ValueError(f"target levels {levels} out of range 0..{C}")
    require_not_null_recurrent(blocks, "asymptotic deviation matrices")
    gmat = gmatrices(blocks, 0.0, config)
    if pi is None:
        pi = stationary_rmatrix(blocks, config, gmat=gmat)
    row = np.concatenate([np.asarray(pi[k]) for k in range(C + 1)])
    targets = row.reshape(C + 1, n)[list(levels)].reshape(-1)
    force = np.broadcast_to(targets, (C + 1, n, targets.size)).copy()
    for i, level in enumerate(levels):
        force[level, :, i * n:(i + 1) * n] -= np.eye(n)
    level, j = divmod(int(np.argmax(row)), n)
    system = BoundarySystem(blocks, _passage_segments(C, level), gmat, force)
    d = system.solve((level, j)).reshape(row.size, targets.size)
    return d - row @ d
