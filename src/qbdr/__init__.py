"""Rewards, deviation matrices and first-passage times of finite QBD
processes.

The model is a level-independent quasi-birth-and-death process on levels
0..C with n phases.  Two independent solution strategies are provided for
the expected-reward function, the (transient and asymptotic) deviation
matrix and mean first passage times: matrix difference equations
working with n- and 2n-sized objects for the transformed quantities
(s != 0), block level reduction for the stationary vector, passage times
and the asymptotic deviation matrix (s = 0), and a capacity-ladder
recursion updating full matrices one level at a time.
Dense brute-force oracles back both.

The names of :mod:`qbdr.bench`, and the submodule itself, load it on
first access (PEP 562), so that ``import qbdr.cli`` does not pay for it
outside ``qbdr bench``.
"""

import importlib

from .errors import (AsymptoticsUndefinedError, IterationLimitError,
                     ModelError, ModelParseError, NumericalError,
                     NumericalRankError, PreconditionError, QbdError,
                     StructuralError, UpdateError)
from .gmatrices import GMatrices, gmatrices, h0, rate_matrices
from .mapph import (MapParams, PhParams, build_blocks, gained_revenue_rewards,
                    lost_revenue_rewards)
from .model import (Drift, DriftClass, QbdBlocks, RewardSpec, Violation,
                    assemble_generator, classify_drift, load_model,
                    save_model, validate)
from .oracle import (oracle_deviation, oracle_passage, oracle_reward,
                     oracle_stationary, oracle_transient_deviation)
from .passage import (PassageColumn, deviation_block_asymptotic,
                      deviation_matrix_diffeq, passage_column,
                      passage_level_matrices)
from .perturbation import (BlockUpdate, CapacityLadderState, block_update,
                           deviation_recursive, deviation_time_recursive,
                           deviation_update, pi_step, resolvent_recursive,
                           t_group_inverse)
from .stationary import StationaryDistribution, stationary_rmatrix
from .transform import (BoundaryVectors, TransformContext, deviation_time,
                        deviation_transform, deviation_transform_block,
                        inversion_nodes, invert_laplace, reward_time,
                        reward_transform, transform_context)

__version__ = "0.1.0"

_BENCH_NAMES = frozenset({"BenchRecord", "last_block_column_diffeq",
                          "last_block_column_perturbation", "random_blocks",
                          "run_bench"})


def __getattr__(name):
    if name == "bench" or name in _BENCH_NAMES:
        bench = importlib.import_module(".bench", __name__)
        return bench if name == "bench" else getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _BENCH_NAMES | {"bench"})
