"""Trace a `qbdr` job from outside the program.

Each traced function is replaced, by object identity, in every ``qbdr.*``
module namespace that binds it: the modules import each other's functions
by name (``from .linalg import matrix_powers``) and call their own through
module globals, so patching only the defining module would miss calls.

Every call keeps counters (calls, total time, self time, computed bytes);
self time is the call's duration minus the time its traced children cover.
Calls also become spans (name, start, end, parent, job id), kept in memory
and exported when the job ends, except for the hot leaves in ``HOT``, which
are only counted: one transient C = 40 block job makes about 89k
``deviation_transform_block`` calls.
"""

import sys
import time

# Traced public functions per layer; a layer is a module of ``qbdr``.
# Besides the functions that have metrics of their own, the entry points
# the CLI calls (reward_time, deviation_time, ...) are traced so that their
# time counts for their layer rather than as cli self time.
LAYERS = {
    "model": ("load_model", "assemble_generator", "classify_drift"),
    "gmatrices": ("gmatrices", "rate_matrices"),
    "stationary": ("stationary_rmatrix",),
    "passage": ("passage_column", "passage_level_matrices",
                "deviation_block_asymptotic", "deviation_matrix_diffeq"),
    "transform": ("transform_context", "reward_transform", "boundary_vectors",
                  "deviation_transform", "deviation_transform_block",
                  "invert_laplace", "reward_time", "deviation_time"),
    "perturbation": ("deviation_recursive", "resolvent_recursive",
                     "t_group_inverse", "pi_step", "deviation_update"),
    "linalg": ("solve_refined", "matrix_powers", "left_null_vector"),
}
HOT = frozenset({"transform.deviation_transform_block",
                 "passage.deviation_block_asymptotic"})


def _nbytes(result):
    return int(getattr(result, "nbytes", 0))


def _gmat_residual(result):
    return max(float(result.residual_G), float(result.residual_Ghat))


def _column_residual(result):
    return float(result.residual)


# What each function's result adds to its counters: computed bytes, or the
# largest residual the program computed (and, for passage columns, dropped).
BYTES = {"model.assemble_generator": _nbytes, "linalg.matrix_powers": _nbytes}
RESIDUALS = {"gmatrices.gmatrices": _gmat_residual,
             "passage.passage_column": _column_residual}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "bytes", "max_residual")

    def __init__(self):
        self.calls = 0
        self.total_s = self.self_s = 0.0
        self.bytes = 0
        self.max_residual = 0.0


class Tracer:
    """Wraps the functions in LAYERS and records their spans and counters."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []   # (name, start, end, parent span index or -1)
        self.stats = {}
        self._stack = []  # open calls: [child time, span index]

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "qbdr" or name.startswith("qbdr.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"qbdr.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def call_root(self, name, func, *args):
        return self._wrap(name, func)(*args)

    def _wrap(self, name, func):
        stat = self.stats.setdefault(name, Stat())
        record_span = name not in HOT
        measure = BYTES.get(name)
        residual = RESIDUALS.get(name)
        stack, spans, clock = self._stack, self.spans, time.monotonic

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            frame = [0.0, parent]
            if record_span:
                frame[1] = len(spans)
                spans.append(None)  # filled in when the call returns
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[0]
                if record_span:
                    spans[frame[1]] = (name, start, end, parent)
            if measure is not None:
                stat.bytes += measure(result)
            if residual is not None:
                stat.max_residual = max(stat.max_residual, residual(result))
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def export(self):
        return {
            "job": self.job_id,
            "spans": self.spans,
            "stats": {name: {k: getattr(s, k) for k in Stat.__slots__}
                      for name, s in self.stats.items() if s.calls},
        }
