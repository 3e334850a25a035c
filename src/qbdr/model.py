"""Finite QBD process model: block data, generator assembly and diagnostics.

A level-independent QBD process on levels 0..C with n phases is described by
five n-by-n rate blocks: the interior downward, local and upward blocks
A_minus1, A0, A1, and the boundary local blocks B0 (level 0) and C0
(level C).  The full generator is block tridiagonal:

    level 0:    B0   A1
    level k:    A_minus1  A0  A1        (1 <= k <= C-1)
    level C:              A_minus1  C0

Phases are stored 0-based; a phase j in 1..n of the usual queueing notation
corresponds to index j-1 everywhere in this package, including the JSON model
files and the command line.
"""

import enum
import functools
import json
from typing import NamedTuple

import numpy as np

from .errors import ModelError, ModelParseError, StructuralError
from .linalg import left_null_vector

__all__ = [
    "QbdBlocks",
    "RewardSpec",
    "Drift",
    "DriftClass",
    "Violation",
    "ROW_SUM_TOL",
    "DRIFT_TOL",
    "assemble_generator",
    "classify_drift",
    "validate",
    "require_finite",
    "is_irreducible",
    "model_from_dict",
    "model_to_dict",
    "load_model",
    "save_model",
]

ROW_SUM_TOL = 1e-12
DRIFT_TOL = 1e-10
_BLOCK_NAMES = ("A_minus1", "A0", "A1", "B0", "C0")


def _frozen(a):
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


class Frozen:
    """Base of the records whose attributes are set once, in ``__init__``
    (through ``vars(self)``), and never assigned or deleted after."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")


class QbdBlocks(Frozen):
    """The five generator blocks of a finite QBD process plus its capacity.

    Immutable after construction; the arrays are stored read-only so an
    instance can safely be shared across threads.
    """

    def __init__(self, n, C, A_minus1, A0, A1, B0, C0):
        blocks = (A_minus1, A0, A1, B0, C0)
        vars(self).update(zip(_BLOCK_NAMES, map(_frozen, blocks)), n=n, C=C)

    @classmethod
    def from_matrices(cls, A_minus1, A0, A1, B0, C0, C):
        """Build blocks, deriving the phase count from A0."""
        A0 = np.atleast_2d(np.asarray(A0, dtype=float))
        return cls(n=A0.shape[0], C=int(C), A_minus1=A_minus1, A0=A0,
                   A1=A1, B0=B0, C0=C0)

    def with_capacity(self, C):
        """The same blocks with capacity ``C``."""
        return QbdBlocks(self.n, C, *(getattr(self, name)
                                      for name in _BLOCK_NAMES))

    def interior_sum(self):
        """A_minus1 + A0 + A1, the phase process generator."""
        return self.A_minus1 + self.A0 + self.A1

    @functools.cached_property
    def drift(self):
        """:func:`classify_drift`, computed on first use and kept: the
        blocks are read-only, so it cannot go stale, and every asymptotic
        route checks it."""
        return classify_drift(self)

    @functools.cached_property
    def finite(self):
        """Whether every block entry is finite, computed on first use and
        kept like :attr:`drift`; :func:`require_finite` reads it on every
        solver call."""
        return all(np.isfinite(getattr(self, name)).all()
                   for name in _BLOCK_NAMES)


class RewardSpec(Frozen):
    """Per-level reward (or loss) rate vectors g_0 .. g_C.

    ``g[k][i]`` is the reward earned per unit time while the process sits in
    level k, phase i.
    """

    def __init__(self, g):
        vars(self).update(g=tuple(_frozen(v) for v in g))

    @classmethod
    def zeros(cls, n, C):
        return cls(g=tuple(np.zeros(n) for _ in range(C + 1)))

    def stacked(self):
        """All levels concatenated into one length-(C+1)n vector."""
        return np.concatenate(self.g)

    def __len__(self):
        return len(self.g)


class Drift(enum.Enum):
    POSITIVE_RECURRENT = "PositiveRecurrent"
    TRANSIENT = "Transient"
    NULL_RECURRENT = "NullRecurrent"


class DriftClass(NamedTuple):
    """Recurrence classification of the unrestricted (infinite-level) process.

    ``mean_drift`` is alpha A1 1 - alpha A_minus1 1 where alpha is the
    stationary phase distribution; positive drift means the unrestricted
    process escapes upward (a finite buffer then blocks often).
    """

    tag: Drift
    mean_drift: float
    alpha: np.ndarray


class Violation(NamedTuple):
    """One violated model invariant, as reported by :func:`validate`."""

    block: str
    kind: str
    row: int | None
    magnitude: float

    def __str__(self):
        where = f" row {self.row}" if self.row is not None else ""
        return f"{self.block}{where}: {self.kind} (magnitude {self.magnitude:.3g})"


def _shape_violations(blocks):
    found = []
    n = blocks.n
    for name in _BLOCK_NAMES:
        mat = getattr(blocks, name)
        if mat.ndim != 2 or mat.shape != (n, n):
            found.append(Violation(name, f"shape {mat.shape} != ({n}, {n})", None,
                                   float("nan")))
    if blocks.n < 1:
        found.append(Violation("n", "phase count below 1", None, float(blocks.n)))
    if blocks.C < 1:
        found.append(Violation("C", "capacity below 1", None, float(blocks.C)))
    return found


def _nonfinite_violations(blocks):
    """One violation per block holding a NaN or infinite entry, at the
    first such entry."""
    found = []
    for name in _BLOCK_NAMES:
        mat = getattr(blocks, name)
        bad = np.argwhere(~np.isfinite(mat))
        if bad.size:
            found.append(Violation(
                name, "non-finite entry",
                int(bad[0][0]) if mat.ndim == 2 else None,
                float(mat[tuple(bad[0])])))
    return found


def require_finite(blocks):
    """Raise :class:`StructuralError` if a block holds a NaN or infinite
    entry.  :func:`validate` reports the same violations without raising."""
    if not blocks.finite:
        raise StructuralError("non-finite model blocks: " + "; ".join(
            map(str, _nonfinite_violations(blocks))))


def validate(blocks):
    """Check every model invariant and report each violation.

    Returns a list of :class:`Violation`; the list is empty exactly when the
    blocks describe a valid conservative QBD generator.  Never raises.
    """
    found = _shape_violations(blocks) or _nonfinite_violations(blocks)
    if found:
        return found
    n = blocks.n

    def check_nonneg(name, mat, off_diagonal_only):
        for i in range(n):
            for j in range(n):
                if off_diagonal_only and i == j:
                    continue
                if mat[i, j] < 0:
                    found.append(Violation(name, "negative entry", i,
                                           float(-mat[i, j])))

    check_nonneg("A_minus1", blocks.A_minus1, False)
    check_nonneg("A1", blocks.A1, False)
    check_nonneg("A0", blocks.A0, True)
    check_nonneg("B0", blocks.B0, True)
    check_nonneg("C0", blocks.C0, True)

    for label, rows in (
        ("[B0 | A1]", blocks.B0.sum(axis=1) + blocks.A1.sum(axis=1)),
        ("[A_minus1 | A0 | A1]",
         blocks.A_minus1.sum(axis=1) + blocks.A0.sum(axis=1) + blocks.A1.sum(axis=1)),
        ("[A_minus1 | C0]", blocks.A_minus1.sum(axis=1) + blocks.C0.sum(axis=1)),
    ):
        for i in range(n):
            if abs(rows[i]) > ROW_SUM_TOL:
                found.append(Violation(label, "row sum not zero", i,
                                       float(abs(rows[i]))))

    for name, mat in (("A0", blocks.A0), ("B0", blocks.B0), ("C0", blocks.C0)):
        for i in range(n):
            if mat[i, i] > 0:
                found.append(Violation(name, "positive diagonal entry", i,
                                       float(mat[i, i])))
    return found


def assemble_generator(blocks):
    """Assemble the dense n(C+1) x n(C+1) generator of the finite QBD.

    Raises
    ------
    StructuralError
        If the block shapes are inconsistent.
    """
    if _shape_violations(blocks):
        raise StructuralError(
            "inconsistent block dimensions: " +
            "; ".join(str(v) for v in _shape_violations(blocks)))
    n, C = blocks.n, blocks.C
    q = np.zeros((n * (C + 1), n * (C + 1)))

    def put(k, l, mat):
        q[k * n:(k + 1) * n, l * n:(l + 1) * n] = mat

    put(0, 0, blocks.B0)
    put(0, 1, blocks.A1)
    for k in range(1, C):
        put(k, k - 1, blocks.A_minus1)
        put(k, k, blocks.A0)
        put(k, k + 1, blocks.A1)
    put(C, C - 1, blocks.A_minus1)
    put(C, C, blocks.C0)
    return q


def is_irreducible(blocks):
    """Whether the assembled generator has a single communicating class.

    Checked by graph reachability on the nonzero pattern of the generator.
    """
    q = assemble_generator(blocks)
    m = q.shape[0]
    adj = (np.abs(q) > 0) & ~np.eye(m, dtype=bool)

    def reachable(a):
        seen = np.zeros(m, dtype=bool)
        seen[0] = True
        stack = [0]
        while stack:
            i = stack.pop()
            for j in np.nonzero(a[i])[0]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        return seen

    return bool(reachable(adj).all() and reachable(adj.T).all())


def classify_drift(blocks):
    """Classify the drift of the unrestricted process.

    The stationary phase vector alpha of A = A_minus1 + A0 + A1 determines
    the mean drift alpha A1 1 - alpha A_minus1 1.  Positive drift gives a
    transient unrestricted process (a high-blocking finite system), negative
    drift a positive recurrent one; within DRIFT_TOL of zero the process
    is classified null recurrent.

    Raises
    ------
    ModelError
        If A is reducible or its stationary vector cannot be computed.
    """
    a = blocks.interior_sum()
    if np.max(np.abs(a.sum(axis=1))) > 1e-8:
        raise ModelError("A_minus1 + A0 + A1 is not a generator")
    try:
        alpha = left_null_vector(a) if blocks.n > 1 else np.ones(1)
    except Exception as exc:
        raise ModelError(f"stationary phase vector solve failed: {exc}") from exc
    drift = float(alpha @ blocks.A1 @ np.ones(blocks.n)
                  - alpha @ blocks.A_minus1 @ np.ones(blocks.n))
    if abs(drift) <= DRIFT_TOL:
        tag = Drift.NULL_RECURRENT
    elif drift > 0:
        tag = Drift.TRANSIENT
    else:
        tag = Drift.POSITIVE_RECURRENT
    return DriftClass(tag=tag, mean_drift=drift, alpha=_frozen(alpha))


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------

def model_to_dict(blocks, rewards=None):
    out = {
        "n": blocks.n,
        "C": blocks.C,
        "blocks": {
            "A_minus1": blocks.A_minus1.tolist(),
            "A0": blocks.A0.tolist(),
            "A1": blocks.A1.tolist(),
            "B0": blocks.B0.tolist(),
            "C0": blocks.C0.tolist(),
        },
    }
    if rewards is not None:
        out["reward"] = {"g": [v.tolist() for v in rewards.g]}
    return out


def model_from_dict(data):
    """Parse the model dict format; returns (blocks, rewards_or_None)."""
    try:
        n = int(data["n"])
        C = int(data["C"])
        raw = data["blocks"]
        blocks = QbdBlocks(n=n, C=C,
                           A_minus1=raw["A_minus1"], A0=raw["A0"],
                           A1=raw["A1"], B0=raw["B0"], C0=raw["C0"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelParseError(f"invalid model data: {exc}") from exc
    nonfinite = _nonfinite_violations(blocks)
    if nonfinite:
        raise ModelParseError("invalid model data: "
                              + "; ".join(map(str, nonfinite)))
    rewards = None
    if "reward" in data and data["reward"] is not None:
        try:
            g = [np.asarray(v, dtype=float) for v in data["reward"]["g"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelParseError(f"invalid reward data: {exc}") from exc
        if len(g) != C + 1 or any(v.shape != (n,) for v in g):
            raise ModelParseError(
                f"reward must hold {C + 1} vectors of length {n}")
        if not all(np.isfinite(v).all() for v in g):
            raise ModelParseError("reward entries must be finite")
        rewards = RewardSpec(g=tuple(g))
    return blocks, rewards


def load_model(path):
    """Load (blocks, rewards_or_None) from a JSON model file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelParseError(f"{path}: {exc}") from exc
    return model_from_dict(data)


def open_for_writing(path, newline=None):
    """``open(path, "w")``, reporting an OSError as ModelParseError."""
    try:
        return open(path, "w", newline=newline)
    except OSError as exc:
        raise ModelParseError(f"{path}: {exc}") from exc


def save_model(path, blocks, rewards=None):
    with open_for_writing(path) as fh:
        json.dump(model_to_dict(blocks, rewards), fh, indent=1)
        fh.write("\n")
