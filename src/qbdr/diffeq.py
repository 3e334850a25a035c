"""One solver for the finite matrix difference equations of a QBD.

Rewards, deviation blocks and mean first passage times all solve the level
equations A_minus1 x_{k-1} + (L_k - sI) x_k + A1 x_{k+1} = f_k, with L_k =
B0 at level 0, C0 at the upper boundary and A0 inside.  On a run of levels
a..b whose interior equations hold, x_k = G^{k-a} v + Ghat^{b-k} w + p_k,
where G and Ghat solve the quadratic equations at s and the particular
term p satisfies the interior equations; a run of one level, or with no
upper end, keeps only v.  The level equations at the run ends, one row of
which may be replaced by a pinned entry x_(level, j) = 0, fix the free
vectors.  Values and forcings may carry one trailing right-hand-side axis,
whose columns are solved together.

The transform variable s may be an array of nodes, such as the nodes of one
Laplace inversion, all solved in the same stacked operations: G, Ghat and
the system matrices then carry the shape of s as leading batch axes, and
every stack indexed by level (powers, particular terms, forcings and
solutions) carries them right after its level axis, followed by the
trailing right-hand-side axis, which batched values must have.
"""

import numpy as np

from .errors import NumericalError
from .linalg import matrix_powers, solve_refined

__all__ = ["power_stacks", "particular", "segment_ends", "BoundarySystem"]


def power_stacks(gmat, top):
    """The stacked powers 0..top of G and of Ghat."""
    return matrix_powers(gmat.G, top), matrix_powers(gmat.Ghat, top)


def particular(g, ghat, atoms, tail=0.0):
    """The particular term sum_{l=1}^{k} G^{k-l} a_l
    + sum_{l=k+1}^{top} Ghat^{l-k} a_l + Ghat^{top-k} tail at every level
    k = 0..top, by one forward and one backward sweep.  ``tail`` is the
    contribution of the atoms above ``top``; ``atoms[0]`` is not read."""
    atoms = np.asarray(atoms)
    down = np.zeros(atoms.shape, dtype=np.result_type(g, ghat, atoms, tail))
    up = np.zeros_like(down)
    up[-1] = tail
    for k in range(1, len(atoms)):
        down[k] = g @ down[k - 1] + atoms[k]
    for k in range(len(atoms) - 2, -1, -1):
        up[k] = ghat @ (up[k + 1] + atoms[k + 1])
    return down + up


def segment_ends(segments):
    """The sorted levels whose equations pin the free vectors."""
    return tuple(sorted({lv for seg in segments for lv in seg} - {None}))


class BoundarySystem:
    """The level equations at the segment ends, in the free vectors.

    ``segments`` lists consecutive runs (a, b) covering the levels from 0,
    with b None on a last run that has no upper end.  ``powers`` holds the
    stacked powers of G and Ghat up to the top level evaluated, shape
    (levels, *batch, n, n); ``p`` and ``f`` hold the particular term and
    the forcing at every level, shape (levels, n), or (levels, *batch, n,
    m), of which only the levels next to a segment end are read.  The
    assembled system, shape (*batch, rows, columns), is kept, so several
    pins can share it.
    """

    def __init__(self, blocks, segments, powers, p, f, s=0.0):
        self.blocks, self.segments = blocks, segments
        self.powers = tuple(np.asarray(stack) for stack in powers)
        self.p = np.asarray(p)
        self.ends = segment_ends(segments)
        n = blocks.n
        self._batch = (slice(None),) * (self.powers[0].ndim - 3)
        self._shift = np.asarray(s)[..., None, None] * np.eye(n)
        widths = [n if b in (None, a) else 2 * n for a, b in segments]
        self._starts = [sum(widths[:i]) for i in range(len(widths))]
        self._width = sum(widths)
        self._dtype = np.result_type(self.powers[0], s)
        f = np.asarray(f, dtype=np.result_type(self._dtype, self.p, f))
        rows, rhs = [], []
        for level in self.ends:
            terms = self._terms(level)
            rows.append(self._rows(terms))
            piece = f[level].copy()
            for k, block in terms:
                piece -= block @ self.p[k]
            rhs.append(piece)
        self.matrix = np.concatenate(rows, axis=-2)
        self.rhs = np.concatenate(rhs, axis=len(self._batch))

    def _terms(self, level):
        """The blocks of the level equation at ``level``, by the level of
        the vector each multiplies, in increasing order."""
        b, top = self.blocks, self.segments[-1][1]
        local = (b.B0 if level == 0 else b.C0 if level == top else b.A0)
        terms = [(level, local - self._shift)]
        if level > 0:
            terms.insert(0, (level - 1, b.A_minus1))
        if level != top:
            terms.append((level + 1, b.A1))
        return terms

    def _rows(self, terms):
        """The coefficients of the free vectors in sum_k B_k (x_k - p_k).
        Within a segment the power its terms share is factored out,
        (sum_k B_k G^{k-lo}) G^{lo-a}: where the powers of a long run decay
        to roundoff, another association of these products moves the
        solution far more than roundoff."""
        gp, ghp = self.powers
        n = self.blocks.n
        out = np.zeros(gp.shape[1:-1] + (self._width,), dtype=self._dtype)
        for (a, b), c in zip(self.segments, self._starts):
            part = [(k, blk) for k, blk in terms
                    if a <= k and (b is None or k <= b)]
            if not part:
                continue
            lo, hi = part[0][0], part[-1][0]
            out[..., c:c + n] = sum(blk @ gp[k - lo] for k, blk in part) \
                @ gp[lo - a]
            if b not in (None, a):
                out[..., c + n:c + 2 * n] = sum(
                    blk @ ghp[hi - k] for k, blk in part) @ ghp[b - hi]
        return out

    def pinned(self, pin=None):
        """The system matrix and right-hand side, with the row of
        ``pin`` = (level, j) replaced by -x_(level, j) = 0."""
        if pin is None:
            return self.matrix, self.rhs
        level, j = pin
        n = self.blocks.n
        row = self.ends.index(level) * n + j
        matrix, rhs = self.matrix.copy(), self.rhs.copy()
        barred = [(k, -np.eye(n) if k == level else np.zeros((n, n)))
                  for k, _ in self._terms(level)]
        matrix[..., row, :] = self._rows(barred)[..., j, :]
        rhs[self._batch + (row,)] = self.p[level][self._batch + (j,)]
        return matrix, rhs

    def end_map(self):
        """The matrix taking the free vectors to x_k - p_k at the segment
        ends; the system matrix is the censored level equations times it."""
        eye = np.eye(self.blocks.n)
        return np.concatenate([self._rows([(level, eye)])
                               for level in self.ends], axis=-2)

    def free_vectors(self, pin=None):
        """The stacked free vectors of every segment."""
        try:
            return solve_refined(*self.pinned(pin))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"boundary system singular: {exc}") from exc

    def evaluate(self, u):
        """x_k at every level of ``p`` from the free vectors ``u``; each
        level's products broadcast over the batch axes."""
        gp, ghp = self.powers
        n = self.blocks.n
        out = np.empty(self.p.shape, dtype=np.result_type(gp, u, self.p))
        for (a, b), c in zip(self.segments, self._starts):
            v = u[self._batch + (slice(c, c + n),)]
            if b not in (None, a):
                w = u[self._batch + (slice(c + n, c + 2 * n),)]
                for k in range(a, b + 1):
                    out[k] = gp[k - a] @ v + ghp[b - k] @ w + self.p[k]
            else:
                for k in range(a, len(out) if b is None else b + 1):
                    out[k] = gp[k - a] @ v + self.p[k]
        return out

    def solve(self, pin=None):
        """The solution at every level of ``p``."""
        return self.evaluate(self.free_vectors(pin))
