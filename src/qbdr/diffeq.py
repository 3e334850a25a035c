"""One solver for the finite matrix difference equations of a QBD.

Rewards and deviation blocks all solve the level equations
A_minus1 x_{k-1} + (L_k - sI) x_k + A1 x_{k+1} = f_k, with L_k = B0 at
level 0, C0 at the top level C and A0 inside; only the forcing f changes
from one quantity to the next.  On a run of levels a..b whose interior
equations hold, x_k = G^{k-a} v + Ghat^{b-k} w + p_k, where G and Ghat
solve the quadratic equations at s and p is the Green's particular term
with atoms -H0 f_l, which satisfies the interior equations; the sweep
leaves out level 0, which is a run end.  A run of one level keeps only v.
The level equations at the run ends, one row of which may be replaced by a
pinned entry x_(level, j) = 0, fix the free vectors.  Values and forcings
carry one trailing right-hand-side axis, whose columns are solved
together.

The transform variable s may be an array of nodes, such as the nodes of one
Laplace inversion, all solved in the same stacked operations: G, Ghat and
the system matrices then carry the shape of s as leading batch axes, and
every stack indexed by level (particular terms and solutions) carries them
right after its level axis, followed by the trailing right-hand-side axis.

The rows at the run ends read only the powers 0 to 2 of G and Ghat and, per
run, one end power of each, formed by repeated squaring; the solution is
swept level by level, forward from v by G and backward from w by Ghat.  So
no power is kept per level, and once G and Ghat are known a solve costs
O(C n^2) per right-hand side.  The solution at one level k alone reads two
more end powers, G^{k-a} and Ghat^{b-k}, and p_k, and sweeps nothing more.
"""

import numpy as np

from .errors import NumericalError
from .linalg import solve_refined, stack_matmul

__all__ = ["particular", "segment_ends", "BoundarySystem"]


def particular(g, ghat, atoms):
    """The particular term sum_{l=1}^{k} G^{k-l} a_l
    + sum_{l=k+1}^{top} Ghat^{l-k} a_l at every level k = 0..top, by one
    forward and one backward sweep; ``atoms[0]`` is not read.  The forward
    sweep is exactly zero below the first nonzero atom and the backward
    sweep from the last one up, so each sweep starts there."""
    atoms = np.asarray(atoms)
    down = np.zeros(atoms.shape, dtype=np.result_type(g, ghat, atoms))
    up = np.zeros_like(down)
    nonzero = np.flatnonzero(
        np.any(atoms[1:], axis=tuple(range(1, atoms.ndim)))) + 1
    first, last = ((nonzero[0], nonzero[-1]) if nonzero.size
                   else (len(atoms), 0))
    for k in range(first, len(atoms)):
        down[k] = stack_matmul(g, down[k - 1]) + atoms[k]
    for k in range(last - 1, -1, -1):
        up[k] = stack_matmul(ghat, up[k + 1] + atoms[k + 1])
    return down + up


def segment_ends(segments):
    """The sorted levels whose equations pin the free vectors."""
    return tuple(sorted({lv for seg in segments for lv in seg}))


class BoundarySystem:
    """The level equations at the segment ends, in the free vectors.

    ``segments`` lists consecutive runs (a, b) covering the levels 0..C.
    ``gmat`` holds s, G, Ghat and H0, with the batch shape of s as leading
    axes.  ``f`` holds the forcing at every level, shape (C + 1, n, m) when
    it is the same at every node, or (C + 1, *batch, n, m); the forcing is
    f / ``divisor``, the divisor shaped to broadcast against
    (*batch, n, m).  The particular term ``p`` is swept from the atoms
    -H0 f_l / divisor on the levels l >= 1 from the first to the last whose
    forcing is nonzero (the sweep leaves level 0 out, a run end); each node
    forms the atoms of all those levels in one product before dividing
    them.  Only the levels next to a segment end are read from ``f`` and
    ``p`` for the system, whose assembled form, shape
    (*batch, rows, columns), is kept, so several pins can share it.
    """

    def __init__(self, blocks, segments, gmat, f, divisor=1.0):
        self.blocks, self.segments = blocks, segments
        self.gs = (np.asarray(gmat.G), np.asarray(gmat.Ghat))
        self.ends = segment_ends(segments)
        n = blocks.n
        self._powers = {}
        self._batch = (slice(None),) * (self.gs[0].ndim - 2)
        self._shift = np.asarray(gmat.s)[..., None, None] * np.eye(n)
        widths = [n if b == a else 2 * n for a, b in segments]
        self._starts = [sum(widths[:i]) for i in range(len(widths))]
        self._width = sum(widths)
        self._dtype = np.result_type(*self.gs, gmat.s)
        f = np.asarray(f)
        batch, m = self.gs[0].shape[:-2], f.shape[-1]
        atoms = np.zeros((len(f),) + batch + (n, m),
                         np.result_type(self._dtype, gmat.H0, f, divisor))
        forced = np.flatnonzero(
            np.any(f[1:], axis=tuple(range(1, f.ndim)))) + 1
        if forced.size:
            lo, hi = forced[0], forced[-1] + 1
            levels = np.moveaxis(f[lo:hi], 0, -2)
            atoms[lo:hi] = np.moveaxis(np.matmul(
                -gmat.H0, levels.reshape(levels.shape[:-2] + (-1,))).reshape(
                    batch + (n, hi - lo, m)), -2, 0)
            atoms[lo:hi] /= divisor
        self.p = particular(*self.gs, atoms)
        rows, rhs = [], []
        for level in self.ends:
            terms = self._terms(level)
            rows.append(self._rows(terms))
            piece = f[level] / divisor
            for k, block in terms:
                piece = piece - stack_matmul(block, self.p[k])
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

    def _power(self, which, e):
        """G^e (``which`` 0) or Ghat^e (``which`` 1), kept; from I, which
        multiplies exactly, np.linalg.matrix_power's products: (g g) g at
        e = 3, else repeated squaring."""
        key = (which, e)
        if key not in self._powers:
            g = square = self.gs[which]
            power = np.zeros_like(g) + np.eye(g.shape[-1])
            if e == 3:
                power, e = stack_matmul(g, g), 1
            while e:
                e, bit = divmod(e, 2)
                if bit:
                    power = stack_matmul(power, square)
                if e:
                    square = stack_matmul(square, square)
            self._powers[key] = power
        return self._powers[key]

    def _rows(self, terms):
        """The coefficients of the free vectors in sum_k B_k (x_k - p_k).
        Within a segment the power its terms share is factored out,
        (sum_k B_k G^{k-lo}) G^{lo-a}: where the powers of a long run decay
        to roundoff, another association of these products moves the
        solution far more than roundoff.  The terms span at most three
        levels, so only the powers 0..2 and the one end power lo - a (or
        b - hi) of each run are read."""
        n = self.blocks.n
        out = np.zeros(self.gs[0].shape[:-1] + (self._width,),
                       dtype=self._dtype)
        for (a, b), c in zip(self.segments, self._starts):
            part = [(k, blk) for k, blk in terms if a <= k <= b]
            if not part:
                continue
            lo, hi = part[0][0], part[-1][0]
            out[..., c:c + n] = stack_matmul(sum(
                stack_matmul(blk, self._power(0, k - lo)) for k, blk in part),
                self._power(0, lo - a))
            if b != a:
                out[..., c + n:c + 2 * n] = stack_matmul(sum(
                    stack_matmul(blk, self._power(1, hi - k))
                    for k, blk in part), self._power(1, b - hi))
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
        """x_k at every level of ``p`` from the free vectors ``u``: on each
        run a backward sweep Ghat^{b-k} w from its upper end, then a forward
        sweep G^{k-a} v from its lower end, plus p_k.  Each level's product
        broadcasts over the batch axes."""
        g, ghat = self.gs
        n = self.blocks.n
        out = np.zeros(self.p.shape, dtype=np.result_type(g, ghat, u, self.p))
        for (a, b), c in zip(self.segments, self._starts):
            if b != a:
                out[b] = u[self._batch + (slice(c + n, c + 2 * n),)]
                for k in range(b - 1, a - 1, -1):
                    out[k] = stack_matmul(ghat, out[k + 1])
            x = u[self._batch + (slice(c, c + n),)]
            out[a] += x
            for k in range(a + 1, b + 1):
                x = stack_matmul(g, x)
                out[k] += x
        out += self.p
        return out

    def solve(self, pin=None, level=None):
        """The solution at every level of ``p``, or at ``level`` = k only:
        p_k plus the free vectors times the row of the end map at k, which
        holds G^{k-a} and Ghat^{b-k} of the run (a, b) that holds k."""
        u = self.free_vectors(pin)
        if level is None:
            return self.evaluate(u)
        eye = np.eye(self.blocks.n)
        return stack_matmul(self._rows([(level, eye)]), u) + self.p[level]
