"""One solver for the finite matrix difference equations of a QBD at s != 0.

Rewards and transformed deviation columns all solve the level equations
A_minus1 x_{k-1} + (L_k - sI) x_k + A1 x_{k+1} = f_k, with L_k = B0 at
level 0, C0 at the top level C and A0 inside; only the forcing f changes
from one quantity to the next.  On the levels 0..C the interior equations
give x_k = G^k v + Ghat^{C-k} w + p_k, where G and Ghat solve the quadratic
equations at s and p is the Green's particular term with atoms -H0 f_l,
which satisfies the interior equations; the sweep leaves out level 0, an
end of the run.  The level equations at 0 and C fix the free vectors v and
w.  Values and forcings carry one trailing right-hand-side axis, whose
columns are solved together.  At s = 0 the equations are singular, and
:mod:`qbdr.passage` solves them by level reduction instead.

The transform variable s may be an array of nodes, such as the nodes of one
Laplace inversion, all solved in the same stacked operations: G, Ghat and
the system matrices then carry the shape of s as leading batch axes, and
every stack indexed by level (particular terms and solutions) carries them
right after its level axis, followed by the trailing right-hand-side axis.

The rows at levels 0 and C read only the powers 0 to 2 of G and Ghat and
one end power of each, G^(C-1) and Ghat^(C-1), formed by repeated squaring;
the solution is swept level by level, forward from v by G and backward
from w by Ghat.  So no power is kept per level, and once G and Ghat are
known a solve costs O(C n^2) per right-hand side.  The solution at one
level k alone reads two more end powers, G^k and Ghat^{C-k}, and p_k, and
sweeps nothing more.
"""

import numpy as np

from .errors import NumericalError
from .linalg import solve_refined, stack_matmul

__all__ = ["particular", "BoundarySystem"]


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


class BoundarySystem:
    """The level equations at levels 0 and C, in the free vectors (v, w).

    ``gmat`` holds s, G, Ghat and H0, with the batch shape of s as leading
    axes.  ``f`` holds the forcing at every level, shape (C + 1, n, m) when
    it is the same at every node, or (C + 1, *batch, n, m); the forcing is
    f / ``divisor``, the divisor shaped to broadcast against
    (*batch, n, m).  The particular term ``p`` is swept from the atoms
    -H0 f_l / divisor on the levels l >= 1 from the first to the last whose
    forcing is nonzero (the sweep leaves level 0 out, an end of the run);
    each node forms the atoms of all those levels in one product before
    dividing them.  Only the levels next to 0 and C are read from ``f`` and
    ``p`` for the system, whose assembled form, shape (*batch, 2n, 2n), is
    kept.
    """

    def __init__(self, blocks, gmat, f, divisor=1.0):
        self.blocks = blocks
        self.gs = (np.asarray(gmat.G), np.asarray(gmat.Ghat))
        n = blocks.n
        self._powers = {}
        self._batch = (slice(None),) * (self.gs[0].ndim - 2)
        self._shift = np.asarray(gmat.s)[..., None, None] * np.eye(n)
        f = np.asarray(f)
        batch, m = self.gs[0].shape[:-2], f.shape[-1]
        atoms = np.zeros((len(f),) + batch + (n, m), np.result_type(
            *self.gs, gmat.s, gmat.H0, f, divisor))
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
        for level in (0, blocks.C):
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
        b = self.blocks
        local = (b.B0 if level == 0 else b.C0 if level == b.C else b.A0)
        terms = [(level, local - self._shift)]
        if level > 0:
            terms.insert(0, (level - 1, b.A_minus1))
        if level != b.C:
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
        """The coefficients of (v, w) in sum_k B_k (x_k - p_k).  The power
        the terms share is factored out, (sum_k B_k G^{k-lo}) G^lo: where
        the powers of a long run decay to roundoff, another association of
        these products moves the solution far more than roundoff.  The
        terms span at most three levels, so only the powers 0..2 and the
        one end power lo (or C - hi) of each are read."""
        lo, hi = terms[0][0], terms[-1][0]
        return np.concatenate([
            stack_matmul(sum(stack_matmul(blk, self._power(0, k - lo))
                             for k, blk in terms), self._power(0, lo)),
            stack_matmul(sum(stack_matmul(blk, self._power(1, hi - k))
                             for k, blk in terms),
                         self._power(1, self.blocks.C - hi))], axis=-1)

    def free_vectors(self):
        """The stacked free vectors (v, w)."""
        try:
            return solve_refined(self.matrix, self.rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"boundary system singular: {exc}") from exc

    def evaluate(self, u):
        """x_k at every level of ``p`` from the free vectors ``u``: a
        backward sweep Ghat^{C-k} w from level C, then a forward sweep
        G^k v from level 0, plus p_k.  Each level's product broadcasts over
        the batch axes."""
        g, ghat = self.gs
        n, C = self.blocks.n, self.blocks.C
        out = np.empty(self.p.shape, dtype=np.result_type(g, ghat, u, self.p))
        out[C] = u[self._batch + (slice(n, 2 * n),)]
        for k in range(C - 1, -1, -1):
            out[k] = stack_matmul(ghat, out[k + 1])
        x = u[self._batch + (slice(0, n),)]
        out[0] += x
        for k in range(1, C + 1):
            x = stack_matmul(g, x)
            out[k] += x
        out += self.p
        return out

    def solve(self, level=None):
        """The solution at every level of ``p``, or at ``level`` = k only:
        p_k plus the free vectors times the row of the end map at k, which
        holds G^k and Ghat^{C-k}."""
        u = self.free_vectors()
        if level is None:
            return self.evaluate(u)
        eye = np.eye(self.blocks.n)
        return stack_matmul(self._rows([(level, eye)]), u) + self.p[level]
