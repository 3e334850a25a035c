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

Every power of G and Ghat is a product of their squares G^(2^i) and
Ghat^(2^i), kept per system in one table.  The rows at levels 0 and C read
the powers 0 to 2 and G^(C-1), Ghat^(C-1); the solution is swept level by
level, forward from v by G and backward from w by Ghat, so once G and Ghat
are known a solve costs O(C n^2) per right-hand side.  A forcing with one
forced level l (a block column -E_l / s, the lost-revenue reward at C) has
p_k = G^{k-l} a_l for k >= l and Ghat^{l-k} a_l for k < l: the rows, and
the solution at one level k (which reads G^k and Ghat^{C-k} too), take p_k
from the table in O(log C) products, and the full solution carries a_l in
its two sweeps, so no p is swept.
"""

import functools

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
    (*batch, n, m).  The atoms are -H0 f_l / divisor on the levels l >= 1
    from the first to the last whose forcing is nonzero (level 0 is an end
    of the run, not an atom); each node forms them in one product before
    dividing them.  With one such level, p_k is read in closed form;
    otherwise the particular term ``p`` is swept once (zero with no atom).
    Only the levels next to 0 and C are read from ``f`` and p for the
    system, whose assembled form, shape (*batch, 2n, 2n), is kept.
    """

    def __init__(self, blocks, gmat, f, divisor=1.0):
        self.blocks = blocks
        self.gs = (np.asarray(gmat.G), np.asarray(gmat.Ghat))
        n = blocks.n
        self._squares = ([self.gs[0]], [self.gs[1]])
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
        if forced.size == 1:
            self._atom, self._atoms = (int(forced[0]), atoms[forced[0]]), atoms
        else:
            self._atom = None
            self.p = particular(*self.gs, atoms) if forced.size else atoms
        rows, rhs = [], []
        for level in (0, blocks.C):
            terms = self._terms(level)
            rows.append(self._rows(terms))
            piece = f[level] / divisor
            for k, block in terms:
                piece = piece - stack_matmul(block, self._particular_at(k))
            rhs.append(piece)
        self.matrix = np.concatenate(rows, axis=-2)
        self.rhs = np.concatenate(rhs, axis=len(self._batch))

    @functools.cached_property
    def p(self):
        """The particular term at every level, swept on first read."""
        return particular(*self.gs, self._atoms)

    def _particular_at(self, k):
        """p_k: G^{k-l} a_l (k >= l) or Ghat^{l-k} a_l (k < l) for the
        one forced level l, else level k of the swept ``p``."""
        if self._atom is None:
            return self.p[k]
        level, atom = self._atom
        return stack_matmul(self._power(0, k - level) if k >= level
                            else self._power(1, level - k), atom)

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
        """G^e (``which`` 0) or Ghat^e (1) by np.linalg.matrix_power's
        products of the squares, the table extended as e needs: I at e = 0,
        (g g) g at e = 3, else the squares of e's bits, lowest first."""
        e, table = int(e), self._squares[which]
        while len(table) < e.bit_length():
            table.append(stack_matmul(table[-1], table[-1]))
        bits = ([1, 0] if e == 3 else
                [i for i in range(e.bit_length()) if e >> i & 1])
        if not bits:
            return np.zeros_like(table[0]) + np.eye(self.blocks.n)
        power = table[bits[0]]
        for i in bits[1:]:
            power = stack_matmul(power, table[i])
        return power

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
        """x_k = B_k + F_k + p_k at every level from the free vectors
        ``u``: sweeps B_k = Ghat B_{k+1} from B_C = w, F_k = G F_{k-1} from
        F_0 = v.  With one forced level l, B_k = Ghat (B_{k+1} + [k+1 = l]
        a_l), F_k = G F_{k-1} + [k = l] a_l and p is not added.  Each
        level's product broadcasts over the batch axes."""
        g, ghat = self.gs
        n, C = self.blocks.n, self.blocks.C
        level, atom = self._atom or (None, self.p[0])
        out = np.empty((C + 1,) + atom.shape,
                       dtype=np.result_type(g, ghat, u, atom))
        out[C] = u[self._batch + (slice(n, 2 * n),)]
        for k in range(C - 1, -1, -1):
            top = out[k + 1] + atom if k + 1 == level else out[k + 1]
            out[k] = stack_matmul(ghat, top)
        x = u[self._batch + (slice(0, n),)]
        out[0] += x
        for k in range(1, C + 1):
            x = stack_matmul(g, x)
            if k == level:
                x = x + atom
            out[k] += x
        if level is None:
            out += self.p
        return out

    def solve(self, level=None):
        """The solution at every level 0..C, or at ``level`` = k only:
        p_k plus the free vectors times the row of the end map at k, which
        holds G^k and Ghat^{C-k}."""
        u = self.free_vectors()
        if level is None:
            return self.evaluate(u)
        eye = np.eye(self.blocks.n)
        return (stack_matmul(self._rows([(level, eye)]), u)
                + self._particular_at(level))
