"""Log-domain special functions backing every closed-form criterion.

``log_beta_ratio`` gives log B(x + t) - log B(x) for integer increments t
as the Polya-urn probability of drawing those counts one at a time, a sum
of ``np.log`` terms with no log-gamma cancellation, so it keeps its
digits at counts of 1e8 and beyond. Only cells with t > 0 draw:
``_log_beta_cells`` takes x at those cells and each row's x total, for
one or more x tables over the same increments, which share the draws'
cell and in-cell indices and are weighed one table at a time, so a call
holds four draw-sized arrays however many tables it scores, and sums the
terms of each group of consecutive rows pairwise, so rounding grows with
the log of a group's draw count.
``log_beta_ratio(x, t)`` is its one public dense form: the sum over the
rows of one 2-D table, reading both from full rows.
``_polygamma`` gives psi and psi' from the asymptotic Bernoulli-number
series after shifting the argument above 12 with the standard
recurrences; its target accuracy, grid-checked in the tests, is 1e-10
absolute on [1e-3, 1e6]. The shift runs in place over the arguments
below the shift point, a 0/1 increment per element, with the same bits
as shifting each argument alone, and one shift serves both functions.
"""

from __future__ import annotations

import numpy as np

__all__ = ["log_beta_ratio"]

# Arguments are pushed above this value by recurrence before applying the
# asymptotic tails below; with seven Bernoulli terms the truncation error
# at z = 12 is ~1e-17.
_SHIFT = 12.0

# B_{2n} / (2n) for psi, n = 1..7.
_PSI_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

# B_{2n} for psi', n = 1..7.
_PSI1_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def _shifted(arr: np.ndarray):
    """Shift every argument to at least _SHIFT by the recurrence; return it
    and the sums for psi and psi'.

    The psi sum collects -1/z and the psi' sum +1/z^2 for each z passed on
    the way. Only the arguments below _SHIFT are shifted; the others keep
    their value and zero sums. Each pass runs over those arguments in
    place, with ``inc`` 1.0 where an argument is still below _SHIFT and 0.0
    where it is done: a finished element adds 0.0 to its argument and its
    sums, which leaves them unchanged, so every element ends with the same
    bits as when shifted alone.
    """
    zz = np.array(arr, dtype=float, ndmin=1, order="C")  # so ravel() below is a view
    acc = np.zeros_like(zz)
    acc1 = np.zeros_like(zz)
    low = np.flatnonzero(zz < _SHIFT)
    if not low.size:
        return zz, acc, acc1
    z = zz.ravel()[low]
    sub = np.zeros_like(z)
    sub1 = np.zeros_like(z)
    inc = np.empty_like(z)
    step = np.empty_like(z)
    while z.min() < _SHIFT:
        np.less(z, _SHIFT, out=inc)
        np.divide(inc, z, out=step)
        sub -= step
        np.multiply(z, z, out=step)
        np.divide(inc, step, out=step)
        sub1 += step
        z += inc
    zz.ravel()[low] = z
    acc.ravel()[low] = sub
    acc1.ravel()[low] = sub1
    return zz, acc, acc1


def _series(zz: np.ndarray, tail: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """u = 1/z^2 and the asymptotic tail's polynomial in u, Horner's rule from the last term."""
    u = np.multiply(zz, zz)
    np.divide(1.0, u, out=u)
    poly = np.full_like(zz, tail[-1])
    for c in reversed(tail[:-1]):
        poly *= u
        poly += c
    return u, poly


def _polygamma(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi and psi' of the finite positive floats ``arr``, in the shape of
    ``arr`` (at least 1-D), from one shared shift loop; accurate to 1e-10
    absolute on [1e-3, 1e6]."""
    zz, acc, acc1 = _shifted(arr)
    u, poly = _series(zz, _PSI_TAIL)
    # acc + log z - 0.5 / z - poly u, summed in place in that order
    term = np.log(zz)
    acc += term
    acc -= np.divide(0.5, zz, out=term)
    acc -= np.multiply(poly, u, out=poly)
    u, poly = _series(zz, _PSI1_TAIL)
    # acc1 + 1 / z + 0.5 u + poly u / z, summed in place in that order
    term = np.divide(1.0, zz)
    acc1 += term
    acc1 += np.multiply(0.5, u, out=term)
    poly *= u
    acc1 += np.divide(poly, zz, out=poly)
    return acc, acc1


def log_beta_ratio(x, t) -> float:
    """The sum over rows of log B(x + t) - log B(x).

    ``x`` holds finite positive rows (one component per destination) and
    ``t`` the matching non-negative integer increments. Only the cells with
    t > 0 draw: this reads x there and each row's total, and hands them to
    ``_log_beta_cells`` as one group.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t)
    if x.ndim != 2 or x.shape != t.shape or t.shape[1] < 2:
        raise ValueError("x and t must be matching rows of at least two components")
    if x.size and (not np.all(np.isfinite(x)) or np.min(x) <= 0.0 or np.min(t) < 0):
        raise ValueError("log_beta_ratio needs finite x > 0 and increments t >= 0")
    flat = t.ravel()
    cells = np.flatnonzero(flat)  # (row, destination) cells that draw
    return float(_log_beta_cells([x.ravel()[cells]], [x.sum(axis=1)], cells // t.shape[1],
                                 flat[cells], t.sum(axis=1), [len(t)])[0, 0])


def _log_beta_cells(xc, xr, row, reps, totals, sizes) -> np.ndarray:
    """``log_beta_ratio`` from the cells that draw, per group, for one or
    more x tables.

    ``reps`` holds the increments t > 0 in row order (within a row, in
    destination order), ``row`` each one's row and ``totals`` each row's
    sum of t; table s gives x at those cells in ``xc[s]`` and each row's x
    total in ``xr[s]``. The groups are consecutive runs of rows: group g
    holds the next ``sizes[g]`` rows. Each row's increments expand into
    draws, destination m first and then k = 0 .. t_m - 1; the draw at
    position i of its row weighs log(x_m + k) - log(X + i), with X the row
    total. One ``np.add.reduceat`` per table sums each group's weights,
    starting at the group's first draw: pairwise, in the order of numpy's
    sum over that group's draws alone, so a group's value depends only on
    its own rows and their order, never on the other rows scored with it.
    A group with no draw is 0.0. Row s of the result is table s's value
    per group; each table is weighed and summed before the next.
    """
    cell_start = np.cumsum(reps) - reps
    row_end = np.cumsum(totals)
    row_start = row_end - totals
    # The tables are weighed one at a time, so at most four draw-sized arrays
    # are alive at once, whatever the number of tables: the draw -> cell
    # index, k, i or then the table's weights, and a row-total buffer. k and
    # i are floats, exact below 2**53 draws, and add with the bits of their
    # integers but without a cast per draw.
    cell = np.repeat(np.arange(len(reps)), reps)
    # k: draws before this one in its cell (from the draw index over all rows)
    k = np.arange(float(cell.size))
    k -= cell_start.astype(float).take(cell)
    # i, draws before this one in its row, is k plus its cell's offset in the row
    cell_offset = (cell_start - row_start[row]).astype(float)
    # each group's draws: from its first row's first draw to the next group's
    draw_bounds = np.concatenate(([0], row_end))[np.concatenate(([0], np.cumsum(sizes)))]
    drawn = draw_bounds[1:] > draw_bounds[:-1]
    starts = draw_bounds[:-1][drawn]
    out = np.zeros((len(xc), drawn.size))
    for values, x, x_total in zip(out, xc, xr):
        i = cell_offset.take(cell)
        i += k
        xi = x_total[row].take(cell)
        xi += i
        del i
        w = x.take(cell)
        w += k
        np.log(w, out=w)
        w -= np.log(xi, out=xi)
        del xi
        values[drawn] = np.add.reduceat(w, starts)
        del w
    return out
