"""Log-domain special functions backing every closed-form criterion.

``log_beta_ratio`` gives log B(x + t) - log B(x) for integer increments t
as the Polya-urn probability of drawing those counts one at a time, a sum
of ``np.log`` terms with no log-gamma cancellation, so it keeps its
digits at counts of 1e8 and beyond. Only cells with t > 0 draw:
``_log_beta_cells`` takes x at those cells and each row's x total, for
one or more x tables over the same increments, which share one expansion
of the draws. ``log_beta_ratio`` is its dense form for one 2-D table,
reading both from full rows.
``digamma`` and ``trigamma`` use the
asymptotic Bernoulli-number series after shifting the argument above 12
with the standard recurrences; their target accuracy, grid-checked in the
tests, is 1e-10 absolute on [1e-3, 1e6]. The shift runs in place over
the arguments below the shift point, a 0/1 increment per element, with
the same bits as shifting each argument alone; ``_polygamma`` gives both
functions from one shared shift, each with the bits of its own call.
"""

from __future__ import annotations

import numpy as np

__all__ = ["log_beta_ratio", "digamma", "trigamma"]

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


def _positive_array(z, name: str) -> np.ndarray:
    arr = np.asarray(z, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.min(arr) <= 0.0):
        raise ValueError(f"{name} is defined only for finite arguments > 0")
    return arr


def _shifted(arr: np.ndarray, psi: bool, psi1: bool):
    """Shift every argument to at least _SHIFT by the recurrence; return it
    and the sums for psi and psi' (None for one not asked for).

    The psi sum collects -1/z and the psi' sum +1/z^2 for each z passed on
    the way. Only the arguments below _SHIFT are shifted; the others keep
    their value and zero sums. Each pass runs over those arguments in
    place, with ``inc`` 1.0 where an argument is still below _SHIFT and 0.0
    where it is done: a finished element adds 0.0 to its argument and its
    sums, which leaves them unchanged, so every element ends with the same
    bits as when shifted alone, and each sum with the bits of a loop that
    kept it alone.
    """
    zz = np.array(arr, dtype=float, ndmin=1, order="C")  # so ravel() below is a view
    acc = np.zeros_like(zz) if psi else None
    acc1 = np.zeros_like(zz) if psi1 else None
    low = np.flatnonzero(zz < _SHIFT)
    if not low.size:
        return zz, acc, acc1
    z = zz.ravel()[low]
    sub = np.zeros_like(z) if psi else None
    sub1 = np.zeros_like(z) if psi1 else None
    inc = np.empty_like(z)
    step = np.empty_like(z)
    while z.min() < _SHIFT:
        np.less(z, _SHIFT, out=inc)
        if psi:
            np.divide(inc, z, out=step)
            sub -= step
        if psi1:
            np.multiply(z, z, out=step)
            np.divide(inc, step, out=step)
            sub1 += step
        z += inc
    zz.ravel()[low] = z
    if psi:
        acc.ravel()[low] = sub
    if psi1:
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


def _polygamma(arr: np.ndarray, psi: bool = True, psi1: bool = True):
    """psi and psi' of the finite positive floats ``arr`` (None for one not
    asked for), as 1-D arrays, from one shared shift loop. Each has the bits
    of its own ``digamma`` or ``trigamma`` call: the shift is elementwise
    and each series below runs its own operations in order."""
    zz, acc, acc1 = _shifted(arr, psi, psi1)
    if psi:
        u, poly = _series(zz, _PSI_TAIL)
        # acc + log z - 0.5 / z - poly u, summed in place in that order
        term = np.log(zz)
        acc += term
        acc -= np.divide(0.5, zz, out=term)
        acc -= np.multiply(poly, u, out=poly)
    if psi1:
        u, poly = _series(zz, _PSI1_TAIL)
        # acc1 + 1 / z + 0.5 u + poly u / z, summed in place in that order
        term = np.divide(1.0, zz)
        acc1 += term
        acc1 += np.multiply(0.5, u, out=term)
        poly *= u
        acc1 += np.divide(poly, zz, out=poly)
    return acc, acc1


def _shaped(res: np.ndarray, arr: np.ndarray):
    res = res.reshape(arr.shape)
    return float(res) if res.ndim == 0 else res


def digamma(z):
    """psi(z) = d/dz ln Gamma(z) for z > 0 (elementwise on arrays)."""
    arr = _positive_array(z, "digamma")
    return _shaped(_polygamma(arr, psi1=False)[0], arr)


def trigamma(z):
    """psi'(z), the derivative of the digamma function, for z > 0."""
    arr = _positive_array(z, "trigamma")
    return _shaped(_polygamma(arr, psi=False)[1], arr)


def log_beta_ratio(x, t, group=None, n_groups: int = 1) -> np.ndarray:
    """Per group, the sum over rows of log B(x + t) - log B(x).

    ``x`` holds finite positive rows (one component per destination) and
    ``t`` the matching non-negative integer increments; row r adds to
    group ``group[r]`` (default: every row to group 0). Each row's
    increments expand into draws, destination m first and then k = 0 ..
    t_m - 1; the draw at position i of its row weighs log(x_m + k) -
    log(X + i), with X the row total. One ``np.bincount`` sums the weights
    sequentially in draw order, so a group's value depends only on its own
    rows and their order, never on the other rows scored with it.

    Only the cells with t > 0 draw: this reads x there and each row's total,
    and hands them to ``_log_beta_cells``.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t)
    if x.ndim != 2 or x.shape != t.shape or t.shape[1] < 2:
        raise ValueError("x and t must be matching rows of at least two components")
    if x.size and (not np.all(np.isfinite(x)) or np.min(x) <= 0.0 or np.min(t) < 0):
        raise ValueError("log_beta_ratio needs finite x > 0 and increments t >= 0")
    if group is None:
        group = np.zeros(len(t), dtype=np.intp)
    flat = t.ravel()
    cells = np.flatnonzero(flat)  # (row, destination) cells that draw
    return _log_beta_cells([x.ravel()[cells]], [x.sum(axis=1)], cells // t.shape[1],
                           flat[cells], t.sum(axis=1), group, n_groups)[0]


def _log_beta_cells(xc, xr, row, reps, totals, group, n_groups: int) -> np.ndarray:
    """``log_beta_ratio`` from the cells that draw, for one or more x tables.

    ``reps`` holds the increments t > 0 in row order (within a row, in
    destination order), ``row`` each one's row and ``totals`` each row's
    sum of t; table s gives x at those cells in ``xc[s]`` and each row's x
    total in ``xr[s]``. Row s of the result is table s's value per group.
    """
    cell_start = np.cumsum(reps) - reps
    row_start = np.cumsum(totals) - totals
    # Draw-sized buffers are reused in place: with one x at most three are
    # alive at once, with s of them s + 2.
    # k: draws before this one in its cell (from the draw index over all rows)
    ki = np.arange(int(totals.sum()))
    ki -= np.repeat(cell_start, reps)
    ws = []
    for x in xc:
        w = np.repeat(x, reps)
        w += ki
        ws.append(np.log(w, out=w))
    # i: draws before this one in its row, k plus the cell's offset in its row
    ki += np.repeat(cell_start - row_start[row], reps)
    for w, x_total in zip(ws, xr):
        xi = np.repeat(x_total, totals)
        xi += ki
        w -= np.log(xi, out=xi)
        del xi
    del ki
    draw_group = np.repeat(group, totals)
    return np.array([np.bincount(draw_group, weights=w, minlength=n_groups) for w in ws])
