"""Special-function accuracy, recurrences and cross-checks."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special as sp

from memsel.specfun import _log_beta_cells, _shifted, digamma, log_beta_ratio, trigamma

EULER_GAMMA = 0.5772156649015329


def grid(seed=0, n=4000):
    rng = np.random.default_rng(seed)
    return np.concatenate([10 ** rng.uniform(-3, 6, n), [1e-3, 0.5, 1.0, 2.0, 1e6]])


def ratio(x, t):
    """log B(x + t) - log B(x) of a single row."""
    return float(log_beta_ratio([x], [t])[0])


def mp_ratio(x, t):
    """The same ratio in 50-digit mpmath log-gamma arithmetic."""
    with mpmath.workdps(50):
        def log_beta(v):
            return sum(mpmath.loggamma(c) for c in v) - mpmath.loggamma(sum(v))
        xs = [mpmath.mpf(float(c)) for c in x]
        return log_beta([c + int(k) for c, k in zip(xs, t)]) - log_beta(xs)


def test_digamma_known_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)
    # recurrence from psi(1/2) = -gamma - 2 ln 2
    ref = -EULER_GAMMA - 2 * math.log(2) + sum(1.0 / (0.5 + k) for k in range(5))
    assert digamma(5.5) == pytest.approx(ref, abs=1e-12)
    assert digamma(5.5) == pytest.approx(1.6110931486, abs=1e-9)


def test_trigamma_known_values():
    assert trigamma(1.0) == pytest.approx(math.pi**2 / 6, rel=1e-12)
    assert trigamma(2.0) == pytest.approx(math.pi**2 / 6 - 1.0, rel=1e-12)
    assert trigamma(0.5) == pytest.approx(math.pi**2 / 2, rel=1e-12)


def test_grid_accuracy_against_scipy():
    # tolerance floors at 1 so tiny arguments (huge psi values) are judged
    # relatively; float64 cannot do better near psi'(1e-3) ~ 1e6
    z = grid()
    assert np.max(np.abs(digamma(z) - sp.digamma(z)) / np.maximum(1.0, np.abs(sp.digamma(z)))) < 1e-10
    ref = sp.polygamma(1, z)
    assert np.max(np.abs(trigamma(z) - ref) / np.maximum(1.0, np.abs(ref))) < 1e-10


def test_recurrences_on_random_grid():
    rng = np.random.default_rng(42)
    z = 10 ** rng.uniform(-2, 4, 500)
    # one draw: log B(x + e_m) - log B(x) = log(x_m / X)
    x = np.stack([z, z[::-1]], axis=1)
    one = np.tile([1, 0], (len(z), 1))
    lbr = log_beta_ratio(x, one, np.arange(len(z)), len(z))
    assert np.allclose(lbr, np.log(z / x.sum(axis=1)), rtol=1e-9, atol=1e-9)
    assert np.allclose(digamma(z + 1) - digamma(z), 1.0 / z, rtol=1e-9, atol=1e-9)
    assert np.allclose(trigamma(z + 1) - trigamma(z), -1.0 / z**2, rtol=1e-9, atol=1e-9)


def test_psi_functions_match_finite_differences():
    rng = np.random.default_rng(3)
    z = rng.uniform(0.5, 50.0, 200)
    step = 1e-4
    fd_digamma = (sp.gammaln(z + step) - sp.gammaln(z - step)) / (2 * step)
    assert np.max(np.abs(fd_digamma - digamma(z))) < 1e-6
    fd_trigamma = (digamma(z + step) - digamma(z - step)) / (2 * step)
    assert np.max(np.abs(fd_trigamma - trigamma(z))) < 1e-6


def test_log_beta_values():
    assert ratio([1.0, 1.0], [0, 0]) == 0.0
    # factorials: B(2, 3) / B(1, 1) = 1! 2! / 4! = 1/12
    assert ratio([1.0, 1.0], [1, 2]) == pytest.approx(math.log(1 / 12), rel=1e-13)
    # B(2, 2, 2) / B(1, 1, 1) = (1 / 5!) / (1 / 2!) = 1/60
    assert ratio([1.0, 1.0, 1.0], [1, 1, 1]) == pytest.approx(math.log(1 / 60), rel=1e-13)
    # LPD of a row of counts N under a flat prior: B(2N + 1) / B(N + 1)
    n = [3, 5]
    expected = (math.lgamma(7) + math.lgamma(11) - math.lgamma(18)
                - math.lgamma(4) - math.lgamma(6) + math.lgamma(10))
    assert ratio([4.0, 6.0], n) == pytest.approx(expected, rel=1e-13)


def test_log_beta_symmetry_and_rows():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.1, 20.0, 6)
    t = rng.integers(0, 6, 6)
    p = rng.permutation(6)
    # destinations permuted together with their increments
    assert ratio(x, t) == pytest.approx(ratio(x[p], t[p]), rel=1e-12)
    mat, inc = rng.uniform(0.1, 9.0, (5, 4)), rng.integers(0, 7, (5, 4))
    rows = log_beta_ratio(mat, inc, np.arange(5), 5)
    assert rows.shape == (5,)
    for i in range(5):
        assert rows[i] == ratio(mat[i], inc[i])
    # groups sum their own rows in order, whatever else is scored alongside
    groups = np.array([1, 0, 1, 2, 1])
    by_group = log_beta_ratio(mat, inc, groups, 4)
    for k in range(4):
        assert by_group[k] == log_beta_ratio(mat[groups == k], inc[groups == k])[0]
    assert by_group[3] == 0.0


def test_log_beta_cells_tables_equal_each_table_alone():
    # several x tables over one t: the draws are expanded once, every value keeps its bits
    rng = np.random.default_rng(12)
    for rows, m in ((1, 2), (7, 3), (40, 5)):
        t = rng.integers(0, 9, (rows, m))
        t[rng.random(rows) < 0.2] = 0
        x = rng.uniform(0.05, 50.0, (3, rows, m))
        groups = rng.integers(0, 4, rows)
        flat = t.ravel()
        cells = np.flatnonzero(flat)
        draws = (cells // m, flat[cells], t.sum(axis=1), groups, 4)
        got = _log_beta_cells([xs.ravel()[cells] for xs in x], [xs.sum(axis=1) for xs in x],
                              *draws)
        assert got.shape == (3, 4)
        for xs, row in zip(x, got):
            alone = _log_beta_cells([xs.ravel()[cells]], [xs.sum(axis=1)], *draws)
            assert row.tolist() == alone[0].tolist() == log_beta_ratio(xs, t, groups, 4).tolist()
    none = np.zeros(0, dtype=np.int64)
    assert _log_beta_cells([np.zeros(0)] * 2, [np.zeros(0)] * 2, none, none, none, none,
                           1).tolist() == [[0.0], [0.0]]


@pytest.mark.parametrize("fn", [digamma, trigamma])
def test_domain_errors(fn):
    for bad in (0.0, -1.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            fn(bad)


def test_log_beta_domain_errors():
    with pytest.raises(ValueError):
        ratio([1.0], [1])
    with pytest.raises(ValueError):
        log_beta_ratio([[1.0, 2.0]], [[1, 2, 3]])
    with pytest.raises(ValueError):  # x is one 2-D table
        log_beta_ratio(np.ones((2, 1, 3)), [[1, 1, 1]])
    for bad in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ratio([1.0, bad], [1, 1])
    with pytest.raises(ValueError):
        ratio([1.0, 2.0], [1, -1])


@pytest.mark.parametrize("base", [1e3, 1e5, 1e7, 1e8])
def test_log_beta_ratio_keeps_digits_at_large_counts(base):
    # small increments on large counts: a difference of two log-gamma sums
    # loses ~1e-6 absolute here at 1e8; the per-draw sum does not
    rng = np.random.default_rng(int(base))
    x = np.floor(rng.uniform(0.1, 1.0, (20, 4)) * base) + rng.uniform(0.2, 3.0, 4)
    t = rng.integers(0, 6, (20, 4))
    got = log_beta_ratio(x, t, np.arange(20), 20)
    err = max(abs(got[r] - float(mp_ratio(x[r], t[r]))) for r in range(20))
    assert err <= 1e-13


@pytest.mark.parametrize("total", [10**3, 10**5, 10**7])
def test_log_beta_ratio_on_lpd_rows(total):
    # LPD rows draw their own counts again: increment = count
    rng = np.random.default_rng(total)
    n = rng.multinomial(total, [0.4, 0.3, 0.2, 0.1])
    x = n + rng.uniform(0.2, 3.0, 4)
    expected = float(mp_ratio(x, n))
    assert abs(ratio(x, n) - expected) <= 1e-12 * abs(expected)


def reference_psi(z, psi1):
    """psi (psi1 False) or psi' by a boolean-mask shift loop and the plain series: the bits to match."""
    zz = np.atleast_1d(np.asarray(z, dtype=float)).copy()
    acc = np.zeros_like(zz)
    mask = zz < 12.0
    while mask.any():
        if psi1:
            acc[mask] += 1.0 / (zz[mask] * zz[mask])
        else:
            acc[mask] -= 1.0 / zz[mask]
        zz[mask] += 1.0
        mask = zz < 12.0
    u = 1.0 / (zz * zz)
    poly = np.zeros_like(zz)
    if psi1:
        for c in (7 / 6, -691 / 2730, 5 / 66, -1 / 30, 1 / 42, -1 / 30, 1 / 6):
            poly = poly * u + c
        return acc + 1.0 / zz + 0.5 * u + poly * u / zz
    for c in (1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120, 1 / 12):
        poly = poly * u + c
    return acc + np.log(zz) - 0.5 / zz - poly * u


@pytest.mark.parametrize("fn, psi1", [(digamma, False), (trigamma, True)])
def test_in_place_shift_is_bit_identical_to_mask_loop(fn, psi1):
    rng = np.random.default_rng(8)
    near = [12.0, 11.0, 13.0, 1e-3, 1e6]
    edges = [np.nextafter(v, d) for v in near for d in (0.0, np.inf)] + near
    counts = rng.integers(0, 40, (300, 8)) + rng.uniform(0.1, 3.0, 8)  # count rows + prior
    # a transposed or Fortran-ordered table keeps each element's value
    for z in (grid(5), np.array(edges), counts, 10 ** rng.uniform(-3, 6, (17, 3)), counts.T,
              np.asfortranarray(counts)):
        got = fn(z)
        assert got.shape == z.shape
        ref = reference_psi(z, psi1).reshape(z.shape)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    for scalar in edges:
        got = fn(scalar)
        assert isinstance(got, float)
        assert float.hex(got) == float.hex(float(reference_psi(scalar, psi1)[0]))
    assert fn(np.empty((0, 4))).shape == (0, 4)


def whole_array_shift(z, psi, psi1):
    """The shift loop over every argument: a 0/1 increment per element per pass."""
    zz = np.array(z, dtype=float, ndmin=1)
    acc = np.zeros_like(zz) if psi else None
    acc1 = np.zeros_like(zz) if psi1 else None
    inc = np.empty_like(zz)
    step = np.empty_like(zz)
    while zz.size and zz.min() < 12.0:
        np.less(zz, 12.0, out=inc)
        if psi:
            np.divide(inc, zz, out=step)
            acc -= step
        if psi1:
            np.multiply(zz, zz, out=step)
            np.divide(inc, step, out=step)
            acc1 += step
        zz += inc
    return zz, acc, acc1


@pytest.mark.parametrize("psi, psi1", [(True, True), (True, False), (False, True)])
def test_shifting_the_low_arguments_alone_keeps_every_bit(psi, psi1):
    # arguments at or above 12 are left out of the loop: they keep their value and zero sums
    rng = np.random.default_rng(12)
    at_12 = np.array([12.0, np.nextafter(12.0, 0.0), np.nextafter(12.0, np.inf), 11.0, 13.0])
    counts = (rng.integers(0, 40, 2000) + 0.3).astype(float)  # a count table plus a prior
    mixed = np.concatenate([counts, at_12, 10 ** rng.uniform(-3, 6, 500)])
    rng.shuffle(mixed)
    table = counts.reshape(40, 50)
    # transposed and Fortran-ordered tables: shifted in place of their own elements
    for z in (mixed, at_12, np.full(7, 12.0), np.array([1e6, 40.0]), np.array([1e-3]),
              np.empty(0), table, table.T, np.asfortranarray(table), mixed[::3]):
        got, want = _shifted(z, psi, psi1), whole_array_shift(z, psi, psi1)
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert g.tobytes() == w.tobytes()
