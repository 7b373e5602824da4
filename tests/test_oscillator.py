import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import gammaln

from _reference import overlap_matrix_dense, overlap_wkb, sqrt_singular_integral
from trapscatter import oscillator
from trapscatter.oscillator import (
    _overlap_rows,
    diagonal_amplitude_column,
    ground_overlap_column,
    overlap_band,
    overlap_matrix,
)


def _mpmath_amplitude(n, k, xm):
    """Signed A_n(k) = e^{-x/2} x^{k/2} sqrt(n!/(n+k)!) L_n^(k)(x) at the working precision."""
    return (mpmath.exp(-xm / 2) * xm ** (mpmath.mpf(k) / 2)
            * mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(n + k)) * mpmath.laguerre(n, k, xm))


class TestGroundOverlap:
    def test_identity_operator(self):
        assert np.array_equal(ground_overlap_column(5, 0.0), [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    def test_closed_form_value(self):
        got = ground_overlap_column(3, 2.0)[3]
        assert_allclose(got, math.exp(-2.0) * 2.0**3 / 6.0, rtol=1e-13)
        assert_allclose(got, 0.18044704431548347, rtol=1e-12)

    def test_poisson_normalization(self):
        assert_allclose(ground_overlap_column(60, 3.0).sum(), 1.0, atol=1e-12)

    def test_mode_location(self):
        # Poisson mode at floor(delta^2/2); integer delta^2/2 ties two bins
        values = ground_overlap_column(39, 4.0)
        assert_allclose(values[7], values[8], rtol=1e-12)
        assert int(np.argmax(values)) in (7, 8)
        values = ground_overlap_column(39, 4.1)
        assert int(np.argmax(values)) == 8  # floor(8.405)

    def test_column_matches_scalar(self):
        # each element against 40-digit e^{-x} x^m / m!
        col = ground_overlap_column(30, 2.5)
        with mpmath.workdps(40):
            xm = mpmath.mpf(2.5) ** 2 / 2
            for m in (0, 1, 7, 30):
                assert_allclose(col[m], float(mpmath.exp(-xm) * xm**m / mpmath.factorial(m)), rtol=5e-14)


class TestOverlapExact:
    def test_laguerre_zero(self):
        # L_1(x) = 1 - x vanishes at x = delta^2/2 = 1; float sqrt(2)**2
        # misses 2 by one ulp, so the zero is hit to rounding only
        assert overlap_matrix(1, math.sqrt(2.0))[1, 1] < 1e-30

    def test_orthonormality_at_zero_transfer(self):
        g = overlap_matrix(17, 0.0)
        for m in (0, 3, 17):
            assert g[m, m] == 1.0
        assert g[3, 5] == 0.0

    def test_symmetry_exact(self):
        for m, mp, d in [(10, 7, 1.5), (33, 50, 2.0), (0, 4, 0.7)]:
            g = overlap_matrix(max(m, mp), d)
            assert g[m, mp] == g[mp, m]

    def test_against_quadrature_oracle(self, hermite_oracle):
        reference = hermite_oracle(30, 1.5)
        g = overlap_matrix(30, 1.5)
        for m, mp in [(10, 7), (0, 12), (25, 25), (30, 1), (18, 21)]:
            assert_allclose(g[m, mp], reference[m, mp], atol=1e-10)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("m", [0, 7, 25, 40])
    def test_unitarity(self, m, delta):
        total = overlap_matrix(m + 199, delta)[m].sum()
        assert_allclose(total, 1.0, atol=1e-10)

    def test_ground_row_reduces_to_poisson(self):
        row = overlap_matrix(11, 2.2)[0]
        col = ground_overlap_column(11, 2.2)
        for m in (0, 4, 11):
            assert_allclose(row[m], col[m], rtol=1e-13)


class TestDiagonalAmplitude:
    def test_square_matches_exact(self):
        with mpmath.workdps(40):
            for m, d in [(0, 1.0), (5, 2.0), (50, 1.0), (120, 3.0)]:
                assert_allclose(
                    diagonal_amplitude_column(m, d)[m] ** 2,
                    float(_mpmath_amplitude(m, 0, mpmath.mpf(d) ** 2 / 2) ** 2),
                    rtol=1e-12,
                    atol=1e-300,
                )

    def test_signed(self):
        # e^{-1/4} L_50(1/2) is negative (oscillatory region)
        assert diagonal_amplitude_column(50, 1.0)[50] < 0.0

    def test_column_matches_scalar(self):
        # the k = 0 column recurrence against 40-digit signed amplitudes
        col = diagonal_amplitude_column(60, 1.7)
        with mpmath.workdps(40):
            xm = mpmath.mpf(1.7) ** 2 / 2
            for m in (0, 1, 33, 60):
                assert_allclose(col[m], float(_mpmath_amplitude(m, 0, xm)), rtol=1e-12, atol=1e-300)


class TestLogFactorials:
    @pytest.fixture
    def gammaln_factorials(self, monkeypatch):
        """Run `fn` with the log-factorials taken from scipy's gammaln instead."""
        def run(fn, *args):
            with monkeypatch.context() as patch:
                patch.setattr(oscillator, "_log_factorials",
                              lambda size: gammaln(np.arange(size) + 1.0))
                return fn(*args)
        return run

    @pytest.mark.parametrize("delta", [0.3, 2.0, 8.0, 30.0])
    def test_ground_column_against_gammaln(self, gammaln_factorials, delta):
        reference = gammaln_factorials(ground_overlap_column, 600, delta)
        assert_allclose(ground_overlap_column(600, delta), reference, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("delta", [1.0, 4.0, 8.0])
    def test_overlap_matrix_against_gammaln(self, gammaln_factorials, delta):
        # the recurrence carries a one-ulp change of its start value to
        # 2.3e-14 at (n, k) = (472, 28), delta = 1, where both paths are
        # within 1.3e-14 of 60-digit mpmath
        reference = gammaln_factorials(overlap_matrix, 600, delta)
        assert_allclose(overlap_matrix(600, delta), reference, rtol=0, atol=3e-14)


class TestOverlapMatrix:
    def test_matches_scalar_path(self):
        # against 40-digit squared amplitudes, element by element
        g = overlap_matrix(45, 2.1)
        with mpmath.workdps(40):
            xm = mpmath.mpf(2.1) ** 2 / 2
            for m, mp in [(0, 0), (45, 0), (13, 44), (30, 31), (22, 22)]:
                exact = float(_mpmath_amplitude(min(m, mp), abs(m - mp), xm) ** 2)
                assert_allclose(g[m, mp], exact, rtol=1e-12, atol=1e-300)

    def test_identity_at_zero_transfer(self):
        assert_allclose(overlap_matrix(10, 0.0), np.eye(11), atol=0)

    def test_row_unitarity(self):
        g = overlap_matrix(240, 1.3)
        sums = g[:40].sum(axis=1)
        assert_allclose(sums, 1.0, atol=1e-10)

    @pytest.mark.parametrize("delta", [1.0, 4.0, 8.0])
    def test_level_1200_against_mpmath_laguerre(self, delta):
        # reach past the 600-level cost guard: 60-digit
        # e^{-x} x^k n!/(n+k)! [L_n^(k)(x)]^2 on a grid of (n, k) plus points
        # on and beyond the upper turning offset k = x + 2 sqrt(n x), where
        # the element is classically forbidden and decays
        m_max = 1200
        x = 0.5 * delta * delta
        g = overlap_matrix(m_max, delta)
        grid = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1199, 1200)
        points = {(n, k) for n in grid for k in grid if n + k <= m_max}
        for n in grid:
            edge = x + 2.0 * math.sqrt(n * x)
            points |= {(n, round(f * edge)) for f in (1.0, 1.2, 1.5, 2.0, 3.0)
                       if n + round(f * edge) <= m_max}
        forbidden_checked = 0
        with mpmath.workdps(60):
            xm = mpmath.mpf(delta) ** 2 / 2
            for n, k in sorted(points):
                exact = (mpmath.exp(-xm) * xm**k * mpmath.factorial(n) / mpmath.factorial(n + k)
                         * mpmath.laguerre(n, k, xm) ** 2)
                value = g[n, n + k]
                assert abs(value - float(exact)) <= 1e-12, (n, k)
                assert g[n + k, n] == value
                if (k - x) ** 2 > 4.0 * n * x and exact > mpmath.mpf("1e-100"):
                    # no silent loss of relative accuracy in the forbidden corner
                    assert abs(value / float(exact) - 1.0) < 1e-11, (n, k)
                    forbidden_checked += 1
        assert forbidden_checked > 100

    @pytest.mark.parametrize("delta", [0.1, 0.3, 1.0])
    def test_level_2500_against_mpmath_laguerre(self, delta):
        # past both cost guards, where the upward recurrence has run longest:
        # streamed rows on a grid of (n, k) plus points about the upper
        # turning offset, against 60-digit signed amplitudes
        m_max = 2500
        x = 0.5 * delta * delta
        grid = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597,
                2000, 2400, 2496, 2499, 2500)
        worst = 0.0
        with mpmath.workdps(60):
            xm = mpmath.mpf(delta) ** 2 / 2
            for n, rows in _overlap_rows(m_max, [delta]):
                if n not in grid:
                    continue
                edge = x + 2.0 * math.sqrt(n * x)
                ks = {k for k in grid if n + k <= m_max}
                ks |= {round(f * edge) for f in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0) if n + round(f * edge) <= m_max}
                for k in ks:
                    worst = max(worst, abs(rows[k, 0] - float(_mpmath_amplitude(n, k, xm))))
        assert worst < 5e-11, worst


class TestOverlapBand:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300), st.floats(0.05, 12.0))
    def test_squares_match_overlap_matrix(self, m_max, delta):
        # bit for bit: overlap_matrix is the band's symmetric scatter, column 0
        # is diagonal_amplitude_column, and every off-diagonal square is the
        # dense all-offset recurrence's
        band = overlap_band(m_max, delta)
        n, k = np.divmod(np.arange(band.size), m_max + 1)
        inside = n + k <= m_max
        assert np.all(band.ravel()[~inside] == 0.0)
        assert np.array_equal(band[:, 0], diagonal_amplitude_column(m_max, delta))
        n, k = n[inside], k[inside]
        squares = band[n, k] ** 2
        g = overlap_matrix(m_max, delta)
        assert np.array_equal(g[n, n + k], squares) and np.array_equal(g, g.T)
        pairs = k > 0
        assert np.array_equal(overlap_matrix_dense(m_max, delta)[n, n + k][pairs], squares[pairs])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 120), st.floats(0.1, 8.0))
    def test_row_unitarity(self, top, delta):
        # row n pairs with n + k through band[n, k] and with n - k through
        # band[n - k, k]; the pad reaches twice the upper turning offset
        x = 0.5 * delta * delta
        pad = math.ceil(2.0 * (x + 2.0 * math.sqrt(top * x)) + 40.0)
        sq = overlap_band(top + pad, delta) ** 2
        for n in range(top + 1):
            k = np.arange(1, n + 1)
            assert abs(sq[n].sum() + sq[n - k, k].sum() - 1.0) < 1e-10, n

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.1, 8.0))
    def test_row_unitarity_at_level_2500(self, delta):
        # every streamed row n whose padded partners (as above) stay inside
        # m_max = 2500: row n pairs with n - k through row n - k's entry k
        m_max = 2500
        x = 0.5 * delta * delta
        top = m_max - math.ceil(2.0 * (x + 2.0 * math.sqrt(m_max * x)) + 40.0)
        total = np.zeros(top + 1)
        for n, rows in _overlap_rows(m_max, [delta]):
            if n > top:
                break
            sq = rows[:, 0] ** 2
            total[n] += sq.sum()
            total[n + 1:] += sq[1:top + 1 - n]
        assert np.abs(total - 1.0).max() < 1e-10

    @pytest.mark.parametrize("delta", [0.3, 0.5])
    def test_level_600_against_mpmath_laguerre(self, delta):
        # below delta = 1 the upward recurrence is nearly degenerate
        # (A_{n+1} ~ 2 A_n - A_{n-1}) and loses the most: every 6th level,
        # k through twice the upper turning offset x + 2 sqrt(n x)
        m_max = 600
        x = 0.5 * delta * delta
        band = overlap_band(m_max, delta)
        worst = 0.0
        with mpmath.workdps(60):
            xm = mpmath.mpf(delta) ** 2 / 2
            for n in range(0, m_max + 1, 6):
                edge = x + 2.0 * math.sqrt(n * x)
                for k in range(min(m_max - n, math.ceil(2.0 * edge) + 3) + 1):
                    worst = max(worst, abs(band[n, k] - float(_mpmath_amplitude(n, k, xm))))
        assert worst < 1e-12, worst

    @settings(max_examples=20, deadline=None)
    # the largest excess of a 9,606-delta scan: 1.43e-12 at (n, k) = (600, 0)
    @example(deltas=[4.66e-8])
    @given(st.lists(st.sampled_from([0.0, 5e-324, 1.7e308])
                    | st.floats(-12.0, 6.0).map(lambda e: 10.0**e), min_size=1, max_size=8))
    def test_amplitudes_stay_within_their_bound(self, deltas):
        # |A_n(k)| <= 1 in exact arithmetic; the oracle reads levels n + k <=
        # 600 and checks none of them, so this pins the rounding past the
        # bound at every level it reads, and that no amplitude is nan or inf
        excess = -math.inf
        for n, rows in _overlap_rows(600, deltas):
            assert np.isfinite(rows).all(), n
            excess = max(excess, np.abs(rows).max() - 1.0)
        assert excess <= 1e-11, excess

    def test_huge_delta_underflows_to_zero(self):
        # x = delta^2 / 2 past the float range: every amplitude, and so both
        # columns, is 0 without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            columns = ground_overlap_column(3, 1e200), diagonal_amplitude_column(3, 1e200)
            assert not overlap_band(3, 1e200).any()
        assert all(np.array_equal(col, np.zeros(4)) for col in columns)

    def test_validation(self):
        with pytest.raises(ValueError):
            overlap_band(-1, 1.0)

    @pytest.mark.parametrize("delta", [math.nan, -1.0])
    @pytest.mark.parametrize("fn", [overlap_band, ground_overlap_column, diagonal_amplitude_column, overlap_matrix])
    def test_negative_or_nan_delta_refused(self, fn, delta):
        with pytest.raises(ValueError, match="^delta must be >= 0$"):
            fn(5, delta)


class TestGroundTransitionWeight:
    """The ground-state transition weights |<m|e^{iqx}|0>|^2 form a Poisson
    distribution in m with mean delta^2/2 and unit total weight."""

    def test_peak_matches_exact_mode(self):
        values = ground_overlap_column(39, 4.1)
        assert int(np.argmax(values)) == math.floor(0.5 * 4.1**2)

    def test_unit_normalization_is_poisson_sum(self):
        assert_allclose(ground_overlap_column(79, 3.0).sum(), 1.0, atol=1e-12)


class TestOverlapWkb:
    def test_outside_support(self):
        # 2 * 10 * 1 = 20 < (40 - 0.5)^2
        assert overlap_wkb(50, 10, 1.0) == 0.0

    def test_formula_value(self):
        got = overlap_wkb(50, 50, 1.0)
        assert type(got) is float
        assert_allclose(got, 1.0 / (2.0 * math.pi * math.sqrt(100.0 - 0.25)), rtol=1e-14)

    def test_symmetry(self):
        assert overlap_wkb(60, 40, 2.0) == overlap_wkb(40, 60, 2.0)

    def test_boundary_guarded(self):
        # radicand ~ 0 on the support boundary: floored, not infinite
        m = 50
        delta = 2.0
        edge = m + 0.5 * delta**2 + delta * math.sqrt(2 * m)
        value = overlap_wkb(m, int(edge), delta)
        assert math.isfinite(value)

    def test_support_integral(self):
        # integral of the continuous stationary-phase form across its full
        # support band in m' is analytically 1/2 for any (m, delta)
        m, delta = 50.0, 2.0
        center = m + 0.5 * delta * delta
        half_width = delta * math.sqrt(2.0 * m)
        lo, hi = center - half_width, center + half_width

        def g(mp):
            radicand = 2.0 * mp * delta * delta - (m - mp - 0.5 * delta * delta) ** 2
            if radicand <= 0:
                return 0.0
            return 1.0 / (2.0 * math.pi * math.sqrt(radicand))

        assert_allclose(sqrt_singular_integral(g, lo, hi), 0.5, rtol=1e-6)

    def test_envelope_calibration(self, hermite_oracle):
        # The stationary-phase form is the single-point contribution; the
        # oscillating exact element averages to twice it (two symmetric
        # classical kick positions).  Verified away from the support
        # boundary with a +-2 window mean.
        cases = [(50, 45, 2.0), (40, 35, 1.5), (70, 55, 2.5), (80, 60, 3.0), (64, 48, 2.0)]
        for m, mp, delta in cases:
            window = overlap_matrix(max(m, mp + 2), delta)[m, mp - 2:mp + 3]
            mean = float(np.mean(window))
            ratio = mean / (2.0 * overlap_wkb(m, mp, delta))
            assert 0.7 < ratio < 1.3, (m, mp, delta, ratio)

    def test_validation(self):
        with pytest.raises(ValueError):
            overlap_wkb(0, 5, 1.0)
        with pytest.raises(ValueError):
            overlap_wkb(5, 5, 0.0)

