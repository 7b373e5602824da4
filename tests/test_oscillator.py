import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from trapscatter import overlap_exact, overlap_ground_exact, overlap_wkb, sqrt_singular_integral
from trapscatter.oscillator import (
    _amplitude,
    diagonal_amplitude_column,
    ground_overlap_column,
    overlap_matrix,
)


class TestGroundOverlap:
    def test_identity_operator(self):
        assert overlap_ground_exact(0, 0.0) == 1.0
        assert overlap_ground_exact(5, 0.0) == 0.0

    def test_closed_form_value(self):
        got = overlap_ground_exact(3, 2.0)
        assert type(got) is float
        assert_allclose(got, math.exp(-2.0) * 2.0**3 / 6.0, rtol=1e-13)
        assert_allclose(got, 0.18044704431548347, rtol=1e-12)

    def test_poisson_normalization(self):
        total = sum(overlap_ground_exact(m, 3.0) for m in range(61))
        assert_allclose(total, 1.0, atol=1e-12)

    def test_mode_location(self):
        # Poisson mode at floor(delta^2/2); integer delta^2/2 ties two bins
        values = np.array([overlap_ground_exact(m, 4.0) for m in range(40)])
        assert_allclose(values[7], values[8], rtol=1e-12)
        assert int(np.argmax(values)) in (7, 8)
        values = np.array([overlap_ground_exact(m, 4.1) for m in range(40)])
        assert int(np.argmax(values)) == 8  # floor(8.405)

    def test_column_matches_scalar(self):
        col = ground_overlap_column(30, 2.5)
        for m in (0, 1, 7, 30):
            assert_allclose(col[m], overlap_ground_exact(m, 2.5), rtol=5e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            overlap_ground_exact(-1, 1.0)
        with pytest.raises(ValueError):
            overlap_ground_exact(1, -1.0)


class TestOverlapExact:
    def test_laguerre_zero(self):
        # L_1(x) = 1 - x vanishes at x = delta^2/2 = 1; float sqrt(2)**2
        # misses 2 by one ulp, so the zero is hit to rounding only
        assert overlap_exact(1, 1, math.sqrt(2.0)) < 1e-30

    def test_orthonormality_at_zero_transfer(self):
        for m in (0, 3, 17):
            assert overlap_exact(m, m, 0.0) == 1.0
        assert overlap_exact(3, 5, 0.0) == 0.0

    def test_symmetry_exact(self):
        for m, mp, d in [(10, 7, 1.5), (33, 50, 2.0), (0, 4, 0.7)]:
            assert overlap_exact(m, mp, d) == overlap_exact(mp, m, d)

    def test_against_quadrature_oracle(self, hermite_oracle):
        reference = hermite_oracle(30, 1.5)
        for m, mp in [(10, 7), (0, 12), (25, 25), (30, 1), (18, 21)]:
            assert_allclose(overlap_exact(m, mp, 1.5), reference[m, mp], atol=1e-10)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("m", [0, 7, 25, 40])
    def test_unitarity(self, m, delta):
        total = sum(overlap_exact(m, mp, delta) for mp in range(m + 200))
        assert_allclose(total, 1.0, atol=1e-10)

    def test_ground_row_reduces_to_poisson(self):
        for m in (0, 4, 11):
            assert_allclose(
                overlap_exact(0, m, 2.2),
                overlap_ground_exact(m, 2.2),
                rtol=1e-13,
            )


class TestDiagonalAmplitude:
    def test_square_matches_exact(self):
        for m, d in [(0, 1.0), (5, 2.0), (50, 1.0), (120, 3.0)]:
            assert_allclose(
                diagonal_amplitude_column(m, d)[m] ** 2,
                overlap_exact(m, m, d),
                rtol=1e-12,
                atol=1e-300,
            )

    def test_signed(self):
        # e^{-1/4} L_50(1/2) is negative (oscillatory region)
        assert diagonal_amplitude_column(50, 1.0)[50] < 0.0

    def test_column_matches_scalar(self):
        # the k = 0 column recurrence against the general scalar one
        col = diagonal_amplitude_column(60, 1.7)
        for m in (0, 1, 33, 60):
            assert_allclose(col[m], _amplitude(m, 0, 0.5 * 1.7**2), rtol=1e-12, atol=1e-300)


class TestOverlapMatrix:
    def test_matches_scalar_path(self):
        g = overlap_matrix(45, 2.1)
        for m, mp in [(0, 0), (45, 0), (13, 44), (30, 31), (22, 22)]:
            assert_allclose(g[m, mp], overlap_exact(m, mp, 2.1), rtol=1e-12, atol=1e-300)

    def test_identity_at_zero_transfer(self):
        assert_allclose(overlap_matrix(10, 0.0), np.eye(11), atol=0)

    def test_row_unitarity(self):
        g = overlap_matrix(240, 1.3)
        sums = g[:40].sum(axis=1)
        assert_allclose(sums, 1.0, atol=1e-10)


class TestGroundTransitionWeight:
    """The ground-state transition weights |<m|e^{iqx}|0>|^2 form a Poisson
    distribution in m with mean delta^2/2 and unit total weight."""

    def test_peak_matches_exact_mode(self):
        values = [overlap_ground_exact(m, 4.1) for m in range(40)]
        assert int(np.argmax(values)) == math.floor(0.5 * 4.1**2)

    def test_unit_normalization_is_poisson_sum(self):
        total = sum(overlap_ground_exact(m, 3.0) for m in range(80))
        assert_allclose(total, 1.0, atol=1e-12)


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
            window = [overlap_exact(m, q, delta) for q in range(mp - 2, mp + 3)]
            mean = float(np.mean(window))
            ratio = mean / (2.0 * overlap_wkb(m, mp, delta))
            assert 0.7 < ratio < 1.3, (m, mp, delta, ratio)

    def test_validation(self):
        with pytest.raises(ValueError):
            overlap_wkb(0, 5, 1.0)
        with pytest.raises(ValueError):
            overlap_wkb(5, 5, 0.0)

