import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import kv

from _reference import QuadSpec, p_reference, sqrt_singular_integral, z_reference
from trapscatter import (
    ConvergenceError,
    diffraction_z_integral,
    polylog3,
)
from trapscatter.quad import (
    ZETA2,
    _PIVOT,
    _ZETA_HALF,
    _k2_scaled,
    g_kernel,
    p_kernel,
    polylog2,
)


# x in [0, 1] for the polylogarithms: both branches, either side of the switch at
# x = 1/2 and 1 - 10^-k for k = 1..16
_POLYLOG_GRID = np.concatenate([np.linspace(0.0, 1.0, 1001), [1e-300, 1e-8, 0.5, np.nextafter(0.5, 1.0)],
                                1.0 - 10.0 ** -np.arange(1.0, 17.0)])


class TestPolylog3:
    def test_endpoints(self):
        assert polylog3(0.0) == 0.0
        assert_allclose(polylog3(1.0), 1.2020569031595943, rtol=1e-15)

    def test_half_against_series(self):
        # direct partial sum of x^k/k^3, converged far past double precision
        k = np.arange(1, 2000)
        reference = float(np.sum(0.5**k / k**3))
        assert_allclose(polylog3(0.5), reference, rtol=1e-13)
        assert_allclose(polylog3(0.5), 0.5372131936080401, rtol=1e-12)

    @pytest.mark.parametrize("x", [1e-4, 0.05, 0.3, 0.5, 0.500001, 0.7, 0.9, 0.99, 0.999])
    def test_against_mpmath(self, x):
        assert_allclose(polylog3(x), float(mpmath.polylog(3, x)), rtol=5e-14)

    def test_docstring_bound_over_the_domain(self):
        with mpmath.workdps(30):
            reference = np.array([float(mpmath.polylog(3, mpmath.mpf(xi))) for xi in _POLYLOG_GRID])
        assert_allclose(np.array([polylog3(xi) for xi in _POLYLOG_GRID]), reference, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("x", [-0.1, 1.1, 2.0])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            polylog3(x)

    def test_series_branch_bits(self):
        # the hoisted powers leave the x <= 1/2 branch's sum unchanged, bit for bit
        k = np.arange(1, 120)
        for x in np.linspace(0.0, 0.5, 101):
            assert polylog3(x) == float(np.sum(x**k / k**3))


class TestPolylog2:
    def test_against_mpmath(self):
        # both branches and the switch at x = 1/2, from either side, to x = 1, at the docstring's bound
        x = np.concatenate([_POLYLOG_GRID, 1.0 - np.geomspace(1e-15, 1e-3, 13)])
        with mpmath.workdps(30):
            reference = np.array([float(mpmath.polylog(2, mpmath.mpf(xi))) for xi in x])
        assert_allclose(np.array([polylog2(xi) for xi in x]), reference, rtol=1e-15, atol=0)
        assert polylog2(1.0) == ZETA2 and polylog2(0.0) == 0.0

    def test_is_derivative_of_polylog3(self):
        # x d/dx Li3(x) = Li2(x), by a central difference in ln x
        for x in (0.1, 0.45, 0.55, 0.9):
            h = 1e-5
            slope = (polylog3(x * math.exp(h)) - polylog3(x * math.exp(-h))) / (2.0 * h)
            assert_allclose(slope, polylog2(x), rtol=1e-9)

    @pytest.mark.parametrize("x", [-0.1, 1.1, math.nan])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            polylog2(x)


def _g_mpmath(a, b):
    """G(a, b) from mpmath's Li_{5/2} at 80 digits; Li_{3/2} - Li_{5/2} at a = b."""
    with mpmath.workdps(80):
        a, b = mpmath.mpf(float(a)), mpmath.mpf(float(b))
        if a == b:
            z = mpmath.exp(-a)
            return float(mpmath.polylog(1.5, z) - mpmath.polylog(2.5, z))

        def excess(t):
            z = mpmath.exp(-t)
            return (mpmath.polylog(2.5, z) - z) / z

        if a < b:
            a, b = b, a
        return float(mpmath.exp(-b) * (excess(b) - excess(a)) / mpmath.expm1(a - b))


def _p_mpmath(a, b):
    """P(a, b) at 80 digits, with no cancellation at large arguments.

    e^{-lo} (M(lo) - M(hi))/expm1(hi - lo), M(t) = sum_{N>=2} e^{-(N-1) t}/N^2
    summed as it stands from t = 1 and as e^t Li2(e^{-t}) - 1 below; on the
    diagonal sum_{N>=2} (N - 1) e^{-N a}/N^2, or -ln(1 - z) - Li2(z) below a = 1.
    """
    def excess(t):
        if t >= 1:
            return mpmath.nsum(lambda n: mpmath.exp(-(n - 1) * t) / n**2, [2, mpmath.inf])
        return mpmath.exp(t) * mpmath.polylog(2, mpmath.exp(-t)) - 1

    with mpmath.workdps(80):
        lo, hi = sorted((mpmath.mpf(float(a)), mpmath.mpf(float(b))))
        if lo < hi:
            return float(mpmath.exp(-lo) * (excess(lo) - excess(hi)) / mpmath.expm1(hi - lo))
        if lo >= 1:
            return float(mpmath.nsum(lambda n: (n - 1) * mpmath.exp(-n * lo) / n**2, [2, mpmath.inf]))
        z = mpmath.exp(-lo)
        return float(-mpmath.log(1 - z) - mpmath.polylog(2, z))


class TestHalfOrderPolylog:
    def test_zeta_literals(self):
        with mpmath.workdps(40):
            reference = [float(mpmath.zeta(mpmath.mpf(5) / 2 - k)) for k in range(len(_ZETA_HALF))]
        assert_allclose(_ZETA_HALF, reference, rtol=2e-16, atol=0.0)


class TestGKernel:
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.3, 1.7), (1e-6, 0.02), (0.9, 1.1), (1.0, 1.0 + 1e-3),
                                     (2.0, 9.0), (0.5, 40.0), (25.0, 30.0)])
    def test_against_mpmath(self, a, b):
        assert_allclose(g_kernel(np.array([a]), np.array([b])), _g_mpmath(a, b), rtol=2e-14)

    @pytest.mark.parametrize("mid", [1e-4, 1e-3, 0.05, 0.2, 0.999, 1.5, 8.0])
    @pytest.mark.parametrize("ratio", [1e-6, 0.0099, 0.0101, 0.1])
    def test_near_diagonal(self, mid, ratio):
        # gaps of 1e-6 to 0.1 min(m, 1), 1e-2 min(m, 1) from either side among them: none costs digits
        gap = ratio * min(mid, 1.0)
        a, b = mid - 0.5 * gap, mid + 0.5 * gap
        assert_allclose(g_kernel(np.array([a]), np.array([b])), _g_mpmath(a, b), rtol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-8.0, math.log10(40.0)).map(lambda x: 10.0**x), st.floats(0.0, 2.0))
    @example(0.0, 0.0)  # G(0, 0) = zeta(3/2) - zeta(5/2)
    @example(1e-8, 0.0)
    @example(0.3, 0.0)
    @example(_PIVOT, 0.0)
    @example(0.7, 0.0)
    @example(40.0, 0.0)
    @example(0.49, 0.02)  # both ends below the pivot, near it
    @example(0.51, 0.02)  # both above it
    @example(0.5, 0.04)  # one on each side
    @example(0.5, 1e-9)
    @example(1e-3, 2.0)
    def test_against_80_digit_mpmath(self, mid, gap):
        # pairs mid (1 -+ gap/2): midpoints over 1e-8..40 and relative gaps 0..2, on either side
        # of _PIVOT and across it
        a, b = mid * (1.0 - 0.5 * gap), mid * (1.0 + 0.5 * gap)
        assert_allclose(g_kernel(np.array([a]), np.array([b])), _g_mpmath(a, b), rtol=2e-14)

    def test_diagonal_is_polylog_difference(self):
        # G(m, m) = Li_{3/2}(z) - Li_{5/2}(z), z = e^{-m}
        m = np.array([1e-8, 0.3, 1.0, 4.0])
        with mpmath.workdps(30):
            reference = [float(mpmath.polylog(1.5, mpmath.exp(-x)) - mpmath.polylog(2.5, mpmath.exp(-x)))
                         for x in m]
        assert_allclose(g_kernel(m, m), reference, rtol=1e-13)

    def test_symmetric_and_decreasing(self):
        x = np.geomspace(1e-4, 30.0, 40)
        grid = g_kernel(np.repeat(x, x.size), np.tile(x, x.size)).reshape(x.size, x.size)
        # G sorts its arguments, so it is symmetric bit for bit
        assert np.array_equal(grid, grid.T)
        assert np.all(np.diff(grid, axis=0) < 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            g_kernel(np.array([-0.1]), np.array([1.0]))

    @pytest.mark.filterwarnings("error")
    def test_infinite_argument_gives_positive_zero(self):
        values = g_kernel(np.array([math.inf, 1.0, math.inf, 0.0]), np.array([1.0, math.inf, math.inf, math.inf]))
        assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in values)


class TestPKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.tuples(st.floats(-8.0, math.log10(40.0)).map(lambda x: 10.0**x), st.floats(0.0, 2.0))
           .map(lambda pair: (pair[0] * (1.0 - 0.5 * pair[1]), pair[0] * (1.0 + 0.5 * pair[1]))))
    @example((1.4881551802007953e-06, 1.6448030939061425e-06))  # midpoint 1.6e-6, relative gap 0.1
    @example((60.0, 60.0))
    @example((1e-8, 1e-8))
    @example((0.0, 1e-8))  # one argument 0
    @example((0.0, 1.0))
    @example((0.3, 0.45))  # both below the pivot
    @example((0.49, 0.51))  # one on each side
    @example((_PIVOT, _PIVOT))
    @example((0.55, 0.7))  # both above it
    @example((40.0, 40.000001))
    def test_against_80_digit_mpmath(self, pair):
        # pairs mid (1 -+ gap/2): midpoints over 1e-8..40 and relative gaps 0..2, on either side
        # of _PIVOT and across it, one argument 0 at gap 2
        assert_allclose(p_kernel(*pair), _p_mpmath(*pair), rtol=2e-14)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a,b", [(math.inf, 1.0), (0.0, math.inf), (math.inf, math.inf)])
    def test_infinite_argument_gives_positive_zero(self, a, b):
        value = p_kernel(a, b)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_symmetry(self):
        assert p_kernel(0.3, 1.7) == p_kernel(1.7, 0.3)

    def test_large_argument_asymptote(self):
        # e^{-a-b} int z e^{-2z} dz = e^{-10}/4 at a = b = 5
        assert_allclose(p_kernel(5.0, 5.0), math.exp(-10.0) / 4.0, rtol=0.02)

    @pytest.mark.parametrize(
        "a,b", [(0.0, 1.0), (0.3, 1.7), (0.01, 0.01), (1e-5, 2.0), (3.0, 0.2), (1e-6, 1e-6)]
    )
    def test_against_adaptive_reference(self, a, b):
        assert_allclose(p_kernel(a, b), p_reference(a, b), rtol=1e-9)

    @pytest.mark.parametrize("base", [1.5, 3.0])
    @pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-9, 0.9e-5, 1.1e-5, 1e-3, 0.99e-2, 1.01e-2])
    def test_near_diagonal_precision(self, base, gap):
        assert_allclose(p_kernel(base, base + gap), p_reference(base, base + gap), rtol=1e-9)

    @pytest.mark.parametrize("a", [1e-6, 60.0])
    def test_diagonal_extremes(self, a):
        assert_allclose(p_kernel(a, a), p_reference(a, a), rtol=1e-9)

    def test_array_input_matches_scalar(self):
        a = np.array([[1e-6], [0.3], [7.0], [60.0]])
        b = np.array([1e-6, 0.3 + 1e-9, 0.31, 2.0, 60.0])
        grid = p_kernel(a, b)
        assert grid.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                assert grid[i, j] == p_kernel(float(a[i, 0]), float(b[j]))

    def test_single_zero_argument_finite(self):
        value = p_kernel(0.0, 1.0)
        assert 0.0 < value < 1.0

    def test_divergent_input(self):
        with pytest.raises(ValueError):
            p_kernel(0.0, 0.0)
        with pytest.raises(ValueError):
            p_kernel(1e-15, 1e-16)

    def test_monotone_decreasing(self):
        grid = [0.01, 0.1, 0.5, 1.0, 3.0]
        for b in (0.2, 1.0):
            values = [p_kernel(a, b) for a in grid]
            assert all(x > y for x, y in zip(values, values[1:]))

    @pytest.mark.parametrize("a", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
    def test_small_argument_log_growth(self, a):
        ratio = p_kernel(a, a) / math.log(1.0 / a)
        assert 0.5 <= ratio <= 2.0

    def test_deterministic(self):
        assert p_kernel(0.37, 1.21) == p_kernel(0.37, 1.21)


class TestDiffractionZIntegral:
    @pytest.mark.parametrize("delta", [0.5, 2.0, 10.0])
    def test_unit_at_zero_mu(self, delta):
        assert diffraction_z_integral(delta, 0.0) == 1.0
        # beta = -delta^2 mu / 2 below 1e-16: 1 - beta rounds to 1
        assert diffraction_z_integral(delta, -1e-18) == 1.0
        assert diffraction_z_integral(delta, -1e-12) < 1.0

    @pytest.mark.parametrize(
        "delta,mu", [(2.0, -0.00216), (1.0, -0.5), (0.5, -2.0), (3.0, -1.0), (1.0, -50.0)]
    )
    def test_against_bessel_closed_form(self, delta, mu):
        # int_0^inf u e^{-u - beta/u} du = 2 beta K2(2 sqrt(beta)), and K2 is
        # the K0/K1 combination K2(x) = K0(x) + 2 K1(x)/x of argument
        # x = delta sqrt(-2 mu).
        beta = -delta * delta * mu / 2.0
        reference = 2.0 * beta * kv(2, 2.0 * math.sqrt(beta))
        assert_allclose(diffraction_z_integral(delta, mu), reference, rtol=1e-11)
        assert_allclose(diffraction_z_integral(delta, mu), z_reference(delta, mu), rtol=1e-11)

    def test_unit_bessel_argument(self):
        # delta sqrt(-2 mu) = 1 <=> beta = 1/4
        delta, mu = 1.0, -0.5
        assert math.isclose(delta * math.sqrt(-2 * mu), 1.0)
        reference = 0.5 * kv(2, 1.0)
        assert_allclose(diffraction_z_integral(delta, mu), reference, rtol=1e-11)

    def test_against_mpmath(self):
        # x = 2 sqrt(beta) over the range the cutoff rule is built for;
        # below beta = 1e-16 the factor is exactly 1 (test_unit_at_zero_mu)
        x = np.geomspace(2e-8, 200.0, 400)
        with mpmath.workdps(40):
            for xi in x:
                mu = -0.5 * xi * xi
                beta = mpmath.mpf(-mu) / 2
                reference = float(2 * beta * mpmath.besselk(2, 2 * mpmath.sqrt(beta)))
                assert_allclose(diffraction_z_integral(1.0, mu), reference, rtol=2e-13)

    def test_scaled_bessel_against_mpmath(self):
        # e^x K2(x) up to x = 2000, where K2 itself underflows, at the docstring's bound
        with mpmath.workdps(40):
            for xi in np.geomspace(2e-8, 2000.0, 400):
                reference = float(mpmath.besselk(2, xi) * mpmath.exp(xi))
                assert_allclose(_k2_scaled(float(xi)), reference, rtol=1e-14)

    def test_strong_suppression(self):
        assert diffraction_z_integral(2.0, -5000.0) < 1e-30

    def test_validation(self):
        with pytest.raises(ValueError):
            diffraction_z_integral(0.0, 0.0)
        with pytest.raises(ValueError):
            diffraction_z_integral(1.0, 0.1)
        with pytest.raises(ValueError, match="mu must be <= 0"):
            diffraction_z_integral(1.0, math.nan)


class TestSqrtSingularIntegral:
    def test_inverse_sqrt_endpoint(self):
        assert_allclose(sqrt_singular_integral(lambda y: y**-0.5, 0.0, 1.0), 2.0, rtol=1e-10)

    def test_beta_function_identity(self):
        value = sqrt_singular_integral(lambda y: (y * (1.0 - y)) ** -0.5, 0.0, 1.0)
        assert_allclose(value, math.pi, rtol=1e-10)

    def test_smooth_integrand(self):
        assert_allclose(sqrt_singular_integral(lambda y: y, 0.0, 1.0), 0.5, rtol=1e-12)

    def test_shifted_interval(self):
        value = sqrt_singular_integral(lambda y: (y - 2.0) ** -0.5, 2.0, 3.0)
        assert_allclose(value, 2.0, rtol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            sqrt_singular_integral(lambda y: y, 1.0, 1.0)


class TestQuadSpec:
    def test_defaults(self):
        spec = QuadSpec()
        assert spec.rel_tol == 1e-8
        assert spec.abs_tol == 1e-12
        assert spec.max_subdivisions == 2000

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadSpec(max_subdivisions=0)

    def test_budget_exhaustion(self):
        # one subdivision cannot resolve ten oscillations to 1e-8
        with pytest.raises(ConvergenceError):
            sqrt_singular_integral(lambda y: math.cos(60.0 * y), 0.0, 1.0,
                                   QuadSpec(rel_tol=1e-8, abs_tol=1e-12, max_subdivisions=1))
