import dataclasses
import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _reference import (
    bose_0m_total_quadrature,
    bose_mm_total_quadrature,
    pair_shape_adaptive,
    pair_shape_mpmath,
    pair_shape_series,
    shape_integral_adaptive,
    shape_integral_mpmath,
    shape_integral_series,
)
from trapscatter import (
    CHANNELS,
    ConvergenceError,
    RateBreakdown,
    TrapEnsemble,
    ZETA3,
    bose_0m_differential,
    bose_0m_total,
    bose_mm_differential,
    bose_mm_total,
    critical_temperature,
    decompose,
    diffraction_differential,
    diffraction_total,
    excited_pair_shape,
    rayleigh,
)
from trapscatter import quad
from trapscatter.scattering import (
    _GAUSS_NODES,
    _GAUSS_WEIGHTS,
    _SHAPE_FLOOR,
    _SHAPE_SWITCH,
    _shape_integral,
    _shape_nodes,
    channel_validity,
    decompose_rows,
)


def synthetic_ensemble(n_total, temperature, n_condensate, mu=-1e-12):
    """A thermal state set by hand, off the solved (N, T) model, for formula-level checks.

    It has a TrapEnsemble's attributes, but mu and n_condensate are free:
    a TrapEnsemble derives both from (n_total, temperature).
    """
    return SimpleNamespace(n_total=n_total, temperature=temperature, mu=mu, n_condensate=n_condensate,
                           t_critical=critical_temperature(n_total), n_excited=n_total - n_condensate)


class TestRateBreakdown:
    def test_total_is_component_sum(self):
        bd = RateBreakdown(1.0, 2.0, 3.0, 4.5)
        assert bd.total == 1.0 + 2.0 + 3.0 + 4.5
        # derived, not stored: it follows a replaced channel
        assert dataclasses.replace(bd, bose_mm=0.5).total == 1.0 + 2.0 + 3.0 + 0.5
        assert bd.valid == dict.fromkeys(CHANNELS, True)

    def test_fields(self):
        # the four channels and their validity flags; no channel of a solved ensemble can fail
        assert [f.name for f in dataclasses.fields(RateBreakdown)] == [*CHANNELS, "valid"]
        with pytest.raises(TypeError):
            RateBreakdown(1.0, 2.0, 3.0, 4.5, errors={})


class TestRayleigh:
    def test_single_atom_reference(self):
        ens = synthetic_ensemble(1, 5.0, 0.0)
        differential, total = rayleigh(ens)
        assert differential == 1.0
        assert_allclose(total, 4.0 * math.pi, rtol=1e-15)

    def test_isotropy_and_linearity(self):
        ens = TrapEnsemble.at_ratio(10_000, 0.7)
        differential, total = rayleigh(ens)
        assert differential == 10_000.0
        assert_allclose(total, 4.0 * math.pi * 10_000, rtol=1e-15)


class TestDiffraction:
    def test_two_term_amplitude(self):
        # N0 = 500, T = 10, delta = 2, mu ~ 0: (500 e^{-1} + 40/16)^2
        ens = synthetic_ensemble(1000, 10.0, 500.0, mu=-1e-15)
        expected = (500.0 * math.exp(-1.0) + 2.5) ** 2
        assert_allclose(diffraction_differential(ens, 2.0), expected, rtol=1e-9)
        assert expected == pytest.approx(3.47e4, rel=2e-3)

    def test_pure_condensate_gaussian(self):
        ens = synthetic_ensemble(1000, 1e-4, 1000.0)
        for delta in (0.5, 1.0, 2.0):
            expected = 1000.0**2 * math.exp(-0.5 * delta * delta)
            assert_allclose(diffraction_differential(ens, delta), expected, rtol=1e-4)

    def test_excited_term_identity(self):
        # 4T/delta^4 = (2/(delta^2 T))^2 Ne/zeta(3) when Ne saturates at T^3 zeta(3)
        t, delta = 7.0, 1.3
        ne = t**3 * ZETA3
        assert_allclose(
            4.0 * t / delta**4,
            (2.0 / (delta**2 * t)) ** 2 * ne / ZETA3,
            rtol=1e-12,
        )

    def test_total_condensate_dominance(self):
        ens = synthetic_ensemble(2000, 5.0, 1000.0)
        k = 100.0
        assert_allclose(diffraction_total(ens, k), 2.0 * math.pi * 1e6 / 1e4, rtol=1e-12)
        empty = synthetic_ensemble(2000, 5.0, 0.0)
        assert diffraction_total(empty, k) == 0.0

    def test_validation(self):
        ens = synthetic_ensemble(1000, 10.0, 500.0)
        with pytest.raises(ValueError):
            diffraction_differential(ens, 0.0)


class TestBose0m:
    def test_thermal_knee(self):
        # delta^2 = 2T: 2 N0/(e - 1)
        ens = synthetic_ensemble(2000, 8.0, 1000.0)
        value = bose_0m_differential(ens, math.sqrt(16.0))
        assert_allclose(value, 2000.0 / (math.e - 1.0), rtol=1e-12)

    def test_small_transfer_asymptote(self):
        # x = delta^2/2T = 0.01: 4 N0 T / delta^2 within 1%
        ens = synthetic_ensemble(2000, 25.0, 1000.0)
        delta = math.sqrt(2.0 * 25.0 * 0.01)
        exact = bose_0m_differential(ens, delta)
        assert abs(4.0 * 1000.0 * 25.0 / delta**2 / exact - 1.0) < 0.01

    def test_spec_point_near_one_percent(self):
        # N0 = 1000, T = 25, delta = 1 (x = 0.02): the power-law form
        # overshoots the Bose factor by x/2 + O(x^2) ~ 1.007%
        ens = synthetic_ensemble(2000, 25.0, 1000.0)
        exact = bose_0m_differential(ens, 1.0)
        assert_allclose(1e5 / exact - 1.0, 0.010067, atol=2e-4)

    def test_tail_asymptote(self):
        # x = 5: 2 N0 e^{-x} within 1%
        ens = synthetic_ensemble(2000, 10.0, 1000.0)
        delta = math.sqrt(2.0 * 10.0 * 5.0)
        exact = bose_0m_differential(ens, delta)
        assert abs(2.0 * 1000.0 * math.exp(-5.0) / exact - 1.0) < 0.01

    def test_cold_limit_and_overflow_guard(self):
        ens = synthetic_ensemble(1000, 1e-4, 1000.0)
        assert bose_0m_differential(ens, 1.0) == 0.0

    def test_monotone_decreasing(self):
        ens = synthetic_ensemble(2000, 10.0, 1000.0)
        values = [bose_0m_differential(ens, d) for d in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_total_estimate(self):
        # -ln(1 - e^{-1/2T}) = ln 2T + 1/4T - 1/96T^2 + ...: the leading log is
        # the large-T asymptote, approached as 1 + (1 - 1/24T)/(4T ln 2T)
        k = 100.0
        for t in (2.0, 5.0, 20.0, 100.0):
            ens = synthetic_ensemble(2000, t, 1000.0)
            leading_log = 4.0 * math.pi * 1000.0 * t / 1e4 * math.log(2.0 * t)
            excess = bose_0m_total(ens, k) / leading_log - 1.0
            assert abs(excess * 4.0 * t * math.log(2.0 * t) - 1.0) < 1.0 / (12.0 * t), t
        empty = synthetic_ensemble(2000, 20.0, 0.0)
        assert bose_0m_total(empty, k) == 0.0

    def test_total_numeric_closed_form(self):
        # the closed form against the adaptive solid-angle quadrature of bose_0m_differential
        for t in (0.5, 1.0, 10.0, 30.0):
            ens = synthetic_ensemble(2000, t, 1000.0)
            k = 100.0
            assert_allclose(bose_0m_total(ens, k), bose_0m_total_quadrature(ens, k), rtol=1e-13)


class TestClosedFormTotals:
    @pytest.mark.parametrize("n,ratio", [(1_000, 0.3), (10_000, 0.7), (100_000, 0.95)])
    def test_against_quadrature(self, n, ratio):
        ens = TrapEnsemble.at_ratio(n, ratio)
        k = 1000.0
        assert_allclose(bose_0m_total(ens, k), bose_0m_total_quadrature(ens, k), rtol=1e-13)


# f(a, nu) from `_reference.pair_shape_mpmath` at 25 digits, rounded to double;
# at 30 digits every value rounds the same
_MPMATH_SHAPE = {
    (0.001, 0.0): 0.22074087157185251, (0.001, 1e-06): 0.2207372441801932,
    (0.001, 0.0001): 0.22039605897725958, (0.001, 0.001): 0.21783707423925527,
    (0.01, 0.0): 0.21637911372127785,
    (0.018, 0.0): 0.2132113221970318, (0.018, 1e-06): 0.21320913306825953,
    (0.018, 0.0001): 0.21299420440909453, (0.018, 0.001): 0.2111389954192306,
    (0.3, 0.0): 0.15354915780138936, (0.3, 1e-06): 0.15354832564556412,
    (0.3, 0.0001): 0.15346607196909803, (0.3, 0.001): 0.1527268465371677,
    (1.0, 0.0): 0.08664656370301874, (1.0, 1e-06): 0.08664621820446729,
    (1.0, 0.0001): 0.08661204330702023, (1.0, 0.001): 0.0863033780487822,
    (8.0, 0.0): 0.0013940733324904443, (8.0, 1e-06): 0.0013940701343604384,
    (8.0, 0.0001): 0.0013937535727207284, (8.0, 0.001): 0.0013908801892830239,
    (16.0, 0.0): 2.1964030199672033e-05, (16.0, 1e-06): 2.196398505928754e-05,
    (16.0, 0.0001): 2.1959516634096914e-05, (16.0, 0.001): 2.1918937373007403e-05,
    (30.0, 0.0): 1.919828118906755e-08, (30.0, 1e-06): 1.9198242709522888e-08,
    (30.0, 0.0001): 1.919443361680572e-08, (30.0, 0.001): 1.915984018891192e-08,
    # small a at nu near 0.7, where f is furthest from the reference
    (0.001, 0.6): 0.02840208290370529, (0.003, 0.6): 0.028368580158779695,
    (0.01, 0.6): 0.028251658658519137, (0.05, 0.6): 0.027593505353839122,
    (0.001, 0.7): 0.022124476167427486, (0.003, 0.7): 0.02209899072268476,
    (0.01, 0.7): 0.02201003899629293, (0.05, 0.7): 0.02150904175065927,
    (0.001, 0.86): 0.015056668929773857, (0.003, 0.86): 0.015039822782374557,
    (0.01, 0.86): 0.014981017327970901, (0.05, 0.86): 0.014649595043634184,
}


class TestExcitedPairShape:
    def test_order_one_at_small_a(self):
        assert_allclose(excited_pair_shape(1e-3), 0.2207408715718523, rtol=1e-12)

    def test_reference_point(self):
        assert_allclose(excited_pair_shape(8.0), 0.001394073332490444, rtol=1e-12)

    @pytest.mark.parametrize("nu", [0.05, 0.3, 1.0, 3.0])
    def test_against_double_series(self, nu):
        for a in (1e-3, 0.018, 0.3, 1.0, 4.0, 8.0, 16.0, 30.0):
            assert_allclose(excited_pair_shape(a, nu), pair_shape_series(a, nu), rtol=1e-12)

    @pytest.mark.parametrize("a,nu", sorted(_MPMATH_SHAPE))
    def test_against_mpmath(self, a, nu):
        assert_allclose(excited_pair_shape(a, nu), _MPMATH_SHAPE[a, nu], rtol=2e-13)

    @pytest.mark.parametrize("a,nu", [(1e-3, 0.0), (8.0, 1e-4), (30.0, 1e-6), (3e-3, 0.7)])
    def test_mpmath_table_is_current(self, a, nu):
        # the pinned values are what the reference computes
        assert_allclose(pair_shape_mpmath(a, nu), _MPMATH_SHAPE[a, nu], rtol=1e-15)

    @pytest.mark.parametrize("nu", [0.0, 1e-3, 0.1, 1.0])
    def test_angle_integral_is_harmonic_series(self, nu):
        # int_0^inf f(a, nu) da = sum_N H_{N-1} e^{-N nu}/N^3, pi^4/360 at nu = 0
        assert_allclose(shape_integral_adaptive(nu), shape_integral_series(nu), rtol=1e-10)

    @pytest.mark.parametrize("a,rtol", [(60.0, 1e-8), (200.0, 1e-12)])
    def test_leading_large_a_terms(self, a, rtol):
        # n = m = 1 gives e^{-a/2}/16; relative to it n + m = 3 adds
        # (16/27) e^{-a/6}, n + m = 4 adds e^{-a/4}/4, and the rest is below
        # e^{-3a/10}/7
        expected = 1.0 + 16.0 / 27.0 * math.exp(-a / 6.0) + 0.25 * math.exp(-a / 4.0)
        assert_allclose(16.0 * math.exp(0.5 * a) * excited_pair_shape(a), expected, rtol=rtol)

    def test_monotone_decreasing(self):
        values = [excited_pair_shape(a) for a in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_tail_log_slope_is_minus_half(self):
        # the support geometry prices the cheapest allowed pair at a total
        # energy delta^2/4, i.e. both occupation factors together cost
        # e^{-a/2}; the measured slope confirms it
        slope = (math.log(excited_pair_shape(16.0)) - math.log(excited_pair_shape(8.0))) / 8.0
        assert_allclose(slope, -0.5188, atol=0.01)

    @pytest.mark.parametrize("a", [1.0, 8.0])
    def test_adaptive_route_agrees(self, a):
        # the adaptive nest runs at rel_tol 1e-6 and is 2.1e-6 off at a = 8;
        # (0.01, 0) is pinned against mpmath in _MPMATH_SHAPE instead
        assert_allclose(excited_pair_shape(a), pair_shape_adaptive(a), rtol=1e-5)

    def test_chemical_shift_suppresses(self):
        assert excited_pair_shape(1.0, nu=0.5) < excited_pair_shape(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            excited_pair_shape(0.0)
        with pytest.raises(ValueError):
            excited_pair_shape(1.0, nu=-0.1)
        with pytest.raises(ValueError, match="a must be positive"):
            excited_pair_shape(math.nan)
        with pytest.raises(ValueError, match="nu must be >= 0"):
            excited_pair_shape(1.0, math.nan)
        with pytest.raises(ValueError, match="a must be positive"):
            excited_pair_shape(np.array([1.0, math.nan]), np.array([0.0, 1.0]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a,nu", [(1.0, math.inf), (1e-300, math.inf), (math.inf, 2.0)])
    def test_infinite_argument_gives_zero(self, a, nu):
        assert excited_pair_shape(a, nu) == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nu", [0.0, 0.1, 2.0])
    @pytest.mark.parametrize("a", [1e-300, 1e-100, 1e-19])
    def test_tiny_a_against_mpmath(self, a, nu):
        # f(a, nu) - f(0, nu) ~ (a/12) ln(1/a) is far below double precision
        # here, and f(0, nu) = (1/2) sum_{N>=2} (N - 1) e^{-N nu}/N^3
        with mpmath.workdps(30):
            x = mpmath.exp(-nu)
            expected = float((mpmath.polylog(2, x) - mpmath.polylog(3, x)) / 2)
        assert_allclose(excited_pair_shape(a, nu), expected, rtol=1e-14)

    def test_gauss_legendre_literals(self):
        nodes, weights = np.polynomial.legendre.leggauss(12)
        assert _GAUSS_NODES.tobytes() == nodes.tobytes()
        assert _GAUSS_WEIGHTS.tobytes() == weights.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.just(math.inf), st.floats(1e-300, 1e-17), st.floats(1e-4, 2000.0)),
        st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.0, 1e-6), st.floats(0.0, 40.0)),
    ), min_size=1, max_size=12))
    def test_batch_equals_scalar_calls(self, pairs):
        a, nu = (np.array(column) for column in zip(*pairs))
        scalars = np.array([excited_pair_shape(x, y) for x, y in pairs])
        assert excited_pair_shape(a, nu).tobytes() == scalars.tobytes()

    def test_scalar_and_broadcast_shapes(self):
        assert isinstance(excited_pair_shape(1.0, 0.5), float)
        batch = excited_pair_shape(np.array([1.0, 2.0]), 0.5)
        assert batch.shape == (2,)
        assert batch.tolist() == [excited_pair_shape(1.0, 0.5), excited_pair_shape(2.0, 0.5)]


class TestShapeIntegral:
    """S(nu) = int_0^inf f(a, nu) da, the closed form behind bose_mm_total."""

    @pytest.mark.parametrize("nu", [0.0, 1e-9, 1e-6, 1e-3, 0.1, 0.3, 1.0, 5.0])
    def test_against_mpmath(self, nu):
        assert_allclose(_shape_integral(nu), shape_integral_mpmath(nu), rtol=1e-14)

    def test_branches_agree_at_switch(self):
        # the expansion about nu = 0 at the switch, the series one ulp beyond
        above = math.nextafter(_SHAPE_SWITCH, math.inf)
        assert_allclose(_shape_integral(_SHAPE_SWITCH), _shape_integral(above), rtol=1e-15)

    @pytest.mark.parametrize("nu", [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 1.0, 5.0, 30.0])
    def test_against_harmonic_series(self, nu):
        assert_allclose(_shape_integral(nu), shape_integral_series(nu), rtol=1e-14)

    def test_closed_value_at_zero(self):
        assert _shape_integral(0.0) == math.pi**4 / 360.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _shape_integral(-1e-3)
        with pytest.raises(ValueError):
            _shape_integral(math.nan)


def _rule_state(a, nu, switch):
    """Which side of each switch of the f rule every node sits on."""
    h = 0.5 * math.sqrt(a)
    r, _ = _shape_nodes(h, nu)
    big, small = nu + (h + r) ** 2, nu + (h - r) ** 2
    gap, mid = big - small, 0.5 * (big + small)
    near = gap < quad._HALF_NEAR * np.minimum(mid, 1.0)
    if switch == "panels":
        return r.size
    if switch == "series":
        return tuple(np.flatnonzero(np.concatenate([big, small, mid[near]]) <= 1.0))
    return tuple(np.flatnonzero(near))


class TestShapeProperties:
    # a search: most draws of a start and an end straddle no switch of the kind asked for
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.floats(-3.0, 1.6), st.one_of(st.just(None), st.floats(-9.0, 0.5)),
           st.sampled_from(["a", "nu"]), st.floats(1.01, 8.0),
           st.sampled_from(["panels", "series", "near"]))
    def test_continuous_across_rule_switches(self, log_a, log_nu, along, factor, switch):
        # bisect to where the panel count, the t = 1 series switch of M or
        # the midpoint switch of G changes, and step f across it
        assume(along == "a" or log_nu is not None)
        start = [10.0**log_a, 0.0 if log_nu is None else 10.0**log_nu]
        index = 0 if along == "a" else 1
        end = list(start)
        end[index] *= factor
        state = _rule_state(*start, switch)
        assume(_rule_state(*end, switch) != state)
        lo, hi = start[index], end[index]
        while hi - lo > 1e-13 * lo:
            point = list(start)
            point[index] = 0.5 * (lo + hi)
            if _rule_state(*point, switch) == state:
                lo = point[index]
            else:
                hi = point[index]
        below, above = list(start), list(start)
        below[index], above[index] = lo, hi
        assert_allclose(excited_pair_shape(*above), excited_pair_shape(*below), rtol=1e-11)

    @pytest.mark.parametrize("a", [0.01, 1.0, 8.0])
    def test_continuous_across_grading_floor(self, a):
        # below nu = (_SHAPE_FLOOR h)^2 the branch point counts as on the axis
        h = 0.5 * math.sqrt(a)
        nu = (_SHAPE_FLOOR * h) ** 2
        below, above = nu * (1.0 - 1e-12), nu * (1.0 + 1e-12)
        assert _shape_nodes(h, below)[0].size != _shape_nodes(h, above)[0].size
        assert_allclose(excited_pair_shape(a, above), excited_pair_shape(a, below), rtol=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-3.0, 1.6), st.floats(-3.0, 1.6), st.one_of(st.just(0.0), st.floats(1e-9, 5.0)))
    def test_positive_and_decreasing_in_a(self, log_a1, log_a2, nu):
        lo, hi = sorted((10.0**log_a1, 10.0**log_a2))
        assume(hi > lo * (1.0 + 1e-6))
        near, far = excited_pair_shape(lo, nu), excited_pair_shape(hi, nu)
        assert near > far > 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-3.0, 1.6), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    def test_decreasing_in_nu(self, log_a, nu1, nu2):
        lo, hi = sorted((nu1, nu2))
        assume(hi > lo + 1e-6)
        a = 10.0**log_a
        assert excited_pair_shape(a, lo) > excited_pair_shape(a, hi) > 0.0


class TestBoseMm:
    def test_shape_times_cube(self):
        ens = synthetic_ensemble(5000, 12.0, 2000.0, mu=-1e-9)
        delta = 3.0
        a = 0.5 * delta * delta / 12.0
        assert_allclose(
            bose_mm_differential(ens, delta),
            12.0**3 * excited_pair_shape(a, 1e-9 / 12.0),
            rtol=1e-12,
        )

    def test_row_uses_true_chemical_shift(self):
        # nu = -mu/T ~ 7e-4 here; a row must see f(a, nu), not f(a, 0)
        ens = TrapEnsemble.at_ratio(10_000, 0.9525)
        t = ens.temperature
        nu = -ens.mu / t
        assert 1e-4 < nu < 1e-3
        a = 0.5 / t
        row = decompose(ens, 1.0).bose_mm / t**3
        assert_allclose(row, excited_pair_shape(a, nu), rtol=1e-12)
        assert_allclose(row, pair_shape_mpmath(a, nu), rtol=2e-13)

    def test_envelope_bound(self):
        # rate <= Ne e^{-a/4} with Ne the saturated cloud zeta(3) T^3:
        # equivalent to f(a) e^{a/4} <= zeta(3), true since f(0) ~ 0.22
        # and the decay is strictly faster than e^{-a/4}
        for a in (1e-3, 1.0, 4.0, 8.0, 16.0):
            assert excited_pair_shape(a) * math.exp(0.25 * a) < ZETA3

    def test_above_transition_suppressed(self):
        cold = synthetic_ensemble(1000, 12.0, 400.0, mu=-1e-9)
        hot = synthetic_ensemble(1000, 12.0, 0.0, mu=-0.25 * 12.0)
        assert bose_mm_differential(hot, 2.0) < bose_mm_differential(cold, 2.0)

    def test_total_scaling_exponent(self):
        # (2 pi T^4/k^2) S(nu): doubling Ne (T -> 2^{1/3} T) at fixed nu
        # scales by 2^{4/3}
        k = 100.0
        t = 9.0
        scale = 2.0 ** (1.0 / 3.0)
        base = bose_mm_total(synthetic_ensemble(5000, t, 2000.0, mu=-1e-9), k)
        doubled = bose_mm_total(
            synthetic_ensemble(5000, scale * t, 2000.0, mu=-1e-9 * scale), k
        )
        assert_allclose(doubled / base, 2.0 ** (4.0 / 3.0), rtol=1e-12)

    def test_total_formula(self):
        # S(nu) = pi^4/360 - zeta(3) nu + O(nu^2 ln^2 nu)
        k = 100.0
        t = 9.0
        ens = synthetic_ensemble(5000, t, 2000.0, mu=-1e-9)
        expected = 2.0 * math.pi * t**4 / 1e4 * (math.pi**4 / 360.0 - ZETA3 * 1e-9 / t)
        assert_allclose(bose_mm_total(ens, k), expected, rtol=1e-15)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(10, 1_000_000), st.floats(0.1, 3.0))
    def test_total_is_angle_integral_of_differential(self, n, ratio):
        ens = TrapEnsemble.at_ratio(n, ratio)
        k = 1000.0
        assert_allclose(bose_mm_total(ens, k), bose_mm_total_quadrature(ens, k), rtol=1e-9)

    def test_cold_limit(self):
        ens = synthetic_ensemble(1000, 0.05, 1000.0)
        k = 100.0
        assert bose_mm_total(ens, k) < 1e-2


@pytest.mark.parametrize("total", [diffraction_total, bose_0m_total, bose_mm_total])
@pytest.mark.parametrize("k", [0.0, -1.0, -math.inf, math.nan])
def test_total_refuses_k_not_positive(total, k):
    with pytest.raises(ValueError, match="^k_incident must be positive$"):
        total(synthetic_ensemble(2000, 5.0, 1000.0), k)


class TestChannelValidity:
    def test_diffraction_window(self):
        ens = synthetic_ensemble(1000, 4.0, 500.0)
        assert channel_validity(ens, 0.4)["diffraction"] is False  # 0.16*4 < 1
        assert channel_validity(ens, 0.6)["diffraction"] is True  # 0.36*4 >= 1

    def test_diffraction_empty_cloud_waiver(self):
        ens = synthetic_ensemble(1000, 1e-4, 1000.0)
        assert channel_validity(ens, 0.01)["diffraction"] is True

    def test_bose_window(self):
        ens = synthetic_ensemble(1000, 4.0, 500.0)
        assert channel_validity(ens, 0.9)["bose_0m"] is False
        assert channel_validity(ens, 1.0)["bose_0m"] is True
        cold = synthetic_ensemble(1000, 0.25, 900.0)
        # T < 1 pushes the floor to T^{-1/2} = 2
        assert channel_validity(cold, 1.5)["bose_mm"] is False
        assert channel_validity(cold, 2.5)["bose_mm"] is True


class TestDecompose:
    def test_total_and_flags(self):
        ens = TrapEnsemble.at_ratio(10_000, 0.7)
        bd = decompose(ens, 2.0)
        assert bd.total == bd.rayleigh + bd.diffraction + bd.bose_0m + bd.bose_mm
        assert all(getattr(bd, c) >= 0.0 for c in CHANNELS)
        assert all(bd.valid[c] for c in CHANNELS)

    def test_invalid_channels_zero_filled(self):
        ens = TrapEnsemble.at_ratio(10_000, 0.7)
        bd = decompose(ens, 0.5)
        assert bd.valid["bose_0m"] is False
        assert bd.bose_0m == 0.0
        assert bd.valid["diffraction"] is True  # 0.25 * 14.18 > 1
        assert bd.diffraction > 0.0

    def test_condensate_regime_diffraction_dominates(self):
        ens = TrapEnsemble.at_ratio(10_000, 0.7)
        bd = decompose(ens, 1.0)
        others = max(bd.rayleigh, bd.bose_0m, bd.bose_mm)
        assert bd.diffraction > 10.0 * others

    def test_enhancement_factor_at_half_thermal(self):
        # delta^2 = T/2: bose_0m/rayleigh ~ 4 (N0/N)(T/delta^2) * 0.88,
        # the 0.88 being 2/(e^{1/4}-1)/8
        ens = TrapEnsemble.at_ratio(10_000, 0.7)
        delta = math.sqrt(0.5 * ens.temperature)
        bd = decompose(ens, delta)
        approx = 4.0 * (ens.n_condensate / ens.n_total) * ens.temperature / delta**2
        ratio = (bd.bose_0m / bd.rayleigh) / approx
        assert_allclose(ratio, 2.0 / math.expm1(0.25) / 8.0, rtol=1e-9)
        assert abs(ratio - 0.88) < 0.01

    def test_rayleigh_largest_in_the_tail(self):
        ens = TrapEnsemble.at_ratio(10_000, 0.7)
        delta = 4.0 * math.sqrt(ens.temperature)
        bd = decompose(ens, delta)
        assert bd.rayleigh > max(bd.diffraction, bd.bose_0m, bd.bose_mm)

    def test_validation(self):
        ens = TrapEnsemble.at_ratio(1000, 0.7)
        with pytest.raises(ValueError):
            decompose(ens, 0.0)

    @pytest.mark.parametrize("delta", [1e150, 1e300])
    def test_huge_delta_rates_underflow(self, delta):
        # delta^4 (and from 1e154 also delta^2) is beyond the float range;
        # every delta-dependent rate is 0 in double there, and valid
        bd = decompose(TrapEnsemble(1000, 5.0), delta)
        assert (bd.diffraction, bd.bose_0m, bd.bose_mm, bd.total) == (0.0, 0.0, 0.0, 1000.0)
        assert all(bd.valid.values())


class TestDecomposeRows:
    @staticmethod
    def _rows(ensembles, deltas):
        return decompose_rows(ensembles, deltas), [decompose(e, d) for e, d in zip(ensembles, deltas)]

    def test_sweep_angle_rows(self):
        # one ensemble; deltas from where the Bose channels are flagged to beyond
        ens = TrapEnsemble.at_ratio(10_000, 0.7)
        deltas = np.geomspace(0.05, 30.0, 200).tolist()
        batch, single = self._rows([ens] * len(deltas), deltas)
        assert batch == single
        assert {bd.valid["bose_mm"] for bd in batch} == {False, True}

    def test_sweep_temp_rows(self):
        # 60 ensembles across Tc at one delta
        tc = (10_000 / ZETA3) ** (1.0 / 3.0)
        ensembles = [TrapEnsemble(10_000, t) for t in np.linspace(0.2 * tc, 1.4 * tc, 60)]
        batch, single = self._rows(ensembles, [1.0] * len(ensembles))
        assert batch == single

    def test_flagged_and_failed_rows(self):
        # a valid row, a row with flagged channels and a huge delta
        ens = TrapEnsemble.at_ratio(1000, 0.7)
        batch, single = self._rows([ens, ens, TrapEnsemble(1000, 5.0)], [2.0, 0.5, 1e300])
        assert batch == single
        # a stand-in off the model, as a TrapEnsemble derives a negative mu: its NaN mu raises
        bad = synthetic_ensemble(1000, 5.0, 500.0, mu=math.nan)
        with pytest.raises(ValueError, match="mu must be <= 0"):
            decompose_rows([ens, bad, ens], [2.0, 2.0, 0.5])

    def test_no_rows(self):
        assert decompose_rows([], []) == []

    def test_unequal_lengths_refused(self):
        ens = TrapEnsemble.at_ratio(1000, 0.7)
        with pytest.raises(ValueError):
            decompose_rows([ens] * 3, [2.0] * 2)
        with pytest.raises(ValueError):
            decompose_rows([ens] * 2, [2.0] * 3)


class TestDecomposeProperties:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10**150), st.floats(-323.0, 103.0),
           st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=4))
    @example(1000, -323.0, [0.0])  # mu0 = -T ln(1 + 1/N) underflows to -0.0
    @example(459_000, 78.05, [-39.0])  # a diffraction amplitude beyond the float range
    def test_no_channel_fails_on_a_solved_ensemble(self, n, log_t, log_deltas):
        # Once its ensemble is solved, a row cannot fail: every channel is a number >= 0,
        # with no warning, from N = 1 to 1e150, T = 1e-323 to 1e103 and delta = 1e-300 to 1e300
        try:
            ens = TrapEnsemble(n, 10.0**log_t)
        except ConvergenceError:
            assume(False)  # the ensemble's own solve is the one failure point left
        for bd in decompose_rows([ens] * len(log_deltas), [10.0**x for x in log_deltas]):
            values = [getattr(bd, c) for c in CHANNELS]
            assert all(v >= 0.0 for v in values), bd  # NaN fails too
            assert bd.total == sum(values)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(10, 1_000_000), st.floats(0.1, 3.0), st.floats(0.05, 30.0))
    def test_channels_non_negative_and_summed(self, n, ratio, delta):
        bd = decompose(TrapEnsemble.at_ratio(n, ratio), delta)
        assert all(getattr(bd, c) >= 0.0 for c in CHANNELS)
        assert bd.total == bd.rayleigh + bd.diffraction + bd.bose_0m + bd.bose_mm

    @settings(max_examples=100, deadline=None)
    @given(st.integers(10, 1_000_000), st.floats(0.1, 3.0),
           st.floats(0.05, 30.0), st.floats(0.05, 30.0))
    def test_bose_0m_decreasing(self, n, ratio, d1, d2):
        lo, hi = sorted((d1, d2))
        assume(hi > lo * (1.0 + 1e-9))
        ens = TrapEnsemble.at_ratio(n, ratio)
        near, far = bose_0m_differential(ens, lo), bose_0m_differential(ens, hi)
        # strict wherever the farther rate has not underflowed to 0
        assert near > far if far > 0.0 else near >= far

    @settings(max_examples=40, deadline=None)
    @given(st.integers(10, 1_000_000), st.floats(1.0, 30.0), st.floats(1e-3, 1e-1))
    def test_channels_continuous_across_tc(self, n, delta, scale):
        # Each channel's distance from its value at Tc, at T = Tc (1 +- eps),
        # relative to the row total there (bose_0m and the condensate part of
        # diffraction vanish at Tc, so their own values give no scale).  A
        # jump at Tc would survive eps -> eps/10; a continuous channel's
        # distance shrinks tenfold, up to curvature.  eps stays below 1/N,
        # where N0 ~ 3 eps N is below one atom and the condensate terms,
        # growing as N0 and N0^2, are still linear in eps.
        eps = scale / n
        at, near_lo, near_hi, far_lo, far_hi = (
            decompose(TrapEnsemble.at_ratio(n, ratio), delta)
            for ratio in (1.0, 1.0 - eps / 10, 1.0 + eps / 10, 1.0 - eps, 1.0 + eps)
        )
        for bd in (at, near_lo, near_hi, far_lo, far_hi):
            assert all(bd.valid.values())
        for c in CHANNELS:
            x0 = getattr(at, c)
            near = max(abs(getattr(near_lo, c) - x0), abs(getattr(near_hi, c) - x0)) / at.total
            far = max(abs(getattr(far_lo, c) - x0), abs(getattr(far_hi, c) - x0)) / at.total
            assert near <= 0.2 * far + 1e-12, (c, near, far)


def _delta_entries(ens, delta):
    """Each entry that takes a momentum transfer, called at delta, with its limit at delta = inf."""
    return {
        "diffraction_differential": (lambda: diffraction_differential(ens, delta), 0.0),
        "bose_0m_differential": (lambda: bose_0m_differential(ens, delta), 0.0),
        "bose_mm_differential": (lambda: bose_mm_differential(ens, delta), 0.0),
        "diffraction_z_integral": (lambda: quad.diffraction_z_integral(delta, ens.mu), 0.0),
        "diffraction_z_integral at mu = 0": (lambda: quad.diffraction_z_integral(delta, 0.0), 1.0),
        "decompose_rows": (lambda: decompose_rows([ens], [delta])[0],
                           RateBreakdown(float(ens.n_total), 0.0, 0.0, 0.0)),
    }


class TestDeltaDomain:
    """Every delta entry refuses a delta that is not > 0 with one message, and gives its limit at +inf."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["diffraction_differential", "bose_0m_differential", "bose_mm_differential",
                            "diffraction_z_integral", "diffraction_z_integral at mu = 0", "decompose_rows"]),
           st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf]) | st.floats(max_value=-1e-300),
           st.sampled_from([0.5, 1.4]))
    def test_non_positive_nan_and_infinite_delta(self, name, delta, ratio):
        call, limit = _delta_entries(TrapEnsemble.at_ratio(1000, ratio), delta)[name]
        if delta == math.inf:
            assert call() == limit
        else:
            with pytest.raises(ValueError, match="^delta must be positive$"):
                call()

    @pytest.mark.parametrize("ratio", [0.7, 1.3])
    @pytest.mark.parametrize("delta", [1e-100, 1e-170, 5e-324])
    def test_underflowing_delta_gives_the_small_delta_limit(self, delta, ratio):
        # delta^4 underflows below about 1e-81 and delta^2 below about 1e-162:
        # each rate then gives its float limit instead of dividing by zero
        ens = TrapEnsemble.at_ratio(1000, ratio)
        assert diffraction_differential(ens, delta) == math.inf
        n0, t = ens.n_condensate, ens.temperature
        # 4 N0 T / delta^2, inf where delta^2 underflows, 0 without a condensate
        limit = 0.0 if n0 == 0.0 else 4.0 * n0 * t / delta**2 if delta**2 > 0.0 else math.inf
        assert bose_0m_differential(ens, delta) == pytest.approx(limit, rel=1e-12)
        # T^3 f(0, nu): below _SHAPE_TINY f is its a -> 0 limit, bit for bit
        assert bose_mm_differential(ens, delta) == t**3 * excited_pair_shape(1e-30, -ens.mu / t)
