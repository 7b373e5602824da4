import math

import pytest
from numpy.testing import assert_allclose

from trapscatter import (
    CHANNELS,
    ConvergenceError,
    Kinematics,
    RateBreakdown,
    TrapEnsemble,
    ZETA3,
    bose_0m_differential,
    bose_0m_total,
    bose_mm_differential,
    bose_mm_total,
    decompose,
    diffraction_differential,
    diffraction_total,
    excited_pair_shape,
    rayleigh,
)
from trapscatter.scattering import (
    _shape_table,
    bose_0m_total_numeric,
    channel_validity,
    diffraction_total_excited,
)


def synthetic_ensemble(n_total, temperature, n_condensate, mu=-1e-12):
    """Hand-built thermal state for formula-level checks."""
    return TrapEnsemble(
        n_total=n_total,
        temperature=temperature,
        t_critical=(n_total / ZETA3) ** (1.0 / 3.0),
        mu=mu,
        n_condensate=n_condensate,
        n_excited=n_total - n_condensate,
    )


class TestKinematics:
    def test_small_angle(self):
        kin = Kinematics(100.0, 2.0)
        assert kin.theta == 0.02

    def test_elastic_bound(self):
        with pytest.raises(ValueError):
            Kinematics(10.0, 21.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Kinematics(0.0, 1.0)
        with pytest.raises(ValueError):
            Kinematics(10.0, -1.0)


class TestRateBreakdown:
    def test_total_is_component_sum(self):
        bd = RateBreakdown.build(1.0, 2.0, 3.0, 4.5)
        assert bd.total == 1.0 + 2.0 + 3.0 + 4.5

    def test_channel_accessor(self):
        bd = RateBreakdown.build(1.0, 2.0, 3.0, 4.0)
        assert bd.channel("bose_0m") == 3.0
        with pytest.raises(KeyError):
            bd.channel("nope")


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
        kin = Kinematics(100.0)
        assert_allclose(diffraction_total(ens, kin), 2.0 * math.pi * 1e6 / 1e4, rtol=1e-12)
        empty = synthetic_ensemble(2000, 5.0, 0.0)
        assert diffraction_total(empty, kin) == 0.0

    def test_total_excited_scaling(self):
        # closed form 16 pi T^5 / (3 k^2); doubling Ne means T -> 2^{1/3} T
        kin = Kinematics(100.0)
        t = 10.0
        base = diffraction_total_excited(synthetic_ensemble(5000, t, 0.0), kin)
        assert_allclose(base, 16.0 * math.pi * t**5 / (3.0 * 1e4), rtol=1e-8)
        doubled = diffraction_total_excited(
            synthetic_ensemble(5000, 2.0 ** (1.0 / 3.0) * t, 0.0), kin
        )
        assert_allclose(doubled / base, 2.0 ** (5.0 / 3.0), rtol=1e-8)

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
        ens = synthetic_ensemble(2000, 20.0, 1000.0)
        kin = Kinematics(100.0)
        expected = 4.0 * math.pi * 1000.0 * 20.0 / 1e4 * math.log(40.0)
        assert_allclose(bose_0m_total(ens, kin), expected, rtol=1e-12)
        assert expected == pytest.approx(92.71, rel=1e-3)

    def test_total_numeric_closed_form(self):
        # substitution s = delta^2/2T gives (4 pi N0 T/k^2)(-ln(1 - e^{-1/2T}))
        for t in (10.0, 30.0):
            ens = synthetic_ensemble(2000, t, 1000.0)
            kin = Kinematics(100.0)
            numeric = bose_0m_total_numeric(ens, kin)
            closed = 4.0 * math.pi * 1000.0 * t / 1e4 * -math.log(-math.expm1(-0.5 / t))
            assert_allclose(numeric, closed, rtol=1e-8)

    def test_total_numeric_vs_estimate(self):
        # the estimate keeps only the leading log
        kin = Kinematics(100.0)
        for t in (10.0, 30.0, 100.0):
            ens = synthetic_ensemble(2000, t, 1000.0)
            ratio = bose_0m_total(ens, kin) / bose_0m_total_numeric(ens, kin)
            assert abs(ratio - 1.0) < 0.4

    def test_total_validation(self):
        ens = synthetic_ensemble(2000, 0.5, 1000.0)
        with pytest.raises(ValueError):
            bose_0m_total(ens, Kinematics(100.0))
        empty = synthetic_ensemble(2000, 20.0, 0.0)
        assert bose_0m_total(empty, Kinematics(100.0)) == 0.0


class TestExcitedPairShape:
    def test_order_one_at_small_a(self):
        assert_allclose(excited_pair_shape(1e-3), 0.2207409, rtol=1e-4)

    def test_reference_point(self):
        assert_allclose(excited_pair_shape(8.0), 1.3940734e-3, rtol=1e-4)

    def test_monotone_decreasing(self):
        values = [excited_pair_shape(a) for a in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_tail_log_slope_is_minus_half(self):
        # the support geometry prices the cheapest allowed pair at a total
        # energy delta^2/4, i.e. both occupation factors together cost
        # e^{-a/2}; the measured slope confirms it
        slope = (math.log(excited_pair_shape(16.0)) - math.log(excited_pair_shape(8.0))) / 8.0
        assert_allclose(slope, -0.5188, atol=0.01)

    @pytest.mark.parametrize("a", [0.01, 1.0, 8.0])
    def test_adaptive_route_agrees(self, a):
        fixed = excited_pair_shape(a, method="fixed")
        adaptive = excited_pair_shape(a, method="adaptive")
        assert_allclose(fixed, adaptive, rtol=1e-4)

    def test_grid_interpolation_quality(self):
        table = _shape_table()
        for a in (0.00173, 0.37, 5.3, 22.0):
            assert_allclose(table(a), excited_pair_shape(a), rtol=5e-3)

    def test_chemical_shift_suppresses(self):
        assert excited_pair_shape(1.0, nu=0.5) < excited_pair_shape(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            excited_pair_shape(0.0)
        with pytest.raises(ValueError):
            excited_pair_shape(1.0, nu=-0.1)
        with pytest.raises(ValueError):
            excited_pair_shape(1.0, method="nope")


class TestBoseMm:
    def test_shape_times_cube(self):
        ens = synthetic_ensemble(5000, 12.0, 2000.0, mu=-1e-9)
        delta = 3.0
        a = 0.5 * delta * delta / 12.0
        assert_allclose(
            bose_mm_differential(ens, delta),
            12.0**3 * _shape_table()(a),
            rtol=1e-12,
        )

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
        # (2 pi T^4/k^2) int f: doubling Ne (T -> 2^{1/3} T) scales by 2^{4/3}
        kin = Kinematics(100.0)
        t = 9.0
        base = bose_mm_total(synthetic_ensemble(5000, t, 2000.0, mu=-1e-9), kin)
        doubled = bose_mm_total(
            synthetic_ensemble(5000, 2.0 ** (1.0 / 3.0) * t, 2000.0, mu=-1e-9), kin
        )
        assert_allclose(doubled / base, 2.0 ** (4.0 / 3.0), rtol=1e-12)

    def test_total_formula(self):
        kin = Kinematics(100.0)
        t = 9.0
        ens = synthetic_ensemble(5000, t, 2000.0, mu=-1e-9)
        expected = 2.0 * math.pi * t**4 / 1e4 * _shape_table().integral
        assert_allclose(bose_mm_total(ens, kin), expected, rtol=1e-12)

    def test_cold_limit(self):
        ens = synthetic_ensemble(1000, 0.05, 1000.0)
        kin = Kinematics(100.0)
        assert bose_mm_total(ens, kin) < 1e-2


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
        kin = Kinematics(1000.0, 2.0)
        bd = decompose(ens, kin)
        assert bd.total == bd.rayleigh + bd.diffraction + bd.bose_0m + bd.bose_mm
        assert all(bd.channel(c) >= 0.0 for c in CHANNELS)
        assert all(bd.valid[c] for c in CHANNELS)
        assert bd.errors == {}

    def test_invalid_channels_zero_filled(self):
        ens = TrapEnsemble.at_ratio(10_000, 0.7)
        kin = Kinematics(1000.0, 0.5)
        bd = decompose(ens, kin)
        assert bd.valid["bose_0m"] is False
        assert bd.bose_0m == 0.0
        assert bd.valid["diffraction"] is True  # 0.25 * 14.18 > 1
        assert bd.diffraction > 0.0

    def test_condensate_regime_diffraction_dominates(self):
        ens = TrapEnsemble.at_ratio(10_000, 0.7)
        bd = decompose(ens, Kinematics(1000.0, 1.0))
        others = max(bd.rayleigh, bd.bose_0m, bd.bose_mm)
        assert bd.diffraction > 10.0 * others

    def test_enhancement_factor_at_half_thermal(self):
        # delta^2 = T/2: bose_0m/rayleigh ~ 4 (N0/N)(T/delta^2) * 0.88,
        # the 0.88 being 2/(e^{1/4}-1)/8
        ens = TrapEnsemble.at_ratio(10_000, 0.7)
        delta = math.sqrt(0.5 * ens.temperature)
        bd = decompose(ens, Kinematics(1000.0, delta))
        approx = 4.0 * (ens.n_condensate / ens.n_total) * ens.temperature / delta**2
        ratio = (bd.bose_0m / bd.rayleigh) / approx
        assert_allclose(ratio, 2.0 / math.expm1(0.25) / 8.0, rtol=1e-9)
        assert abs(ratio - 0.88) < 0.01

    def test_rayleigh_largest_in_the_tail(self):
        ens = TrapEnsemble.at_ratio(10_000, 0.7)
        delta = 4.0 * math.sqrt(ens.temperature)
        bd = decompose(ens, Kinematics(1000.0, delta))
        assert bd.rayleigh > max(bd.diffraction, bd.bose_0m, bd.bose_mm)

    def test_channel_error_does_not_abort(self, monkeypatch):
        import trapscatter.scattering as sc

        def boom(ensemble, delta, spec=None):
            raise ConvergenceError("synthetic failure")

        monkeypatch.setattr(sc, "bose_mm_differential", boom)
        ens = TrapEnsemble.at_ratio(1000, 0.7)
        bd = sc.decompose(ens, Kinematics(100.0, 2.0))
        assert bd.bose_mm == 0.0
        assert bd.valid["bose_mm"] is False
        assert "bose_mm" in bd.errors
        assert bd.rayleigh == 1000.0
        assert bd.diffraction > 0.0

    def test_delta_from_kinematics(self):
        ens = TrapEnsemble.at_ratio(1000, 0.7)
        kin = Kinematics(100.0, 2.0)
        assert decompose(ens, kin).total == decompose(ens, kin, delta=2.0).total

    def test_validation(self):
        ens = TrapEnsemble.at_ratio(1000, 0.7)
        with pytest.raises(ValueError):
            decompose(ens, Kinematics(100.0, 0.0))
