import dataclasses
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _reference import chemical_potential_bisection, continuum_population
from trapscatter import (
    ConvergenceError,
    DiscreteEnsemble,
    TrapEnsemble,
    ZETA3,
    chemical_potential,
    condensate_count,
    critical_temperature,
    solve_mu_discrete,
)
from trapscatter import quad, thermo


class TestCriticalTemperature:
    def test_zeta3_constant(self):
        assert_allclose(ZETA3, 1.2020569031595943, rtol=1e-15)

    def test_single_particle(self):
        assert_allclose(critical_temperature(1), (1.0 / ZETA3) ** (1.0 / 3.0), rtol=1e-15)
        assert_allclose(critical_temperature(1), 0.9404989702570405, rtol=1e-12)

    def test_cube_root_scaling(self):
        assert_allclose(critical_temperature(1000), 10.0 * critical_temperature(1), rtol=1e-13)

    def test_monotone(self):
        values = [critical_temperature(n) for n in (1, 10, 100, 1000)]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            critical_temperature(0)


class TestCondensateCount:
    def test_vanishes_at_tc(self):
        tc = critical_temperature(1000)
        assert condensate_count(1000, tc) == 0.0
        assert condensate_count(1000, 1.7 * tc) == 0.0

    def test_zero_temperature_limit(self):
        tc = critical_temperature(1000)
        assert_allclose(condensate_count(1000, 1e-6 * tc), 1000.0, rtol=1e-12)

    def test_half_tc(self):
        tc = critical_temperature(1000)
        assert_allclose(condensate_count(1000, 0.5 * tc), 875.0, rtol=1e-12)

    def test_monotone_in_temperature(self):
        tc = critical_temperature(5000)
        values = [condensate_count(5000, r * tc) for r in (0.2, 0.4, 0.6, 0.8, 0.99)]
        assert all(x > y for x, y in zip(values, values[1:]))


class TestChemicalPotential:
    def test_continuity_across_tc(self):
        n = 10_000
        tc = critical_temperature(n)
        below = chemical_potential(n, tc * (1.0 - 1e-9))
        above = chemical_potential(n, tc * (1.0 + 1e-9))
        assert abs(below - above) <= 1e-6 * tc

    def test_number_equation_identity(self):
        # the solved mu reproduces N when the ground state is counted
        # discretely and the excited states in the continuum
        for n, ratio in product((300, 10_000), (0.5, 0.9, 1.0, 1.2)):
            t = ratio * critical_temperature(n)
            mu = chemical_potential(n, t)
            assert_allclose(continuum_population(mu, t), n, rtol=1e-13)

    @pytest.mark.parametrize("ratio", [5.0, 10.0, 30.0, 100.0])
    def test_number_equation_in_classical_regime(self, ratio):
        # |mu|/T above 4.5: the 1e-15 T tolerance is below one ulp of mu,
        # so the solve must stop on a step that no longer lowers mu
        n = 10_000
        t = ratio * critical_temperature(n)
        mu = chemical_potential(n, t)
        assert mu / t < -4.5
        assert_allclose(continuum_population(mu, t), n, rtol=1e-12)

    def test_ground_occupation_matches_condensate(self):
        n = 10_000
        tc = critical_temperature(n)
        for ratio in (0.3, 0.5, 0.7):
            t = ratio * tc
            mu = chemical_potential(n, t)
            assert_allclose(1.0 / math.expm1(-mu / t), condensate_count(n, t), rtol=2e-3)

    def test_linearized_slope_above_tc(self):
        n = 10_000
        tc = critical_temperature(n)
        t = 1.1 * tc
        mu = chemical_potential(n, t)
        linear = -18.0 * ZETA3 / math.pi**2 * 0.1 * t
        assert abs(mu / linear - 1.0) < 0.15

    def test_slope_coefficient_value(self):
        # mu/T = -(18 zeta(3)/pi^2) (T - Tc)/Tc just above Tc
        assert_allclose(18.0 * ZETA3 / math.pi**2, 2.1922889082043153, rtol=1e-12)

    def test_finite_size_rounding_at_tc(self):
        # |mu(Tc)| ~ T (1.37 N)^(-1/2): small, and shrinking with N
        small = chemical_potential(10_000, critical_temperature(10_000))
        large = chemical_potential(100_000, critical_temperature(100_000))
        assert abs(small) < 0.01 * critical_temperature(10_000)
        assert abs(large) / critical_temperature(100_000) < abs(small) / critical_temperature(10_000)

    def test_always_negative(self):
        for n, ratio in product((1, 100), (0.2, 1.0, 3.0)):
            assert chemical_potential(n, ratio * critical_temperature(max(n, 2))) < 0

    def test_validation(self):
        with pytest.raises(ValueError):
            chemical_potential(10, 0.0)
        with pytest.raises(ValueError):
            chemical_potential(10, math.nan)
        with pytest.raises(ValueError):
            chemical_potential(0, 1.0)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 100_000), st.floats(math.log(0.05), math.log(100.0)))
    @example(1, math.log(0.05))
    @example(100_000, math.log(0.05))
    @example(100_000, 0.0)
    @example(100_000, math.log(1.4))
    @example(100_000, math.log(100.0))
    def test_newton_matches_bisection_reference(self, n, log_ratio):
        # mu to 1e-10 of the bisection (whose own error is up to 5e-16 T,
        # 5e-11 of mu = -T/N0 at N0 = 1e5), the number equation to 1e-13,
        # and at most 30 population evaluations, one polylog3 call each
        t = math.exp(log_ratio) * critical_temperature(n)
        polylog3 = quad.polylog3
        evaluations = []

        def counted(x):
            evaluations.append(x)
            return polylog3(x)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quad, "polylog3", counted)
            mu = chemical_potential(n, t)
        assert len(evaluations) <= 30
        reference = chemical_potential_bisection(n, t, lambda m: continuum_population(m, t))
        assert_allclose(mu, reference, rtol=1e-10, atol=0)
        assert_allclose(continuum_population(mu, t), n, rtol=1e-13)

    def test_solver_raises_on_nan_temperature(self):
        # NaN compares false everywhere: the solver must raise, not return NaN
        t = math.nan

        def ground(mu):
            n0 = 1.0 / math.expm1(-mu / t)
            return n0, (n0 + 1.0) / t

        with pytest.raises(ConvergenceError):
            thermo._solve_number_equation(ground, 100, t, "test")

    def test_solver_raises_when_start_is_below_root(self):
        with pytest.raises(ConvergenceError, match="below the root"):
            thermo._solve_number_equation(lambda mu: (0.5, 1.0), 100, 1.0, "test")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ensemble,context", [(TrapEnsemble, "chemical_potential"),
                                                  (DiscreteEnsemble, "solve_mu_discrete")])
    def test_solver_refuses_a_start_point_that_underflows(self, ensemble, context):
        # mu0 = -T ln(1 + 1/N) rounds to -0.0 at T = 1e-323; one check serves both number equations
        message = f"^{context}: the start point mu0=-0.0 is not below 0 at T=1e-323$"
        with pytest.raises(ConvergenceError, match=message):
            ensemble(1000, 1e-323)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n,t", [(3757636147301653777613037471214811572379221753856, 1.827e-259),
                                     (359_100_000, 1.093e102)])
    def test_solves_where_dn_dmu_overflows(self, n, t):
        # Newton steps by ln(N/n) / (d ln N/dmu).  dN/dmu itself overflows at
        # the first, as n0 (n0 + 1)/T = N^2/T, and ln(N/n) N at the second's
        # start, where N(mu0) ~ T^3 zeta(3) = 1.6e306; d ln N/dmu is finite at both
        mu = chemical_potential(n, t)
        assert -math.inf < mu < 0.0
        assert_allclose(continuum_population(mu, t), float(n), rtol=1e-13)

    def test_solver_budget(self, monkeypatch):
        monkeypatch.setattr(thermo, "_NEWTON_ITERATIONS", 2)
        with pytest.raises(ConvergenceError, match="budget"):
            chemical_potential(100_000, 1.4 * critical_temperature(100_000))


class TestTrapEnsemble:
    def test_population_split(self):
        ens = TrapEnsemble(10_000, 10.0)
        assert ens.n_condensate + ens.n_excited == 10_000
        assert ens.mu < 0
        assert ens.t_critical == critical_temperature(10_000)

    def test_at_ratio(self):
        ens = TrapEnsemble.at_ratio(1000, 0.5)
        assert_allclose(ens.temperature, 0.5 * critical_temperature(1000), rtol=1e-15)
        assert_allclose(ens.n_condensate, 875.0, rtol=1e-12)

    def test_above_tc_condensate_empty(self):
        ens = TrapEnsemble.at_ratio(1000, 1.3)
        assert ens.n_condensate == 0.0
        assert ens.n_excited == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            TrapEnsemble.at_ratio(1000, -0.5)
        with pytest.raises(TypeError):
            TrapEnsemble(1000, 5.0, -0.1, 500.0)  # a state off the model: mu and n_condensate are derived

    def test_state_is_solved_from_n_total_and_temperature(self):
        # (n_total, temperature) define the ensemble; mu and n_condensate are not arguments
        ens = TrapEnsemble(1000, 5.0)
        assert (ens.mu, ens.n_condensate) == (-0.00587900646502572, 849.7428871050506)
        assert (ens.mu, ens.n_condensate) == (chemical_potential(1000, 5.0), condensate_count(1000, 5.0))
        assert ens == TrapEnsemble(1000.0, 5) and hash(ens) == hash(TrapEnsemble(1000.0, 5))
        for derived in ("mu", "n_condensate"):
            with pytest.raises(TypeError):
                TrapEnsemble(1000, 5.0, **{derived: -0.1})
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ens, derived, -0.1)

    def test_derived_fields_follow_a_hand_built_ensemble(self):
        # t_critical and n_excited are computed from n_total and the solved
        # n_condensate, so an ensemble built from (N, T) cannot contradict them
        ens = TrapEnsemble(2000, 8.0)
        assert ens.t_critical == critical_temperature(2000)
        assert ens.n_excited == 2000 - condensate_count(2000, 8.0)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 150.0).map(lambda x: int(10.0**x)), st.floats(-323.0, 103.0).map(lambda x: 10.0**x))
    @example(3757636147301653777613037471214811572379221753856, 1.827e-259)  # dN/dmu overflows
    @example(1, 2.3e-308)  # mu0 = -T ln 2 is subnormal
    @example(10**150, 2.3e-158)
    @example(10**150, 5.3e102)  # T^3 zeta(3) just below the largest float
    @example(10**150, 5.32e102)  # T^3 zeta(3) beyond it: the solve starts at T ln(2N/T^3)
    @example(1, 5.6e102)
    @example(1000, 5.64e102)  # T^3 just below the largest float
    @example(1000, 1e-323)  # mu0 rounds to -0.0: refused
    def test_solves_wherever_the_state_is_representable(self, n, t):
        # N = 10^U(0, 150), T = 10^U(-323, 103): with T/N >= 2.3e-308 and T^3 below the largest
        # float (T <= 5.64e102) the ensemble solves; elsewhere the only outcome besides that is a
        # ConvergenceError, with no warning
        try:
            ens = TrapEnsemble(n, t)
        except ConvergenceError:
            assert not (t / n >= 2.3e-308 and t * t * t < math.inf), (n, t)
            return
        assert -math.inf < ens.mu < 0.0
        assert 0.0 <= ens.n_condensate <= n


@pytest.mark.parametrize("n", [1, 1000, 10**6, 10**150])
def test_solves_where_the_cloud_at_mu0_overflows(n):
    # at T = 5.5e102, T^3 zeta(3) overflows but T^3 does not: mu solves the number equation
    t = 5.5e102
    assert abs(continuum_population(chemical_potential(n, t), t) / n - 1.0) < 1e-12


@pytest.mark.parametrize("call,message", [
    (lambda: critical_temperature(math.nan), "n_total must"),
    (lambda: condensate_count(1000, math.nan), "temperature must"),
    (lambda: condensate_count(math.nan, 5.0), "n_total must"),
    (lambda: chemical_potential(math.nan, 5.0), "n_total must"),
    (lambda: TrapEnsemble(math.nan, 5.0), "n_total must"),
    (lambda: TrapEnsemble(1000, math.nan), "temperature must"),
    (lambda: TrapEnsemble.at_ratio(1000, math.nan), "t_over_tc must"),
    (lambda: TrapEnsemble.at_ratio(math.nan, 0.5), "n_total must"),
    (lambda: DiscreteEnsemble(math.nan, 5.0), "n_total must"),
    (lambda: DiscreteEnsemble(1000, math.nan), "temperature must"),
    (lambda: solve_mu_discrete(math.nan, 5.0), "n_total must"),
    # infinite and non-integral particle numbers, infinite temperatures
    pytest.param(lambda: chemical_potential(1000, math.inf), "temperature must",
                 id="chemical_potential-temperature-inf"),
    pytest.param(lambda: chemical_potential(math.inf, 5.0), "n_total must",
                 id="chemical_potential-n_total-inf"),
    pytest.param(lambda: TrapEnsemble(math.inf, 5.0), "n_total must",
                 id="TrapEnsemble-n_total-inf"),
    pytest.param(lambda: TrapEnsemble(1000.5, 5.0), "n_total must",
                 id="TrapEnsemble-n_total-1000.5"),
    pytest.param(lambda: TrapEnsemble(1000, math.inf), "temperature must",
                 id="TrapEnsemble-temperature-inf"),
    pytest.param(lambda: TrapEnsemble.at_ratio(1000, math.inf), "t_over_tc must",
                 id="TrapEnsemble.at_ratio-t_over_tc-inf"),
    pytest.param(lambda: TrapEnsemble.at_ratio(math.inf, 0.5), "n_total must",
                 id="TrapEnsemble.at_ratio-n_total-inf"),
    pytest.param(lambda: DiscreteEnsemble(math.inf, 5.0), "n_total must",
                 id="DiscreteEnsemble-n_total-inf"),
    pytest.param(lambda: DiscreteEnsemble(1000.5, 5.0), "n_total must",
                 id="DiscreteEnsemble-n_total-1000.5"),
    pytest.param(lambda: DiscreteEnsemble(1000, math.inf), "temperature must",
                 id="DiscreteEnsemble-temperature-inf"),
    pytest.param(lambda: solve_mu_discrete(math.inf, 5.0), "n_total must",
                 id="solve_mu_discrete-n_total-inf"),
    pytest.param(lambda: solve_mu_discrete(1000.5, 5.0), "n_total must",
                 id="solve_mu_discrete-n_total-1000.5"),
    pytest.param(lambda: solve_mu_discrete(1000, math.inf), "temperature must",
                 id="solve_mu_discrete-temperature-inf"),
    (lambda: quad.p_kernel(math.nan, 1.0), "p_kernel arguments a, b must"),
    (lambda: quad.p_kernel(np.array([1.0, 2.0]), np.array([0.5, math.nan])), "p_kernel arguments a, b must"),
    (lambda: quad.g_kernel(np.array([math.nan]), np.array([1.0])), "g_kernel arguments a, b must"),
    (lambda: quad.g_kernel(np.array([1.0]), np.array([math.nan])), "g_kernel arguments a, b must"),
])
def test_nan_refused_naming_the_argument(call, message):
    # comparisons with nan are false: every entry check must fail on it, and
    # on an infinite or (for a particle count) non-integral value
    with pytest.raises(ValueError, match=f"^{message}"):
        call()
