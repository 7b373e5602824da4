import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _reference import (
    bose_series_channels,
    bose_series_diffraction_mpmath,
    bose_series_population,
    chemical_potential_bisection,
    default_epsilon_max_scan,
    discrete_population,
    exact_breakdown_band,
)
from trapscatter import (
    CHANNELS,
    DiscreteEnsemble,
    PrecisionLossError,
    RateBreakdown,
    TruncationError,
    condensate_count,
    critical_temperature,
    exact_breakdown,
    scaling_probe,
    solve_mu_discrete,
)
from trapscatter import oracle, oscillator
from trapscatter.oracle import _boltzmann_tail, _default_epsilon_max, _projected_weights, exact_breakdowns
from trapscatter.oscillator import diagonal_amplitude_column, overlap_matrix


def _pair_weights_loop(occ, skip_ground=False):
    """Reference PW(mx, mx') = sum_q (q+1) occ[mx+q] occ[mx'+q], one rank-one update per q.

    skip_ground leaves out the q = 0 pairs with a level-0 end: the
    ground<->(m,0,0) pairs that bose_0m counts.
    """
    size = occ.size
    pw = np.zeros((size, size))
    for q in range(size):
        tail = occ[q:]
        update = (q + 1.0) * np.outer(tail, tail)
        if skip_ground and q == 0:
            update[0, :] = update[:, 0] = 0.0
        pw[: size - q, : size - q] += update
    return pw


def _bose_mm_reference(ens, delta):
    """Exactly rounded sum over m != m' of g[m, m'] PW[m, m'], ground pairs never added."""
    g = overlap_matrix(ens.epsilon_max, delta)
    np.fill_diagonal(g, 0.0)
    return math.fsum((g * _pair_weights_loop(ens.occupations, skip_ground=True)).ravel())


@pytest.fixture(scope="module")
def discrete_1e5_07():
    return solve_mu_discrete(100_000, 0.7 * critical_temperature(100_000))


class TestSolveMuDiscrete:
    def test_single_particle_cold(self):
        # one particle nearly frozen out: occupation(0) = 1 forces
        # e^{-mu/T} = 2, i.e. mu = -T ln 2
        t = 0.01
        ens = solve_mu_discrete(1, t)
        assert_allclose(ens.mu_exact, -t * math.log(2.0), rtol=1e-10)
        assert_allclose(float(ens.occupations[0]), 1.0, rtol=1e-8)

    def test_ground_state_relation(self):
        ens = solve_mu_discrete(500, 0.6 * critical_temperature(500))
        lhs = math.expm1(-ens.mu_exact / ens.temperature)
        assert_allclose(lhs, 1.0 / float(ens.occupations[0]), rtol=1e-10)

    def test_population_reproduced(self):
        ens = solve_mu_discrete(2000, 0.8 * critical_temperature(2000))
        eps = np.arange(ens.epsilon_max + 1)
        g = (eps + 1) * (eps + 2) // 2
        total = float(np.sum(g * ens.occupations))
        assert_allclose(total, 2000.0, rtol=1e-9)

    def test_condensate_vs_leading_order(self, discrete_1e4_05):
        assert abs(float(discrete_1e4_05.occupations[0]) / 10_000 - 0.875) < 0.03

    def test_occupations_match_formula(self):
        ens = solve_mu_discrete(300, 4.0)
        for level in (0, 1, 7):
            assert_allclose(
                ens.occupations[level],
                1.0 / math.expm1((level - ens.mu_exact) / ens.temperature),
                rtol=1e-12,
            )

    def test_tail_bound_honored(self):
        # the mu = 0 bound that picks the level also bounds the Bose tail of
        # the solved mu < 0, summed here over the levels the ensemble drops
        for n, ratio in ((500, 0.7), (100_000, 0.2), (100_000, 0.7), (1000, 2.0), (2000, 0.05)):
            ens = solve_mu_discrete(n, ratio * critical_temperature(n))
            eps = np.arange(ens.epsilon_max + 1.0, ens.epsilon_max + 100.0 * ens.temperature)
            tail = math.fsum((eps + 1.0) * (eps + 2.0) / 2.0 / np.expm1((eps - ens.mu_exact) / ens.temperature))
            assert 0.0 < tail <= _boltzmann_tail(ens.epsilon_max, ens.temperature) < 1e-6 * n, (n, ratio)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_mu_discrete(0, 1.0)
        with pytest.raises(ValueError):
            solve_mu_discrete(10, -1.0)
        with pytest.raises(ValueError):
            solve_mu_discrete(10, math.nan)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 100_000), st.floats(math.log(0.05), math.log(1.4)))
    @example(1, math.log(0.05))
    @example(100_000, math.log(0.05))
    @example(11_800, math.log(1.4))
    def test_newton_matches_bisection_reference(self, n, log_ratio):
        # T/Tc up to 1.4, capped at T = 28, where the default truncation
        # controls the tail for every N up to 1e5
        t = min(math.exp(log_ratio) * critical_temperature(n), 28.0)
        solve = oracle._solve_number_equation
        evaluations = []

        def counting(population, *args):
            def counted(mu):
                evaluations.append(mu)
                return population(mu)

            return solve(counted, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_solve_number_equation", counting)
            ens = solve_mu_discrete(n, t)
        assert len(evaluations) <= 30
        reference = chemical_potential_bisection(n, t, lambda mu: discrete_population(mu, t, ens.epsilon_max))
        assert_allclose(ens.mu_exact, reference, rtol=1e-10, atol=0)
        assert_allclose(discrete_population(ens.mu_exact, t, ens.epsilon_max), n, rtol=1e-13)

    @pytest.mark.parametrize("n,ratio", [(1000, 0.5), (10_000, 0.2), (10_000, 0.7), (10_000, 1.1),
                                         (10_000, 1.38), (100_000, 0.7), (300, 0.79), (2, 0.01)])
    def test_mu_holds_n_total_in_the_untruncated_level_sum(self, n, ratio):
        # the untruncated sum adds the levels past epsilon_max, whose tail the truncation keeps below 1e-6 N
        ens = DiscreteEnsemble(n, ratio * critical_temperature(n))
        excess = bose_series_population(ens.mu_exact, ens.temperature) / n - 1.0
        assert -1e-12 <= excess < 1e-6, excess

    @pytest.mark.parametrize("n", [23, 49, 93])
    def test_cold_start_rounding_short_of_n(self, n):
        # at these N the ground term at mu0 = -T ln(1 + 1/N) rounds below N,
        # and at T = 0.027 the excited levels add less than one ulp of it
        t = 0.027
        ens = solve_mu_discrete(n, t)
        assert ens.epsilon_max == 30
        assert_allclose(ens.mu_exact, -t * math.log1p(1.0 / n), rtol=1e-15)
        reference = chemical_potential_bisection(n, t, lambda mu: discrete_population(mu, t, 30))
        assert_allclose(ens.mu_exact, reference, rtol=1e-10)


# (N, T) from 1 to 1e7 atoms and T = 0.005 to 200: both sides of the 600-level guard
_STATES = [(int(n), float(t)) for n in np.unique(np.geomspace(1, 1e7, 25).astype(int))
           for t in np.geomspace(0.005, 200.0, 40)]


class TestDiscreteEnsemble:
    def test_truncation_is_derived_not_passed(self):
        # (n_total, temperature) define the ensemble; mu_exact and epsilon_max are not arguments
        for derived in ("mu_exact", "epsilon_max"):
            with pytest.raises(TypeError):
                DiscreteEnsemble(1000, 5.0, **{derived: 30})
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(DiscreteEnsemble(1000, 5.0), derived, 30)
        with pytest.raises(TypeError):
            DiscreteEnsemble(1000, 5.0, 30)
        # the triple that once held 261.8 atoms for its n_total of 1000
        with pytest.raises(TypeError):
            DiscreteEnsemble(1000, 5.0, -0.1)

    def test_constructor_is_the_solve(self):
        ens = DiscreteEnsemble(1000, 5.0)
        assert ens == solve_mu_discrete(1000, 5.0) and hash(ens) == hash(solve_mu_discrete(1000, 5.0))
        assert (ens.n_total, ens.temperature) == (1000, 5.0)
        assert (type(ens.n_total), type(ens.temperature)) == (int, float)
        assert DiscreteEnsemble(1000.0, np.float64(5.0)) == ens

    def test_truncation_matches_level_scan(self):
        outcomes = {"level": 0, "raise": 0}
        for n, t in _STATES:
            try:
                expected = default_epsilon_max_scan(n, t)
            except TruncationError:
                outcomes["raise"] += 1
                with pytest.raises(TruncationError):
                    DiscreteEnsemble(n, t)
            else:
                outcomes["level"] += 1
                assert DiscreteEnsemble(n, t).epsilon_max == expected, (n, t)
        assert min(outcomes.values()) > 100, outcomes

    def test_uncontrollable_tail_refused_at_construction(self):
        # no level up to 600 controls the tail of N = 2 at T = 50
        with pytest.raises(TruncationError, match="^no truncation below 600 "):
            DiscreteEnsemble(2, 50.0)
        with pytest.raises(TruncationError, match="^no truncation below 600 "):
            solve_mu_discrete(2, 50.0)

    def test_derived_tail_below_the_retired_cell_verdict(self):
        # the per-cell check occ[emax] g(emax) > 1e-4 N could never fire: its
        # worst case, mu -> 0-, stays below the threshold at every derived truncation
        worst = 0.0
        for n, t in _STATES:
            try:
                emax = _default_epsilon_max(n, t)
            except TruncationError:
                continue
            x = emax / t
            tail = (emax + 1) * (emax + 2) / 2.0 * math.exp(-x) / -math.expm1(-x)
            worst = max(worst, tail / (1e-4 * n))
        assert 0.0 < worst <= 1.0, worst

    @pytest.mark.parametrize("n,t", [(253, 0.005), (996, 0.01)])
    def test_solved_ground_state_one_ulp_over_accepted(self, n, t):
        # pins a rounding result: the excited levels add less than one ulp of N,
        # and the solved level 0 rounds one ulp above N
        assert solve_mu_discrete(n, t).occupations[0] == np.nextafter(float(n), math.inf)

    def test_widest_ensemble_accepted(self):
        ens = _bose_ensemble(oracle._MAX_EPSILON)
        assert ens.occupations.shape == (oracle._MAX_EPSILON + 1,)

    def test_equal_solves_compare_and_hash_equal(self):
        first, second = solve_mu_discrete(1000, 5.0), solve_mu_discrete(1000, 5.0)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert len({first, second, solve_mu_discrete(1000, 6.0)}) == 2

    @pytest.mark.parametrize("ens", [solve_mu_discrete(1000, 5.0), DiscreteEnsemble(1, 0.02)],
                             ids=["solved", "deep-tail"])
    def test_occupations_are_the_read_only_bose_formula(self, ens):
        # bit for bit; past level 14 of the deep tail expm1 overflows and the state holds 0
        eps = np.arange(ens.epsilon_max + 1.0)
        with np.errstate(over="ignore"):
            want = 1.0 / np.expm1((eps - ens.mu_exact) / ens.temperature)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            occ = ens.occupations
        assert occ.tobytes() == want.tobytes()
        assert occ is ens.occupations and not occ.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            occ[0] = 1.0

    @pytest.mark.parametrize("occupations", [np.full(31, np.nan), np.full(31, -1.0)], ids=["nan", "negative"])
    def test_free_occupations_cannot_be_built(self, occupations):
        # the NaN and negative occupations that once gave NaN or plausible channels, all flagged valid
        with pytest.raises(TypeError):
            DiscreteEnsemble(1000, 5.0, occupations)
        with pytest.raises(TypeError):
            DiscreteEnsemble(1000, 5.0, occupations=occupations)
        with pytest.raises(dataclasses.FrozenInstanceError):
            DiscreteEnsemble(1000, 5.0).occupations = occupations


class TestDefaultEpsilonMax:
    def test_bisection_matches_linear_scan(self):
        # T up to 60 reaches both failures: a tail bound still too large at
        # the cost guard, and a 12 T floor already above it
        outcomes = {"level": 0, "raise": 0}
        for n in np.unique(np.geomspace(1, 100_000, 40).astype(int)):
            for t in np.geomspace(0.05, 60.0, 70):
                try:
                    expected = default_epsilon_max_scan(int(n), t)
                except TruncationError:
                    outcomes["raise"] += 1
                    with pytest.raises(TruncationError):
                        _default_epsilon_max(int(n), t)
                else:
                    outcomes["level"] += 1
                    assert _default_epsilon_max(int(n), t) == expected, (n, t)
        assert min(outcomes.values()) > 100, outcomes


class TestProjectedWeights:
    def test_single_projection_brute_force(self):
        occ = np.array([2.0, 1.0, 0.5, 0.25, 0.1])
        w = _projected_weights(occ)
        for mx in range(5):
            brute = sum((q + 1) * occ[mx + q] for q in range(5 - mx))
            assert_allclose(w[mx], brute, rtol=1e-14)

    def test_pair_projection_brute_force(self):
        # the reference pair weights of the bose_mm sums below
        occ = np.array([2.0, 1.0, 0.5, 0.25])
        pw = _pair_weights_loop(occ)
        no_ground = _pair_weights_loop(occ, skip_ground=True)
        for m1 in range(4):
            for m2 in range(4):
                qs = range(4 - max(m1, m2))
                brute = sum((q + 1) * occ[m1 + q] * occ[m2 + q] for q in qs)
                assert_allclose(pw[m1, m2], brute, rtol=1e-14)
                brute = sum((q + 1) * occ[m1 + q] * occ[m2 + q] for q in qs
                            if q > 0 or min(m1, m2) > 0)
                assert_allclose(no_ground[m1, m2], brute, rtol=1e-14)

    def test_weights_sum_to_population(self):
        ens = solve_mu_discrete(300, 4.0)
        w = _projected_weights(ens.occupations)
        assert_allclose(float(np.sum(w)), 300.0, rtol=1e-9)


class TestExactBreakdown:
    def test_zero_transfer_degenerate_case(self):
        ens = solve_mu_discrete(300, 0.5 * critical_temperature(300))
        bd = exact_breakdown(ens, 0.0)
        assert bd.rayleigh == 300.0
        assert_allclose(bd.diffraction, 300.0**2, rtol=1e-9)
        assert bd.bose_0m == 0.0
        assert bd.bose_mm == 0.0

    def test_completeness_sum(self):
        # sum_{i,f} N_i |<i|e^{i delta x}|f>|^2 = N: rows of the overlap
        # matrix are extended past the thermal truncation so no weight leaks
        ens = solve_mu_discrete(300, 0.5 * critical_temperature(300))
        pad = 120
        g = overlap_matrix(ens.epsilon_max + pad, 1.7)
        w = _projected_weights(ens.occupations)
        total = float(np.dot(w, g[: ens.epsilon_max + 1].sum(axis=1)))
        assert_allclose(total, 300.0, rtol=1e-8)

    def test_channels_non_negative(self):
        ens = solve_mu_discrete(500, 0.7 * critical_temperature(500))
        for delta in (0.3, 1.0, 2.5, 6.0):
            bd = exact_breakdown(ens, delta)
            assert min(bd.rayleigh, bd.diffraction, bd.bose_0m, bd.bose_mm) >= 0.0

    def test_bose_0m_against_direct_sum(self):
        ens = solve_mu_discrete(400, 0.6 * critical_temperature(400))
        delta = 1.9
        bd = exact_breakdown(ens, delta)
        x = 0.5 * delta * delta
        direct = 2.0 * float(ens.occupations[0]) * sum(
            ens.occupations[m] * math.exp(-x + m * math.log(x) - math.lgamma(m + 1))
            for m in range(1, ens.epsilon_max + 1)
        )
        assert_allclose(bd.bose_0m, direct, rtol=1e-12)

    def test_bose_mm_excludes_ground_pairs(self):
        # brute-force assembly over explicit state pairs at tiny truncation
        t = 1.1
        ens_full = solve_mu_discrete(20, t)
        emax = ens_full.epsilon_max
        occ = ens_full.occupations
        g = overlap_matrix(emax, 0.9)
        brute = 0.0
        for mx in range(emax + 1):
            for mx2 in range(emax + 1):
                if mx == mx2:
                    continue
                for my in range(emax + 1 - max(mx, mx2)):
                    for mz in range(emax + 1 - max(mx, mx2) - my):
                        ground_pair = (my == 0 and mz == 0 and min(mx, mx2) == 0)
                        if ground_pair:
                            continue
                        brute += occ[mx + my + mz] * occ[mx2 + my + mz] * g[mx, mx2]
        bd = exact_breakdown(ens_full, 0.9)
        assert_allclose(bd.bose_mm, brute, rtol=1e-10)

    def test_bose_mm_small_delta_is_quadratic(self, discrete_1e5_07):
        # bose_mm ~ delta^2 as delta -> 0, while the diagonal of g stays
        # 1 - O(delta^2): the off-diagonal sum must not be a total minus it
        ratios = [exact_breakdown(discrete_1e5_07, d).bose_mm / d**2 for d in (1e-6, 1e-5, 1e-4)]
        assert max(ratios) / min(ratios) - 1.0 < 1e-6, ratios

    def test_bose_mm_against_exactly_rounded_sums(self):
        # cold ensemble: the ground pairs are 700 times bose_mm, so a total
        # minus bose_0m would keep only the last digits
        ens = solve_mu_discrete(10_000, 0.2 * critical_temperature(10_000))
        assert_allclose(exact_breakdown(ens, 1.0).bose_mm, _bose_mm_reference(ens, 1.0), rtol=1e-14)

    @pytest.mark.parametrize("ratio,delta", [(r, d) for r in (0.05, 0.1, 0.2, 0.7) for d in (0.3, 1.0)
                                             if (r, d) != (0.2, 1.0)])  # (0.2, 1) is the test above
    def test_bose_mm_against_subtraction_free_sum(self, ratio, delta):
        ens = solve_mu_discrete(10_000, ratio * critical_temperature(10_000))
        assert_allclose(exact_breakdown(ens, delta).bose_mm, _bose_mm_reference(ens, delta), rtol=1e-14)

    def test_semiclassical_band_at_small_n(self):
        # N = 200, T = 0.6 Tc: the continuum ground<->excited formula is
        # trustworthy only in a central delta band at this size; the band
        # values are frozen from measurement
        ens = solve_mu_discrete(200, 0.6 * critical_temperature(200))
        n0 = condensate_count(200, ens.temperature)
        for delta in (2.0, 2.2, 2.4, 2.6):
            semi = 2.0 * n0 / math.expm1(0.5 * delta * delta / ens.temperature)
            dev = exact_breakdown(ens, delta).bose_0m / semi - 1.0
            assert abs(dev) < 0.25, (delta, dev)

    def test_large_n_runs(self):
        # no cap on N: the cost is set by epsilon_max, which the level guard bounds
        ens = solve_mu_discrete(200_000, 0.2 * critical_temperature(200_000))
        bd = exact_breakdown(ens, 1.0)
        assert bd.rayleigh == 200_000.0
        assert all(math.isfinite(getattr(bd, c)) and getattr(bd, c) > 0.0 for c in CHANNELS)

    def test_validation(self):
        ens = solve_mu_discrete(100, 3.0)
        with pytest.raises(ValueError):
            exact_breakdown(ens, -1.0)
        # a nan delta is refused like a negative one, not run as an unstable lane
        with pytest.raises(ValueError):
            exact_breakdown(ens, math.nan)
        with pytest.raises(ValueError):
            exact_breakdowns([solve_mu_discrete(1000, 5.0)], [1.0, math.nan])


def _channels(bd):
    return (bd.rayleigh, bd.diffraction, bd.bose_0m, bd.bose_mm, bd.total)


def _bose_ensemble(emax):
    """The solved ensemble whose derived truncation is emax, from 30 to 600.

    At N = 1e8 the 12 T floor alone sets the truncation up to level 600,
    so T = (emax - 1/2) / 12 puts it at emax.
    """
    t = (emax - 0.5) / 12.0
    ens = DiscreteEnsemble(n_total=10**8, temperature=t)
    assert ens.epsilon_max == emax
    return ens


def _cell(ens, delta):
    """The stored-band reference for one pair, or the exception it raises."""
    try:
        return exact_breakdown_band(ens, delta)
    except PrecisionLossError as exc:
        return exc


class TestBoseSeriesChannels:
    """The oracle's channels against the untruncated Bose-series sums at its own mu (ROADMAP item 14)."""

    DELTAS = [1.0, 3.0, 5.0]

    @pytest.fixture(scope="class", params=[(10_000, 0.7), (10_000, 1.1), (100_000, 0.7)], ids=str)
    def pair(self, request):
        n, ratio = request.param
        ens = solve_mu_discrete(n, ratio * critical_temperature(n))
        return ens, bose_series_channels(n, ens.temperature, ens.mu_exact, self.DELTAS)

    def test_bose_channels_match_the_oracle(self, pair):
        # the oracle's truncation costs these non-negative sums only its tail:
        # measured at most 1.2e-14 (bose_0m) and 3.7e-12 (bose_mm)
        ens, series = pair
        cells = exact_breakdowns([ens], self.DELTAS)[0]
        assert_allclose([c.bose_0m for c in cells], series["bose_0m"], rtol=1e-13)
        assert_allclose([c.bose_mm for c in cells], series["bose_mm"], rtol=1e-10)
        assert_allclose([c.rayleigh for c in cells], series["rayleigh"], rtol=0)

    def test_diffraction_matches_60_digits(self, pair):
        # measured at most 7e-16: the float sum has only positive terms; the
        # oracle's truncated diffraction is not asserted (off by 3.3e-7 to 0.45
        # at 1.1 Tc, ROADMAP item 3)
        ens, series = pair
        exact = bose_series_diffraction_mpmath(ens.temperature, ens.mu_exact, self.DELTAS)
        assert_allclose(series["diffraction"], exact, rtol=1e-13)


class TestExactBreakdowns:
    """One streamed recurrence serves every (ensemble, delta) pair of a grid."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(30, 600), min_size=1, max_size=4),
           st.lists(st.just(0.0) | st.floats(0.1, 12.0), min_size=1, max_size=5))
    def test_grid_matches_per_pair_reference(self, emaxes, deltas):
        ensembles = [_bose_ensemble(emax) for emax in emaxes]
        grid = exact_breakdowns(ensembles, deltas)
        assert len(grid) == len(ensembles) and all(len(row) == len(deltas) for row in grid)
        for ens, row in zip(ensembles, grid):
            for delta, got in zip(deltas, row):
                want = exact_breakdown_band(ens, delta)
                assert (got.rayleigh, got.diffraction, got.bose_0m) == (
                    want.rayleigh, want.diffraction, want.bose_0m)
                assert_allclose(got.bose_mm, want.bose_mm, rtol=1e-14, atol=0.0)

    @settings(max_examples=25, deadline=None)
    @example(bound=0.2, emaxes=[30, 38, 50, 100], deltas=[0.0, 8.0, 10.0, 12.0])
    @given(st.floats(0.1, 0.35), st.lists(st.integers(30, 120), min_size=1, max_size=4),
           st.lists(st.just(0.0) | st.floats(3.0, 12.0), min_size=1, max_size=5))
    def test_precision_loss_per_pair(self, bound, emaxes, deltas):
        # a lowered bound fails low levels first: each pair raises iff the band
        # at its own truncation does, and every other cell keeps its value
        ensembles = [_bose_ensemble(emax) for emax in emaxes]
        clean = exact_breakdowns(ensembles, deltas)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oscillator, "_AMPLITUDE_BOUND", bound)
            grid = exact_breakdowns(ensembles, deltas)
            want = [[_cell(ens, delta) for delta in deltas] for ens in ensembles]
        for clean_row, row, want_row in zip(clean, grid, want):
            for before, got, ref in zip(clean_row, row, want_row):
                if isinstance(ref, PrecisionLossError):
                    assert isinstance(got, PrecisionLossError)
                else:
                    assert _channels(got) == _channels(before)

    def test_mixed_verdicts_in_one_grid(self, monkeypatch):
        # at bound 0.2 delta = 10 first breaches at level 39: one ensemble
        # below it, one above; the delta = 0 identity, amplitude 1, breaches
        # at level 0 in both rows
        monkeypatch.setattr(oscillator, "_AMPLITUDE_BOUND", 0.2)
        grid = exact_breakdowns([_bose_ensemble(30), _bose_ensemble(60)], [0.0, 10.0])
        kinds = [[type(cell).__name__ for cell in row] for row in grid]
        assert kinds == [["PrecisionLossError", "RateBreakdown"], ["PrecisionLossError"] * 2]
        with pytest.raises(PrecisionLossError):
            exact_breakdown(_bose_ensemble(60), 10.0)

    @settings(max_examples=15, deadline=None)
    @example(emaxes=[543, 60, 30], deltas=[0.0, np.float64(1e200), 0.7, 1.3, 3.0])
    # pairs whose shallower cell once moved by 1 ulp when padded to the deeper truncation
    @example(emaxes=[30, 32], deltas=[9.5])
    @example(emaxes=[32, 33], deltas=[12.0])
    @example(emaxes=[34, 32], deltas=[11.0])
    @given(st.lists(st.integers(30, 600), min_size=2, max_size=4, unique=True),
           st.lists(st.sampled_from([0.0, np.float64(1e200)]) | st.floats(0.1, 12.0), min_size=1, max_size=5))
    def test_cells_independent_of_grid(self, emaxes, deltas):
        # bit for bit: a cell does not depend on which ensembles and deltas share its grid
        ensembles = [_bose_ensemble(emax) for emax in emaxes]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = exact_breakdowns(ensembles, deltas)
            for ens, row in zip(ensembles, grid):
                for delta, got in zip(deltas, row):
                    assert _channels(got) == _channels(exact_breakdowns([ens], [delta])[0][0])

    @settings(max_examples=30, deadline=None)
    @example(entry=40, value=math.nan, emaxes=[30, 45, 60], deltas=[0.0, 1.0, 3.0])
    @example(entry=40, value=-math.inf, emaxes=[30, 45, 60], deltas=[0.0, 1.0, 9.0])
    # a poisoning that stays within the bound at every level yet moves bose_0m
    @example(entry=57, value=-300.0, emaxes=[57], deltas=[0.1015625])
    @given(st.integers(0, 120), st.sampled_from([math.nan, -math.inf, -300.0]),
           st.lists(st.integers(30, 120), min_size=1, max_size=4),
           st.lists(st.just(0.0) | st.floats(0.1, 12.0), min_size=1, max_size=5))
    def test_non_finite_amplitudes_fail_their_level(self, entry, value, emaxes, deltas):
        # ln k! set to nan, -inf or -300 at one k starts nan, +inf or huge amplitudes
        # at offset k, which the recurrence carries on (to -inf where 2n + k + 1 < x).
        # Each lane fails at the lowest level whose amplitude is not within
        # -bound <= a <= bound.  Below that level a cell is a breakdown, and it
        # keeps its value when the poisoned offset lies past its truncation
        ensembles = [_bose_ensemble(emax) for emax in emaxes]
        clean = exact_breakdowns(ensembles, deltas)
        real = oscillator._log_factorials

        def poisoned(size):
            out = real(size)
            if entry < size:
                out[entry] = value
            return out

        m_max = max(emaxes)
        bound = oscillator._AMPLITUDE_BOUND
        with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
            patch.setattr(oscillator, "_log_factorials", poisoned)
            fail = [math.inf] * len(deltas)
            for n, rows in oscillator._overlap_rows(m_max, deltas):
                for lane in range(len(deltas)):
                    column = rows[:, lane]
                    out = np.flatnonzero(~((column >= -bound) & (column <= bound)))
                    if out.size:
                        fail[lane] = min(fail[lane], n + out[0])
            grid = exact_breakdowns(ensembles, deltas)
        for ens, clean_row, row in zip(ensembles, clean, grid):
            for level, before, got in zip(fail, clean_row, row):
                if level <= ens.epsilon_max:
                    assert isinstance(got, PrecisionLossError)
                    assert f"at level {level}," in str(got)
                elif entry <= ens.epsilon_max:
                    assert isinstance(got, RateBreakdown)
                else:
                    assert _channels(got) == _channels(before)

    def test_numpy_float_huge_delta_underflows(self):
        # a numpy-float delta whose square leaves the float range gives zero
        # amplitudes, as a Python float does, and no overflow warning
        ens = solve_mu_discrete(1000, 5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            near, huge = exact_breakdowns([ens], list(np.array([1.0, 1e200])))[0]
        assert _channels(near) == _channels(exact_breakdown(ens, 1.0))
        assert _channels(huge) == (1000.0, 0.0, 0.0, 0.0, 1000.0)


class TestFiniteSizeCorrections:
    """Companion checks for the acceptance clauses that fail as stated.

    The oracle's deviations from the leading-order formulas are not noise:
    they follow the known finite-size laws quantitatively.
    """

    def test_condensate_depletion_matches_finite_size_shift(self):
        # the transition shifts down by dTc/Tc = -zeta(2)/(2 zeta(3)^{2/3}) N^{-1/3},
        # so N0/N sits below 1 - r^3 by about 3 r^2 * 0.7273 N^{-1/3}
        n = 10_000
        tc = critical_temperature(n)
        coefficient = 1.6449340668482264 / (2.0 * 1.2020569031595943 ** (2.0 / 3.0))
        for ratio in (0.3, 0.5, 0.7, 0.9):
            ens = solve_mu_discrete(n, ratio * tc)
            measured = (condensate_count(n, ens.temperature) - float(ens.occupations[0])) / n
            predicted = 3.0 * ratio**2 * coefficient * n ** (-1.0 / 3.0)
            assert 0.95 < measured / predicted < 1.25, (ratio, measured, predicted)

    def test_excited_ft_in_continuum_window(self):
        # 4T/delta^4 describes the thermal-cloud FT only for
        # T^{-1/2} << delta << 1 (the cusp region of the semiclassical
        # density); inside that window the oracle agrees to 10%, at
        # delta >~ 1 it departs by ~60% however large delta^2 T is
        n = 10_000
        ens = solve_mu_discrete(n, 0.9 * critical_temperature(n))
        t = ens.temperature
        w = _projected_weights(ens.occupations)

        def ratio_at(d2t):
            delta = math.sqrt(d2t / t)
            amp = diagonal_amplitude_column(ens.epsilon_max, delta)
            excited_ft = float(np.dot(amp, w)) - float(ens.occupations[0]) * amp[0]
            return excited_ft / (4.0 * t / delta**4)

        assert abs(ratio_at(4.0) - 1.0) < 0.10
        assert_allclose(ratio_at(20.0), 1.594, atol=0.02)


class TestScalingProbe:
    def test_rayleigh_is_linear(self):
        fit = scaling_probe("rayleigh", [100, 400, 1200], 0.5, 1.0)
        assert_allclose(fit.exponent, 1.0, atol=1e-9)
        assert fit.residual < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            scaling_probe("rayleigh", [100, 200], 0.5, 1.0)
        with pytest.raises(ValueError):
            scaling_probe("rayleigh", [100, 200, 400], 0.5, 1.0)  # under a decade
        with pytest.raises(ValueError):
            scaling_probe("nope", [100, 400, 1200], 0.5, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_zero_rate_refused_before_the_log(self):
        # bose_0m is exactly 0 at delta = 0: no power law, and no log of 0 (its warning is an error here)
        with pytest.raises(ValueError, match=r"^bose_0m rate 0\.0 at N=100 is not positive and finite"):
            scaling_probe("bose_0m", [100, 300, 1000], 0.7, 0.0)
