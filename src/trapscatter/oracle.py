"""Exact finite-N, discrete-spectrum brute force.

Ground truth for the semiclassical channel formulas at desk-scale N:
the chemical potential from the full discrete level sum, exact per-state
occupations, and channel rates assembled from exact 1D matrix elements.

Separability makes the sums tractable.  With delta along x, a pair of 3D
states couples only if it shares (my, mz), so every channel reduces to 1D
sums over q = my + mz, the 2D transverse spectrum with multiplicity q + 1.
The diagonal channels read the projected weights

    W(mx) = sum_q (q+1) <n_{mx+q}> .

The pair (mx, mx + k) at transverse level q joins the 3D levels i = mx + q
and i + k, so summing over mx <= i first,

    bose_mm = 2 sum_{i>=1} sum_{k>=1} <n_i> <n_{i+k}> C[i, k],
    C[i, k] = sum_{mx<=i} (i - mx + 1) |<mx|e^{i delta x}|mx+k>|^2 ,

two running sums down the columns of the squared overlap band.  Row i = 0
holds exactly the ground<->(m,0,0) pairs of bose_0m and is left out, so
every term is non-negative and nothing is subtracted.  Each distinct delta
costs O(epsilon_max^2) up to the cost guard; a fixed-delta sweep shares one band.

The occupation-product form uses <n_i n_f> ~ <n_i><n_f>; the corrections
are O(1/N) after thermal averaging, so this module is the oracle for the
spectral sums only, not for occupation correlations.
Transition pairs are counted in both directions, matching the factor 2 of
the ground<->excited channel.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import oscillator
from .errors import TruncationError
from .scattering import RateBreakdown
from .thermo import _bisect_increasing, critical_temperature

__all__ = [
    "DiscreteEnsemble",
    "ScalingFit",
    "solve_mu_discrete",
    "exact_breakdown",
    "scaling_probe",
]

# One overlap band costs O(epsilon_max^2) per delta; refuse runaway truncations.
_MAX_N_TOTAL = 100_000
_MAX_EPSILON = 600
_PAIR_SUMS = {}  # the one entry of _pair_sums: delta -> (size, signed column 0, C)


@dataclass(frozen=True)
class DiscreteEnsemble:
    """Exact thermal state on the truncated discrete spectrum."""

    n_total: int
    temperature: float
    mu_exact: float
    epsilon_max: int
    occupations: np.ndarray  # per-state occupation of one state at each level

    @property
    def n0_exact(self):
        return float(self.occupations[0])


def _default_epsilon_max(n_total, temperature):
    """Smallest truncation with a controlled occupation tail.

    Bisects from max(30, 12 T) for the first level where the mu = 0
    Boltzmann bound, strictly decreasing in epsilon_max, is below 1e-6 N;
    near Tc the tail fraction depends only on epsilon_max / T, so a fixed
    multiple of T cannot satisfy the bound for every N.
    """
    levels = range(max(30, math.ceil(12.0 * temperature)), _MAX_EPSILON + 1)
    at = bisect.bisect_left(levels, True, key=lambda e: _boltzmann_tail(e, 0.0, temperature) < 1e-6 * n_total)
    if at < len(levels):
        return levels[at]
    raise TruncationError(
        f"no truncation below {_MAX_EPSILON} controls the tail for "
        f"N={n_total}, T={temperature:g}"
    )


def _boltzmann_tail(epsilon_max, mu, temperature):
    """Upper bound on the occupation sum beyond the truncation level.

    Above epsilon_max the occupation is deep in the Boltzmann tail, so
    sum_{eps > emax} g(eps) e^{-(eps-mu)/T} bounds it; the integral form
    of the polynomial-times-exponential has a closed expression.
    """
    t = temperature
    e0 = epsilon_max + 1.0
    # integral_{e0-1}^inf (e+1)(e+2)/2 e^{-e/T} de, expanded about u = e - (e0-1)
    a = e0 - 1.0
    c2 = 0.5
    c1 = 0.5 * (2.0 * a + 3.0)
    c0 = 0.5 * (a + 1.0) * (a + 2.0)
    integral = math.exp(-a / t) * (c0 * t + c1 * t * t + 2.0 * c2 * t**3)
    return math.exp(mu / t) * integral


def solve_mu_discrete(n_total, temperature, epsilon_max=None):
    """Chemical potential from the full discrete occupation sum, by bisection.

    Reproduces the exact ground-state relation e^{-mu/T} = 1 + 1/N0 by
    construction.  Raises TruncationError when the truncation cannot
    control the Boltzmann tail to 1e-6 N.
    """
    if n_total < 1:
        raise ValueError("n_total must be >= 1")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    t = float(temperature)
    if epsilon_max is None:
        epsilon_max = _default_epsilon_max(n_total, t)
    epsilon_max = int(epsilon_max)
    if epsilon_max < 10.0 * t:
        raise TruncationError(
            f"epsilon_max={epsilon_max} below the 10 T = {10 * t:.1f} tail-control floor"
        )
    if epsilon_max > _MAX_EPSILON:
        raise ValueError(f"epsilon_max={epsilon_max} exceeds the cost guard {_MAX_EPSILON}")

    eps = np.arange(0, epsilon_max + 1, dtype=float)
    g = (eps + 1.0) * (eps + 2.0) / 2.0

    def population(mu):
        # deep Boltzmann tails overflow expm1 to inf; those states hold 0
        with np.errstate(over="ignore"):
            return float(np.sum(g / np.expm1((eps - mu) / t)))

    lo = -60.0 * t
    if population(lo) > n_total:
        lo = -5000.0 * t
    mu = _bisect_increasing(population, n_total, lo, -1e-12 * t, 1e-15 * t, "solve_mu_discrete")

    if _boltzmann_tail(epsilon_max, mu, t) > 1e-6 * n_total:
        raise TruncationError(
            f"occupation tail beyond epsilon_max={epsilon_max} exceeds 1e-6 N"
        )
    with np.errstate(over="ignore"):
        occupations = 1.0 / np.expm1((eps - mu) / t)
    return DiscreteEnsemble(
        n_total=int(n_total),
        temperature=t,
        mu_exact=mu,
        epsilon_max=epsilon_max,
        occupations=occupations,
    )


def _projected_weights(occ):
    """W(mx) = sum_q (q+1) occ[mx+q] via suffix sums."""
    rev1 = np.cumsum(occ[::-1])[::-1]                      # sum_{j>=mx} occ[j]
    rev2 = np.cumsum((np.arange(occ.size) * occ)[::-1])[::-1]  # sum_{j>=mx} j occ[j]
    mx = np.arange(occ.size)
    return rev2 - (mx - 1.0) * rev1


def _pair_sums(m_max, delta):
    """Column 0 of the overlap band and its running sums C, held for one delta.

    Entries with n + k <= m_max do not depend on the size built; callers slice.
    A larger m_max at the held delta rebuilds at twice the held size (capped
    by the cost guard); a new delta builds at exactly m_max.
    """
    held = _PAIR_SUMS.get(delta, (-1,))[0]  # -1: a new delta
    if held < m_max:
        _PAIR_SUMS.clear()  # before the build, so two bands are never alive at once
        size = max(m_max, min(_MAX_EPSILON, 2 * held))
        band = oscillator.overlap_band(size, delta)
        column = band[:, 0].copy()
        # C of the module docstring; its row 0 is the band's squared row 0
        pair = np.cumsum(np.cumsum(np.square(band, out=band), axis=0, out=band), axis=0, out=band)
        column.flags.writeable = pair.flags.writeable = False
        _PAIR_SUMS[delta] = (size, column, pair)
    return _PAIR_SUMS[delta]


def exact_breakdown(ens, delta):
    """All four channels from direct sums over the discrete spectrum.

    delta = 0 degenerates cleanly: diffraction N^2, Bose channels 0.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if ens.n_total > _MAX_N_TOTAL:
        raise ValueError(f"n_total={ens.n_total} exceeds the oracle cost guard {_MAX_N_TOTAL}")
    occ = ens.occupations
    emax = ens.epsilon_max
    n = float(ens.n_total)

    if occ[emax] * (emax + 1) * (emax + 2) / 2.0 > 1e-4 * n:
        raise TruncationError("occupancy-weighted truncation tail exceeds 1e-4 of the sum")

    w = _projected_weights(occ)
    if delta == 0.0:
        total_occ = float(np.sum(w))
        return RateBreakdown.build(n, total_occ**2, 0.0, 0.0)

    _, column, pair = _pair_sums(emax, delta)
    diffraction = float(np.dot(column[:emax + 1], w)) ** 2
    n0 = float(occ[0])
    bose_0m = 2.0 * n0 * float(np.dot(occ[1:], pair[0, 1:emax + 1]))

    # row i = 0 is the ground pairs already in bose_0m; the zero padding drops i + k > emax
    hankel = np.lib.stride_tricks.sliding_window_view(np.concatenate([occ, np.zeros(emax)]), emax + 1)
    bose_mm = 2.0 * float(np.einsum("i,ik,ik->", occ[1:], hankel[1:, 1:], pair[1:emax + 1, 1:emax + 1]))

    return RateBreakdown.build(n, diffraction, bose_0m, bose_mm)


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares slope of log(rate) against log(N)."""

    exponent: float
    residual: float
    n_values: tuple
    rates: tuple


def scaling_probe(process, n_values, t_over_tc, delta_rule, epsilon_max=None):
    """Fit the large-N growth exponent of one channel at fixed T/Tc.

    delta_rule maps the temperature of each ensemble to the probed
    momentum transfer; a bare number means a fixed delta.
    """
    if process not in ("rayleigh", "diffraction", "bose_0m", "bose_mm", "total"):
        raise ValueError(f"unknown process {process!r}")
    n_values = sorted(int(n) for n in n_values)
    if len(n_values) < 3:
        raise ValueError("need at least 3 particle numbers")
    if n_values[-1] < 10 * n_values[0]:
        raise ValueError("particle numbers must span at least one decade")
    if not callable(delta_rule):
        fixed = float(delta_rule)
        delta_rule = lambda temperature: fixed

    rates = []
    for n in n_values:
        t = t_over_tc * critical_temperature(n)
        ens = solve_mu_discrete(n, t, epsilon_max)
        breakdown = exact_breakdown(ens, delta_rule(t))
        rates.append(getattr(breakdown, process))

    log_n = np.log(np.asarray(n_values, dtype=float))
    log_r = np.log(np.asarray(rates))
    coeffs, residuals, *_ = np.polyfit(log_n, log_r, 1, full=True)
    rss = float(residuals[0]) if len(residuals) else 0.0
    return ScalingFit(
        exponent=float(coeffs[0]),
        residual=math.sqrt(rss / len(n_values)),
        n_values=tuple(n_values),
        rates=tuple(float(r) for r in rates),
    )
