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
every term is non-negative and nothing is subtracted.  A sweep streams one
recurrence over all its deltas, storing no band: O(epsilon_max^2 #delta)
time, where the truncation epsilon_max is derived from (N, T), never set.
The stream is level-major: the rows and both running sums are
(level, delta) buffers, so each step's passes (square, two running-sum
adds) run over one contiguous block, and only the contraction with the
occupations, at the fixed width W = _MAX_EPSILON + 1 in every grid, reads
a delta-major copy: O(epsilon_max W #ensemble #delta) time and
O(W (#ensemble + #delta)) memory.

The ensemble is grand-canonical, <n_i n_f> = <n_i><n_f> for i != f: this
module is the oracle for the spectral sums, not for the occupation
correlations at fixed N, whose effect ROADMAP item 11 measures.
Transition pairs are counted in both directions, matching the factor 2 of
the ground<->excited channel.
"""

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import critical_temperature, oscillator
from .errors import TruncationError
from .scattering import RateBreakdown
from .thermo import _check_state, _solve_number_equation

__all__ = [
    "DiscreteEnsemble",
    "ScalingFit",
    "solve_mu_discrete",
    "exact_breakdown",
    "exact_breakdowns",
    "scaling_probe",
]

# A recurrence costs O(epsilon_max^2 #delta), the contraction _MAX_EPSILON + 1 levels: refuse runaway truncations.
_MAX_EPSILON = 600


@dataclass(frozen=True)
class DiscreteEnsemble:
    """Grand-canonical thermal state of (n_total, temperature), equal by value.

    The spectrum stops at epsilon_max, derived from (n_total, temperature)
    by `_default_epsilon_max`: a TruncationError when no level up to 600
    controls the tail.  mu_exact solves the level sum to epsilon_max for
    n_total by Newton on ln N; each occupation is log-convex in mu, as
    `thermo._solve_number_equation` needs.  A ConvergenceError from that
    solve carries the context "solve_mu_discrete", the name the CLI prints.
    """

    n_total: int
    temperature: float
    mu_exact: float = field(init=False)
    epsilon_max: int = field(init=False)

    def __post_init__(self):
        # comparisons with nan are false, so nan fails every check
        _check_state(self.n_total, self.temperature)
        n, t = int(self.n_total), float(self.temperature)
        eps = np.arange(0, _default_epsilon_max(n, t) + 1, dtype=float)
        g = (eps + 1.0) * (eps + 2.0) / 2.0

        def population(mu):
            occ = _bose(eps, mu, t)
            level = g * occ
            return float(level.sum()), float((level * (occ + 1.0)).sum()) / t

        with np.errstate(over="ignore"):  # an overflowing population is the solve's ConvergenceError
            mu = _solve_number_equation(population, n, t, "solve_mu_discrete")
        for name, value in (("n_total", n), ("temperature", t), ("mu_exact", mu), ("epsilon_max", eps.size - 1)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def occupations(self):
        """Read-only Bose occupation of one state at each level 0..epsilon_max."""
        occ = _bose(np.arange(self.epsilon_max + 1.0), self.mu_exact, self.temperature)
        occ.flags.writeable = False
        return occ


def _bose(eps, mu, t):
    """1 / (e^{(eps - mu)/T} - 1); deep Boltzmann tails overflow expm1 to inf and hold 0."""
    with np.errstate(over="ignore"):
        return 1.0 / np.expm1((eps - mu) / t)


def _default_epsilon_max(n_total, temperature):
    """Smallest truncation with a controlled occupation tail.

    Bisects from max(30, 12 T) for the first level where the mu = 0
    Boltzmann bound, strictly decreasing in epsilon_max, is below 1e-6 N;
    near Tc the tail fraction depends only on epsilon_max / T, so a fixed
    multiple of T cannot satisfy the bound for every N.
    """
    levels = range(max(30, math.ceil(12.0 * temperature)), _MAX_EPSILON + 1)
    at = bisect.bisect_left(levels, True, key=lambda e: _boltzmann_tail(e, temperature) < 1e-6 * n_total)
    if at < len(levels):
        return levels[at]
    raise TruncationError(
        f"no truncation below {_MAX_EPSILON} controls the tail for "
        f"N={n_total}, T={temperature:g}"
    )


def _boltzmann_tail(epsilon_max, temperature):
    """Upper bound on the occupation sum beyond the truncation level at mu = 0.

    Above epsilon_max the occupation is deep in the Boltzmann tail, so
    sum_{eps > emax} g(eps) e^{-eps/T} bounds it; the integral form of the
    polynomial-times-exponential has a closed expression.  Any mu < 0
    scales the tail by e^{mu/T} < 1, so the bound holds for every ensemble.
    """
    t = temperature
    # integral_a^inf (e+1)(e+2)/2 e^{-e/T} de, expanded about u = e - a
    a = float(epsilon_max)
    c1 = 0.5 * (2.0 * a + 3.0)
    c0 = 0.5 * (a + 1.0) * (a + 2.0)
    return math.exp(-a / t) * (c0 * t + c1 * t * t + t**3)


def solve_mu_discrete(n_total, temperature):
    """The DiscreteEnsemble of (n_total, temperature), which solves the level sum for mu_exact."""
    return DiscreteEnsemble(n_total, temperature)


def _projected_weights(occ):
    """W(mx) = sum_q (q+1) occ[mx+q] via suffix sums."""
    rev1 = np.cumsum(occ[::-1])[::-1]                      # sum_{j>=mx} occ[j]
    rev2 = np.cumsum((np.arange(occ.size) * occ)[::-1])[::-1]  # sum_{j>=mx} j occ[j]
    mx = np.arange(occ.size)
    return rev2 - (mx - 1.0) * rev1


def _streamed_sums(ensembles, deltas):
    """Column 0, squared row 0 and bose_mm / 2 of every (ensemble, delta) pair.

    c1 and c2 are the running sums of the module docstring (row n of c2 is
    C[n]), level-major like the recurrence's rows.  Each step squares its
    rows once, adds the squares into c1 and c1 into c2, and contracts a
    delta-major copy of c2[1:W - n] with every ensemble's occupations past
    level n, zero-padded to W = _MAX_EPSILON + 1 levels.  A cell's sum has
    W - n - 1 terms in any grid and a level past its truncation adds an
    exact +0: by construction each cell is the float it would be in a grid
    of its own.
    """
    m_max = max(ens.epsilon_max for ens in ensembles)
    width = _MAX_EPSILON + 1
    occ = np.array([np.concatenate([ens.occupations, np.zeros(width - ens.occupations.size)]) for ens in ensembles])
    column, square, c1, c2 = np.zeros((4, width, len(deltas)))
    half_mm = np.zeros((len(ensembles), len(deltas)))
    for n, rows in oscillator._overlap_rows(m_max, deltas):
        w = m_max + 1 - n
        column[n] = rows[0]
        squares = np.square(rows, out=square[:w])
        c1[:w] += squares
        c2[:w] += c1[:w]
        if n == 0:
            ground = squares.T.copy()  # row 0 holds the ground pairs of bose_0m
            continue
        lanes = np.ascontiguousarray(c2[1:width - n].T)  # a view for one delta
        half_mm += occ[:, n:n + 1] * np.einsum("ek,dk->ed", occ[:, n + 1:], lanes)
    return column.T.copy(), ground, half_mm


def exact_breakdowns(ensembles, deltas):
    """exact_breakdown for every (ensemble, delta) pair: grid[i][j] for ensembles[i], deltas[j].

    One recurrence serves the whole grid, and every cell is a breakdown:
    up to level _MAX_EPSILON no amplitude leaves its bound |A| <= 1 by
    more than rounding (`oscillator.overlap_band`).  No cell needs a
    truncation verdict either: the derived epsilon_max >= 12 T keeps the
    tail integral, at least T g(emax) e^{-emax/T}, below 1e-6 N, so the
    last level's share g(emax) occ[emax] stays below 1e-4 N at every
    mu < 0 above T = 0.011 (and below e^{-2700} at colder T, where
    epsilon_max is 30).
    """
    # comparisons with nan are false, so nan fails too
    if not all(d >= 0 for d in deltas):
        raise ValueError("delta must be >= 0")
    if len(ensembles) and len(deltas):
        column, ground, half_mm = _streamed_sums(ensembles, deltas)
    grid = []
    for i, ens in enumerate(ensembles):
        occ, emax, n = ens.occupations, ens.epsilon_max, float(ens.n_total)
        w = _projected_weights(occ)
        row = []
        for j in range(len(deltas)):
            diffraction = float(np.dot(column[j, :emax + 1], w)) ** 2
            bose_0m = 2.0 * float(occ[0]) * float(np.dot(occ[1:], ground[j, 1:emax + 1]))
            row.append(RateBreakdown(n, diffraction, bose_0m, 2.0 * float(half_mm[i, j])))
        grid.append(row)
    return grid


def exact_breakdown(ens, delta):
    """All four channels from direct sums over the discrete spectrum.

    delta = 0 runs the same recurrence, the identity there: diffraction N^2, Bose channels 0.
    """
    return exact_breakdowns([ens], [delta])[0][0]


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares slope of log(rate) against log(N)."""

    exponent: float
    residual: float
    n_values: tuple


def scaling_probe(process, n_values, t_over_tc, delta):
    """Fit the large-N growth exponent of one channel at fixed T/Tc and momentum transfer."""
    if process not in ("rayleigh", "diffraction", "bose_0m", "bose_mm", "total"):
        raise ValueError(f"unknown process {process!r}")
    n_values = sorted(int(n) for n in n_values)
    if len(n_values) < 3:
        raise ValueError("need at least 3 particle numbers")
    if n_values[-1] < 10 * n_values[0]:
        raise ValueError("particle numbers must span at least one decade")

    ensembles = [solve_mu_discrete(n, t_over_tc * critical_temperature(n)) for n in n_values]
    rates = [getattr(row[0], process) for row in exact_breakdowns(ensembles, [float(delta)])]
    for n, rate in zip(n_values, rates):
        if not 0.0 < rate < math.inf:  # nan fails too
            raise ValueError(f"{process} rate {rate} at N={n} is not positive and finite: no power law to fit")

    log_n = np.log(np.asarray(n_values, dtype=float))
    log_r = np.log(np.asarray(rates))
    coeffs, residuals, *_ = np.polyfit(log_n, log_r, 1, full=True)
    rss = float(residuals[0]) if len(residuals) else 0.0
    return ScalingFit(
        exponent=float(coeffs[0]),
        residual=math.sqrt(rss / len(n_values)),
        n_values=tuple(n_values),
    )
