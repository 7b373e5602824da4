"""Ideal-Bose-gas thermodynamics of the 3D isotropic harmonic trap.

Natural trap units throughout: m = omega_0 = hbar = k_B = 1, so energies
and temperatures are measured in units of the level spacing and the
ground-state energy is taken as 0.  The chemical potential is always
negative.

The large-N leading-order relations used here:

    T_c  = (N / zeta(3))^(1/3)
    N_0  = N (1 - (T/T_c)^3)          for T <= T_c, else 0
    N_e  = T^3 Li3(e^{mu/T})          (continuum density of states)

`chemical_potential` solves the number equation with the ground state
kept discrete and the excited states in the continuum approximation,

    1/(e^{-mu/T} - 1) + T^3 Li3(e^{mu/T}) = N,

which is smooth in T across T_c and reproduces both limiting formulas:
below T_c it is exactly mu = -T ln(1 + 1/N0) for the solved ground-state
occupation, above T_c the ground term is O(1) and drops out.

Newton's method on ln N(mu) solves this equation and the oracle's level
sum.  Each term, g/(e^{(eps-mu)/T} - 1) or T^3 Li3(e^{mu/T}) =
T^3 sum_k e^{k mu/T}/k^3, is a positive sum of exponentials in mu, so
ln N is increasing and convex: from mu0 = -T ln(1 + 1/N), where the ground
term alone is N, Newton falls onto the root without overshooting.
"""

import math
from dataclasses import dataclass

from . import critical_temperature, quad
from .errors import ConvergenceError

__all__ = ["TrapEnsemble", "condensate_count", "chemical_potential"]

_NEWTON_ITERATIONS = 100


def _check_temperature(temperature):
    if not 0 < temperature < math.inf:  # comparisons with nan are false, so nan fails too
        raise ValueError("temperature must be positive and finite")


def _check_state(n_total, temperature):
    """An ensemble holds a whole number n_total >= 1 at a finite temperature > 0; nan fails both."""
    if not (1 <= n_total < math.inf and n_total % 1 == 0):
        raise ValueError("n_total must be a whole number >= 1")
    _check_temperature(temperature)


def condensate_count(n_total, temperature):
    """Leading-order expected ground-state occupation N(1 - (T/Tc)^3); 0 above Tc."""
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    tc = critical_temperature(n_total)
    if temperature >= tc:
        return 0.0
    return n_total * (1.0 - (temperature / tc) ** 3)


def _population(mu, t):
    """N(mu) and dN/dmu: discrete ground state plus continuum excited states."""
    n0 = 1.0 / math.expm1(-mu / t)
    z = math.exp(mu / t)
    return n0 + t**3 * quad.polylog3(z), n0 * (n0 + 1.0) / t + t * t * quad.polylog2(z)


def _solve_number_equation(population, n_total, t, context):
    """Root mu < 0 of N(mu) = n_total by Newton's method on ln N(mu).

    `population(mu)` returns N(mu) and dN/dmu, ln N increasing and convex
    (module docstring).  Starts at mu0 = -T ln(1 + 1/N) and stops once a
    step is below 1e-15 T or no longer lowers the iterate.  A population
    that overflows, or leaves (0, inf), is a ConvergenceError.
    """
    mu = -t * math.log1p(1.0 / n_total)
    for iteration in range(_NEWTON_ITERATIONS):
        try:
            value, slope = population(mu)
        except OverflowError:
            raise ConvergenceError(f"{context}: population overflows at mu={mu}") from None
        if not (0.0 < value < math.inf and 0.0 < slope < math.inf):
            raise ConvergenceError(f"{context}: population {value} with slope {slope} at mu={mu}")
        # rounding can leave the ground term at mu0 up to 2 ulps short of N
        if iteration == 0 and value < n_total * (1.0 - 1e-14):
            raise ConvergenceError(f"{context}: the start point lies below the root")
        step = math.log(value / n_total) * value / slope
        if step < 1e-15 * t or not mu - step < mu:
            return min(mu, mu - step)
        mu -= step
    raise ConvergenceError(f"{context}: Newton budget exhausted")


def chemical_potential(n_total, temperature):
    """Chemical potential from the combined number equation, by Newton on ln N.

    ln N is convex and rises from -infinity to +infinity on mu in (-inf, 0),
    so the solve converges for any n_total down to a single particle.
    """
    _check_temperature(temperature)
    if not 1 <= n_total < math.inf:
        raise ValueError("n_total must be finite and >= 1")
    t = float(temperature)
    return _solve_number_equation(lambda mu: _population(mu, t), n_total, t, "chemical_potential")


@dataclass(frozen=True)
class TrapEnsemble:
    """Thermal state of the trapped gas in trap units.

    n_condensate follows the leading-order split (exactly 0 above Tc);
    mu comes from the combined number equation and is always negative.
    t_critical and n_excited follow from n_total and n_condensate.
    """

    n_total: int
    temperature: float
    mu: float
    n_condensate: float

    @property
    def t_critical(self):
        return critical_temperature(self.n_total)

    @property
    def n_excited(self):
        return self.n_total - self.n_condensate

    def __post_init__(self):
        # comparisons with nan are false, so nan fails every check
        _check_state(self.n_total, self.temperature)
        if not self.mu < 0:
            raise ValueError("mu must be negative")
        if not 0 <= self.n_condensate <= self.n_total:
            raise ValueError("n_condensate must lie in [0, n_total]")

    @classmethod
    def solve(cls, n_total, temperature):
        """Build the ensemble for N particles at temperature T."""
        _check_state(n_total, temperature)
        return cls(
            n_total=int(n_total),
            temperature=float(temperature),
            mu=chemical_potential(n_total, temperature),
            n_condensate=condensate_count(n_total, temperature),
        )

    @classmethod
    def at_ratio(cls, n_total, t_over_tc):
        """Build the ensemble at a given T/Tc."""
        if not 0 < t_over_tc < math.inf:
            raise ValueError("t_over_tc must be positive and finite")
        return cls.solve(n_total, t_over_tc * critical_temperature(n_total))
