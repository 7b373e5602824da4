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
"""

import math
from dataclasses import dataclass

from . import quad
from .errors import ConvergenceError

__all__ = [
    "ZETA3",
    "TrapEnsemble",
    "critical_temperature",
    "condensate_count",
    "excited_count",
    "chemical_potential",
    "occupation",
    "degeneracy",
]

ZETA3 = quad.ZETA3

# Linearized slope of mu/T just above Tc: mu/T = -MU_SLOPE * (T - Tc)/Tc.
MU_SLOPE = 18.0 * ZETA3 / math.pi**2

_BISECT_ITERATIONS = 200


def critical_temperature(n_total):
    """Condensation temperature (N / zeta(3))^(1/3) in trap units."""
    if n_total < 1:
        raise ValueError("n_total must be >= 1")
    return (n_total / ZETA3) ** (1.0 / 3.0)


def condensate_count(n_total, temperature):
    """Leading-order expected ground-state occupation N(1 - (T/Tc)^3); 0 above Tc."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    tc = critical_temperature(n_total)
    if temperature >= tc:
        return 0.0
    return n_total * (1.0 - (temperature / tc) ** 3)


def excited_count(temperature, mu):
    """Continuum excited-state population T^3 Li3(e^{mu/T})."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if mu > 0:
        raise ValueError("mu must be <= 0: positive mu makes the Bose sum diverge")
    return temperature**3 * quad.polylog3(math.exp(mu / temperature))


def occupation(energy_level, mu, temperature):
    """Bose-Einstein occupation 1/(e^{(eps - mu)/T} - 1) of a single state."""
    if energy_level < 0:
        raise ValueError("energy_level must be >= 0")
    if mu >= energy_level:
        raise ValueError("occupation requires mu < energy_level")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    return 1.0 / math.expm1((energy_level - mu) / temperature)


def degeneracy(energy_level):
    """Number of oscillator triples at integer energy eps: (eps+1)(eps+2)/2."""
    e = int(energy_level)
    if e != energy_level or e < 0:
        raise ValueError("energy_level must be a non-negative integer")
    return (e + 1) * (e + 2) // 2


def _population(mu, n_total, temperature):
    # Discrete ground state plus continuum excited states.
    return 1.0 / math.expm1(-mu / temperature) + temperature**3 * quad.polylog3(
        math.exp(mu / temperature)
    )


def _bisect_increasing(fn, target, lo, hi, tol, context):
    """Root of fn(x) = target for an fn increasing on [lo, hi], by bisection.

    The caller chooses the bracket (and any expansion of it); only the
    upper end is checked, so fn(lo) <= target is the caller's promise.
    Stops once the bracket is narrower than `tol` and returns its midpoint.
    """
    if not fn(hi) >= target:
        raise ConvergenceError(f"{context}: bracket does not contain the root")
    for _ in range(_BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            return 0.5 * (lo + hi)
    raise ConvergenceError(f"{context}: bisection budget exhausted")


def chemical_potential(n_total, temperature):
    """Chemical potential from the combined number equation, by bisection.

    The population is strictly increasing in mu with limits 0 and
    +infinity on mu in (-inf, 0), so the bracket [-50 T, -1e-12 T] always
    contains the root for any n_total down to a single particle.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if n_total < 1:
        raise ValueError("n_total must be >= 1")
    t = float(temperature)
    lo = -50.0 * t
    if _population(lo, n_total, t) > n_total:
        lo = -5000.0 * t
    return _bisect_increasing(lambda mu: _population(mu, n_total, t), n_total,
                              lo, -1e-12 * t, 1e-15 * t, "chemical_potential")


@dataclass(frozen=True)
class TrapEnsemble:
    """Thermal state of the trapped gas in trap units.

    n_condensate follows the leading-order split (exactly 0 above Tc);
    mu comes from the combined number equation and is always negative.
    """

    n_total: int
    temperature: float
    t_critical: float
    mu: float
    n_condensate: float
    n_excited: float

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.mu >= 0:
            raise ValueError("mu must be negative")
        if self.n_condensate < 0 or self.n_excited < 0:
            raise ValueError("populations must be non-negative")

    @classmethod
    def solve(cls, n_total, temperature):
        """Build the ensemble for N particles at temperature T."""
        tc = critical_temperature(n_total)
        mu = chemical_potential(n_total, temperature)
        n0 = condensate_count(n_total, temperature)
        return cls(
            n_total=int(n_total),
            temperature=float(temperature),
            t_critical=tc,
            mu=mu,
            n_condensate=n0,
            n_excited=n_total - n0,
        )

    @classmethod
    def at_ratio(cls, n_total, t_over_tc):
        """Build the ensemble at a given T/Tc."""
        if t_over_tc <= 0:
            raise ValueError("t_over_tc must be positive")
        return cls.solve(n_total, t_over_tc * critical_temperature(n_total))
