"""Special functions and quadrature kernels.

Provides the trilogarithm used by the trap thermodynamics, the thermal
two-occupation kernel

    P(a, b) = int_0^inf z dz / ((e^{z+a} - 1)(e^{z+b} - 1)),

the diffraction z-integral

    int_0^inf dz z^{-3} e^{-1/z} e^{delta^2 mu z / 2},

and an adaptive integrator for integrands with inverse-square-root
endpoint singularities.

The kernel and the z-integral are closed forms (dilogarithm and Bessel K);
the only quadratures left here are the adaptive integrator and the
convergence ladder that the shape function of `scattering` runs.  All are
deterministic: identical inputs give bit-identical outputs.
"""

from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .errors import ConvergenceError

__all__ = [
    "QuadSpec",
    "DEFAULT_SPEC",
    "polylog3",
    "p_kernel",
    "diffraction_z_integral",
    "sqrt_singular_integral",
]

ZETA3 = 1.2020569031595943
ZETA2 = 1.6449340668482264


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and budget for the quadrature kernels."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions <= 0:
            raise ValueError("max_subdivisions must be positive")


DEFAULT_SPEC = QuadSpec()

_LEGGAUSS_CACHE = {}

# zeta(3 - j) for j >= 3 (zeta at non-positive integers), used by the
# Li3(e^{-y}) expansion near y = 0.  Even negative arguments vanish.
_NEG_ZETA = {
    3: -0.5,
    4: -1.0 / 12.0,
    5: 0.0,
    6: 1.0 / 120.0,
    7: 0.0,
    8: -1.0 / 252.0,
    9: 0.0,
    10: 1.0 / 240.0,
    11: 0.0,
    12: -1.0 / 132.0,
    13: 0.0,
    14: 691.0 / 32760.0,
}

_FACTORIALS = [1.0]
for _j in range(1, 15):
    _FACTORIALS.append(_FACTORIALS[-1] * _j)


def _leggauss(n):
    if n not in _LEGGAUSS_CACHE:
        _LEGGAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _LEGGAUSS_CACHE[n]


def polylog3(x):
    """Trilogarithm Li3(x) for x in [0, 1].

    Direct power series for x <= 1/2; for x > 1/2 the expansion of
    Li3(e^{-y}) in y = -ln x, whose quadratic term carries the ln y
    singularity.  Both branches are accurate to machine precision.
    """
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"polylog3 requires 0 <= x <= 1, got {x}")
    if x == 0.0:
        return 0.0
    if x <= 0.5:
        k = np.arange(1, 120)
        return float(np.sum(x**k / k**3))
    y = -np.log(x)
    if y == 0.0:
        return ZETA3
    s = ZETA3 - ZETA2 * y + 0.5 * y * y * (1.5 - np.log(y))
    for j in range(3, 15):
        s += _NEG_ZETA[j] * (-y) ** j / _FACTORIALS[j]
    return float(s)


def _converge(evaluate, rungs, rel_tol, abs_tol, context):
    """Run `evaluate(rung)` over increasing resolutions until two consecutive agree."""
    prev = None
    for rung in rungs:
        cur = evaluate(rung)
        if prev is not None and abs(cur - prev) <= max(abs_tol, rel_tol * abs(cur)):
            return cur
        prev = cur
    raise ConvergenceError(f"{context}: quadrature did not converge within budget")


# Below this z = e^{-a} the dilogarithm forms lose digits to cancellation
# and their power series, truncated after k = 9, take over.
_SERIES_Z = 0.01
_SERIES_K = np.arange(2.0, 10.0)

# Pairs with |a - b| below this fraction of min(m, 1), m their midpoint, take
# the midpoint expansion, where the divided difference would cancel.  Its d^2
# term leaves an O((d/m)^4) error, small enough for a switch relative to m:
# both sides then hold 1e-10 for m >= 1e-4 (5e-9 at m = 1e-6).
_NEAR_PAIR = 1e-2


def _series(z, coefficients):
    """sum_j coefficients[j] z^j by Horner's rule."""
    total = np.zeros_like(z)
    for c in coefficients[::-1]:
        total = total * z + c
    return total


def _li2_excess(x):
    """M(z) = (Li2(z) - z)/z = sum_{k>=2} z^{k-1}/k^2 at z = e^{-x}."""
    z = np.exp(-x)
    k = _SERIES_K
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = (special.spence(-np.expm1(-x)) - z) / z
    return np.where(z < _SERIES_Z, z * _series(z, 1.0 / k**2), closed)


def _midpoint_expansion(m, d):
    """P(m - d/2, m + d/2) = P(m, m) + E(m) d^2 + O(d^4), at z = e^{-m}.

    P(m, m) = z^2 M'(z) = -ln(1 - z) - Li2(z) and
    E = [z/(1-z)^2 - 3z/(1-z) - 2 ln(1-z)] / 24, both by series below
    _SERIES_Z.
    """
    z = np.exp(-m)
    one_minus = -np.expm1(-m)
    k = _SERIES_K
    small = z < _SERIES_Z
    diagonal = np.where(small, z * z * _series(z, (k - 1) / k**2),
                        -np.log(one_minus) - special.spence(one_minus))
    k = k[1:]
    curvature = np.where(small, z**3 * _series(z, (k - 1) * (k - 2) / (24.0 * k)),
                         (z / one_minus**2 - 3.0 * z / one_minus - 2.0 * np.log(one_minus)) / 24.0)
    return diagonal + d * d * curvature


def p_kernel(a, b):
    """Thermal pair kernel P(a, b); symmetric, positive, decreasing in each argument.

    Closed form (partial fractions in e^z and int z dz/(e^{z+a} - 1) =
    Li2(e^{-a}), DLMF 25.12):

        P(a, b) = [e^a Li2(e^{-a}) - e^b Li2(e^{-b})] / (e^b - e^a)
                = |M(e^{-a}) - M(e^{-b})| e^{-min(a, b)} / expm1(|a - b|),

    with M(z) = (Li2(z) - z)/z, which keeps full relative precision for
    large arguments.  Pairs with |a - b| < _NEAR_PAIR min(m, 1), m the
    midpoint, where the difference would cancel, take the midpoint
    expansion instead.  Accepts scalars or broadcastable arrays and returns
    the matching float or array.  Diverges logarithmically only when both
    arguments vanish; a single vanishing argument is an integrable endpoint.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("p_kernel arguments must be non-negative")
    if np.any((a < 1e-14) & (b < 1e-14)):
        raise ValueError("p_kernel diverges logarithmically at a = b = 0")
    gap = np.abs(a - b)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.asarray(np.abs(_li2_excess(a) - _li2_excess(b))
                           * np.exp(-np.minimum(a, b)) / np.expm1(gap))
    mid = 0.5 * (a + b)
    near = gap < _NEAR_PAIR * np.minimum(mid, 1.0)
    if np.any(near):
        value[near] = _midpoint_expansion(mid[near], gap[near])
    return float(value) if value.ndim == 0 else value


def diffraction_z_integral(delta, mu):
    """Excited-cloud suppression factor of the diffraction amplitude.

    Equals int_0^inf dz z^{-3} e^{-1/z} e^{delta^2 mu z/2}, which after
    u = 1/z is int_0^inf u e^{-u - beta/u} du = 2 beta K2(2 sqrt(beta))
    with beta = -delta^2 mu / 2 >= 0 (DLMF 10.32.10).  Exactly 1 at mu = 0
    (and below beta = 1e-16, where 1 - beta rounds to 1), decreasing in
    |mu|.  The caller is responsible for the delta^2 T >> 1 validity regime.
    """
    delta = float(delta)
    mu = float(mu)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if mu > 0:
        raise ValueError("mu must be <= 0")
    beta = -delta * delta * mu / 2.0
    if beta < 1e-16:
        return 1.0
    x = 2.0 * np.sqrt(beta)
    return float(2.0 * beta * special.kve(2, x) * np.exp(-x))


def _quad_or_raise(f, a, b, spec, context):
    out = integrate.quad(
        f, a, b,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    if len(out) > 3:
        raise ConvergenceError(f"{context}: {out[3]}")
    return out[0]


def sqrt_singular_integral(f, lower, upper, spec=DEFAULT_SPEC):
    """Integrate f over [lower, upper] allowing inverse-square-root endpoints.

    The substitution y = lower + u^2 (mirrored at the upper end) turns a
    y^{-1/2}-type endpoint singularity into a smooth integrand, which is
    then handled by adaptive quadrature.  Smooth integrands pass through
    unharmed.
    """
    lower = float(lower)
    upper = float(upper)
    if upper <= lower:
        raise ValueError("upper must exceed lower")
    mid = 0.5 * (lower + upper)

    def left(u):
        return 2.0 * u * f(lower + u * u)

    def right(v):
        return 2.0 * v * f(upper - v * v)

    half = np.sqrt(mid - lower)
    v1 = _quad_or_raise(left, 0.0, half, spec, "sqrt_singular_integral(lower half)")
    v2 = _quad_or_raise(right, 0.0, np.sqrt(upper - mid), spec, "sqrt_singular_integral(upper half)")
    return v1 + v2
