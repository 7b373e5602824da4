"""Special functions and quadrature kernels.

Provides the trilogarithm used by the trap thermodynamics, the thermal
two-occupation kernel

    P(a, b) = int_0^inf z dz / ((e^{z+a} - 1)(e^{z+b} - 1)),

the diffraction z-integral

    int_0^inf dz z^{-3} e^{-1/z} e^{delta^2 mu z / 2},

and an adaptive integrator for integrands with inverse-square-root
endpoint singularities.

All quadratures are deterministic: identical inputs give bit-identical
outputs.  The fixed-node kernels converge by comparing successive
Gauss-Legendre orders against the requested tolerances.
"""

from dataclasses import dataclass

import numpy as np
from scipy import integrate

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

# Gauss-Legendre orders tried in sequence until two consecutive results agree.
_ORDERS = (64, 96, 144, 216, 324, 486)

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


def _gauss_interval(f, a, b, n):
    """Integral of vectorized f over [a, b] with an n-node Gauss-Legendre rule."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return half * float(np.dot(w, f(half * (x + 1.0) + a)))


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


def _orders(spec):
    """The Gauss-Legendre orders the subdivision budget allows (at most 8 per subdivision)."""
    return [order for order in _ORDERS if order <= 8 * spec.max_subdivisions]


def p_kernel(a, b, spec=DEFAULT_SPEC):
    """Thermal pair kernel P(a, b); symmetric, positive, decreasing in each argument.

    Diverges logarithmically only when both arguments vanish; a single
    vanishing argument is an integrable endpoint.
    """
    a = float(a)
    b = float(b)
    if a < 0 or b < 0:
        raise ValueError("p_kernel arguments must be non-negative")
    if a < 1e-14 and b < 1e-14:
        raise ValueError("p_kernel diverges logarithmically at a = b = 0")

    # Scale of the near-origin structure; the log map resolves every
    # decade between `scale` and 1 with uniform node density.
    scale = max(min(a, b), 1e-9)
    tmax = np.log1p(1.0 / scale)

    def evaluate(order):
        x, w = _leggauss(order)
        # piece 1: z in [0, 1] via z = scale*(e^t - 1)
        t = 0.5 * tmax * (x + 1.0)
        wt = 0.5 * tmax * w
        z = scale * np.expm1(t)
        jac = scale * np.exp(t)
        with np.errstate(over="ignore"):
            f = z / (np.expm1(z + a) * np.expm1(z + b))
        v1 = float(np.dot(wt, f * jac))
        # piece 2: z in [1, 46]; integrand decays like z e^{-2z}
        z = 0.5 * 45.0 * (x + 1.0) + 1.0
        with np.errstate(over="ignore"):
            f = z / (np.expm1(z + a) * np.expm1(z + b))
        v2 = 0.5 * 45.0 * float(np.dot(w, f))
        return v1 + v2

    return _converge(evaluate, _orders(spec), spec.rel_tol, spec.abs_tol, f"p_kernel({a}, {b})")


def diffraction_z_integral(delta, mu, temperature, spec=DEFAULT_SPEC):
    """Excited-cloud suppression factor of the diffraction amplitude.

    Equals int_0^inf dz z^{-3} e^{-1/z} e^{delta^2 mu z/2}, evaluated after
    the substitution u = 1/z as int_0^inf u e^{-u - beta/u} du with
    beta = -delta^2 mu / 2 >= 0.  Exactly 1 at mu = 0, decreasing in |mu|.
    The caller is responsible for the delta^2 T >> 1 validity regime;
    `temperature` is accepted for interface symmetry only.
    """
    delta = float(delta)
    mu = float(mu)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if mu > 0:
        raise ValueError("mu must be <= 0")
    beta = -delta * delta * mu / 2.0
    umax = 50.0 + 4.0 * np.sqrt(beta)

    def f(u):
        with np.errstate(divide="ignore", over="ignore"):
            expo = np.where(u > 0, -u - beta / np.maximum(u, 1e-300), -np.inf)
        return u * np.exp(expo)

    # The e^{-beta/u} boundary layer lives at u ~ beta; a log map from that
    # scale up to u = 1 resolves it for any beta, the rest is smooth.
    scale = max(min(beta, 1.0), 1e-9)
    tmax = np.log1p(1.0 / scale)

    def evaluate(order):
        x, w = _leggauss(order)
        t = 0.5 * tmax * (x + 1.0)
        u = scale * np.expm1(t)
        jac = scale * np.exp(t)
        v1 = 0.5 * tmax * float(np.dot(w, f(u) * jac))
        v2 = _gauss_interval(f, 1.0, umax, order)
        return v1 + v2

    return _converge(evaluate, _orders(spec), spec.rel_tol, spec.abs_tol,
                     f"diffraction_z_integral(delta={delta}, mu={mu})")


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
