"""Adaptive-quadrature references for the closed forms and the fixed-rule nest.

They reuse only the program's scalar pair kernel and the differential rate
they integrate; they are slow and exist only to validate the program.  The
dense overlap recurrence at the end is the earlier form of the band
recurrence, kept to pin the band's bits.
"""

import math

import numpy as np
from scipy import integrate

from trapscatter import DEFAULT_SPEC, ConvergenceError, QuadSpec, bose_0m_differential, p_kernel
from trapscatter.oscillator import _log_factorials


def quad_or_raise(f, a, b, spec, context):
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

    v1 = quad_or_raise(left, 0.0, math.sqrt(mid - lower), spec, "sqrt_singular_integral(lower half)")
    v2 = quad_or_raise(right, 0.0, math.sqrt(upper - mid), spec, "sqrt_singular_integral(upper half)")
    return v1 + v2


def pair_shape_adaptive(a, nu=0.0):
    """f(a, nu) by adaptive outer/middle quadrature with the scalar kernel."""
    relaxed = QuadSpec(rel_tol=1e-6)

    def middle(x):
        ym = x + a - 2.0 * math.sqrt(a * x)
        yp = x + a + 2.0 * math.sqrt(a * x)
        if x - ym <= 0.0:
            return 0.0

        def g(y):
            y = min(y, x)
            r = (y - ym) * (yp - y)
            if r <= 0.0:
                return 0.0
            return p_kernel(x + nu, y + nu) / math.sqrt(r)

        return sqrt_singular_integral(g, ym, x, relaxed)

    outer = quad_or_raise(middle, 0.25 * a, 0.25 * a + 60.0, relaxed, "excited_pair_shape adaptive")
    return outer / math.pi


def diffraction_total_excited_quadrature(ensemble, kin):
    """Solid-angle integral of (4T/delta^4)^2 from delta = T^{-1/2}."""
    t = ensemble.temperature
    k = kin.k_incident

    def integrand(d):
        return (4.0 * t / d**4) ** 2 * 2.0 * math.pi * d / k**2

    return quad_or_raise(integrand, t**-0.5, np.inf, DEFAULT_SPEC, "diffraction_total_excited")


def bose_0m_total_quadrature(ensemble, kin):
    """Solid-angle integral of bose_0m_differential from delta = 1."""
    k = kin.k_incident

    def integrand(d):
        return bose_0m_differential(ensemble, d) * 2.0 * math.pi * d / k**2

    return quad_or_raise(integrand, 1.0, np.inf, DEFAULT_SPEC, "bose_0m_total_numeric")


def p_reference(a, b):
    """P(a, b) by adaptive quadrature of its defining z-integral."""
    # relative tolerance only: P(60, 60) ~ 2e-53
    def integrand(z):
        if z + max(a, b) > 600.0:
            return 0.0
        return z / (math.expm1(z + a) * math.expm1(z + b))

    v1, _ = integrate.quad(integrand, 0, 1, limit=300, epsabs=0.0, epsrel=1e-12)
    v2, _ = integrate.quad(integrand, 1, np.inf, limit=300, epsabs=0.0, epsrel=1e-12)
    return v1 + v2


def z_reference(delta, mu):
    """int_0^inf u e^{-u - beta/u} du by adaptive quadrature, split at u = 1."""
    beta = -delta * delta * mu / 2.0

    def integrand(u):
        return u * math.exp(-u - beta / u) if u > 0.0 else 0.0

    v1, _ = integrate.quad(integrand, 0, 1, limit=300, epsabs=0.0, epsrel=1e-13)
    v2, _ = integrate.quad(integrand, 1, np.inf, limit=300, epsabs=0.0, epsrel=1e-13)
    return v1 + v2


def overlap_matrix_dense(m_max, delta):
    """The dense squared-element matrix as one recurrence over all offsets k.

    Steps every k at once and writes both symmetric diagonals per level n,
    the form `oscillator.overlap_matrix` had before it became the scatter
    of `overlap_band`; the band's squared off-diagonal pairs must reproduce
    it bit for bit.
    """
    x = 0.5 * delta * delta
    size = m_max + 1
    if x == 0.0:
        return np.eye(size)
    ks = np.arange(size, dtype=float)
    a_prev = np.zeros(size)
    a = np.exp(-0.5 * x + 0.5 * ks * math.log(x) - 0.5 * _log_factorials(size))
    amp = np.zeros((size, size))
    for n in range(size):
        width = size - n
        amp[n, n:] = a[:width]
        amp[n:, n] = a[:width]
        if width == 1:
            break
        a_next = ((2 * n + ks + 1 - x) * a - np.sqrt(n * (n + ks)) * a_prev) / np.sqrt(
            (n + 1) * (n + ks + 1)
        )
        a_prev, a = a, a_next
    return amp * amp
