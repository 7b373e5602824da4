"""Independent references for the closed forms and the shape function.

The adaptive quadratures reuse only the program's scalar pair kernel and
the differential rate they integrate; the shape-function references are the
double series and a 25-digit mpmath quadrature, and those of its angle
integral the harmonic series and a 30-digit mpmath quadrature.  They are
slow and exist only to validate the program.  The dense overlap recurrence
at the end is the earlier form of the band recurrence, kept to pin the
band's bits, the level-by-level truncation scan is the reference for the
oracle's bisected default epsilon_max, the stored-band breakdown is the
per-pair reference for the oracle's streamed grid, and the bisection at the
very end, the program's earlier root finder, is the reference for both
Newton solves of the number equation; the untruncated Bose-series level
sum beside it checks the oracle's mu independently of its truncation.

The semiclassical element for two highly excited states, `overlap_wkb`, is
the stationary phase result; it tracks the oscillating exact element's
envelope and has an integrable inverse-square-root singularity on its
support boundary.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy import integrate

from trapscatter import (
    ConvergenceError,
    RateBreakdown,
    TruncationError,
    bose_0m_differential,
    bose_mm_differential,
    excited_pair_shape,
    polylog3,
)
from trapscatter.oracle import _MAX_EPSILON, _boltzmann_tail, _projected_weights
from trapscatter.oscillator import _log_factorials, overlap_band
from trapscatter.quad import p_kernel


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and budget of the adaptive references."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions <= 0:
            raise ValueError("max_subdivisions must be positive")


DEFAULT_SPEC = QuadSpec()


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


def pair_shape_series(a, nu):
    """f(a, nu) = (1/2) sum_N e^{-N nu}/N^3 sum_{n=1}^{N-1} e^{-a n (N - n)/N}, for nu >= 0.05.

    Terms stop at N nu = 42, below e^{-42} of the first; summed by fsum.
    """
    terms = []
    for big_n in range(2, int(42.0 / nu) + 2):
        n = np.arange(1, big_n)
        terms.append(math.exp(-big_n * nu) / big_n**3 * float(np.sum(np.exp(-a * n * (big_n - n) / big_n))))
    return 0.5 * math.fsum(terms)


def pair_shape_mpmath(a, nu, dps=25):
    """f(a, nu) by tanh-sinh quadrature of its 1-D form at `dps` digits.

    f = pi^{-1/2} int_0^inf G(nu + (h + r)^2, nu + (h - r)^2) dr, h = sqrt(a)/2,
    with G(A, B) = e^{-B} [M(B) - M(A)]/expm1(A - B) for A > B and
    M(t) = e^t Li_{5/2}(e^{-t}) - 1: the expansion in t with mpmath's zeta
    values up to t = 3/2, the power series beyond.  Breakpoints at r = h,
    at h +- sqrt(nu) 4^k and at the integers.
    """
    with mpmath.workdps(dps + 5):
        mpf = mpmath.mpf
        coeffs = [mpmath.zeta(mpf(5) / 2 - k) / mpmath.factorial(k) for k in range(int(1.3 * dps) + 12)]
        gamma = mpmath.gamma(mpf(-3) / 2)
        tiny = mpf(10) ** (-dps - 6)

        def excess(t):
            if t <= 1.5:
                total = mpf(0)
                for c in reversed(coeffs):
                    total = total * -t + c
                return (total + gamma * t * mpmath.sqrt(t)) * mpmath.exp(t) - 1
            z = mpmath.exp(-t)
            total, n, power = mpf(0), 2, z
            while power > tiny:
                total += power / mpf(n) ** mpf(2.5)
                n += 1
                power *= z
            return total

        def kernel(r):
            big, small = nu + (h + r) ** 2, nu + (h - r) ** 2
            if big < small:
                big, small = small, big
            return mpmath.exp(-small) * (excess(small) - excess(big)) / mpmath.expm1(big - small)

        a, nu = mpf(a), mpf(nu)
        h = mpmath.sqrt(a) / 2
        points = {mpf(0), h, h + 7}
        points.update(mpf(k) for k in range(int(h) + 8))
        step = mpmath.sqrt(nu) if nu > 0 else h
        while step < 7:
            points.update(p for p in (h - step, h + step) if p > 0)
            step *= 4
        value = mpmath.quad(kernel, sorted(points)) / mpmath.sqrt(mpmath.pi)
        return float(value)


def shape_integral_series(nu):
    """int_0^inf f(a, nu) da = sum_{N>=2} H_{N-1} e^{-N nu}/N^3; pi^4/360 at nu = 0."""
    if nu == 0.0:
        return math.pi**4 / 360.0
    big_n = np.arange(2.0, 42.0 / nu + 2.0)
    harmonic = np.cumsum(1.0 / (big_n - 1.0))
    return math.fsum(harmonic * np.exp(-big_n * nu) / big_n**3)


def shape_integral_mpmath(nu, dps=30):
    """int_0^inf f(a, nu) da as (1/2) int_0^inf z ln^2(1 - e^{-z-nu}) dz, by dps-digit mpmath."""
    with mpmath.workdps(dps):
        nu = mpmath.mpf(nu)
        value = mpmath.quad(lambda z: z * mpmath.log(-mpmath.expm1(-z - nu)) ** 2,
                            [0, 1, 5, 20, 80, mpmath.inf])
        return float(value / 2)


def shape_integral_adaptive(nu):
    """int_0^inf excited_pair_shape(a, nu) da by adaptive quadrature, split at a = 1."""
    spec = QuadSpec(rel_tol=1e-13, abs_tol=1e-15)
    head = quad_or_raise(lambda a: excited_pair_shape(a, nu), 0.0, 1.0, spec, "shape integral head")
    return head + quad_or_raise(lambda a: excited_pair_shape(a, nu), 1.0, np.inf, spec, "shape integral tail")


def bose_0m_total_quadrature(ensemble, k):
    """Solid-angle integral of bose_0m_differential from delta = 1."""

    def integrand(d):
        return bose_0m_differential(ensemble, d) * 2.0 * math.pi * d / k**2

    return quad_or_raise(integrand, 1.0, np.inf, DEFAULT_SPEC, "bose_0m_total")


def bose_mm_total_quadrature(ensemble, k):
    """Solid-angle integral of bose_mm_differential over all delta, split at a = 1."""
    spec = QuadSpec(rel_tol=1e-12, abs_tol=1e-300)

    def integrand(d):
        return bose_mm_differential(ensemble, d) * 2.0 * math.pi * d / k**2

    split = math.sqrt(2.0 * ensemble.temperature)
    head = quad_or_raise(integrand, 0.0, split, spec, "bose_mm_total head")
    return head + quad_or_raise(integrand, split, np.inf, spec, "bose_mm_total tail")


# Guard for the integrable boundary singularity of the stationary-phase form.
_WKB_RADICAND_FLOOR = 1e-12


def overlap_wkb(m, m_prime, delta):
    """Stationary-phase squared element between two excited states.

    With M = max(m, m'), M' = min(m, m'):

        (1/2pi) [2 M' delta^2 - (M - M' - delta^2/2)^2]^(-1/2)

    inside the classically allowed band, 0 outside.  The boundary
    singularity is integrable; evaluation there is floored.  Note this is
    the single-stationary-point result: the exact element oscillates about
    twice this value (see the envelope tests).
    """
    if m < 1 or m_prime < 1:
        raise ValueError("levels must be >= 1 for the semiclassical form")
    if delta <= 0:
        raise ValueError("delta must be positive")
    hi, lo = max(m, m_prime), min(m, m_prime)
    radicand = 2.0 * lo * delta * delta - (hi - lo - 0.5 * delta * delta) ** 2
    if radicand <= 0.0:
        return 0.0
    radicand = max(radicand, _WKB_RADICAND_FLOOR)
    return 1.0 / (2.0 * math.pi * math.sqrt(radicand))


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


def default_epsilon_max_scan(n_total, temperature):
    """First level from max(30, 12 T) up whose mu = 0 tail bound is below 1e-6 N, one level at a time."""
    for emax in range(max(30, math.ceil(12.0 * temperature)), _MAX_EPSILON + 1):
        if _boltzmann_tail(emax, temperature) < 1e-6 * n_total:
            return emax
    raise TruncationError(f"no truncation below {_MAX_EPSILON} for N={n_total}, T={temperature:g}")


def exact_breakdown_band(ens, delta):
    """The oracle breakdown of one (ensemble, delta) pair from a stored overlap band.

    The band is built at the ensemble's own epsilon_max.  Diffraction reads
    its column 0, bose_0m its squared row 0, and bose_mm the double running
    sums C down its squared columns against a zero-padded Hankel view of the
    occupations: the form `exact_breakdown` had before the oracle streamed
    the recurrence.  bose_mm is the exactly rounded sum of those products
    (the former einsum was itself up to 7e-15 off it).
    """
    occ = ens.occupations
    emax = ens.epsilon_max
    n = float(ens.n_total)
    w = _projected_weights(occ)
    band = overlap_band(emax, delta)
    column = band[:, 0].copy()
    pair = np.cumsum(np.cumsum(np.square(band), axis=0), axis=0)
    diffraction = float(np.dot(column, w)) ** 2
    bose_0m = 2.0 * float(occ[0]) * float(np.dot(occ[1:], pair[0, 1:]))
    hankel = np.lib.stride_tricks.sliding_window_view(np.concatenate([occ, np.zeros(emax)]), emax + 1)
    bose_mm = 2.0 * math.fsum((occ[1:, None] * hankel[1:, 1:] * pair[1:, 1:]).ravel())
    return RateBreakdown(n, diffraction, bose_0m, bose_mm)


def bisect_increasing(fn, target, lo, hi, tol):
    """Root of fn(x) = target for an fn increasing on [lo, hi], by bisection.

    fn(lo) <= target is the caller's promise; only the upper end is checked.
    Stops once the bracket is narrower than `tol`, or once no float lies
    strictly inside it (a `tol` below one ulp of the root), and returns its
    midpoint.
    """
    if not fn(hi) >= target:
        raise ConvergenceError("bracket does not contain the root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            return 0.5 * (lo + hi)
    raise ConvergenceError("bisection budget exhausted")


def continuum_population(mu, t):
    """1/(e^{-mu/T} - 1) + T^3 Li3(e^{mu/T}): discrete ground state, continuum excited states."""
    return 1.0 / math.expm1(-mu / t) + t**3 * polylog3(math.exp(mu / t))


def discrete_population(mu, t, epsilon_max):
    """sum_eps g(eps)/(e^{(eps - mu)/T} - 1) over the levels 0..epsilon_max."""
    eps = np.arange(epsilon_max + 1.0)
    with np.errstate(over="ignore"):
        return float(((eps + 1.0) * (eps + 2.0) / 2.0 / np.expm1((eps - mu) / t)).sum())


def bose_series_population(mu, t):
    """The untruncated level sum n0 + sum_{j>=1} z^j [(1 - w_j)^{-3} - 1], z = e^{mu/T}, w_j = e^{-j/T}.

    Each excited occupation is sum_j z^j e^{-j eps/T}, and the degeneracies
    (eps+1)(eps+2)/2 summed over every eps >= 1 give (1 - w)^{-3} - 1 =
    w (3 - 3w + w^2) / (1 - w)^3, written so to keep its digits when w is
    small.  The sum stops at j = ceil(40 T) + 40, past which every bracket
    is below e^{-40} of the first.  Standard library only, nothing from the
    program.
    """
    n0 = 1.0 / math.expm1(-mu / t)
    terms = []
    for j in range(1, math.ceil(40.0 * t) + 41):
        w = math.exp(-j / t)
        terms.append(math.exp(j * mu / t) * w * (3.0 - 3.0 * w + w * w) / (-math.expm1(-j / t)) ** 3)
    return n0 + math.fsum(terms)


def chemical_potential_bisection(n_total, temperature, population):
    """mu of population(mu) = n_total by bisection to 1e-15 T.

    The bracket [-60 T, -1e-12 T], widened to -5000 T when the population
    at -60 T already exceeds n_total, contains the root.
    """
    t = temperature
    lo = -5000.0 * t if population(-60.0 * t) > n_total else -60.0 * t
    return bisect_increasing(population, n_total, lo, -1e-12 * t, 1e-15 * t)
