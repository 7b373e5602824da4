"""Reference values computed apart from the program.

Nothing here imports `trapscatter`.  Each quantity takes a different route
from the production code:

- continuum chemical potential: mpmath trilogarithm, scipy `brentq`;
- diffraction suppression factor: the Bessel closed form 2 beta K_2(2 sqrt beta)
  (DLMF 10.32), not quadrature;
- shape function f(a, nu): scipy adaptive quadrature of the nested integral,
  with the thermal pair kernel P(a, b) in closed form through Li2 (DLMF 25.12),
  not the program's Gauss-Legendre nest;
- discrete ensemble: a `brentq` root of the truncated level sum, not bisection;
- oscillator overlaps: direct quadrature of Hermite-function products
  (diagonal amplitudes also from `scipy.special.eval_laguerre`), not the
  scaled Laguerre recurrence;
- pair weights: a Hankel-matrix product, not the program's loop over q.
"""

import math
import warnings

import mpmath
import numpy as np
from scipy import integrate, linalg, optimize, special

# Truncation rule of the oracle's default epsilon_max, as documented in
# trapscatter.oracle: the smallest level >= max(30, 12 T) whose mu = 0
# Boltzmann tail holds fewer than 1e-6 N particles, up to the cost guard.
_TAIL_SHARE = 1e-6
_MAX_EPSILON = 600


# ---------------------------------------------------------------------------
# Continuum thermodynamics
# ---------------------------------------------------------------------------

def continuum_nu(n_total, temperature):
    """nu = -mu/T solving 1/expm1(nu) + T^3 Li3(e^-nu) = N (mpmath at 30 digits)."""
    t3 = mpmath.mpf(temperature) ** 3

    def excess(log_nu):
        with mpmath.workdps(30):
            nu = mpmath.exp(log_nu)
            return float(1 / mpmath.expm1(nu) + t3 * mpmath.polylog(3, mpmath.exp(-nu)) - n_total)

    log_nu = optimize.brentq(excess, math.log(1e-14), math.log(60.0), xtol=1e-14, rtol=1e-15)
    return math.exp(log_nu)


def condensate(n_total, temperature, tc):
    """Leading-order N0 = N (1 - (T/Tc)^3), zero above Tc."""
    return n_total * (1.0 - (temperature / tc) ** 3) if temperature < tc else 0.0


def diffraction_semiclassical(n0, temperature, nu, delta):
    """(N0 e^{-delta^2/4} + 4T/delta^4 * 2 beta K_2(2 sqrt beta))^2 with beta = delta^2 nu T / 2."""
    beta = 0.5 * delta * delta * nu * temperature
    root = 2.0 * math.sqrt(beta)
    z = 2.0 * beta * special.kve(2, root) * math.exp(-root)
    amplitude = n0 * math.exp(-0.25 * delta * delta) + 4.0 * temperature / delta**4 * z
    return amplitude * amplitude


def bose_0m_semiclassical(n0, temperature, delta):
    return 2.0 * n0 / math.expm1(0.5 * delta * delta / temperature)


# ---------------------------------------------------------------------------
# Shape function f(a, nu)
# ---------------------------------------------------------------------------

# With ez = e^-z, P(a, b) = ea eb (M(ea) - M(eb)) / (ea - eb) where
# M(z) = (Li2(z) - z)/z = sum_{k>=2} z^(k-1)/k^2.  Writing it this way keeps
# full relative precision for large arguments, where the textbook form
# [e^a Li2(e^-a) - e^b Li2(e^-b)]/(e^b - e^a) cancels.
_SERIES_BELOW = 0.01
_SERIES_TERMS = 14
_M_COEFFS = [1.0 / k**2 for k in range(_SERIES_TERMS + 1, 1, -1)]         # M(z)/z, Horner order
_DM_COEFFS = [(k - 1.0) / k**2 for k in range(_SERIES_TERMS + 1, 1, -1)]  # M'(z), Horner order


def _horner(coeffs, z):
    total = 0.0
    for c in coeffs:
        total = total * z + c
    return total


def _m(z):
    if z < _SERIES_BELOW:
        return z * _horner(_M_COEFFS, z)
    return (special.spence(1.0 - z) - z) / z


def _dm(z):
    if z < _SERIES_BELOW:
        return _horner(_DM_COEFFS, z)
    return (-math.log1p(-z) - special.spence(1.0 - z)) / (z * z)


def pair_kernel(a, b):
    """P(a, b) = int_0^inf z dz / ((e^{z+a} - 1)(e^{z+b} - 1)) in closed form."""
    if abs(a - b) < 1e-5:
        # symmetric midpoint limit P(m, m) = e^-2m M'(e^-m); error O((a-b)^2)
        em = math.exp(-0.5 * (a + b))
        return em * em * _dm(em)
    ea, eb = math.exp(-a), math.exp(-b)
    return ea * eb * (_m(ea) - _m(eb)) / (ea - eb)


def shape_function(a, nu):
    """f(a, nu) = (1/pi) int dx int_{y-}^{x} dy P(x+nu, y+nu) / sqrt((y-y-)(y+-y)).

    Outer x = a/4 + s^2 and inner y = y- + u^2 remove the square-root ends;
    the integrand is scaled by e^{a/2} so absolute tolerances stay relative.
    The x range ends at a/4 + 25, where the integrand is below e^-50 of its peak.
    """
    scale = math.exp(0.5 * a)

    def inner(x):
        root = 2.0 * math.sqrt(a * x)
        y_lo = x + a - root
        y_hi = x + a + root
        width = x - y_lo
        if width <= 0.0:
            return 0.0

        def g(u):
            return 2.0 * scale * pair_kernel(x + nu, y_lo + u * u + nu) / math.sqrt(y_hi - y_lo - u * u)

        return integrate.quad(g, 0.0, math.sqrt(width), epsabs=1e-13, epsrel=1e-9, limit=200)[0]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        total = integrate.quad(lambda s: 2.0 * s * inner(0.25 * a + s * s), 0.0, 5.0,
                               epsabs=1e-13, epsrel=1e-9, limit=200)[0]
    return total / (math.pi * scale)


# ---------------------------------------------------------------------------
# Discrete-spectrum oracle
# ---------------------------------------------------------------------------

def default_truncation(n_total, temperature):
    """The oracle's documented default epsilon_max for (N, T)."""
    t = temperature
    for emax in range(max(30, math.ceil(12.0 * t)), _MAX_EPSILON + 1):
        # int_emax^inf (e+1)(e+2)/2 e^{-e/T} de = T e^{-emax/T} (p + T p' + T^2 p'')
        p = 0.5 * (emax + 1.0) * (emax + 2.0)
        dp = emax + 1.5
        tail = t * math.exp(-emax / t) * (p + t * dp + t * t)
        if tail < _TAIL_SHARE * n_total:
            return emax
    raise ValueError(f"no default truncation for N={n_total}, T={t}")


def discrete_occupations(n_total, temperature, emax):
    """Per-state occupations on levels 0..emax from a brentq root of the level sum."""
    eps = np.arange(emax + 1, dtype=float)
    degeneracy = 0.5 * (eps + 1.0) * (eps + 2.0)
    reduced = eps / temperature

    def excess(log_nu):
        with np.errstate(over="ignore"):
            return math.fsum(degeneracy / np.expm1(reduced + math.exp(log_nu))) - n_total

    log_nu = optimize.brentq(excess, math.log(1e-14), math.log(60.0), xtol=1e-14, rtol=1e-15)
    with np.errstate(over="ignore"):
        return 1.0 / np.expm1(reduced + math.exp(log_nu))


def poisson_column(m_max, delta):
    """|<0|e^{i delta x}|m>|^2 = e^{-x} x^m / m!, x = delta^2/2."""
    x = 0.5 * delta * delta
    m = np.arange(m_max + 1)
    return np.exp(m * math.log(x) - x - special.gammaln(m + 1.0))


def laguerre_diagonal(m_max, delta):
    """<m|e^{i delta x}|m> = e^{-x/2} L_m(x)."""
    x = 0.5 * delta * delta
    return math.exp(-0.5 * x) * special.eval_laguerre(np.arange(m_max + 1), x)


def hermite_amplitudes(m_max, delta, panels_per_unit=2, order=24):
    """Complex <m|e^{i delta x}|m'> for m, m' <= m_max by panel Gauss-Legendre quadrature.

    The eigenfunctions come from the stable normalized Hermite recurrence on
    a real-space grid wide enough for level m_max plus 12 oscillator lengths.
    """
    half_width = math.sqrt(2.0 * m_max) + 12.0
    panels = int(2 * half_width * panels_per_unit)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-half_width, half_width, panels + 1)
    half = 0.5 * np.diff(edges)
    xs = (half[:, None] * nodes + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
    ws = (half[:, None] * weights).ravel()
    psi = np.empty((m_max + 1, xs.size))
    psi[0] = np.pi**-0.25 * np.exp(-0.5 * xs * xs)
    if m_max >= 1:
        psi[1] = math.sqrt(2.0) * xs * psi[0]
    for n in range(1, m_max):
        psi[n + 1] = math.sqrt(2.0 / (n + 1)) * xs * psi[n] - math.sqrt(n / (n + 1.0)) * psi[n - 1]
    return (psi * (ws * np.exp(1j * delta * xs))) @ psi.T


def oracle_channels(n_total, occupations, amplitudes):
    """The four oracle channels from occupations and a (sub)matrix of overlap amplitudes.

    W(m) = sum_q (q+1) occ[m+q] and PW(m, m') = sum_q (q+1) occ[m+q] occ[m'+q],
    both through the Hankel matrix H[q, m] = occ[q+m].
    """
    size = occupations.size
    amp = amplitudes[:size, :size]
    g = np.abs(amp) ** 2
    hank = linalg.hankel(occupations, np.zeros(size))
    mult = np.arange(1.0, size + 1.0)
    w = mult @ hank
    pw = hank.T @ (mult[:, None] * hank)
    diffraction = float(np.real(np.diagonal(amp)) @ w) ** 2
    bose_0m = 2.0 * occupations[0] * float(occupations[1:] @ g[0, 1:])
    offdiag = float(np.sum(g * pw) - np.diagonal(g) @ np.diagonal(pw))
    return {
        "rayleigh": float(n_total),
        "diffraction": diffraction,
        "bose_0m": bose_0m,
        "bose_mm": offdiag - bose_0m,
    }
