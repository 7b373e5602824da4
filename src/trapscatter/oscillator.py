"""Squared matrix elements |<m|e^{i delta x}|m'>|^2 of the 1D harmonic oscillator.

These are the building blocks of every scattering channel: the 3D problem
separates in Cartesian coordinates with delta along x, so only the 1D
quantum number along the momentum transfer changes.

Exact elements use the displacement-operator closed form.  With
n = min(m, m'), k = |m - m'| and x = delta^2/2,

    |<m|e^{i delta x}|m'>|^2 = e^{-x} x^k  n!/(n+k)!  [L_n^(k)(x)]^2 .

Rather than evaluating the (combinatorially large) Laguerre polynomial
and the (tiny) prefactor separately, we run an upward recurrence directly
on the bounded amplitude

    A_n = e^{-x/2} x^{k/2} sqrt(n!/(n+k)!) L_n^(k)(x),     |A_n| <= 1,

with the starting value in log space:

    A_{n+1} = [(2n+k+1-x) A_n - sqrt(n(n+k)) A_{n-1}] / sqrt((n+1)(n+k+1)).

Unitarity bounds every A_n by 1, so the recurrence cannot overflow and its
absolute error stays near machine precision (validated against direct
quadrature of Hermite-function overlaps in the test suite).

The semiclassical element for two highly excited states is the stationary
phase result; it tracks the oscillating exact element's envelope and has an
integrable inverse-square-root singularity on its support boundary.
"""

import math

import numpy as np
from scipy.special import gammaln

from .errors import PrecisionLossError

__all__ = [
    "overlap_ground_exact",
    "overlap_exact",
    "overlap_wkb",
    "ground_overlap_column",
    "diagonal_amplitude_column",
    "overlap_matrix",
]

# |A_n| <= 1 in exact arithmetic; a breach beyond rounding noise means the
# recurrence has left its stability envelope.
_AMPLITUDE_BOUND = 1.0 + 1e-9

# Guard for the integrable boundary singularity of the stationary-phase form.
_WKB_RADICAND_FLOOR = 1e-12


def _amplitude(n, k, x):
    """Scaled amplitude A_n for one (n, k, x); scalar recurrence."""
    if x == 0.0:
        return 1.0 if k == 0 else 0.0
    a_prev = 0.0
    a = math.exp(-0.5 * x + 0.5 * k * math.log(x) - 0.5 * math.lgamma(k + 1))
    peak = abs(a)
    for j in range(n):
        a_next = ((2 * j + k + 1 - x) * a - math.sqrt(j * (j + k)) * a_prev) / math.sqrt(
            (j + 1) * (j + k + 1)
        )
        a_prev, a = a, a_next
        peak = max(peak, abs(a))
    if peak > _AMPLITUDE_BOUND or not math.isfinite(a):
        raise PrecisionLossError(
            f"overlap recurrence unstable at n={n}, k={k}, x={x:g}: use the WKB form"
        )
    return a


def overlap_ground_exact(m, delta):
    """|<0|e^{i delta x}|m>|^2 = e^{-x} x^m / m! with x = delta^2/2 (Poisson in m)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    x = 0.5 * delta * delta
    if x == 0.0:
        return 1.0 if m == 0 else 0.0
    return math.exp(-x + m * math.log(x) - math.lgamma(m + 1))


def overlap_exact(m, m_prime, delta):
    """Exact |<m|e^{i delta x}|m'>|^2; symmetric in (m, m')."""
    if m < 0 or m_prime < 0:
        raise ValueError("levels must be >= 0")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    n = min(m, m_prime)
    k = abs(m - m_prime)
    a = _amplitude(n, k, 0.5 * delta * delta)
    return a * a


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


def ground_overlap_column(m_max, delta):
    """Array of |<0|e^{i delta x}|m>|^2 for m = 0..m_max."""
    x = 0.5 * delta * delta
    if x == 0.0:
        out = np.zeros(m_max + 1)
        out[0] = 1.0
        return out
    m = np.arange(m_max + 1)
    return np.exp(-x + m * math.log(x) - gammaln(m + 1))


def diagonal_amplitude_column(m_max, delta):
    """Signed diagonal amplitudes for m = 0..m_max (k = 0 recurrence)."""
    x = 0.5 * delta * delta
    out = np.zeros(m_max + 1)
    if x == 0.0:
        out[:] = 1.0
        return out
    a_prev = 0.0
    a = math.exp(-0.5 * x)
    out[0] = a
    for j in range(m_max):
        a_next = ((2 * j + 1 - x) * a - j * a_prev) / (j + 1.0)
        a_prev, a = a, a_next
        out[j + 1] = a
    return out


def overlap_matrix(m_max, delta):
    """Dense matrix of exact squared elements for all m, m' <= m_max.

    Runs the scaled recurrence for every offset k at once (vectorized over
    k, sequential in n), filling both symmetric diagonals per step.  Cost
    is O(m_max^2).
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    x = 0.5 * delta * delta
    size = m_max + 1
    if x == 0.0:
        return np.eye(size)
    ks = np.arange(size, dtype=float)
    a_prev = np.zeros(size)
    a = np.exp(-0.5 * x + 0.5 * ks * math.log(x) - 0.5 * gammaln(ks + 1))
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
    peak = float(np.max(np.abs(amp)))
    if peak > _AMPLITUDE_BOUND or not np.all(np.isfinite(amp)):
        raise PrecisionLossError(
            f"overlap matrix recurrence unstable at m_max={m_max}, delta={delta:g}"
        )
    return amp * amp
