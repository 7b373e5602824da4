"""Special functions and quadrature kernels.

Provides the trilogarithm and dilogarithm of the trap thermodynamics'
number equation and its slope; the diffraction z-integral

    int_0^inf dz z^{-3} e^{-1/z} e^{delta^2 mu z / 2},

a Bessel-K closed form, K2 by an exponentially convergent trapezoid rule;
and the thermal pair kernels

    sum_{n, m >= 1} e^{-n a - m b} / (n + m)^s,

P at s = 2, equal to int_0^inf z dz / ((e^{z+a} - 1)(e^{z+b} - 1)), and G at s = 5/2,
the kernel of the shape function of `scattering`.  Both are one divided difference of
M(t) = e^t Li_s(e^{-t}) - 1: of its expansion about t = 0 (DLMF 25.12.12) below t = 1/2
and of its power series in e^{-t} beyond, both free of cancellation.  All are evaluated
with numpy alone and deterministic: identical inputs give bit-identical outputs.
"""

import math

import numpy as np

from . import ZETA3

__all__ = [
    "polylog3",
    "polylog2",
    "p_kernel",
    "g_kernel",
    "diffraction_z_integral",
]

ZETA2 = 1.6449340668482264


# zeta(-j) for j = 0..19, used by the expansions of Li3(e^{-y}) and
# Li2(e^{-y}) near y = 0.  Even negative arguments vanish.
_NEG_ZETA = (
    -0.5, -1.0 / 12.0, 0.0, 1.0 / 120.0, 0.0, -1.0 / 252.0, 0.0, 1.0 / 240.0,
    0.0, -1.0 / 132.0, 0.0, 691.0 / 32760.0, 0.0, -1.0 / 12.0, 0.0,
    3617.0 / 8160.0, 0.0, -43867.0 / 14364.0, 0.0, 174611.0 / 6600.0,
)

_FACTORIALS = [float(math.factorial(j)) for j in range(16)]

_K = np.arange(1, 120)
_K_CUBED = _K**3
_K_SQUARED = _K**2


def polylog3(x):
    """Trilogarithm Li3(x) for x in [0, 1].

    Direct power series for x <= 1/2; for x > 1/2 the expansion of
    Li3(e^{-y}) in y = -ln x, whose quadratic term carries the ln y
    singularity.  Within 1e-15 of mpmath on all of [0, 1].
    """
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"polylog3 requires 0 <= x <= 1, got {x}")
    if x <= 0.5:
        return float(np.sum(x**_K / _K_CUBED))
    y = -np.log(x)
    if y == 0.0:
        return ZETA3
    s = ZETA3 - ZETA2 * y + 0.5 * y * y * (1.5 - np.log(y))
    for j in range(3, 15):
        s += _NEG_ZETA[j - 3] * (-y) ** j / _FACTORIALS[j]
    return float(s)


def polylog2(x):
    """Dilogarithm Li2(x) for x in [0, 1]: the branches of `polylog3`, differentiated, as accurate."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"polylog2 requires 0 <= x <= 1, got {x}")
    if x <= 0.5:
        return float(np.sum(x**_K / _K_SQUARED))
    if x == 1.0:
        return ZETA2
    y = -math.log(x)
    s = ZETA2 - y * (1.0 - math.log(y))
    for j in range(2, 16):
        s += _NEG_ZETA[j - 2] * (-y) ** j / _FACTORIALS[j]
    return s


# zeta(5/2 - k) for k = 0..20, the values of 40-digit mpmath rounded to double.
_ZETA_HALF = (
    1.341487257250917, 2.612375348685488, -1.4603545088095868, -0.20788622497735457, -0.025485201889833036,
    0.008516928777850331, 0.004441011335479432, -0.0030916692472158338, -0.0026714580198992244,
    0.0027467679395368687, 0.00326903957260022, -0.00441603287300489, -0.006672172296466641,
    0.011146122473942813, 0.02039697871594279, -0.04057496748119458, -0.08717525590621725,
    0.2011740493842269, 0.4962712199120576, -1.303229250705114, -3.629759299774574,
)

# P and G are made of divided differences of M(t) = e^t Li_s(e^{-t}) - 1 = sum_{N>=2} e^{-(N-1) t}/N^s
# at s = 2 and 5/2.  Up to _PIVOT, M is a singular term, e^t t ln t or Gamma(-3/2) t^{3/2} e^t, plus
# Q(t) = e^t sum_k c_k t^k - 1 through t^20, c_k those of DLMF 25.12.12 (the next term is below 1e-20;
# no divided difference reads Q's constant term, so the -1 is left out); beyond, M is its power
# series sum_{N=2}^{75} z^{N-1}/N^s in z = e^{-t} (the next term is below 1e-18 relative).
_PIVOT = 0.5
_BRANCH_GAMMA = 4.0 / 3.0 * math.sqrt(math.pi)
_EXP_SERIES = [1.0 / math.factorial(i) for i in range(21)]
_Q_COEFFS = np.convolve([_ZETA_HALF[k] * (-1.0) ** k / math.factorial(k) for k in range(21)], _EXP_SERIES)[:21]
_Z_COEFFS = np.concatenate([[0.0], np.arange(2.0, 76.0) ** -2.5])
_Q2_COEFFS = np.convolve([ZETA2, -1.0] + [_NEG_ZETA[k - 2] * (-1.0) ** k / math.factorial(k) for k in range(2, 21)],
                         _EXP_SERIES)[:21]
_Z2_COEFFS = np.concatenate([[0.0], np.arange(2.0, 76.0) ** -2.0])


def _exprel(d):
    """expm1(d)/d, 1 at d = 0."""
    return np.divide(np.expm1(d), d, out=np.ones_like(d), where=d != 0.0)


def _divided_difference(x, y, coefficients):
    """(p(x) - p(y))/(x - y), p'(x) at x = y, of p(t) = sum_j coefficients[j] t^j.

    Horner's rule with two accumulators: `value` runs p's rule at x, and
    `slope` the rule at y of the quotient of p by (t - x).
    """
    value = np.full_like(x, coefficients[-1])
    slope = np.zeros_like(x)
    for c in coefficients[-2::-1]:
        slope *= y
        slope += value
        value *= x
        value += c
    return slope


def _branch_power(x, y):
    """Gamma(-3/2) times t^{3/2} e^t's divided difference at x <= y:
    e^x (x + sqrt(xy) + y)/(sqrt(x) + sqrt(y)) + y^{3/2} e^x exprel(y - x)."""
    sx, sy = np.sqrt(x), np.sqrt(y)
    power = np.divide(x + sx * sy + y, sx + sy, out=np.zeros_like(x), where=y > 0.0) + y * sy * _exprel(y - x)
    return _BRANCH_GAMMA * np.exp(x) * power


def _branch_log(x, y):
    """e^t t ln t's divided difference at 0 <= x <= y, 0 < y: e^x (ln y + x log1p(v)/(x - y)
    + y ln y exprel(y - x)), v = (x - y)/y, whose middle term is 0 at x = 0 and 1 at x = y."""
    v = (x - y) / y
    middle = np.divide(x * np.log1p(v, out=np.zeros_like(v), where=x > 0.0), x - y,
                       out=(x == y).astype(float), where=x < y)
    log = np.log(y)
    return np.exp(x) * (log + middle + y * log * _exprel(y - x))


def _pair_kernel(a, b, branch, q_coeffs, z_coeffs):
    """sum_{n, m >= 1} e^{-n a - m b}/(n + m)^s for 1-D arrays a, b >= 0, from M's parts.

    The sum over n at fixed n + m is geometric, so with lo, hi = min(a, b), max(a, b) it is
    e^{-lo} (-M[lo, hi]) / exprel(hi - lo), M[lo, hi] the divided difference of M(t) above (M'(lo)
    at a = b) and exprel(d) = expm1(d)/d.  M[lo, hi] is split at _PIVOT, each side weighted by its
    share of hi - lo: below, `branch` (the singular term's) plus Q's (`q_coeffs`); above, that of M
    in z (`z_coeffs`), times -e^{-x} exprel(x - y), has terms of one sign.  So no pair loses digits
    at any gap.  Arguments are clipped at 1e3, where e^{-lo - hi} underflows: an infinite one gives +0.
    """
    lo, hi = np.minimum(np.minimum(a, b), 1e3), np.minimum(np.maximum(a, b), 1e3)
    gap = hi - lo
    x, y = np.minimum(lo, _PIVOT), np.minimum(hi, _PIVOT)
    share = np.divide(y - x, gap, out=(lo < _PIVOT).astype(float), where=gap > 0.0)
    descent = np.zeros_like(gap)  # -M[lo, hi]
    part = share > 0.0
    x, y = x[part], y[part]
    descent[part] = -share[part] * (branch(x, y) + _divided_difference(x, y, q_coeffs))
    part = share < 1.0
    x, y = np.maximum(lo[part], _PIVOT), hi[part]
    z = np.exp(-x)
    descent[part] += (1.0 - share[part]) * z * _exprel(x - y) * _divided_difference(z, np.exp(-y), z_coeffs)
    with np.errstate(over="ignore"):  # exprel(gap) = inf beyond gap ~ 710: the value is 0
        return np.exp(-lo) * descent / _exprel(gap)


def p_kernel(a, b):
    """Thermal pair kernel P(a, b) = sum_{n, m >= 1} e^{-n a - m b}/(n + m)^2.

    `_pair_kernel` at power 2, M(t) = e^t Li2(e^{-t}) - 1, whose singular term below _PIVOT is
    e^t t ln t.  Within 2e-14 of 80-digit mpmath; symmetric bit for bit, positive and decreasing
    in each argument.  Accepts scalars or broadcastable arrays and returns the matching float or
    array, each element the scalar call's bits.  Diverges logarithmically only when both
    arguments vanish; a single vanishing argument is an integrable endpoint.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not (np.all(a >= 0) and np.all(b >= 0)):  # comparisons with nan are false, so nan fails too
        raise ValueError("p_kernel arguments a, b must be non-negative")
    if np.any((a < 1e-14) & (b < 1e-14)):
        raise ValueError("p_kernel diverges logarithmically at a = b = 0")
    value = _pair_kernel(a.ravel(), b.ravel(), _branch_log, _Q2_COEFFS, _Z2_COEFFS).reshape(a.shape)
    return float(value) if value.ndim == 0 else value


def g_kernel(a, b):
    """G(a, b) = sum_{n, m >= 1} e^{-n a - m b}/(n + m)^{5/2} for 1-D arrays a, b >= 0.

    `_pair_kernel` at power 5/2, M(t) = e^t Li_{5/2}(e^{-t}) - 1, whose singular term below _PIVOT
    is Gamma(-3/2) t^{3/2} e^t.  Within 2e-14 of 80-digit mpmath; symmetric, positive, decreasing.
    """
    if not (np.all(a >= 0) and np.all(b >= 0)):  # comparisons with nan are false, so nan fails too
        raise ValueError("g_kernel arguments a, b must be non-negative")
    return _pair_kernel(a, b, _branch_power, _Q_COEFFS, _Z_COEFFS)


def _k2_scaled(x):
    """e^x K2(x) for x > 0 by the trapezoid rule on

        e^x K2(x) = int_0^inf e^{-x (cosh t - 1)} cosh 2t dt,

    which converges exponentially in the step (Trefethen & Weideman, SIAM
    Rev. 56 (2014) 385).  Step 0.25 min(1, x^{-1/2}) and cutoff
    x (cosh t - 1) = 45 + 4 max(0, -ln x) take at most 94 nodes for
    x >= 2e-8; relative error below 1e-14 against mpmath on [2e-8, 2000].
    """
    step = 0.25 * min(1.0, x**-0.5)
    cutoff = 45.0 + 4.0 * max(0.0, -math.log(x))
    t = step * np.arange(int(math.acosh(1.0 + cutoff / x) / step) + 1)
    half = np.sinh(0.5 * t)
    f = np.exp(-2.0 * x * half * half) * np.cosh(2.0 * t)
    return step * (float(np.sum(f)) - 0.5 * float(f[0]))


def _check_delta(delta):
    if not delta > 0:  # comparisons with nan are false, so nan fails too
        raise ValueError("delta must be positive")


def diffraction_z_integral(delta, mu):
    """Excited-cloud suppression factor of the diffraction amplitude.

    Equals int_0^inf dz z^{-3} e^{-1/z} e^{delta^2 mu z/2}, which after
    u = 1/z is int_0^inf u e^{-u - beta/u} du = 2 beta K2(2 sqrt(beta))
    with beta = -delta^2 mu / 2 >= 0 (DLMF 10.32.10).  Exactly 1 at mu = 0
    up to delta = inf (and below beta = 1e-16, where 1 - beta rounds to 1),
    decreasing in |mu| to 0 at delta = inf.  The caller owns the validity regime delta^2 T >> 1.
    """
    delta = float(delta)
    mu = float(mu)
    _check_delta(delta)
    if not mu <= 0:
        raise ValueError("mu must be <= 0")
    beta = -delta * delta * mu / 2.0
    if not beta >= 1e-16:  # nan only as inf * 0, at delta = inf and mu = 0
        return 1.0
    if beta == math.inf:
        return 0.0  # ~ beta^{3/4} e^{-2 sqrt(beta)}, zero in double from beta ~ 1.4e5
    x = 2.0 * math.sqrt(beta)
    return 2.0 * beta * _k2_scaled(x) * math.exp(-x)
