"""Special functions and quadrature kernels.

Provides the trilogarithm and dilogarithm of the trap thermodynamics'
number equation and its slope, the thermal two-occupation kernel

    P(a, b) = int_0^inf z dz / ((e^{z+a} - 1)(e^{z+b} - 1)),

and the diffraction z-integral

    int_0^inf dz z^{-3} e^{-1/z} e^{delta^2 mu z / 2}.

The kernel and the z-integral are closed forms (dilogarithm and Bessel K),
evaluated with numpy alone: the dilogarithm by series, K2 by an
exponentially convergent trapezoid rule.  The kernel of the shape
function of `scattering`,

    G(a, b) = sum_{n, m >= 1} e^{-n a - m b} / (n + m)^{5/2},

is a divided difference of M(t) = e^t Li_{5/2}(e^{-t}) - 1: of its
expansion about t = 0 (DLMF 25.12.12, with hard-coded zeta(5/2 - k))
below t = 1/2 and of its power series in e^{-t} beyond, both free of
cancellation.  All are deterministic: identical inputs give bit-identical
outputs.
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


# Below this z = e^{-a} the dilogarithm forms lose digits to cancellation
# and their power series, truncated after k = 9, take over.
_SERIES_Z = 0.01
_SERIES_K = np.arange(2.0, 10.0)
_TAIL_COEFFS = 1.0 / _SERIES_K**2

# Between x = 1 and _SERIES_Z, M(z) is its power series through k = 36
# (the next term is below 2e-18 relative); for x <= 1 it comes from the
# expansion of Li2(e^{-y}) in y, whose odd terms -zeta(-j) y^{j+2}/(j+2)!
# for j = 1, 3, .., 19 run in powers of y^2.
_POWER_COEFFS = 1.0 / np.arange(2.0, 37.0) ** 2
_BERNOULLI_COEFFS = np.array([-_NEG_ZETA[j] / math.factorial(j + 2) for j in range(1, 20, 2)])

# Pairs with |a - b| below this fraction of min(m, 1), m their midpoint, take
# the midpoint expansion, where the divided difference would cancel.  Its d^2
# term leaves an O((d/m)^4) error, small enough for a switch relative to m:
# both sides then hold 1e-10 for m >= 1e-4 (5e-9 at m = 1e-6).
_NEAR_PAIR = 1e-2


def _series(z, coefficients):
    """sum_j coefficients[j] z^j by Horner's rule, in place; coefficient rows give one sum per column."""
    z = z.reshape(z.shape + (1,) * (np.ndim(coefficients) - 1))
    total = np.zeros_like(z) + coefficients[-1]
    for c in coefficients[-2::-1]:
        total *= z
        total += c
    return total


def _li2_excess(x):
    """M(z) = (Li2(z) - z)/z = sum_{k>=2} z^{k-1}/k^2 at z = e^{-x}, x >= 0.

    Each element takes one of three forms, evaluated on its own elements
    only: the 8-term series below _SERIES_Z, the 35-term series for x > 1,
    and for x <= 1

        Li2(e^{-y}) = zeta(2) - y (1 - ln y) + y^2 sum_j zeta(-j) (-y)^j/(j+2)!,

    exact at y = 0.  Relative error below 5e-15 against mpmath.
    """
    x = np.asarray(x, dtype=float)
    z = np.exp(-x)
    out = np.empty_like(z)
    tail = z < _SERIES_Z
    near = x <= 1.0
    middle = ~(tail | near)
    zt = z[tail]
    out[tail] = zt * _series(zt, _TAIL_COEFFS)
    zm = z[middle]
    out[middle] = zm * _series(zm, _POWER_COEFFS)
    y = x[near]
    y2 = y * y
    with np.errstate(divide="ignore", invalid="ignore"):
        li2 = ZETA2 - y * (1.0 - np.log(y)) - 0.25 * y2 + y2 * y * _series(y2, _BERNOULLI_COEFFS)
    li2[y == 0.0] = ZETA2
    out[near] = li2 / z[near] - 1.0
    return out


def _midpoint_expansion(m, d, excess):
    """P(m - d/2, m + d/2) = P(m, m) + E(m) d^2 + O(d^4), at z = e^{-m}.

    P(m, m) = z^2 M'(z) = -ln(1 - z) - Li2(z), with Li2(z) = z (1 + M(z))
    from `excess` = M(z), and E = [z/(1-z)^2 - 3z/(1-z) - 2 ln(1-z)] / 24,
    both by series below _SERIES_Z.
    """
    z = np.exp(-m)
    one_minus = -np.expm1(-m)
    k = _SERIES_K
    small = z < _SERIES_Z
    diagonal = np.where(small, z * z * _series(z, (k - 1) / k**2),
                        -np.log(one_minus) - z * (1.0 + excess))
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
    if not (np.all(a >= 0) and np.all(b >= 0)):  # comparisons with nan are false, so nan fails too
        raise ValueError("p_kernel arguments a, b must be non-negative")
    if np.any((a < 1e-14) & (b < 1e-14)):
        raise ValueError("p_kernel diverges logarithmically at a = b = 0")
    gap = np.abs(a - b)
    mid = 0.5 * (a + b)
    near = gap < _NEAR_PAIR * np.minimum(mid, 1.0)
    # one M evaluation for a, b and the near-pair midpoints: its cost is
    # mostly per call, not per element
    excess = _li2_excess(np.concatenate([a.ravel(), b.ravel(), mid[near]]))
    excess_a = excess[:a.size].reshape(a.shape)
    excess_b = excess[a.size:a.size + b.size].reshape(b.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.asarray(np.abs(excess_a - excess_b) * np.exp(-np.minimum(a, b)) / np.expm1(gap))
    if np.any(near):
        value[near] = _midpoint_expansion(mid[near], gap[near], excess[a.size + b.size:])
    return float(value) if value.ndim == 0 else value


# zeta(5/2 - k) for k = 0..20, the values of 40-digit mpmath rounded to double.
_ZETA_HALF = (
    1.341487257250917, 2.612375348685488, -1.4603545088095868, -0.20788622497735457, -0.025485201889833036,
    0.008516928777850331, 0.004441011335479432, -0.0030916692472158338, -0.0026714580198992244,
    0.0027467679395368687, 0.00326903957260022, -0.00441603287300489, -0.006672172296466641,
    0.011146122473942813, 0.02039697871594279, -0.04057496748119458, -0.08717525590621725,
    0.2011740493842269, 0.4962712199120576, -1.303229250705114, -3.629759299774574,
)

# G is made of divided differences of M(t) = sum_{N>=2} e^{-(N-1) t}/N^{5/2}.  Up to
# _PIVOT, M = Gamma(-3/2) t^{3/2} e^t + Q(t), with Q(t) = e^t sum_k zeta(5/2-k) (-t)^k/k! - 1
# (DLMF 25.12.12) through t^20 (the next term is below 1e-20); beyond, M is its power
# series sum_{N=2}^{75} z^{N-1}/N^{5/2} in z = e^{-t} (the next term is below 1e-18 relative).
_PIVOT = 0.5
_BRANCH_GAMMA = 4.0 / 3.0 * math.sqrt(math.pi)
_Q_COEFFS = np.convolve([_ZETA_HALF[k] * (-1.0) ** k / math.factorial(k) for k in range(21)],
                        [1.0 / math.factorial(i) for i in range(21)])[:21]
_Q_COEFFS[0] -= 1.0
_Z_COEFFS = np.concatenate([[0.0], np.arange(2.0, 76.0) ** -2.5])


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


def g_kernel(a, b):
    """G(a, b) = sum_{n, m >= 1} e^{-n a - m b}/(n + m)^{5/2} for 1-D arrays a, b >= 0.

    The sum over n at fixed n + m is geometric, so with lo, hi = min(a, b), max(a, b)

        G(a, b) = e^{-lo} (-M[lo, hi]) / exprel(hi - lo),

    M[lo, hi] the divided difference of M(t) above (M'(lo) at a = b) and
    exprel(d) = expm1(d)/d.  M[lo, hi] is split at _PIVOT, each side
    weighted by its share of hi - lo.  Below, Gamma(-3/2) times the divided
    difference of t^{3/2} e^t, e^x (x + sqrt(xy) + y)/(sqrt(x) + sqrt(y))
    + y^{3/2} e^x exprel(y - x) for x <= y, adds to Q's; above, that of M
    in z, times -e^{-x} exprel(x - y), has terms of one sign.  So no pair
    loses digits at any gap: within 2e-14 of 80-digit mpmath.  Symmetric,
    positive and decreasing in each argument.
    """
    if not (np.all(a >= 0) and np.all(b >= 0)):  # comparisons with nan are false, so nan fails too
        raise ValueError("g_kernel arguments a, b must be non-negative")
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    gap = hi - lo
    x, y = np.minimum(lo, _PIVOT), np.minimum(hi, _PIVOT)
    share = np.divide(y - x, gap, out=(lo < _PIVOT).astype(float), where=gap > 0.0)
    slope = np.zeros_like(gap)
    part = share > 0.0
    x, y = x[part], y[part]
    sx, sy = np.sqrt(x), np.sqrt(y)
    power = np.divide(x + sx * sy + y, sx + sy, out=np.zeros_like(x), where=y > 0.0) + y * sy * _exprel(y - x)
    slope[part] = share[part] * (_BRANCH_GAMMA * np.exp(x) * power + _divided_difference(x, y, _Q_COEFFS))
    part = share < 1.0
    x, y = np.maximum(lo[part], _PIVOT), hi[part]
    z = np.exp(-x)
    slope[part] -= (1.0 - share[part]) * z * _exprel(x - y) * _divided_difference(z, np.exp(-y), _Z_COEFFS)
    with np.errstate(over="ignore"):  # exprel(gap) = inf beyond gap ~ 710, an infinite one included: G is 0
        return np.exp(-lo) * -slope / _exprel(np.minimum(gap, 1e3))


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
