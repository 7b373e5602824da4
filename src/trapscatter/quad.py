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

is the same closed form with Li_{5/2} in place of Li2, whose expansion
uses hard-coded zeta(5/2 - k).  All are deterministic: identical inputs
give bit-identical outputs.
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
    singularity.  Both branches are accurate to machine precision.
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
    """Dilogarithm Li2(x) for x in [0, 1]: the branches of `polylog3`, differentiated."""
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


# zeta(5/2 - k) for k = 0..25, the values of 40-digit mpmath rounded to
# double.  Shifted by j they are the coefficients of
# Li_{5/2-j}(e^{-t}) = (-d/dt)^j Li_{5/2}(e^{-t}).
_ZETA_HALF = (
    1.341487257250917, 2.612375348685488, -1.4603545088095868, -0.20788622497735457,
    -0.025485201889833036, 0.008516928777850331, 0.004441011335479432, -0.0030916692472158338,
    -0.0026714580198992244, 0.0027467679395368687, 0.00326903957260022, -0.00441603287300489,
    -0.006672172296466641, 0.011146122473942813, 0.02039697871594279, -0.04057496748119458,
    -0.08717525590621725, 0.2011740493842269, 0.4962712199120576, -1.303229250705114,
    -3.629759299774574, 10.687327069021993, 33.168325785694606, -108.21747505877606,
    -370.3018783754786, 1326.0458117490157,
)

# For t <= 1, Li_{5/2-j}(e^{-t}) = Gamma(j - 3/2) t^{3/2-j}
# + sum_k zeta(5/2-j-k) (-t)^k/k! (DLMF 25.12.12), j = 0..5, through k = 19
# (the next term of Li_{5/2} is below 2e-18).  For t > 1 the power series in
# z = e^{-t} runs over N = 2..35 (the next term is below 1e-17 relative).
_HALF_SERIES = np.array([[_ZETA_HALF[j + k] / math.factorial(k) for j in range(6)] for k in range(20)])
_HALF_GAMMA = math.sqrt(math.pi) * np.array([4.0 / 3.0, -2.0, 1.0, 0.5, 0.75, 1.875])
_HALF_ORDERS = 1.5 - np.arange(6.0)
_HALF_N = np.arange(2.0, 36.0)
_HALF_POWER = _HALF_N**-2.5
# power-series coefficients of the three midpoint terms of `_half_midpoint`
_HALF_MIDPOINT = np.stack([
    (_HALF_N - 1.0) * _HALF_N**-2.5,
    (_HALF_N - 1.0) * (_HALF_N - 2.0) * _HALF_N**-1.5 / 24.0,
    (3.0 * _HALF_N**4 - 15.0 * _HALF_N**3 + 20.0 * _HALF_N**2 - 8.0) * _HALF_N**-1.5 / 5760.0,
], axis=1)

# Pairs of G with |a - b| below this fraction of min(m, 1), m their midpoint,
# take the midpoint expansion through d^4, whose d^6 remainder stays below
# 1e-14 there; the divided difference beyond keeps 3e-16/|a - b|.
_HALF_NEAR = 1e-2


def _li52_excess(t):
    """M(z) = (Li_{5/2}(z) - z)/z = sum_{N>=2} z^{N-1}/N^{5/2} at z = e^{-t}, t >= 0.

    The expansion in t for t <= 1, exact at t = 0, and the power series
    beyond, each on its own elements and each by Horner's rule.  Relative
    error below 4e-14 against mpmath, most of it from the cancelling
    expansion near t = 1.
    """
    out = np.empty_like(t)
    near = t <= 1.0
    y = t[near]
    li = _series(-y, _HALF_SERIES[:, 0]) + _HALF_GAMMA[0] * y * np.sqrt(y)
    out[near] = li * np.exp(y) - 1.0
    z = np.exp(-t[~near])
    out[~near] = z * _series(z, _HALF_POWER)
    return out


def _half_midpoint(m):
    """Rows (c0, c1, c2) of G(m - d/2, m + d/2) = c0 + c1 d^2 + c2 d^4 + O(d^6).

    The pairs with n + n' = N sum to z^N sinh(u d/2)/sinh(d/2), u = N - 1,
    z = e^{-m}, which expands as u [1 + (u^2 - 1) d^2/24
    + (u^2 - 1)(3u^2 - 7) d^4/5760].  Hence c0 = Li_{3/2} - Li_{5/2},
    c1 = (Li_{-1/2} - 3 Li_{1/2} + 2 Li_{3/2})/24 and
    c2 = (3 Li_{-5/2} - 15 Li_{-3/2} + 20 Li_{-1/2} - 8 Li_{3/2})/5760,
    from the expansions in m for m <= 1 and as power series beyond.
    """
    out = np.empty((m.size, 3))
    small = m <= 1.0
    y = m[small]
    li = _series(-y, _HALF_SERIES) + _HALF_GAMMA * y[:, None] ** _HALF_ORDERS
    out[small, 0] = li[:, 1] - li[:, 0]
    out[small, 1] = (li[:, 3] - 3.0 * li[:, 2] + 2.0 * li[:, 1]) / 24.0
    out[small, 2] = (3.0 * li[:, 5] - 15.0 * li[:, 4] + 20.0 * li[:, 3] - 8.0 * li[:, 1]) / 5760.0
    z = np.exp(-m[~small])
    out[~small] = (z * z)[:, None] * _series(z, _HALF_MIDPOINT)
    return out


def g_kernel(a, b):
    """G(a, b) = sum_{n, m >= 1} e^{-n a - m b}/(n + m)^{5/2} for 1-D arrays a, b >= 0.

    The sum over n at fixed n + m is geometric, so as for `p_kernel`

        G(a, b) = |M(e^{-a}) - M(e^{-b})| e^{-min(a, b)} / expm1(|a - b|),

    now with M(z) = (Li_{5/2}(z) - z)/z.  Pairs with |a - b| <
    _HALF_NEAR min(m, 1), m the midpoint, take the midpoint expansion.
    Symmetric, positive and decreasing in each argument.
    """
    if not (np.all(a >= 0) and np.all(b >= 0)):  # comparisons with nan are false, so nan fails too
        raise ValueError("g_kernel arguments a, b must be non-negative")
    gap = np.abs(a - b)
    mid = 0.5 * (a + b)
    near = gap < _HALF_NEAR * np.minimum(mid, 1.0)
    excess = _li52_excess(np.concatenate([a, b]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = np.abs(excess[:a.size] - excess[a.size:]) * np.exp(-np.minimum(a, b)) / np.expm1(gap)
    if np.any(near):
        c = _half_midpoint(mid[near])
        d2 = gap[near] ** 2
        value[near] = c[:, 0] + d2 * (c[:, 1] + d2 * c[:, 2])
    return value


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
