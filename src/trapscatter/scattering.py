"""Differential and total photon-scattering rates for the four processes.

Everything is quoted in units of the one-particle cross section (a common
factor suppressed throughout), with small-angle kinematics
theta ~ delta / k_i and the solid-angle measure
dOmega = delta d(delta) d(phi) / k_i^2.

Channels
--------
rayleigh      incoherent n_i * 1 term: isotropic, dsigma/dOmega = N.
diffraction   coherent elastic term |FT of the density|^2:
              |N0 e^{-delta^2/4} + (4T/delta^4) Z|^2 with Z the
              excited-cloud suppression factor (1 at mu = 0).
bose_0m       stimulated transitions between ground and excited states:
              2 N0 / (e^{delta^2/2T} - 1).
bose_mm       stimulated transitions between two excited states:
              T^3 f(a, nu) with a = delta^2/(2T), nu = -mu/T and f the
              dimensionless shape function below.

The pair-transfer shape function is the thermal pair kernel
P(x, y) = sum_{n,m>=1} e^{-n x - m y}/(n + m)^2 integrated over the pair
support with the weight [(y - y-)(y+ - y)]^(-1/2), y+- = x + a +- 2 sqrt(a x).
That weight is the Jacobian of the 2-D Gaussian overlap
int d^2p e^{-n p^2 - m |p - s|^2} = pi/(n + m) e^{-a n m/(n + m)}, |s|^2 = a,
so f is the double series

    f(a, nu) = (1/2) sum_{n,m>=1} e^{-(n + m) nu - a n m/(n + m)} / (n + m)^3,

whose leading large-a term is e^{-a/2}/16.  The 1-D Gaussian in place of
the 2-D one gives, with h = sqrt(a)/2,

    f(a, nu) = pi^(-1/2) int_0^inf G(nu + (h + r)^2, nu + (h - r)^2) dr,

G the closed-form kernel `quad.g_kernel`.  One fixed tanh-sinh sum evaluates
it, the same for every nu: 91 nodes on each of [0, min(h, 5)] and
[min(h, 5), 5].  At r = h, an end of both intervals, G has the t^(3/2)
branch point of Li_{5/2}(e^{-t}), on the axis at nu = 0 and sqrt(nu) off it
otherwise; the rule's nodes crowd double-exponentially into the ends, so it
needs no grading toward that point.  The range ends at r = 5, since the
integrand is below 16 G(0, 0) e^{-2 r^2} f.  Every differential rate
evaluates f at its own a and nu directly (`decompose_rows` for all its rows
in one call), and every angle-integrated total is a closed form: that of
bose_mm reads S(nu) = int_0^inf f(a, nu) da (`_shape_integral`).

Semiclassical validity: the continuum treatment of excited states breaks
down at small momentum transfer.  `decompose` flags the diffraction
channel below delta^2 T = 1 (unless the thermal cloud is empty) and the
Bose channels below delta = max(1, T^{-1/2}); flagged channels are
reported as 0 with valid=False, and the discrete oracle is the reference
there.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import quad

__all__ = [
    "CHANNELS",
    "RateBreakdown",
    "rayleigh",
    "diffraction_differential",
    "diffraction_total",
    "bose_0m_differential",
    "bose_0m_total",
    "bose_mm_differential",
    "bose_mm_total",
    "excited_pair_shape",
    "channel_validity",
    "decompose",
    "decompose_rows",
]

CHANNELS = ("rayleigh", "diffraction", "bose_0m", "bose_mm")


@dataclass(frozen=True)
class RateBreakdown:
    """Per-solid-angle rates of the four processes and their sum."""

    rayleigh: float
    diffraction: float
    bose_0m: float
    bose_mm: float
    valid: dict = field(default_factory=lambda: dict.fromkeys(CHANNELS, True))

    @property
    def total(self):
        return self.rayleigh + self.diffraction + self.bose_0m + self.bose_mm


def _check_k(k_incident):
    if not k_incident > 0:  # comparisons with nan are false, so nan fails too
        raise ValueError("k_incident must be positive")


def rayleigh(ensemble):
    """Isotropic reference channel: (dsigma/dOmega, sigma) = (N, 4 pi N)."""
    n = float(ensemble.n_total)
    return n, 4.0 * math.pi * n


def diffraction_differential(ensemble, delta):
    """|N0 e^{-delta^2/4} + (4T/delta^4) Z|^2 with Z = 1 at mu = 0.

    The square keeps the condensate-cloud cross term.  Below the
    delta^2 T >= 1 regime the excited term is an extrapolation; `decompose`
    flags it there.  delta = inf gives the limit 0, a delta whose delta^4
    underflows the limit inf.
    """
    quad._check_delta(delta)
    t = ensemble.temperature
    z = quad.diffraction_z_integral(delta, ensemble.mu)
    amplitude = ensemble.n_condensate * math.exp(-0.25 * delta * delta)
    try:
        amplitude += 4.0 * t / delta**4 * z
    except OverflowError:
        pass  # delta^4 beyond the float range: 4T/delta^4 < 1e-205 squares to 0
    except ZeroDivisionError:
        return math.inf  # delta^4 below the float range
    return amplitude * amplitude


def diffraction_total(ensemble, k_incident):
    """Angle-integrated diffraction, dominated by the condensate: 2 pi N0^2 / k_i^2.

    Where that form leaves the float range, 2 pi (N0/k_i)^2: inf, or 0 without a condensate.
    """
    _check_k(k_incident)
    try:
        value = 2.0 * math.pi * ensemble.n_condensate**2 / k_incident**2
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    ratio = ensemble.n_condensate / k_incident
    return value if value < math.inf else 2.0 * math.pi * ratio * ratio


def bose_0m_differential(ensemble, delta):
    """Ground<->excited stimulated rate 2 N0 / (e^{delta^2/2T} - 1).

    Limits: 4 N0 T / delta^2 for delta^2 << 2T, and 2 N0 e^{-delta^2/2T}
    in the thermal tail, 0 at delta = inf; where delta^2/2T underflows, the
    small-delta limit: inf, or 0 without a condensate.
    """
    quad._check_delta(delta)
    arg = 0.5 * delta * delta / ensemble.temperature
    if arg == 0.0:
        return math.inf if ensemble.n_condensate > 0 else 0.0
    if arg > 500.0:
        # expm1 would overflow; the rate is a clean Boltzmann tail here.
        return 2.0 * ensemble.n_condensate * math.exp(-arg)
    return 2.0 * ensemble.n_condensate / math.expm1(arg)


def bose_0m_total(ensemble, k_incident):
    """Angular integral of bose_0m_differential from delta = 1, in closed form.

    With u = delta^2/2T the integral is -(4 pi N0 T / k_i^2) ln(1 - e^{-1/2T}),
    whose large-T asymptote is the leading log (4 pi N0 T / k_i^2) ln(2T).
    Where that form leaves the float range, 4 pi (sqrt(N0 T L)/k_i)^2, L that log.
    """
    _check_k(k_incident)
    t = ensemble.temperature
    log = -math.log(-math.expm1(-0.5 / t))
    try:
        value = 4.0 * math.pi * ensemble.n_condensate * t / k_incident**2 * log
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    ratio = math.sqrt(ensemble.n_condensate) * math.sqrt(t * log) / k_incident
    return value if value < math.inf else 4.0 * math.pi * ratio * ratio


# ---------------------------------------------------------------------------
# Pair-transfer shape function f(a, nu)
# ---------------------------------------------------------------------------

def _tanh_sinh(step, reach):
    """Nodes and weights of the tanh-sinh rule on [0, 1] (Takahasi & Mori, Publ. RIMS 9 (1974) 721).

    Nodes (1 + tanh(pi/2 sinh t))/2 at t = step k, |k| <= reach, except those
    that round to an end.  They crowd double-exponentially into both ends,
    so a branch point of the integrand at an end needs no grading toward it.
    """
    t = step * np.arange(-reach, reach + 1)
    u = 0.5 * math.pi * np.sinh(t)
    x = np.tanh(u)
    inside = np.abs(x) < 1.0
    return 0.5 * (1.0 + x[inside]), (0.25 * math.pi * step * np.cosh(t) / np.cosh(u) ** 2)[inside]


# The r-rule of f on each of [0, min(h, R)] and [min(h, R), R], R = _SHAPE_R_MAX:
# 91 nodes, whose weights sum to 1 exactly.
_SHAPE_NODES, _SHAPE_WEIGHTS = _tanh_sinh(0.07, 60)
_SHAPE_R_MAX = 5.0


def excited_pair_shape(a, nu=0.0):
    """Dimensionless shape function f(a, nu) of the excited<->excited rate.

    a = delta^2/(2T); nu = -mu/T >= 0 shifts both occupation factors.  One
    fixed tanh-sinh sum over the r-integral of the module docstring, within
    2e-13 of 30-digit mpmath for a in [1e-4, 200] and 3.5e-13 below, where
    it runs continuously into the limit f(0, nu) = [Li2(e^{-nu}) -
    Li3(e^{-nu})]/2 (the worst near nu = 3e-6, where the rule resolves the
    branch point r = h +- i sqrt(nu)).  An infinite a or nu gives 0.  a
    and nu are scalars or 1-D arrays, broadcast together.  All rows' nodes
    go through one `quad.g_kernel` call and one row-wise sum, so each
    element equals the scalar call bit for bit.
    """
    a, nu = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(nu, dtype=float))
    if not np.all(a > 0):
        raise ValueError("a must be positive")
    if not np.all(nu >= 0):
        raise ValueError("nu must be >= 0")
    scalar = a.ndim == 0
    a, nu = a.reshape(-1), nu.reshape(-1)
    out = np.zeros(a.size)  # an infinite a or nu keeps 0: f ~ e^{-a/2 - 2 nu}/16 is 0 from a ~ 1480
    rows = np.flatnonzero((a < math.inf) & (nu < math.inf))
    if rows.size:
        h = 0.5 * np.sqrt(a[rows])[:, None]
        cut = np.minimum(h, _SHAPE_R_MAX)  # the branch point r = h, as an end of both intervals
        r = np.concatenate([cut * _SHAPE_NODES, cut + (_SHAPE_R_MAX - cut) * _SHAPE_NODES], axis=1)
        weights = np.concatenate([cut * _SHAPE_WEIGHTS, (_SHAPE_R_MAX - cut) * _SHAPE_WEIGHTS], axis=1)
        shift = nu[rows][:, None]
        g = quad.g_kernel((shift + (h + r) ** 2).ravel(), (shift + (h - r) ** 2).ravel())
        out[rows] = np.sum(g.reshape(r.shape) * weights, axis=1) / math.sqrt(math.pi)
    return float(out[0]) if scalar else out


# ln(1 - e^{-s}) = ln s + sum_i _LOG_SERIES[i] s^i through s^12: the term -s/2
# and B_{2k} s^{2k}/(2k (2k)!) = -zeta(1 - 2k) s^{2k}/(2k)!; _LOG_SQUARE is its square.
_LOG_SERIES = np.zeros(13)
_LOG_SERIES[1] = -0.5
_LOG_SERIES[2::2] = [-quad._NEG_ZETA[2 * k - 1] / math.factorial(2 * k) for k in range(1, 7)]
_LOG_SQUARE = np.convolve(_LOG_SERIES, _LOG_SERIES)
# Up to here S(nu) is expanded about nu = 0, beyond it summed (at most 401 terms).
_SHAPE_SWITCH = 0.1


def _shape_integral(nu):
    """S(nu) = int_0^inf f(a, nu) da = sum_{n>=2} H_{n-1} e^{-n nu}/n^3, within 5e-16 of mpmath.

    Nielsen's S_{2,2}(e^{-nu}) (Koelbig, SIAM J. Math. Anal. 17 (1986) 1232).
    Beyond _SHAPE_SWITCH the series runs to n = 40/nu + 1 (e^{-n nu} < 1e-17).
    Below it, as S'' = (1/2) ln^2(1 - e^{-nu}), S(nu) = pi^4/360 - zeta(3) nu
    + (1/2) int_0^nu (nu - s) ln^2(1 - e^{-s}) ds, and ln(1 - e^{-s}) = ln s
    + sum_i _LOG_SERIES[i] s^i makes every term int (nu - s) s^k ln^j s ds elementary.
    """
    if not nu >= 0:
        raise ValueError("nu must be >= 0")
    if nu > _SHAPE_SWITCH:
        n = np.arange(2.0, 40.0 / nu + 2.0)
        return float(np.sum(np.cumsum(1.0 / (n - 1.0)) * np.exp(-n * nu) / n**3))
    if nu == 0.0:
        return math.pi**4 / 360.0
    log = math.log(nu)
    m = np.arange(1.0, _LOG_SQUARE.size + 2.0)
    # int_0^nu s^{m-1} ln^j s ds for j = 0, 1, 2
    moments = nu**m * np.array([1.0 / m, log / m - 1.0 / m**2, (log * log - 2.0 * log / m + 2.0 / m**2) / m])
    # int_0^nu (nu - s) s^k ln^j s ds for k = m - 1
    weighted = nu * moments[:, :-1] - moments[:, 1:]
    integral = (weighted[2, 0] + 2.0 * np.dot(_LOG_SERIES, weighted[1, :_LOG_SERIES.size])
                + np.dot(_LOG_SQUARE, weighted[0]))
    return math.pi**4 / 360.0 - quad.ZETA3 * nu + 0.5 * float(integral)


class _ShapeTable:  # perfbench/trace_child.py looks up this name and _shape_table
    def __init__(self, nu):
        self.integral = _shape_integral(nu)


def _shape_table(nu):
    return _ShapeTable(nu)


def bose_mm_differential(ensemble, delta):
    """Excited<->excited stimulated rate T^3 f(delta^2/2T, -mu/T), f evaluated directly; 0 at delta = inf."""
    quad._check_delta(delta)
    t = ensemble.temperature
    a = max(0.5 * delta * delta / t, math.ulp(0.0))  # an a that underflows to 0: f there is f(0, nu)
    return t**3 * excited_pair_shape(a, -ensemble.mu / t)


def bose_mm_total(ensemble, k_incident):
    """Angle-integrated excited<->excited rate (2 pi T^4 / k_i^2) S(nu), S = int f(a, nu) da.

    Where that form leaves the float range, 2 pi (T^2 z/k_i)^2 S/z^2 with z = e^{-nu} and
    S/z^2 = 1/8 + z/18 + ..., 1/8 in double beyond nu = 37, where S itself may underflow.
    """
    _check_k(k_incident)
    t = ensemble.temperature
    nu = -ensemble.mu / t
    integral = _shape_table(nu).integral
    try:
        value = 2.0 * math.pi * t**4 / k_incident**2 * integral
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    z = math.exp(-nu)
    ratio, scaled = t * t * z / k_incident, 0.125 if nu > 37.0 else integral / (z * z)
    return value if value < math.inf else 2.0 * math.pi * ratio * ratio * scaled


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def channel_validity(ensemble, delta):
    """Where each semiclassical channel can be trusted at this delta.

    The Bose channels need delta >= max(1, T^{-1/2}); the diffraction
    excited term needs delta^2 T >= 1, waived when the thermal cloud is
    empty.  Below these the discrete spectrum matters and the oracle is
    the reference.
    """
    t = ensemble.temperature
    cloud_empty = ensemble.n_excited <= 1e-9 * ensemble.n_total
    bose_min = max(1.0, t**-0.5)
    return {
        "rayleigh": True,
        "diffraction": bool(delta * delta * t >= 1.0 or cloud_empty),
        "bose_0m": bool(delta >= bose_min),
        "bose_mm": bool(delta >= bose_min),
    }


def decompose_rows(ensembles, deltas):
    """`decompose` of each (ensemble, delta) pair; lists of unequal length are a ValueError.

    Row by row come the validity flags and the other three channels; then
    one `excited_pair_shape` call gives f for every row whose bose_mm is valid.
    """
    rows, shape = [], []
    for ensemble, delta in zip(ensembles, deltas, strict=True):
        t = ensemble.temperature
        quad._check_delta(delta)
        valid = channel_validity(ensemble, delta)
        values = [
            rayleigh(ensemble)[0],
            diffraction_differential(ensemble, delta) if valid["diffraction"] else 0.0,
            bose_0m_differential(ensemble, delta) if valid["bose_0m"] else 0.0,
            0.0,
        ]
        if valid["bose_mm"]:  # (row, T^3, a, nu) of bose_mm = T^3 f(a, nu)
            shape.append((values, t**3, 0.5 * delta * delta / t, -ensemble.mu / t))
        rows.append((values, valid))
    f = excited_pair_shape(*np.array([row[2:] for row in shape]).reshape(-1, 2).T)
    for (values, cube, _, _), value in zip(shape, f.tolist()):
        values[3] = cube * value
    return [RateBreakdown(*values, valid=valid) for values, valid in rows]


def decompose(ensemble, delta):
    """All four differential channels at one momentum transfer: one row of `decompose_rows`.

    Channels outside their validity window are reported as 0 with
    valid=False.
    """
    return decompose_rows([ensemble], [delta])[0]
