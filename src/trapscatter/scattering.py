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

G the closed-form kernel `quad.g_kernel`.  One Gauss-Legendre sum evaluates
it: its panels break at r = h, where G has the t^(3/2) branch point of
Li_{5/2}(e^{-t}) on the axis at nu = 0 and sqrt(nu) off it otherwise, grow
geometrically away from that point and end at r = 5, since the integrand is
below 16 G(0, 0) e^{-2 r^2} f.  Every differential rate evaluates f at its
own a and nu directly (`decompose_rows` for all its rows in one call), and
every angle-integrated total is a closed form: that of bose_mm reads
S(nu) = int_0^inf f(a, nu) da (`_shape_integral`).

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
from .errors import ConvergenceError

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

# The r-rule of f: the 12-point Gauss-Legendre rule of each panel, mirrored from
# its positive half and equal to numpy's leggauss(12) bit for bit; the end of the
# range; the panels' growth away from r = h; and the grading floor: a branch point
# closer to the axis than _SHAPE_FLOOR h is taken as on it, moving f by < 1e-14.
_GAUSS_NODES = np.array([0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
                         0.7699026741943047, 0.9041172563704748, 0.9815606342467192])
_GAUSS_WEIGHTS = np.array([0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
                           0.16007832854334642, 0.10693932599531907, 0.04717533638651141])
_GAUSS_NODES = np.concatenate([-_GAUSS_NODES[::-1], _GAUSS_NODES])
_GAUSS_WEIGHTS = np.concatenate([_GAUSS_WEIGHTS[::-1], _GAUSS_WEIGHTS])
_SHAPE_R_MAX = 5.0
_SHAPE_GROWTH = 3.0
_SHAPE_FLOOR = 2.0**-12
# Below this a, f is its limit f(0, nu), off by about (a/12) ln(1/a) < 1e-16 relative.
_SHAPE_TINY = 1e-18


@dataclass(frozen=True)
class RateBreakdown:
    """Per-solid-angle rates of the four processes and their sum."""

    rayleigh: float
    diffraction: float
    bose_0m: float
    bose_mm: float
    valid: dict = field(default_factory=lambda: dict.fromkeys(CHANNELS, True))
    errors: dict = field(default_factory=dict)

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
    flags it there.  delta = inf gives the limit 0.
    """
    quad._check_delta(delta)
    t = ensemble.temperature
    z = quad.diffraction_z_integral(delta, ensemble.mu)
    amplitude = ensemble.n_condensate * math.exp(-0.25 * delta * delta)
    try:
        amplitude += 4.0 * t / delta**4 * z
    except OverflowError:
        pass  # delta^4 beyond the float range: 4T/delta^4 < 1e-205 squares to 0
    return amplitude * amplitude


def diffraction_total(ensemble, k_incident):
    """Angle-integrated diffraction, dominated by the condensate: 2 pi N0^2 / k_i^2."""
    _check_k(k_incident)
    return 2.0 * math.pi * ensemble.n_condensate**2 / k_incident**2


def bose_0m_differential(ensemble, delta):
    """Ground<->excited stimulated rate 2 N0 / (e^{delta^2/2T} - 1).

    Limits: 4 N0 T / delta^2 for delta^2 << 2T, and 2 N0 e^{-delta^2/2T}
    in the thermal tail, 0 at delta = inf.
    """
    quad._check_delta(delta)
    arg = 0.5 * delta * delta / ensemble.temperature
    if arg > 500.0:
        # expm1 would overflow; the rate is a clean Boltzmann tail here.
        return 2.0 * ensemble.n_condensate * math.exp(-arg)
    return 2.0 * ensemble.n_condensate / math.expm1(arg)


def bose_0m_total(ensemble, k_incident):
    """Angular integral of bose_0m_differential from delta = 1, in closed form.

    With u = delta^2/2T the integral is -(4 pi N0 T / k_i^2) ln(1 - e^{-1/2T}),
    whose large-T asymptote is the leading log (4 pi N0 T / k_i^2) ln(2T).
    """
    _check_k(k_incident)
    t = ensemble.temperature
    return (4.0 * math.pi * ensemble.n_condensate * t / k_incident**2
            * -math.log(-math.expm1(-0.5 / t)))


# ---------------------------------------------------------------------------
# Pair-transfer shape function f(a, nu)
# ---------------------------------------------------------------------------

def _shape_nodes(h, nu):
    """Nodes and weights of the Gauss-Legendre panels of the r-integral of f.

    The first panel on either side of r = h is sqrt(nu) wide (h when the
    branch point is within _SHAPE_FLOOR h of the axis), and each next one
    _SHAPE_GROWTH times wider, at most 1: every panel then lies a fixed
    multiple of its width from the branch points at r = +-h +- i sqrt(nu).
    For h >= _SHAPE_R_MAX the branch points lie beyond the range, and unit
    panels cover it.
    """
    if h >= _SHAPE_R_MAX:
        edges = np.arange(0.0, _SHAPE_R_MAX + 0.5)
    else:
        root = math.sqrt(nu)
        width = root if root > _SHAPE_FLOOR * h else h
        offsets = [0.0]
        while offsets[-1] < max(h, _SHAPE_R_MAX - h):
            offsets.append(offsets[-1] + min(width, 1.0))
            width *= _SHAPE_GROWTH
        offsets = np.array(offsets[1:])
        right = h + offsets
        right = right[:np.searchsorted(right, _SHAPE_R_MAX) + 1]
        edges = np.concatenate([[0.0], h - offsets[offsets < h][::-1], [h], right])
    half = 0.5 * np.diff(edges)[:, None]
    return (half * (_GAUSS_NODES + 1.0) + edges[:-1, None]).ravel(), (half * _GAUSS_WEIGHTS).ravel()


def _checked_shape_args(a, nu):
    if not np.all(a > 0):
        raise ValueError("a must be positive")
    if not np.all(nu >= 0):
        raise ValueError("nu must be >= 0")
    return a, nu


def excited_pair_shape(a, nu=0.0):
    """Dimensionless shape function f(a, nu) of the excited<->excited rate.

    a = delta^2/(2T); nu = -mu/T >= 0 shifts both occupation factors.  One
    fixed Gauss-Legendre sum over the graded panels of `_shape_nodes`, within
    2e-13 of 30-digit mpmath for a in [1e-3, 200] (1.52e-13 at a = 3e-3,
    nu = 0.7, the largest measured) and 4e-13 down to a = 1e-4; below _SHAPE_TINY
    the limit f(0, nu).  An infinite a or nu gives 0.  a and nu are scalars
    or 1-D arrays, broadcast together.  All rows' nodes go through one
    `quad.g_kernel` call and each row is summed over its own slice, so each
    element equals the scalar call bit for bit.
    """
    a, nu = _checked_shape_args(*np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(nu, dtype=float)))
    scalar = a.ndim == 0
    a, nu = a.reshape(-1), nu.reshape(-1)
    out = np.zeros(a.size)  # an infinite a or nu keeps 0: f ~ e^{-a/2 - 2 nu}/16 is 0 from a ~ 1480
    finite = (a < math.inf) & (nu < math.inf)
    for i in np.flatnonzero(finite & (a < _SHAPE_TINY)):
        x = math.exp(-nu[i])  # f(0, nu) = [Li2(x) - Li3(x)]/2, as its series where the two cancel
        out[i] = 0.5 * (float(np.sum(x**quad._K * (quad._K - 1) / quad._K_CUBED)) if x <= 0.5
                        else quad.polylog2(x) - quad.polylog3(x))
    rows = np.flatnonzero(finite & (a >= _SHAPE_TINY))
    if rows.size:
        h = 0.5 * np.sqrt(a[rows])
        r, weights = zip(*map(_shape_nodes, h.tolist(), nu[rows].tolist()))
        counts = [x.size for x in r]
        h, shift, r = np.repeat(h, counts), np.repeat(nu[rows], counts), np.concatenate(r)
        g = np.split(quad.g_kernel(shift + (h + r) ** 2, shift + (h - r) ** 2), np.cumsum(counts)[:-1])
        out[rows] = [np.dot(w, x) for w, x in zip(weights, g)]
        out[rows] /= math.sqrt(math.pi)
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
    """S(nu) = int_0^inf f(a, nu) da = sum_{n>=2} H_{n-1} e^{-n nu}/n^3, within 3e-16 of mpmath.

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
    a = 0.5 * delta * delta / t
    return t**3 * excited_pair_shape(a, -ensemble.mu / t)


def bose_mm_total(ensemble, k_incident):
    """Angle-integrated excited<->excited rate (2 pi T^4 / k_i^2) S(nu), S = int f(a, nu) da."""
    _check_k(k_incident)
    t = ensemble.temperature
    return 2.0 * math.pi * t**4 / k_incident**2 * _shape_table(-ensemble.mu / t).integral


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


def _guarded(valid, errors, name, fn):
    """fn() for a valid channel, else 0.0; a numerical failure flags the channel and gives 0.0."""
    if not valid[name]:
        return 0.0
    try:
        return fn()
    except (ConvergenceError, ValueError, ArithmeticError) as exc:
        valid[name] = False
        errors[name] = f"{type(exc).__name__}: {exc}"
        return 0.0


def decompose_rows(ensembles, deltas):
    """`decompose` of each (ensemble, delta) pair; lists of unequal length are a ValueError.

    Row by row come the validity flags, the other three channels and the
    checked inputs of f; then one `excited_pair_shape` call gives f for every
    row whose bose_mm is still valid, and a failure of it flags each of them.
    """
    rows = []
    for ensemble, delta in zip(ensembles, deltas, strict=True):
        t = ensemble.temperature
        quad._check_delta(delta)
        valid, errors = channel_validity(ensemble, delta), {}
        values = [
            _guarded(valid, errors, "rayleigh", lambda: rayleigh(ensemble)[0]),
            _guarded(valid, errors, "diffraction", lambda: diffraction_differential(ensemble, delta)),
            _guarded(valid, errors, "bose_0m", lambda: bose_0m_differential(ensemble, delta)),
            # (T^3, a, nu) of bose_mm = T^3 f(a, nu), checked as f checks them
            _guarded(valid, errors, "bose_mm",
                     lambda: (t**3, *_checked_shape_args(0.5 * delta * delta / t, -ensemble.mu / t))),
        ]
        rows.append((values, valid, errors))
    shape = [row for row in rows if row[1]["bose_mm"]]
    try:
        f = excited_pair_shape(*np.array([values[3][1:] for values, _, _ in shape]).reshape(-1, 2).T)
    except (ConvergenceError, ValueError, ArithmeticError) as exc:
        for values, valid, errors in shape:
            values[3], valid["bose_mm"], errors["bose_mm"] = 0.0, False, f"{type(exc).__name__}: {exc}"
    else:
        for (values, _, _), value in zip(shape, f.tolist()):
            values[3] = values[3][0] * value
    return [RateBreakdown(*values, valid=valid, errors=errors) for values, valid, errors in rows]


def decompose(ensemble, delta):
    """All four differential channels at one momentum transfer: one row of `decompose_rows`.

    Channels outside their validity window are reported as 0 with
    valid=False.  A channel that fails numerically is reported as 0 with
    its error recorded; the other channels still run.
    """
    return decompose_rows([ensemble], [delta])[0]
