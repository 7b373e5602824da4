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
              T^3 f(a) with a = delta^2/(2T) and f the dimensionless
              shape function defined by the nested integral below.

The pair-transfer shape function is

    f(a) = (1/pi) int_{a/4}^inf dx  int_{y-}^{x} dy
           P(x + nu, y + nu) [(y - y-)(y+ - y)]^(-1/2),
    y+- = x + a +- 2 sqrt(a x),     nu = -mu/T,

with P the thermal pair kernel from `quad`.  The support boundary carries
an integrable inverse-square-root singularity, removed by quadratic
substitutions before Gauss-Legendre quadrature.  For mu = 0 the function
is precomputed on a log-spaced grid a in [1e-3, 40] (120 points) with
monotone cubic interpolation; a direct nested-quadrature evaluation is
available for validation.

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
from scipy.interpolate import PchipInterpolator

from . import quad
from .errors import ConvergenceError
from .quad import DEFAULT_SPEC, QuadSpec

__all__ = [
    "CHANNELS",
    "Kinematics",
    "RateBreakdown",
    "rayleigh",
    "diffraction_differential",
    "diffraction_total",
    "diffraction_total_excited",
    "bose_0m_differential",
    "bose_0m_total",
    "bose_0m_total_numeric",
    "bose_mm_differential",
    "bose_mm_total",
    "excited_pair_shape",
    "channel_validity",
    "decompose",
]

CHANNELS = ("rayleigh", "diffraction", "bose_0m", "bose_mm")

# Shape-function grid (mu = 0): log-spaced, cached per process.
_SHAPE_A_GRID = np.geomspace(1e-3, 40.0, 120)

# Nested-quadrature resolutions tried in order: (outer, middle, kernel) nodes.
_SHAPE_LADDER = ((96, 32, 64), (144, 48, 96), (216, 72, 144))

# The triple nest relaxes the inner tolerance to bound cost.
_SHAPE_REL_TOL = 1e-5

# Chemical-potential shifts below this are indistinguishable from 0 for f.
_NU_FLOOR = 1e-3


@dataclass(frozen=True)
class Kinematics:
    """Incident photon momentum and momentum transfer, small-angle regime."""

    k_incident: float
    delta: float = 0.0

    def __post_init__(self):
        if self.k_incident <= 0:
            raise ValueError("k_incident must be positive")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.delta > 2.0 * self.k_incident:
            raise ValueError("delta exceeds the elastic bound 2 k_incident")

    @property
    def theta(self):
        return self.delta / self.k_incident


@dataclass(frozen=True)
class RateBreakdown:
    """Per-solid-angle rates of the four processes and their sum."""

    rayleigh: float
    diffraction: float
    bose_0m: float
    bose_mm: float
    total: float
    valid: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    @classmethod
    def build(cls, rayleigh, diffraction, bose_0m, bose_mm, valid=None, errors=None):
        total = rayleigh + diffraction + bose_0m + bose_mm
        return cls(
            rayleigh=rayleigh,
            diffraction=diffraction,
            bose_0m=bose_0m,
            bose_mm=bose_mm,
            total=total,
            valid=valid if valid is not None else {c: True for c in CHANNELS},
            errors=errors if errors is not None else {},
        )

    def channel(self, name):
        if name not in CHANNELS:
            raise KeyError(name)
        return getattr(self, name)


def rayleigh(ensemble):
    """Isotropic reference channel: (dsigma/dOmega, sigma) = (N, 4 pi N)."""
    n = float(ensemble.n_total)
    return n, 4.0 * math.pi * n


def diffraction_differential(ensemble, delta, spec=DEFAULT_SPEC):
    """|N0 e^{-delta^2/4} + (4T/delta^4) Z|^2 with Z = 1 at mu = 0.

    The square keeps the condensate-cloud cross term.  Below the
    delta^2 T >= 1 regime the excited term is an extrapolation; `decompose`
    flags it there.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    t = ensemble.temperature
    z = quad.diffraction_z_integral(delta, ensemble.mu, t, spec)
    amplitude = ensemble.n_condensate * math.exp(-0.25 * delta * delta)
    amplitude += 4.0 * t / delta**4 * z
    return amplitude * amplitude


def diffraction_total(ensemble, kin):
    """Angle-integrated diffraction, dominated by the condensate: 2 pi N0^2 / k_i^2."""
    return 2.0 * math.pi * ensemble.n_condensate**2 / kin.k_incident**2


def diffraction_total_excited(ensemble, kin, spec=DEFAULT_SPEC):
    """Excited-cloud part of the diffraction total, cut off at delta = T^{-1/2}.

    Integrates (4T/delta^4)^2 over solid angle from the smallest momentum
    transfer the discrete spectrum supports; scales as Ne^{5/3}/k_i^2.
    """
    t = ensemble.temperature
    k = kin.k_incident

    def integrand(d):
        return (4.0 * t / d**4) ** 2 * 2.0 * math.pi * d / k**2

    return quad._quad_or_raise(integrand, t**-0.5, np.inf, spec, "diffraction_total_excited")


def bose_0m_differential(ensemble, delta):
    """Ground<->excited stimulated rate 2 N0 / (e^{delta^2/2T} - 1).

    Limits: 4 N0 T / delta^2 for delta^2 << 2T, and 2 N0 e^{-delta^2/2T}
    in the thermal tail.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    arg = 0.5 * delta * delta / ensemble.temperature
    if arg > 500.0:
        # expm1 would overflow; the rate is a clean Boltzmann tail here.
        return 2.0 * ensemble.n_condensate * math.exp(-arg)
    return 2.0 * ensemble.n_condensate / math.expm1(arg)


def bose_0m_total(ensemble, kin):
    """Leading-log estimate of the ground<->excited total: (4 pi N0 T / k_i^2) ln(2T)."""
    t = ensemble.temperature
    if t <= 1.0:
        raise ValueError("bose_0m_total estimate requires T > 1 (log turns negative)")
    return 4.0 * math.pi * ensemble.n_condensate * t / kin.k_incident**2 * math.log(2.0 * t)


def bose_0m_total_numeric(ensemble, kin, spec=DEFAULT_SPEC):
    """Direct angular integral of bose_0m_differential from delta = 1."""
    k = kin.k_incident

    def integrand(d):
        return bose_0m_differential(ensemble, d) * 2.0 * math.pi * d / k**2

    return quad._quad_or_raise(integrand, 1.0, np.inf, spec, "bose_0m_total_numeric")


# ---------------------------------------------------------------------------
# Pair-transfer shape function f(a)
# ---------------------------------------------------------------------------

def _pair_kernel_batch(a, b_vec, order):
    """P(a, b) for one a and a vector of b, on a shared z-grid.

    Same two-piece rule as quad.p_kernel: a log map resolving the smallest
    argument scale on z in [0, 1], then a plain rule on [1, 46].
    """
    scale = max(min(a, float(np.min(b_vec))), 1e-9)
    tmax = np.log1p(1.0 / scale)
    x, w = quad._leggauss(order)
    t = 0.5 * tmax * (x + 1.0)
    wt = (0.5 * tmax * w) * (scale * np.exp(t))
    z1 = scale * np.expm1(t)
    z2 = 0.5 * 45.0 * (x + 1.0) + 1.0
    w2 = 0.5 * 45.0 * w
    with np.errstate(over="ignore"):
        f1 = z1[:, None] / (np.expm1(z1 + a)[:, None] * np.expm1(z1[:, None] + b_vec[None, :]))
        f2 = z2[:, None] / (np.expm1(z2 + a)[:, None] * np.expm1(z2[:, None] + b_vec[None, :]))
    return wt @ f1 + w2 @ f2


def _pair_shape_fixed(a, nu, n_outer, n_mid, kernel_order):
    """One fixed-resolution evaluation of f(a) at chemical shift nu."""
    xg, wg = quad._leggauss(n_mid)
    xo, wo = quad._leggauss(n_outer)
    # outer: x = a/4 + s^2 removes the sqrt vanishing of the y-window
    smax = math.sqrt(60.0)
    s = 0.5 * smax * (xo + 1.0)
    ws = 0.5 * smax * wo
    total = 0.0
    for si, wi in zip(s, ws):
        x = 0.25 * a + si * si
        ym = x + a - 2.0 * math.sqrt(a * x)
        yp = x + a + 2.0 * math.sqrt(a * x)
        umax = math.sqrt(max(x - ym, 0.0))
        if umax <= 0.0:
            continue
        # middle: y = ym + u^2 removes the boundary singularity at y-
        u = 0.5 * umax * (xg + 1.0)
        wu = 0.5 * umax * wg
        y = ym + u * u
        p = _pair_kernel_batch(x + nu, y + nu, kernel_order)
        inner = float(np.dot(wu, 2.0 * p / np.sqrt(yp - y)))
        total += wi * 2.0 * si * inner
    return total / math.pi


def _pair_shape_adaptive(a, nu, spec):
    """Reference evaluation: adaptive outer/middle quadrature, scalar kernel.

    Slow; used to validate the fixed-rule path.
    """
    relaxed = QuadSpec(rel_tol=1e-6, abs_tol=spec.abs_tol, max_subdivisions=spec.max_subdivisions)

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
            return quad.p_kernel(x + nu, y + nu, relaxed) / math.sqrt(r)

        return quad.sqrt_singular_integral(g, ym, x, relaxed)

    outer = quad._quad_or_raise(middle, 0.25 * a, 0.25 * a + 60.0, relaxed,
                                "excited_pair_shape adaptive")
    return outer / math.pi


def excited_pair_shape(a, nu=0.0, spec=DEFAULT_SPEC, method="fixed"):
    """Dimensionless shape function f(a) of the excited<->excited rate.

    a = delta^2/(2T); nu = -mu/T >= 0 shifts both occupation factors above
    the transition.  method="fixed" runs the production Gauss-Legendre
    nest with a built-in resolution ladder; method="adaptive" is the slow
    validation route.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if nu < 0:
        raise ValueError("nu must be >= 0")
    if method == "adaptive":
        return _pair_shape_adaptive(a, nu, spec)
    if method != "fixed":
        raise ValueError(f"unknown method {method!r}")
    return quad._converge(lambda rung: _pair_shape_fixed(a, nu, *rung), _SHAPE_LADDER,
                          _SHAPE_REL_TOL, spec.abs_tol, f"excited_pair_shape({a}, nu={nu})")


class _ShapeTable:
    """f(a) sampled on the standard grid, with log-log monotone interpolation."""

    def __init__(self, nu, spec):
        self.a_grid = _SHAPE_A_GRID
        self.f_values = np.array(
            [excited_pair_shape(a, nu, spec) for a in self.a_grid]
        )
        self._loglog = PchipInterpolator(np.log(self.a_grid), np.log(self.f_values))
        # tail decay rate measured from the last grid segment
        self.tail_slope = (
            math.log(self.f_values[-1] / self.f_values[-2])
            / (self.a_grid[-1] - self.a_grid[-2])
        )
        # integral of the interpolant plus flat head and exponential tail
        body = PchipInterpolator(self.a_grid, self.f_values).integrate(
            self.a_grid[0], self.a_grid[-1]
        )
        head = self.f_values[0] * self.a_grid[0]
        tail = self.f_values[-1] / -self.tail_slope
        self.integral = float(head + body + tail)

    def __call__(self, a):
        if a < self.a_grid[0]:
            return float(self.f_values[0])
        if a > self.a_grid[-1]:
            return float(self.f_values[-1] * math.exp(self.tail_slope * (a - self.a_grid[-1])))
        return float(math.exp(self._loglog(math.log(a))))


_SHAPE_TABLE_CACHE = {}


def _shape_table(nu=0.0, spec=DEFAULT_SPEC):
    key = round(nu, 9)
    if key not in _SHAPE_TABLE_CACHE:
        _SHAPE_TABLE_CACHE[key] = _ShapeTable(nu, spec)
    return _SHAPE_TABLE_CACHE[key]


def _effective_nu(ensemble):
    nu = -ensemble.mu / ensemble.temperature
    return 0.0 if nu < _NU_FLOOR else nu


def bose_mm_differential(ensemble, delta, spec=DEFAULT_SPEC):
    """Excited<->excited stimulated rate T^3 f(delta^2/2T).

    The mu = 0 path reads the cached f-grid; ensembles with a significant
    chemical shift (above the transition) are evaluated directly at their
    nu.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    t = ensemble.temperature
    a = 0.5 * delta * delta / t
    nu = _effective_nu(ensemble)
    if nu == 0.0:
        f = _shape_table(0.0, spec)(a)
    else:
        f = excited_pair_shape(a, nu, spec)
    return t**3 * f


def bose_mm_total(ensemble, kin, spec=DEFAULT_SPEC):
    """Angle-integrated excited<->excited rate (2 pi T^4 / k_i^2) int f(a) da."""
    t = ensemble.temperature
    nu = _effective_nu(ensemble)
    if nu == 0.0:
        shape_integral = _shape_table(0.0, spec).integral
    else:
        table = _ShapeTable(nu, spec)
        shape_integral = table.integral
    return 2.0 * math.pi * t**4 / kin.k_incident**2 * shape_integral


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


def decompose(ensemble, kin, delta=None, spec=DEFAULT_SPEC):
    """All four differential channels at one momentum transfer.

    Channels outside their validity window are reported as 0 with
    valid=False.  A channel that fails numerically is reported as 0 with
    its error recorded; the other channels still run.
    """
    if delta is None:
        delta = kin.delta
    if delta <= 0:
        raise ValueError("delta must be positive")
    valid = channel_validity(ensemble, delta)
    errors = {}

    def run(name, fn):
        if not valid[name]:
            return 0.0
        try:
            return fn()
        except (ConvergenceError, ValueError, ArithmeticError) as exc:
            valid[name] = False
            errors[name] = f"{type(exc).__name__}: {exc}"
            return 0.0

    values = {
        "rayleigh": run("rayleigh", lambda: rayleigh(ensemble)[0]),
        "diffraction": run("diffraction", lambda: diffraction_differential(ensemble, delta, spec)),
        "bose_0m": run("bose_0m", lambda: bose_0m_differential(ensemble, delta)),
        "bose_mm": run("bose_mm", lambda: bose_mm_differential(ensemble, delta, spec)),
    }
    return RateBreakdown.build(
        values["rayleigh"], values["diffraction"], values["bose_0m"], values["bose_mm"],
        valid=valid, errors=errors,
    )
