"""Photon scattering off an ideal Bose gas in a 3D isotropic harmonic trap.

Born-approximation rates for the four channels (Rayleigh, diffraction,
Bose-stimulated ground<->excited and excited<->excited transitions) as a
function of momentum transfer and temperature, in trap units and in units
of the one-particle cross section, together with an exact discrete-
spectrum oracle for desk-scale particle numbers.
"""

import importlib

__version__ = "0.1.0"

ZETA3 = 1.2020569031595943  # zeta(3)


def critical_temperature(n_total):
    """Condensation temperature (N / zeta(3))^(1/3) in trap units.

    Defined in the package root, which imports no numpy, so that the CLI
    can check a configuration before numpy loads.
    """
    if not n_total >= 1:  # comparisons with nan are false, so nan fails too
        raise ValueError("n_total must be >= 1")
    return (n_total / ZETA3) ** (1.0 / 3.0)


# Public names by defining submodule.  They are imported on first access
# (PEP 562), so `import trapscatter` itself loads the standard library only.
_EXPORTS = {
    "errors": ("ConfigError", "ConvergenceError", "TruncationError"),
    "thermo": ("TrapEnsemble", "condensate_count", "chemical_potential"),
    "quad": ("polylog3", "diffraction_z_integral"),
    "scattering": ("CHANNELS", "RateBreakdown", "rayleigh",
                   "diffraction_differential", "diffraction_total", "bose_0m_differential",
                   "bose_0m_total", "bose_mm_differential", "bose_mm_total",
                   "excited_pair_shape", "decompose", "decompose_rows"),
    "oracle": ("DiscreteEnsemble", "ScalingFit", "solve_mu_discrete", "exact_breakdown",
               "scaling_probe"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", "ZETA3", "critical_temperature", *_SUBMODULE]


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value
