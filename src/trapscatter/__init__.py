"""Photon scattering off an ideal Bose gas in a 3D isotropic harmonic trap.

Born-approximation rates for the four channels (Rayleigh, diffraction,
Bose-stimulated ground<->excited and excited<->excited transitions) as a
function of momentum transfer and temperature, in trap units and in units
of the one-particle cross section, together with an exact discrete-
spectrum oracle for desk-scale particle numbers.
"""

import importlib

__version__ = "0.1.0"

# Public names by defining submodule.  They are imported on first access
# (PEP 562), so `import trapscatter` itself loads the standard library only.
_EXPORTS = {
    "errors": ("ConfigError", "ConvergenceError", "PrecisionLossError", "TruncationError"),
    "thermo": ("ZETA3", "TrapEnsemble", "critical_temperature", "condensate_count",
               "excited_count", "chemical_potential", "occupation", "degeneracy"),
    "quad": ("polylog3", "diffraction_z_integral"),
    "scattering": ("CHANNELS", "Kinematics", "RateBreakdown", "rayleigh",
                   "diffraction_differential", "diffraction_total", "bose_0m_differential",
                   "bose_0m_total", "bose_mm_differential", "bose_mm_total",
                   "excited_pair_shape", "decompose"),
    "oracle": ("DiscreteEnsemble", "ScalingFit", "solve_mu_discrete", "exact_breakdown",
               "scaling_probe"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SUBMODULE]


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value
