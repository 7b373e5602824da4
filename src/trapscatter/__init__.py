"""Photon scattering off an ideal Bose gas in a 3D isotropic harmonic trap.

Born-approximation rates for the four channels (Rayleigh, diffraction,
Bose-stimulated ground<->excited and excited<->excited transitions) as a
function of momentum transfer and temperature, in trap units and in units
of the one-particle cross section, together with an exact discrete-
spectrum oracle for desk-scale particle numbers.
"""

__version__ = "0.1.0"

from .errors import ConfigError, ConvergenceError, PrecisionLossError, TruncationError
from .oscillator import overlap_exact, overlap_ground_exact, overlap_wkb
from .quad import diffraction_z_integral, p_kernel, polylog3
from .scattering import (
    CHANNELS,
    Kinematics,
    RateBreakdown,
    bose_0m_differential,
    bose_0m_total,
    bose_mm_differential,
    bose_mm_total,
    decompose,
    diffraction_differential,
    diffraction_total,
    excited_pair_shape,
    rayleigh,
)
from .oracle import DiscreteEnsemble, ScalingFit, exact_breakdown, scaling_probe, solve_mu_discrete
from .thermo import (
    ZETA3,
    TrapEnsemble,
    chemical_potential,
    condensate_count,
    critical_temperature,
    degeneracy,
    excited_count,
    occupation,
)

__all__ = [
    "__version__",
    "CHANNELS",
    "ZETA3",
    "TrapEnsemble",
    "DiscreteEnsemble",
    "Kinematics",
    "RateBreakdown",
    "ScalingFit",
    "ConfigError",
    "ConvergenceError",
    "PrecisionLossError",
    "TruncationError",
    "critical_temperature",
    "condensate_count",
    "excited_count",
    "chemical_potential",
    "occupation",
    "degeneracy",
    "polylog3",
    "p_kernel",
    "diffraction_z_integral",
    "overlap_ground_exact",
    "overlap_exact",
    "overlap_wkb",
    "rayleigh",
    "diffraction_differential",
    "diffraction_total",
    "bose_0m_differential",
    "bose_0m_total",
    "bose_mm_differential",
    "bose_mm_total",
    "excited_pair_shape",
    "decompose",
    "solve_mu_discrete",
    "exact_breakdown",
    "scaling_probe",
]
