"""Levitated-nanosphere ring-cavity optomechanics simulator."""

__version__ = "0.1.0"

from .constants import CODATA2018, PhysicalConstants
from .model import (DerivedParams, SystemConfig, damping_and_diffusion,
                    delta0_from_config, derive_constants,
                    electrostatic_spring, ring_field, ring_potential)
from .steady_state import (MeanFieldResult, OperatingPoint,
                           integrate_mean_field, mechanical_frequency,
                           solve_model, solve_resonant_ring_charge, solve_xs,
                           steady_amplitude)
from .dynamics import (StabilityVerdict, StateSpaceModel, build_model,
                       eigenvalue_stability, routh_hurwitz)
from .spectra import (SpectrumTable, TransferCoefficients, output_spectrum,
                      spectrum_sweep, transfer_coefficients)
from .entanglement import (EntanglementPoint, EntanglementResult,
                           covariance_by_integration, entanglement_sweep,
                           log_negativity, lyapunov_solve,
                           symplectic_eigenvalues)
from .pipeline import PointSolution, solve_point

__all__ = [
    "__version__", "CODATA2018", "PhysicalConstants", "SystemConfig",
    "DerivedParams", "derive_constants", "delta0_from_config",
    "damping_and_diffusion", "ring_potential", "ring_field",
    "electrostatic_spring", "OperatingPoint", "solve_model",
    "MeanFieldResult", "solve_xs", "steady_amplitude",
    "mechanical_frequency", "solve_resonant_ring_charge",
    "integrate_mean_field", "StateSpaceModel", "StabilityVerdict",
    "build_model", "routh_hurwitz", "eigenvalue_stability",
    "TransferCoefficients", "SpectrumTable", "transfer_coefficients",
    "output_spectrum", "spectrum_sweep", "EntanglementResult",
    "EntanglementPoint", "lyapunov_solve", "covariance_by_integration",
    "log_negativity", "symplectic_eigenvalues", "entanglement_sweep",
    "PointSolution", "solve_point",
]
