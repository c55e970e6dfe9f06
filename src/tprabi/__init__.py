"""Spectral collapse in the two-photon quantum Rabi model.

Truncated-basis Hamiltonian builders, banded and tridiagonal eigensolvers
with a tail-norm convergence filter, closed-form results for the degenerate
regime, and coupling sweeps that locate the collapse point g_c = omega / 2.

The names below are the public API. Everything else is reached through its
module (tprabi.model, tprabi.solver, tprabi.sweep, tprabi.analytic) and may
change.
"""

from .analytic import (
    Regime,
    SpectralCollapseError,
    classify_regime,
    critical_coupling,
    degenerate_spectrum,
    fock_to_position,
    general_solution,
    hermite_gauss,
    plane_wave,
)
from .model import (
    ALL_SUBSPACES,
    FULL,
    ModelParams,
    SubspaceLabel,
    build_full_fock,
    build_subspace_tridiagonal,
    subspace_from_name,
)
from .solver import convergence_filter, solve_hermitian, solve_tridiagonal
from .sweep import (
    RelativeComb,
    SweepConfig,
    detect_collapse,
    exceptional_state,
    locate_collapse,
    refine_collapse,
    refine_comb,
    run_sweep,
    solve_point,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_SUBSPACES",
    "FULL",
    "ModelParams",
    "Regime",
    "RelativeComb",
    "SpectralCollapseError",
    "SubspaceLabel",
    "SweepConfig",
    "build_full_fock",
    "build_subspace_tridiagonal",
    "classify_regime",
    "convergence_filter",
    "critical_coupling",
    "degenerate_spectrum",
    "detect_collapse",
    "exceptional_state",
    "fock_to_position",
    "general_solution",
    "hermite_gauss",
    "locate_collapse",
    "plane_wave",
    "refine_collapse",
    "refine_comb",
    "run_sweep",
    "solve_hermitian",
    "solve_point",
    "solve_tridiagonal",
    "subspace_from_name",
    "__version__",
]
