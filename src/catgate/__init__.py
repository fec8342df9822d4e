"""Simulation toolkit for measurement-induced cat states.

A coherent state is entangled with a photon-number resource through a CZ
interaction; homodyning the ancilla leaves the target in a superposition
of two momentum-displaced copies of itself. The package computes the exact
and semiclassical output states, their fidelities to the ideal cat,
homodyne outcome statistics, phase-space (Wigner) maps through a fast
generating-function engine, and the semiclassical branch mapping, with a
deterministic CLI on top.
"""

from .errors import (
    CatGateError,
    ConvergenceError,
    GridCoverageError,
    PhaseDomainError,
    SingularShearError,
    ZeroProbabilityError,
    ZeroStateError,
)
from .gate import (
    GateOutput,
    GateParams,
    TaylorPhase,
    exact_output,
    outcome_norm,
    perfect_cat,
    phase_function,
    semiclassical_output,
    taylor_phase,
)
from .metrics import (
    AcceptanceWindow,
    fidelity,
    fidelity_cat_scan,
    fidelity_scl_scan,
    mixed_fidelity,
    outcome_density,
    scan_grid,
    window_probability,
)
from .numerics import (
    Grid1D,
    default_grid,
    eval_hermite_fn,
    integrate,
    integration_weights,
)
from .phase_map import DiskImage, map_disk, map_point
from .states import (
    CatSuperposition,
    CoherentParams,
    WaveFunctionGrid,
    assemble_cat,
    coherent_wavefunction,
    fock_wavefunction,
    overlap,
)
from .wigner import (
    WignerGrid,
    aligned_state_grid,
    default_axes,
    wigner_cat_reference,
    wigner_mehler,
    wigner_output_quadrature,
    wigner_quadrature,
)

__version__ = "0.1.0"

__all__ = [
    "CatGateError",
    "ConvergenceError",
    "GridCoverageError",
    "PhaseDomainError",
    "SingularShearError",
    "ZeroProbabilityError",
    "ZeroStateError",
    "GateOutput",
    "GateParams",
    "TaylorPhase",
    "exact_output",
    "outcome_norm",
    "perfect_cat",
    "phase_function",
    "semiclassical_output",
    "taylor_phase",
    "AcceptanceWindow",
    "fidelity",
    "fidelity_cat_scan",
    "fidelity_scl_scan",
    "mixed_fidelity",
    "outcome_density",
    "scan_grid",
    "window_probability",
    "Grid1D",
    "default_grid",
    "eval_hermite_fn",
    "integrate",
    "integration_weights",
    "DiskImage",
    "map_disk",
    "map_point",
    "CatSuperposition",
    "CoherentParams",
    "WaveFunctionGrid",
    "assemble_cat",
    "coherent_wavefunction",
    "fock_wavefunction",
    "overlap",
    "WignerGrid",
    "aligned_state_grid",
    "default_axes",
    "wigner_cat_reference",
    "wigner_mehler",
    "wigner_output_quadrature",
    "wigner_quadrature",
    "__version__",
]
