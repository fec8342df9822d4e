"""Simulation toolkit for measurement-induced cat states.

A coherent state is entangled with a photon-number resource through a CZ
interaction; homodyning the ancilla leaves the target in a superposition
of two momentum-displaced copies of itself. The package computes the exact
and semiclassical output states, their fidelities to the ideal cat,
homodyne outcome statistics, phase-space (Wigner) maps through a fast
generating-function engine, and the semiclassical branch mapping, with a
deterministic CLI on top.

Every public name below is importable from the package itself, but its
submodule is imported on first access (PEP 562), so `import catgate` or
`import catgate.cli` loads only what a caller goes on to use.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "errors": (
            "CatGateError",
            "ConvergenceError",
            "GridCoverageError",
            "PhaseDomainError",
            "SingularShearError",
            "ZeroProbabilityError",
            "ZeroStateError",
        ),
        "gate": (
            "GateOutput",
            "GateParams",
            "TaylorPhase",
            "exact_output",
            "outcome_norm",
            "perfect_cat",
            "phase_function",
            "semiclassical_output",
            "taylor_phase",
        ),
        "metrics": (
            "AcceptanceWindow",
            "fidelity",
            "fidelity_cat_scan",
            "fidelity_scl_scan",
            "mixed_fidelity",
            "outcome_density",
            "scan_grid",
            "window_probability",
        ),
        "numerics": (
            "Grid1D",
            "default_grid",
            "eval_hermite_fn",
            "integrate",
            "integration_weights",
        ),
        "phase_map": ("DiskImage", "map_disk", "map_point"),
        "states": (
            "CatSuperposition",
            "CoherentParams",
            "WaveFunctionGrid",
            "assemble_cat",
            "coherent_wavefunction",
            "fock_wavefunction",
            "overlap",
        ),
        "wigner": (
            "WignerGrid",
            "aligned_state_grid",
            "default_axes",
            "wigner_cat_reference",
            "wigner_mehler",
            "wigner_output_quadrature",
            "wigner_quadrature",
        ),
    }.items()
    for name in names
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    """Import the submodule that defines `name`, and keep the name bound here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
