"""Simulation toolkit for measurement-induced cat states.

A coherent state is entangled with a photon-number resource through a CZ
interaction; homodyning the ancilla leaves the target in a superposition
of two momentum-displaced copies of itself. The package computes the exact
and semiclassical output states, their fidelities to the ideal cat,
homodyne outcome statistics, phase-space (Wigner) maps through a fast
generating-function engine, and the semiclassical branch mapping, with a
deterministic CLI on top.

The public names are those in the `__all__` of the modules in _MODULES,
and each is importable from the package itself. `import catgate` or
`import catgate.cli` loads none of those modules; the first access to a
public name, to `catgate.__all__` or to `dir(catgate)` imports them all
and binds their names here (PEP 562).
"""

import functools
import importlib

__version__ = "0.1.0"

_MODULES = ("errors", "gate", "metrics", "numerics", "phase_map", "states", "wigner")


@functools.cache
def _bind() -> None:
    """Import _MODULES and bind each name of their __all__ here, and __all__,
    which lists a name once per module that declares it."""
    modules = [importlib.import_module(f"{__name__}.{m}") for m in _MODULES]
    public = [(name, getattr(m, name)) for m in modules for name in m.__all__]
    globals().update(public, __all__=[name for name, _ in public] + ["__version__"])


def __getattr__(name: str):
    """A public name, bound with all the others on first access."""
    _bind()
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


def __dir__() -> list[str]:
    _bind()
    return sorted(globals())
