"""Position-representation states: coherent, Fock, and cat superpositions.

Conventions (hbar = 1, [q, p] = i):

    psi_in(x) = pi^{-1/4} exp(-(x - x0)^2 / 2 + i p0 x - i p0 x0 / 2)

for the coherent state of mean quadratures (x0, p0), so |psi_in|^2 integrates
to one. Every phase downstream (cat assembly, gate output) relies on this
convention, so it is fixed here once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridCoverageError, ZeroStateError
from .numerics import Grid1D, eval_hermite_fn, integrate

__all__ = [
    "CoherentParams",
    "WaveFunctionGrid",
    "CatSuperposition",
    "coherent_wavefunction",
    "fock_wavefunction",
    "assemble_cat",
    "overlap",
]

# Window half-width outside which a unit-width Gaussian envelope is < 1e-14.
_TAIL = 8.0


@dataclass(frozen=True)
class CoherentParams:
    """Mean quadratures (x0, p0) of a coherent state."""

    x0: float
    p0: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x0) and math.isfinite(self.p0)):
            raise ValueError("coherent-state quadratures must be finite")


@dataclass(frozen=True)
class WaveFunctionGrid:
    """A wavefunction sampled on a uniform grid."""

    grid: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.count,):
            raise ValueError(
                f"value array of shape {vals.shape} does not match a {self.grid.count}-point grid"
            )
        object.__setattr__(self, "values", vals)

    def norm(self) -> float:
        """sqrt of int |psi|^2 dx over the grid."""
        return float(np.sqrt(integrate(np.abs(self.values) ** 2, self.grid).real))


@dataclass(frozen=True)
class CatSuperposition:
    """Analytic description of psi_in(x) (e^{ic} + s e^{-ic}) / sqrt(N),
    c = theta + r (x - x0).

    psi_in is the coherent state at (x0, p0), so the two components sit at
    (x0, p0 +/- r). parity_sign is s = +/-1. norm_factor is
    N = 2 + 2 s e^{-r^2} cos(2 theta) (_cat_norm), so the assembled
    wavefunction divided by sqrt(N) has unit norm.
    """

    x0: float
    p0: float
    r: float
    theta: float
    parity_sign: int

    def __post_init__(self) -> None:
        if self.parity_sign not in (-1, 1):
            raise ValueError("parity_sign must be +1 or -1")

    @property
    def norm_factor(self) -> float:
        return float(_cat_norm(self.parity_sign, self.r, self.theta))


def _cat_norm(s, k, theta):
    """N = 2 + 2 s e^{-k^2} cos(2 theta) = int |psi_in|^2 |e^{ic} + s e^{-ic}|^2 dx
    for c = theta + k (x - x0); scalar or array k and theta."""
    return 2.0 + 2.0 * s * np.exp(-k * k) * np.cos(2.0 * theta)


def coherent_wavefunction(params: CoherentParams, grid: Grid1D) -> WaveFunctionGrid:
    """Sample the coherent state psi_in of `params` on `grid`.

    The grid must cover [x0 - 8, x0 + 8] so the neglected tails stay below
    1e-14 of the peak.
    """
    lo, hi = params.x0 - _TAIL, params.x0 + _TAIL
    if not grid.covers(lo, hi):
        raise GridCoverageError(
            f"grid [{grid.x_min}, {grid.x_max}] does not cover the coherent-state "
            f"window [{lo}, {hi}]"
        )
    x = grid.xs
    values = np.pi ** -0.25 * np.exp(
        -0.5 * (x - params.x0) ** 2 + 1j * params.p0 * (x - 0.5 * params.x0)
    )
    return WaveFunctionGrid(grid, values)


def fock_wavefunction(n: int, grid: Grid1D) -> WaveFunctionGrid:
    """Sample the n-photon wavefunction h_n(x) on `grid`.

    Real and normalized; the grid must cover [-R, R] with R = sqrt(2n+1) + 8
    (classical turning points plus tail room).
    """
    radius = np.sqrt(2.0 * n + 1.0) + _TAIL
    if not grid.covers(-radius, radius):
        raise GridCoverageError(
            f"grid [{grid.x_min}, {grid.x_max}] does not cover the Fock window "
            f"[{-radius}, {radius}]"
        )
    return WaveFunctionGrid(grid, eval_hermite_fn(n, grid.xs).astype(complex))


def assemble_cat(cat: CatSuperposition, grid: Grid1D) -> WaveFunctionGrid:
    """Sample the normalized cat state described by `cat` on `grid`.

    The tests use it as the grid oracle of fidelity_cat_scan and
    wigner_cat_reference, which sample no cat. Cross-checks the grid norm
    against the analytic norm_factor and raises GridCoverageError when they
    disagree, which catches grids that clip a component.
    """
    if cat.norm_factor < 1e-10:
        raise ZeroStateError("cat components cancel; the state has no norm")
    psi_in = coherent_wavefunction(CoherentParams(cat.x0, cat.p0), grid)
    c = cat.theta + cat.r * (grid.xs - cat.x0)
    values = psi_in.values * (np.exp(1j * c) + cat.parity_sign * np.exp(-1j * c))
    values /= np.sqrt(cat.norm_factor)
    state = WaveFunctionGrid(grid, values)
    norm = state.norm()
    if abs(norm - 1.0) > 1e-6:
        raise GridCoverageError(
            f"assembled cat norm {norm} deviates from 1; enlarge or refine the grid"
        )
    return state


def overlap(a: WaveFunctionGrid, b: WaveFunctionGrid) -> complex:
    """<a|b> = int conj(a) b dx. Both states must share one grid."""
    if a.grid != b.grid:
        raise ValueError("overlap requires both states on the same grid")
    return complex(integrate(np.conj(a.values) * b.values, a.grid))
