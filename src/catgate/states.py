"""Position-representation states: coherent, Fock, and cat superpositions.

Conventions (hbar = 1, [q, p] = i):

    <x|alpha> = pi^{-1/4} exp(-(x - x0)^2 / 2 + i p0 x - i p0 x0 / 2)

with alpha = (x0 + i p0)/sqrt(2), so |<x|alpha>|^2 integrates to one and the
mean quadratures are exactly (x0, p0). Every phase downstream (cat assembly,
gate output) relies on this convention, so it is fixed here once.
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

    @property
    def alpha(self) -> complex:
        return (self.x0 + 1j * self.p0) / np.sqrt(2.0)

    @classmethod
    def from_alpha(cls, alpha: complex) -> "CoherentParams":
        return cls(np.sqrt(2.0) * alpha.real, np.sqrt(2.0) * alpha.imag)


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
    """Analytic description of e^{i theta}|alpha_+> + s e^{-i theta}|alpha_->.

    parity_sign is s = +/-1. norm_factor is derived on construction from the
    coherent overlap, N = 2 + 2 Re[s e^{-2i theta} <alpha_+|alpha_->], so the
    assembled wavefunction divided by sqrt(N) has unit norm.
    """

    alpha_plus: complex
    alpha_minus: complex
    phase_theta: float
    parity_sign: int
    norm_factor: float = field(init=False)

    def __post_init__(self) -> None:
        if self.parity_sign not in (-1, 1):
            raise ValueError("parity_sign must be +1 or -1")
        cross = self.parity_sign * np.exp(
            -2j * self.phase_theta + _overlap_exponent(self.alpha_plus, self.alpha_minus)
        )
        object.__setattr__(self, "norm_factor", float(2.0 + 2.0 * cross.real))


def _overlap_exponent(alpha: complex, beta: complex) -> complex:
    """log <alpha|beta> = -|alpha - beta|^2/2 + i Im(conj(alpha) beta).

    This form does not cancel: -|alpha|^2/2 - |beta|^2/2 + conj(alpha) beta
    is the same number, but its real part loses every digit once |alpha|^2
    is 1e16 times |alpha - beta|^2."""
    return -0.5 * abs(alpha - beta) ** 2 + 1j * (np.conj(alpha) * beta).imag


def coherent_wavefunction(params: CoherentParams, grid: Grid1D) -> WaveFunctionGrid:
    """Sample <x|alpha> for alpha given by `params` on `grid`.

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
    plus = coherent_wavefunction(CoherentParams.from_alpha(cat.alpha_plus), grid)
    minus = coherent_wavefunction(CoherentParams.from_alpha(cat.alpha_minus), grid)
    values = (
        np.exp(1j * cat.phase_theta) * plus.values
        + cat.parity_sign * np.exp(-1j * cat.phase_theta) * minus.values
    ) / np.sqrt(cat.norm_factor)
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
