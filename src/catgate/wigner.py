"""Phase-space maps of gate outputs: series engine, quadrature oracle, cat reference.

For a coherent input (x0, p0) and outcome y_m the output Wigner function has
the closed generating-function form (x~ = x - y_m, p~ = p - p0, D = y_m - x0):

    W_n(x, p) = W_0(x~, p~) Wt_n(x~, p~) / N_n
    W_0 = (1/pi) exp{-2 (x~ + D/2)^2 - p~^2/2}
    Wt_n = [rho^n] (1+rho)^{-1/2} exp{2 rho x~^2/(1+rho) + rho p~^2/2}
    N_n  = [rho^n] (1-rho)^{-1/2} exp{rho D^2/2}

evaluated purely by truncated-series arithmetic, no integration. The
exponential splits into an x-only and a p-only factor, so coefficient n of
the product is a single (nx, n+1) by (n+1, np) contraction of per-axis
series; that is what makes this engine orders of magnitude faster than the
direct quadrature

    W(x, p) = (1/pi) int conj(psi(x+z)) psi(x-z) e^{2ipz} dz,

which is kept as the oracle for arbitrary states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridCoverageError, SeriesOverflowError
from .gate import GateParams, exact_output, outcome_norm
from .numerics import (
    Grid1D,
    PowerSeries,
    integration_weights,
    series_exp,
    series_inv_sqrt_one_plus,
    series_mul,
)
from .states import (
    CatSuperposition,
    CoherentParams,
    WaveFunctionGrid,
    assemble_cat,
    coherent_wavefunction,
)

__all__ = [
    "WignerGrid",
    "default_axes",
    "aligned_state_grid",
    "wigner_quadrature",
    "wigner_mehler",
    "wigner_output_quadrature",
    "wigner_cat_reference",
]

# state-boundary magnitude above which the zero-padded z integral is invalid
_EDGE_TOL = 1e-12
# z-step of the oracle; first Simpson alias then sits far above the
# p-bandwidths occurring here
_ORACLE_SPACING = 0.02


@dataclass(frozen=True)
class WignerGrid:
    """Wigner samples W(x_j, p_k) on the product of two axes."""

    x_axis: Grid1D
    p_axis: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.x_axis.count, self.p_axis.count):
            raise ValueError(
                f"value matrix {vals.shape} does not match axes "
                f"({self.x_axis.count}, {self.p_axis.count})"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("Wigner values must be finite")
        object.__setattr__(self, "values", vals)

    def total_mass(self) -> float:
        """Double integral of W over the grid."""
        wx = integration_weights(self.x_axis)
        wp = integration_weights(self.p_axis)
        return float(wx @ self.values @ wp)


def default_axes(params: GateParams, inp: CoherentParams) -> tuple[Grid1D, Grid1D]:
    """201-point axes framing the output support: x within 6 of the centre
    between x0 and y_m, p within 4 beyond the displaced components
    p0 +/- sqrt(2n+1)."""
    x_c = 0.5 * (inp.x0 + params.y_m)
    r = params.radius
    return (
        Grid1D(x_c - 6.0, x_c + 6.0, 201),
        Grid1D(inp.p0 - r - 4.0, inp.p0 + r + 4.0, 201),
    )


def wigner_mehler(
    params: GateParams, inp: CoherentParams, x_axis: Grid1D, p_axis: Grid1D
) -> WignerGrid:
    """Output-state Wigner function from the generating-function series.

    Coefficient n of the two-variable generating function is assembled from
    one batched series per axis: over x, (1+rho)^{-1/2} e^{2 x~^2 rho/(1+rho)}
    (exponent built from the alternating rho/(1+rho) series, exponentiated,
    then multiplied by the binomial square-root series); over p, the plain
    e^{rho p~^2/2} whose coefficients are (p~^2/2)^k / k!. All coefficients
    are real, so the result is exactly real by construction.
    """
    n = params.n
    delta = params.y_m - inp.x0
    x_t = x_axis.xs - params.y_m
    p_t = p_axis.xs - inp.p0

    ratio = np.zeros(n + 1)
    if n >= 1:
        ratio[1::2] = 1.0
        ratio[2::2] = -1.0
    a_expo = PowerSeries(ratio[:, None] * (2.0 * x_t * x_t)[None, :])
    b_expo = np.zeros((n + 1, p_t.size))
    if n >= 1:
        b_expo[1] = 0.5 * p_t * p_t
    gauss_x = np.exp(-2.0 * (x_t + 0.5 * delta) ** 2)
    gauss_p = np.exp(-0.5 * p_t * p_t)
    scale = 1.0 / (np.pi * outcome_norm(n, delta))

    # the series outgrow double precision at several hundred photons, which
    # shows as inf or nan values, checked once below
    with np.errstate(over="ignore", invalid="ignore"):
        a_coeffs = series_mul(series_inv_sqrt_one_plus(1, n), series_exp(a_expo)).coeffs
        b_coeffs = series_exp(PowerSeries(b_expo)).coeffs
        values = a_coeffs.T @ b_coeffs[::-1]
        values *= gauss_x[:, None] * scale
        values *= gauss_p[None, :]
    if not np.all(np.isfinite(values)):
        raise SeriesOverflowError(
            f"Wigner series overflows double precision at photon number n = {n}"
        )
    return WignerGrid(x_axis, p_axis, values)


def wigner_quadrature(state: WaveFunctionGrid, x_axis: Grid1D, p_axis: Grid1D) -> WignerGrid:
    """Direct Wigner transform of a sampled state; works for any input (oracle).

    The correlation conj(psi(x+z)) psi(x-z) is read off the state grid
    without interpolation, so every requested x must coincide with a stored
    sample; build the state with aligned_state_grid to guarantee that. The
    z range is half the state window, continued by zeros beyond the grid,
    which is valid because the state must have decayed below 1e-12 at its
    edges.
    """
    grid = state.grid
    h = grid.spacing
    edge = max(abs(state.values[0]), abs(state.values[-1]))
    if edge > _EDGE_TOL:
        raise GridCoverageError(
            f"state magnitude {edge:.2e} at the grid edge exceeds {_EDGE_TOL}; "
            "widen the state grid"
        )
    idx = np.rint((x_axis.xs - grid.x_min) / h).astype(int)
    aligned = grid.x_min + idx * h
    if np.max(np.abs(aligned - x_axis.xs)) > 1e-9 or np.any(idx < 0) or np.any(idx >= grid.count):
        raise GridCoverageError(
            "requested x axis does not lie on the state grid; "
            "construct the state with aligned_state_grid(x_axis, ...)"
        )
    half = (grid.count - 1) // 2
    padded = np.concatenate(
        [np.zeros(half, dtype=complex), state.values, np.zeros(half, dtype=complex)]
    )
    centers = idx + half
    offsets = np.arange(-half, half + 1)
    corr = np.conj(padded[centers[:, None] + offsets]) * padded[centers[:, None] - offsets]
    z_grid = Grid1D(-half * h, half * h, 2 * half + 1)
    kernel = np.exp(2j * np.outer(offsets * h, p_axis.xs))
    values = ((corr * integration_weights(z_grid)) @ kernel) / np.pi
    residue = float(np.max(np.abs(values.imag)))
    if residue > 1e-10:
        raise GridCoverageError(f"imaginary residue {residue:.2e}; state grid too coarse")
    return WignerGrid(x_axis, p_axis, values.real)


def aligned_state_grid(x_axis: Grid1D, lo: float, hi: float) -> Grid1D:
    """State grid for wigner_quadrature: an integer refinement of x_axis, no
    coarser than _ORACLE_SPACING, extended to cover at least [lo, hi], so the
    requested samples stay exact grid points of the state."""
    refine = max(1, int(np.ceil(x_axis.spacing / _ORACLE_SPACING - 1e-12)))
    h = x_axis.spacing / refine
    m_lo = max(0, int(np.ceil((x_axis.x_min - lo) / h)))
    m_hi = max(0, int(np.ceil((hi - x_axis.x_max) / h)))
    return Grid1D(
        x_axis.x_min - m_lo * h,
        x_axis.x_max + m_hi * h,
        (x_axis.count - 1) * refine + m_lo + m_hi + 1,
    )


def wigner_output_quadrature(
    params: GateParams, inp: CoherentParams, x_axis: Grid1D, p_axis: Grid1D
) -> WignerGrid:
    """Oracle path for the output Wigner map: exact output on an aligned fine
    grid, then direct quadrature. Same signature contents as wigner_mehler so
    the two engines can be compared pointwise."""
    state_grid = aligned_state_grid(x_axis, inp.x0 - 9.0, inp.x0 + 9.0)
    out = exact_output(params, coherent_wavefunction(inp, state_grid)).state
    return wigner_quadrature(out, x_axis, p_axis)


def wigner_cat_reference(cat: CatSuperposition, x_axis: Grid1D, p_axis: Grid1D) -> WignerGrid:
    """Wigner map of an assembled cat, for side-by-side comparison plots."""
    x0s = [np.sqrt(2.0) * cat.alpha_plus.real, np.sqrt(2.0) * cat.alpha_minus.real]
    state_grid = aligned_state_grid(x_axis, min(x0s) - 9.0, max(x0s) + 9.0)
    return wigner_quadrature(assemble_cat(cat, state_grid), x_axis, p_axis)
