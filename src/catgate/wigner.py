"""Phase-space maps of gate outputs: closed-form engine, quadrature oracle, cat reference.

For a coherent input (x0, p0) and outcome y_m the output Wigner function is
a generating-function coefficient (x~ = x - y_m, p~ = p - p0, D = y_m - x0):

    W_n(x, p) = W_0(x~, p~) Wt_n(x~, p~) / N_n
    W_0 = (1/pi) exp{-2 (x~ + D/2)^2 - p~^2/2}
    Wt_n = [rho^n] (1+rho)^{-1/2} exp{2 rho x~^2/(1+rho) + rho p~^2/2}
    N_n  = [rho^n] (1-rho)^{-1/2} exp{rho D^2/2}

The x factor is a Laguerre generating function whose coefficients are
H_{2k}(sqrt(2) x~)/(4^k k!) (DLMF 18.12.13, 18.7.19) and the p factor has
coefficients (p~^2/2)^j/j!. Folding the Gaussians in leaves only bounded
terms,

    W_n = pi^{-3/4} e^{-(x - x0)^2} sum_k sqrt(c_k) h_{2k}(sqrt(2) x~)
          Pois(n - k; p~^2/2) / M_n,
    c_k = C(2k,k)/4^k <= 1,   M_n = e^{-D^2/2} N_n = sum_k c_k Pois(n - k; D^2/2),

with h_m the normalized Hermite function, so W is one (nx, n+1) by
(n+1, np) contraction of Hermite rows over x and Poisson rows over p, with
no integration; that is what makes this engine orders of magnitude faster
than the direct quadrature

    W(x, p) = (1/pi) int conj(psi(x+z)) psi(x-z) e^{2ipz} dz,

which is kept as the oracle for arbitrary states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import GridCoverageError, ZeroProbabilityError
from .gate import GateParams, _central_binomials, exact_output, outcome_norm
from .numerics import Grid1D, _hermite_orders, _poisson_weights, integration_weights
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
# largest x~^2 at which e^{-x~^2} is still a normal double
_HERMITE_START_LIMIT = 708.0
# largest |x - y_m| of a default x axis, within sqrt(_HERMITE_START_LIMIT)
_AXIS_REACH = 26.6


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
    """Axes framing the output support: x from 6 beyond the peak of the x
    marginal on the side of x0 to 6 beyond the centre x_c = (x0 + y_m)/2 on
    the side of y_m, p within 4 beyond the displaced components
    p0 +/- sqrt(2n+1).

    The x marginal is e^{-(x-x0)^2} h_n(x - y_m)^2 up to a constant. While
    |y_m - x0| <= sqrt(2n+1), x0 lies where h_n oscillates and the peak sits
    at x0, with the Gaussian tail of width 1/sqrt(2); beyond that, h_n
    decays and the peak sits where the two factors balance (WKB),
    (|y_m - x0|^2 + 2n + 1)/(2 |y_m - x0|) from y_m, between x0 and x_c,
    with a tail at most 1/2 wide. The axis reaches 6 beyond that peak, but
    not past 26.6 from y_m where the Hermite rows of wigner_mehler start
    to underflow, unless that leaves under 5.5 widths of tail; then the
    state may lie out of their range and wigner_mehler raises
    GridCoverageError rather than print a map that misses it.

    The p axis takes max(201, 2 ceil(36 sqrt(2n+1)/(2 pi)) + 1) points,
    201 up to n = 151, so the interference fringes, whose period shrinks as
    pi/sqrt(2n+1), stay resolved, and x keeps at least that density over
    its span. At y_m = x0 both axes are centred with that count, and the
    Simpson mass is within 1e-7 of 1 from n = 10 up to at least n = 2000.
    """
    d = params.y_m - inp.x0
    r = params.radius
    count = max(201, 2 * math.ceil(36.0 * r / (2.0 * math.pi)) + 1)
    # distance from y_m of the x marginal's peak, and the least margin beyond
    # it that holds 5.5 standard deviations of its tail
    if abs(d) <= r:
        reach, tail = abs(d), 5.5 / math.sqrt(2.0)
    else:
        reach, tail = 0.5 * (abs(d) + r * r / abs(d)), 5.5 / 2.0
    margin = min(6.0, max(tail, _AXIS_REACH - reach))
    near = params.y_m - math.copysign(reach + margin, d)
    ends = sorted((near, params.y_m - 0.5 * d + math.copysign(6.0, d)))
    x_count = 2 * math.ceil((count - 1) * (ends[1] - ends[0]) / 24.0) + 1
    return (
        Grid1D(ends[0], ends[1], x_count),
        Grid1D(inp.p0 - r - 4.0, inp.p0 + r + 4.0, count),
    )


def wigner_mehler(
    params: GateParams, inp: CoherentParams, x_axis: Grid1D, p_axis: Grid1D
) -> WignerGrid:
    """Output-state Wigner function from its bounded-term closed form.

    W = pi^{-3/4} e^{-(x - x0)^2} sum_k sqrt(c_k) h_{2k}(sqrt(2) x~)
    Pois(n - k; p~^2/2) / M_n, one (nx, n+1) by (n+1, np) contraction of
    Hermite rows over x and Poisson rows over p; every factor is at most 1,
    so nothing overflows. An outcome whose M_n is below 1e-300 has no
    conditional state and raises ZeroProbabilityError. The Hermite rows
    start from e^{-x~^2}, which leaves the normal double range at
    |x~| > 26.6; an x there at which W need not be negligible raises
    GridCoverageError.
    """
    n = params.n
    m_n = outcome_norm(n, params.y_m - inp.x0)
    if m_n < 1e-300:
        raise ZeroProbabilityError(
            f"outcome y_m={params.y_m} has density {m_n / np.sqrt(2.0 * np.pi)} for "
            f"input x0={inp.x0}; conditional state undefined"
        )
    x_t = x_axis.xs - params.y_m
    p_t = p_axis.xs - inp.p0
    scale = np.exp(-((x_axis.xs - inp.x0) ** 2)) * (np.pi**-0.75 / m_n)
    # h_0(sqrt(2) x~) = pi^{-1/4} e^{-x~^2} leaves the normal range of doubles,
    # and every higher row with it, where x~^2 > 708; W there is bounded by
    # pi^{-1/4} scale (|h_m| <= pi^{-1/4}) and must be negligible
    lost = (x_t * x_t > _HERMITE_START_LIMIT) & (scale > np.finfo(float).eps)
    if np.any(lost):
        raise GridCoverageError(
            f"x = {x_axis.xs[lost][0]} lies beyond |x - y_m| = "
            f"{math.sqrt(_HERMITE_START_LIMIT):.1f}, where the Hermite rows underflow "
            f"but the Wigner map need not vanish; keep the x axis within that distance "
            f"of y_m = {params.y_m}"
        )
    hermite = np.array(list(islice(_hermite_orders(np.sqrt(2.0) * x_t), 0, 2 * n + 1, 2)))
    poisson = _poisson_weights(p_t, n)[:, ::-1] * np.sqrt(_central_binomials(n))
    values = hermite.T @ poisson.T
    values *= scale[:, None]
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
    out = exact_output(params, coherent_wavefunction(inp, state_grid))
    return wigner_quadrature(out, x_axis, p_axis)


def wigner_cat_reference(cat: CatSuperposition, x_axis: Grid1D, p_axis: Grid1D) -> WignerGrid:
    """Wigner map of an assembled cat, for side-by-side comparison plots."""
    x0s = [np.sqrt(2.0) * cat.alpha_plus.real, np.sqrt(2.0) * cat.alpha_minus.real]
    state_grid = aligned_state_grid(x_axis, min(x0s) - 9.0, max(x0s) + 9.0)
    return wigner_quadrature(assemble_cat(cat, state_grid), x_axis, p_axis)
