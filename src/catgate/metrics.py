"""Scalar figures of merit: fidelities, outcome densities, window averages.

The homodyne outcome density for a coherent input depends only on
Delta = y_m - x0 and has the closed generating-function form

    P(y_m, x0) = e^{-Delta^2/2} N_n / sqrt(2 pi),
    N_n = [rho^n] e^{rho Delta^2/2} (1 - rho)^{-1/2},

which is what the default method evaluates; grid quadrature of
|psi_in h_n|^2 is kept alongside as a cross-check. Window-averaged
quantities integrate these densities with composite Simpson, doubling the
node count until successive estimates agree to 1e-9.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularShearError, ZeroProbabilityError
from .gate import (
    GateParams,
    exact_output,
    outcome_norm,
    perfect_cat,
    semiclassical_output,
    taylor_phase,
)
from .numerics import Grid1D, eval_hermite_fn, integrate, integration_weights
from .states import (
    CoherentParams,
    WaveFunctionGrid,
    assemble_cat,
    coherent_wavefunction,
    overlap,
)

__all__ = [
    "AcceptanceWindow",
    "scan_grid",
    "fidelity",
    "fidelity_cat_scan",
    "fidelity_scl_scan",
    "outcome_density",
    "window_probability",
    "mixed_fidelity",
]

_ADAPTIVE_TOL = 1e-9
_MAX_NODES = 6401


class AcceptanceWindow:
    """Outcome acceptance interval [center - width/2, center + width/2]."""

    __slots__ = ("center", "width")

    def __init__(self, center: float, width: float):
        if not (math.isfinite(center) and 0 < width < math.inf):
            raise ValueError("window needs a finite center and a finite positive width")
        self.center = float(center)
        self.width = float(width)

    def __repr__(self) -> str:
        return f"AcceptanceWindow(center={self.center}, width={self.width})"


def scan_grid(n: int, x0: float, y_m: float) -> Grid1D:
    """Wavefunction grid for a gate run with coherent input x0 and outcome y_m.

    Centred between x0 and y_m so the sampled offsets x - x0 depend only on
    (n, y_m - x0); fidelities computed on it are then exactly invariant under
    common translations of (x0, y_m).
    """
    c = 0.5 * (x0 + y_m)
    half = 8.0 + np.sqrt(2.0 * n + 1.0) + 0.5 * abs(y_m - x0)
    return Grid1D(c - half, c + half, 4001)


def fidelity(a: WaveFunctionGrid, b: WaveFunctionGrid) -> float:
    """|<a|b>|^2 for unit-norm states on a shared grid, clamped to [0, 1]."""
    raw = abs(overlap(a, b)) ** 2
    return min(max(raw, 0.0), 1.0)


def fidelity_cat_scan(n: int, y_m: float, x0: float, p0: float = 0.0) -> float:
    """Fidelity between the exact gate output and the ideal cat.

    Coherent input (x0, p0), outcome y_m. The result is independent of p0,
    and at y_m = x0 independent of x0 as well; both invariances hold to
    rounding because the scan grid tracks (x0 + y_m)/2.
    """
    grid = scan_grid(n, x0, y_m)
    params = GateParams(n, y_m)
    inp = CoherentParams(x0, p0)
    out = exact_output(params, coherent_wavefunction(inp, grid)).state
    cat = assemble_cat(perfect_cat(params, inp), grid)
    return fidelity(out, cat)


def fidelity_scl_scan(n: int, y_m: float, x0: float, p0: float = 0.0) -> float:
    """Fidelity between the exact gate output and its semiclassical form."""
    grid = scan_grid(n, x0, y_m)
    params = GateParams(n, y_m)
    psi_in = coherent_wavefunction(CoherentParams(x0, p0), grid)
    out = exact_output(params, psi_in).state
    return fidelity(out, semiclassical_output(params, psi_in))


def outcome_density(n: int, x0: float, y_m, method: str = "series"):
    """Probability density of homodyne outcome y_m for coherent input (x0, any p0).

    method "series" evaluates the generating-function coefficient (default)
    and takes y_m as a scalar or an array; "quadrature" integrates
    |psi_in h_n|^2 on a scan grid for one scalar y_m. The two agree to better
    than 1e-10.
    """
    if method == "series":
        delta = np.atleast_1d(np.asarray(y_m, dtype=float)) - x0
        dens = np.exp(-0.5 * delta * delta) * outcome_norm(n, delta) / np.sqrt(2.0 * np.pi)
        return dens.reshape(np.shape(y_m)) if np.ndim(y_m) else float(dens[0])
    if method == "quadrature":
        grid = scan_grid(n, x0, y_m)
        x = grid.xs
        dens = (
            np.exp(-((x - x0) ** 2)) / np.sqrt(np.pi) * eval_hermite_fn(n, x - y_m) ** 2
        )
        return float(integrate(dens, grid))
    raise ValueError(f"unknown method {method!r}")


def _adaptive_nodes(lo: float, hi: float, evaluate) -> float:
    """Composite Simpson of `evaluate` over [lo, hi], nodes doubled to 1e-9."""
    nodes = 201
    prev = None
    while True:
        grid = Grid1D(lo, hi, nodes)
        est = float(evaluate(grid.xs) @ integration_weights(grid))
        if prev is not None and abs(est - prev) < _ADAPTIVE_TOL:
            return est
        if nodes >= _MAX_NODES:
            return est
        prev = est
        nodes = 2 * nodes - 1


def window_probability(n: int, x0: float, window: AcceptanceWindow) -> float:
    """Probability of the outcome falling inside the acceptance window."""
    lo = window.center - 0.5 * window.width
    hi = window.center + 0.5 * window.width
    return _adaptive_nodes(lo, hi, lambda ys: outcome_density(n, x0, ys))


def mixed_fidelity(n: int, x0: float, window: AcceptanceWindow) -> float:
    """Outcome-averaged cat fidelity over an acceptance window centred at x0.

    F_mix = int_window P(y) F_cat(y) dy / int_window P(y) dy. For each
    accepted outcome y the reference is the ideal cat reconstructed from the
    branch-phase Taylor data at the input centre x0 for that outcome: theta0
    and p_plus vary with y while the shear term is dropped, so the cat's
    relative phase tracks the announced outcome the way feed-forward would.
    Freezing the cat at the window centre instead makes F_cat(y) beat against
    the drifting output phase (zeros near |y - x0| = pi/(2 sqrt(2n+1)) with
    revivals beyond), which is a property of an unadapted receiver rather
    than of the gate. The numerator integrand is evaluated as the squared
    unnormalized overlap |<cat(y)|psi~(y)>|^2 = P(y) F_cat(y), finite even
    where P alone underflows.
    """
    if abs(window.center - x0) > 1e-9:
        raise ValueError("acceptance window must be centred at y_m = x0")
    params = GateParams(n, x0)
    if 0.5 * window.width >= params.radius:
        raise SingularShearError(
            f"window half-width {0.5 * window.width} reaches the turning point "
            f"{params.radius}; no semiclassical cat exists for the edge outcomes"
        )
    half = 8.0 + params.radius + 0.5 * window.width
    grid = Grid1D(x0 - half, x0 + half, 4001)
    psi_in = coherent_wavefunction(CoherentParams(x0, 0.0), grid)
    x = grid.xs
    w_x = integration_weights(grid)
    envelope = w_x * np.abs(psi_in.values) ** 2
    sign = -1.0 if n % 2 else 1.0

    def weighted_overlap_sq(ys: np.ndarray) -> np.ndarray:
        out = np.empty(ys.size)
        for i in range(0, ys.size, 256):
            chunk = ys[i : i + 256, None]
            tp = [taylor_phase(GateParams(n, y), x0) for y in ys[i : i + 256]]
            p_plus = np.array([t.p_plus for t in tp])[:, None]
            theta = np.array([t.theta0 for t in tp])[:, None] - 0.5 * p_plus * x0
            carrier = theta + p_plus * (x[None, :] - 0.5 * x0)
            cat = np.exp(1j * carrier) + sign * np.exp(-1j * carrier)
            # analytic norm of the cat built on the coherent envelope
            norm = 2.0 + 2.0 * sign * np.exp(-p_plus[:, 0] ** 2) * np.cos(
                2.0 * theta[:, 0] + x0 * p_plus[:, 0]
            )
            herm = eval_hermite_fn(n, x[None, :] - chunk)
            out[i : i + 256] = np.abs((np.conj(cat) * herm) @ envelope) ** 2 / norm
        return out

    lo = window.center - 0.5 * window.width
    hi = window.center + 0.5 * window.width
    numer = _adaptive_nodes(lo, hi, weighted_overlap_sq)
    denom = _adaptive_nodes(lo, hi, lambda ys: outcome_density(n, x0, ys))
    if denom < 1e-300:
        raise ZeroProbabilityError("window probability underflows; no outcomes accepted")
    return numer / denom
