"""Scalar figures of merit: fidelities, outcome densities, window averages.

The homodyne outcome density for a coherent input depends only on
Delta = y_m - x0 and has the closed generating-function form

    P(y_m, x0) = e^{-Delta^2/2} N_n / sqrt(2 pi),
    N_n = [rho^n] e^{rho Delta^2/2} (1 - rho)^{-1/2},

which outcome_density evaluates for scalar or array outcomes, with no
grid (the tests check it against grid quadrature of |psi_in h_n|^2).
Window-averaged quantities integrate over the accepted outcomes with
composite Simpson, doubling the node count until successive estimates
agree to 1e-9, and raise ConvergenceError when they do not. The
window-averaged fidelity's numerator is sampled in the outcome frame
u = x - y, where the Hermite factor h_n(u) is the same for every outcome:
it is evaluated once per call and shared by all nodes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, SingularShearError, ZeroProbabilityError
from .gate import (
    GateParams,
    exact_output,
    outcome_norm,
    perfect_cat,
    semiclassical_output,
    taylor_phase,
)
from .numerics import Grid1D, eval_hermite_fn, integration_weights
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


def outcome_density(n: int, x0: float, y_m):
    """Probability density of homodyne outcome y_m for coherent input (x0, any p0).

    Evaluates the generating-function coefficient N_n; y_m is a scalar or
    an array.
    """
    delta = np.atleast_1d(np.asarray(y_m, dtype=float)) - x0
    dens = np.exp(-0.5 * delta * delta) * outcome_norm(n, delta) / np.sqrt(2.0 * np.pi)
    return dens.reshape(np.shape(y_m)) if np.ndim(y_m) else float(dens[0])


def _adaptive_nodes(lo: float, hi: float, evaluate) -> float:
    """Composite Simpson of `evaluate` over [lo, hi], nodes doubled to 1e-9.

    Raises ConvergenceError when an estimate is not finite or when two
    successive estimates still differ by more than the tolerance at
    _MAX_NODES nodes.
    """
    nodes = 201
    prev = None
    while True:
        grid = Grid1D(lo, hi, nodes)
        est = float(evaluate(grid.xs) @ integration_weights(grid))
        if not math.isfinite(est):
            raise ConvergenceError(
                f"adaptive integral over [{lo}, {hi}] is {est} at {nodes} nodes"
            )
        if prev is not None and abs(est - prev) < _ADAPTIVE_TOL:
            return est
        if nodes >= _MAX_NODES:
            raise ConvergenceError(
                f"adaptive integral over [{lo}, {hi}] did not converge to {_ADAPTIVE_TOL} "
                f"within {nodes} nodes; last change {abs(est - prev)}"
            )
        prev = est
        nodes = 2 * nodes - 1


def window_probability(n: int, x0: float, window: AcceptanceWindow) -> float:
    """Probability of the outcome falling inside the acceptance window."""
    lo = window.center - 0.5 * window.width
    hi = window.center + 0.5 * window.width
    return _adaptive_nodes(lo, hi, lambda ys: outcome_density(n, x0, ys))


def _overlap_integrand(n: int, x0: float, width: float):
    """Numerator integrand of mixed_fidelity for a window of `width` at x0.

    Returns weighted_overlap_sq(ys) = |<cat(y)|psi~(y)>|^2 for outcomes ys
    with |y - x0| <= width/2, evaluated in the outcome frame u = x - y. With
    d = y - x0 the overlap is

        pi^{-1/2} int e^{-(u+d)^2} h_n(u) conj(cat)(c) du,
        c = theta0 + p_plus (u + d),

    where conj(cat) = e^{-ic} + s e^{ic} is 2 cos c for s = +1 and -2i sin c
    for s = -1, s = (-1)^n. Only the envelope and the carrier depend on y, so
    h_n, the Simpson weights and pi^{-1/2} are folded once into one weight
    vector. The u-grid spans [-8 - width/2, 8 + width/2], where the envelope
    is below e^{-64} for every accepted d, at a spacing no coarser than
    (16 + 2 sqrt(2n+1) + width)/4000.
    """
    half = 8.0 + 0.5 * width
    step = (16.0 + 2.0 * np.sqrt(2.0 * n + 1.0) + width) / 4000.0
    grid = Grid1D(-half, half, 2 * math.ceil(half / step) + 1)
    u = grid.xs
    weights = integration_weights(grid) * eval_hermite_fn(n, u) / np.sqrt(np.pi)
    sign = -1.0 if n % 2 else 1.0
    trig = np.sin if n % 2 else np.cos
    params = GateParams(n, 0.0)

    def weighted_overlap_sq(ys: np.ndarray) -> np.ndarray:
        d = ys - x0
        # branch data at the input centre for outcome y depend on x0 - y only
        tp = taylor_phase(params, -d)
        out = np.empty(ys.size)
        for i in range(0, ys.size, 256):
            rows = slice(i, i + 256)
            shifted = u[None, :] + d[rows, None]
            carrier = tp.theta0[rows, None] + tp.p_plus[rows, None] * shifted
            out[rows] = (np.exp(-shifted * shifted) * trig(carrier)) @ weights
        # analytic norm of the cat built on the coherent envelope
        norm = 2.0 + 2.0 * sign * np.exp(-tp.p_plus**2) * np.cos(2.0 * tp.theta0)
        return 4.0 * out**2 / norm

    return weighted_overlap_sq


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
    where P alone underflows. It is computed in the outcome frame u = x - y,
    where h_n(u) does not depend on y: one Hermite evaluation per call feeds
    every node, and each node costs one real exponential and one real cosine
    or sine row (see _overlap_integrand).
    """
    if abs(window.center - x0) > 1e-9:
        raise ValueError("acceptance window must be centred at y_m = x0")
    radius = GateParams(n, x0).radius
    if 0.5 * window.width >= radius:
        raise SingularShearError(
            f"window half-width {0.5 * window.width} reaches the turning point "
            f"{radius}; no semiclassical cat exists for the edge outcomes"
        )
    lo = window.center - 0.5 * window.width
    hi = window.center + 0.5 * window.width
    numer = _adaptive_nodes(lo, hi, _overlap_integrand(n, x0, window.width))
    denom = window_probability(n, x0, window)
    if denom < 1e-300:
        raise ZeroProbabilityError("window probability underflows; no outcomes accepted")
    return numer / denom
