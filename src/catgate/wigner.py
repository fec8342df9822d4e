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

with h_m the normalized Hermite function: a contraction over k, orders of
magnitude faster than the direct quadrature

    W(x, p) = (1/pi) int conj(psi(x+z)) psi(x-z) e^{2ipz} dz,

kept as the oracle for arbitrary states. The ideal cat's map,
wigner_cat_reference, is a closed form too.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConvergenceError, GridCoverageError
from .gate import GateParams, _central_binomials, _require_density, exact_output, outcome_norm
from .numerics import Grid1D, _hermite_orders, _poisson_weights, integration_weights
from .states import CatSuperposition, CoherentParams, WaveFunctionGrid, coherent_wavefunction

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
# z-step of the oracle, whose first Simpson alias sits far above the p band
_ORACLE_SPACING = 0.02
# most x-axis points, and most p-axis points, times state-grid points of
# the oracle: its whole kernel, or all its correlation rows, 80 MB
_ORACLE_BUDGET = 5_000_000
# x rows per block of the oracle's correlation rows
_BLOCK_ROWS = 32
# most state-grid points times p columns per slice of the oracle's kernel (1 MB)
_SLICE_POINTS = 1 << 16
# most Hermite plus Poisson values per chunk of wigner_mehler's orders, and
# most values of a block of its partial products (512 kB)
_CHUNK_VALUES = 1 << 16
# power of two on wigner_mehler's Poisson weights in the contraction, so
# that none is subnormal; the Hermite mantissas stay below 2^401, so no sum
# comes near overflow
_WEIGHT_SHIFT = 256
# most values of one tile of wigner_mehler's x rows (64 MB)
_TILE_VALUES = 1 << 23
# wigner_mehler leaves out of its contraction the Poisson weights below
# 2^-_BAND_BITS of their p column's largest (math.inf keeps every weight)
_BAND_BITS = 60


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


@lru_cache(maxsize=1)
def _conditional_norm(params: GateParams, inp: CoherentParams) -> float:
    """M_n once the density M_n/sqrt(2 pi) passes _require_density, kept for
    the last (params, inp), which a map's axes and engines share."""
    m_n = outcome_norm(params.n, params.y_m - inp.x0)
    _require_density(m_n / np.sqrt(2.0 * np.pi), params.y_m, inp.x0)
    return m_n


def default_axes(params: GateParams, inp: CoherentParams) -> tuple[Grid1D, Grid1D]:
    """Axes framing the output support: x from 6 beyond the peak of the x
    marginal on the side of x0 to 6 beyond the centre x_c = (x0 + y_m)/2 on
    the side of y_m, p within 4 beyond the displaced components
    p0 +/- sqrt(2n+1).

    The x marginal is e^{-(x-x0)^2} h_n(x - y_m)^2 up to a constant. Its
    peak sits at x0 while |y_m - x0| <= sqrt(2n+1), and beyond that where
    the two factors balance (WKB), (|y_m - x0|^2 + 2n + 1)/(2 |y_m - x0|)
    from y_m, with a tail at most 1/2 wide.

    The p axis takes max(201, 2 ceil(36 sqrt(2n+1)/(2 pi)) + 1) points, so
    the fringes, of period pi/sqrt(2n+1), stay resolved, and x keeps that
    density. At y_m = x0 both axes are centred with that count, and the
    Simpson mass is within 1e-7 of 1 from n = 10 up to at least n = 2000.
    An outcome whose density is below 1e-300 raises ZeroProbabilityError
    before any axis is built.
    """
    _conditional_norm(params, inp)
    d = params.y_m - inp.x0
    r = params.radius
    count = max(201, 2 * math.ceil(36.0 * r / (2.0 * math.pi)) + 1)
    # distance from y_m of the x marginal's peak
    reach = abs(d) if abs(d) <= r else 0.5 * (abs(d) + r * r / abs(d))
    near = params.y_m - math.copysign(reach + 6.0, d)
    ends = sorted((near, params.y_m - 0.5 * d + math.copysign(6.0, d)))
    # the span is at least 12, so x_count >= count even where the ends round together
    x_count = max(count, 2 * math.ceil((count - 1) * (ends[1] - ends[0]) / 24.0) + 1)
    return (
        Grid1D(ends[0], ends[1], x_count),
        Grid1D(inp.p0 - r - 4.0, inp.p0 + r + 4.0, count),
    )


def wigner_mehler(
    params: GateParams, inp: CoherentParams, x_axis: Grid1D, p_axis: Grid1D
) -> WignerGrid:
    """Output-state Wigner function from its bounded-term closed form.

    W = pi^{-3/4} e^{-(x - x0)^2} sum_k sqrt(c_k) h_{2k}(sqrt(2) x~)
    Pois(n - k; p~^2/2) / M_n, every factor at most 1. Each x's Hermite rows
    share one power of two, the largest so far, which joins the x factor at
    the end, so no row underflows where W does not. An outcome whose
    density M_n/sqrt(2 pi) is below 1e-300 raises ZeroProbabilityError.

    The map is made T = min(nx, max(_CHUNK_VALUES // np, n + 1)) x rows at
    a time (_mehler_tiles): T np over _TILE_VALUES raises GridCoverageError
    before any tile exists, and a tile that is not finite raises
    ConvergenceError. A tile takes the orders in chunks of
    _CHUNK_VALUES // (nx + np), the weights scaled by 2^_WEIGHT_SHIFT so
    that none is subnormal, which the FPU multiplies 100 times slower.

    A p column's band is the one range of k where Pois(n - k; p~^2/2) is at
    least 2^-_BAND_BITS = 2^-60 of the column's largest. A chunk is
    contracted only with the columns whose band it meets, at most two
    ranges, each added into the tile in blocks of at most _CHUNK_VALUES
    values; a first chunk that meets every column, as in a map of one
    chunk, is one product. A cell is within
    (n + 1) 2^-60 e^{-(x - x0)^2} / (pi M_n) of the sum over every weight,
    as |h_m| <= pi^{-1/4}: 8.0e-15 of the peak at n = 300 on default axes
    and 2.5e-13 at n = 3000, where 7.0e-21 and 1.7e-18 are measured. There
    the chunks form 17% (n = 3000) and 9% (n = 10^4) of the (n + 1) np
    weights, and take 0.08 and 0.54 s, against 0.17 and 2.4 s for all (2-CPU
    Xeon VM, one BLAS thread). The memory is the result plus one
    chunk and one block: 7.4 MB traced at n = 3000, 6.3 MB of it the result.

    Against 50-digit arithmetic, cells at n = 300 and 3000 are off by at
    most 1.6e-15 of the peak, and at the p edge (2e-8 of the peak) by
    2.7e-12 of the cell at n = 3000, the error of the log-space weights. On
    default axes 2 pi int int W^2 is 1 to 6.8e-13 at n = 3000.
    """
    values = np.zeros((x_axis.count, p_axis.count))
    for _ in _mehler_tiles(params, inp, x_axis, p_axis, values):
        pass
    return WignerGrid(x_axis, p_axis, values)


def _mehler_tiles(params: GateParams, inp: CoherentParams, x_axis: Grid1D, p_axis: Grid1D,
                  out: np.ndarray | None = None):
    """Yield wigner_mehler's map a tile of x rows at a time, in its rows of
    out (zeros) if given, nothing before the first is asked for."""
    n = params.n
    m_n = _conditional_norm(params, inp)
    tile = min(x_axis.count, max(_CHUNK_VALUES // p_axis.count, n + 1))
    if tile * p_axis.count > _TILE_VALUES:
        raise GridCoverageError(
            f"Wigner map at n={n} on {x_axis.count} x {p_axis.count} points is made in tiles of "
            f"{tile * p_axis.count} values, over the budget of {_TILE_VALUES} values a tile"
        )
    x_t = x_axis.xs - params.y_m
    p_t = p_axis.xs - inp.p0
    # a square past the double range is inf, where the x factor is 0
    with np.errstate(over="ignore"):
        scale = np.exp(-((x_axis.xs - inp.x0) ** 2)) * (np.pi**-0.75 / m_n)
    roots = np.ldexp(np.sqrt(_central_binomials(n)), _WEIGHT_SHIFT)
    cut = -_BAND_BITS * math.log(2.0)
    size = max(1, _CHUNK_VALUES // (x_axis.count + p_axis.count))
    for a in range(0, x_axis.count, tile):
        x = slice(a, a + tile)
        orders = islice(_hermite_orders(np.sqrt(2.0) * x_t[x]), 0, 2 * n + 1, 2)
        values = None  # made after the first Poisson weights
        for k0 in range(0, n + 1, size):
            k1 = min(k0 + size, n + 1)
            hermite = np.empty((k1 - k0, scale[x].size))
            binexps = np.empty(hermite.shape, dtype=np.int32)
            for k, (mantissa, binexp) in enumerate(islice(orders, k1 - k0)):
                hermite[k], binexps[k] = mantissa, binexp
            top = binexps.max(axis=0)
            if k0 == 0:
                common = top
            elif np.any(top > common):
                # scale down, in place and exactly, the rows whose exponent this chunk raises
                if values is not None:
                    np.ldexp(values, np.minimum(common - top, 0)[:, None], out=values)
                np.maximum(common, top, out=common)
            # bring the chunk's rows to each x's exponent
            binexps -= common
            np.ldexp(hermite, binexps, out=hermite)
            del binexps
            for c0, c1 in _band_columns(p_t, n, n + 1 - k1, n - k0, cut):
                poisson = _poisson_weights(p_t[c0:c1], n, k0, k1)
                poisson *= roots[k0:k1]
                if c1 - c0 == p_t.size and k0 == 0:
                    values = np.matmul(hermite.T, poisson.T, out=None if out is None else out[x])
                else:
                    if values is None:
                        values = np.zeros((hermite.shape[1], p_t.size)) if out is None else out[x]
                    rows = max(1, _CHUNK_VALUES // (c1 - c0))
                    for r in range(0, values.shape[0], rows):
                        values[r : r + rows, c0:c1] += hermite[:, r : r + rows].T @ poisson.T
                del poisson
            del hermite
        np.ldexp(values, -_WEIGHT_SHIFT, out=values)
        values *= np.ldexp(scale[x], common)[:, None]
        if not np.all(np.isfinite(values)):
            raise ConvergenceError(f"Wigner map at n={n} went non-finite in x rows {a} to "
                                   f"{a + len(values) - 1}")
        yield values
        # the caller's tile is then the only one held while the next is made
        del values


def _band_columns(p_t: np.ndarray, n: int, lo: int, hi: int, cut: float) -> list[tuple[int, int]]:
    """Index ranges of the ascending p~ whose bands hold a j = lo..hi: at
    most two, mirrored about 0. j is in the band of lam = p~^2/2 where
    log lam >= rate(i, j) for i < j and <= it for i > j. Both ends grow
    with j; they are widened by 1e-9, well past any rounding."""
    def rate(i: int, j: int) -> float:
        return (math.lgamma(j + 1.0) - math.lgamma(i + 1.0) + cut) / (j - i)

    ends = (_peak(lambda i: rate(i, lo), 0, lo - 1) if lo else -math.inf,
            -_peak(lambda i: -rate(i, hi), hi + 1, n) if hi < n else math.inf)
    q = [math.sqrt(2.0 * math.exp(end)) * (1.0 + w) for end, w in zip(ends, (-1e-9, 1e-9))]
    starts = [bisect_left(p_t, -q[1]), bisect_left(p_t, q[0])]
    stops = [bisect_right(p_t, -q[0]), bisect_right(p_t, q[1])]
    if stops[0] >= starts[1]:
        starts, stops = starts[:1], stops[1:]
    return [(a, b) for a, b in zip(starts, stops) if a < b]


def _peak(f, a: int, b: int) -> float:
    """Largest f(i), a <= i <= b, for f rising then falling, as rate(i, j)
    does below j and -rate(i, j) above it (log i! is convex)."""
    while a < b:
        m = (a + b) // 2
        a, b = (m + 1, b) if f(m) < f(m + 1) else (a, m)
    return f(a)


def wigner_quadrature(state: WaveFunctionGrid, x_axis: Grid1D, p_axis: Grid1D) -> WignerGrid:
    """Direct Wigner transform of a sampled state; works for any input (oracle).

    The correlation conj(psi(x+z)) psi(x-z) is read off the state grid
    without interpolation, so every x must be a stored sample of its own
    (aligned_state_grid). The z range is half the state window, zeros
    beyond the grid, valid as the state must be below 1e-12 at its edges.

    The e^{2ipz} kernel is built in slices of p columns, each at most
    _SLICE_POINTS complex values (1 MB) where the state grid allows, each
    contracted with the correlation rows of _BLOCK_ROWS x values at a time,
    strided views of the state. Besides the result, the memory is one
    kernel slice plus one block: 3.2 MB in all at n = 300 on a 401 x 401
    map. A state grid whose count times the p count exceeds _ORACLE_BUDGET
    raises GridCoverageError before any kernel is built.
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
    step = idx[1] - idx[0]
    if (np.max(np.abs(aligned - x_axis.xs)) > 1e-9 or idx[0] < 0 or idx[-1] >= grid.count
            or step < 1 or np.any(np.diff(idx) != step)):
        raise GridCoverageError(
            "requested x axis does not lie on the state grid; "
            "construct the state with aligned_state_grid(x_axis, ...)"
        )
    if grid.count * p_axis.count > _ORACLE_BUDGET:
        raise GridCoverageError(
            f"quadrature oracle needs {grid.count} state-grid points for {p_axis.count} p-axis "
            f"points, over its budget of {_ORACLE_BUDGET} for their product"
        )
    half = (grid.count - 1) // 2
    padded = np.pad(state.values, half)
    # row j is padded[i : i + 2 half + 1], centred on the state sample i of x_j
    windows = sliding_window_view(padded, 2 * half + 1)[idx[0] : idx[-1] + 1 : step]
    z = np.arange(-half, half + 1) * h
    weights = integration_weights(Grid1D(-half * h, half * h, 2 * half + 1))
    values = np.empty((x_axis.count, p_axis.count))
    residue = 0.0
    # slices a multiple of 4 columns wide: OpenBLAS's complex kernels then sum
    # each column as in one product over the whole p axis, to the last bit
    for cols in _spans(p_axis.count, max(4, _SLICE_POINTS // windows.shape[1] // 4 * 4)):
        kernel = _fourier_kernel(z, p_axis.xs[cols])
        for rows in _spans(x_axis.count, _BLOCK_ROWS):
            corr = np.conjugate(windows[rows])
            corr *= windows[rows, ::-1]
            corr *= weights
            block = corr @ kernel
            del corr
            block /= np.pi
            residue = max(residue, float(np.max(np.abs(block.imag))))
            values[rows, cols] = block.real
        # the next slice's kernel is built once this one is let go
        del kernel, block
    if residue > 1e-10:
        raise GridCoverageError(f"imaginary residue {residue:.2e}; state grid too coarse")
    return WignerGrid(x_axis, p_axis, values)


def _spans(count: int, width: int) -> list[slice]:
    """range(count) in consecutive slices of `width`, the last one taking a
    remainder of one as well: a one-row or one-column product is a
    matrix-vector product, which BLAS sums in another order."""
    starts = list(range(0, count, width))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [count])]


def _fourier_kernel(z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """e^{2ipz} on the (z, p) product, exponentiated in place."""
    kernel = np.multiply.outer(2j * z, p)
    return np.exp(kernel, out=kernel)


def aligned_state_grid(x_axis: Grid1D, lo: float, hi: float) -> Grid1D:
    """State grid for wigner_quadrature: an integer refinement of x_axis, no
    coarser than _ORACLE_SPACING, covering at least [lo, hi]. A grid whose
    count times the axis count exceeds _ORACLE_BUDGET raises
    GridCoverageError before anything is allocated."""
    refine = max(1, int(np.ceil(x_axis.spacing / _ORACLE_SPACING - 1e-12)))
    h = x_axis.spacing / refine
    m_lo = max(0, int(np.ceil((x_axis.x_min - lo) / h)))
    m_hi = max(0, int(np.ceil((hi - x_axis.x_max) / h)))
    count = (x_axis.count - 1) * refine + m_lo + m_hi + 1
    if x_axis.count * count > _ORACLE_BUDGET:
        raise GridCoverageError(
            f"quadrature oracle needs {count} state-grid points for {x_axis.count} axis "
            f"points, over its budget of {_ORACLE_BUDGET} for their product"
        )
    return Grid1D(x_axis.x_min - m_lo * h, x_axis.x_max + m_hi * h, count)


def wigner_output_quadrature(
    params: GateParams, inp: CoherentParams, x_axis: Grid1D, p_axis: Grid1D
) -> WignerGrid:
    """Oracle path for the output Wigner map: exact output on an aligned fine
    grid, then direct quadrature, with wigner_mehler's arguments and
    refusals, so the two engines can be compared pointwise."""
    _conditional_norm(params, inp)
    state_grid = aligned_state_grid(x_axis, inp.x0 - 9.0, inp.x0 + 9.0)
    out = exact_output(params, coherent_wavefunction(inp, state_grid))
    return wigner_quadrature(out, x_axis, p_axis)


def wigner_cat_reference(cat: CatSuperposition, x_axis: Grid1D, p_axis: Grid1D) -> WignerGrid:
    """Wigner map of the cat psi_in (e^{ic} + s e^{-ic}) / sqrt(N),
    c = theta + r (x - x0), in closed form.

    With x~ = x - x0, p~ = p - p0 and N = cat.norm_factor, each component is
    the coherent input displaced to p0 +/- r, and the cross terms are the
    input's own Gaussian times e^{+/-2ic}:

        W = e^{-x~^2} [e^{-(p~-r)^2} + e^{-(p~+r)^2} + 2 s e^{-p~^2} cos 2(theta + r x~)] / (pi N).

    Every argument, theta included (gate.perfect_cat), is formed from
    offsets, so far from the origin the map keeps the origin's digits, and
    nothing overflows however far apart the components are.
    """
    i, j = np.ogrid[: x_axis.count, : p_axis.count]
    return WignerGrid(x_axis, p_axis, _cat_cells(cat, x_axis.xs, p_axis.xs)(i, j))


def _cat_cells(cat: CatSuperposition, x: np.ndarray, p: np.ndarray):
    """cells(i, j), the values (x[i], p[j]) of wigner_cat_reference's map for
    index arrays i and j, each the same for any i and j: (f[j] g[i] + h[j])
    e[i] / (pi N), its factors made once per axis."""
    x_t, p_t = x - cat.x0, p - cat.p0
    f = 2.0 * cat.parity_sign * np.exp(-p_t * p_t)
    h = np.exp(-((p_t - cat.r) ** 2)) + np.exp(-((p_t + cat.r) ** 2))
    g, e = np.cos(2.0 * (cat.theta + cat.r * x_t)), np.exp(-x_t * x_t)

    def cells(i, j) -> np.ndarray:
        return (f[j] * g[i] + h[j]) * e[i] / (np.pi * cat.norm_factor)

    return cells
