"""Scalar figures of merit: fidelities, outcome densities, window averages.

The homodyne outcome density for a coherent input depends only on
Delta = y_m - x0 and has the closed form

    P(y_m, x0) = M_n / sqrt(2 pi),
    M_n = sum_k C(2k,k)/4^k Pois(n - k; Delta^2/2),

the generating-function coefficient e^{-Delta^2/2} [rho^n]
e^{rho Delta^2/2} (1 - rho)^{-1/2} written as bounded terms, which
outcome_density evaluates for scalar or array outcomes, with no grid (the
tests check it against grid quadrature of |psi_in h_n|^2 and against
exact rational arithmetic). Both fidelities refuse an outcome whose P is
below 1e-300, where no conditional state exists, with
ZeroProbabilityError (gate._require_density), and do so on that closed
form before anything is sampled.
The overlap of the conditional output with a cat built on the input's
coherent envelope is a Hermite generating-function coefficient
(_overlap_sq), given the cat's carrier wavenumber and phase. The cat
fidelity F_cat is that coefficient for the ideal cat over P, with no grid;
the semiclassical fidelity F_scl alone samples both states, on scan_grid.
The probability of an outcome inside an acceptance window is a closed
form, a sum of regularized incomplete gamma functions of half-integer
order written as bounded terms (window_probability), with no quadrature.
The window-averaged fidelity integrates its numerator over the accepted
outcome offsets with composite Simpson, doubling the node count until
successive estimates agree to 1e-9, and raises ConvergenceError when they
do not. That numerator has a closed form at each node: a Hermite
generating-function coefficient, computed for all nodes at once by n
complex steps of the rescaled three-term recurrence of numerics, O(n) work
per node and no grid. Against u-grid Simpson quadrature (a test oracle) it
agrees to a relative 2.3e-15 up to n = 15, 2.5e-14 at n = 200, 1.1e-13 at
n = 10^3 and 1.3e-12 at n = 10^4. Both window quantities depend on
(n, width) alone.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from .errors import ConvergenceError, SingularShearError, ZeroProbabilityError
from .gate import (GateParams, _central_binomials, _require_density, exact_output,
                   outcome_norm, perfect_cat, semiclassical_output, taylor_phase)
from .numerics import Grid1D, _poisson_weights, _three_term_rows, integration_weights
from .states import CoherentParams, WaveFunctionGrid, _cat_norm, coherent_wavefunction, overlap

__all__ = [
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


def scan_grid(n: int, x0: float, y_m: float) -> Grid1D:
    """Wavefunction grid for a gate run with coherent input x0 and outcome y_m.

    Centred between x0 and y_m. fidelity_scl_scan, its one caller, passes
    x0 = -Delta/2 and y_m = Delta/2 for an offset Delta = y_m - x0, so the
    grid and the fidelity depend on (n, Delta) alone. The grid takes
    max(4001, 2 ceil(half (2 sqrt(2n+1) + 12)/(2 pi)) + 1) points, so that
    Simpson resolves the fringes of the two-branch states, of spatial
    frequency up to 2 sqrt(2n+1) widened by the Gaussian envelope: 4001 up
    to n = 2611 at y_m = x0, 4543 at n = 3000, and more points at every
    larger offset. fidelity_scl_scan refuses an offset whose outcome
    density is below 1e-300, from about sqrt(2n+1) + 37 on, before it asks
    for a grid, so the grids it builds stay bounded.
    """
    c = 0.5 * (x0 + y_m)
    r = np.sqrt(2.0 * n + 1.0)
    half = 8.0 + r + 0.5 * abs(y_m - x0)
    count = max(4001, 2 * math.ceil(half * (2.0 * r + 12.0) / (2.0 * math.pi)) + 1)
    return Grid1D(c - half, c + half, count)


def fidelity(a: WaveFunctionGrid, b: WaveFunctionGrid) -> float:
    """|<a|b>|^2 for unit-norm states on a shared grid, clamped to [0, 1]."""
    raw = abs(overlap(a, b)) ** 2
    return min(max(raw, 0.0), 1.0)


def fidelity_cat_scan(n: int, y_m: float, x0: float, p0: float = 0.0) -> float:
    """Fidelity between the exact gate output and the ideal cat, in closed form.

    Coherent input (x0, p0), outcome y_m. The ideal cat of gate.perfect_cat
    has the components psi_in e^{+/- ic}, c = theta + r (x - x0), so its
    overlap with the output is _overlap_sq with the cat's carrier k = r and
    theta0 = theta = -r Delta, Delta = y_m - x0, and
    F_cat = min(_overlap_sq / P, 1) with P the outcome density; the cat is
    built only once P has passed _require_density. No grid is sampled, and
    the result depends on (n, Delta) alone: p0 is only checked, and at
    y_m = x0 every x0 gives the same double. Against 40-digit arithmetic it
    is off by 1.7e-16 at n = 1, 4.6e-16 at n = 5 and 9.7e-16 at n = 15,
    and by at most 2.7e-13 at the (n, y_m, x0) = (100..300, 0, 0..10)
    points the tests pin, the largest at (100, 0, 5). An outcome whose
    density is below 1e-300 raises ZeroProbabilityError. The overlap and P
    are scaled by powers of two before the overlap is squared, so F_cat
    stays a normal double where the product P F_cat is below the double
    range: at (n, y_m, x0) = (1, 36, 0), P = 9.8e-280 and
    F_cat = 9.236e-95 to 1e-13. It keeps its relative accuracy where the
    overlap is far below its integrand: at (300, 40, 0) it gives
    7.177628583036378e-125, 4.1e-14 from the 7.1776285830360844e-125 that
    its closed form gives at 60 to 150 digits with exact k = sqrt(601)
    (7.1776285830369099e-125 with k = fl(sqrt(601))).
    """
    params = GateParams(n, y_m)
    inp = CoherentParams(x0, p0)
    dens = outcome_density(n, x0, y_m)
    _require_density(dens, y_m, x0)
    cat = perfect_cat(params, inp)
    # the overlap and P scaled by 2^shift and 4^shift, exactly, which brings
    # P into [1/2, 2): the squared overlap, P F_cat, does not underflow then
    shift = -(math.frexp(dens)[1] // 2)
    overlap_sq = float(_overlap_sq(n, np.array([y_m - x0]), cat.r, cat.theta, shift)[0])
    return min(overlap_sq / math.ldexp(dens, 2 * shift), 1.0)


def fidelity_scl_scan(n: int, y_m: float, x0: float, p0: float = 0.0) -> float:
    """Fidelity between the exact gate output and its semiclassical form.

    Both states are sampled on scan_grid in the frame x0' = -Delta/2,
    y_m' = Delta/2, p0' = 0, Delta = y_m - x0: the input's phase
    e^{i p0 (x - x0/2)} multiplies both states alike and cancels from the
    fidelity, so the result depends on (n, Delta) alone, bit for bit, and
    does not lose digits to a large |x0| or |p0|. An outcome whose
    closed-form density is below 1e-300, an overflowed Delta included,
    raises ZeroProbabilityError before any grid is built.
    """
    # check the inputs, so that a non-finite one is named before scan_grid sees it
    GateParams(n, y_m)
    CoherentParams(x0, p0)
    _require_density(outcome_density(n, x0, y_m), y_m, x0)
    half = 0.5 * (y_m - x0)
    grid = scan_grid(n, -half, half)
    params = GateParams(n, half)
    psi_in = coherent_wavefunction(CoherentParams(-half), grid)
    out = exact_output(params, psi_in)
    return fidelity(out, semiclassical_output(params, psi_in))


def outcome_density(n: int, x0: float, y_m):
    """Probability density of homodyne outcome y_m for coherent input (x0, any p0).

    P = M_n / sqrt(2 pi) with M_n = gate.outcome_norm(n, y_m - x0), a sum of
    bounded Poisson terms; y_m is a scalar or an array. A density below the
    double range comes out as 0, which is then the correctly rounded value,
    and so does the density at an offset that overflows the double range.
    A non-finite y_m or x0 raises ValueError.
    """
    y = np.asarray(y_m, dtype=float)
    if not (math.isfinite(x0) and np.all(np.isfinite(y))):
        raise ValueError("outcome y_m and input x0 must be finite")
    with np.errstate(over="ignore"):
        delta = y - x0
    return outcome_norm(n, delta) / math.sqrt(2.0 * math.pi)


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


def _window(x0: float, width: float) -> float:
    """Half-width of the acceptance window [x0 - width/2, x0 + width/2],
    after checking that x0 is finite and the width finite and positive."""
    if not (math.isfinite(x0) and 0 < width < math.inf):
        raise ValueError("window needs a finite center and a finite positive width")
    return 0.5 * width


def window_probability(n: int, x0: float, width: float) -> float:
    """Probability of the outcome falling inside the acceptance window of
    the given width centred at y_m = x0, in closed form.

    With h = width/2, t = h^2/2 and c_k = C(2k,k)/4^k, integrating
    outcome_density's Poisson terms over the window gives regularized
    incomplete gamma functions of half-integer order (DLMF 8.2, 8.4, 8.8):

        P = sum_{j=0..n} c_j c_{n-j} P(j+1/2, t)
          = erf(h/sqrt(2)) - sum_{i<n} w_i sum_{j>i} c_j c_{n-j},
        w_i = Pois(i; t) h / ((i+1/2) c_i sqrt(2 pi)),

    since the c_j c_{n-j} sum to 1 and P(a+1, t) = P(a, t) - t^a e^{-t}/Gamma(a+1).
    Every term is bounded, and at n = 0 P is erf(h/sqrt(2)) itself. Nothing
    is integrated, and P depends on (n, width) alone. Against 40-digit
    arithmetic, for widths up to 3 sqrt(2n+1), it agrees to a relative
    5e-15 up to n = 40, 4e-14 at n = 200, 3.1e-13 at n = 1000, 5.3e-13
    at n = 2000 and 3.9e-12 at n = 10^4, where the log-space Poisson
    weights that outcome_density uses as well set the limit.
    """
    GateParams(n)  # checks n
    h = _window(x0, width)
    c = _central_binomials(n)
    pois = _poisson_weights(np.array([h]), n)[0, :0:-1]
    w = pois * h / ((np.arange(n) + 0.5) * c[:n] * math.sqrt(2.0 * math.pi))
    # tail[i] = sum_{j>i} c_j c_{n-j}
    tail = np.cumsum((c * c[::-1])[:0:-1])[::-1]
    return math.erf(h / math.sqrt(2.0)) - float(w @ tail)


def _overlap_sq(n: int, d: np.ndarray, k, theta0, shift: int = 0) -> np.ndarray:
    """|<cat|psi~>|^2 4^shift for outcome offsets d = y - x0, from the Hermite
    generating function.

    The cat is states.CatSuperposition's psi_in (e^{ic} + s e^{-ic}) / sqrt(N),
    c = theta0 + k (x - x0) = theta0 + k (u + d) in the outcome frame
    u = x - y, s = (-1)^n, with the carrier data k and theta0 given per
    offset (arrays of d's shape) or shared (scalars): mixed_fidelity passes
    the branch-phase Taylor data at x0, and fidelity_cat_scan the fields
    r and theta of gate.perfect_cat. Its conjugate is e^{-ic} + s e^{ic}, so
    the overlap is X + s conj(X) = 2 Re X (n even) or 2i Im X (n odd), with

        X = e^{-i(theta0 + k d)} T(k),
        T(k) = pi^{-1/2} int e^{-(u+d)^2} e^{-iku} h_n(u) du
             = sqrt(2/3) pi^{-1/4} e^{w^2/6 - d^2} g_n,   w = 2d + ik,

    since h_n is real, the other branch is T(-k) = conj T(k), and N is
    states._cat_norm(s, k, theta0) = 2 + 2 s e^{-k^2} cos(2 theta0). Here
    g_m = sqrt(m!) [t^m] e^{at - t^2/6} with a = -sqrt(2) w/3, so that
    g_m = a g_{m-1}/sqrt(m) - g_{m-2} sqrt((m-1)/m)/3 from g_0 = 1, which is
    numerics._three_term_rows at argument w with divisors alpha = -3 and
    beta = 3: n steps over all offsets at once, O(n) work per offset. Each
    step multiplies by w and divides its own scalars, sqrt(2/m) by -3 and
    sqrt((m-1)/m) by 3, so each is rounded once; a rounded factor 1/3
    would put one bias into every step and compound it over the n steps.
    |e^{w^2/6 - d^2}| = e^{-(2d^2+k^2)/6} while g_n grows about as fast, so
    the rows come as mantissas and powers of two, rescaled exactly, and the
    exponent joins the exponential at the end: n = 10^4 stays finite, and
    no rounded logarithm accumulates. The overlap is scaled by 2^shift
    before it is squared, which is exact, so a caller that scales its
    divisor by 4^shift gets the unscaled quotient's bytes wherever the
    square alone would not underflow, and a normal quotient where it would.
    """
    w = 2.0 * d + 1j * k
    # g_n = g 2^binexp
    g, binexp = next(islice(_three_term_rows(w, np.ones_like(w), 0, -3.0, 3.0), n, None))
    # Re and Im of w^2/6 - d^2 - i(theta0 + k d), plus the carried scale
    expo = binexp * math.log(2.0) - (2.0 * d * d + k * k) / 6.0
    phase = theta0 + k * d / 3.0
    x = np.exp(expo - 1j * phase) * g * (math.sqrt(2.0 / 3.0) * math.pi**-0.25)
    part = np.ldexp(x.imag if n % 2 else x.real, shift)
    return 4.0 * part**2 / _cat_norm(-1 if n % 2 else 1, k, theta0)


def mixed_fidelity(n: int, x0: float, width: float) -> float:
    """Outcome-averaged cat fidelity over the acceptance window of the given
    width centred at y_m = x0.

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
    where P alone underflows. At each node it is a closed form, a Hermite
    generating-function coefficient that one n-step recurrence gives for
    all nodes of a level at once (see _overlap_sq): O(n) work per node, no
    grid, and a relative error that grows about linearly with n, 2.5e-14 at
    n = 200 and 1.3e-12 at n = 10^4 against u-grid quadrature. The
    numerator is integrated adaptively over the offsets d = y - x0 in
    [-width/2, width/2], and the denominator is window_probability, so
    F_mix depends on (n, width) alone; a numerator that does not converge
    raises ConvergenceError.
    """
    h = _window(x0, width)
    radius = GateParams(n).radius
    if h >= radius:
        raise SingularShearError(
            f"window half-width {h} reaches the turning point "
            f"{radius}; no semiclassical cat exists for the edge outcomes"
        )

    def numerator(d):
        # branch data at the input centre for the outcome offset d = y - x0
        tp = taylor_phase(GateParams(n, 0.0), -d)
        return _overlap_sq(n, d, tp.p_plus, tp.theta0)

    numer = _adaptive_nodes(-h, h, numerator)
    denom = window_probability(n, x0, width)
    if denom < 1e-300:
        raise ZeroProbabilityError("window probability underflows; no outcomes accepted")
    return numer / denom
