"""Application of the measurement-induced gate and its semiclassical limits.

The gate couples the input to an n-photon resource through a two-mode phase
gate e^{i q q_a} and measures the resource momentum, obtaining outcome y_m.
Conditioned on y_m the input wavefunction acquires a Hermite-function factor:

    psi~(x) = psi_in(x) i^n h_n(x - y_m),    P(y_m) = int |psi~|^2 dx,

with h_n the normalized Hermite function. The semiclassical picture replaces
h_n by two counter-propagating momentum branches p = +/- sqrt(2n+1 - (x-y_m)^2)
whose accumulated phase is phase_function below; expanding that phase to first
order around the zero-shear point x = y_m yields an ideal two-component cat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhaseDomainError, SingularShearError, ZeroProbabilityError, ZeroStateError
from .numerics import _BLOCK_VALUES, _poisson_weights, eval_hermite_fn, integrate
from .states import CatSuperposition, CoherentParams, WaveFunctionGrid

__all__ = [
    "GateParams",
    "TaylorPhase",
    "phase_function",
    "outcome_norm",
    "exact_output",
    "semiclassical_output",
    "taylor_phase",
    "perfect_cat",
]


@dataclass(frozen=True)
class GateParams:
    """Resource photon number n and homodyne outcome y_m."""

    n: int
    y_m: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("photon number must be nonnegative")
        if not math.isfinite(self.y_m):
            raise ValueError("homodyne outcome y_m must be finite")

    @property
    def radius(self) -> float:
        """Resource circle radius sqrt(2n+1)."""
        return float(np.sqrt(2.0 * self.n + 1.0))


def phase_function(n: int, z):
    """Accumulated branch phase phi(n, z) = (2n+1)(z sqrt(1-z^2) + arcsin z)/2.

    z = (x - y_m)/sqrt(2n+1) is the scaled position inside the classically
    allowed band; |z| > 1 raises PhaseDomainError. Scalar or array input.
    """
    arr = np.asarray(z, dtype=float)
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise PhaseDomainError("phase function evaluated at |z| > 1")
    arr = np.clip(arr, -1.0, 1.0)
    phi = (2.0 * n + 1.0) * (arr * np.sqrt(1.0 - arr * arr) + np.arcsin(arr)) / 2.0
    return phi if np.ndim(z) else float(phi)


def _central_binomials(n: int) -> np.ndarray:
    """c_k = C(2k,k)/4^k for k = 0..n, the coefficients of (1 - rho)^{-1/2}; all in (0, 1]:
    a cumprod of the (2k-1)/(2k), made in place a block at a time."""
    c = np.ones(n + 1)
    for a in range(1, n + 1, _BLOCK_VALUES):
        f = c[a : a + _BLOCK_VALUES]
        k = np.arange(2.0 * a, 2.0 * (a + f.size), 2.0)
        np.divide(np.subtract(k, 1.0, out=f), k, out=f)
        del k  # cumprod buffers a block to write over its input
        f[0] *= c[a - 1]  # the product so far, so that it is one cumprod bit for bit
        np.cumprod(f, out=f)
    return c


def outcome_norm(n: int, delta):
    """M_n = sum_k c_k Pois(n - k; delta^2/2) for offsets delta = y_m - x0.

    M_n = e^{-delta^2/2} N_n with N_n = [rho^n] (1-rho)^{-1/2} e^{rho delta^2/2},
    the normalization of both the coherent-input outcome density,
    P = M_n / sqrt(2 pi), and the Wigner map. Every term is a bounded weight
    c_k = C(2k,k)/4^k <= 1 times a Poisson probability formed in log space,
    so nothing overflows and M_n underflows to 0 only below the double
    range; against exact arithmetic it agrees to 4e-14 relative at n = 300
    and delta = 40, and to 4.2e-13 at n = 2000 and delta = 60. An infinite
    offset, one that overflowed, gives M_n = 0 like any offset past the
    double range. The Poisson matrix, a row per offset with its columns in
    the order of k, is weighted by c_k in place, so it is the one matrix
    held, and each offset's terms are summed along one contiguous row, so a
    value does not depend on the other offsets passed with it. Scalar or
    array input; a nan offset raises ValueError.
    """
    arr = np.atleast_1d(np.asarray(delta, dtype=float))
    if np.any(np.isnan(arr)):
        raise ValueError("outcome offset y_m - x0 must not be nan")
    pois = _poisson_weights(arr.ravel(), n)
    pois *= _central_binomials(n)
    norm = np.add.reduce(pois, axis=1)
    return norm.reshape(np.shape(delta)) if np.ndim(delta) else float(norm[0])


def _require_density(density: float, y_m: float, x0: float | None = None) -> None:
    """Refuse an outcome y_m without a conditional state.

    The conditional state psi_in h_n(x - y_m)/sqrt(P) exists only where the
    outcome density P is at least 1e-300; a smaller P, 0 where it is below
    the double range or the offset overflowed, or a nan P, raises
    ZeroProbabilityError, naming the coherent input's x0 when there is one.
    Every caller passes P in its own frame before it samples anything.
    """
    if not density >= 1e-300:
        given = "" if x0 is None else f" for input x0={x0}"
        raise ZeroProbabilityError(
            f"outcome y_m={y_m}{given} has density {density}; conditional state undefined"
        )


def exact_output(params: GateParams, state: WaveFunctionGrid) -> WaveFunctionGrid:
    """Normalized conditional output state for a given input.

    Raises ZeroProbabilityError (see _require_density) when the outcome lies
    so far in the tails that the unnormalized state's norm, P(y_m) on the
    grid, is below 1e-300.
    """
    x = state.grid.xs
    unnorm = state.values * (1j ** params.n) * eval_hermite_fn(params.n, x - params.y_m)
    density = float(integrate(np.abs(unnorm) ** 2, state.grid).real)
    _require_density(density, params.y_m)
    return WaveFunctionGrid(state.grid, unnorm / np.sqrt(density))


def semiclassical_output(params: GateParams, state: WaveFunctionGrid) -> WaveFunctionGrid:
    """Normalized semiclassical output: pure-phase branches, no amplitude weight.

    psi_scl(x) proportional to psi_in(x) i^n [e^{i phi} + (-1)^n e^{-i phi}],
    with the branch phase evaluated at z clipped to [-1, 1]: beyond the
    turning points the phase saturates at +/-(2n+1)pi/4 and the factor
    continues with constant magnitude sqrt(2). Zeroing it there instead would
    discard genuine tail weight of the input and visibly degrade the
    approximation at small n.
    """
    x = state.grid.xs
    z = np.clip((x - params.y_m) / params.radius, -1.0, 1.0)
    phi = phase_function(params.n, z)
    # e^{-i phi} is the conjugate of e^{i phi} bit for bit, so one complex exp does
    upper = np.exp(1j * phi)
    branches = upper + (-1.0) ** params.n * np.conj(upper)
    unnorm = state.values * (1j ** params.n) * branches
    nrm = integrate(np.abs(unnorm) ** 2, state.grid).real
    if nrm < 1e-300:
        raise ZeroStateError("semiclassical output vanishes on this grid")
    return WaveFunctionGrid(state.grid, unnorm / np.sqrt(nrm))


@dataclass(frozen=True)
class TaylorPhase:
    """First-order data of the branch phase at an expansion center.

    phi(x) ~ theta0 + p_plus (x - center) for the upper branch; the lower
    branch is the complex conjugate pattern. Fields are floats for a scalar
    center and arrays of the center's shape for an array center.
    """

    theta0: float | np.ndarray
    p_plus: float | np.ndarray


def taylor_phase(params: GateParams, center) -> TaylorPhase:
    """Expand the branch phase around `center` (scalar or array).

    Valid strictly inside the band; if any center is at or beyond the
    turning points the local momentum vanishes or turns imaginary and
    SingularShearError is raised. A non-finite center raises ValueError.
    """
    c = np.asarray(center, dtype=float)
    if not np.all(np.isfinite(c)):
        raise ValueError("expansion center must be finite")
    u = c - params.y_m
    disc = 2.0 * params.n + 1.0 - u * u
    if np.any(disc <= 0.0):
        bad = c[disc <= 0.0].flat[0]
        raise SingularShearError(
            f"center {bad} is at or beyond the turning points of the n={params.n} "
            f"resource around y_m={params.y_m}"
        )
    p_plus = np.sqrt(disc)
    theta0 = phase_function(params.n, u / params.radius)
    if c.ndim == 0:
        return TaylorPhase(float(theta0), float(p_plus))
    return TaylorPhase(theta0, p_plus)


def perfect_cat(params: GateParams, inp: CoherentParams) -> CatSuperposition:
    """Ideal cat targeted by the gate for a coherent input.

    Built by linearizing the branch phase at x = y_m, the one point where the
    shear term vanishes identically: each branch then displaces the input
    momentum by +/- r, r = sqrt(2n+1), with the carrier phase
    c = r (x - y_m) = theta + r (x - x0), theta = -r (y_m - x0). theta is
    formed from the offset, so it keeps its digits however far the input
    lies from the origin. The component parity sign is (-1)^n.
    """
    r = params.radius
    return CatSuperposition(x0=inp.x0, p0=inp.p0, r=r, theta=-r * (params.y_m - inp.x0),
                            parity_sign=-1 if params.n % 2 else 1)
