"""Semiclassical phase-space mapping of quadrature amplitudes.

The gate leaves q untouched and kicks the momentum onto the resource
circle: an input point (q, p) acquires p +/- sqrt(D) with
D = 2n+1 - (y_m - q)^2, so it has two images inside the band
|y_m - q| < sqrt(2n+1), one exactly at its edge, and none outside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gate import GateParams

__all__ = [
    "DiskImage",
    "map_point",
    "map_disk",
]

# discriminant magnitude treated as an exact tangency (single branch)
_TANGENT_TOL = 1e-12
# most lattice points map_disk builds: q and p then take 80 MB
_MAX_SAMPLES = 5_000_000


@dataclass(frozen=True)
class DiskImage:
    """Mapped samples of an uncertainty disk, split by branch.

    source is a (q, p) pair of equal-length arrays: the input samples in
    generation order, for plotting the preimage next to its images. upper
    and lower hold the momenta of the p + sqrt(D) and p - sqrt(D) images; a
    tangency point (single branch) goes to upper. Both keep the order of
    their preimages in source. preimage holds the rows of source that
    upper's and lower's images come from: the gate keeps q, so upper's q is
    source[0][preimage[0]] and lower's source[0][preimage[1]]. dropped
    counts samples with no image.
    """

    upper: np.ndarray = field(repr=False)
    lower: np.ndarray = field(repr=False)
    dropped: int
    source: tuple[np.ndarray, np.ndarray] = field(repr=False)
    preimage: tuple[np.ndarray, np.ndarray] = field(repr=False)


def map_point(params: GateParams, q, p):
    """Map phase-space points (q, p) through the measured gate.

    Takes arrays (or scalars) and returns (branch_count, p_lower, p_upper)
    of their broadcast shape. q is preserved; the two momentum branches are
    p -/+ sqrt(D) with D = 2n+1 - (y_m - q)^2. D < -1e-12 yields no image
    (count 0, both momenta NaN), |D| <= 1e-12 a single unshifted one
    (count 1, p_lower = p_upper = p), D > 1e-12 two (count 2).
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    # an offset past the double range overflows to D = -inf: no image
    with np.errstate(over="ignore"):
        disc = 2.0 * params.n + 1.0 - (params.y_m - q) ** 2
    count = np.where(disc < -_TANGENT_TOL, 0, np.where(disc <= _TANGENT_TOL, 1, 2))
    kick = np.where(count == 2, np.sqrt(np.abs(disc)), np.where(count == 1, 0.0, np.nan))
    return count, p - kick, p + kick


def _disk_samples(center: tuple[float, float], radius: float, samples: int):
    """Concentric-ring lattice as (q, p) arrays: a center point plus rings
    whose point counts grow linearly outward, the outermost tracing the
    boundary polyline. Ring angles pair theta with -theta, so the lattice is
    exactly mirror symmetric about p = center p."""
    q0, p0 = center
    rings = max(1, round(np.sqrt(samples)))
    per_unit = 2.0 * (samples - 1) / (rings * (rings + 1))
    qs, ps = [np.array([q0], dtype=float)], [np.array([p0], dtype=float)]
    for i in range(1, rings + 1):
        r_i = radius * i / rings
        count = max(1, round(per_unit * i))
        angles = 2.0 * np.pi * np.arange(count) / count
        qs.append(q0 + r_i * np.cos(angles))
        ps.append(p0 + r_i * np.sin(angles))
    return np.concatenate(qs), np.concatenate(ps)


def map_disk(
    params: GateParams, center: tuple[float, float], radius: float, samples: int
) -> DiskImage:
    """Map a sampled uncertainty disk centred at (q, p) through the gate.

    samples is the approximate total lattice size (at least 8, at most
    _MAX_SAMPLES, checked before anything is allocated); the exact count
    for a given argument is fixed, so repeated calls are reproducible
    point for point. A disk whose lattice points are not all finite
    doubles raises ValueError.
    """
    if not (np.all(np.isfinite(center)) and np.isfinite(radius)):
        raise ValueError("disk center and radius must be finite")
    if radius <= 0:
        raise ValueError("disk radius must be positive")
    if samples < 8:
        raise ValueError("need at least 8 samples")
    if samples > _MAX_SAMPLES:
        raise ValueError(f"{samples} samples exceed the lattice budget of {_MAX_SAMPLES}")
    with np.errstate(over="ignore", invalid="ignore"):
        q, p = _disk_samples(center, radius, samples)
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
        raise ValueError(f"disk of radius {radius} about {tuple(center)} has lattice "
                         "points beyond the double range")
    count, p_lower, p_upper = map_point(params, q, p)
    hit, two = np.flatnonzero(count > 0), np.flatnonzero(count == 2)
    return DiskImage(
        upper=p_upper[hit],
        lower=p_lower[two],
        dropped=int(np.count_nonzero(count == 0)),
        source=(q, p),
        preimage=(hit, two),
    )
