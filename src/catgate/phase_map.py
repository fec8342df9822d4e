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
# most lattice points map_disk builds: q and p then take 80 MB, and a
# catgate scl-map process at this budget peaks at about 211 MB
_MAX_SAMPLES = 5_000_000


@dataclass(frozen=True)
class DiskImage:
    """Mapped samples of an uncertainty disk, split by branch.

    source is a (q, p) pair of equal-length arrays: the input samples in
    generation order, for plotting the preimage next to its images.
    preimage holds the rows of source that the upper (p + sqrt(D)) and
    lower (p - sqrt(D)) images come from, ascending, so each branch keeps
    the order of its preimages in source; a tangency point (single branch)
    goes to upper. The gate keeps q, so upper's q is source[0][preimage[0]]
    and lower's source[0][preimage[1]]. dropped counts samples with no
    image. The image momenta are not stored: momenta() computes them from
    their preimages through map_point, a slice of a branch at a time.
    """

    params: GateParams
    dropped: int
    source: tuple[np.ndarray, np.ndarray] = field(repr=False)
    preimage: tuple[np.ndarray, np.ndarray] = field(repr=False)

    def momenta(self, branch: int, images: slice = slice(None)) -> np.ndarray:
        """Momenta of a slice of the images of a branch, 0 upper and 1 lower."""
        q, p = self.source
        pre = self.preimage[branch][images]
        _, p_lower, p_upper = map_point(self.params, q[pre], p[pre])
        return (p_upper, p_lower)[branch]


def _bands(params: GateParams, q: np.ndarray):
    """D = 2n+1 - (y_m - q)^2, and where q has an image and where it has
    two: none below -_TANGENT_TOL, one at or below +_TANGENT_TOL, two above
    it (so a nan D counts two)."""
    # an offset past the double range overflows to D = -inf: no image
    with np.errstate(over="ignore"):
        disc = 2.0 * params.n + 1.0 - (params.y_m - q) ** 2
    return disc, ~(disc < -_TANGENT_TOL), ~(disc <= _TANGENT_TOL)


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
    disc, hit, two = _bands(params, q)
    kick = np.where(two, np.sqrt(np.abs(disc)), np.where(hit, 0.0, np.nan))
    return np.where(two, 2, hit), p - kick, p + kick


def _disk_samples(center: tuple[float, float], radius: float, samples: int):
    """Concentric-ring lattice as (q, p) arrays: a center point plus rings
    whose point counts grow linearly outward, the outermost tracing the
    boundary polyline. Ring angles pair theta with -theta, so the lattice is
    exactly mirror symmetric about p = center p."""
    q0, p0 = center
    rings = max(1, round(np.sqrt(samples)))
    per_unit = 2.0 * (samples - 1) / (rings * (rings + 1))
    counts = [max(1, round(per_unit * i)) for i in range(1, rings + 1)]
    q, p = np.empty(1 + sum(counts)), np.empty(1 + sum(counts))
    q[0], p[0] = q0, p0
    start = 1
    for i, count in enumerate(counts, 1):
        r_i = radius * i / rings
        angles = 2.0 * np.pi * np.arange(count) / count
        q[start : start + count] = q0 + r_i * np.cos(angles)
        p[start : start + count] = p0 + r_i * np.sin(angles)
        start += count
    return q, p


def map_disk(
    params: GateParams, center: tuple[float, float], radius: float, samples: int
) -> DiskImage:
    """Map a sampled uncertainty disk centred at (q, p) through the gate.

    samples is the approximate total lattice size (at least 8, at most
    _MAX_SAMPLES, checked before anything is allocated); the exact count
    for a given argument is fixed, so repeated calls are reproducible
    point for point. A disk whose lattice points are not all finite
    doubles raises ValueError.

    The image holds the lattice, 16 bytes a sample, and its images'
    preimage rows, in the smallest unsigned integer type that holds the
    sample count. `catgate scl-map` prints it a block of rows at a time,
    the momenta computed with their block, so at the 5,000,000-sample
    budget the process peaks at about 211 MB.
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
    _, hit, two = _bands(params, q)
    # a mask index copies what it selects; np.flatnonzero would build the
    # selected rows as an int64 index, 8 bytes a sample
    every = np.arange(q.size, dtype=np.min_scalar_type(q.size))
    upper, lower = every[hit], every[two]
    return DiskImage(params, q.size - upper.size, (q, p), (upper, lower))
