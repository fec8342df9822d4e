from __future__ import annotations

import numpy as np
import pytest

import catgate.phase_map
from catgate.gate import GateParams
from catgate.phase_map import map_disk, map_point


def test_phase_point_rejects_non_finite():
    with pytest.raises(ValueError):
        map_disk(GateParams(1, 0.0), (np.inf, 0.0), 1.0, 64)
    with pytest.raises(ValueError):
        map_disk(GateParams(1, 0.0), (0.0, np.nan), 1.0, 64)


def test_branch_image_length_must_match_count():
    # each point has exactly branch_count distinct finite images
    q = np.array([4.0, 1.0, 0.0, 2.0, 0.5])
    count, lo, hi = map_point(GateParams(0, 1.0), q, np.zeros_like(q))
    assert count.tolist() == [0, 2, 1, 1, 2]
    images = [np.unique(pair[np.isfinite(pair)]).size for pair in np.stack([lo, hi], axis=1)]
    assert images == count.tolist()


@pytest.mark.parametrize("n,radius", [(4, 3.0), (0, 1.0), (12, 5.0)])
def test_resource_circle_radius(n, radius):
    assert GateParams(n, 2.5).radius == radius
    with pytest.raises(ValueError):
        GateParams(-1, 0.0)


def test_map_point_two_branches_at_band_center():
    count, lo, hi = map_point(GateParams(4, 3.0), 3.0, 3.0)
    assert count == 2
    assert (lo, hi) == (0.0, 6.0)


def test_map_point_outside_band_has_no_image():
    count, lo, hi = map_point(GateParams(4, 0.0), 4.0, 0.0)
    assert count == 0
    assert np.isnan(lo) and np.isnan(hi)


def test_map_point_tangency_single_branch():
    count, lo, hi = map_point(GateParams(0, 1.0), 0.0, 5.0)
    assert count == 2 - 1
    assert lo == hi == 5.0
    counts, _, _ = map_point(GateParams(0, 1.0), np.array([1.0 - 1.0, 2.0]), 0.0)
    assert counts.tolist() == [1, 1]


def test_map_point_preserves_q_and_momentum_mean():
    rng = np.random.default_rng(7)
    params = GateParams(6, 0.5)
    q, p = rng.uniform(-5.0, 5.0, size=(200, 2)).T
    count, lo, hi = map_point(params, q, p)
    two = count == 2
    assert np.all(lo[two] < hi[two])
    np.testing.assert_allclose(lo[two] + hi[two], 2.0 * p[two], rtol=0, atol=1e-12)


def test_map_point_band_predicate():
    rng = np.random.default_rng(11)
    for n, y_m in ((2, 0.0), (7, 1.5)):
        q = rng.uniform(-8.0, 8.0, size=300)
        disc = 2.0 * n + 1.0 - (y_m - q) ** 2
        keep = np.abs(disc) >= 1e-9
        count, _, _ = map_point(GateParams(n, y_m), q, 0.0)
        np.testing.assert_array_equal(count[keep], np.where(disc[keep] > 0, 2, 0))


@pytest.mark.parametrize("n", [0, 1, 4, 12, 40])
def test_map_point_diameter_at_outcome(n):
    params = GateParams(n, 1.25)
    _, lo, hi = map_point(params, 1.25, 0.7)
    kick = np.sqrt(2.0 * n + 1.0)
    assert lo == 0.7 - kick
    assert hi == 0.7 + kick


@pytest.mark.parametrize("samples", [8, 64, 100, 256, 1024])
def test_disk_lattice_budget_is_exact(samples):
    im = map_disk(GateParams(4, 3.0), (3.0, 3.0), 1.0, samples)
    assert im.source[0].size == im.source[1].size == samples


def test_disk_lattice_mirror_symmetry():
    im = map_disk(GateParams(4, 3.0), (2.0, -1.5), 0.8, 256)
    qs, ps = im.source
    key_q = np.round(qs, 9)
    direct = np.lexsort((np.round(ps, 9), key_q))
    mirrored = np.lexsort((np.round(-3.0 - ps, 9), key_q))
    np.testing.assert_allclose(qs[direct], qs[mirrored], rtol=0, atol=1e-12)
    np.testing.assert_allclose(ps[direct], -3.0 - ps[mirrored], rtol=0, atol=1e-12)


def _lattice_reference(q0, p0, radius, samples):
    """The ring lattice built point by point: center, then each ring by angle."""
    rings = max(1, round(np.sqrt(samples)))
    per_unit = 2.0 * (samples - 1) / (rings * (rings + 1))
    pts = [(q0, p0)]
    for i in range(1, rings + 1):
        r_i = radius * i / rings
        count = max(1, round(per_unit * i))
        for t in 2.0 * np.pi * np.arange(count) / count:
            pts.append((q0 + r_i * np.cos(t), p0 + r_i * np.sin(t)))
    return np.array(pts).T


@pytest.mark.parametrize("samples", [9, 256, 1000])
def test_disk_lattice_order(samples):
    qs, ps = map_disk(GateParams(4, 3.0), (1.0, -2.0), 0.5, samples).source
    ref_q, ref_p = _lattice_reference(1.0, -2.0, 0.5, samples)
    np.testing.assert_allclose(qs, ref_q, rtol=0, atol=1e-14)
    np.testing.assert_allclose(ps, ref_p, rtol=0, atol=1e-14)


def test_disk_image_centroids_straddle_resource_circle():
    im = map_disk(GateParams(4, 3.0), (3.0, 3.0), 1.0, 256)
    assert im.dropped == 0
    upper_q = im.source[0][im.preimage[0]]
    assert upper_q.size == im.source[0][im.preimage[1]].size == 256
    np.testing.assert_allclose(np.mean(upper_q), 3.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.mean(im.momenta(0)), 6.0, rtol=0, atol=0.15)
    np.testing.assert_allclose(np.mean(im.momenta(1)), 0.0, rtol=0, atol=0.15)


def test_disk_far_from_band_is_fully_dropped():
    im = map_disk(GateParams(0, 10.0), (0.0, 0.0), 1.0, 64)
    assert im.dropped == 64
    assert im.source[0][im.preimage[0]].size == im.source[0][im.preimage[1]].size == 0


def test_disk_partial_overlap_counts_are_consistent():
    im = map_disk(GateParams(0, 0.9), (0.0, 0.0), 1.0, 256)
    assert 0 < im.dropped < 256
    two_branch = im.source[0][im.preimage[1]].size
    tangent = im.source[0][im.preimage[0]].size - two_branch
    assert two_branch + tangent + im.dropped == 256


def test_disk_images_keep_source_order():
    # tangency points go to upper, interleaved with two-branch points in source order
    params = GateParams(0, 1.0)
    im = map_disk(params, (0.0, 5.0), 1.0, 9)
    upper, lower, dropped, tangent = [], [], 0, 0
    for q, p in zip(*im.source):
        disc = 1.0 - (1.0 - q) ** 2
        if disc < -1e-12:
            dropped += 1
        elif disc <= 1e-12:
            tangent += 1
            upper.append((q, p))
        else:
            lower.append((q, p - np.sqrt(disc)))
            upper.append((q, p + np.sqrt(disc)))
    assert tangent > 0 and dropped == im.dropped > 0
    for branch, (rows, expected) in enumerate(zip(im.preimage, (upper, lower))):
        pairs = np.column_stack([im.source[0][rows], im.momenta(branch)])
        np.testing.assert_allclose(pairs, expected, rtol=0, atol=1e-15)


def test_map_disk_is_deterministic():
    first = map_disk(GateParams(3, 1.0), (0.5, -0.5), 1.2, 100)
    second = map_disk(GateParams(3, 1.0), (0.5, -0.5), 1.2, 100)
    assert first.dropped == second.dropped
    for a, b in zip((first.source, first.preimage, first.momenta(0), first.momenta(1)),
                    (second.source, second.preimage, second.momenta(0), second.momenta(1))):
        np.testing.assert_array_equal(a, b)


def test_map_disk_validation():
    with pytest.raises(ValueError):
        map_disk(GateParams(1, 0.0), (0.0, 0.0), 0.0, 64)
    with pytest.raises(ValueError):
        map_disk(GateParams(1, 0.0), (0.0, 0.0), 1.0, 7)


@pytest.mark.parametrize("center", [(0.0, 0.0), (1e308, 0.0)])
def test_map_disk_refuses_lattice_beyond_double_range(center):
    with pytest.raises(ValueError, match="has lattice points beyond the double range"):
        map_disk(GateParams(1, 0.0), center, 1e308, 8)


def test_map_disk_refuses_samples_over_budget_before_allocating(monkeypatch):
    def build(*args):
        raise AssertionError("the lattice was built")

    monkeypatch.setattr(catgate.phase_map, "_disk_samples", build)
    # 1e11 samples would take 1.6 TB of q and p
    for samples in (catgate.phase_map._MAX_SAMPLES + 1, 100_000_000_000):
        with pytest.raises(ValueError, match=f"{samples} samples exceed the lattice budget"):
            map_disk(GateParams(1, 0.0), (0.0, 0.0), 1.0, samples)


@pytest.mark.parametrize(
    "params, center, samples",
    [
        # the center is a tangency point (one image) and the left half has none
        (GateParams(0, 1.0), (0.0, 5.0), 9),
        # the disk straddles the band edge q = 3
        (GateParams(4, 0.0), (2.5, 0.5), 2000),
    ],
)
def test_preimage_rows_give_each_image_its_q(params, center, samples):
    disk = map_disk(params, center, 1.0, samples)
    q, p = disk.source
    upper, lower = disk.preimage
    assert 0 < lower.size <= upper.size < q.size and disk.dropped > 0
    assert np.all(np.diff(upper) > 0) and np.all(np.diff(lower) > 0)
    count, p_lower, p_upper = map_point(params, q, p)
    # the rows of every sample with an image, and of every sample with two
    assert np.array_equal(upper, np.flatnonzero(count > 0))
    assert np.array_equal(lower, np.flatnonzero(count == 2))
    # the momenta are map_point's bit for bit, whole or in slices
    assert np.array_equal(p_upper[upper], disk.momenta(0))
    assert np.array_equal(p_lower[lower], disk.momenta(1))
    assert np.array_equal(p_lower[lower][2:5], disk.momenta(1, slice(2, 5)))
    # the preimage rows, in the smallest unsigned type that holds the sample count
    assert all(rows.dtype == np.min_scalar_type(q.size) for rows in disk.preimage)
