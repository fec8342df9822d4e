from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import gammainc

import catgate.metrics
from catgate.errors import ConvergenceError, SingularShearError, ZeroProbabilityError
from catgate.gate import (GateParams, _central_binomials, exact_output, perfect_cat,
                          semiclassical_output, taylor_phase)
from catgate.metrics import (
    _adaptive_nodes,
    _overlap_sq,
    fidelity,
    fidelity_cat_scan,
    fidelity_scl_scan,
    mixed_fidelity,
    outcome_density,
    scan_grid,
    window_probability,
)
from catgate.numerics import Grid1D, integration_weights
from catgate.states import CoherentParams, assemble_cat, coherent_wavefunction
from oracles import outcome_density_quadrature, overlap_sq_quadrature


def test_window_validation():
    for x0, width in [(0.0, 0.0), (0.0, -1.0), (0.0, np.nan), (0.0, np.inf), (np.nan, 0.5),
                      (np.inf, 0.5)]:
        for average in (window_probability, mixed_fidelity):
            with pytest.raises(ValueError, match="finite center and a finite positive width"):
                average(1, x0, width)


def test_scan_grid_tracks_midpoint():
    g = scan_grid(2, 1.0, 3.0)
    np.testing.assert_allclose(0.5 * (g.x_min + g.x_max), 2.0, rtol=1e-15)
    assert g.count == 4001
    offsets = scan_grid(2, 0.0, 2.0).xs - 1.0
    np.testing.assert_allclose(g.xs - 2.0, offsets, rtol=0, atol=1e-12)
    # 4001 points up to n = 2000, so every frozen value stays
    for n in (0, 4, 40, 300, 1000, 2000):
        assert scan_grid(n, 0.0, 0.0).count == scan_grid(n, 0.0, 10.0).count == 4001


def _fidelities_on(grid, n, y_m, x0):
    params, inp = GateParams(n, y_m), CoherentParams(x0, 0.0)
    psi_in = coherent_wavefunction(inp, grid)
    out = exact_output(params, psi_in)
    cat = assemble_cat(perfect_cat(params, inp), grid)
    return fidelity(out, cat), fidelity(out, semiclassical_output(params, psi_in))


@pytest.mark.parametrize("n", [2800, 3000])
@pytest.mark.parametrize("y_m", [0.0, 3.0])
def test_scan_grid_resolves_cat_fringes_at_large_n(n, y_m):
    # 4001 points alias the 2 sqrt(2n+1) fringes of |cat|^2 from n = 2700 on
    g = scan_grid(n, 0.0, y_m)
    assert g.count > 4001
    fine = Grid1D(g.x_min, g.x_max, 4 * (g.count - 1) + 1)
    expected = _fidelities_on(fine, n, y_m, 0.0)
    got = (fidelity_cat_scan(n, y_m, 0.0), fidelity_scl_scan(n, y_m, 0.0))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 7, 20, 40])
@pytest.mark.parametrize("x0", [0.0, 1.0, 2.0])
def test_cat_fidelity_matches_refined_grid(n, x0):
    # the closed form against the sampled output and assembled cat
    g = scan_grid(n, x0, 0.0)
    fine = Grid1D(g.x_min, g.x_max, 4 * (g.count - 1) + 1)
    expected, _ = _fidelities_on(fine, n, 0.0, x0)
    assert abs(fidelity_cat_scan(n, 0.0, x0) - expected) <= 1e-14


def test_far_offset_grid_stays_small(monkeypatch):
    # the grid resolves the fringes at every offset, so it grows with a far
    # one (its samples, gigabytes here, are never formed); the scans refuse
    # an outcome without a conditional state on its closed-form density,
    # before they ask for a grid
    assert scan_grid(1, 0.0, 1e9).count > 1000 * scan_grid(1, 0.0, 200.0).count

    def no_grid(*args):
        raise AssertionError("scan_grid called for an outcome without a conditional state")

    monkeypatch.setattr(catgate.metrics, "scan_grid", no_grid)
    for scan in (fidelity_cat_scan, fidelity_scl_scan):
        with pytest.raises(ZeroProbabilityError, match="has density 0.0;"):
            scan(1, 0.0, 1e9)


def test_fidelity_self_is_one():
    grid = Grid1D(-9.0, 9.0, 2001)
    psi = coherent_wavefunction(CoherentParams(0.0, 1.0), grid)
    assert fidelity(psi, psi) == 1.0


@pytest.mark.parametrize(
    "n, expected",
    [(1, 0.9733679734368361), (5, 0.994757632468833), (15, 0.9982624532425263)],
)
def test_cat_fidelity_frozen_centered(n, expected):
    np.testing.assert_allclose(fidelity_cat_scan(n, 0.0, 0.0), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "x0, expected",
    [(0.0, 0.9973902518253039), (1.5, 0.8925868825002486), (2.0, 0.7039844610432107)],
)
def test_cat_fidelity_frozen_displaced(x0, expected):
    np.testing.assert_allclose(fidelity_cat_scan(10, 0.0, x0), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "y_m, expected",
    # 40-digit quadrature of <cat|psi~> and P; P F_cat is below the double range
    [(36.0, 9.2362035508890548e-95), (37.0, 8.558948679024006e-100)],
)
def test_cat_fidelity_far_outcome_does_not_underflow(y_m, expected):
    np.testing.assert_allclose(fidelity_cat_scan(1, y_m, 0.0), expected, rtol=1e-12, atol=0)


# F_cat at (n, y_m, x0) from two mpmath computations that agree to 20 digits: a
# 40-digit Gauss-Legendre quadrature of <cat|psi~> and of P over x0 +/- 12, on
# panels no wider than 2/sqrt(2n+1), and _overlap_sq's generating-function
# coefficient at 60 digits over the exact rational sum M_n, both with exact
# k = sqrt(2n+1); the small-n rows allow a few ulps, the large-n rows the
# growth of the recurrence's rounding with n
@pytest.mark.parametrize(
    "n, y_m, x0, expected, rtol",
    [
        (1, 0.0, 0.0, 0.97336797343683584759, 1.5e-15),
        (5, 0.0, 0.0, 0.99475763246883309936, 1.5e-15),
        (15, 0.0, 0.0, 0.99826245324252612551, 1.5e-15),
        (100, 0.0, 5.0, 1.2741222679110934643e-4, 1e-12),
        (100, 0.0, 10.0, 2.5156910652947738676e-4, 1e-12),
        (200, 0.0, 5.0, 0.16424005294058594709, 1e-12),
        (300, 0.0, 0.0, 0.99991319611705515361, 1e-12),
        (300, 0.0, 5.0, 0.33447790821552631565, 1e-12),
    ],
)
def test_cat_fidelity_matches_high_precision_references(n, y_m, x0, expected, rtol):
    assert fidelity_cat_scan(n, y_m, x0) == pytest.approx(expected, rel=rtol, abs=0)


def test_cat_fidelity_keeps_relative_accuracy_where_the_overlap_cancels():
    # _overlap_sq's closed form in mpmath at 60, 100 and 150 digits with exact
    # k = sqrt(601) gives 7.1776285830360844e-125 (7.1776285830369099e-125 with
    # k = fl(sqrt(601))); the overlap's integrand peaks near 1e-71, so a
    # quadrature with too few digits returns noise
    assert fidelity_cat_scan(300, 40.0, 0.0) == pytest.approx(7.1776285830360844e-125, rel=1e-12)


@pytest.mark.parametrize("x0", [0.0, 3.0, 5.0, 123456.5, 1e9])
@pytest.mark.parametrize("p0", [0.0, 3.0])
def test_cat_fidelity_centered_invariance(x0, p0):
    np.testing.assert_allclose(
        fidelity_cat_scan(5, x0, x0, p0), 0.994757632468833, rtol=0, atol=1e-9
    )
    # both scans work in the offset y_m - x0 alone, so a large x0 costs no digits
    for scan in (fidelity_cat_scan, fidelity_scl_scan):
        assert scan(5, x0, x0, p0) == scan(5, 0.0, 0.0, p0)


@pytest.mark.parametrize(
    "n, x0, expected",
    [
        (2, 0.0, 0.9970954022295546),
        (1, 1.0, 0.9733068127454626),
        (2, 2.0, 0.9056212040576902),
        (10, 0.0, 0.9999113257201987),
    ],
)
def test_scl_fidelity_frozen(n, x0, expected):
    np.testing.assert_allclose(fidelity_scl_scan(n, 0.0, x0), expected, rtol=0, atol=1e-12)


# F_scl at (n, y_m, x0) beyond the band, |y_m - x0| > sqrt(2n+1), where
# |psi_in h_n|^2 peaks at the WKB balance point, about 10 from x0 here, not
# at x0: F = (int g h_n T)^2 / (int g h_n^2 int g T^2) with g = e^{-(x-x0)^2}
# and T = cos or sin of the clipped branch phase, by mpmath tanh-sinh
# quadrature over the whole line, on 1/2-wide panels from 12 below to 12
# above the turning points and x0, split at the turning points y_m -/+
# sqrt(2n+1) exactly, each integrand scaled to a peak of 1 first; 30 and 45
# digits and halved panels agree to 6e-31. The scan is 9.1e-16, 5.7e-15 and
# 5.4e-16 off. Simpson sums cut to x0 +/- 8.5 would give 1.04e-26 at (1, 0, 20)
@pytest.mark.parametrize(
    "n, y_m, x0, expected",
    [
        (1, 0.0, 20.0, 1.8631652282602751685295552110577e-29),
        (5, 0.0, 25.0, 9.4642493651704344697835694873162e-45),
        (40, 0.0, 30.0, 3.2978496524061841786403858470996e-56),
    ],
)
def test_scl_fidelity_beyond_the_band_matches_high_precision_references(n, y_m, x0, expected):
    assert fidelity_scl_scan(n, y_m, x0) == pytest.approx(expected, rel=2e-14, abs=0)


def test_scl_fidelity_does_not_depend_on_p0():
    # the input's phase e^{i p0 (x - x0/2)} cancels, so no p0 moves a bit of
    # F_scl, not even one whose phase would overflow
    f = fidelity_scl_scan(1, 0.0, 0.0)
    assert [fidelity_scl_scan(1, 0.0, 0.0, p0) for p0 in (0.0, 3.0, 1e300, 1e308)] == [f] * 4


def test_density_vacuum_is_unit_gaussian():
    np.testing.assert_allclose(
        outcome_density(0, 0.0, 0.0), 1.0 / np.sqrt(2.0 * np.pi), rtol=1e-15
    )


@pytest.mark.parametrize("n", [1, 5, 10, 15])
@pytest.mark.parametrize("delta", [0.0, 0.8, 2.7])
def test_density_shift_and_evenness(n, delta):
    base = outcome_density(n, 0.0, delta)
    np.testing.assert_allclose(outcome_density(n, 1.3, 1.3 + delta), base, rtol=0, atol=1e-12)
    np.testing.assert_allclose(outcome_density(n, 0.0, -delta), base, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [0, 1, 5, 10, 15])
def test_density_series_matches_quadrature(n):
    for y_m in (0.0, 1.1, 3.4):
        series = outcome_density(n, 0.3, y_m)
        quad = outcome_density_quadrature(n, 0.3, y_m)
        np.testing.assert_allclose(series, quad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [0, 1, 5, 15])
def test_density_normalized_over_outcomes(n):
    half = 10.0 + np.sqrt(2.0 * n + 1.0)
    g = Grid1D(-half, half, 2001)
    values = np.array([outcome_density(n, 0.0, y) for y in g.xs])
    np.testing.assert_array_equal(outcome_density(n, 0.0, g.xs), values)
    total = values @ integration_weights(g)
    np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-10)


def test_density_spot_value():
    np.testing.assert_allclose(
        outcome_density(5, 1.0, 2.5), 0.11512068012654433, rtol=0, atol=1e-14
    )


def test_window_probability_small_width_linear():
    got = window_probability(5, 0.0, 0.01)
    np.testing.assert_allclose(got, outcome_density(5, 0.0, 0.0) * 0.01, rtol=1e-5)


@pytest.mark.parametrize("n, width", [(1, 1e4), (300, 1e300), (40, 1e4)])
def test_window_probability_far_wider_than_density(n, width):
    # P is a closed form, so a window far wider than the density is no harder
    assert abs(window_probability(n, 0.0, width) - 1.0) <= 1e-9


def test_window_probability_wide_window_near_one():
    wide = window_probability(1, 0.0, 24.0)
    np.testing.assert_allclose(wide, 1.0, rtol=0, atol=1e-8)


def _window_widths(n):
    # from far inside the density's peak to past both turning points
    r = np.sqrt(2.0 * n + 1.0)
    return np.concatenate([[1e-3, 0.1, 1.0, 4.0], r * np.array([0.25, 0.5, 1.0, 1.5, 2.0, 3.0])])


@pytest.mark.parametrize("n", [0, 1, 5, 15, 40, 200, 1000, 2000, 10_000])
def test_window_probability_matches_incomplete_gamma(n):
    # P = sum_j c_j c_{n-j} P(j + 1/2, t), t = width^2/8, with SciPy's regularized
    # incomplete gamma; at n = 10^4 the log-space Poisson weights limit P to 5e-12
    c = _central_binomials(n)
    widths = _window_widths(n)
    expected = [c * c[::-1] @ gammainc(np.arange(n + 1) + 0.5, w * w / 8.0) for w in widths]
    got = [window_probability(n, 0.0, w) for w in widths]
    np.testing.assert_allclose(got, expected, rtol=2e-12 if n <= 2000 else 1e-11, atol=0)


@pytest.mark.parametrize("n", [0, 1, 5, 15, 40, 200])
def test_window_probability_matches_fine_simpson(n):
    for width in _window_widths(n):
        grid = Grid1D(-0.5 * width, 0.5 * width, 20_001)
        expected = outcome_density(n, 0.0, grid.xs) @ integration_weights(grid)
        np.testing.assert_allclose(window_probability(n, 0.0, width), expected, rtol=1e-12)


@pytest.mark.parametrize("width", [1e-300, 1e-3, 0.5, 1.0, 2.0, 7.5, 40.0, 1e300])
def test_vacuum_window_probability_is_erf(width):
    assert window_probability(0, 0.0, width) == math.erf(width / (2.0 * math.sqrt(2.0)))


@pytest.mark.parametrize("x0", [3.0, 123456.5, 1e9])
@pytest.mark.parametrize("n, width", [(1, 0.1), (5, 1.0), (15, 2.0), (200, 1.0)])
def test_window_averages_depend_on_width_alone(n, width, x0):
    # both work in the offset y - x0, so a large x0 costs no digits
    assert window_probability(n, x0, width) == window_probability(n, 0.0, width)
    assert mixed_fidelity(n, x0, width) == mixed_fidelity(n, 0.0, width)


def test_mixed_fidelity_frozen_sequence():
    widths = [0.1, 0.5, 1.0, 2.0]
    expected = [
        0.9947384010336253,
        0.9942744257518816,
        0.992793522665818,
        0.9862819215847776,
    ]
    got = [mixed_fidelity(5, 0.0, d) for d in widths]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)
    assert got[0] > got[1] > got[2] > got[3]


def test_mixed_fidelity_narrow_window_limit():
    narrow = mixed_fidelity(5, 0.0, 0.01)
    np.testing.assert_allclose(narrow, fidelity_cat_scan(5, 0.0, 0.0), rtol=0, atol=1e-5)


def test_mixed_fidelity_translation_invariant():
    base = mixed_fidelity(3, 0.0, 0.5)
    moved = mixed_fidelity(3, 3.0, 0.5)
    np.testing.assert_allclose(moved, base, rtol=0, atol=1e-12)


def test_mixed_fidelity_rejects_window_past_turning_point():
    with pytest.raises(SingularShearError):
        mixed_fidelity(1, 0.0, 2.0 * np.sqrt(3.0) + 0.1)


# the relative agreement the metrics module docstring states, per n
@pytest.mark.parametrize(
    "n, rtol",
    [pytest.param(n, rtol, id=str(n)) for n, rtol in
     [(0, 2.3e-15), (1, 2.3e-15), (5, 2.3e-15), (15, 2.3e-15), (200, 2.5e-14),
      (1000, 1.1e-13), (10_000, 1.3e-12)]],
)
@pytest.mark.parametrize("x0", [0.0, 3.0])
@pytest.mark.parametrize("width", [0.05, 1.0, 2.0])
def test_overlap_integrand_matches_closed_form(n, rtol, x0, width):
    ys = x0 + 0.5 * width * np.array([-1.0, -0.37, 0.0, 0.5, 1.0])
    ys = ys[np.abs(ys - x0) < np.sqrt(2.0 * n + 1.0)]
    expected = overlap_sq_quadrature(n, x0, width, ys)
    tp = taylor_phase(GateParams(n, 0.0), x0 - ys)
    got = _overlap_sq(n, ys - x0, tp.p_plus, tp.theta0)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got, expected, rtol=rtol, atol=0)


def test_adaptive_nodes_rejects_non_finite_estimate():
    with pytest.raises(ConvergenceError, match="nan at 201 nodes"):
        _adaptive_nodes(0.0, 1.0, lambda ys: np.full(ys.size, np.nan))


def test_adaptive_nodes_raises_when_not_converged():
    # the estimate equals the node count, so successive levels never agree
    with pytest.raises(ConvergenceError, match="within 6401 nodes"):
        _adaptive_nodes(0.0, 1.0, lambda ys: np.full(ys.size, float(ys.size)))
