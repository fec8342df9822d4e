from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from catgate.errors import ConvergenceError, SingularShearError
from catgate.metrics import (
    _adaptive_nodes,
    _overlap_integrand,
    AcceptanceWindow,
    fidelity,
    fidelity_cat_scan,
    fidelity_scl_scan,
    mixed_fidelity,
    outcome_density,
    scan_grid,
    window_probability,
)
from catgate.numerics import Grid1D, integration_weights
from catgate.states import CoherentParams, coherent_wavefunction


def test_window_validation():
    with pytest.raises(ValueError):
        AcceptanceWindow(0.0, 0.0)
    w = AcceptanceWindow(1.0, 0.5)
    assert (w.center, w.width) == (1.0, 0.5)


def test_scan_grid_tracks_midpoint():
    g = scan_grid(2, 1.0, 3.0)
    np.testing.assert_allclose(0.5 * (g.x_min + g.x_max), 2.0, rtol=1e-15)
    assert g.count == 4001
    offsets = scan_grid(2, 0.0, 2.0).xs - 1.0
    np.testing.assert_allclose(g.xs - 2.0, offsets, rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("x0", [0.0, 3.0, 5.0])
@pytest.mark.parametrize("p0", [0.0, 3.0])
def test_cat_fidelity_centered_invariance(x0, p0):
    np.testing.assert_allclose(
        fidelity_cat_scan(5, x0, x0, p0), 0.994757632468833, rtol=0, atol=1e-9
    )


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
        quad = outcome_density(n, 0.3, y_m, method="quadrature")
        np.testing.assert_allclose(series, quad, rtol=0, atol=1e-12)


def test_density_rejects_unknown_method():
    with pytest.raises(ValueError):
        outcome_density(1, 0.0, 0.0, method="montecarlo")


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
    got = window_probability(5, 0.0, AcceptanceWindow(0.0, 0.01))
    np.testing.assert_allclose(got, outcome_density(5, 0.0, 0.0) * 0.01, rtol=1e-5)


def test_window_probability_wide_window_near_one():
    wide = window_probability(1, 0.0, AcceptanceWindow(0.0, 24.0))
    np.testing.assert_allclose(wide, 1.0, rtol=0, atol=1e-8)


def test_mixed_fidelity_frozen_sequence():
    widths = [0.1, 0.5, 1.0, 2.0]
    expected = [
        0.9947384010336253,
        0.9942744257518816,
        0.992793522665818,
        0.9862819215847776,
    ]
    got = [mixed_fidelity(5, 0.0, AcceptanceWindow(0.0, d)) for d in widths]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)
    assert got[0] > got[1] > got[2] > got[3]


def test_mixed_fidelity_narrow_window_limit():
    narrow = mixed_fidelity(5, 0.0, AcceptanceWindow(0.0, 0.01))
    np.testing.assert_allclose(narrow, fidelity_cat_scan(5, 0.0, 0.0), rtol=0, atol=1e-5)


def test_mixed_fidelity_translation_invariant():
    base = mixed_fidelity(3, 0.0, AcceptanceWindow(0.0, 0.5))
    moved = mixed_fidelity(3, 3.0, AcceptanceWindow(3.0, 0.5))
    np.testing.assert_allclose(moved, base, rtol=0, atol=1e-12)


def test_mixed_fidelity_window_must_track_input():
    with pytest.raises(ValueError):
        mixed_fidelity(3, 0.0, AcceptanceWindow(1.0, 0.5))


def test_mixed_fidelity_rejects_window_past_turning_point():
    with pytest.raises(SingularShearError):
        mixed_fidelity(1, 0.0, AcceptanceWindow(0.0, 2.0 * np.sqrt(3.0) + 0.1))


def _overlap_sq_closed_form(n, x0, y):
    """|<cat(y)|psi~(y)>|^2 from the Hermite generating function.

    int pi^{-1/2} e^{-(u+d)^2} e^{-iku} h_n(u) du = C sqrt(n!) [t^n] e^{at + bt^2}
    with d = y - x0, a = -sqrt(2)(2d + ik)/3, b = -1/6 and
    C = sqrt(2/3) pi^{-1/4} e^{(2d + ik)^2/6 - d^2}. The coefficients
    c_m = [t^m] e^{at + bt^2} follow m c_m = a c_{m-1} + 2b c_{m-2}; the loop
    carries g_m = sqrt(m!) c_m, which stays finite for n into the thousands.
    """
    d = y - x0
    r2 = 2.0 * n + 1.0
    z = -d / math.sqrt(r2)
    theta0 = r2 * (z * math.sqrt(1.0 - z * z) + math.asin(z)) / 2.0
    p = math.sqrt(r2 - d * d)

    def transform(k):
        a = -math.sqrt(2.0) * (2.0 * d + 1j * k) / 3.0
        g_prev, g = 0j, 1.0 + 0j
        for m in range(1, n + 1):
            g, g_prev = a * g / math.sqrt(m) - g_prev * math.sqrt((m - 1) / m) / 3.0, g
        c = math.sqrt(2.0 / 3.0) * math.pi**-0.25 * cmath.exp((2.0 * d + 1j * k) ** 2 / 6.0 - d * d)
        return c * g

    sign = -1.0 if n % 2 else 1.0
    phase = cmath.exp(1j * (theta0 + p * d))
    value = transform(p) / phase + sign * phase * transform(-p)
    return abs(value) ** 2 / (2.0 + 2.0 * sign * math.exp(-p * p) * math.cos(2.0 * theta0))


@pytest.mark.parametrize("n", [0, 1, 5, 15, 200, 1000])
@pytest.mark.parametrize("x0", [0.0, 3.0])
@pytest.mark.parametrize("width", [0.05, 1.0, 2.0])
def test_overlap_integrand_matches_closed_form(n, x0, width):
    ys = x0 + 0.5 * width * np.array([-1.0, -0.37, 0.0, 0.5, 1.0])
    ys = ys[np.abs(ys - x0) < np.sqrt(2.0 * n + 1.0)]
    expected = [_overlap_sq_closed_form(n, x0, y) for y in ys]
    got = _overlap_integrand(n, x0, width)(ys)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_adaptive_nodes_rejects_non_finite_estimate():
    with pytest.raises(ConvergenceError, match="nan at 201 nodes"):
        _adaptive_nodes(0.0, 1.0, lambda ys: np.full(ys.size, np.nan))


def test_adaptive_nodes_raises_when_not_converged():
    # the estimate equals the node count, so successive levels never agree
    with pytest.raises(ConvergenceError, match="within 6401 nodes"):
        _adaptive_nodes(0.0, 1.0, lambda ys: np.full(ys.size, float(ys.size)))
