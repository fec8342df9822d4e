from __future__ import annotations

import numpy as np
import pytest
from scipy.special import binom, factorial, genlaguerre

from catgate.errors import GridCoverageError
from catgate.gate import GateParams, outcome_norm, perfect_cat
from catgate.metrics import outcome_density
from catgate.numerics import Grid1D, integration_weights
from catgate.states import CoherentParams, coherent_wavefunction, fock_wavefunction
from catgate.wigner import (
    WignerGrid,
    aligned_state_grid,
    default_axes,
    wigner_cat_reference,
    wigner_mehler,
    wigner_output_quadrature,
    wigner_quadrature,
)
from oracles import outcome_norm_exact


def _sign_changes(slice_values, floor=1e-12):
    kept = slice_values[np.abs(slice_values) > floor]
    return int(np.sum(np.sign(kept[1:]) != np.sign(kept[:-1])))


def test_wigner_grid_validation():
    xa, pa = Grid1D(-1.0, 1.0, 3), Grid1D(-1.0, 1.0, 5)
    with pytest.raises(ValueError):
        WignerGrid(xa, pa, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        WignerGrid(xa, pa, np.full((3, 5), np.nan))


def test_default_axes_geometry():
    # x spans 6 beyond both x0 = 3 and x_c = 2, 13 wide, at no coarser a
    # spacing than 12/200
    params = GateParams(4, 1.0)
    xa, pa = default_axes(params, CoherentParams(3.0, 0.5))
    np.testing.assert_allclose((xa.x_min, xa.x_max), (-4.0, 9.0))
    np.testing.assert_allclose((pa.x_min, pa.x_max), (0.5 - 7.0, 0.5 + 7.0))
    assert (xa.count, pa.count) == (219, 201)


@pytest.mark.parametrize("n", [10, 2000])
@pytest.mark.parametrize("x0", [0.1, -2.5])
def test_default_axes_centred_outcome_unchanged(n, x0):
    # at y_m = x0 the x axis is x0 +/- 6 with the p axis's count, as before
    # the axis followed x0 for off-centre outcomes
    xa, pa = default_axes(GateParams(n, x0), CoherentParams(x0, 0.3))
    assert xa == Grid1D(x0 - 6.0, x0 + 6.0, pa.count)


@pytest.mark.parametrize(
    "n, y_m",
    [(100, 10.0), (100, -10.0), (300, 10.0), (300, 20.0)]
    + [(1, 22.0), (4, 25.0), (10, 30.0), (150, 40.0)],
)
def test_default_axes_keep_mass_off_centre(n, y_m):
    # for the first four sqrt(2n+1) is comparable to |y_m - x0| and the state
    # sits near x0, which an x axis centred between x0 and y_m missed by up to
    # all its mass; for the others it sits between that centre and x0, and
    # an x axis reaching 6 beyond x0 would cross the Hermite range 26.6 from
    # y_m, where wigner_mehler refuses the map
    params, inp = GateParams(n, y_m), CoherentParams(0.0, 0.0)
    xa, pa = default_axes(params, inp)
    assert xa.spacing <= 12.0 / (pa.count - 1)
    np.testing.assert_allclose(
        wigner_mehler(params, inp, xa, pa).total_mass(), 1.0, rtol=0, atol=1e-6
    )


def test_aligned_state_grid_contains_axis():
    xa = Grid1D(-2.0, 3.0, 41)
    sg = aligned_state_grid(xa, -9.0, 11.0)
    assert sg.x_min <= -9.0 and sg.x_max >= 11.0
    idx = np.rint((xa.xs - sg.x_min) / sg.spacing).astype(int)
    np.testing.assert_allclose(sg.x_min + idx * sg.spacing, xa.xs, rtol=0, atol=1e-12)


def test_mehler_n0_is_shifted_gaussian():
    params = GateParams(0, 2.0)
    inp = CoherentParams(0.0, 1.0)
    xa, pa = Grid1D(-3.0, 5.0, 81), Grid1D(-3.0, 5.0, 79)
    w = wigner_mehler(params, inp, xa, pa)
    mu = 1.0
    expected = (
        np.exp(-2.0 * (xa.xs - mu) ** 2)[:, None]
        * np.exp(-0.5 * (pa.xs - 1.0) ** 2)[None, :]
        / np.pi
    )
    np.testing.assert_allclose(w.values, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [1, 3, 8, 15])
def test_mehler_centered_slice_matches_laguerre(n):
    params = GateParams(n, 1.5)
    inp = CoherentParams(1.5, -0.5)
    xa = Grid1D(1.5 - 5.0, 1.5 + 5.0, 101)
    pa = Grid1D(-0.5 - 1.0, -0.5 + 1.0, 3)
    w = wigner_mehler(params, inp, xa, pa)
    x_t = xa.xs - 1.5
    norm = binom(2 * n, n) / 4.0**n
    expected = (
        np.exp(-2.0 * x_t**2)
        * (-1.0) ** n
        * genlaguerre(n, -0.5)(2.0 * x_t**2)
        / (np.pi * norm)
    )
    np.testing.assert_allclose(w.values[:, 1], expected, rtol=0, atol=1e-12)


def test_mehler_context_consistent_with_density():
    # M_n = e^{-delta^2/2} sum_k C(2k,k)/4^k (delta^2/2)^(n-k)/(n-k)!, the
    # normalization of the Wigner map, against SciPy where the terms stay in
    # range, against exact arithmetic everywhere, and against the outcome
    # density it also scales
    cases = ((3, 0.0, 1.0), (8, 2.0, 0.5), (40, -1.0, 6.0), (0, 1.0, -2.0),
             (300, 0.0, 40.0), (1000, 0.0, 10.0))
    for n, x0, y_m in cases:
        delta = y_m - x0
        if n <= 40:
            k = np.arange(n + 1)
            scipy_sum = np.sum(
                binom(2 * k, k) / 4.0**k * (0.5 * delta**2) ** (n - k) / factorial(n - k)
            )
            np.testing.assert_allclose(
                outcome_norm(n, delta), np.exp(-0.5 * delta**2) * scipy_sum, rtol=1e-13
            )
        exact = float(outcome_norm_exact(n, delta))
        np.testing.assert_allclose(outcome_norm(n, delta), exact, rtol=1e-13)
        from_density = outcome_density(n, x0, y_m) * np.sqrt(2.0 * np.pi)
        np.testing.assert_allclose(outcome_norm(n, delta), from_density, rtol=1e-12)


def test_rates_past_the_double_range_give_zero_weights():
    # delta^2/2 overflows to inf above |delta| ~ 1.34e154; M_n and the Poisson
    # rows of the map are then 0, the correctly rounded value, with no warning
    assert outcome_norm(3, 1e200) == 0.0
    assert outcome_norm(0, 1e160) == 0.0
    np.testing.assert_array_equal(outcome_norm(2, [-1e200, 0.0]), [0.0, 0.375])
    params, inp = GateParams(3, 0.0), CoherentParams(0.0, 0.0)
    axis = Grid1D(-1.0, 1.0, 3)
    far = wigner_mehler(params, inp, axis, Grid1D(-1e200, 1e200, 3)).values
    near = wigner_mehler(params, inp, axis, axis).values
    np.testing.assert_array_equal(far[:, [0, 2]], 0.0)
    np.testing.assert_array_equal(far[:, 1], near[:, 1])


@pytest.mark.parametrize("n, count", [(300, 283), (600, 399), (1000, 515), (2000, 727)])
def test_default_axes_keep_mass_at_large_n(n, count):
    params = GateParams(n, 0.0)
    inp = CoherentParams(0.0, 0.0)
    xa, pa = default_axes(params, inp)
    assert xa.count == pa.count == count
    np.testing.assert_allclose(
        wigner_mehler(params, inp, xa, pa).total_mass(), 1.0, rtol=0, atol=1e-7
    )


def test_engines_agree_on_wide_momentum_axis():
    # a p axis reaching 40 at n = 500 used to overflow the power-series engine
    params = GateParams(500, 0.0)
    inp = CoherentParams(0.0, 0.0)
    xa = Grid1D(-3.0, 3.0, 61)
    pa = Grid1D(-40.0, 40.0, 11)
    wm = wigner_mehler(params, inp, xa, pa)
    wq = wigner_output_quadrature(params, inp, xa, pa)
    np.testing.assert_allclose(wm.values, wq.values, rtol=0, atol=1e-12)


def test_mehler_rejects_axis_beyond_hermite_range():
    # at n = 600, y_m = 28 the state sits near x0 = 0, where x - y_m is beyond
    # the range in which e^{-(x - y_m)^2} starts the Hermite rows
    params = GateParams(600, 28.0)
    inp = CoherentParams(0.0, 0.0)
    pa = Grid1D(-params.radius - 4.0, params.radius + 4.0, 41)
    with pytest.raises(GridCoverageError, match="26.6"):
        wigner_mehler(params, inp, Grid1D(-6.0, 6.0, 41), pa)
    # within that range the map is computed, and is what quadrature gives
    xa = Grid1D(1.5, 4.5, 31)
    wm = wigner_mehler(params, inp, xa, pa)
    wq = wigner_output_quadrature(params, inp, xa, pa)
    np.testing.assert_allclose(wm.values, wq.values, rtol=0, atol=1e-12)


def test_engines_agree_off_center():
    params = GateParams(3, 1.0)
    inp = CoherentParams(0.0, 0.5)
    xa = Grid1D(-4.0, 5.0, 91)
    pa = Grid1D(-3.5, 4.5, 81)
    wm = wigner_mehler(params, inp, xa, pa)
    wq = wigner_output_quadrature(params, inp, xa, pa)
    np.testing.assert_allclose(wm.values, wq.values, rtol=0, atol=1e-10)


def test_total_mass_and_marginal():
    params = GateParams(5, 0.5)
    inp = CoherentParams(0.0, 0.0)
    xa = Grid1D(0.25 - 7.0, 0.25 + 7.0, 281)
    pa = Grid1D(-params.radius - 8.0, params.radius + 8.0, 561)
    w = wigner_mehler(params, inp, xa, pa)
    np.testing.assert_allclose(w.total_mass(), 1.0, rtol=0, atol=1e-8)
    marginal = w.values @ integration_weights(pa)
    sg = aligned_state_grid(xa, -9.0, 9.0)
    from catgate.gate import exact_output

    out = exact_output(params, coherent_wavefunction(inp, sg))
    idx = np.rint((xa.xs - sg.x_min) / sg.spacing).astype(int)
    np.testing.assert_allclose(marginal, np.abs(out.values[idx]) ** 2, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", range(11))
def test_fock_wigner_center_parity(n):
    xa = pa = Grid1D(-1.0, 1.0, 3)
    r = np.sqrt(2.0 * n + 1.0)
    sg = aligned_state_grid(xa, -(r + 9.0), r + 9.0)
    w = wigner_quadrature(fock_wavefunction(n, sg), xa, pa)
    np.testing.assert_allclose(w.values[1, 1], (-1.0) ** n / np.pi, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_fock_wigner_ring_count(n):
    r = np.sqrt(2.0 * n + 1.0)
    xa = Grid1D(-1.0, 1.0, 3)
    pa = Grid1D(-(r + 3.0), r + 3.0, 1201)
    sg = aligned_state_grid(xa, -(r + 9.0), r + 9.0)
    w = wigner_quadrature(fock_wavefunction(n, sg), xa, pa)
    assert _sign_changes(w.values[1]) == 2 * n


@pytest.mark.parametrize("n,changes", [(1, 2), (2, 0), (5, 2), (15, 2)])
def test_output_momentum_slice_is_cat_like(n, changes):
    params = GateParams(n, 0.0)
    inp = CoherentParams(0.0, 0.0)
    _, pa = default_axes(params, inp)
    w = wigner_mehler(params, inp, Grid1D(-1.0, 1.0, 3), pa)
    slice_p = w.values[1]
    assert _sign_changes(slice_p) == changes
    center = np.argmin(np.abs(pa.xs))
    assert np.sign(slice_p[center]) == (-1.0) ** n


@pytest.mark.parametrize("n", [1, 4])
def test_cat_reference_mirror_symmetry(n):
    params = GateParams(n, 1.0)
    inp = CoherentParams(1.0, 0.0)
    cat = perfect_cat(params, inp)
    xa = Grid1D(-3.0, 5.0, 101)
    pa = Grid1D(-params.radius - 4.0, params.radius + 4.0, 151)
    w = wigner_cat_reference(cat, xa, pa)
    np.testing.assert_allclose(w.values, w.values[:, ::-1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(w.total_mass(), 1.0, rtol=0, atol=1e-7)


def test_cat_reference_fringe_spacing():
    n = 5
    params = GateParams(n, 0.0)
    inp = CoherentParams(0.0, 0.0)
    cat = perfect_cat(params, inp)
    xa = Grid1D(-3.0, 3.0, 1201)
    pa = Grid1D(-1.0, 1.0, 3)
    w = wigner_cat_reference(cat, xa, pa)
    row = w.values[:, 1]
    crossings = np.where(np.sign(row[1:]) != np.sign(row[:-1]))[0]
    spacing = np.diff(xa.xs[crossings])
    np.testing.assert_allclose(
        spacing.mean(), np.pi / (2.0 * params.radius), rtol=0.02
    )


def test_quadrature_rejects_misaligned_axis():
    state = coherent_wavefunction(CoherentParams(0.0, 0.0), Grid1D(-10.0, 10.0, 2001))
    bad = Grid1D(-1.0, 1.0, 7)
    with pytest.raises(GridCoverageError):
        wigner_quadrature(state, bad, Grid1D(-1.0, 1.0, 3))


def test_quadrature_rejects_undecayed_edges():
    from catgate.states import WaveFunctionGrid

    grid = Grid1D(-4.0, 4.0, 1601)
    broad = np.exp(-(grid.xs**2) / 32.0).astype(complex)
    broad /= np.sqrt(integration_weights(grid) @ np.abs(broad) ** 2)
    state = WaveFunctionGrid(grid, broad)
    with pytest.raises(GridCoverageError):
        wigner_quadrature(state, Grid1D(-1.0, 1.0, 101), Grid1D(-1.0, 1.0, 3))


def test_mehler_even_symmetry_at_origin():
    params = GateParams(6, 0.0)
    inp = CoherentParams(0.0, 0.0)
    xa = Grid1D(-4.0, 4.0, 81)
    pa = Grid1D(-6.0, 6.0, 61)
    w = wigner_mehler(params, inp, xa, pa)
    np.testing.assert_allclose(w.values, w.values[::-1, :], rtol=0, atol=1e-14)
    np.testing.assert_allclose(w.values, w.values[:, ::-1], rtol=0, atol=1e-14)
