from __future__ import annotations

import gc
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import binom, factorial, genlaguerre

import catgate.wigner
from catgate.errors import GridCoverageError, ZeroProbabilityError
from catgate.gate import GateParams, _central_binomials, exact_output, outcome_norm, perfect_cat
from catgate.metrics import fidelity_cat_scan, outcome_density
from catgate.numerics import (
    _BLOCK_VALUES,
    Grid1D,
    _poisson_weights,
    eval_hermite_fn,
    integration_weights,
)
from catgate.states import CoherentParams, assemble_cat, coherent_wavefunction, fock_wavefunction
from catgate.wigner import (
    WignerGrid,
    aligned_state_grid,
    default_axes,
    wigner_cat_reference,
    wigner_mehler,
    wigner_output_quadrature,
    wigner_quadrature,
)
from oracles import outcome_norm_exact, wigner_cell_exact


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
    + [(1, 22.0), (4, 25.0), (10, 30.0), (150, 40.0)]
    + [(300, 25.0), (1000, 30.0)],
)
def test_default_axes_keep_mass_off_centre(n, y_m):
    # for the first four sqrt(2n+1) is comparable to |y_m - x0| and the state
    # sits near x0, which an x axis centred between x0 and y_m missed by up to
    # all its mass; for the next four it sits between that centre and x0; for
    # the last two it sits near x0, where the first Hermite row
    # e^{-(x - y_m)^2} is below the double range
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


def test_aligned_state_grid_refuses_over_budget_before_allocating():
    # x0 = 1e4: 401 axis points times a 667,668-point grid at 0.015 spacing; one
    # 32-row block of its correlation rows would take 342 MB, and all of them 4.3 GB
    with pytest.raises(GridCoverageError,
                       match="needs 667668 state-grid points for 401 axis points"):
        aligned_state_grid(Grid1D(-6.0, 6.0, 401), 1e4 - 9.0, 1e4 + 9.0)


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


def test_outcome_norm_agrees_with_exact_arithmetic_at_n_2000():
    # the figure outcome_norm's docstring and README state: 4.2e-13 relative
    # at n = 2000 and an offset of 60 (4.17e-13 measured)
    exact = float(outcome_norm_exact(2000, 60.0))
    np.testing.assert_allclose(outcome_norm(2000, 60.0), exact, rtol=5e-13, atol=0)


def test_rates_past_the_double_range_give_zero_weights():
    # delta^2/2 overflows to inf above |delta| ~ 1.34e154; M_n and the Poisson
    # rows of the map are then 0, the correctly rounded value, with no warning
    assert _poisson_weights(np.array([1e200]), 300).tolist() == [[0.0] * 301]
    assert outcome_norm(3, 1e200) == 0.0
    assert outcome_norm(0, 1e160) == 0.0
    np.testing.assert_array_equal(outcome_norm(2, [-1e200, 0.0]), [0.0, 0.375])
    params, inp = GateParams(3, 0.0), CoherentParams(0.0, 0.0)
    axis = Grid1D(-1.0, 1.0, 3)
    far = wigner_mehler(params, inp, axis, Grid1D(-1e200, 1e200, 3)).values
    near = wigner_mehler(params, inp, axis, axis).values
    np.testing.assert_array_equal(far[:, [0, 2]], 0.0)
    np.testing.assert_array_equal(far[:, 1], near[:, 1])


def test_blocked_factors_and_exponents_are_the_whole_rows_bit_for_bit():
    # c_k and the Poisson exponents are made _BLOCK_VALUES of k at a time, each
    # block of c_k carrying the product before it: the same numbers as one
    # cumprod and one exponent row over all k, here across three block edges
    n = 3 * _BLOCK_VALUES + 5
    k = np.arange(1.0, n + 1.0)
    whole = np.cumprod(np.concatenate(([1.0], (2.0 * k - 1.0) / (2.0 * k))))
    assert _central_binomials(n).tobytes() == whole.tobytes()
    t = np.array([0.0, 0.7, 250.0])
    lam = 0.5 * t * t
    log_lam = np.log(lam, out=np.full(3, -np.inf), where=lam > 0.0)
    expo = np.zeros((3, n + 1))
    expo[:, :n] = log_lam[:, None] * np.arange(float(n), 0.0, -1.0)
    expo -= lam[:, None] + np.array([math.lgamma(j + 1.0) for j in range(n, -1, -1)])
    assert _poisson_weights(t, n).tobytes() == np.exp(expo).tobytes()


def test_outcome_norm_holds_two_rows_and_a_block():
    # the Poisson row, weighted in place by the row of c_k, and one block of
    # _BLOCK_VALUES values at a time besides: 32.5 MB traced at n = 2e6, where
    # whole-row factors and exponents took four rows, 64 MB (the cached row of
    # log factorials, 16 MB, is built first)
    n = 2_000_000
    expected = outcome_norm(n, 0.0)
    tracemalloc.start()
    try:
        assert outcome_norm(n, 0.0) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (2 * (n + 1) + _BLOCK_VALUES) + 64e3


def _density_threshold(n: int) -> tuple[float, float]:
    """Adjacent doubles lo < hi with outcome densities P(lo) >= 1e-300 > P(hi)
    at x0 = 0, found by bisection."""
    lo, hi = 0.0, 1e3
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if outcome_density(n, 0.0, mid) >= 1e-300:
            lo = mid
        else:
            hi = mid
    return lo, hi


@pytest.mark.parametrize("n", [1, 300])
def test_refusal_band_is_the_same_everywhere(n):
    # one rule, P < 1e-300, on the density itself: the Wigner map, its default
    # axes and the cat fidelity all keep the last outcome below the threshold
    # and all refuse the next double
    lo, hi = _density_threshold(n)
    inp, axis = CoherentParams(0.0, 0.0), Grid1D(-1.0, 1.0, 3)
    default_axes(GateParams(n, lo), inp)
    wigner_mehler(GateParams(n, lo), inp, axis, axis)
    fidelity_cat_scan(n, lo, 0.0)
    refusals = (
        lambda: default_axes(GateParams(n, hi), inp),
        lambda: wigner_mehler(GateParams(n, hi), inp, axis, axis),
        lambda: fidelity_cat_scan(n, hi, 0.0),
    )
    for refused in refusals:
        with pytest.raises(ZeroProbabilityError, match="conditional state undefined"):
            refused()


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


def test_mehler_matches_quadrature_far_from_outcome():
    # at n = 600, y_m = 28 the state sits near x0 = 0, where the first
    # Hermite row e^{-(x - y_m)^2} underflows; the rows carry that part in
    # their exponent
    params = GateParams(600, 28.0)
    inp = CoherentParams(0.0, 0.0)
    xa = Grid1D(-6.0, 6.0, 41)
    pa = Grid1D(-params.radius - 4.0, params.radius + 4.0, 41)
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


@pytest.mark.parametrize("n, x0", [(0, 1e8), (1, 3e8)])
def test_cat_reference_far_from_origin_keeps_mass(n, x0):
    params, inp = GateParams(n, x0), CoherentParams(x0)
    w = wigner_cat_reference(perfect_cat(params, inp), *default_axes(params, inp))
    np.testing.assert_allclose(w.total_mass(), 1.0, rtol=0, atol=1e-7)


# 45 log-spaced offsets in [1e3, 1e9], rounded to multiples of 0.25, so that
# the 0.25-spaced axes around them are exact doubles
_FAR_X0 = np.round(np.logspace(3.0, 9.0, 45) * 4.0) / 4.0


@pytest.mark.parametrize("n", [0, 1, 4])
def test_cat_reference_far_from_origin_matches_origin(n):
    # the axes' points are exact doubles at every offset, so each map samples
    # the origin map's cells, and no phase or Gaussian argument may lose digits to x0
    pa = Grid1D(-6.0, 6.0, 49)
    near = wigner_cat_reference(perfect_cat(GateParams(n, 0.0), CoherentParams(0.0)),
                                Grid1D(-6.0, 6.0, 49), pa).values
    off = {}
    for x0 in _FAR_X0:
        far = wigner_cat_reference(perfect_cat(GateParams(n, x0), CoherentParams(x0)),
                                   Grid1D(x0 - 6.0, x0 + 6.0, 49), pa).values
        err = float(np.max(np.abs(far - near)) / np.max(np.abs(near)))
        if err > 1e-12:
            off[float(x0)] = err
    assert not off, off


# W_cat of the n = 300 cat at y_m = x0 = p0 = 0 on the map of `wigner --n 300
# --with-cat --x-range=-6:6:201 --p-range=-29:29:201`, at fringe cells (x index,
# p index). The values are the closed form
# e^{-x^2} [e^{-(p-r)^2} + e^{-(p+r)^2} + 2 e^{-p^2} cos 2rx] / (pi N), with
# r = sqrt(601) and N = 2 + 2 e^{-601}, evaluated in mpmath at 50 significant
# digits at the axes' double x and p, and rounded to 20 digits
_FRINGE_CELLS = [
    ((97, 101), "-0.23393881572545614471"),
    ((103, 99), "-0.23393881572544877871"),
    ((98, 101), "0.26573568280968060053"),
    ((97, 102), "-0.18177317342005503056"),
    ((103, 100), "-0.25446406050018920462"),
    ((101, 101), "-0.28578504881501894874"),
]


def test_cat_reference_fringe_cells_match_50_digit_values():
    cat = perfect_cat(GateParams(300, 0.0), CoherentParams(0.0))
    w = wigner_cat_reference(cat, Grid1D(-6.0, 6.0, 201), Grid1D(-29.0, 29.0, 201)).values
    bound = 1e-14 * np.max(np.abs(w))
    for cell, value in _FRINGE_CELLS:
        assert abs(w[cell] - float(value)) <= bound, cell


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


# n = 400 puts the components so far apart that their overlap e^{-r^2} = e^{-801}
# underflows
@pytest.mark.parametrize(
    "n, y_m, x0, p0", [(2, 0.2, 0.5, -0.3), (7, 1.0, -0.5, 1.5), (20, -2.0, 0.3, 0.7),
                       (400, 0.5, -1.0, 2.5)]
)
def test_cat_reference_matches_quadrature_of_assembled_cat(n, y_m, x0, p0):
    params = GateParams(n, y_m)
    cat = perfect_cat(params, CoherentParams(x0, p0))
    xa = Grid1D(x0 - 4.0, x0 + 4.0, 41)
    pa = Grid1D(p0 - params.radius - 4.0, p0 + params.radius + 4.0, 81)
    state = assemble_cat(cat, aligned_state_grid(xa, x0 - 9.0, x0 + 9.0))
    np.testing.assert_allclose(
        wigner_cat_reference(cat, xa, pa).values, wigner_quadrature(state, xa, pa).values,
        rtol=0, atol=1e-12,
    )


def test_quadrature_rejects_misaligned_axis():
    state = coherent_wavefunction(CoherentParams(0.0, 0.0), Grid1D(-10.0, 10.0, 2001))
    bad = Grid1D(-1.0, 1.0, 7)
    with pytest.raises(GridCoverageError):
        wigner_quadrature(state, bad, Grid1D(-1.0, 1.0, 3))


def test_quadrature_rejects_two_x_values_on_one_state_sample():
    # both points round onto sample 1000, so the x rows are no strided view
    state = coherent_wavefunction(CoherentParams(0.0, 0.0), Grid1D(-10.0, 10.0, 2001))
    with pytest.raises(GridCoverageError, match="does not lie on the state grid"):
        wigner_quadrature(state, Grid1D(0.0, 1e-12, 2), Grid1D(-1.0, 1.0, 3))


def test_quadrature_rejects_undecayed_edges():
    from catgate.states import WaveFunctionGrid

    grid = Grid1D(-4.0, 4.0, 1601)
    broad = np.exp(-(grid.xs**2) / 32.0).astype(complex)
    broad /= np.sqrt(integration_weights(grid) @ np.abs(broad) ** 2)
    state = WaveFunctionGrid(grid, broad)
    with pytest.raises(GridCoverageError):
        wigner_quadrature(state, Grid1D(-1.0, 1.0, 101), Grid1D(-1.0, 1.0, 3))


@pytest.mark.parametrize("count", [2, 31, 33, 65, 401])
@pytest.mark.parametrize("rows", [2, 7, 10**6])
def test_quadrature_does_not_depend_on_block_rows(count, rows, monkeypatch):
    args = (GateParams(5, 0.3), CoherentParams(0.2, 0.1), Grid1D(-4.0, 4.0, count),
            Grid1D(-8.0, 8.0, 61))
    default = wigner_output_quadrature(*args).values
    monkeypatch.setattr(catgate.wigner, "_BLOCK_ROWS", rows)
    values = wigner_output_quadrature(*args).values
    # a one-row block is a matrix-vector product, which BLAS sums in another order
    blocks = -(-count // rows)
    tol = 1e-15 * np.max(np.abs(default)) if count // blocks == 1 else 0.0
    np.testing.assert_allclose(values, default, rtol=0, atol=tol)


@pytest.mark.parametrize("count", [2, 5, 9, 61, 401])
@pytest.mark.parametrize("points", [1, 8_000, 60_000, 10**9])
def test_quadrature_does_not_depend_on_slice_width(count, points, monkeypatch):
    # on the 902-point state grid: slices 4, 8, 64 and all columns wide, against 72
    args = (GateParams(5, 0.3), CoherentParams(0.2, 0.1), Grid1D(-4.0, 4.0, 81),
            Grid1D(-8.0, 8.0, count))
    default = wigner_output_quadrature(*args).values
    monkeypatch.setattr(catgate.wigner, "_SLICE_POINTS", points)
    np.testing.assert_array_equal(wigner_output_quadrature(*args).values, default)


def _traced_peak(function, *args) -> int:
    function(*args)
    gc.collect()  # no cycle of an earlier run is freed while traced
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _quadrature_peak(x_axis: Grid1D, p_axis: Grid1D) -> int:
    args = (GateParams(300, 0.0), CoherentParams(0.0, 0.0), x_axis, p_axis)
    return _traced_peak(wigner_output_quadrature, *args)


def test_quadrature_memory_is_one_block_plus_one_kernel_slice():
    # the result, a slice of 52 columns of the kernel's 600 rows, z > 0 of the
    # 1201-point state grid, and one 32-row block of 600 correlation columns:
    # 1.29 + 0.50 + 0.31 MB, 2.34 MB traced (3.15 MB when the kernel and the
    # block took all 1201 z, 3.67 MB while the next slice's kernel was built
    # beside the last one)
    xa, pa = Grid1D(-6.0, 6.0, 401), Grid1D(-29.0, 29.0, 401)
    assert aligned_state_grid(xa, -9.0, 9.0).count == 1201
    floats = xa.count * pa.count + 2 * 600 * (52 + catgate.wigner._BLOCK_ROWS)
    assert _quadrature_peak(xa, pa) <= 8 * floats + 0.5e6
    # both axes refine to one 1801-point state grid at 0.01 spacing, so the slices
    # are the same and only the output grows, by 1200 x 401 doubles
    growth = _quadrature_peak(Grid1D(-8.0, 8.0, 1601), pa) - _quadrature_peak(
        Grid1D(-2.0, 2.0, 401), pa)
    assert growth <= 1200 * 401 * 8 + 0.25e6


def test_mehler_memory_is_the_result_plus_one_chunk():
    params, inp = GateParams(3000, 0.0), CoherentParams(0.0, 0.0)
    xa, pa = default_axes(params, inp)
    assert (xa.count, pa.count) == (889, 889)
    # the result, 6.3 MB of doubles, plus one chunk of 36 orders' Hermite and
    # Poisson rows and one block of partial products, at most _CHUNK_VALUES
    # doubles each: 7.45 MB traced, where the 3001-row matrices took 49 MB
    floats = xa.count * pa.count + 2 * catgate.wigner._CHUNK_VALUES
    assert _traced_peak(wigner_mehler, params, inp, xa, pa) <= 8 * floats + 0.25e6


def test_mehler_memory_does_not_grow_with_n():
    # on fixed axes only the vectors of n + 1 values grow, 16 kB from n = 1000
    # to 3000, where the (n+1)-row matrices grew by 12.8 MB
    xa, pa, inp = Grid1D(-6.0, 6.0, 401), Grid1D(-90.0, 90.0, 401), CoherentParams(0.0, 0.0)
    peaks = [_traced_peak(wigner_mehler, GateParams(n, 0.0), inp, xa, pa) for n in (1000, 3000)]
    assert peaks[1] <= peaks[0] + 8 * 3 * 2000


@pytest.mark.parametrize("values", [1, 130, 10**9])
def test_mehler_chunks_agree_with_one_product(values, monkeypatch):
    # one order a chunk, 2 orders (the x exponents rise chunk by chunk where
    # the first Hermite rows underflow) and all 601 orders in one product
    args = (GateParams(600, 28.0), CoherentParams(0.0, 0.0), Grid1D(-6.0, 6.0, 41),
            Grid1D(-29.0, 29.0, 25))
    default = wigner_mehler(*args).values
    monkeypatch.setattr(catgate.wigner, "_CHUNK_VALUES", values)
    chunked = wigner_mehler(*args).values
    np.testing.assert_allclose(chunked, default, rtol=0, atol=1e-15 * np.max(np.abs(default)))


@pytest.mark.parametrize("values", [1, 5 * 25, 9 * 25])
def test_mehler_tiles_agree_with_one_tile(values, monkeypatch):
    # tiles of 5 x rows (n = 4 sets that floor) and of 9, one order a chunk or,
    # at 9 * 25 values, three, against the map in one tile
    args = (GateParams(4, 1.5), CoherentParams(0.5, -1.0), Grid1D(-6.0, 6.0, 41),
            Grid1D(-5.0, 5.0, 25))
    default = wigner_mehler(*args).values
    monkeypatch.setattr(catgate.wigner, "_CHUNK_VALUES", values)
    tiles = list(catgate.wigner._mehler_tiles(*args))
    assert [len(t) for t in tiles[:-1]] == [max(5, values // 25)] * (len(tiles) - 1)
    assert len(tiles) > 1
    np.testing.assert_array_equal(np.concatenate(tiles), wigner_mehler(*args).values)
    np.testing.assert_allclose(wigner_mehler(*args).values, default, rtol=0,
                               atol=1e-15 * np.max(np.abs(default)))


def test_outcome_norm_memory_is_one_poisson_matrix():
    # the (offsets x (n+1)) Poisson matrix is weighted in place: one matrix of
    # doubles, 16.0 MB, plus vectors and one block of lam + log j!
    delta = np.linspace(-10.0, 10.0, 1001)
    assert _traced_peak(outcome_norm, 2000, delta) <= 8 * 1001 * 2001 + 1e6


@pytest.mark.parametrize("x0", [-3.5, 3.5])
def test_quadrature_residue_is_the_largest_of_all_blocks(x0, monkeypatch):
    # weights that are not even in z leave an imaginary part, largest in the rows
    # around x0, in the first of three blocks for x0 = -3.5 and the last for 3.5, and
    # in p columns 11 and 19, in the third and fifth of eight 4-column slices
    def skewed(grid):
        return integration_weights(grid) * np.linspace(0.5, 1.5, grid.count)

    monkeypatch.setattr(catgate.wigner, "integration_weights", skewed)
    state = coherent_wavefunction(CoherentParams(x0), Grid1D(-12.0, 12.0, 1201))
    xa, pa = Grid1D(-4.0, 4.0, 81), Grid1D(-3.0, 3.0, 31)
    messages = []
    for rows, points in ((catgate.wigner._BLOCK_ROWS, 1), (10**6, 10**9)):
        monkeypatch.setattr(catgate.wigner, "_BLOCK_ROWS", rows)
        monkeypatch.setattr(catgate.wigner, "_SLICE_POINTS", points)
        with pytest.raises(GridCoverageError, match="imaginary residue") as info:
            wigner_quadrature(state, xa, pa)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def _full_range_quadrature(state, x_axis: Grid1D, p_axis: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """(1/pi) sum_z w c e^{2ipz} over the whole z range, -z included, as one
    complex product, and the correlation c = conj psi(x+z) psi(x-z)."""
    grid = state.grid
    half = (grid.count - 1) // 2
    idx = np.rint((x_axis.xs - grid.x_min) / grid.spacing).astype(int)
    padded = np.pad(state.values, half)
    m = np.arange(-half, half + 1)
    corr = np.conjugate(padded[idx[:, None] + half + m]) * padded[idx[:, None] + half - m]
    z = m * grid.spacing
    weights = integration_weights(Grid1D(z[0], z[-1], z.size))
    return (corr * weights) @ np.exp(2j * np.multiply.outer(z, p_axis.xs)) / np.pi, corr


@pytest.mark.parametrize("n, y_m, x0, p0", [(1, -0.4, 0.5, 0.7), (5, 0.8, -0.3, 1.2),
                                           (15, 1.5, 0.2, -0.9)])
def test_quadrature_over_z_above_0_is_the_full_range_sum(n, y_m, x0, p0):
    # c(-z) = conj c(z), so the z > 0 half and the z = 0 term give the whole
    # sum's real part; the states' correlations are complex and not even in x
    params, inp = GateParams(n, y_m), CoherentParams(x0, p0)
    xa, pa = Grid1D(-3.0, 4.0, 29), Grid1D(-6.0, 6.0, 23)
    grid = aligned_state_grid(xa, x0 - 9.0, x0 + 9.0)
    state = exact_output(params, coherent_wavefunction(inp, grid))
    full, corr = _full_range_quadrature(state, xa, pa)
    assert np.max(np.abs(corr.imag)) > 0.1 * np.max(np.abs(corr))
    assert not np.allclose(full.real, full.real[::-1], atol=0.01 * np.max(np.abs(full.real)))
    folded = wigner_quadrature(state, xa, pa).values
    peak = np.max(np.abs(full.real))
    np.testing.assert_allclose(folded, full.real, rtol=0, atol=2e-15 * peak)
    np.testing.assert_allclose(full.imag, 0.0, rtol=0, atol=2e-15 * peak)


def test_quadrature_refuses_weights_that_are_not_even_before_any_kernel(monkeypatch):
    def skewed(grid):
        return integration_weights(grid) * np.linspace(0.5, 1.5, grid.count)

    def kernel(z, p):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(catgate.wigner, "integration_weights", skewed)
    monkeypatch.setattr(catgate.wigner, "_fourier_kernel", kernel)
    state = coherent_wavefunction(CoherentParams(0.5), Grid1D(-12.0, 12.0, 1201))
    with pytest.raises(GridCoverageError, match="imaginary residue"):
        wigner_quadrature(state, Grid1D(-4.0, 4.0, 81), Grid1D(-3.0, 3.0, 31))


@pytest.mark.parametrize("n, count, p_count, rows", [
    (300, 401, 401, [201, 200]),
    (10, 401, 401, [134, 134, 133]),
    (10, 2001, 2001, [32] * 62 + [17]),
    (10, 601, 601, [101] * 5 + [96]),
    (300, 283, 283, [283]),
])
def test_map_tiles_are_as_many_as_the_row_rule_gives_and_as_equal(n, count, p_count, rows):
    # T0 = min(nx, max(_CHUNK_VALUES // np, n + 1)) rows a tile give
    # ceil(nx / T0) tiles, each of at most ceil(nx / that count) rows
    args = (GateParams(n, 0.0), CoherentParams(0.0, 0.0), Grid1D(-6.0, 6.0, count),
            Grid1D(-9.0, 9.0, p_count))
    most = min(count, max(catgate.wigner._CHUNK_VALUES // p_count, n + 1))
    tiles = -(-count // most)
    made = [len(t) for t in catgate.wigner._mehler_tiles(*args)]
    assert made == rows
    assert len(made) == tiles and max(made) == -(-count // tiles) and sum(made) == count


def test_mehler_even_symmetry_at_origin():
    params = GateParams(6, 0.0)
    inp = CoherentParams(0.0, 0.0)
    xa = Grid1D(-4.0, 4.0, 81)
    pa = Grid1D(-6.0, 6.0, 61)
    w = wigner_mehler(params, inp, xa, pa)
    np.testing.assert_allclose(w.values, w.values[::-1, :], rtol=0, atol=1e-14)
    np.testing.assert_allclose(w.values, w.values[:, ::-1], rtol=0, atol=1e-14)


# Three identities of a pure state's Wigner map check a whole map against
# closed forms that are tested on their own, with no state sampled, so they
# reach n where the quadrature oracle refuses its budget. Simpson on the
# map's own axes; each bound is the measured deviation with a margin.


def _refined(axis: Grid1D, refine: int) -> Grid1D:
    return Grid1D(axis.x_min, axis.x_max, refine * (axis.count - 1) + 1)


def _map(n: int, y_m: float, x0: float, refine: int = 1, p_reach: float | None = None):
    """The map at (n, y_m, x0, p0 = 0) on the default axes, each refined
    `refine` times, or with its p axis widened to p_reach beyond sqrt(2n+1)
    at no coarser a spacing."""
    params, inp = GateParams(n, y_m), CoherentParams(x0, 0.0)
    xa, pa = default_axes(params, inp)
    if p_reach is not None:
        reach = params.radius + p_reach
        pa = Grid1D(-reach, reach, 2 * math.ceil(reach / pa.spacing) + 1)
    return params, inp, wigner_mehler(params, inp, _refined(xa, refine), _refined(pa, refine))


@pytest.mark.parametrize("n, bound", [(5, 3e-13), (300, 1e-13), (3000, 2e-12), (10000, 2e-11)])
def test_mehler_map_is_pure(n, bound):
    # 2 pi int int W^2 dx dp = 1 on the default axes: -1.1e-13, 2.8e-14,
    # 6.8e-13 and 7.6e-12 measured, where the Simpson mass is off by 1e-8 to
    # 1.4e-7
    _, _, w = _map(n, 0.0, 0.0)
    wx, wp = integration_weights(w.x_axis), integration_weights(w.p_axis)
    assert abs(2.0 * np.pi * wx @ (w.values * w.values) @ wp - 1.0) <= bound


@pytest.mark.parametrize(
    "n, y_m, x0, bound",
    [(5, 0.0, 0.0, 5e-15), (300, 0.0, 0.0, 3e-13), (300, 3.0, 1.0, 5e-13),
     (3000, 0.0, 0.0, 1e-11), (10000, 0.0, 0.0, 5e-11)],
)
def test_mehler_p_marginal_is_the_output_density(n, y_m, x0, bound):
    # int W dp = |psi~(x)|^2 / P = pi^{-1/2} e^{-(x-x0)^2} h_n(x-y_m)^2 sqrt(2 pi)/M_n
    # row by row, on a p axis widened to +/-(sqrt(2n+1) + 12): 1.5e-15,
    # 1.0e-13, 1.5e-13, 3.0e-12 and 1.8e-11 of its peak measured
    params, _, w = _map(n, y_m, x0, p_reach=12.0)
    x = w.x_axis.xs
    density = (np.exp(-((x - x0) ** 2)) * eval_hermite_fn(n, x - y_m) ** 2
               * np.sqrt(2.0) / outcome_norm(n, y_m - x0))
    marginal = w.values @ integration_weights(w.p_axis)
    np.testing.assert_allclose(marginal, density, rtol=0, atol=bound * np.max(density))


@pytest.mark.parametrize(
    "n, y_m, x0, rtol",
    [(5, 0.0, 0.0, 2e-14), (100, 0.0, 5.0, 5e-11), (300, 0.0, 0.0, 3e-14),
     (300, 0.0, 5.0, 1e-13), (3000, 0.0, 0.0, 3e-12)],
)
def test_mehler_overlap_with_the_cat_is_its_fidelity(n, y_m, x0, rtol):
    # 2 pi int int W W_cat dx dp = |<cat|psi~>|^2 = F_cat. The product of the
    # two maps' fringes oscillates twice as fast as either, so the axes are
    # twice as dense as the default: on the default axes (100, 0, 5) gives
    # 0.018 for an F_cat of 1.27e-4. Measured 5.3e-15, 1.3e-11 (1.6e-15
    # absolute), 7.0e-15, 2.3e-14 and 1.0e-12 relative
    params, inp, w = _map(n, y_m, x0, refine=2)
    cat = wigner_cat_reference(perfect_cat(params, inp), w.x_axis, w.p_axis).values
    wx, wp = integration_weights(w.x_axis), integration_weights(w.p_axis)
    overlap = 2.0 * np.pi * wx @ (w.values * cat) @ wp
    assert overlap == pytest.approx(fidelity_cat_scan(n, y_m, x0), rel=rtol, abs=0)


@pytest.mark.parametrize(
    "n, y_m, x0, rtol", [(300, 0.0, 0.0, 1e-12), (300, 3.0, 1.0, 1e-12), (3000, 0.0, 0.0, 1e-11)]
)
def test_mehler_cells_match_exact_arithmetic(n, y_m, x0, rtol):
    # the centre of the default axes, a fringe 3 columns from it and the p
    # edge of its row, against the 50-digit closed form: at most 1.6e-15 of
    # the peak; at the p edge, where W is 2e-8 of its peak, up to 2.0e-13 of
    # the cell at n = 300 and 2.7e-12 at 3000, the error of the log-space
    # Poisson weights
    params, inp = GateParams(n, y_m), CoherentParams(x0, 0.0)
    xa, pa = default_axes(params, inp)
    w = wigner_mehler(params, inp, xa, pa).values
    peak = np.max(np.abs(w))
    i, j = xa.count // 2, pa.count // 2
    for cell in ((i, j), (i, j + 3), (i, pa.count - 1)):
        exact = float(wigner_cell_exact(n, y_m, x0, 0.0, xa.xs[cell[0]], pa.xs[cell[1]]))
        assert abs(w[cell] - exact) <= min(1e-14 * peak, rtol * abs(exact)), cell


# wigner_mehler contracts each chunk of orders only with the p columns whose
# Poisson band it meets; the band's floor at 0 (_BAND_BITS = inf) gives the
# contraction over every weight.


def _banded_and_whole(n, y_m, x0, p0, axes, monkeypatch):
    """The map with its band and with every weight, and wigner_mehler's
    bound on each x row of their difference."""
    params, inp = GateParams(n, y_m), CoherentParams(x0, p0)
    xa, pa = axes or default_axes(params, inp)
    banded = wigner_mehler(params, inp, xa, pa).values
    monkeypatch.setattr(catgate.wigner, "_BAND_BITS", math.inf)
    bound = (n + 1) * 2.0**-60 * np.exp(-((xa.xs - x0) ** 2)) / (np.pi * outcome_norm(n, y_m - x0))
    return banded, wigner_mehler(params, inp, xa, pa).values, bound[:, None]


@pytest.mark.parametrize(
    "n, y_m, x0, p0, axes",
    [(10, 0.0, 0.0, 0.0, None), (300, 0.0, 0.0, 0.0, None), (600, 0.0, 0.0, 0.0, None),
     (3000, 0.0, 0.0, 0.0, None),
     (300, 0.0, 0.0, 0.0, (Grid1D(-6.0, 6.0, 401), Grid1D(-29.0, 29.0, 401))),
     (300, 5.0, 0.0, 1.5, None)],
)
def test_banded_map_is_within_its_bound_of_every_weight(n, y_m, x0, p0, axes, monkeypatch):
    # each weight left out is below 2^-60 of its column's largest, so a cell
    # is within (n + 1) 2^-60 e^{-(x-x0)^2}/(pi M_n) of the sum over all
    # weights: 8.0e-15 of the peak at n = 300 and 2.5e-13 at 3000, where the
    # cells move by at most 7.0e-21 and 1.7e-18 of it (1e-6 and 1.4e-5 of the
    # bound); a floor of 2^-20 takes them 7.5e5 to 5.3e6 times past it
    banded, whole, bound = _banded_and_whole(n, y_m, x0, p0, axes, monkeypatch)
    assert np.all(np.abs(banded - whole) <= bound)


def test_chunks_that_meet_no_column_still_raise_the_exponents(monkeypatch):
    # one order a chunk at n = 600 and y_m = 28 on |p~| <= 1: the x exponents
    # rise chunk by chunk, and no column's band meets a chunk before k = 585,
    # where the tile is first made
    monkeypatch.setattr(catgate.wigner, "_CHUNK_VALUES", 66)
    axes = (Grid1D(-6.0, 6.0, 41), Grid1D(-1.0, 1.0, 25))
    banded, whole, bound = _banded_and_whole(600, 28.0, 0.0, 0.0, axes, monkeypatch)
    assert np.all(np.abs(banded - whole) <= bound)


def test_map_whose_orders_fit_one_chunk_is_the_product_over_every_weight(monkeypatch):
    # 11 orders of 601 + 601 points fit one chunk of 54: each of the six tiles
    # is one product over every column, bit for bit
    axes = (Grid1D(-6.0, 6.0, 601), Grid1D(-9.0, 9.0, 601))
    banded, whole, _ = _banded_and_whole(10, 0.0, 0.0, 0.0, axes, monkeypatch)
    assert banded.tobytes() == whole.tobytes()


@pytest.mark.parametrize("n, share", [(10, 1.0), (3000, 0.2)])
def test_banded_map_forms_a_share_of_the_poisson_weights(n, share, monkeypatch):
    # (n + 1) np weights on default axes, all 2211 of them at n = 10 (one
    # chunk), and 445 779 of 2 667 889 at n = 3000 (17%)
    params, inp = GateParams(n, 0.0), CoherentParams(0.0, 0.0)
    xa, pa = default_axes(params, inp)
    weights, formed = catgate.wigner._poisson_weights, []

    def counted(t, *args):
        made = weights(t, *args)
        formed.append(made.size)
        return made

    monkeypatch.setattr(catgate.wigner, "_poisson_weights", counted)
    wigner_mehler(params, inp, xa, pa)
    assert sum(formed) <= share * (n + 1) * pa.count
    assert n > 10 or sum(formed) == (n + 1) * pa.count
