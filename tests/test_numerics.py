from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import binom, eval_hermite

from catgate.gate import _central_binomials
from catgate.metrics import scan_grid
from catgate.numerics import (
    Grid1D,
    eval_hermite_fn,
    integrate,
    integration_weights,
)


def test_grid_basics():
    g = Grid1D(-2.0, 2.0, 5)
    assert g.spacing == 1.0
    np.testing.assert_allclose(g.xs, [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert g.covers(-1.5, 1.5)
    assert not g.covers(-3.0, 0.0)


@pytest.mark.parametrize(
    "x_min, x_max, count",
    [(1.0, 0.0, 5), (0.0, 0.0, 5), (0.0, 1.0, 1), (0.0, np.inf, 5)],
)
def test_grid_rejects_bad_input(x_min, x_max, count):
    with pytest.raises(ValueError):
        Grid1D(x_min, x_max, count)


def test_default_grid_span():
    # the default grid at y_m = x0 spans x0 -/+ (8 + sqrt(2n+1)) with 4001 points
    g = scan_grid(4, 1.0, 1.0)
    assert g.count == 4001
    np.testing.assert_allclose(g.x_min, 1.0 - 11.0)
    np.testing.assert_allclose(g.x_max, 1.0 + 11.0)


def test_simpson_weights_match_scipy():
    g = Grid1D(-3.0, 3.0, 201)
    values = np.exp(-g.xs**2) * np.cos(g.xs)
    np.testing.assert_allclose(
        integrate(values, g), simpson(values, dx=g.spacing), rtol=0, atol=1e-14
    )


def test_simpson_exact_on_cubics():
    g = Grid1D(0.0, 2.0, 11)
    values = 3.0 * g.xs**3 - g.xs + 2.0
    np.testing.assert_allclose(integrate(values, g), 12.0 - 2.0 + 4.0, rtol=1e-14)


def test_gaussian_integral_spectral_accuracy():
    g = Grid1D(-8.0, 8.0, 801)
    np.testing.assert_allclose(
        integrate(np.exp(-g.xs**2), g), math.sqrt(math.pi), rtol=0, atol=1e-15
    )


def test_trapezoid_fallback_even_count():
    g = Grid1D(0.0, 1.0, 10)
    w = integration_weights(g)
    assert w.size == 10
    np.testing.assert_allclose(w.sum(), 1.0, rtol=1e-14)


@pytest.mark.parametrize("n", range(21))
def test_hermite_matches_scipy(n):
    # the polynomial H_n recovered from the normalized function, in relative terms
    x = np.linspace(-4.0, 4.0, 41)
    scale = math.pi**0.25 * math.sqrt(2.0**n * math.factorial(n)) * np.exp(0.5 * x**2)
    np.testing.assert_allclose(eval_hermite_fn(n, x) * scale, eval_hermite(n, x), rtol=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 15])
def test_hermite_fn_closed_form(n):
    x = np.linspace(-5.0, 5.0, 31)
    norm = math.pi**-0.25 / math.sqrt(2.0**n * math.factorial(n))
    expected = norm * eval_hermite(n, x) * np.exp(-0.5 * x**2)
    np.testing.assert_allclose(eval_hermite_fn(n, x), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, m", [(0, 0), (3, 3), (25, 25), (2, 5), (24, 25)])
def test_hermite_fn_orthonormal(n, m):
    g = Grid1D(-14.0, 14.0, 4001)
    product = eval_hermite_fn(n, g.xs) * eval_hermite_fn(m, g.xs)
    np.testing.assert_allclose(integrate(product, g), float(n == m), rtol=0, atol=1e-12)


def test_hermite_fn_high_order_no_overflow():
    values = eval_hermite_fn(120, np.linspace(-20.0, 20.0, 101))
    assert np.all(np.isfinite(values))
    assert np.max(np.abs(values)) < 1.0


def test_inv_sqrt_series_central_binomials():
    # the coefficients of (1 - rho)^{-1/2} that weight the outcome norm M_n
    got = _central_binomials(6)
    expected = [binom(2 * k, k) / 4.0**k for k in range(7)]
    np.testing.assert_allclose(got, expected, rtol=1e-13)
