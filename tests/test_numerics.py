from __future__ import annotations

import math
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import binom, eval_hermite

from catgate import numerics
from catgate.errors import GridCoverageError
from catgate.gate import _central_binomials
from catgate.metrics import scan_grid
from catgate.numerics import (
    Grid1D,
    eval_hermite_fn,
    integrate,
    integration_weights,
)
from oracles import hermite_fn_exact, poisson_exact


def test_grid_basics():
    g = Grid1D(-2.0, 2.0, 5)
    assert g.spacing == 1.0
    np.testing.assert_allclose(g.xs, [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert g.covers(-1.5, 1.5)
    assert not g.covers(-3.0, 0.0)


@pytest.mark.parametrize(
    "x_min, x_max, count",
    # doubles are 16 apart around 1e17, so points 8 apart round onto each other
    [(1.0, 0.0, 5), (0.0, 0.0, 5), (0.0, 1.0, 1), (0.0, np.inf, 5), (1e17 - 64, 1e17 + 64, 17)],
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
    # past |x| = 38.6 e^{-x^2/2} is below the double range but h_n need not be
    assert eval_hermite_fn(120, 38.7) != 0.0
    far = eval_hermite_fn(3000, np.array([38.7, 60.0]))
    assert np.all(far != 0.0) and np.max(np.abs(far)) < 1.0
    # far beyond the band every order is 0, and nothing overflows on the way
    assert not np.any(eval_hermite_fn(64, np.array([-1e150, 1e5, 1e9])))


# Points from 0.3 across the turning point sqrt(2n+1) (77.5 and 141.4) and
# beyond, with the relative bound for each n; x with few binary digits after
# the point keeps the exact oracle fast.
@pytest.mark.parametrize(
    "n, x, rtol",
    [(3000, x, 5e-13) for x in (0.3, 38.7, 60.0, 77.0, 80.0, 90.0)]
    + [(10_000, x, 2e-12) for x in (0.375, 38.75, 100.5, 141.25, 150.0)],
)
def test_hermite_fn_matches_exact_oracle(n, x, rtol):
    exact = hermite_fn_exact(n, x)
    assert exact != 0
    assert abs((Decimal(eval_hermite_fn(n, x)) - exact) / exact) <= rtol


def test_inv_sqrt_series_central_binomials():
    # the coefficients of (1 - rho)^{-1/2} that weight the outcome norm M_n
    got = _central_binomials(6)
    expected = [binom(2 * k, k) / 4.0**k for k in range(7)]
    np.testing.assert_allclose(got, expected, rtol=1e-13)


def test_hermite_fn_past_the_double_range_is_quiet():
    # x^2/2 overflows above |x| ~ 1.3e154, where h_n is 0, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_hermite_fn(3, 1e200) == 0.0
        np.testing.assert_array_equal(eval_hermite_fn(3, np.array([-1e300, 1e200])), 0.0)


@pytest.mark.parametrize("n", [0, 1, 5, 40, 300])
@pytest.mark.parametrize("t", [0.0, 0.5, 3.0, 40.0])
def test_poisson_columns_run_in_the_order_of_k(n, t):
    # column k is Pois(n - k; t^2/2), the order the sums over k contract; a
    # weight the exact value puts above 1e-290 keeps its relative accuracy
    # (at worst 4e-13 here, at (n, t) = (300, 40)), and one below it stays there
    got = numerics._poisson_weights(np.array([t]), n)
    assert got.shape == (1, n + 1)
    for value, exact in zip(got[0], poisson_exact(n, t)):
        if exact > Decimal("1e-290"):
            assert abs((Decimal(value) - exact) / exact) <= Decimal("1e-12")
        else:
            assert abs(value) <= 1e-290


def test_log_factorials_are_built_once_per_n(monkeypatch):
    # a second call at the same n makes no lgamma call, and its weights are
    # the first call's bit for bit
    lgamma, calls = math.lgamma, []
    monkeypatch.setattr(math, "lgamma", lambda x: calls.append(x) or lgamma(x))
    numerics._log_factorials.cache_clear()
    t = np.array([0.0, 0.5, 3.0, 40.0, 1e200])
    first = numerics._poisson_weights(t, 200)
    assert calls
    calls.clear()
    second = numerics._poisson_weights(t, 200)
    assert calls == []
    assert second.tobytes() == first.tobytes()
    row = numerics._log_factorials(256)
    assert not row.flags.writeable
    assert row[:201].tolist() == [lgamma(j + 1.0) for j in range(201)]


def test_poisson_row_over_the_budget_is_refused_before_it_exists(monkeypatch):
    # 10 columns at n = 2^26 would read a row of 2^27 log factorials, 1 GiB;
    # with no row builder, a missing check fails here instead of allocating it
    monkeypatch.setattr(numerics, "_log_factorials", None)
    with pytest.raises(GridCoverageError, match="take 10 values and 134217728 log factorials, "
                       "over the budget of 67108864 values for each"):
        numerics._poisson_weights(np.zeros(1), 1 << 26, 0, 10)


def test_log_factorials_row_is_the_list_build_without_its_list():
    build = numerics._log_factorials.__wrapped__
    row = build(300)
    assert row.dtype == float and row.size == 300
    assert row.tobytes() == np.array([math.lgamma(j + 1.0) for j in range(300)]).tobytes()
    # the row is its only large allocation: 8 MB at 2^20 entries, where a list
    # of their floats first took 40 MB traced
    size = 1 << 20
    tracemalloc.start()
    try:
        build(size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * size
