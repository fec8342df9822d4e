from __future__ import annotations

import numpy as np
import pytest

from catgate.errors import PhaseDomainError, SingularShearError, ZeroProbabilityError
from catgate.gate import (
    GateParams,
    exact_output,
    perfect_cat,
    phase_function,
    semiclassical_output,
    taylor_phase,
)
from catgate.metrics import scan_grid
from catgate.numerics import Grid1D, integrate
from catgate.states import CoherentParams, coherent_wavefunction


def test_gate_params_radius():
    assert GateParams(4, 0.0).radius == 3.0
    assert GateParams(12, 1.0).radius == 5.0
    with pytest.raises(ValueError):
        GateParams(-1, 0.0)


@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_phase_function_endpoints(n):
    assert phase_function(n, 0.0) == 0.0
    np.testing.assert_allclose(phase_function(n, 1.0), (2 * n + 1) * np.pi / 4.0, rtol=1e-15)
    np.testing.assert_allclose(phase_function(n, -1.0), -(2 * n + 1) * np.pi / 4.0, rtol=1e-15)


def test_phase_function_odd_and_monotone():
    z = np.linspace(-1.0, 1.0, 201)
    phi = phase_function(3, z)
    np.testing.assert_allclose(phi, -phase_function(3, -z), rtol=0, atol=1e-14)
    assert np.all(np.diff(phi) > 0)


def test_phase_function_derivative():
    z = np.linspace(-0.9, 0.9, 1801)
    phi = phase_function(5, z)
    dphi = np.gradient(phi, z[1] - z[0])
    np.testing.assert_allclose(dphi[5:-5], 11.0 * np.sqrt(1.0 - z[5:-5] ** 2), atol=2e-4)


def test_phase_function_domain_error():
    with pytest.raises(PhaseDomainError):
        phase_function(2, 1.001)
    np.testing.assert_allclose(
        phase_function(2, 1.0 + 5e-13), 5.0 * np.pi / 4.0, rtol=1e-12
    )


def _output(n, y_m, x0, p0=0.0, count=4001):
    c = 0.5 * (x0 + y_m)
    half = 8.0 + np.sqrt(2.0 * n + 1.0) + 0.5 * abs(y_m - x0)
    grid = Grid1D(c - half, c + half, count)
    psi = coherent_wavefunction(CoherentParams(x0, p0), grid)
    return exact_output(GateParams(n, y_m), psi)


@pytest.mark.parametrize("n, y_m, x0", [(0, 0.0, 0.0), (3, 1.0, 0.5), (10, -2.0, 1.0)])
def test_exact_output_normalized(n, y_m, x0):
    out = _output(n, y_m, x0)
    np.testing.assert_allclose(out.norm(), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 3, 7])
def test_exact_output_parity_zero_at_outcome(n):
    out = _output(n, 0.0, 0.0)
    grid = out.grid
    center = (grid.count - 1) // 2
    assert grid.xs[center] == 0.0
    assert abs(out.values[center]) < 1e-12


def test_exact_output_translation_covariance():
    shift = 2.0
    base = _output(4, 0.5, 0.25)
    moved = _output(4, 0.5 + shift, 0.25 + shift)
    np.testing.assert_allclose(moved.values, base.values, rtol=0, atol=1e-12)


def test_exact_output_rejects_vanishing_overlap():
    grid = Grid1D(-9.0, 9.0, 2001)
    psi = coherent_wavefunction(CoherentParams(0.0, 0.0), grid)
    with pytest.raises(ZeroProbabilityError):
        exact_output(GateParams(2, 40.0), psi)


def test_semiclassical_output_constant_tail_ratio():
    params = GateParams(1, 0.0)
    grid = scan_grid(1, 0.0, 0.0)
    psi = coherent_wavefunction(CoherentParams(0.0, 0.0), grid)
    out = semiclassical_output(params, psi)
    tail = np.abs(grid.xs) > params.radius + 0.5
    ratio = np.abs(out.values[tail]) / np.abs(psi.values[tail])
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-10)
    np.testing.assert_allclose(out.norm(), 1.0, rtol=0, atol=1e-12)


# the fidelity-scan points of the metric-scan and large-n benchmark workloads
_SCAN_POINTS = [(n, x0) for n in range(1, 41) for x0 in (0.0, 1.0, 2.0)]
_SCAN_POINTS += [(300, 0.0), (300, 5.0)]


def test_semiclassical_output_matches_two_exp_branches_bit_for_bit():
    # the branches take e^{-i phi} as the conjugate of e^{i phi}; that must
    # equal a second complex exp to the last bit, so no F_scl digit moves
    for n, x0 in _SCAN_POINTS:
        params = GateParams(n, 0.0)
        psi = coherent_wavefunction(CoherentParams(x0, 0.0), scan_grid(n, x0, 0.0))
        phi = phase_function(n, np.clip(psi.grid.xs / params.radius, -1.0, 1.0))
        branches = np.exp(1j * phi) + (-1.0) ** n * np.exp(-1j * phi)
        unnorm = psi.values * (1j**n) * branches
        expected = unnorm / np.sqrt(integrate(np.abs(unnorm) ** 2, psi.grid).real)
        assert np.array_equal(semiclassical_output(params, psi).values, expected), (n, x0)


@pytest.mark.parametrize("n, y_m, center", [(1, 0.0, 0.5), (5, 1.0, 0.0), (10, -1.0, 2.0)])
def test_taylor_phase_closed_forms(n, y_m, center):
    tp = taylor_phase(GateParams(n, y_m), center)
    u = center - y_m
    r2 = 2.0 * n + 1.0
    np.testing.assert_allclose(tp.p_plus, np.sqrt(r2 - u * u), rtol=1e-14)
    np.testing.assert_allclose(
        tp.theta0, phase_function(n, u / np.sqrt(r2)), rtol=1e-14
    )
    np.testing.assert_allclose(tp.dp_plus, -u / (2.0 * np.sqrt(r2 - u * u)), rtol=1e-12)


def test_taylor_phase_singular_at_turning_point():
    with pytest.raises(SingularShearError):
        taylor_phase(GateParams(4, 0.0), 3.0)
    with pytest.raises(SingularShearError):
        taylor_phase(GateParams(1, 0.0), 2.5)


def test_taylor_phase_array_matches_scalar_calls():
    params = GateParams(7, 0.4)
    centers = np.linspace(-3.0, 3.5, 53).reshape(1, 53)
    tp = taylor_phase(params, centers)
    for field in ("center", "theta0", "p_plus", "dp_plus"):
        values = getattr(tp, field)
        assert values.shape == centers.shape
        scalar = [getattr(taylor_phase(params, c), field) for c in centers.ravel()]
        np.testing.assert_array_max_ulp(values.ravel(), np.array(scalar), maxulp=1)


def test_taylor_phase_array_rejects_any_bad_center():
    with pytest.raises(SingularShearError):
        taylor_phase(GateParams(4, 0.0), np.array([0.0, 1.0, 3.0]))
    with pytest.raises(SingularShearError):
        taylor_phase(GateParams(1, 0.0), np.array([-2.5, 0.0]))
    with pytest.raises(ValueError):
        taylor_phase(GateParams(1, 0.0), np.array([0.0, np.nan]))


def test_taylor_phase_scalar_center_gives_floats():
    tp = taylor_phase(GateParams(3, 0.2), np.float64(1.1))
    assert all(type(v) is float for v in (tp.center, tp.theta0, tp.p_plus, tp.dp_plus))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_perfect_cat_components(n):
    params = GateParams(n, 0.7)
    inp = CoherentParams(1.1, -0.4)
    cat = perfect_cat(params, inp)
    r = params.radius
    np.testing.assert_allclose(
        cat.alpha_plus, complex(1.1, -0.4 + r) / np.sqrt(2.0), rtol=1e-15
    )
    np.testing.assert_allclose(
        cat.alpha_minus, complex(1.1, -0.4 - r) / np.sqrt(2.0), rtol=1e-15
    )
    np.testing.assert_allclose(cat.phase_theta, r * (0.55 - 0.7), rtol=1e-12)
    assert cat.parity_sign == (-1) ** n
