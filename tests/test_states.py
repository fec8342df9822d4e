from __future__ import annotations

import numpy as np
import pytest

from catgate.errors import GridCoverageError, ZeroStateError
from catgate.gate import GateParams, perfect_cat
from catgate.metrics import scan_grid
from catgate.numerics import Grid1D, integrate
from catgate.states import (
    CatSuperposition,
    CoherentParams,
    WaveFunctionGrid,
    assemble_cat,
    coherent_wavefunction,
    fock_wavefunction,
    overlap,
)


@pytest.mark.parametrize("x0, p0", [(0.0, 0.0), (2.0, 0.0), (-1.0, 3.0), (4.0, -2.5)])
def test_coherent_unit_norm(x0, p0):
    grid = scan_grid(0, x0, x0)
    psi = coherent_wavefunction(CoherentParams(x0, p0), grid)
    np.testing.assert_allclose(psi.norm(), 1.0, rtol=0, atol=1e-13)


def test_coherent_moments():
    grid = scan_grid(0, 1.2, 1.2)
    psi = coherent_wavefunction(CoherentParams(1.2, -0.8), grid)
    density = np.abs(psi.values) ** 2
    np.testing.assert_allclose(integrate(grid.xs * density, grid), 1.2, rtol=0, atol=1e-12)
    dpsi = np.gradient(psi.values, grid.spacing)
    p_mean = integrate(np.conj(psi.values) * -1j * dpsi, grid).real
    np.testing.assert_allclose(p_mean, -0.8, rtol=0, atol=1e-4)


def test_coherent_overlap_matches_closed_form():
    grid = Grid1D(-14.0, 14.0, 4001)
    a = CoherentParams(0.4, 1.1)
    b = CoherentParams(-0.9, 0.3)
    got = overlap(coherent_wavefunction(a, grid), coherent_wavefunction(b, grid))
    # <a|b> in quadratures, for the phase convention psi(x) ~ e^{i p0 (x - x0/2)}
    expected = np.exp(
        -((a.x0 - b.x0) ** 2 + (a.p0 - b.p0) ** 2) / 4.0 + 0.5j * (a.x0 * b.p0 - a.p0 * b.x0)
    )
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_coherent_requires_coverage():
    with pytest.raises(GridCoverageError):
        coherent_wavefunction(CoherentParams(5.0, 0.0), Grid1D(-6.0, 6.0, 501))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 20])
def test_fock_unit_norm(n):
    psi = fock_wavefunction(n, scan_grid(n, 0.0, 0.0))
    np.testing.assert_allclose(psi.norm(), 1.0, rtol=0, atol=1e-13)


def test_fock_requires_coverage():
    with pytest.raises(GridCoverageError):
        fock_wavefunction(12, Grid1D(-8.0, 8.0, 801))


def test_wavefunction_shape_validation():
    grid = Grid1D(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        WaveFunctionGrid(grid, np.zeros(10, dtype=complex))


def _sample_cat(parity_sign=1, theta=0.3):
    return CatSuperposition(x0=1.0, p0=-0.4, r=np.sqrt(3.0), theta=theta,
                            parity_sign=parity_sign)


@pytest.mark.parametrize("parity_sign", [-1, 1])
def test_cat_norm_factor_matches_grid(parity_sign):
    x0, p0, r, theta = 1.0, -0.4, np.sqrt(3.0), 0.3
    cat = _sample_cat(parity_sign, theta)
    grid = Grid1D(-13.0, 15.0, 4001)
    # the coherent states at p0 +/- r are psi_in e^{+/- i r (x - x0/2)}, so the
    # components psi_in e^{+/- i (theta + r (x - x0))} carry e^{+/- i (theta - r x0/2)}
    plus = coherent_wavefunction(CoherentParams(x0, p0 + r), grid)
    minus = coherent_wavefunction(CoherentParams(x0, p0 - r), grid)
    phase = theta - 0.5 * r * x0
    raw = np.exp(1j * phase) * plus.values + parity_sign * np.exp(-1j * phase) * minus.values
    raw_norm_sq = integrate(np.abs(raw) ** 2, grid).real
    np.testing.assert_allclose(cat.norm_factor, raw_norm_sq, rtol=0, atol=1e-12)


def test_cat_norm_factor_far_from_origin_matches_origin():
    # the overlap of the components is e^{-(2n+1)} whatever x0 is, and the
    # relative phase, formed from y_m - x0, loses no digit to x0
    for n in (0, 1):
        origin = perfect_cat(GateParams(n, 0.0), CoherentParams(0.0)).norm_factor
        for x0 in (1e4, 1e8, 3e8):
            cat = perfect_cat(GateParams(n, x0), CoherentParams(x0))
            np.testing.assert_allclose(cat.norm_factor, origin, rtol=0, atol=1e-12)


def test_assemble_cat_unit_norm():
    psi = assemble_cat(_sample_cat(), Grid1D(-13.0, 15.0, 4001))
    np.testing.assert_allclose(psi.norm(), 1.0, rtol=0, atol=1e-12)


def test_assemble_cat_rejects_destructive_pair():
    dead = CatSuperposition(x0=0.0, p0=0.0, r=0.0, theta=np.pi / 2.0, parity_sign=1)
    with pytest.raises(ZeroStateError):
        assemble_cat(dead, Grid1D(-10.0, 10.0, 2001))


def test_cat_rejects_bad_parity():
    with pytest.raises(ValueError):
        CatSuperposition(x0=0.0, p0=0.0, r=1.0, theta=0.0, parity_sign=2)


def test_overlap_requires_shared_grid():
    a = coherent_wavefunction(CoherentParams(0.0, 0.0), Grid1D(-9.0, 9.0, 1001))
    b = coherent_wavefunction(CoherentParams(0.0, 0.0), Grid1D(-9.0, 9.0, 1003))
    with pytest.raises(ValueError):
        overlap(a, b)
