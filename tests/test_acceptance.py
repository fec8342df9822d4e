"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints a single PASS or FAIL
line with the measured numbers, and then asserts at the stated
tolerance. The printed lines bypass capture so the gate is legible in
plain pytest output.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from catgate.gate import GateParams, exact_output
from catgate.metrics import (
    fidelity_cat_scan,
    fidelity_scl_scan,
    mixed_fidelity,
    outcome_density,
    window_probability,
)
from catgate.numerics import Grid1D, integration_weights
from catgate.phase_map import map_point
from catgate.states import CoherentParams, coherent_wavefunction, fock_wavefunction
from catgate.wigner import (
    aligned_state_grid,
    default_axes,
    wigner_mehler,
    wigner_output_quadrature,
    wigner_quadrature,
)
from oracles import outcome_density_quadrature


def _emit(capsys, number, passed, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if passed else 'FAIL'} ({detail})", flush=True)


def test_criterion_1_centered_cat_fidelity(capsys):
    start = time.perf_counter()
    targets = {1: 0.9734, 5: 0.9948, 15: 0.9983}
    base = {n: fidelity_cat_scan(n, 0.0, 0.0, 0.0) for n in targets}
    drift = 0.0
    for n in targets:
        for x0 in (0.0, 3.0, 5.0):
            for p0 in (0.0, 3.0):
                drift = max(drift, abs(fidelity_cat_scan(n, x0, x0, p0) - base[n]))
    elapsed = time.perf_counter() - start
    value_ok = all(abs(base[n] - targets[n]) <= 5e-4 for n in targets)
    ok = value_ok and drift <= 1e-9 and elapsed < 5.0
    detail = ", ".join(f"F({n})={base[n]:.6f}" for n in targets)
    _emit(capsys, 1, ok, f"{detail}, drift={drift:.2e}, {elapsed:.2f}s")
    for n in targets:
        assert abs(base[n] - targets[n]) <= 5e-4
    assert drift <= 1e-9
    assert elapsed < 5.0


def test_criterion_2_displaced_cat_fidelity(capsys):
    cases = ((0.0, 0.9974, 5e-4), (1.5, 0.8926, 5e-4), (2.0, 0.704, 1e-3))
    values = {x0: fidelity_cat_scan(10, 0.0, x0, 0.0) for x0, _, _ in cases}
    ok = all(abs(values[x0] - target) <= tol for x0, target, tol in cases)
    detail = ", ".join(f"F(x0={x0})={values[x0]:.6f}" for x0, _, _ in cases)
    _emit(capsys, 2, ok, detail)
    for x0, target, tol in cases:
        assert abs(values[x0] - target) <= tol


def test_criterion_3_semiclassical_fidelity_floors(capsys):
    start = time.perf_counter()
    floors = ((0.0, 0.9970, 1), (1.0, 0.9733, 1), (2.0, 0.9056, 2))
    worst = {}
    for x0, floor, n_min in floors:
        values = [fidelity_scl_scan(n, 0.0, x0) for n in range(n_min, 26)]
        worst[x0] = min(values)
    elapsed = time.perf_counter() - start
    ok = all(worst[x0] > floor for x0, floor, _ in floors) and elapsed < 30.0
    detail = ", ".join(f"min F(x0={x0})={worst[x0]:.6f}>{floor}" for x0, floor, _ in floors)
    _emit(capsys, 3, ok, f"{detail}, {elapsed:.1f}s")
    for x0, floor, _ in floors:
        assert worst[x0] > floor
    assert elapsed < 30.0


def test_criterion_4_wigner_engine_agreement(capsys):
    start = time.perf_counter()
    configs = (
        (10, 0.0, 0.0, 3.0),
        (10, 0.0, 1.5, 3.0),
        (10, 0.0, 2.0, 3.0),
        (1, 3.0, 3.0, 3.0),
        (5, 3.0, 3.0, 3.0),
        (15, 3.0, 3.0, 3.0),
    )
    sup_worst = mass_worst = marginal_worst = 0.0
    for n, y_m, x0, p0 in configs:
        params = GateParams(n, y_m)
        inp = CoherentParams(x0, p0)
        x_axis, p_axis = default_axes(params, inp)
        fast = wigner_mehler(params, inp, x_axis, p_axis)
        slow = wigner_output_quadrature(params, inp, x_axis, p_axis)
        sup_worst = max(sup_worst, float(np.max(np.abs(fast.values - slow.values))))
        mass_worst = max(mass_worst, abs(fast.total_mass() - 1.0))

        p_wide = Grid1D(p0 - params.radius - 8.0, p0 + params.radius + 8.0, 801)
        wide = wigner_mehler(params, inp, x_axis, p_wide)
        marginal = wide.values @ integration_weights(p_wide)
        state_grid = aligned_state_grid(x_axis, x0 - 9.0, x0 + 9.0)
        out = exact_output(params, coherent_wavefunction(inp, state_grid))
        idx = np.rint((x_axis.xs - state_grid.x_min) / state_grid.spacing).astype(int)
        density = np.abs(out.values[idx]) ** 2
        marginal_worst = max(marginal_worst, float(np.max(np.abs(marginal - density))))
    elapsed = time.perf_counter() - start
    ok = (
        sup_worst <= 1e-8
        and mass_worst <= 1e-6
        and marginal_worst <= 1e-7
        and elapsed < 60.0
    )
    _emit(
        capsys,
        4,
        ok,
        f"sup={sup_worst:.2e}, |mass-1|={mass_worst:.2e}, "
        f"marginal={marginal_worst:.2e}, {elapsed:.1f}s",
    )
    assert sup_worst <= 1e-8
    assert mass_worst <= 1e-6
    assert marginal_worst <= 1e-7
    assert elapsed < 60.0


def test_criterion_5_outcome_density_structure(capsys):
    shift_worst = norm_err = method_worst = 0.0
    probe = np.linspace(-4.0, 4.0, 41)
    for n in (1, 5, 10, 15):
        for y in probe:
            centered = outcome_density(n, 0.0, y)
            shift_worst = max(
                shift_worst,
                abs(outcome_density(n, 2.0, y + 2.0) - centered),
                abs(outcome_density(n, 0.0, -y) - centered),
            )
        radius = np.sqrt(2.0 * n + 1.0)
        grid = Grid1D(-(radius + 10.0), radius + 10.0, 2001)
        total = integration_weights(grid) @ np.array(
            [outcome_density(n, 0.0, y) for y in grid.xs]
        )
        norm_err = max(norm_err, abs(total - 1.0))
        method_worst = max(
            method_worst,
            max(
                abs(outcome_density(n, 0.0, y) - outcome_density_quadrature(n, 0.0, y))
                for y in probe[::4]
            ),
        )
    ok = shift_worst <= 1e-10 and norm_err <= 1e-8 and method_worst <= 1e-10
    _emit(
        capsys,
        5,
        ok,
        f"shift/evenness={shift_worst:.2e}, |int P - 1|={norm_err:.2e}, "
        f"series vs quadrature={method_worst:.2e}",
    )
    assert shift_worst <= 1e-10
    assert norm_err <= 1e-8
    assert method_worst <= 1e-10


def test_criterion_6_windowed_fidelity(capsys):
    narrow = 0.01
    limit_worst = prob_worst = 0.0
    for n in (1, 5, 10, 15):
        f_mix = mixed_fidelity(n, 0.0, narrow)
        f_cat = fidelity_cat_scan(n, 0.0, 0.0, 0.0)
        limit_worst = max(limit_worst, abs(f_mix - f_cat))
        p_win = window_probability(n, 0.0, narrow)
        p_point = outcome_density(n, 0.0, 0.0) * narrow
        prob_worst = max(prob_worst, abs(p_win / p_point - 1.0))
    widths = (0.1, 0.5, 1.0, 2.0)
    sequence = [mixed_fidelity(5, 0.0, d) for d in widths]
    decreasing = all(a > b for a, b in zip(sequence, sequence[1:]))
    ok = limit_worst <= 3e-3 and decreasing and prob_worst <= 0.01
    _emit(
        capsys,
        6,
        ok,
        f"narrow-window gap={limit_worst:.2e}, decreasing={decreasing}, "
        f"probability error={prob_worst:.2%}",
    )
    assert limit_worst <= 3e-3
    assert decreasing
    assert prob_worst <= 0.01


def test_criterion_7_structural_invariants(capsys):
    parity_worst = 0.0
    for n in (1, 3, 7):
        params = GateParams(n, 0.0)
        grid = Grid1D(-9.0, 9.0, 1801)
        out = exact_output(params, coherent_wavefunction(CoherentParams(0.0, 0.0), grid))
        center = np.argmin(np.abs(grid.xs))
        parity_worst = max(parity_worst, abs(out.values[center]))

    rng = np.random.default_rng(3)
    q, p = rng.uniform(-4.0, 4.0, size=(100, 2)).T
    count, p_lower, p_upper = map_point(GateParams(6, 0.5), q, p)
    disc = 13.0 - (0.5 - q) ** 2
    clear = np.abs(disc) > 1e-9
    np.testing.assert_array_equal(count[clear], np.where(disc[clear] < -1e-9, 0, 2))
    two = count == 2
    sum_worst = float(np.max(np.abs(p_lower[two] + p_upper[two] - 2.0 * p[two]), initial=0.0))

    shift = 2.0
    grid_a = Grid1D(-8.5, 9.5, 1801)
    grid_b = Grid1D(-8.5 + shift, 9.5 + shift, 1801)
    out_a = exact_output(GateParams(4, 1.0), coherent_wavefunction(CoherentParams(0.5, 0.0), grid_a))
    out_b = exact_output(
        GateParams(4, 1.0 + shift), coherent_wavefunction(CoherentParams(0.5 + shift, 0.0), grid_b)
    )
    covariance_worst = float(np.max(np.abs(out_a.values - out_b.values)))

    fock_worst = 0.0
    axes = Grid1D(-1.0, 1.0, 3)
    for n in range(11):
        radius = np.sqrt(2.0 * n + 1.0)
        state_grid = aligned_state_grid(axes, -(radius + 9.0), radius + 9.0)
        w = wigner_quadrature(fock_wavefunction(n, state_grid), axes, axes)
        fock_worst = max(fock_worst, abs(w.values[1, 1] - (-1.0) ** n / np.pi))

    ok = (
        parity_worst <= 1e-12
        and sum_worst <= 1e-12
        and covariance_worst <= 1e-10
        and fock_worst <= 1e-8
    )
    _emit(
        capsys,
        7,
        ok,
        f"odd-n node={parity_worst:.2e}, branch sum={sum_worst:.2e}, "
        f"covariance={covariance_worst:.2e}, Fock center={fock_worst:.2e}",
    )
    assert parity_worst <= 1e-12
    assert sum_worst <= 1e-12
    assert covariance_worst <= 1e-10
    assert fock_worst <= 1e-8


def test_criterion_8_series_engine_speedup(capsys):
    params = GateParams(15, 0.0)
    inp = CoherentParams(0.0, 0.0)
    x_axis, p_axis = default_axes(params, inp)

    def best_of(repeats, call):
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            call()
            times.append(time.perf_counter() - started)
        return min(times)

    wigner_mehler(params, inp, x_axis, p_axis)
    fast = best_of(15, lambda: wigner_mehler(params, inp, x_axis, p_axis))
    slow = best_of(3, lambda: wigner_output_quadrature(params, inp, x_axis, p_axis))
    ratio = slow / fast
    ok = ratio >= 10.0
    _emit(
        capsys,
        8,
        ok,
        f"series {fast * 1e3:.3f} ms, quadrature {slow * 1e3:.3f} ms, speedup {ratio:.1f}x",
    )
    assert ratio >= 10.0
