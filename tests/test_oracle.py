"""Independent validators: time stepping, FFT quadrature companion, kernels."""

import ast
import inspect
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pqbalance import oracle
from pqbalance.network import (
    Branch,
    CAPACITOR,
    INDUCTOR,
    Netlist,
    RESISTOR,
    SingularNetworkError,
    solve,
)
from pqbalance.oracle import (
    OdeState,
    QuadratureConfig,
    TransientWarning,
    fft_hilbert,
    numeric_mean,
    ode_steady_state,
    ode_transient,
    quadrature_analytic,
    quadrature_tail_bound,
)
from pqbalance.oracle import _factored, _time_domain_matrices, _uniform_samples
from pqbalance.spectrum import (
    AMPERE,
    COMMENSURATE_RTOL,
    VOLT,
    ComplexTimePoint,
    LineSpectrum,
)

from conftest import random_netlist, random_source, reference_product

ROOT2 = math.sqrt(2.0)


def series_rl(r=1.0, l=1.0):
    return Netlist(
        (Branch("r1", RESISTOR, r, ("p", "m")), Branch("l1", INDUCTOR, l, ("m", "0"))),
        ("p", "0"),
    )


# ----------------------------------------------------------------------
# time stepping


def test_resistive_network_is_memoryless():
    net = Netlist((Branch("r", RESISTOR, 10.0, ("p", "0")),), ("p", "0"))
    sig = ode_steady_state(net, LineSpectrum.tone(1.0, 10.0 * ROOT2, VOLT))
    assert np.max(np.abs(sig.samples - ROOT2 * np.cos(sig.times))) < 1e-10


def test_series_rl_matches_frequency_solution():
    net = series_rl()
    source = LineSpectrum.tone(1.0, ROOT2, VOLT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # settling must be clean, no drift warning
        sig = ode_steady_state(net, source)
    want = solve(net, source).port_current.evaluate(sig.times)
    assert np.max(np.abs(sig.samples - want)) <= 1e-4 * np.max(np.abs(want))


def test_flicker_load_matches_frequency_solution(flicker_netlist, flicker_source):
    sig = ode_steady_state(flicker_netlist, flicker_source)
    want = solve(flicker_netlist, flicker_source).port_current.evaluate(sig.times)
    assert np.max(np.abs(sig.samples - want)) <= 1e-4 * np.max(np.abs(want))


def test_dc_source_settles_to_ohms_law():
    sig = ode_steady_state(series_rl(r=2.0), LineSpectrum.dc(5.0, VOLT))
    assert np.max(np.abs(sig.samples - 2.5)) < 1e-6


def test_step_halving_is_second_order():
    net = series_rl()
    source = LineSpectrum.tone(1.0, ROOT2, VOLT)
    truth = solve(net, source).port_current

    def err(spp):
        sig = ode_steady_state(net, source, periods=50, steps_per_period=spp)
        return np.max(np.abs(sig.samples - truth.evaluate(sig.times)))

    ratio = err(256) / err(512)
    assert 3.3 < ratio < 4.8


def test_ode_input_validation(flicker_netlist):
    u = LineSpectrum.tone(1.0, 1.0, VOLT)
    with pytest.raises(ValueError, match="10 periods"):
        ode_transient(flicker_netlist, u, periods=5)
    with pytest.raises(ValueError, match="steps_per_period"):
        ode_transient(flicker_netlist, u, steps_per_period=1)
    with pytest.raises(ValueError, match="volt"):
        ode_transient(flicker_netlist, LineSpectrum.tone(1.0, 1.0, AMPERE))


def test_lossless_network_warns():
    net = Netlist((Branch("l", INDUCTOR, 1.0, ("p", "0")),), ("p", "0"))
    with pytest.warns(TransientWarning, match="no resistive branch"):
        ode_transient(net, LineSpectrum.tone(1.0, 1.0, VOLT), periods=10, steps_per_period=64)


@pytest.mark.parametrize("net, message", [
    (Netlist((Branch("l", INDUCTOR, 1.0, ("p", "0")),), ("p", "0")), "no resistive branch"),
    (Netlist((Branch("r", RESISTOR, 1.0, ("p", "0")), Branch("l", INDUCTOR, 1.0, ("p", "0"))),
             ("p", "0")), "inductor-only path"),
], ids=["no-resistor", "inductor-bridge"])
@pytest.mark.parametrize("integrate", [ode_transient, ode_steady_state],
                         ids=["transient", "steady-state"])
def test_transient_warnings_name_the_caller(net, message, integrate):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        integrate(net, LineSpectrum.tone(1.0, 1.0, VOLT), periods=10, steps_per_period=64)
    topology = [w for w in caught if message in str(w.message)]
    assert len(topology) == 1
    assert all(w.filename == __file__ for w in caught if w.category is TransientWarning)


def union_find_bridge(net):
    """Reference: do inductor branches alone join the port nodes?  By union-find."""
    parent = {}

    def find(node):
        while parent.setdefault(node, node) != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for b in net.by_kind(INDUCTOR):
        ra, rb = find(b.nodes[0]), find(b.nodes[1])
        if ra != rb:
            parent[ra] = rb
    return find(net.port[0]) == find(net.port[1])


def test_inductor_bridge_matches_union_find_on_random_nets():
    rng = np.random.default_rng(57721566)
    seen = {True: 0, False: 0}
    for k in range(600):
        net = random_netlist(rng, max_branches=12)
        if k % 2:
            # mostly inductors, so that inductor-only paths across the port are common
            net = Netlist(tuple(Branch(b.id, INDUCTOR if rng.random() < 0.7 else b.kind,
                                       b.value, b.nodes) for b in net.branches), net.port)
        want = union_find_bridge(net)
        assert oracle._inductor_bridge(net) is want
        seen[want] += 1
    assert min(seen.values()) > 100


def test_inductor_bridge_needs_a_path_of_inductors_alone():
    def net(*branches):
        return Netlist(tuple(Branch(f"b{k}", kind, 1.0, nodes)
                             for k, (kind, nodes) in enumerate(branches)), ("p", "0"))

    # through an internal node, and in either orientation
    assert oracle._inductor_bridge(net((INDUCTOR, ("p", "m")), (INDUCTOR, ("0", "m"))))
    # a resistor or capacitor in the path breaks it, and a loop off the path adds nothing
    for kind in (RESISTOR, CAPACITOR):
        assert not oracle._inductor_bridge(
            net((INDUCTOR, ("p", "m")), (kind, ("m", "0")), (INDUCTOR, ("m", "n")),
                (INDUCTOR, ("n", "m"))))


def test_underdamped_mode_settles_in_ten_periods():
    # time constant L/R = 1e6 s: a transient from rest would need millions
    # of periods, the fixed point of the period map none; at 256 steps per
    # period BDF2's own error is 2.0e-4, so the gate is met at 8192
    net = series_rl(r=1e-6, l=1.0)
    source = LineSpectrum.tone(1.0, 1.0j, VOLT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig = ode_steady_state(net, source, periods=10, steps_per_period=8192)
    assert_settled_on_solve(net, source, sig)


def test_final_state_is_consistent():
    net = series_rl()
    source = LineSpectrum.tone(1.0, ROOT2, VOLT)
    sig, state = ode_transient(net, source)
    assert set(state.inductor_currents) == {"l1"}
    assert state.capacitor_voltages == {}
    assert state.time == pytest.approx(sig.times[-1])
    steady = solve(net, source).port_current.evaluate(state.time)
    assert state.inductor_currents["l1"] == pytest.approx(steady, abs=2e-4)


@pytest.mark.parametrize("kwargs, name", [
    ({"periods": 12.5}, "periods"),
    ({"periods": True}, "periods"),
    ({"periods": 12.0}, "periods"),
    ({"steps_per_period": 100.5}, "steps_per_period"),
    ({"steps_per_period": True}, "steps_per_period"),
    ({"steps_per_period": "64"}, "steps_per_period"),
])
def test_ode_rejects_non_integer_counts(flicker_netlist, kwargs, name):
    u = LineSpectrum.tone(1.0, 1.0, VOLT)
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        ode_transient(flicker_netlist, u, **kwargs)


def test_ode_accepts_numpy_integer_counts(flicker_netlist):
    u = LineSpectrum.tone(1.0, 1.0, VOLT)
    sig, _ = ode_transient(flicker_netlist, u, periods=np.int64(10),
                           steps_per_period=np.int32(16))
    assert len(sig) == 161


# ----------------------------------------------------------------------
# uniform sampling by per-line rotation


def rotation_bound(source, times):
    """4 eps sum |A_k| (1 + omega_k t_max): rounding of the phases and the sum."""
    t_max = float(np.max(np.abs(times), initial=0.0))
    eps = np.finfo(float).eps
    return 4.0 * eps * float(np.sum(np.abs(source.amplitudes) * (1.0 + source.omegas * t_max)))


def assert_samples_match_evaluate(source, t0, h, n):
    got = _uniform_samples(source, t0, h, n)
    times = t0 + h * np.arange(n)
    assert got.shape == times.shape
    assert np.max(np.abs(got - source.evaluate(times)), initial=0.0) \
        <= rotation_bound(source, times)


def test_uniform_samples_match_evaluate(flicker_source):
    # the oracle's own grid: 50 periods of 8192 steps
    rng = np.random.default_rng(14142135)
    for source in (flicker_source, random_source(rng, allow_dc=True)):
        assert_samples_match_evaluate(source, 0.0, source.period / 8192, 50 * 8192 + 1)
    # shorter grids spanning the same 50 periods, and shifted quadrature-style windows
    for _ in range(300):
        source = random_source(rng, allow_dc=True)
        period = source.period
        assert_samples_match_evaluate(source, 0.0, period / 64, 50 * 64 + 1)
        t0 = rng.uniform(-25.0, 25.0) * period
        assert_samples_match_evaluate(source, t0, period / 128, 2049)


def test_uniform_samples_do_not_depend_on_the_range():
    # sample k is the same whatever the count of samples asked for
    rng = np.random.default_rng(27182818)
    for _ in range(20):
        source = random_source(rng, allow_dc=True)
        t0, h = rng.uniform(-10.0, 10.0), source.period / 1000
        wide = _uniform_samples(source, t0, h, 6000)
        counts = [0, 1, 2, 255, 256, 257, 512, 5999] + rng.integers(0, 6000, 30).tolist()
        for n in counts:
            assert np.array_equal(_uniform_samples(source, t0, h, n), wide[:n])


def loop_samples(f, t0, h, n):
    """The sampler as one outer product per line and re/im part, summed in line order."""
    row = oracle._ROW
    omegas, amps = f.omegas, f.amplitudes
    rows = -(-n // row)
    coarse = np.multiply.outer(omegas, t0 + (h * row) * np.arange(rows))
    fine = np.multiply.outer(omegas, h * np.arange(row))
    cos, sin = np.cos(coarse), np.sin(coarse)
    anchor_re = amps.real[:, None] * cos - amps.imag[:, None] * sin
    anchor_im = amps.real[:, None] * sin + amps.imag[:, None] * cos
    fine_re, fine_im = np.cos(fine), np.sin(fine)
    out = np.zeros((rows, row))
    for k in range(omegas.size):
        out += np.multiply.outer(anchor_re[k], fine_re[k])
        out -= np.multiply.outer(anchor_im[k], fine_im[k])
    return out.ravel()[:n]


def many_line_source(rng, count, dc):
    base = 10.0 ** rng.uniform(-1.0, 1.0)
    amps = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    pairs = [(k * base, a) for k, a in enumerate(amps, start=1)]
    if dc:
        pairs.insert(0, (0.0, rng.uniform(-5.0, 5.0)))
    return LineSpectrum.from_lines(pairs, VOLT)


def test_uniform_samples_match_the_line_by_line_loop():
    # the contraction adds the same products in the loop's order; bit
    # equality would hold only where einsum rounds like the loop (no fused
    # multiply-add), so it is held to the rotation bound
    rng = np.random.default_rng(16180339)
    sources = [random_source(rng, allow_dc=dc) for dc in (False, True) for _ in range(10)]
    sources += [many_line_source(rng, 64, dc) for dc in (False, True)]
    sources.append(LineSpectrum.zero(VOLT))
    for source in sources:
        period = source.period if source.period is not None else 2.0 * math.pi
        t0, h = rng.uniform(-25.0, 25.0) * period, period / 1000
        for n in (0, 1, 255, 256, 257, 8193):
            got, want = _uniform_samples(source, t0, h, n), loop_samples(source, t0, h, n)
            assert got.shape == want.shape == (n,)
            times = t0 + h * np.arange(n)
            assert np.max(np.abs(got - want), initial=0.0) <= rotation_bound(source, times)


def test_uniform_samples_edge_cases(flicker_source):
    dc = LineSpectrum.dc(-2.5, VOLT)
    assert np.array_equal(_uniform_samples(dc, 3.0, 0.1, 695), np.full(695, -2.5))
    zero = LineSpectrum.zero(VOLT)
    assert np.array_equal(_uniform_samples(zero, 0.0, 0.1, 300), np.zeros(300))
    h = flicker_source.period / 1000
    assert _uniform_samples(flicker_source, 0.0, h, 0).shape == (0,)
    for n in (1, 40, 255, 256, 257, 511, 513, 2000):
        assert_samples_match_evaluate(flicker_source, 1.5, h, n)


def stepper_drives(monkeypatch):
    """Record the drive of every call of the block stepper's advance."""
    drives = []
    stepper = oracle._block_stepper

    def recorded_stepper(step, drive, out):
        advance, powers = stepper(step, drive, out)

        def recorded(z, u, y=None):
            drives.append(u)
            return advance(z, u, y)

        return recorded, powers

    monkeypatch.setattr(oracle, "_block_stepper", recorded_stepper)
    return drives


def assert_drive_matches_evaluate(monkeypatch, source, periods, steps_per_period):
    # a source on its lattice takes at dt*k the value it takes at
    # dt*(k mod steps_per_period), where evaluate carries no phase error
    # that grows with k; every step is held to the bound of one period.
    # ode_transient's calls drive steps 2, 3, ... in order; step 1, the
    # backward-Euler start, is checked by the block-vs-loop tests
    drives = stepper_drives(monkeypatch)
    sig, _ = ode_transient(rc_across_port(), source, periods, steps_per_period)
    monkeypatch.undo()
    assert all(not u.flags.writeable for u in drives)
    got = np.concatenate(drives)
    steps = np.arange(2, periods * steps_per_period + 1)
    assert got.shape == steps.shape
    want = source.evaluate(sig.dt * (steps % steps_per_period))
    period = source.period if source.period is not None else 2.0 * math.pi
    assert np.max(np.abs(got - want), initial=0.0) <= rotation_bound(source, [period])


def test_periodic_samples_match_evaluate_at_every_step(monkeypatch):
    rng = np.random.default_rng(31415926)
    for spp in (6, 37, 1500, 8192):
        # whole-period calls of up to oracle._CHUNK steps, and a last call
        # of fewer periods
        for _ in range(5):
            source = random_source(rng, allow_dc=True)
            assert_drive_matches_evaluate(monkeypatch, source, 10 + oracle._CHUNK // spp, spp)


@pytest.mark.parametrize("source", [
    LineSpectrum.dc(-2.5, VOLT),
    LineSpectrum.zero(VOLT),
    LineSpectrum.from_lines([(1.0, 2.0), (3.0, 0.5j)], VOLT),
], ids=["dc-only", "zero", "two-lines"])
@pytest.mark.parametrize("steps_per_period", [2, 37])
def test_periodic_samples_edge_cases(monkeypatch, source, steps_per_period):
    assert_drive_matches_evaluate(monkeypatch, source, 10, steps_per_period)
    assert_drive_matches_evaluate(
        monkeypatch, source, 2 + 2 * oracle._CHUNK // steps_per_period, steps_per_period)


# ----------------------------------------------------------------------
# block stepping against the per-step recursion


def loop_transient(net, source, periods, steps_per_period, literal=False):
    """Reference: the BDF2 recursion stepped one sample at a time.

    Step n takes sample n mod steps_per_period of the one period the
    oracle samples, so block and loop stepping are compared on one drive;
    literal=True samples the source at every step instead.
    """
    period = source.period if source.period is not None else 2.0 * math.pi
    dt = period / steps_per_period
    g, c, node_at, ind_at, src = _time_domain_matrices(net)
    rhs_vec = np.zeros(g.shape[0])
    rhs_vec[src] = 1.0
    start = _factored(g + c / dt, 1.0 / dt)
    main = _factored(g + (1.5 / dt) * c, 1.5 / dt)
    start_drive = start @ rhs_vec
    two_back = main @ ((2.0 / dt) * c)
    one_back = main @ ((-0.5 / dt) * c)
    drive = main @ rhs_vec

    n_steps = periods * steps_per_period
    if literal:
        u = _uniform_samples(source, 0.0, dt, n_steps + 1)
    else:
        one = _uniform_samples(source, 0.0, dt, steps_per_period)
        u = [one[n % steps_per_period] for n in range(n_steps + 1)]
    x_prev = np.zeros(g.shape[0])
    x = start_drive * u[1]
    port = np.empty(n_steps + 1)
    port[0] = 0.0
    port[1] = x[src]
    for n in range(2, n_steps + 1):
        x, x_prev = two_back @ x + one_back @ x_prev + drive * u[n], x
        port[n] = x[src]

    def volt_of(name):
        return x[node_at[name]] if name in node_at else 0.0

    state = OdeState(
        inductor_currents={bid: float(x[k]) for bid, k in ind_at.items()},
        capacitor_voltages={
            b.id: float(volt_of(b.nodes[0]) - volt_of(b.nodes[1]))
            for b in net.by_kind(CAPACITOR)
        },
        time=float(dt * n_steps),
    )
    return port, state


def assert_block_matches_loop(net, source, periods, steps_per_period):
    """Port samples and final state within 1e-12 of their own scales."""
    sig, state = ode_transient(net, source, periods, steps_per_period)
    want, want_state = loop_transient(net, source, periods, steps_per_period)
    assert sig.samples.shape == want.shape
    amps = max(np.max(np.abs(want)),
               max(map(abs, want_state.inductor_currents.values()), default=0.0))
    volts = np.max(np.abs(source.evaluate(sig.times)))
    assert np.max(np.abs(sig.samples - want)) <= 1e-12 * amps
    assert state.time == want_state.time
    assert state.inductor_currents.keys() == want_state.inductor_currents.keys()
    for bid, i in want_state.inductor_currents.items():
        assert abs(state.inductor_currents[bid] - i) <= 1e-12 * amps
    assert state.capacitor_voltages.keys() == want_state.capacitor_voltages.keys()
    for bid, v in want_state.capacitor_voltages.items():
        assert abs(state.capacitor_voltages[bid] - v) <= 1e-12 * volts


def test_block_stepping_matches_loop_on_random_nets():
    # drawn as the acceptance suite's dissipative oracle cases; 12 x 1500
    # steps span two source chunks and end in a partial block
    rng = np.random.default_rng(57721566)
    checked = 0
    while checked < 20:
        net = random_netlist(rng, require_resistor=True)
        source = random_source(rng)
        try:
            solve(net, source)
        except SingularNetworkError:
            continue
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ode_transient(net, source, 12, 1500)
        if any(issubclass(w.category, TransientWarning) for w in caught):
            continue  # not dissipative; the acceptance cases skip it too
        assert_block_matches_loop(net, source, 12, 1500)
        checked += 1


def capacitor_across_port():
    return Netlist(
        (
            Branch("c0", CAPACITOR, 0.2, ("p", "0")),
            Branch("r1", RESISTOR, 0.5, ("p", "m")),
            Branch("l1", INDUCTOR, 2.0, ("m", "0")),
        ),
        ("p", "0"),
    )


@pytest.mark.parametrize("steps_per_period", [2, 37, 256, 1000])
@pytest.mark.parametrize("net, source", [
    (capacitor_across_port(), LineSpectrum.from_lines([(1.0, 2.0), (3.0, 0.5j)], VOLT)),
    (series_rl(r=2.0), LineSpectrum.dc(5.0, VOLT)),
    (capacitor_across_port(), LineSpectrum.zero(VOLT)),
], ids=["capacitor-across-port", "dc-only", "zero"])
def test_block_stepping_matches_loop(net, source, steps_per_period):
    assert_block_matches_loop(net, source, 10, steps_per_period)


def rc_across_port():
    """R and C both straight across the port, no internal node."""
    return Netlist(
        (Branch("r", RESISTOR, 1.0, ("p", "0")), Branch("c", CAPACITOR, 0.2, ("p", "0"))),
        ("p", "0"),
    )


def test_factored_rejects_singular_step_matrices():
    # an all-zero row, an exactly zero pivot, and kappa_1 of about 4e15
    for mat in ([[1.0, 2.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]],
                [[1.0, 1.0], [1.0, 1.0 + 1e-15]]):
        with pytest.raises(SingularNetworkError, match="implicit step matrix is singular"):
            _factored(np.array(mat), 2.0)


def test_factored_scales_rows_before_judging():
    # rows twenty-four decades apart, but a well-conditioned system
    mat = np.array([[1e12, 2e12], [3e-12, -1e-12]])
    x = _factored(mat, 1.0) @ np.array([5e12, 1e-12])
    np.testing.assert_allclose(x, [1.0, 2.0], rtol=1e-15)


def test_factored_accepts_the_acceptance_nets():
    # the draws of test_acceptance's ODE ensemble, which reaches its 20 nets
    # within 40 draws; their step matrices have kappa_1 below 6e6
    rng = np.random.default_rng(57721566)
    for _ in range(40):
        net = random_netlist(rng, require_resistor=True)
        dt = random_source(rng).period / 8192
        g, c, _, _, _ = _time_domain_matrices(net)
        eye = np.eye(g.shape[0])
        for mat in (g + c / dt, g + (1.5 / dt) * c):
            x = _factored(mat, 1.0 / dt) @ eye
            scale = (np.abs(mat) @ np.abs(x)).max(axis=0)
            assert np.all(np.abs(mat @ x - eye).max(axis=0) <= 1e-13 * scale)


def formed_powers(monkeypatch):
    """Record the exponent of every power that _power forms, not finds."""
    formed = []
    power = oracle._power

    def counted(table, n):
        if n not in table:
            formed.append(n)
        return power(table, n)

    monkeypatch.setattr(oracle, "_power", counted)
    return formed


def stepped(advance, z, u):
    """The outputs of one block-stepper call and the state after it."""
    y = np.empty(u.size)
    return y, advance(z, u, y)


def test_block_stepper_forms_each_tail_power_once(monkeypatch):
    net = rc_across_port()
    g, c, _, _, src = _time_domain_matrices(net)
    dt = 2.0 * math.pi / 1000
    main = _factored(g + (1.5 / dt) * c, 1.5 / dt)
    size = g.shape[0]
    rhs = np.zeros(size)
    rhs[src] = 1.0
    step = np.block([[main @ ((2.0 / dt) * c), main @ ((-0.5 / dt) * c)],
                     [np.eye(size), np.zeros((size, size))]])
    drive = np.concatenate([main @ rhs, np.zeros(size)])
    u = np.cos(dt * np.arange(3 * oracle._BLOCK + 7))
    fresh, _ = oracle._block_stepper(step, drive, src)
    want = [stepped(fresh, np.zeros(2 * size), u), stepped(fresh, np.ones(2 * size), u[:7])]
    formed = formed_powers(monkeypatch)
    advance, powers = oracle._block_stepper(step, drive, src)
    for _ in range(3):
        got = [stepped(advance, np.zeros(2 * size), u),
               stepped(advance, np.ones(2 * size), u[:7])]
        for (y, z), (want_y, want_z) in zip(got, want):
            assert np.array_equal(y, want_y) and np.array_equal(z, want_z)
        # without an output buffer the outputs are skipped, not the state
        assert np.array_equal(advance(np.zeros(2 * size), u), want[0][1])
        assert np.array_equal(advance(np.ones(2 * size), u[:7]), want[1][1])
    # hop = step^64 and hop^2 for the three full blocks, step^7 for the
    # partial one, and the powers they are composed of, each formed once
    assert sorted(formed) == sorted(powers)[1:] == [2, 3, 4, 7, 8, 16, 32, 64, 128]


def test_flushed_zeroes_subnormals_and_keeps_normal_entries():
    tiny = np.finfo(float).tiny
    normal = np.array([tiny, -tiny, np.nextafter(tiny, 1.0), -3.5e-300, 1e300, -7.25])
    subnormal = np.array([tiny / 2, -tiny / 2, 5e-324, -5e-324, np.nextafter(tiny, 0.0)])
    got = oracle._flushed(np.concatenate([normal, subnormal, [0.0]]).reshape(2, 6))
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert np.array_equal(got.ravel()[:normal.size].view(np.int64), normal.view(np.int64))
    assert np.array_equal(got.ravel()[normal.size:].view(np.int64), np.zeros(6, np.int64))
    wide = np.array([[1.0, tiny / 4], [np.longdouble(1) / 3, -2.0]], dtype=np.longdouble)[:, ::-1]
    got = oracle._flushed(wide)
    assert got.flags.c_contiguous
    assert np.array_equal(got, [[0.0, 1.0], [-2.0, float(np.longdouble(1) / 3)]])


def test_block_stepper_takes_a_call_of_any_length():
    # a call past 2 * _CHUNK steps needs hop powers beyond those of shorter
    # calls; it must give the steps that calls of at most _CHUNK give
    net = capacitor_across_port()
    g, c, _, _, src = _time_domain_matrices(net)
    dt = 2.0 * math.pi / 1000
    main = _factored(g + (1.5 / dt) * c, 1.5 / dt)
    size = g.shape[0]
    rhs = np.zeros(size)
    rhs[src] = 1.0
    step = np.block([[main @ ((2.0 / dt) * c), main @ ((-0.5 / dt) * c)],
                     [np.eye(size), np.zeros((size, size))]])
    drive = np.concatenate([main @ rhs, np.zeros(size)])
    u = LineSpectrum.from_lines([(1.0, 2.0), (3.0, 0.5j)], VOLT).evaluate(
        dt * np.arange(3 * oracle._CHUNK + 5))
    z0 = np.zeros(2 * size)
    y, z = stepped(oracle._block_stepper(step, drive, src)[0], z0, u)
    short, _ = oracle._block_stepper(step, drive, src)
    want, want_z = [], z0
    for at in range(0, u.size, oracle._CHUNK):
        part, want_z = stepped(short, want_z, u[at:at + oracle._CHUNK])
        want.append(part)
    want = np.concatenate(want)
    assert np.max(np.abs(y - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(z - want_z)) <= 1e-12 * np.max(np.abs(want_z))


def test_power_matches_repeated_multiplication():
    # a product of inner dimension 6 rounds by at most gamma_6 = 6 u = 3 eps
    # relative.  Binary powering takes at most 2 ceil(log2 n) products, but
    # a^m is reused n/m times, so to first order its error weighs up to n
    # products' worth, as does the loop's n - 1: together 6 n eps of the
    # largest entry (1.3e-12 at n = 1000; it reads 1.6e-14)
    rng = np.random.default_rng(31415)
    a = rng.standard_normal((6, 6))
    a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
    powers = {1: a}
    for n in (1, 2, 3, 7, 47, 64, 1000, 47):
        want = np.eye(6)
        for _ in range(n):
            want = a @ want
        power = oracle._power(powers, n)
        assert power.dtype == np.float64 and powers[n] is power
        scale = np.max(np.abs(want)) + np.finfo(float).tiny
        assert np.max(np.abs(power - want)) <= 6 * n * np.finfo(float).eps * scale, n
    # the powers these exponents needed, and no other
    assert sorted(powers) == [1, 2, 3, 4, 7, 8, 15, 16, 32, 40, 47, 64, 104, 128, 232,
                              256, 488, 512, 1000]


def test_power_keeps_clear_of_subnormals():
    # 0.5**1024 is a float64 subnormal; squaring cuts at the normal range,
    # so the power reaches exactly zero first and stays there
    powers = {1: np.array([[0.5]])}
    assert oracle._power(powers, 2**14 + 1)[0, 0] == 0.0
    # 2**-1022 is float64's smallest normal number, and 2**-1023 is below it
    assert oracle._power(powers, 1022)[0, 0] == 2.0 ** -1022
    assert oracle._power(powers, 1023)[0, 0] == 0.0


def test_no_module_names_longdouble():
    # the oracle is float64 on every platform; np.longdouble is 80-bit,
    # binary128 or float64 by machine, so a second precision path would
    # give one reference three arithmetics
    package = Path(__file__).resolve().parents[1] / "src" / "pqbalance"
    assert [path.name for path in sorted(package.glob("*.py"))
            if "longdouble" in path.read_text(encoding="utf-8")] == []


def test_block_stepping_matches_loop_with_subnormal_operators(monkeypatch):
    # a step matrix with entry 2**-20 has Markov parameters h_j = 2**(-20 j),
    # exact in any arithmetic, so h_52 and h_53 fall below float64's normal
    # range on every BLAS kernel; the flush must not move the result
    flushed = oracle._flushed
    subnormals = []

    def spy(a):
        rounded = np.asarray(a, dtype=float)
        subnormals.append(np.count_nonzero((rounded != 0.0)
                                           & (np.abs(rounded) < np.finfo(float).tiny)))
        return flushed(a)

    monkeypatch.setattr(oracle, "_flushed", spy)
    step = np.array([[2.0 ** -20, 0.0], [1.0, 0.0]])
    drive = np.array([1.0, 0.0])
    u = np.cos(0.1 * np.arange(3 * oracle._BLOCK + 7))
    z0 = np.array([3.0, -1.0])
    y, z = stepped(oracle._block_stepper(step, drive, 0)[0], z0, u)
    assert sum(subnormals) > 0
    want, want_z = np.empty(u.size), z0
    for n, u_n in enumerate(u):
        want_z = step @ want_z + drive * u_n
        want[n] = want_z[0]
    assert np.max(np.abs(y - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(z - want_z)) <= 1e-12 * np.max(np.abs(want_z))


@pytest.mark.parametrize("periods, steps_per_period", [
    (10, 2), (10, 4), (13, 5),       # every call inside the first block, or ending on it
    (16, 1024),                      # one call of 15 periods, short of a full group
    (113, 145),                      # one call of a full group, 112 periods
    (2731, 6),                       # one call of a full group, 2730 periods
    (99, 331),                       # two calls of a full group, 49 periods
    (17, 1024),                      # one call of exactly _CHUNK steps
    (18, 1024),                      # and one period past it, in a second call
    (12, 1500),                      # calls of 10 periods and 1, each ending in a partial block
    (10, 16400),                     # a period longer than _CHUNK, one per call
], ids=["20", "40", "65", "16384", "16385", "16386", "32769",
        "17408", "18432", "18000", "164000"])
@pytest.mark.parametrize("net", [capacitor_across_port(), rc_across_port()],
                         ids=["capacitor-across-port", "rc-across-port"])
def test_block_stepping_matches_loop_at_block_and_chunk_edges(net, periods, steps_per_period):
    # step 1 is the backward-Euler start; one call takes the rest of period
    # 0, and every later call takes whole periods, _CHUNK // steps_per_period
    # of them (at least one) or what is left, each cut into blocks of
    # oracle._BLOCK steps and a partial last block
    assert oracle._CHUNK == 16384 and oracle._CHUNK % oracle._BLOCK == 0
    source = LineSpectrum.from_lines([(1.0, 2.0), (3.0, 0.5j)], VOLT)
    assert_block_matches_loop(net, source, periods, steps_per_period)


def test_block_stepping_matches_loop_on_warning_paths():
    lossless = Netlist((Branch("l", INDUCTOR, 1.0, ("p", "0")),), ("p", "0"))
    with pytest.warns(TransientWarning, match="no resistive branch"):
        assert_block_matches_loop(lossless, LineSpectrum.tone(1.0, 1.0, VOLT), 10, 64)
    bridged = Netlist((Branch("r", RESISTOR, 1.0, ("p", "0")),
                       Branch("l", INDUCTOR, 1.0, ("p", "0"))), ("p", "0"))
    with pytest.warns(TransientWarning, match="inductor-only path"):
        assert_block_matches_loop(bridged, LineSpectrum.tone(1.0, 1.0j, VOLT), 10, 256)
    # no warning, but a mode that decays over millions of periods
    assert_block_matches_loop(series_rl(r=1e-6, l=1.0), LineSpectrum.tone(1.0, 1.0j, VOLT),
                              10, 256)


def _openblas_on_x86_64():
    """Whether numpy's BLAS is OpenBLAS on an x86-64 machine, where
    OPENBLAS_CORETYPE picks the kernel a process runs."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not _openblas_on_x86_64(), reason="needs OpenBLAS on x86-64")
def test_stepper_tests_pass_under_a_second_blas_kernel():
    # the stepper and step-matrix tests again, in a process on OpenBLAS's
    # Haswell kernels: their round-off differs from the AVX-512 kernels',
    # and no test may depend on either
    select = ("(subnormal or block_stepp or factored or power"
              " or steady_state_is_the_last_period) and not random_nets")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-k", select,
         "tests/test_oracle.py"],
        cwd=Path(__file__).resolve().parents[1], capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"}, timeout=300)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
    assert re.search(r"\b\d+ passed", run.stdout)


# ----------------------------------------------------------------------
# steady state from the shared integrator


def steady_state_gap(net, source, periods, steps_per_period):
    """Gap between ode_steady_state and the last period of ode_transient,
    relative to that period's peak; t0 and dt must be equal.

    Returns (gap, drift, bridged).  On a net with an inductor-only path
    across the port, which warns, the start from rest leaves a constant
    current offset that the fixed point does not share, so the gap is the
    spread of the difference: that offset must be constant.  `drift` is
    the transient's own change over its last period, relative to the peak.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        steady = ode_steady_state(net, source, periods, steps_per_period)
        full, _ = ode_transient(net, source, periods, steps_per_period)
    start = (periods - 1) * steps_per_period
    want = full.samples[start:start + steps_per_period]
    prev = full.samples[start - steps_per_period:start]
    assert steady.samples.shape == want.shape
    assert steady.t0 == full.times[start] == start * full.dt
    assert steady.dt == full.dt
    warned = [str(w.message) for w in caught if w.category is TransientWarning]
    bridged = bool(warned)
    assert all("inductor-only path" in m for m in warned)
    diff = steady.samples - want
    gap = np.ptp(diff) if bridged else np.max(np.abs(diff))
    scale = np.max(np.abs(want))
    return float(gap / scale), float(np.max(np.abs(want - prev)) / scale), bridged


def test_steady_state_is_the_last_period_of_the_transient(flicker_netlist, flicker_source):
    # the fixed point is solved for, not stepped into, so the samples agree
    # within rounding only (3.8e-15 here), and a bridged net's offset is
    # constant within 2e-13 of the peak
    gap, _, bridged = steady_state_gap(flicker_netlist, flicker_source, 50, 4096)
    assert not bridged and gap <= 1e-12
    rng = np.random.default_rng(16180339)
    checked = bridges = 0
    while checked < 10:
        net = random_netlist(rng, require_resistor=True)
        source = random_source(rng, allow_dc=True)
        try:
            solve(net, source)
        except SingularNetworkError:
            continue
        gap, _, bridged = steady_state_gap(net, source, 12, 1500)
        assert gap <= (1e-11 if bridged else 1e-12)
        checked += 1
        bridges += bridged
    assert bridges > 0


def test_steady_state_is_the_last_period_of_the_transient_on_oracle_nets():
    # drawn as the acceptance suite's oracle cases, at its 50 x 8192 steps;
    # a transient that still moves by more than 1e-12 of its peak over its
    # last period is no reference at that bound, so its net is skipped
    # (draws 1, 3, 6, 12 and 14; 1 and 12 are acceptance nets, held to
    # solve there)
    rng = np.random.default_rng(57721566)
    checked = bridges = 0
    while checked < 8:
        net = random_netlist(rng, require_resistor=True)
        source = random_source(rng)
        try:
            solve(net, source)
        except SingularNetworkError:
            continue
        gap, drift, bridged = steady_state_gap(net, source, 50, 8192)
        if drift > 1e-12:
            continue
        assert gap <= (1e-11 if bridged else 1e-12)
        checked += 1
        bridges += bridged
    assert bridges > 0


@pytest.mark.parametrize("steps_per_period", [2, 37, 1500, 8192])
def test_steady_state_steps_two_periods(monkeypatch, flicker_netlist, flicker_source,
                                        steps_per_period):
    spp = steps_per_period
    drives = stepper_drives(monkeypatch)
    calls = []
    sampler = oracle._uniform_samples

    def counted(f, t0, h, n):
        calls.append(n)
        return sampler(f, t0, h, n)

    monkeypatch.setattr(oracle, "_uniform_samples", counted)
    for periods in (10, 50, 2000):
        drives.clear()
        calls.clear()
        ode_steady_state(flicker_netlist, flicker_source, periods, spp)
        # one period from zero, then one from the fixed point; none from rest
        assert [u.size for u in drives] == [spp, spp]
        assert calls == [spp]
    # the transient still takes every step: all but the backward-Euler
    # start, the rest of period 0 in one call, then whole periods per call,
    # at most max(_CHUNK, spp) steps
    drives.clear()
    ode_transient(flicker_netlist, flicker_source, 10, spp)
    steps = [u.size for u in drives]
    assert sum(steps) == 10 * spp - 1
    assert steps[0] == spp - 1
    assert all(n % spp == 0 and 0 < n <= max(oracle._CHUNK, spp) for n in steps[1:])


def test_steady_state_forms_no_power_twice(monkeypatch, flicker_netlist, flicker_source):
    formed = formed_powers(monkeypatch)
    for spp in (37, 1500, 8192):
        formed.clear()
        ode_steady_state(flicker_netlist, flicker_source, 50, spp)
        assert len(formed) == len(set(formed)) and spp in formed


def assert_settled_on_solve(net, source, sig, rtol=1e-4):
    """The oracle's 1e-4 gate against solve, at the sample times reduced
    to the first period: t0 is a whole number of periods, and far from 0
    a float time carries no useful phase."""
    want = solve(net, source).port_current.evaluate(sig.dt * np.arange(len(sig)))
    assert np.max(np.abs(sig.samples - want)) <= rtol * np.max(np.abs(want))


def test_steady_state_settles_a_slow_mode_over_a_hundred_million_periods():
    # time constant L/R = 1e6 s: a start from rest would leave an offset of
    # the whole current amplitude for millions of periods; the fixed point
    # has none, and `periods` only places the window
    net = series_rl(r=1e-6, l=1.0)
    source = LineSpectrum.tone(1.0, 1.0j, VOLT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig = ode_steady_state(net, source, 10**8, 8192)
        early = ode_steady_state(net, source, 10, 8192)
    assert sig.t0 == (10**8 - 1) * 8192 * sig.dt
    assert_settled_on_solve(net, source, sig)
    assert np.array_equal(sig.samples, early.samples)
    lossless = Netlist((Branch("l", INDUCTOR, 1.0, ("p", "0")),), ("p", "0"))
    with pytest.warns(TransientWarning, match="no resistive branch"):
        sig = ode_steady_state(lossless, source, 10**8, 8192)
    assert np.all(np.isfinite(sig.samples))


def test_slow_mode_error_is_the_integrators_own():
    # ten periods of 2 pi s against a 1e6 s time constant: what is left of
    # the gap to solve is BDF2's own error, 2.0e-4 of the peak at 256 steps
    # per period, falling four-fold per halving of the step
    net = series_rl(r=1e-6, l=1.0)
    source = LineSpectrum.tone(1.0, 1.0j, VOLT)
    truth = solve(net, source).port_current

    def err(spp):
        sig = ode_steady_state(net, source, 10, spp)
        want = truth.evaluate(sig.dt * np.arange(len(sig)))
        return np.max(np.abs(sig.samples - want)) / np.max(np.abs(want))

    assert err(256) == pytest.approx(2.0e-4, rel=0.01)
    assert 3.9 < err(256) / err(512) < 4.1


def test_steady_state_pins_acceptance_net_12():
    # the twelfth acceptance net, draw 23 of its protocol: 50 periods from
    # rest left 7.8e-5 of transient in the window, the fixed point none
    rng = np.random.default_rng(57721566)
    for _ in range(23):
        net = random_netlist(rng, require_resistor=True)
        source = random_source(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig = ode_steady_state(net, source, steps_per_period=8192)
    assert_settled_on_solve(net, source, sig, rtol=1e-6)


def test_steady_state_with_a_floating_capacitor_cutset(monkeypatch):
    # nodes a and n touch capacitors only, so their charges are conserved:
    # the one-period map has an eigenvalue 1, and the fixed point is not
    # unique
    net = Netlist(
        (
            Branch("c1", CAPACITOR, 0.5, ("p", "a")),
            Branch("c2", CAPACITOR, 0.3, ("a", "b")),
            Branch("c3", CAPACITOR, 0.2, ("a", "n")),
            Branch("c4", CAPACITOR, 0.7, ("n", "0")),
            Branch("r1", RESISTOR, 2.0, ("b", "0")),
            Branch("r2", RESISTOR, 1.0, ("p", "0")),
        ),
        ("p", "0"),
    )
    source = LineSpectrum.from_lines([(1.0, 2.0), (3.0, 0.5j)], VOLT)
    ratios = []  # sigma_min / sigma_max of I - M
    pinv = np.linalg.pinv

    def recorded(a, rcond):
        sv = np.linalg.svd(a, compute_uv=False)
        ratios.append(sv[-1] / sv[0])
        return pinv(a, rcond=rcond)

    monkeypatch.setattr(np.linalg, "pinv", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig = ode_steady_state(net, source, steps_per_period=4096)
    assert ratios[0] < oracle._FIXED_POINT_RCOND
    assert_settled_on_solve(net, source, sig)
    # the transient holds both charges at zero, least squares at its
    # minimum-norm values; the port sees them only through rounding, about
    # 8e-12 of a unit state over a period (1.1e-11 of the peak here)
    gap, _, _ = steady_state_gap(net, source, 50, 4096)
    assert gap <= 1e-10


@pytest.mark.parametrize("detuning", [0.5, 0.7, 1.3])
def test_steady_state_of_a_lossless_lc_off_resonance(detuning):
    # nothing decays, so a start from rest never settles; the fixed point
    # exists whenever no source line sits on the resonance
    net = Netlist(
        (Branch("l", INDUCTOR, 1e-3, ("p", "m")), Branch("c", CAPACITOR, 1e-6, ("m", "0"))),
        ("p", "0"),
    )
    source = LineSpectrum.tone(detuning / math.sqrt(1e-3 * 1e-6), 1.0, VOLT)
    with pytest.warns(TransientWarning, match="no resistive branch"):
        sig = ode_steady_state(net, source, steps_per_period=4096)
    assert_settled_on_solve(net, source, sig, rtol=1e-5)


def test_steady_state_counts_do_not_wrap(flicker_netlist, flicker_source):
    # 10**16 periods of 8192 steps is past 2**63 steps: numpy integers
    # would wrap, so the counts are taken as Python integers
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig = ode_steady_state(flicker_netlist, flicker_source, np.int64(10**16),
                               np.int64(8192))
    assert sig.dt == flicker_source.period / 8192
    assert sig.t0 == (10**16 - 1) * 8192 * sig.dt > 0.0
    assert_settled_on_solve(flicker_netlist, flicker_source, sig)


def test_steady_state_does_not_hold_the_transient(flicker_netlist, flicker_source):
    # 50 x 8192 steps: the full transient alone is 3.3 MB
    ode_steady_state(flicker_netlist, flicker_source, 10, 64)  # warm any caches
    tracemalloc.start()
    try:
        ode_steady_state(flicker_netlist, flicker_source, 50, 8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_transient_holds_its_samples_once(flicker_netlist, flicker_source):
    # 50 x 8192 steps: the signal takes over the integrator's buffer
    ode_transient(flicker_netlist, flicker_source, 10, 64)  # warm any caches
    tracemalloc.start()
    try:
        sig, _ = ode_transient(flicker_netlist, flicker_source, 50, 8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sig.samples.nbytes == (50 * 8192 + 1) * 8
    assert peak < 1.3 * sig.samples.nbytes
    assert not sig.samples.flags.writeable


# ----------------------------------------------------------------------
# one sampled period drives every step


def test_integrators_sample_one_period_and_quadrature_every_node(
        monkeypatch, flicker_netlist, flicker_source):
    calls = []
    sampler = oracle._uniform_samples

    def counted(f, t0, h, n):
        calls.append(n)
        return sampler(f, t0, h, n)

    monkeypatch.setattr(oracle, "_uniform_samples", counted)
    for integrate in (ode_transient, ode_steady_state):
        for periods, spp in ((50, 8192), (12, 1500), (10, 2)):
            calls.clear()
            integrate(flicker_netlist, flicker_source, periods, spp)
            assert calls == [spp]
    calls.clear()
    cfg = QuadratureConfig(half_width=50.0, panels=512)
    quadrature_analytic(flicker_source, ComplexTimePoint(0.3, 0.5), cfg)
    assert calls == [cfg.panels + 1]


def test_off_lattice_source_stays_within_its_phase_bound():
    # the 3rd harmonic sits off its lattice multiple by half the tolerance
    # the lattice search accepts; the oracle drives it at the lattice
    # frequency, so its phase departs from the literal line's by at most
    # 2 pi periods n delta
    delta = 0.5 * COMMENSURATE_RTOL
    source = LineSpectrum.from_lines([(1.0, 2.0), (3.0 * (1.0 + delta), 0.5j)], VOLT)
    assert source.omega0 == 1.0 and source.omegas[-1] == 3.0 * (1.0 + delta)
    periods, spp, n_max = 50, 64, 3
    net = series_rl()
    steady = ode_steady_state(net, source, periods, spp)
    literal, _ = loop_transient(net, source, periods, spp, literal=True)
    want = literal[(periods - 1) * spp:periods * spp]
    scale = np.max(np.abs(want))
    gap = np.max(np.abs(steady.samples - want))
    phase_bound = 2.0 * math.pi * periods * n_max * COMMENSURATE_RTOL
    assert 1e-10 * scale < gap <= phase_bound * scale
    assert gap <= 1e-2 * 1e-4 * scale  # far inside the oracle's 1e-4 gate


# ----------------------------------------------------------------------
# discrete Hilbert transform


def test_fft_hilbert_of_cosine():
    n = 4096
    sig = LineSpectrum.tone(1.0).sample(0.0, 2.0 * math.pi / n, n)
    out = fft_hilbert(sig)
    assert np.max(np.abs(out.samples - np.sin(out.times))) < 1e-8


def test_fft_hilbert_of_dc():
    out = fft_hilbert(LineSpectrum.dc(5.0).sample(0.0, 0.1, 256))
    assert np.max(np.abs(out.samples)) < 1e-12


def test_fft_hilbert_requires_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        fft_hilbert(LineSpectrum.tone(1.0).sample(0.0, 0.1, 100))


def test_fft_hilbert_agrees_with_line_hilbert(flicker_source):
    n = 4096
    period = flicker_source.period
    sampled = flicker_source.sample(0.0, period / n, n)
    via_fft = fft_hilbert(sampled)
    via_lines = flicker_source.hilbert().sample(0.0, period / n, n)
    scale = np.max(np.abs(sampled.samples))
    assert np.max(np.abs(via_fft.samples - via_lines.samples)) <= 1e-8 * scale


# ----------------------------------------------------------------------
# windowed quadrature of the complex-time kernel


def test_quadrature_recovers_damped_phasor():
    f = LineSpectrum.tone(1.0)
    cfg = QuadratureConfig(half_width=400.0)
    est = quadrature_analytic(f, ComplexTimePoint(0.0, 1.0), cfg)
    assert abs(est - math.exp(-1.0)) < 1e-3


def test_quadrature_of_constant():
    f = LineSpectrum.dc(1.0)
    p = ComplexTimePoint(0.3, 1.0)
    cfg = QuadratureConfig(half_width=400.0)
    est = quadrature_analytic(f, p, cfg)
    assert abs(est - 1.0) <= quadrature_tail_bound(f, p, cfg) * 1.5


def test_quadrature_error_shrinks_with_window():
    f = LineSpectrum.from_lines([(1.0, 1.0), (2.0, 0.5)])
    p = ComplexTimePoint(0.7, 0.8)
    exact = f.analytic_at(p.t, p.s)
    errs = {}
    for width in (50.0, 100.0, 200.0, 400.0):
        cfg = QuadratureConfig(half_width=width)
        errs[width] = abs(quadrature_analytic(f, p, cfg) - exact)
        assert errs[width] <= quadrature_tail_bound(f, p, cfg)
    assert errs[400.0] < errs[50.0]


def test_quadrature_requires_positive_s():
    cfg = QuadratureConfig(half_width=50.0)
    with pytest.raises(ValueError, match="s > 0"):
        quadrature_analytic(LineSpectrum.tone(1.0), ComplexTimePoint(0.0, 0.0), cfg)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(half_width=0.0)
    with pytest.raises(ValueError, match="panels must be even and >= 2"):
        QuadratureConfig(half_width=10.0, panels=3)
    with pytest.raises(ValueError, match="panels must be even and >= 2"):
        QuadratureConfig(half_width=10.0, panels=0)


@pytest.mark.parametrize("panels", [64.0, "8", True, 8.5])
def test_quadrature_panels_must_be_an_integer(panels):
    with pytest.raises(ValueError, match="^panels must be an integer"):
        QuadratureConfig(half_width=10.0, panels=panels)


def test_quadrature_panels_accept_numpy_integers():
    assert QuadratureConfig(half_width=10.0, panels=np.int64(64)).panels == 64
    for panels in (np.int32(3), np.int64(0)):
        with pytest.raises(ValueError, match="panels must be even and >= 2"):
            QuadratureConfig(half_width=10.0, panels=panels)


# ----------------------------------------------------------------------
# numeric averaging


def test_numeric_mean_of_lifted_cosine():
    f = LineSpectrum.from_lines([(0.0, 0.5), (2.0, 0.5)])
    sig = f.sample(0.0, math.pi / 512, 512)
    assert numeric_mean(sig) == pytest.approx(0.5, abs=1e-10)


def test_numeric_mean_of_sine_vanishes():
    sig = LineSpectrum.tone(1.0, -1.0j).sample(0.0, 2.0 * math.pi / 1024, 1024)
    assert numeric_mean(sig) == pytest.approx(0.0, abs=1e-10)


def test_numeric_mean_of_flicker_power(flicker_netlist, flicker_source):
    sol = solve(flicker_netlist, flicker_source)
    p = reference_product(sol.source, sol.port_current)
    n = 4096
    sig = p.sample(0.0, p.period / n, n)
    assert numeric_mean(sig) == pytest.approx(10.05, abs=1e-6)


# ----------------------------------------------------------------------
# independence from the frequency-domain solve


def test_oracle_shares_nothing_with_the_frequency_domain_solve():
    tree = ast.parse(inspect.getsource(oracle))
    from_network = set()
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            named |= names | {alias.asname for alias in node.names if alias.asname}
            if node.module in ("network", "pqbalance.network"):
                from_network |= names
            elif node.module in (None, "pqbalance"):
                assert "network" not in names
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("pqbalance") for a in node.names)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert from_network == {"CAPACITOR", "INDUCTOR", "RESISTOR", "Netlist",
                            "SingularNetworkError"}
    assert not named & {"solve", "solve_frequency", "_stamps", "_Stamps"}
