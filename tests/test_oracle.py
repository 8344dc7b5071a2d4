"""Independent validators: time stepping, FFT quadrature companion, kernels."""

import ast
import inspect
import math
import re
import tracemalloc
import warnings

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
from pqbalance.oracle import (
    _factored,
    _periodic_samples,
    _time_domain_matrices,
    _uniform_samples,
)
from pqbalance.spectrum import (
    AMPERE,
    COMMENSURATE_RTOL,
    VOLT,
    ComplexTimePoint,
    LineSpectrum,
)

from conftest import random_netlist, random_source

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


def test_underdamped_settling_warns_of_drift():
    # time constant L/R = 1e6 s: 10 periods cannot settle the cosine transient
    net = series_rl(r=1e-6, l=1.0)
    with pytest.warns(TransientWarning, match="drifting"):
        ode_steady_state(net, LineSpectrum.tone(1.0, 1.0j, VOLT),
                         periods=10, steps_per_period=256)


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


def assert_samples_match_evaluate(source, t0, h, lo, hi):
    got = _uniform_samples(source, t0, h, lo, hi)
    times = t0 + h * np.arange(lo, hi)
    assert got.shape == times.shape
    assert np.max(np.abs(got - source.evaluate(times)), initial=0.0) \
        <= rotation_bound(source, times)


def test_uniform_samples_match_evaluate(flicker_source):
    # the oracle's own grid: 50 periods of 8192 steps
    rng = np.random.default_rng(14142135)
    for source in (flicker_source, random_source(rng, allow_dc=True)):
        assert_samples_match_evaluate(source, 0.0, source.period / 8192, 0, 50 * 8192 + 1)
    # shorter grids spanning the same 50 periods, and shifted quadrature-style windows
    for _ in range(300):
        source = random_source(rng, allow_dc=True)
        period = source.period
        assert_samples_match_evaluate(source, 0.0, period / 64, 0, 50 * 64 + 1)
        t0 = rng.uniform(-25.0, 25.0) * period
        assert_samples_match_evaluate(source, t0, period / 128, 0, 2049)


def test_uniform_samples_do_not_depend_on_the_range():
    rng = np.random.default_rng(27182818)
    for _ in range(20):
        source = random_source(rng, allow_dc=True)
        t0, h = rng.uniform(-10.0, 10.0), source.period / 1000
        wide = _uniform_samples(source, t0, h, 0, 6000)
        ranges = [(0, 1), (1, 2), (255, 257), (256, 512), (5999, 6000), (2, 6000)]
        for _ in range(30):
            lo = int(rng.integers(0, 6000))
            ranges.append((lo, int(rng.integers(lo, 6001))))
        for lo, hi in ranges:
            assert np.array_equal(_uniform_samples(source, t0, h, lo, hi), wide[lo:hi])


def test_uniform_samples_edge_cases(flicker_source):
    dc = LineSpectrum.dc(-2.5, VOLT)
    assert np.array_equal(_uniform_samples(dc, 3.0, 0.1, 5, 700), np.full(695, -2.5))
    zero = LineSpectrum.zero(VOLT)
    assert np.array_equal(_uniform_samples(zero, 0.0, 0.1, 0, 300), np.zeros(300))
    h = flicker_source.period / 1000
    for lo in (0, 7, 256, 300):
        assert _uniform_samples(flicker_source, 0.0, h, lo, lo).shape == (0,)
    for lo, hi in ((0, 1), (3, 40), (250, 260), (257, 511), (513, 2000), (1000, 1001)):
        assert_samples_match_evaluate(flicker_source, 1.5, h, lo, hi)


def assert_periodic_samples_match_evaluate(source, steps_per_period, ranges):
    # a source on its lattice takes at dt*k the value it takes at
    # dt*(k mod steps_per_period), where evaluate carries no phase error
    # that grows with k; every step is held to the bound of one period
    period = source.period if source.period is not None else 2.0 * math.pi
    dt = period / steps_per_period
    samples = _periodic_samples(source, dt, steps_per_period)
    bound = rotation_bound(source, [period])
    for lo, hi in ranges:
        got = samples(lo, hi)
        assert got.shape == (hi - lo,) and not got.flags.writeable
        want = source.evaluate(dt * (np.arange(lo, hi) % steps_per_period))
        assert np.max(np.abs(got - want), initial=0.0) <= bound


def test_periodic_samples_match_evaluate_at_every_step():
    rng = np.random.default_rng(31415926)
    sources = [random_source(rng, allow_dc=True) for _ in range(300)]
    for spp in (6, 37, 1500, 8192):
        # the longest slice at the largest offset, late in a 50-period run
        longest = (49 * spp - 1, 49 * spp - 1 + oracle._CHUNK)
        assert_periodic_samples_match_evaluate(sources[0], spp, [longest])
        for source in sources:
            lo = int(rng.integers(spp, 50 * spp))
            hi = lo + int(rng.integers(0, min(oracle._CHUNK, 2 * spp + 2) + 1))
            assert_periodic_samples_match_evaluate(source, spp, [(0, spp), (lo, hi)])


@pytest.mark.parametrize("source", [
    LineSpectrum.dc(-2.5, VOLT),
    LineSpectrum.zero(VOLT),
    LineSpectrum.from_lines([(1.0, 2.0), (3.0, 0.5j)], VOLT),
], ids=["dc-only", "zero", "two-lines"])
@pytest.mark.parametrize("steps_per_period", [2, 37])
def test_periodic_samples_edge_cases(source, steps_per_period):
    spp = steps_per_period
    ranges = [(0, 1), (1, 2), (0, spp), (spp - 1, spp + 1), (5 * spp, 5 * spp),
              (7 * spp + 1, 7 * spp + 1 + oracle._CHUNK)]
    assert_periodic_samples_match_evaluate(source, spp, ranges)


# ----------------------------------------------------------------------
# block stepping against the per-step recursion


def loop_transient(net, source, periods, steps_per_period, literal=False):
    """Reference: the BDF2 recursion stepped one sample at a time.

    Each step takes its source sample from the oracle's own drive
    (_periodic_samples), so block and loop stepping are compared on one
    drive; literal=True samples the source at every step instead.
    """
    period = source.period if source.period is not None else 2.0 * math.pi
    dt = period / steps_per_period
    g, c, node_at, ind_at, src = _time_domain_matrices(net)
    rhs_vec = np.zeros(g.shape[0])
    rhs_vec[src] = 1.0
    start = _factored(g + c / dt, 1.0 / dt)
    main = _factored(g + (1.5 / dt) * c, 1.5 / dt)
    start_drive = start(rhs_vec)
    two_back = main((2.0 / dt) * c)
    one_back = main((-0.5 / dt) * c)
    drive = main(rhs_vec)

    n_steps = periods * steps_per_period
    if literal:
        u = _uniform_samples(source, 0.0, dt, 0, n_steps + 1)
    else:
        samples = _periodic_samples(source, dt, steps_per_period)
        u = np.array([samples(n, n + 1)[0] for n in range(n_steps + 1)])
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
], ids=["capacitor-across-port", "dc-only"])
def test_block_stepping_matches_loop(net, source, steps_per_period):
    assert_block_matches_loop(net, source, 10, steps_per_period)


def rc_across_port():
    """R and C both straight across the port, no internal node."""
    return Netlist(
        (Branch("r", RESISTOR, 1.0, ("p", "0")), Branch("c", CAPACITOR, 0.2, ("p", "0"))),
        ("p", "0"),
    )


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


def test_affine_power_matches_repeated_application():
    rng = np.random.default_rng(31415)
    a = rng.standard_normal((6, 6))
    a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
    b = rng.standard_normal(6)
    wide_a, wide_b = a.astype(np.longdouble), b.astype(np.longdouble)
    for n in (1, 2, 3, 7, 47, 64, 1000):
        power, offset = oracle._affine_power(a, b, n)
        want_power, want_offset = np.eye(6, dtype=np.longdouble), np.zeros(6, np.longdouble)
        for _ in range(n):
            want_power, want_offset = wide_a @ want_power, wide_a @ want_offset + wide_b
        assert power.dtype == offset.dtype == np.longdouble
        scale = np.max(np.abs(want_power)) + np.finfo(float).tiny
        assert np.max(np.abs(power - want_power)) <= 1e-15 * scale, n
        assert np.max(np.abs(offset - want_offset)) <= 1e-15 * np.max(np.abs(want_offset)), n


def test_affine_power_keeps_clear_of_longdouble_subnormals():
    # 0.5**(2**14) is a longdouble subnormal; squaring cuts at float64's
    # normal range, so the power reaches exactly zero first
    power, offset = oracle._affine_power(np.array([[0.5]]), np.array([1.0]), 2**14 + 1)
    assert power[0, 0] == 0.0
    assert offset[0] == 2.0


def test_block_stepping_matches_loop_with_subnormal_operators(monkeypatch):
    # the Markov parameters of a capacitor straight across the port decay
    # into the subnormal range; the flush must not move the result
    flushed = oracle._flushed
    subnormals = []

    def spy(a):
        rounded = np.asarray(a, dtype=float)
        subnormals.append(np.count_nonzero((rounded != 0.0)
                                           & (np.abs(rounded) < np.finfo(float).tiny)))
        return flushed(a)

    monkeypatch.setattr(oracle, "_flushed", spy)
    source = LineSpectrum.from_lines([(1.0, 2.0), (3.0, 0.5j)], VOLT)
    for steps_per_period in (37, 1000):
        subnormals.clear()
        assert_block_matches_loop(rc_across_port(), source, 10, steps_per_period)
        assert sum(subnormals) > 0


@pytest.mark.parametrize("periods, steps_per_period", [
    (10, 2), (10, 4), (13, 5),       # inside the first block, and ending on it
    (16, 1024),                      # one step short of a full chunk
    (113, 145),                      # 16,385 steps: ending exactly on a chunk
    (2731, 6),                       # one step past it
    (99, 331),                       # ending exactly on the second chunk
], ids=["20", "40", "65", "16384", "16385", "16386", "32769"])
@pytest.mark.parametrize("net", [capacitor_across_port(), rc_across_port()],
                         ids=["capacitor-across-port", "rc-across-port"])
def test_block_stepping_matches_loop_at_block_and_chunk_edges(net, periods, steps_per_period):
    # steps 2..n are advanced in chunks of oracle._CHUNK samples, each cut into
    # blocks of oracle._BLOCK steps and a partial last block
    assert oracle._CHUNK == 16384 and oracle._CHUNK % oracle._BLOCK == 0
    source = LineSpectrum.from_lines([(1.0, 2.0), (3.0, 0.5j)], VOLT)
    assert_block_matches_loop(net, source, periods, steps_per_period)


def test_block_stepping_matches_loop_on_warning_paths():
    lossless = Netlist((Branch("l", INDUCTOR, 1.0, ("p", "0")),), ("p", "0"))
    with pytest.warns(TransientWarning, match="no resistive branch"):
        assert_block_matches_loop(lossless, LineSpectrum.tone(1.0, 1.0, VOLT), 10, 64)
    underdamped = series_rl(r=1e-6, l=1.0)
    source = LineSpectrum.tone(1.0, 1.0j, VOLT)
    with pytest.warns(TransientWarning, match="drifting"):
        ode_steady_state(underdamped, source, periods=10, steps_per_period=256)
    assert_block_matches_loop(underdamped, source, 10, 256)


# ----------------------------------------------------------------------
# steady state from the shared integrator


def steady_state_gap(net, source, periods, steps_per_period):
    """Largest gap between ode_steady_state and the last period of
    ode_transient, relative to that period's peak; t0 and dt must be equal."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TransientWarning)
        steady = ode_steady_state(net, source, periods, steps_per_period)
        full, _ = ode_transient(net, source, periods, steps_per_period)
    start = (periods - 1) * steps_per_period
    want = full.samples[start:start + steps_per_period]
    assert steady.samples.shape == want.shape
    assert steady.t0 == full.times[start] == start * full.dt
    assert steady.dt == full.dt
    return np.max(np.abs(steady.samples - want)) / np.max(np.abs(want))


def test_steady_state_is_the_last_period_of_the_transient(flicker_netlist, flicker_source):
    # the settling periods are hopped, not stepped, so the samples agree
    # within rounding only; the largest gap seen is about 2e-13
    assert steady_state_gap(flicker_netlist, flicker_source, 50, 4096) <= 1e-12
    rng = np.random.default_rng(16180339)
    checked = 0
    while checked < 10:
        net = random_netlist(rng, require_resistor=True)
        source = random_source(rng, allow_dc=True)
        try:
            solve(net, source)
        except SingularNetworkError:
            continue
        assert steady_state_gap(net, source, 12, 1500) <= 1e-12
        checked += 1


def test_steady_state_is_the_last_period_of_the_transient_on_oracle_nets():
    # drawn as the acceptance suite's dissipative oracle cases, at its 50 x 8192 steps
    rng = np.random.default_rng(57721566)
    checked = 0
    while checked < 8:
        net = random_netlist(rng, require_resistor=True)
        source = random_source(rng)
        try:
            solve(net, source)
        except SingularNetworkError:
            continue
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ode_steady_state(net, source, 50, 8192)
        if any(issubclass(w.category, TransientWarning) for w in caught):
            continue  # not settled; the acceptance cases skip it too
        assert steady_state_gap(net, source, 50, 8192) <= 1e-12
        checked += 1


def count_steps(monkeypatch):
    """Record the number of steps of every call of the block stepper's advance."""
    steps = []
    stepper = oracle._block_stepper

    def counted_stepper(step, drive, out):
        advance = stepper(step, drive, out)

        def counted(z, u):
            steps.append(u.size)
            return advance(z, u)

        return counted

    monkeypatch.setattr(oracle, "_block_stepper", counted_stepper)
    return steps


@pytest.mark.parametrize("steps_per_period", [2, 37, 1500, 8192])
def test_steady_state_steps_about_four_periods(monkeypatch, flicker_netlist, flicker_source,
                                               steps_per_period):
    steps = count_steps(monkeypatch)
    calls = []
    sampler = oracle._uniform_samples

    def counted(f, t0, h, lo, hi):
        calls.append(hi - lo)
        return sampler(f, t0, h, lo, hi)

    monkeypatch.setattr(oracle, "_uniform_samples", counted)
    for periods in (10, 50, 2000):
        steps.clear()
        calls.clear()
        ode_steady_state(flicker_netlist, flicker_source, periods, steps_per_period)
        assert 0 < sum(steps) <= 4 * steps_per_period + 1
        assert calls == [steps_per_period]
    # the transient still takes every step: all but the backward-Euler start
    steps.clear()
    ode_transient(flicker_netlist, flicker_source, 10, steps_per_period)
    assert sum(steps) == 10 * steps_per_period - 1


def assert_settled_on_solve(net, source, sig):
    """The oracle's 1e-4 gate against solve, at the sample times reduced
    to the first period: t0 is a whole number of periods, and far from 0
    a float time carries no useful phase."""
    want = solve(net, source).port_current.evaluate(sig.dt * np.arange(len(sig)))
    assert np.max(np.abs(sig.samples - want)) <= 1e-4 * np.max(np.abs(want))


def test_steady_state_settles_a_slow_mode_over_a_hundred_million_periods():
    # time constant L/R = 1e6 s: 10**8 periods of 2 pi s are about 630 of
    # them, which would be 8.2e11 steps if every period were stepped; the
    # start from rest leaves an offset of the whole current amplitude
    net = series_rl(r=1e-6, l=1.0)
    source = LineSpectrum.tone(1.0, 1.0j, VOLT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig = ode_steady_state(net, source, 10**8, 8192)
    assert sig.t0 == (10**8 - 1) * 8192 * sig.dt
    assert_settled_on_solve(net, source, sig)
    with pytest.warns(TransientWarning, match="drifting"):
        ode_steady_state(net, source, 10, 8192)
    lossless = Netlist((Branch("l", INDUCTOR, 1.0, ("p", "0")),), ("p", "0"))
    with pytest.warns(TransientWarning, match="no resistive branch"):
        sig = ode_steady_state(lossless, source, 10**8, 8192)
    assert np.all(np.isfinite(sig.samples))


def test_drift_warning_reports_the_drift():
    net = series_rl(r=1e-6, l=1.0)
    source = LineSpectrum.tone(1.0, 1.0j, VOLT)
    with pytest.warns(TransientWarning, match="drifting") as caught:
        ode_steady_state(net, source, 10, 256)
    message = str(caught[0].message)
    found = re.search(r"differ by (\S+) of the peak \(DRIFT_RTOL (\S+)\)", message)
    assert found, message
    assert float(found[2]) == oracle.DRIFT_RTOL
    full, _ = ode_transient(net, source, 10, 256)
    last, prev = full.samples[9 * 256:10 * 256], full.samples[8 * 256:9 * 256]
    drift = np.max(np.abs(last - prev)) / np.max(np.abs(last))
    assert float(found[1]) == pytest.approx(drift, rel=1e-2)
    assert drift > oracle.DRIFT_RTOL


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

    def counted(f, t0, h, lo, hi):
        calls.append(hi - lo)
        return sampler(f, t0, h, lo, hi)

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
    p = sol.source.multiply(sol.port_current)
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
