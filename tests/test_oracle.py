"""Independent validators: time stepping, FFT quadrature companion, kernels."""

import math
import warnings

import numpy as np
import pytest

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
from pqbalance.oracle import _factored, _time_domain_matrices
from pqbalance.spectrum import AMPERE, VOLT, ComplexTimePoint, LineSpectrum

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
# block stepping against the per-step recursion


def loop_transient(net, source, periods, steps_per_period):
    """Reference: the BDF2 recursion stepped one sample at a time."""
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
    times = dt * np.arange(n_steps + 1)
    u = source.evaluate(times)
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
        time=float(times[-1]),
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
    with pytest.raises(ValueError):
        QuadratureConfig(half_width=10.0, panels=3)
    with pytest.raises(ValueError):
        QuadratureConfig(half_width=10.0, panels=0)
    with pytest.raises(ValueError):
        QuadratureConfig(half_width=10.0, rule="gauss")


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
