"""Energy/power quantities and the three balance laws they must satisfy."""

import ast
import copy
import inspect
import json
import math
import pickle
import types
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import pqbalance
from pqbalance import cli, network, oracle, power
from pqbalance.network import Branch, CAPACITOR, INDUCTOR, Netlist, RESISTOR, solve
from pqbalance.power import (
    ClassicalSummary,
    ConsistencyError,
    LinePower,
    budeanu,
    classical_summary,
    d_ds_fd_gap,
    d_dt_fd_gap,
    default_s_grid,
    default_t_grid,
    instantaneous,
    q_from_stored_energy,
    scaled,
    scaled_time_means,
    verify_balances,
)
from pqbalance.spectrum import JOULE, VOLT, WATT, LineSpectrum

from conftest import (
    amplitude_at,
    port_power_reference,
    random_netlist,
    random_source,
    reference_product,
    solved_case,
)

ROOT2 = math.sqrt(2.0)


def one_branch(kind, value):
    return Netlist((Branch("b1", kind, value, ("p", "0")),), ("p", "0"))


def series_rl_solution(r=1.0, l=1.0, omega=1.0, amplitude=ROOT2):
    net = Netlist(
        (Branch("r1", RESISTOR, r, ("p", "m")), Branch("l1", INDUCTOR, l, ("m", "0"))),
        ("p", "0"),
    )
    return solve(net, LineSpectrum.tone(omega, amplitude, VOLT))


@pytest.fixture
def flicker_solution(flicker_netlist, flicker_source):
    return solve(flicker_netlist, flicker_source)


# ----------------------------------------------------------------------
# instantaneous waveforms


def test_resistor_dissipation_waveform():
    sol = solve(one_branch(RESISTOR, 10.0), LineSpectrum.tone(1.0, 10.0 * ROOT2, VOLT))
    iset = instantaneous(sol)
    amps = dict(zip(iset.p_dissipated.omegas, iset.p_dissipated.amplitudes))
    assert amps[0.0] == pytest.approx(10.0, rel=1e-13)
    assert amps[2.0] == pytest.approx(10.0, rel=1e-13)
    assert iset.w_magnetic.is_zero and iset.w_electric.is_zero


def test_capacitor_stored_energy_waveform():
    sol = solve(one_branch(CAPACITOR, 1.0), LineSpectrum.tone(1.0, ROOT2, VOLT))
    iset = instantaneous(sol)
    amps = dict(zip(iset.w_electric.omegas, iset.w_electric.amplitudes))
    assert amps[0.0] == pytest.approx(0.5, rel=1e-13)
    assert amps[2.0] == pytest.approx(0.5, rel=1e-13)


def test_zero_source_all_zero(flicker_netlist):
    iset = instantaneous(solve(flicker_netlist, LineSpectrum.zero(VOLT)))
    for waveform in (iset.p, iset.p_dissipated, iset.w_stored, iset.x_reactive):
        assert waveform.is_zero


def test_stored_energy_nonnegative_and_split_exact(rng):
    for _ in range(10):
        sol = solved_case(rng, allow_dc=True)
        iset = instantaneous(sol)
        t = np.linspace(0.0, iset.w_stored.period or 2.0 * math.pi, 400)
        assert np.min(iset.w_magnetic.evaluate(t)) >= -1e-12
        assert np.min(iset.w_electric.evaluate(t)) >= -1e-12
        assert (iset.w_magnetic + iset.w_electric).lines == iset.w_stored.lines
        assert (iset.w_magnetic - iset.w_electric).lines == iset.x_reactive.lines


def test_instantaneous_balance_is_identity(rng):
    for _ in range(10):
        sol = solved_case(rng, allow_dc=True)
        sq = scaled(sol, default_t_grid(sol.source, 101), [0.0])
        scale = max(float(np.max(np.abs(sq._instant["p"]))), 1e-12)
        assert power._balance_report(sol, sq).instantaneous_residual <= 1e-9 * scale


def test_perturbed_dissipation_shows_up_as_residual(flicker_solution):
    t = default_t_grid(flicker_solution.source, 64)
    s = default_s_grid(flicker_solution.source, 4)
    base = power._balance_report(flicker_solution, scaled(flicker_solution, t, s))
    eps = 1e-3
    bumped = scaled(flicker_solution, t, s)
    bumped._instant["p_d"] = bumped._instant["p_d"] + eps
    report = power._balance_report(flicker_solution, bumped)
    assert report.instantaneous_residual == pytest.approx(
        base.instantaneous_residual + eps, rel=1e-6)


def test_resistive_only_storage_free():
    sol = solve(one_branch(RESISTOR, 3.0), LineSpectrum.tone(2.0, 5.0, VOLT))
    iset = instantaneous(sol)
    assert iset.w_stored.is_zero
    t = np.linspace(0.0, 3.0, 64)
    assert np.allclose(iset.p.evaluate(t), iset.p_dissipated.evaluate(t), rtol=1e-13, atol=1e-13)


def rounding_bound(sol, t):
    """Per s = 0 term, how far two routes to it may differ at the times ``t``.

    Let M be a term's sum of |parts| before cancellation: S_u S_i for p,
    sum 2 |c_b| S_b^2 for p_d, w_m and w_e, sum 4 |c_b| S_b S'_b for dw/dt,
    with S_b = sum_k |A_bk| and S'_b = sum_k w_k |A_bk| over the L lines.
    Each rounding below costs at most eps M, to first order.  The kernel
    route sums L lines per row, squares, and sums B branches: 2L + B + 8
    roundings.  The spectra route convolves 2L + 1 two-sided lines, sums B
    branches and evaluates at most N = 2 n_max + 1 product lines (n_max is
    the source's top lattice index): 2L + B + N + 7.  Both round phases
    w t up to Phi = 2 w_max max|t|, which costs eps Phi / 2 each.  So two
    routes differ by at most eps (4L + 2B + N + Phi + 15) M, returned as
    that bound per term name.
    """
    lines = power._LineAmplitudes(sol)
    n_lines, n_branches = lines.omegas.size, len(lines.branch)
    s_b = np.abs(lines.branch).sum(axis=1)
    s_rate = (np.abs(lines.branch) * lines.omegas).sum(axis=1)
    parts = 2.0 * np.abs(lines.c) * s_b ** 2
    magnitude = {
        "p": np.prod(np.abs(lines.port).sum(axis=1)),
        "p_d": parts[~lines.store].sum(),
        "w_m": parts[lines.sigma > 0.0].sum(),
        "w_e": parts[lines.sigma < 0.0].sum(),
        "dw_dt": (4.0 * np.abs(lines.c) * s_b * s_rate)[lines.store].sum(),
    }
    omega_max = sol.source.omega_max or 0.0
    n_prod = 2 * round(omega_max / sol.source.omega0) + 1 if omega_max else 1
    phi = 2.0 * omega_max * np.max(np.abs(t), initial=0.0)
    rate = np.finfo(float).eps * (4 * n_lines + 2 * n_branches + n_prod + phi + 15)
    return {name: rate * m for name, m in magnitude.items()}


def test_kernel_terms_match_the_product_spectra(flicker_solution):
    """The s = 0 kernel route and ``instantaneous`` agree to ``rounding_bound``."""
    rng = np.random.default_rng(16)
    sols = [solved_case(rng, allow_dc=True) for _ in range(300)] + [flicker_solution]
    assert sum(sol.source.omegas[0] == 0.0 for sol in sols) >= 25  # DC lines enter
    for k, sol in enumerate(sols):
        period = sol.source.period or 1.0
        t = rng.uniform(-2.0, 2.0, 40) * period
        sq, iset, bound = scaled(sol, t, [0.0]), instantaneous(sol), rounding_bound(sol, t)
        exact = {"p": iset.p, "p_d": iset.p_dissipated, "w_m": iset.w_magnetic,
                 "w_e": iset.w_electric, "dw_dt": iset.w_stored.derivative()}
        for name, spec in exact.items():
            gap = np.max(np.abs(sq._instant[name] - spec.evaluate(t)))
            assert gap <= bound[name], (k, name, gap / bound[name])


# ----------------------------------------------------------------------
# real/imaginary instantaneous power


def test_resistive_unity_pair():
    # unit-rms voltage across 1 ohm: current in phase at unit rms
    sol = solve(one_branch(RESISTOR, 1.0), LineSpectrum.tone(1.0, ROOT2, VOLT))
    sq = scaled(sol, np.linspace(0.0, 7.0, 41), [0.0])
    assert np.allclose(sq.p[:, 0], 1.0, atol=1e-14)
    assert np.allclose(sq.q[:, 0], 0.0, atol=1e-14)


def test_quadrature_pair():
    # unit-rms voltage across 1 H: the current is a sine, 90 degrees behind
    sol = solve(one_branch(INDUCTOR, 1.0), LineSpectrum.tone(1.0, ROOT2, VOLT))
    assert amplitude_at(sol.port_current, 1.0) == pytest.approx(-ROOT2 * 1.0j, abs=1e-15)
    sq = scaled(sol, np.linspace(0.0, 7.0, 41), [0.0])
    assert np.allclose(sq.p[:, 0], 0.0, atol=1e-14)
    assert np.allclose(sq.q[:, 0], 1.0, atol=1e-14)


def test_flicker_mean_reactive_power(flicker_solution):
    sq = scaled(flicker_solution, default_t_grid(flicker_solution.source), [0.0])
    assert np.mean(sq.q[:, 0]) == pytest.approx(-30.15, rel=1e-12)


# ----------------------------------------------------------------------
# scaled quantities


def test_single_tone_scaled_is_time_free_with_uniform_damping():
    sol = series_rl_solution(omega=2.0)
    t = np.linspace(0.0, 3.0, 9)
    s = np.array([0.0, 0.1, 0.5, 1.0])
    sq = scaled(sol, t, s)
    for arr in (sq.w_magnetic, sq.w_electric, sq.p, sq.q, sq.p_dissipated):
        assert np.max(np.abs(arr - arr[0:1, :])) <= 1e-12 * max(np.max(np.abs(arr)), 1e-30)
        undamped = arr * np.exp(2.0 * 2.0 * s)[None, :]
        assert np.max(np.abs(undamped - undamped[:, 0:1])) <= 1e-10 * max(
            np.max(np.abs(undamped)), 1e-30
        )


def test_quadrature_scaled_values_at_s_zero():
    # unit-rms voltage across 1 H: current lags by 90 degrees at unit rms
    sol = solve(one_branch(INDUCTOR, 1.0), LineSpectrum.tone(1.0, ROOT2, VOLT))
    sq = scaled(sol, np.array([0.0, 0.3, 1.7]), np.array([0.0]))
    assert np.allclose(sq.p[:, 0], 0.0, atol=1e-13)
    assert np.allclose(sq.q[:, 0], 1.0, rtol=1e-13)


def test_flicker_scaled_mean_active_power(flicker_solution):
    t = default_t_grid(flicker_solution.source)
    sq = scaled(flicker_solution, t, np.array([0.0]))
    assert np.mean(sq.p[:, 0]) == pytest.approx(10.05, rel=1e-12)


def test_scaled_matches_port_power_waves_at_s_zero(rng):
    for _ in range(6):
        sol = solved_case(rng, allow_dc=True)
        t = default_t_grid(sol.source, 33)
        p_t, q_t = port_power_reference(sol, t)
        sq = scaled(sol, t, np.array([0.0, 0.7]))
        scale = max(float(np.max(np.abs(sq.p))), float(np.max(np.abs(sq.q))), 1e-12)
        assert np.max(np.abs(sq.p[:, 0] - p_t)) <= 1e-10 * scale
        assert np.max(np.abs(sq.q[:, 0] - q_t)) <= 1e-10 * scale


def test_scaled_pointwise_identities(rng):
    sol = solved_case(rng, allow_dc=True)
    sq = scaled(sol, default_t_grid(sol.source, 21), default_s_grid(sol.source, 11))
    assert np.min(sq.w_magnetic) >= 0.0
    assert np.min(sq.w_electric) >= 0.0
    assert np.min(sq.p_dissipated) >= 0.0
    assert np.array_equal(sq.w_stored, sq.w_magnetic + sq.w_electric)
    assert np.array_equal(sq.x_reactive, sq.w_magnetic - sq.w_electric)


def test_scaled_leaves_the_callers_grids_writable(flicker_solution):
    t = np.linspace(0.0, 6.0, 8)
    s = np.linspace(0.0, 1.0, 3)
    sq = scaled(flicker_solution, t, s)
    verify_balances(flicker_solution, t, s)
    assert t.flags.writeable and s.flags.writeable
    assert not sq.t.flags.writeable and not sq.s.flags.writeable


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
                         ids=["deepcopy", "pickle"])
def test_scaled_copies_keep_their_grids_read_only(flicker_solution, duplicate):
    sq = scaled(flicker_solution, np.linspace(0.0, 6.0, 8), [0.0, 0.5])
    sq._instant  # a cached evaluation travels with the copy
    twin = duplicate(sq)
    for name in SCALED_FIELDS:
        assert np.array_equal(getattr(twin, name), getattr(sq, name))
    for name in ("t", "s"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(twin, name)[0] = 99.0


def test_scaled_quantities_compare_by_identity(flicker_solution):
    # array fields: a field-wise == would raise on the truth value of an array
    a = scaled(flicker_solution, [0.0, 1.0], [0.0])
    b = scaled(flicker_solution, [0.0, 1.0], [0.0])
    assert (a == b) is False
    assert a == a
    assert hash(a) == hash(a) and hash(a) != hash(b)


# ----------------------------------------------------------------------
# balance laws on the scale axis


def test_balances_tiny_on_random_cases(rng):
    for _ in range(8):
        sol = solved_case(rng, allow_dc=True)
        sq = scaled(sol, default_t_grid(sol.source, 21), default_s_grid(sol.source, 10))
        scale = max(
            float(np.max(np.abs(sq.p))),
            float(np.max(np.abs(sq.q))),
            float(np.max(np.abs(sq.p_dissipated))),
            1e-12,
        )
        report = power._balance_report(sol, sq)
        assert report.active_residual <= 1e-9 * scale
        assert report.reactive_residual <= 1e-9 * scale


def test_sinusoid_active_terms_cancel_at_every_s():
    sol = series_rl_solution(omega=3.0)
    sq = scaled(sol, np.linspace(0.0, 2.0, 7), np.array([0.0, 0.2, 1.0]))
    assert np.max(np.abs(sq.p - sq.p_dissipated)) <= 1e-12 * np.max(sq.p)


def test_sinusoid_reactive_term_is_scaled_classical_value():
    omega, amplitude = 2.0, 3.0 * ROOT2
    sol = series_rl_solution(omega=omega, amplitude=amplitude)
    t = np.linspace(0.0, 2.0, 7)
    s = np.array([0.0, 0.1, 0.4, 1.3])
    sq = scaled(sol, t, s)
    # -dX/ds = 2*omega*X for one tone, and Q*e^{2 omega s} is grid-constant
    assert np.max(np.abs(sq.q - 2.0 * omega * sq.x_reactive)) <= 1e-12 * np.max(np.abs(sq.q))
    undamped = sq.q * np.exp(2.0 * omega * s)[None, :]
    q_classical = classical_summary(sol).q_budeanu
    assert np.max(np.abs(undamped - q_classical)) <= 1e-10 * abs(q_classical)


def test_fd_cross_checks_shrink_quadratically(flicker_solution):
    sq = scaled(flicker_solution, np.linspace(0.0, 5.0, 11), np.array([0.0, 0.3, 0.9]))
    h = 0.05
    gap_t = [d_dt_fd_gap(sq, h), d_dt_fd_gap(sq, h / 2.0)]
    gap_s = [d_ds_fd_gap(sq, h), d_ds_fd_gap(sq, h / 2.0)]
    assert 3.0 < gap_t[0] / gap_t[1] < 5.0
    assert 3.0 < gap_s[0] / gap_s[1] < 5.0


def test_reactive_energy_decays_on_scale_axis(rng):
    for _ in range(6):
        sol = solved_case(rng, allow_dc=False)
        w_min = sol.source.omega_min
        t = default_t_grid(sol.source, 17)
        s_val = 3.0 / w_min
        sq = scaled(sol, t, np.array([0.0, s_val]))
        x0 = float(np.max(np.abs(sq.x_reactive[:, 0])))
        xs = float(np.max(np.abs(sq.x_reactive[:, 1])))
        assert xs <= math.exp(-2.0 * w_min * s_val) * x0 * (1.0 + 1e-9) + 1e-250


def test_scaled_time_means_track_budeanu(flicker_solution):
    s = np.array([0.0, 0.5, 2.0])
    mean_x, mean_q = scaled_time_means(flicker_solution, s)
    assert mean_q[0] == pytest.approx(budeanu(flicker_solution), rel=1e-12)
    assert abs(mean_x[2]) < abs(mean_x[0])


def test_verify_balances_report(flicker_solution):
    report = verify_balances(flicker_solution)
    assert report.instantaneous_relative < 1e-12
    assert report.active_relative < 1e-12
    assert report.reactive_relative < 1e-12
    assert report.d_dt_fd_gap < 1e-6 * report.active_scale
    assert report.d_ds_fd_gap < 1e-6 * report.reactive_scale
    assert report.n_t == 256 and report.n_s == 33
    d = report.to_dict()
    assert d["active"]["relative"] == report.active_relative
    assert d["grid"]["n_t"] == 256
    # the fd steps follow the top line: a step of 1e-4 of the common period
    # aliased at 1e6 rad/s, and 1e-4 of the top scale drifted at 30 rad/s
    for lines in ([(1.0, 1.0), (1e6, 0.5)], [(1.0, 1.0), (1e3, 0.5), (1e6, 0.25)],
                  [(1.0, 1.0), (30.0, 0.5)]):
        report = verify_balances(solve(rlc_net(), LineSpectrum.from_lines(lines, VOLT)))
        assert report.d_dt_fd_gap < 1e-6 * report.active_scale, lines
        assert report.d_ds_fd_gap < 1e-6 * report.reactive_scale, lines


# ----------------------------------------------------------------------
# DC lines on the (t, s) grid: the DC line keeps its full weight


def rlc_net():
    """2 ohm + 0.5 H in series, 0.25 F across the port."""
    return Netlist(
        (
            Branch("r1", RESISTOR, 2.0, ("p", "m")),
            Branch("l1", INDUCTOR, 0.5, ("m", "0")),
            Branch("c1", CAPACITOR, 0.25, ("p", "0")),
        ),
        ("p", "0"),
    )


def test_zero_source_on_the_scaled_grid():
    sol = solve(rlc_net(), LineSpectrum.zero(VOLT))
    s = np.array([0.0, 0.5, 3.0])
    sq = scaled(sol, np.linspace(0.0, 2.0, 5), s)
    for arr in (sq.w_magnetic, sq.w_electric, sq.x_reactive, sq.p, sq.q, sq.p_dissipated):
        assert arr.shape == (5, 3) and not np.any(arr)
    report = power._balance_report(sol, sq)
    assert report.active_residual == 0.0 and report.reactive_residual == 0.0
    report = verify_balances(sol)
    assert report.instantaneous_residual == 0.0
    assert report.active_residual == 0.0 and report.reactive_residual == 0.0
    assert report.d_dt_fd_gap == 0.0 and report.d_ds_fd_gap == 0.0
    mean_x, mean_q = scaled_time_means(sol, s)
    assert not np.any(mean_x) and not np.any(mean_q)


def test_dc_only_source_on_the_scaled_grid():
    sol = solve(rlc_net(), LineSpectrum.dc(3.0, VOLT))
    i0 = sol.per_line[0].current["l1"].real
    assert i0 == pytest.approx(1.5, rel=1e-15)
    s = np.array([0.0, 0.1, 10.0])
    sq = scaled(sol, np.linspace(0.0, 5.0, 7), s)
    assert np.all(sq.w_magnetic == 0.25 * 0.5 * i0**2)
    assert np.all(sq.w_electric == 0.25 * 0.25 * 3.0**2)
    assert np.allclose(sq.p, 0.5 * 3.0 * i0, rtol=1e-15, atol=0.0)
    assert not np.any(sq.q)
    mean_x, mean_q = scaled_time_means(sol, s)
    assert np.all(mean_x == mean_x[0])
    assert mean_x[0] == pytest.approx(0.25 * 0.5 * i0**2 - 0.25 * 0.25 * 9.0, rel=1e-15)
    assert not np.any(mean_q)
    report = verify_balances(sol)
    assert report.instantaneous_residual == 0.0
    assert report.active_residual == 0.0 and report.reactive_residual == 0.0
    assert report.d_dt_fd_gap == 0.0 and report.d_ds_fd_gap == 0.0


def test_dc_plus_tone_on_the_scaled_grid():
    omega = 2.0
    sol = solve(rlc_net(), LineSpectrum.from_lines([(0.0, 3.0), (omega, 1.5 - 0.5j)], VOLT))
    dc_only = solve(rlc_net(), LineSpectrum.dc(3.0, VOLT))
    report = verify_balances(sol)
    assert report.instantaneous_relative < 1e-14
    assert report.active_relative < 1e-14 and report.reactive_relative < 1e-14
    # far along the scale axis only the undamped DC line is left
    t = np.linspace(0.0, 3.0, 7)
    far, still = scaled(sol, t, np.array([200.0])), scaled(dc_only, t, np.array([200.0]))
    for name in ("w_magnetic", "w_electric", "p", "q", "p_dissipated"):
        assert np.allclose(getattr(far, name), getattr(still, name), rtol=1e-14, atol=1e-150)
    s = np.array([0.0, 0.3, 200.0])
    mean_x, mean_q = scaled_time_means(sol, s)
    mean_x_dc, _ = scaled_time_means(dc_only, s)
    assert mean_q[0] == pytest.approx(budeanu(sol), rel=1e-13)
    assert mean_x[2] == pytest.approx(mean_x_dc[2], rel=1e-14)
    # one tone: mean X = X_dc + X_1 e^{-2 omega s}, so -dX/ds = 2 omega X_1 e^{-2 omega s}
    x_tone = mean_x[:2] - mean_x_dc[:2]
    assert mean_q[:2] == pytest.approx(2.0 * omega * x_tone, rel=1e-12)


# ----------------------------------------------------------------------
# the (t, s) grid goes through spectrum's kernel


SCALED_FIELDS = ("t", "s", "w_magnetic", "w_electric", "w_stored", "x_reactive",
                 "p", "q", "p_dissipated", "_dw_dt", "_dx_ds")


def grid_table_formulas(sol, t, s, h_t, h_s):
    """Scaled fields and fd gaps from tables exp(j w t) and exp(-w s) built once.

    Amplitude rows A give ``rot @ (A[:, :, None] * damp)``, as power.py's
    own grid kernel computed them before ``scaled`` evaluated through
    ``spectrum._analytic``.  A shift in t by +h or -h scales line k by
    e^{+-j w_k h}; a shift in s evaluates at the scales s + h and s - h.
    """
    lines = power._LineAmplitudes(sol)
    store = lines.sigma != 0.0
    rot = np.exp(1j * np.multiply.outer(t, lines.omegas))
    damp = np.exp(-np.multiply.outer(lines.omegas, s))

    def analytic(amps, factor=1.0):
        return rot @ ((amps * factor)[:, :, None] * damp)

    def stored(weights, factor):
        a = analytic(lines.branch[store], factor)
        return (weights[store, None, None] * np.abs(a) ** 2).sum(axis=0)

    a = analytic(lines.branch)
    energy = lines.c[:, None, None] * np.abs(a) ** 2
    w_m = energy[lines.sigma > 0.0].sum(axis=0)
    w_e = energy[lines.sigma < 0.0].sum(axis=0)
    a_dot = analytic(lines.branch[store], 1j * lines.omegas)
    rate = lines.c[store, None, None] * a_dot * np.conj(a[store])
    u_a, i_a = analytic(lines.port)
    s_complex = 0.5 * u_a * np.conj(i_a)
    fields = dict(
        t=t, s=s, w_magnetic=w_m, w_electric=w_e, w_stored=w_m + w_e,
        x_reactive=w_m - w_e, p=s_complex.real, q=s_complex.imag,
        p_dissipated=energy[~store].sum(axis=0),
        _dw_dt=2.0 * rate.real.sum(axis=0),
        _dx_ds=-2.0 * (lines.sigma[store, None, None] * rate.imag).sum(axis=0),
    )
    shift = np.exp(1j * lines.omegas * h_t)
    fd_t = (stored(lines.c, shift) - stored(lines.c, shift.conjugate())) / (2.0 * h_t)
    # the stored rows at s + h and s - h, in one table of scales
    keep = s >= h_s
    shifted = np.concatenate((s[keep] + h_s, s[keep] - h_s))
    a = rot @ (lines.branch[store][:, :, None] * np.exp(-np.multiply.outer(lines.omegas, shifted)))
    x_c = (lines.sigma * lines.c)[store, None, None]
    fwd, bwd = np.split(a, 2, axis=-1)
    fd_s = ((x_c * np.abs(fwd) ** 2).sum(axis=0)
            - (x_c * np.abs(bwd) ** 2).sum(axis=0)) / (2.0 * h_s)
    gap_t = float(np.max(np.abs(fd_t - fields["_dw_dt"]), initial=0.0))
    gap_s = float(np.max(np.abs(fd_s - fields["_dx_ds"][:, keep]), initial=0.0))
    return fields, gap_t, gap_s


def test_scaled_matches_the_parent_grid_formulas_bit_for_bit():
    rng = np.random.default_rng(4242)
    sols = [solved_case(rng, allow_dc=True) for _ in range(40)]
    assert sum(sol.source.omegas[0] == 0.0 for sol in sols) >= 5
    sols += [
        solve(rlc_net(), LineSpectrum.zero(VOLT)),
        solve(rlc_net(), LineSpectrum.dc(3.0, VOLT)),
        solve(rlc_net(), LineSpectrum.from_lines([(0.0, 3.0), (2.0, 1.5 - 0.5j)], VOLT)),
        solve(one_branch(RESISTOR, 3.0), LineSpectrum.from_lines([(0.0, -1.0), (2.0, 5.0)], VOLT)),
    ]
    for k, sol in enumerate(sols):
        period = sol.source.period or 1.0
        t = np.array([]) if k % 7 == 3 else rng.uniform(-2.0, 2.0, 13) * period
        s = default_s_grid(sol.source, 6)
        sq = scaled(sol, t, s)
        for h_t, h_s in ((1e-4 * period, 1e-4 * s[-1]), (0.3 * period, s[3])):
            want, gap_t, gap_s = grid_table_formulas(sol, t, s, h_t, h_s)
            for name in SCALED_FIELDS:
                got = getattr(sq, name)
                assert got.shape == want[name].shape and np.array_equal(got, want[name]), (k, name)
            assert d_dt_fd_gap(sq, h_t) == gap_t, k
            assert d_ds_fd_gap(sq, h_s) == gap_s, k


def test_power_at_zero_scale_is_scaled_at_zero_bit_for_bit():
    rng = np.random.default_rng(8128)
    sols = [solved_case(rng, allow_dc=True) for _ in range(30)]
    sols += [solved_case(rng, max_lines=12, allow_dc=True) for _ in range(10)]
    sols.append(solve(rlc_net(), LineSpectrum.zero(VOLT)))
    for k, sol in enumerate(sols):
        period = sol.source.period or 1.0
        t = rng.uniform(-2.0, 2.0, 1 + k % 40) * period
        want = scaled(sol, t, [0.0])
        instant = scaled(sol, t, default_s_grid(sol.source, 5))._instant
        p_t, q_t = instant["P_t"], instant["Q_t"]
        assert p_t.tobytes() == want.p[:, 0].tobytes(), k
        assert q_t.tobytes() == want.q[:, 0].tobytes(), k


def test_scaled_and_its_checks_make_one_kernel_call_each(flicker_solution, kernel_calls):
    t, s = np.linspace(0.0, 6.0, 8), np.array([0.0, 0.5, 1.0])
    sq = scaled(flicker_solution, t, s)
    # port u and i, then r1 and c1, then the rate of c1
    assert kernel_calls == [(5, 8, 3)]
    del kernel_calls[:]
    d_dt_fd_gap(sq, 0.01)
    d_ds_fd_gap(sq, 0.6)
    # c1 shifted forward and backward in t; c1 at s + h and s - h for the points s >= h
    assert kernel_calls == [(2, 8, 3), (1, 8, 2)]
    del kernel_calls[:]
    # scaled, the same rows at s = 0 for the instantaneous law, the two gaps
    verify_balances(flicker_solution, t, s)
    assert len(kernel_calls) == 4


def test_fd_gaps_stay_finite_across_a_wide_line_spread():
    # lines at 1 and 1e6 rad/s: the default s-step h = 1e-3 gave e^{w h} = inf
    # at the top line, and inf * 0 made d_ds_fd_gap NaN
    sol = solve(rlc_net(), LineSpectrum.from_lines([(1.0, 1.0), (1e6, 0.5)], VOLT))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_balances(sol)
    assert math.isfinite(report.d_ds_fd_gap) and math.isfinite(report.d_dt_fd_gap)
    assert report.d_ds_fd_gap <= 1e-4 * report.reactive_scale


# every entry point to the (t, s) grid, called with one scale value s
GRID_ENTRY_POINTS = {
    "analytic_at": lambda sol, t, s: sol.source.analytic_at(t, s),
    "analytic_grid": lambda sol, t, s: sol.source.analytic_grid(t, [0.0, s]),
    "scaled": lambda sol, t, s: scaled(sol, t, [0.0, s]),
    "scaled_time_means": lambda sol, t, s: scaled_time_means(sol, [s, 0.0]),
    "verify_balances": lambda sol, t, s: verify_balances(sol, t, [0.5, s]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("entry", GRID_ENTRY_POINTS)
def test_grid_entry_points_reject_a_bad_scale(entry, bad):
    # a DC line meets s = inf as 0 * inf unless the scale is checked first
    sol = solve(rlc_net(), LineSpectrum.from_lines([(0.0, 3.0), (2.0, 1.5 - 0.5j)], VOLT))
    with pytest.raises(ValueError, match=r"s must be finite and >= 0, got -?(nan|inf|1\.0)"):
        GRID_ENTRY_POINTS[entry](sol, np.linspace(0.0, 1.0, 4), bad)


# every entry point that takes times, called on a time array and one scale value s
TIME_ENTRY_POINTS = {
    **GRID_ENTRY_POINTS,
    "evaluate": lambda sol, t, s: sol.source.evaluate(t),
    # the window of sample starts at the bad time; its own message names t0
    "sample": lambda sol, t, s: sol.source.sample(t[1], s, 3),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", ["analytic_grid", "scaled", "verify_balances", "analytic_at",
                                   "evaluate", "sample"])
def test_time_grid_entry_points_reject_a_non_finite_time(entry, bad):
    # unchecked, a non-finite time gave NaN everywhere on its row
    sol = solve(rlc_net(), LineSpectrum.from_lines([(0.0, 3.0), (2.0, 1.5 - 0.5j)], VOLT))
    with pytest.raises(ValueError, match=r"t0? must be finite, got -?(nan|inf)"):
        TIME_ENTRY_POINTS[entry](sol, np.array([0.0, bad, 1.0]), 0.25)
    with pytest.raises(ValueError, match=r"t must be finite, got -?(nan|inf)"):
        verify_balances(sol, [0.0, bad], [0.0])


def test_grid_entry_points_flatten_the_grids(flicker_solution):
    sol = flicker_solution
    t2 = np.linspace(0.0, 5.0, 6).reshape(2, 3)
    sq = scaled(sol, t2, 0.5)
    flat = scaled(sol, t2.ravel(), [0.5])
    assert sq.t.shape == (6,) and sq.s.shape == (1,)
    for name in SCALED_FIELDS:
        assert getattr(sq, name).shape == getattr(flat, name).shape
        assert np.array_equal(getattr(sq, name), getattr(flat, name))
    assert sq.p.shape == (6, 1)
    report = verify_balances(sol, t2, [[0.0, 0.5]])
    assert report == verify_balances(sol, t2.ravel(), [0.0, 0.5])
    assert (report.n_t, report.n_s) == (6, 2)
    mean_x, mean_q = scaled_time_means(sol, 0.5)
    assert mean_x.shape == mean_q.shape == (1,)
    assert sol.source.analytic_grid(t2, 0.5).shape == (6, 1)


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_fd_gaps_reject_a_bad_step(flicker_solution, h):
    sq = scaled(flicker_solution, np.linspace(0.0, 5.0, 11), np.array([0.0, 0.3, 0.9]))
    for gap in (d_dt_fd_gap, d_ds_fd_gap):
        with pytest.raises(ValueError, match="h must be finite and > 0"):
            gap(sq, h)


# ----------------------------------------------------------------------
# classical summary / Budeanu


def test_classical_summary_series_rl():
    cs = classical_summary(series_rl_solution())
    assert cs.p_mean == pytest.approx(0.5, rel=1e-13)
    assert cs.q_budeanu == pytest.approx(0.5, rel=1e-13)
    assert cs.s_apparent == pytest.approx(math.sqrt(0.5), rel=1e-13)
    assert cs.u_rms == pytest.approx(1.0, rel=1e-13)


def test_classical_summary_capacitor_only():
    sol = solve(one_branch(CAPACITOR, 0.3), LineSpectrum.tone(1.0, 10.0 * ROOT2, VOLT))
    cs = classical_summary(sol)
    assert cs.q_budeanu == pytest.approx(-30.0, rel=1e-13)
    assert cs.p_mean == pytest.approx(0.0, abs=1e-12)


def test_classical_summary_flicker(flicker_solution):
    cs = classical_summary(flicker_solution)
    assert cs.p_mean == pytest.approx(10.05, rel=1e-12)
    assert cs.q_budeanu == pytest.approx(-30.15, rel=1e-12)
    assert len(cs.lines) == 3


def test_apparent_power_dominates(rng):
    for _ in range(10):
        cs = classical_summary(solved_case(rng, allow_dc=True))
        assert cs.s_apparent**2 >= cs.p_mean**2 + cs.q_budeanu**2 - 1e-9 * cs.s_apparent**2


def test_budeanu_pure_sinusoid_is_classical():
    phi = 0.7
    # current 1 A rms lagging the 5 V rms source by phi
    omega = 2.0
    # a series R-L of impedance 5 e^{j phi} ohm draws that current
    sol = series_rl_solution(5.0 * math.cos(phi), 5.0 * math.sin(phi) / omega, omega,
                             5.0 * ROOT2)
    assert amplitude_at(sol.port_current, omega) == pytest.approx(
        ROOT2 * np.exp(-1j * phi), rel=1e-15)
    sq = scaled(sol, default_t_grid(sol.source), [0.0])
    assert np.mean(sq.q[:, 0]) == pytest.approx(5.0 * math.sin(phi), rel=1e-13)


def test_budeanu_resistive_is_zero():
    sol = solve(one_branch(RESISTOR, 2.0), LineSpectrum.tone(1.0, 3.0, VOLT))
    assert budeanu(sol) == pytest.approx(0.0, abs=1e-13)


def test_budeanu_flicker(flicker_solution):
    assert budeanu(flicker_solution) == pytest.approx(-30.15, rel=1e-12)


def test_budeanu_dual_routes_agree_on_random_cases(rng):
    for _ in range(10):
        sol = solved_case(rng, allow_dc=True)
        budeanu(sol)  # raises ConsistencyError if the two routes disagree


def test_budeanu_cross_check_catches_a_perturbed_route(rng, flicker_solution, monkeypatch):
    # The tolerance floor is 1e-12 of the apparent power, so a 1e-6 relative
    # error stands out only where |Q| is well above 1e-6 of it.
    sols = [flicker_solution]
    while len(sols) < 6:
        sol = solved_case(rng, allow_dc=True)
        summary = classical_summary(sol)
        if abs(summary.q_budeanu) > 1e-4 * summary.s_apparent:
            sols.append(sol)
    for sol in sols:
        budeanu(sol)
    stored = power._LineAmplitudes.stored_energy_q
    monkeypatch.setattr(power._LineAmplitudes, "stored_energy_q",
                        lambda lines: stored(lines) * (1.0 + 1e-6))
    for sol in sols:
        with pytest.raises(ConsistencyError, match="Budeanu routes disagree"):
            budeanu(sol)


def test_mean_port_power_equals_mean_dissipation(rng):
    for _ in range(10):
        sol = solved_case(rng, allow_dc=True, require_resistor=True)
        iset = instantaneous(sol)
        scale = max(abs(iset.p_dissipated.mean()), 1e-9)
        assert abs(iset.p.mean() - iset.p_dissipated.mean()) <= 1e-9 * scale


# ----------------------------------------------------------------------
# sinusoidal stored-energy route to Q


def test_q_from_stored_energy_inductor():
    sol = solve(one_branch(INDUCTOR, 1.0), LineSpectrum.tone(1.0, ROOT2, VOLT))
    assert q_from_stored_energy(sol, 1.0) == pytest.approx(1.0, rel=1e-13)


def test_q_from_stored_energy_capacitor():
    sol = solve(one_branch(CAPACITOR, 1.0), LineSpectrum.tone(1.0, ROOT2, VOLT))
    assert q_from_stored_energy(sol, 1.0) == pytest.approx(-1.0, rel=1e-13)


def test_q_from_stored_energy_resonance():
    net = Netlist(
        (
            Branch("l1", INDUCTOR, 1.0, ("p", "0")),
            Branch("c1", CAPACITOR, 1.0, ("p", "0")),
        ),
        ("p", "0"),
    )
    sol = solve(net, LineSpectrum.tone(1.0, ROOT2, VOLT))
    assert q_from_stored_energy(sol, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_q_from_stored_energy_rejects_multitone(flicker_solution):
    with pytest.raises(ValueError):
        q_from_stored_energy(flicker_solution, 1.0)


def test_q_routes_cross_check_on_random_single_tones(rng):
    for _ in range(10):
        omega = float(rng.uniform(0.2, 8.0))
        amp = float(rng.uniform(0.5, 20.0)) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        sol = solved_case(rng, source=LineSpectrum.from_lines([(omega, amp)], VOLT))
        q1 = q_from_stored_energy(sol, omega)
        q2 = classical_summary(sol).q_budeanu
        assert q1 == pytest.approx(q2, rel=1e-10, abs=1e-10)


# ----------------------------------------------------------------------
# the per-line table: one reader of the phasor stack, one statement of the rules


def parent_line_formulas(sol):
    """Summary, stored-energy q per line and the six instantaneous spectra.

    Written as power.py computed them before every per-line value came from
    ``_LineAmplitudes``: a loop over ``per_line`` in Python complex
    arithmetic, and an if/elif chain over the branch kinds.  The spectra
    are sums of ``conftest.reference_product`` over the branch spectra.
    """
    entries, p_total, q_total = [], 0.0, 0.0
    for ph in sol.per_line:
        if ph.omega == 0.0:
            p_k = ph.port_voltage.real * ph.port_current.real
            q_k = 0.0
            u_rms = abs(ph.port_voltage)
            i_rms = abs(ph.port_current)
        else:
            s_k = 0.5 * ph.port_voltage * ph.port_current.conjugate()
            p_k, q_k = s_k.real, s_k.imag
            u_rms = abs(ph.port_voltage) / math.sqrt(2.0)
            i_rms = abs(ph.port_current) / math.sqrt(2.0)
        entries.append(LinePower(ph.omega, u_rms, i_rms, p_k, q_k))
        p_total += p_k
        q_total += q_k
    summary = ClassicalSummary(tuple(entries), p_total, q_total,
                               sol.source.rms() * sol.port_current.rms(),
                               sol.source.rms(), sol.port_current.rms())
    doc = {
        "lines": [{"omega": ln.omega, "u_rms": ln.u_rms, "i_rms": ln.i_rms,
                   "p": ln.p, "q": ln.q} for ln in entries],
        "p_mean": p_total, "q_budeanu": q_total, "s_apparent": summary.s_apparent,
        "u_rms": summary.u_rms, "i_rms": summary.i_rms,
    }

    branches, per_line = sol.netlist.branches, sol.per_line
    weight = {INDUCTOR: 0.25, CAPACITOR: 0.25, RESISTOR: 0.5}
    sign = {INDUCTOR: 1.0, CAPACITOR: -1.0, RESISTOR: 0.0}
    rows = np.array(
        [[(ph.voltage if b.kind == CAPACITOR else ph.current)[b.id] for ph in per_line]
         for b in branches], dtype=complex,
    ).reshape(len(branches), len(per_line))
    c = np.array([weight[b.kind] * b.value for b in branches], dtype=float)
    sigma = np.array([sign[b.kind] for b in branches], dtype=float)
    omegas = np.array([ph.omega for ph in per_line], dtype=float)
    q_stored = 2.0 * omegas * ((sigma * c) @ (np.abs(rows) ** 2))

    # each kind's factors: every branch's signal scaled by its weight, and its signal
    terms = {RESISTOR: ([], []), INDUCTOR: ([], []), CAPACITOR: ([], [])}
    for b in branches:
        if b.kind == RESISTOR:
            a_b, weight_b = sol.branch_current[b.id], b.value
        elif b.kind == INDUCTOR:
            a_b, weight_b = sol.branch_current[b.id], 0.5 * b.value
        else:
            a_b, weight_b = sol.branch_voltage[b.id], 0.5 * b.value
        terms[b.kind][0].append(a_b.scale(weight_b))
        terms[b.kind][1].append(a_b)
    (l_scaled, l_sig), (c_scaled, c_sig) = terms[INDUCTOR], terms[CAPACITOR]
    spectra = dict(
        p=reference_product(sol.source, sol.port_current, WATT),
        p_dissipated=reference_product(*terms[RESISTOR], WATT),
        w_magnetic=reference_product(l_scaled, l_sig, JOULE),
        w_electric=reference_product(c_scaled, c_sig, JOULE),
        w_stored=reference_product(l_scaled + c_scaled, l_sig + c_sig, JOULE),
        x_reactive=reference_product(l_scaled + [-u for u in c_scaled], l_sig + c_sig, JOULE),
    )
    return summary, doc, q_stored, spectra


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_per_line_table_matches_the_parent_formulas_bit_for_bit():
    rng = np.random.default_rng(9090)
    sols = [solved_case(rng, allow_dc=True) for _ in range(300)]
    assert sum(sol.source.omegas[0] == 0.0 for sol in sols) >= 40
    tones = [solved_case(rng, source=LineSpectrum.tone(float(rng.uniform(0.2, 8.0)),
                                                       complex(*rng.normal(size=2)), VOLT))
             for _ in range(30)]
    multi = LineSpectrum.from_lines([(0.0, -1.0), (2.0, 5.0), (6.0, 1.0 - 2.0j)], VOLT)
    sols += tones + [
        solve(rlc_net(), LineSpectrum.zero(VOLT)),
        solve(rlc_net(), LineSpectrum.dc(3.0, VOLT)),
        solve(one_branch(RESISTOR, 3.0), multi),
        solve(one_branch(CAPACITOR, 0.3), multi),
        solve(one_branch(CAPACITOR, 0.3), LineSpectrum.tone(1.5, 2.0 - 1.0j, VOLT)),
    ]
    single = 0
    for k, sol in enumerate(sols):
        want, doc, q_stored, spectra = parent_line_formulas(sol)
        got = classical_summary(sol)
        assert repr(got) == repr(want), k  # every field, its type and its bits
        assert all(same_bits(getattr(got, f), getattr(want, f))
                   for f in ("p_mean", "q_budeanu", "s_apparent", "u_rms", "i_rms")), k
        for mine, theirs in zip(got.lines, want.lines):
            assert all(same_bits(x, y) for x, y in zip(astuple(mine), astuple(theirs))), k
        assert got.to_dict() == doc
        assert json.dumps(got.to_dict(), indent=2) == json.dumps(doc, indent=2), k
        assert same_bits(budeanu(sol), want.q_budeanu), k
        assert same_bits(power._LineAmplitudes(sol).stored_energy_q(), q_stored), k
        omegas = sol.source.omegas
        if omegas.size == 1 and omegas[0] > 0.0:
            single += 1
            assert same_bits(q_from_stored_energy(sol, omegas[0]), q_stored[0]), k
        # the spectra agree on their lattice and, to rounding, in value; a
        # round-off line may survive in one and cancel exactly in the other
        iset = instantaneous(sol)
        t = rng.uniform(-2.0, 2.0, 20) * (sol.source.period or 1.0)
        bound = rounding_bound(sol, t)
        bound.update(w_s=bound["w_m"] + bound["w_e"], x=bound["w_m"] + bound["w_e"])
        for name, term in zip(spectra, ("p", "p_d", "w_m", "w_e", "w_s", "x")):
            mine, theirs = getattr(iset, name), spectra[name]
            assert mine.unit == theirs.unit and mine.omega0 == theirs.omega0, (k, name)
            gap = np.max(np.abs(mine.evaluate(t) - theirs.evaluate(t)))
            assert gap <= bound[term], (k, name, gap / bound[term])
    assert single >= 30


def test_mean_q_stays_within_rounding_of_the_complex_product(rng):
    # Per line, either form of 1/2 Im(U conj I) is within eps * 1/2|U||I| of
    # the exact value, so the two differ by at most twice that.  The sum over
    # L lines rounds each side once more, by at most (L/2) eps of its terms.
    eps = np.finfo(float).eps
    for _ in range(100):
        sol = solved_case(rng, allow_dc=True)
        lines = power._LineAmplitudes(sol)
        u, i = lines.port
        s = default_s_grid(sol.source, 12)
        decay = np.exp(-2.0 * np.multiply.outer(lines.omegas, s))
        half = 0.5 * np.abs(u) * np.abs(i)
        _, mean_q = scaled_time_means(sol, s)
        assert np.all(np.abs(mean_q - (0.5 * u * np.conj(i)).imag @ decay)
                      <= (2 + u.size) * eps * (half @ decay))


def test_budeanu_routes_read_one_table(line_tables):
    sol = solve(rlc_net(), LineSpectrum.tone(1.5, 2.0 - 1.0j, VOLT))
    budeanu(sol)
    assert line_tables == [sol]  # classical_summary's, which the stored-energy route reads too
    line_tables.clear()
    q_from_stored_energy(sol, 1.5)
    assert line_tables == [sol]


def test_the_phasor_stack_has_one_reader():
    """power.py reads no ``per_line``, and of the package only
    ``power._LineAmplitudes`` reads the solution's stack, which
    ``NetworkSolution`` only restores on copy."""
    def reads(tree, attr):
        # an attribute, or a string as getattr would take it
        return [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == attr
                or isinstance(node, ast.Constant) and node.value == attr]

    def inside(tree, name):
        cls = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == name)
        return {id(node) for node in ast.walk(cls)}

    trees = {mod: ast.parse(inspect.getsource(mod))
             for mod in (pqbalance, cli, network, oracle, power, pqbalance.spectrum)}
    assert reads(trees[power], "per_line") == []
    owners = {power: "_LineAmplitudes", network: "NetworkSolution"}
    table = inside(trees[power], "_LineAmplitudes")
    assert any(id(node) in table for node in reads(trees[power], "_phasors"))
    for mod, tree in trees.items():
        allowed = inside(tree, owners[mod]) if mod in owners else set()
        assert all(id(node) in allowed for node in reads(tree, "_phasors")), mod.__name__


def test_all_lists_exactly_the_public_names():
    # a removed name cannot stay listed, nor a new one go unlisted
    bound = {name for name, value in vars(pqbalance).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(pqbalance.__all__) == sorted(bound)
    assert len(set(pqbalance.__all__)) == len(pqbalance.__all__)


def test_only_instantaneous_forms_product_spectra():
    """No module of the package calls a ``multiply`` method, ``LineSpectrum``
    has none and refuses ``*`` between two spectra, ``power.instantaneous``
    reads no branch spectrum, and neither ``power`` nor ``cli`` forms a
    Hilbert transform: the kernel is the one route to P and Q at s = 0."""
    def callers(tree, method):
        # the dotted name of the enclosing definition, once per call of .method()
        found = []

        def visit(node, scope):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == method
                    and not (isinstance(node.func.value, ast.Name) and node.func.value.id == "np")):
                found.append(".".join(scope))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = (*scope, node.name)
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, ())
        return found

    package = Path(pqbalance.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {"cli", "power", "spectrum"} <= set(trees)
    assert {name: callers(tree, "multiply") for name, tree in trees.items()} == {
        name: [] for name in trees}
    assert not hasattr(LineSpectrum, "multiply")
    with pytest.raises(TypeError):
        LineSpectrum.tone(1.0) * LineSpectrum.tone(1.0)
    # an attribute, or a string as getattr would take it, such as "branch_" + kind
    body = ast.walk(ast.parse(inspect.getsource(instantaneous)))
    read = [node.attr if isinstance(node, ast.Attribute) else node.value for node in body
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert not [name for name in read if name.startswith("branch_")]
    for name in ("cli", "power"):
        assert callers(trees[name], "hilbert") == [], name


# ----------------------------------------------------------------------
# lattice searches: one per branch spectrum in solve, none afterwards


def test_solve_searches_once_per_branch_spectrum(rng, lattice_searches):
    for _ in range(50):
        sol = solved_case(rng, allow_dc=True)
        del lattice_searches[:]
        solve(sol.netlist, sol.source)
        assert len(lattice_searches) == 2 * len(sol.netlist.branches) + 1


def test_power_layers_reuse_the_solved_lattice(rng, lattice_searches):
    """No search after solve, on every draw, with and without DC lines.

    ``instantaneous`` reads the line table and places every line pair on
    the source's own lattice keys, so it builds no branch spectrum and
    searches nothing.
    """
    for allow_dc in (False, True):
        for _ in range(200):
            sol = solved_case(rng, allow_dc=allow_dc)
            del lattice_searches[:]
            instantaneous(sol)
            budeanu(sol)
            assert lattice_searches == [], allow_dc


# ----------------------------------------------------------------------
# known false verdicts, pinned until residuals and the Budeanu floor are
# judged by what the solve can deliver (ROADMAP item 6)


@pytest.mark.xfail(
    raises=AssertionError,
    reason="ROADMAP item 6: the residual normaliser leaves out the w_m and w_e that cancel",
)
def test_near_resonant_lossless_net_passes_the_default_tolerance():
    # a lossless series L-C across the port, one tone 1e-9 above resonance;
    # the solve is accurate here (test_resonance_boundary), the verdict is not
    l, c = 1e-3, 1e-6
    net = Netlist(
        (Branch("l", INDUCTOR, l, ("p", "n")), Branch("c", CAPACITOR, c, ("n", "0"))),
        ("p", "0"),
    )
    source = LineSpectrum.tone((1.0 + 1e-9) / math.sqrt(l * c), 1.0, VOLT)
    report = verify_balances(solve(net, source), default_t_grid(source), default_s_grid(source))
    tol = 1e-9  # pqbalance verify's default --tol
    assert report.instantaneous_relative <= tol
    assert report.active_relative <= tol
    assert report.reactive_relative <= tol


@pytest.mark.xfail(
    raises=ConsistencyError,
    reason="ROADMAP item 6: Budeanu's 1e-12*S floor is below the solve's round-off",
)
def test_budeanu_accepts_the_seed_777_round_off_draws():
    # the seed-777 protocol: random_netlist, then random_source with
    # allow_dc=True, draws counted from 0 with the singular ones included
    rng = np.random.default_rng(777)
    draws = [(random_netlist(rng), random_source(rng, allow_dc=True)) for _ in range(1835)]
    for k in (3, 1834):
        budeanu(solve(*draws[k]))
