"""Energy/power quantities and the three balance laws they must satisfy."""

import math

import numpy as np
import pytest

from pqbalance.network import Branch, CAPACITOR, INDUCTOR, Netlist, RESISTOR, solve
from pqbalance.power import (
    ConsistencyError,
    active_balance,
    budeanu,
    classical_summary,
    d_ds_fd_gap,
    d_dt_fd_gap,
    default_s_grid,
    default_t_grid,
    instantaneous,
    instantaneous_balance,
    q_from_stored_energy,
    real_imaginary_power,
    reactive_balance,
    scaled,
    scaled_time_means,
    verify_balances,
)
from pqbalance.spectrum import AMPERE, VOLT, LineSpectrum

from conftest import solved_case

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
        iset = instantaneous(sol)
        t = default_t_grid(sol.source, 101)
        scale = max(float(np.max(np.abs(iset.p.evaluate(t)))), 1e-12)
        assert instantaneous_balance(iset, t) <= 1e-9 * scale


def test_perturbed_dissipation_shows_up_as_residual(flicker_solution):
    iset = instantaneous(flicker_solution)
    t = default_t_grid(flicker_solution.source, 64)
    base = instantaneous_balance(iset, t)
    eps = 1e-3
    bumped = instantaneous(flicker_solution)
    object.__setattr__(bumped, "p_dissipated", bumped.p_dissipated + LineSpectrum.dc(eps))
    assert instantaneous_balance(bumped, t) == pytest.approx(base + eps, rel=1e-6)


def test_resistive_only_storage_free():
    sol = solve(one_branch(RESISTOR, 3.0), LineSpectrum.tone(2.0, 5.0, VOLT))
    iset = instantaneous(sol)
    assert iset.w_stored.is_zero
    t = np.linspace(0.0, 3.0, 64)
    assert np.allclose(iset.p.evaluate(t), iset.p_dissipated.evaluate(t), rtol=1e-13, atol=1e-13)


# ----------------------------------------------------------------------
# real/imaginary instantaneous power


def test_resistive_unity_pair():
    u = LineSpectrum.tone(1.0, ROOT2, VOLT)
    p_t, q_t = real_imaginary_power(u, LineSpectrum.tone(1.0, ROOT2, AMPERE))
    t = np.linspace(0.0, 7.0, 41)
    assert np.allclose(p_t.evaluate(t), 1.0, atol=1e-14)
    assert np.allclose(q_t.evaluate(t), 0.0, atol=1e-14)


def test_quadrature_pair():
    u = LineSpectrum.tone(1.0, ROOT2, VOLT)
    i = LineSpectrum.tone(1.0, -ROOT2 * 1.0j, AMPERE)  # sin: 90 degrees behind
    p_t, q_t = real_imaginary_power(u, i)
    t = np.linspace(0.0, 7.0, 41)
    assert np.allclose(p_t.evaluate(t), 0.0, atol=1e-14)
    assert np.allclose(q_t.evaluate(t), 1.0, atol=1e-14)


def test_flicker_mean_reactive_power(flicker_solution):
    _, q_t = real_imaginary_power(flicker_solution.source, flicker_solution.port_current)
    assert q_t.mean() == pytest.approx(-30.15, rel=1e-12)


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
        p_t, q_t = real_imaginary_power(sol.source, sol.port_current)
        t = default_t_grid(sol.source, 33)
        sq = scaled(sol, t, np.array([0.0, 0.7]))
        scale = max(float(np.max(np.abs(sq.p))), float(np.max(np.abs(sq.q))), 1e-12)
        assert np.max(np.abs(sq.p[:, 0] - p_t.evaluate(t))) <= 1e-10 * scale
        assert np.max(np.abs(sq.q[:, 0] - q_t.evaluate(t))) <= 1e-10 * scale


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
        assert active_balance(sq) <= 1e-9 * scale
        assert reactive_balance(sq) <= 1e-9 * scale


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
    assert report.d_dt_fd_gap < 1e-4 * report.active_scale
    assert report.d_ds_fd_gap < 1e-4 * report.reactive_scale
    assert report.n_t == 256 and report.n_s == 33
    d = report.to_dict()
    assert d["active"]["relative"] == report.active_relative
    assert d["grid"]["n_t"] == 256


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
    assert active_balance(sq) == 0.0 and reactive_balance(sq) == 0.0
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
    u = LineSpectrum.tone(omega, 5.0 * ROOT2, VOLT)
    i = LineSpectrum.tone(omega, ROOT2 * np.exp(-1j * phi), AMPERE)
    _, q_t = real_imaginary_power(u, i)
    assert q_t.mean() == pytest.approx(5.0 * math.sin(phi), rel=1e-13)


def test_budeanu_resistive_is_zero():
    sol = solve(one_branch(RESISTOR, 2.0), LineSpectrum.tone(1.0, 3.0, VOLT))
    assert budeanu(sol) == pytest.approx(0.0, abs=1e-13)


def test_budeanu_flicker(flicker_solution):
    assert budeanu(flicker_solution) == pytest.approx(-30.15, rel=1e-12)


def test_budeanu_dual_routes_agree_on_random_cases(rng):
    for _ in range(10):
        sol = solved_case(rng, allow_dc=True)
        budeanu(sol)  # raises ConsistencyError if the two routes disagree


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
# lattice searches: one per branch spectrum in solve, none afterwards


def test_solve_searches_once_per_branch_spectrum(rng, lattice_searches):
    for _ in range(50):
        sol = solved_case(rng, allow_dc=True)
        del lattice_searches[:]
        solve(sol.netlist, sol.source)
        assert len(lattice_searches) == 2 * len(sol.netlist.branches) + 1


def test_power_layers_reuse_the_solved_lattice(rng, lattice_searches):
    """No search after solve, on every draw, with and without DC lines.

    A branch that is idle at some source lines, or carries no DC current,
    has a coarser lattice than the source; its base is an integer multiple
    of the source's, so sums with its products map keys instead of
    searching.
    """
    for allow_dc in (False, True):
        for _ in range(200):
            sol = solved_case(rng, allow_dc=allow_dc)
            del lattice_searches[:]
            instantaneous(sol)
            real_imaginary_power(sol.source, sol.port_current)
            budeanu(sol)
            assert lattice_searches == [], allow_dc
