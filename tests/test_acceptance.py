"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line with its headline numbers; the
randomized ensembles are seeded and shared between tests through a lazy
module-level cache so the timed test pays for construction exactly once.
"""

import math
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pqbalance.cli import EXIT_OK, main
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
    QuadratureConfig,
    TransientWarning,
    fft_hilbert,
    ode_steady_state,
    quadrature_analytic,
    quadrature_tail_bound,
)
from pqbalance.power import (
    budeanu,
    classical_summary,
    instantaneous,
    q_from_stored_energy,
    scaled,
    verify_balances,
)
from pqbalance.spectrum import VOLT, ComplexTimePoint, LineSpectrum

from conftest import port_power_reference, random_netlist, random_source, solved_case

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
ROOT2 = math.sqrt(2.0)

_CACHE = {}


def report(capsys, ok, name, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def one_branch(kind, value):
    return Netlist((Branch("b1", kind, value, ("p", "0")),), ("p", "0"))


def case_grids(source):
    t = np.arange(21) * (source.period / 21.0)
    s = np.concatenate(
        [[0.0], np.geomspace(1e-3 / source.omega_max, 10.0 / source.omega_min, 20)]
    )
    return t, s


def balance_ensemble():
    """100 random netlist/source pairs with their 21x21 grids, solved and scaled."""
    if "balance" not in _CACHE:
        rng = np.random.default_rng(20260823)
        cases = []
        for _ in range(100):
            sol = solved_case(rng)
            t, s = case_grids(sol.source)
            cases.append(
                SimpleNamespace(
                    sol=sol, t=t, s=s,
                    sq=scaled(sol, t, s),
                    report=verify_balances(sol, t, s),
                )
            )
        _CACHE["balance"] = cases
    return _CACHE["balance"]


def single_tone_ensemble():
    """50 random single-tone drives into random netlists."""
    if "tone" not in _CACHE:
        rng = np.random.default_rng(19201114)
        cases = []
        while len(cases) < 50:
            omega = float(10.0 ** rng.uniform(-1.0, 1.0))
            amp = 10.0 ** rng.uniform(-1.0, 1.0) * np.exp(2j * math.pi * rng.uniform())
            source = LineSpectrum.from_lines([(omega, complex(amp))], VOLT)
            try:
                sol = solve(random_netlist(rng), source)
            except SingularNetworkError:
                continue
            t, s = case_grids(source)
            cases.append(
                SimpleNamespace(sol=sol, omega=omega, t=t, s=s, sq=scaled(sol, t, s))
            )
        _CACHE["tone"] = cases
    return _CACHE["tone"]


def flicker_solution():
    if "flicker" not in _CACHE:
        net = Netlist(
            (
                Branch("load_r", RESISTOR, 10.0, ("port", "gnd")),
                Branch("load_c", CAPACITOR, 0.3, ("port", "gnd")),
            ),
            ("port", "gnd"),
        )
        source = LineSpectrum.am_modulated(10.0 * ROOT2, 1.0, 0.1, 0.2, VOLT)
        _CACHE["flicker"] = solve(net, source)
    return _CACHE["flicker"]


def test_flicker_benchmark(capsys):
    t0 = time.perf_counter()
    sol = flicker_solution()
    summary = classical_summary(sol)
    q_b = budeanu(sol)
    elapsed = time.perf_counter() - t0
    character = "capacitive" if summary.q_budeanu < 0.0 else "inductive"
    ok = (
        abs(summary.p_mean - 10.05) <= 1e-6 * 10.05
        and abs(summary.q_budeanu + 30.15) <= 1e-6 * 30.15
        and abs(q_b + 30.15) <= 1e-6 * 30.15
        and character == "capacitive"
        and elapsed < 1.0
    )
    report(
        capsys, ok, "flicker benchmark",
        f"P_mean={summary.p_mean:.6f} W, Q_B={summary.q_budeanu:.6f} VAr, "
        f"{character}, {elapsed:.3f} s (limit 1 s)",
    )


def test_balance_suite(capsys):
    t0 = time.perf_counter()
    cases = balance_ensemble()
    worst = {"instantaneous": 0.0, "active": 0.0, "reactive": 0.0}
    for case in cases:
        worst["instantaneous"] = max(worst["instantaneous"],
                                     case.report.instantaneous_relative)
        worst["active"] = max(worst["active"], case.report.active_relative)
        worst["reactive"] = max(worst["reactive"], case.report.reactive_relative)
    elapsed = time.perf_counter() - t0
    ok = all(v < 1e-9 for v in worst.values()) and elapsed < 60.0
    report(
        capsys, ok, "balance suite (100 cases, 21x21 grid)",
        "worst relative residuals "
        f"inst={worst['instantaneous']:.2e}, active={worst['active']:.2e}, "
        f"reactive={worst['reactive']:.2e} (tol 1e-9); {elapsed:.1f} s (limit 60 s)",
    )


def test_sinusoidal_reduction(capsys):
    worst_const = worst_q = worst_s2 = 0.0
    for case in single_tone_ensemble():
        cs = classical_summary(case.sol)
        iset = instantaneous(case.sol)
        energy_scale = 2.0 * case.omega * (
            iset.w_magnetic.mean() + iset.w_electric.mean()
        )
        # A purely resistive draw leaves Q at roundoff, so judging against
        # |Q| alone would compare noise with noise.  The apparent power is
        # the magnitude Q is one component of; use it as the yardstick.
        scale = max(cs.s_apparent, energy_scale, 1e-300)

        undamped = case.sq.q * np.exp(2.0 * case.omega * case.s)[None, :]
        worst_const = max(
            worst_const, float(np.max(np.abs(undamped - cs.q_budeanu))) / scale
        )
        q_energy = q_from_stored_energy(case.sol, case.omega)
        worst_q = max(worst_q, abs(q_energy - cs.q_budeanu) / scale)

        s2 = cs.s_apparent**2
        worst_s2 = max(
            worst_s2, abs(s2 - cs.p_mean**2 - cs.q_budeanu**2) / max(s2, 1e-300)
        )
    ok = worst_const <= 1e-10 and worst_q <= 1e-10 and worst_s2 <= 1e-10
    report(
        capsys, ok, "sinusoidal reduction (50 cases)",
        f"Q*e^(2ws) constancy {worst_const:.2e}, stored-energy route {worst_q:.2e}, "
        f"S^2=P^2+Q^2 {worst_s2:.2e} (tol 1e-10)",
    )


def test_s_to_zero_limits(capsys):
    worst_wave = 0.0
    for case in balance_ensemble() + single_tone_ensemble():
        p_t, q_t = port_power_reference(case.sol, case.t)
        scale = max(
            float(np.max(np.abs(case.sq.p))), float(np.max(np.abs(case.sq.q))), 1e-300
        )
        gap_p = np.max(np.abs(case.sq.p[:, 0] - p_t))
        gap_q = np.max(np.abs(case.sq.q[:, 0] - q_t))
        worst_wave = max(worst_wave, float(max(gap_p, gap_q)) / scale)

    # the dual-route agreement at 1e-8 is enforced inside budeanu()
    cross_checked = 0
    for case in balance_ensemble() + single_tone_ensemble():
        budeanu(case.sol)
        cross_checked += 1
    budeanu(flicker_solution())
    cross_checked += 1

    ok = worst_wave <= 1e-10
    report(
        capsys, ok, "s->0 limits",
        f"P/Q waveform match {worst_wave:.2e} (tol 1e-10); "
        f"Budeanu dual route agreed on {cross_checked} cases (tol 1e-8)",
    )


def _ode_cases(count=20, max_draws=200):
    if "ode" not in _CACHE:
        rng = np.random.default_rng(57721566)
        cases = []
        for _ in range(max_draws):
            if len(cases) == count:
                break
            net = random_netlist(rng, require_resistor=True)
            source = random_source(rng)
            try:
                sol = solve(net, source)
            except SingularNetworkError:
                continue
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sig = ode_steady_state(net, source, steps_per_period=8192)
            if any(issubclass(w.category, TransientWarning) for w in caught):
                # inductors alone bridge the port: the port current carries
                # a constant offset that no start-up fixes, not comparable
                continue
            fine = ode_steady_state(net, source, steps_per_period=16384)
            cases.append((sol, sig, fine))
        _CACHE["ode"] = cases
    return _CACHE["ode"]


def test_oracle_equivalence(capsys):
    cases = _ode_cases()
    assert len(cases) == 20, "could not settle 20 dissipative netlists"
    worst_ode = worst_extrapolated = 0.0
    worst_estimate = 1.0  # estimated over actual error, or its inverse
    for sol, sig, fine in cases:
        want = sol.port_current.evaluate(sig.times)
        scale = max(float(np.max(np.abs(want))), 1e-300)
        err = float(np.max(np.abs(sig.samples - want))) / scale
        worst_ode = max(worst_ode, err)
        # BDF2 is second order: halving the step quarters the error, so
        # (4 y(dt/2) - y(dt)) / 3 cancels its leading term and
        # (4/3)|y(dt/2) - y(dt)| estimates y(dt)'s own error (Richardson)
        halved = fine.samples[::2]
        extrapolated = (4.0 * halved - sig.samples) / 3.0
        worst_extrapolated = max(
            worst_extrapolated, float(np.max(np.abs(extrapolated - want))) / scale)
        if err > 1e-9:
            estimate = 4.0 / 3.0 * float(np.max(np.abs(halved - sig.samples))) / scale
            worst_estimate = max(worst_estimate, estimate / err, err / estimate)

    rng = np.random.default_rng(26535897)
    worst_fft = 0.0
    sources = [random_source(rng) for _ in range(10)] + [flicker_solution().source]
    for source in sources:
        n = 4096
        dt = source.period / n
        sampled = source.sample(0.0, dt, n)
        via_fft = fft_hilbert(sampled)
        via_lines = source.hilbert().sample(0.0, dt, n)
        scale = max(float(np.max(np.abs(sampled.samples))), 1e-300)
        worst_fft = max(
            worst_fft, float(np.max(np.abs(via_fft.samples - via_lines.samples))) / scale
        )

    f = LineSpectrum.from_lines([(1.0, 1.0), (2.0, 0.5)])
    quad_ok = True
    for s in (0.5, 1.0, 2.0):
        point = ComplexTimePoint(0.7, s)
        exact = f.analytic_at(point.t, point.s)
        errs = []
        for width in (50.0, 100.0, 200.0, 400.0):
            cfg = QuadratureConfig(half_width=width)
            err = abs(quadrature_analytic(f, point, cfg) - exact)
            quad_ok &= err <= quadrature_tail_bound(f, point, cfg)
            errs.append(err)
        quad_ok &= errs[-1] < errs[0]

    ok = (worst_ode <= 1e-4 and worst_extrapolated <= 1e-6 and worst_estimate <= 1.5
          and worst_fft <= 1e-8 and quad_ok)
    report(
        capsys, ok, "oracle equivalence",
        f"ODE vs solve {worst_ode:.2e} (tol 1e-4, 20 nets); "
        f"Richardson-extrapolated ODE vs solve {worst_extrapolated:.2e} (tol 1e-6), "
        f"its error estimate off by a factor {worst_estimate:.3f} (tol 1.5); "
        f"FFT vs line Hilbert {worst_fft:.2e} (tol 1e-8); "
        f"quadrature O(1/window) bound {'held' if quad_ok else 'violated'}",
    )


def test_scale_axis_decay(capsys):
    worst = 0.0
    checked = 0
    for case in balance_ensemble() + single_tone_ensemble():
        w_min = case.sol.source.omega_min
        assert case.s[-1] == pytest.approx(10.0 / w_min, rel=1e-12)
        mean_abs_0 = float(np.mean(np.abs(case.sq.x_reactive[:, 0])))
        mean_abs_end = float(np.mean(np.abs(case.sq.x_reactive[:, -1])))
        # storage-free draws have X identically zero; 0 <= 0 must pass
        ratio = mean_abs_end / max(math.exp(-10.0) * mean_abs_0, 1e-300)
        if mean_abs_0 > 0.0:
            worst = max(worst, ratio)
        else:
            assert mean_abs_end == 0.0
        checked += 1
    ok = worst < 1.0
    report(
        capsys, ok, "scale-axis decay",
        f"mean|X| at s=10/w_min vs e^-10 * its s=0 value: worst ratio {worst:.2e} "
        f"on {checked} cases",
    )


def test_budeanu_sign_convention(capsys):
    u = LineSpectrum.tone(2.0, 7.0, VOLT)
    q_l = classical_summary(solve(one_branch(INDUCTOR, 0.4), u)).q_budeanu
    q_c = classical_summary(solve(one_branch(CAPACITOR, 0.4), u)).q_budeanu
    cs_r = classical_summary(solve(one_branch(RESISTOR, 0.4), u))
    ok = q_l > 0.0 and q_c < 0.0 and abs(cs_r.q_budeanu) < 1e-12 * cs_r.s_apparent
    report(
        capsys, ok, "Budeanu sign convention",
        f"pure-L Q_B={q_l:.3f} > 0, pure-C Q_B={q_c:.3f} < 0, "
        f"pure-R |Q_B|={abs(cs_r.q_budeanu):.2e} < 1e-12*S",
    )


def test_analyze_determinism(capsys, tmp_path):
    cfg = str(BENCH / "flicker_config.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", "--config", cfg, "--out", str(out_a)]) == EXIT_OK
    assert main(["analyze", "--config", cfg, "--out", str(out_b)]) == EXIT_OK
    files = sorted(p.name for p in out_a.iterdir())
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in files
    )
    report(
        capsys, identical, "analyze determinism",
        f"two runs produced byte-identical outputs ({len(files)} files)",
    )
