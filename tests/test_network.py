"""Frequency-domain load solver: per-line phasors, validation, circuit laws."""

import math

import numpy as np
import pytest

from pqbalance import network
from pqbalance.network import (
    Branch,
    CAPACITOR,
    INDUCTOR,
    Netlist,
    RESISTOR,
    SingularNetworkError,
    driving_point_admittance,
    solve,
    solve_frequency,
)
from pqbalance.oracle import _time_domain_matrices
from pqbalance.spectrum import AMPERE, VOLT, LineSpectrum

from conftest import random_netlist, random_source

ROOT2 = math.sqrt(2.0)


def series_rl(r=1.0, l=1.0):
    return Netlist(
        (
            Branch("r1", RESISTOR, r, ("p", "m")),
            Branch("l1", INDUCTOR, l, ("m", "0")),
        ),
        ("p", "0"),
    )


# ----------------------------------------------------------------------
# validation


def test_branch_validation():
    with pytest.raises(ValueError):
        Branch("b", "memristor", 1.0, ("a", "b"))
    with pytest.raises(ValueError):
        Branch("b", RESISTOR, 0.0, ("a", "b"))
    with pytest.raises(ValueError):
        Branch("b", RESISTOR, -2.0, ("a", "b"))
    with pytest.raises(ValueError):
        Branch("b", RESISTOR, 1.0, ("a", "a"))


def test_duplicate_branch_ids_rejected():
    with pytest.raises(ValueError, match="unique"):
        Netlist(
            (
                Branch("b", RESISTOR, 1.0, ("p", "0")),
                Branch("b", RESISTOR, 2.0, ("p", "0")),
            ),
            ("p", "0"),
        )


def test_disconnected_netlist_rejected():
    with pytest.raises(ValueError, match="unreachable"):
        Netlist(
            (
                Branch("r1", RESISTOR, 1.0, ("p", "0")),
                Branch("r2", RESISTOR, 1.0, ("x", "y")),
            ),
            ("p", "0"),
        )


def test_port_edge_counts_for_connectivity():
    # nothing between p and 0 except the source itself; still a valid graph
    net = Netlist(
        (Branch("r1", RESISTOR, 1.0, ("p", "mid")), Branch("r2", RESISTOR, 1.0, ("mid", "0"))),
        ("p", "0"),
    )
    assert net.nodes == ["0", "mid", "p"]


def test_from_dict_round_trip():
    net = series_rl()
    again = Netlist.from_dict(net.to_dict())
    assert again == net


def test_from_dict_error_paths():
    with pytest.raises(ValueError, match=r"netlist: \$: expected a JSON object"):
        Netlist.from_dict([1, 2])
    with pytest.raises(ValueError, match=r"branches: missing"):
        Netlist.from_dict({})
    with pytest.raises(ValueError, match=r"branches\[1\]\.value: expected a number"):
        Netlist.from_dict(
            {
                "branches": [
                    {"id": "a", "kind": "resistor", "value": 1.0, "nodes": ["p", "0"]},
                    {"id": "b", "kind": "resistor", "value": "ten", "nodes": ["p", "0"]},
                ],
                "port": {"plus": "p", "ground": "0"},
            }
        )
    with pytest.raises(ValueError, match=r"branches\[0\]\.nodes: expected an array"):
        Netlist.from_dict(
            {
                "branches": [{"id": "a", "kind": "resistor", "value": 1.0, "nodes": "p0"}],
                "port": {"plus": "p", "ground": "0"},
            }
        )
    with pytest.raises(ValueError, match=r"port: expected an object"):
        Netlist.from_dict(
            {"branches": [{"id": "a", "kind": "resistor", "value": 1.0, "nodes": ["p", "0"]}]}
        )
    with pytest.raises(ValueError, match=r"branches\[0\]: .*kind"):
        Netlist.from_dict(
            {
                "branches": [{"id": "a", "kind": "diode", "value": 1.0, "nodes": ["p", "0"]}],
                "port": {"plus": "p", "ground": "0"},
            }
        )


# ----------------------------------------------------------------------
# single-line solves


def test_series_rl_at_omega_one():
    ph = solve_frequency(series_rl(), 1.0, 1.0 + 0.0j)
    assert ph.port_current == pytest.approx(0.5 - 0.5j, rel=1e-14)
    assert ph.current["r1"] == pytest.approx(0.5 - 0.5j, rel=1e-14)
    assert ph.current["l1"] == pytest.approx(0.5 - 0.5j, rel=1e-14)
    assert ph.voltage["r1"] + ph.voltage["l1"] == pytest.approx(1.0, rel=1e-14)


def test_series_rl_dc_inductor_is_short():
    ph = solve_frequency(series_rl(), 0.0, 1.0 + 0.0j)
    assert ph.port_current == pytest.approx(1.0, rel=1e-14)
    assert ph.voltage["l1"] == pytest.approx(0.0, abs=1e-14)


def test_parallel_rc_port_current(flicker_netlist):
    v = 10.0 * ROOT2
    ph = solve_frequency(flicker_netlist, 1.0, v)
    assert ph.port_current == pytest.approx(v * (0.1 + 0.3j), rel=1e-14)


def test_capacitor_is_open_at_dc(flicker_netlist):
    ph = solve_frequency(flicker_netlist, 0.0, 10.0)
    assert ph.port_current == pytest.approx(1.0, rel=1e-14)
    assert ph.current[flicker_netlist.by_kind(CAPACITOR)[0].id] == pytest.approx(0.0, abs=1e-15)


def test_singular_at_dc_names_frequency():
    # node reachable only through a capacitor has no DC voltage constraint
    net = Netlist(
        (
            Branch("c1", CAPACITOR, 1.0, ("p", "x")),
            Branch("c2", CAPACITOR, 1.0, ("x", "0")),
        ),
        ("p", "0"),
    )
    with pytest.raises(SingularNetworkError, match="omega = 0"):
        solve_frequency(net, 0.0, 1.0)
    # the same net is perfectly solvable away from DC
    ph = solve_frequency(net, 2.0, 1.0)
    assert ph.port_current == pytest.approx(1j, rel=1e-14)


def test_idle_inductor_is_not_reported_singular():
    # l and r2 hang off the port with nothing behind them, so they carry no
    # current and the voltage across l is pure round-off
    net = Netlist(
        (
            Branch("r", RESISTOR, 2.0, ("p", "0")),
            Branch("l", INDUCTOR, 1.0, ("p", "x")),
            Branch("r2", RESISTOR, 1.3, ("x", "y")),
        ),
        ("p", "0"),
    )
    sol = solve(net, LineSpectrum.tone(2.5, 0.1, VOLT))
    ph = sol.per_line[0]
    assert ph.port_current == pytest.approx(0.05, rel=1e-14)
    assert abs(ph.current["l"]) <= 1e-15 and abs(ph.voltage["l"]) <= 1e-15


def test_idle_inductor_at_dc_is_not_reported_singular():
    # at DC l shorts r2, and the pair leads nowhere: both carry round-off only
    net = Netlist(
        (
            Branch("l", INDUCTOR, 0.01, ("n1", "n0")),
            Branch("r1", RESISTOR, 0.04, ("n0", "port")),
            Branch("r", RESISTOR, 0.05, ("port", "gnd")),
            Branch("r2", RESISTOR, 1.3, ("n0", "n1")),
        ),
        ("port", "gnd"),
    )
    ph = solve(net, LineSpectrum.dc(1.0, VOLT)).per_line[0]
    assert ph.port_current == pytest.approx(20.0, rel=1e-14)
    for bid in ("l", "r1", "r2"):
        assert abs(ph.current[bid]) <= 1e-13 and abs(ph.voltage[bid]) <= 1e-13


def test_current_free_line_is_not_reported_singular():
    # at DC the capacitor blocks the only path to ground, so no branch
    # carries current and every current the solve returns is round-off
    rng = np.random.default_rng(0)
    for _ in range(200):
        r1, r2, c, l = 10.0 ** rng.uniform(-2.0, 2.0, size=4)
        net = Netlist(
            (
                Branch("r1", RESISTOR, r1, ("p", "n0")),
                Branch("r2", RESISTOR, r2, ("n0", "n1")),
                Branch("c", CAPACITOR, c, ("n1", "n2")),
                Branch("l", INDUCTOR, l, ("n2", "0")),
            ),
            ("p", "0"),
        )
        ph = solve_frequency(net, 0.0, 1.0)
        assert abs(ph.port_current) <= 1e-12
        assert ph.voltage["c"] == pytest.approx(1.0, rel=1e-12)


# ----------------------------------------------------------------------
# the stamps A(omega) = G + j*omega*C, built once per netlist


def test_stamps_match_the_oracles_time_domain_matrices():
    # the oracle assembles G x + C x' = e_src u(t) branch by branch, on its own
    rng = np.random.default_rng(31)
    for _ in range(2000):
        net = random_netlist(rng)
        g, c, _, _, src = _time_domain_matrices(net)
        stamps = net._stamps
        assert stamps.src == src
        np.testing.assert_array_almost_equal_nulp(stamps.g, g, nulp=4)
        np.testing.assert_array_almost_equal_nulp(stamps.c, c, nulp=4)


def test_solve_stamps_the_netlist_once(monkeypatch):
    built = []
    init = network._Stamps.__init__

    def counted(stamps, net):
        built.append(net)
        init(stamps, net)

    monkeypatch.setattr(network._Stamps, "__init__", counted)
    net = series_rl()
    source = LineSpectrum.from_lines([(0.5 * (k + 1), 1.0) for k in range(64)], VOLT)
    assert len(solve(net, source).per_line) == 64
    solve(net, source)
    assert len(built) == 1


def _perturb_branch(monkeypatch, bid, quantity):
    """Scale one branch's voltage (0) or current (1) by 1 + 1e-8 after the solve."""
    exact = network._Stamps.branch_phasors

    def perturbed(stamps, omega, x):
        phasors = exact(stamps, omega, x)
        phasors[quantity][stamps.ids.index(bid)] *= 1.0 + 1e-8
        return phasors

    net = Netlist(
        (
            Branch("r1", RESISTOR, 1.0, ("p", "a")),
            Branch("l1", INDUCTOR, 0.5, ("a", "0")),
            Branch("c1", CAPACITOR, 0.3, ("a", "0")),
        ),
        ("p", "0"),
    )
    solve_frequency(net, 1.0, 1.0)
    monkeypatch.setattr(network._Stamps, "branch_phasors", perturbed)
    return net


@pytest.mark.parametrize("bid", ["r1", "l1", "c1"])
def test_current_law_check_catches_a_perturbed_current(monkeypatch, bid):
    net = _perturb_branch(monkeypatch, bid, 1)
    with pytest.raises(SingularNetworkError, match="current-law self-check failed"):
        solve_frequency(net, 1.0, 1.0)


@pytest.mark.parametrize("bid", ["r1", "l1", "c1"])
def test_branch_law_check_catches_a_perturbed_voltage(monkeypatch, bid):
    net = _perturb_branch(monkeypatch, bid, 0)
    with pytest.raises(SingularNetworkError, match=f"branch law failed for '{bid}'"):
        solve_frequency(net, 1.0, 1.0)


def test_driving_point_admittance_examples():
    r_only = Netlist((Branch("r", RESISTOR, 10.0, ("p", "0")),), ("p", "0"))
    for w in (0.0, 1.0, 7.5):
        assert driving_point_admittance(r_only, w) == pytest.approx(0.1, rel=1e-14)
    c_only = Netlist((Branch("c", CAPACITOR, 0.3, ("p", "0")),), ("p", "0"))
    assert driving_point_admittance(c_only, 1.0) == pytest.approx(0.3j, rel=1e-14)
    assert driving_point_admittance(series_rl(), 1.0) == pytest.approx(0.5 - 0.5j, rel=1e-14)


# ----------------------------------------------------------------------
# multi-line solves


def test_resistive_load_scales_source():
    net = Netlist((Branch("r", RESISTOR, 10.0, ("p", "0")),), ("p", "0"))
    sol = solve(net, LineSpectrum.tone(1.0, 10.0 * ROOT2, VOLT))
    t = np.linspace(0.0, 6.0, 50)
    assert np.allclose(sol.port_current.evaluate(t), ROOT2 * np.cos(t), rtol=1e-13, atol=1e-13)
    assert sol.port_current.unit == AMPERE


def test_flicker_solution_structure(flicker_netlist, flicker_source):
    sol = solve(flicker_netlist, flicker_source)
    assert len(sol.per_line) == 3
    assert sol.port_current.line_at(1.0) == pytest.approx(10.0 * ROOT2 * (0.1 + 0.3j), rel=1e-13)
    # superposition: assembled spectra agree with the raw per-line phasors
    for ph in sol.per_line:
        for b in flicker_netlist.branches:
            assert sol.branch_current[b.id].line_at(ph.omega) == pytest.approx(
                ph.current[b.id], rel=1e-14, abs=1e-300
            )


def test_zero_source_gives_zero_solution(flicker_netlist):
    sol = solve(flicker_netlist, LineSpectrum.zero(VOLT))
    assert sol.port_current.is_zero
    assert all(s.is_zero for s in sol.branch_current.values())


def test_solve_requires_volt_unit(flicker_netlist):
    with pytest.raises(ValueError, match="volt"):
        solve(flicker_netlist, LineSpectrum.tone(1.0, 1.0, AMPERE))


# ----------------------------------------------------------------------
# circuit-law properties on random netlists


def test_tellegen_per_line_and_in_time():
    rng = np.random.default_rng(7)
    for _ in range(20):
        net = random_netlist(rng)
        source = random_source(rng, allow_dc=True)
        try:
            sol = solve(net, source)
        except SingularNetworkError:
            continue
        for ph in sol.per_line:
            total = sum(ph.voltage[b.id] * np.conj(ph.current[b.id]) for b in net.branches)
            port = ph.port_voltage * np.conj(ph.port_current)
            assert abs(total - port) <= 1e-10 * max(abs(port), 1e-9)
        p_branches = sum(
            (sol.branch_voltage[b.id].multiply(sol.branch_current[b.id]) for b in net.branches),
            LineSpectrum.zero(),
        )
        p_port = sol.source.multiply(sol.port_current)
        t = rng.uniform(0.0, 50.0, size=100)
        lhs, rhs = p_branches.evaluate(t), p_port.evaluate(t)
        scale = max(float(np.max(np.abs(rhs))), 1e-9)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


def test_solve_is_linear():
    rng = np.random.default_rng(11)
    net = random_netlist(rng)
    base = rng.uniform(0.3, 3.0)
    f = LineSpectrum.from_lines([(base, 1.0 - 2.0j), (3.0 * base, 0.5j)], VOLT)
    g = LineSpectrum.from_lines([(base, 0.25), (2.0 * base, 1.5)], VOLT)
    combo = solve(net, 2.0 * f + (-0.5) * g)
    fi = solve(net, f).port_current
    gi = solve(net, g).port_current
    expect = 2.0 * fi + (-0.5) * gi
    t = np.linspace(0.0, 30.0, 97)
    assert np.allclose(combo.port_current.evaluate(t), expect.evaluate(t), rtol=1e-11, atol=1e-12)


def test_kcl_at_nonground_nodes():
    rng = np.random.default_rng(13)
    for _ in range(10):
        net = random_netlist(rng)
        source = random_source(rng)
        try:
            sol = solve(net, source)
        except SingularNetworkError:
            continue
        plus, ground = net.port
        for ph in sol.per_line:
            flow: dict[str, complex] = {n: 0.0 for n in net.nodes}
            for b in net.branches:
                a, c = b.nodes
                flow[a] -= ph.current[b.id]
                flow[c] += ph.current[b.id]
            flow[plus] += ph.port_current
            scale = max(abs(ph.port_current), 1e-9)
            for n in net.nodes:
                if n != ground:
                    assert abs(flow[n]) <= 1e-10 * scale
