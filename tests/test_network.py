"""Frequency-domain load solver: per-line phasors, validation, circuit laws."""

import copy
import dataclasses
import math
import pickle
import sys
import threading
import tracemalloc
from fractions import Fraction

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
    solve,
    solve_frequency,
)
from pqbalance.oracle import _time_domain_matrices
from pqbalance.spectrum import AMPERE, VOLT, LineSpectrum

from conftest import (
    amplitude_at,
    random_netlist,
    random_source,
    reference_product,
    solved_case,
)

ROOT2 = math.sqrt(2.0)


def ladder(sections, rng):
    """Series R, series L, shunt C, shunt R per section; the port at the input."""
    branches, node = [], "port"
    for k in range(sections):
        mid, nxt = f"m{k}", f"a{k + 1}"
        branches += [
            Branch(f"r{k}", RESISTOR, rng.uniform(0.1, 1.0), (node, mid)),
            Branch(f"l{k}", INDUCTOR, rng.uniform(0.1, 1.0), (mid, nxt)),
            Branch(f"c{k}", CAPACITOR, rng.uniform(0.1, 1.0), (nxt, "gnd")),
            Branch(f"g{k}", RESISTOR, rng.uniform(1.0, 10.0), (nxt, "gnd")),
        ]
        node = nxt
    return Netlist(tuple(branches), ("port", "gnd"))


def harmonics(rng, count, dc=True):
    """A volt source on ``count`` distinct harmonics of a random base, with DC."""
    base = rng.uniform(0.3, 3.0)
    orders = np.sort(rng.choice(np.arange(1, 2 * count + 1), size=count, replace=False))
    pairs = [(float(n) * base, complex(*rng.uniform(-5.0, 5.0, 2))) for n in orders]
    return LineSpectrum.from_lines(([(0.0, 1.5)] if dc else []) + pairs, VOLT)


def solution_bits(sol):
    """Every phasor of a solution and every array of its spectra, as bytes."""
    rows = [[ph.omega, ph.port_voltage, ph.port_current,
             *ph.voltage.values(), *ph.current.values()] for ph in sol.per_line]
    parts = [np.array(rows, dtype=complex).tobytes()]
    for spec in (*sol.branch_voltage.values(), *sol.branch_current.values(), sol.port_current):
        parts += [spec._keys.tobytes(), spec._omegas.tobytes(), spec._amps.tobytes(),
                  repr((spec.omega0, spec.unit)).encode()]
    return b"".join(parts)


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


def test_connectivity_walk_starts_from_both_port_nodes():
    # the source alone joins a port node that no branch touches
    for nodes in (("p", "m"), ("m", "0")):
        assert Netlist((Branch("r", RESISTOR, 1.0, nodes),), ("p", "0")).nodes == sorted(
            {"p", "m", "0"})
    with pytest.raises(ValueError, match=r"not connected; unreachable nodes: \['x', 'y'\]$"):
        Netlist((Branch("r1", RESISTOR, 1.0, ("p", "0")), Branch("r2", RESISTOR, 1.0, ("y", "x"))),
                ("p", "0"))


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


def test_from_dict_rejects_integers_beyond_the_float_range():
    # float() of such an integer raises OverflowError, not ValueError
    for value in (10**400, -(10**400)):
        with pytest.raises(ValueError, match=r"branches\[1\]\.value: expected a finite number"):
            Netlist.from_dict(
                {
                    "branches": [
                        {"id": "a", "kind": "resistor", "value": 1.0, "nodes": ["p", "0"]},
                        {"id": "b", "kind": "capacitor", "value": value, "nodes": ["p", "0"]},
                    ],
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
# the singularity gate


@pytest.mark.parametrize("exponent", range(6, 17))
def test_resonance_boundary(exponent):
    # a lossless series L-C across the port shorts it at resonance; a line
    # detuned by 10**-exponent is solved down to 1e-12 and singular from 1e-13
    l, c = 1e-3, 1e-6
    net = Netlist(
        (Branch("l", INDUCTOR, l, ("p", "n")), Branch("c", CAPACITOR, c, ("n", "0"))),
        ("p", "0"),
    )
    omega = (1.0 + 10.0 ** -exponent) / math.sqrt(l * c)
    if exponent >= 13:
        with pytest.raises(SingularNetworkError):
            solve_frequency(net, omega, 1.0)
        return
    # the error grows as 1/detuning, to 6.6e-5 at 1e-12
    w, l_, c_ = Fraction(omega), Fraction(l), Fraction(c)
    exact = -float(w * c_ / (w * w * l_ * c_ - 1))
    assert solve_frequency(net, omega, 1.0).port_current == pytest.approx(1j * exact, rel=1e-3)


# The draws among the first 500 of the seed-777 protocol (random_netlist, then
# random_source with allow_dc=True) whose solve is singular, every one at DC.
SINGULAR_777 = (
    1, 2, 11, 14, 17, 21, 32, 33, 34, 38, 40, 41, 42, 45, 46, 51, 54, 55, 57, 60, 61,
    62, 64, 67, 68, 71, 77, 82, 84, 92, 93, 96, 97, 98, 103, 111, 113, 121, 124, 125,
    131, 132, 134, 135, 137, 140, 143, 144, 145, 147, 148, 153, 154, 161, 162, 166,
    167, 168, 177, 187, 199, 200, 201, 202, 203, 204, 205, 214, 220, 221, 225, 227,
    228, 232, 234, 240, 243, 251, 255, 261, 264, 266, 269, 276, 277, 281, 288, 289,
    294, 297, 298, 308, 310, 314, 319, 320, 321, 322, 323, 325, 329, 330, 332, 338,
    341, 343, 348, 349, 351, 354, 356, 367, 371, 372, 373, 377, 381, 387, 392, 395,
    400, 401, 404, 405, 406, 409, 410, 412, 417, 418, 424, 426, 429, 435, 439, 441,
    446, 447, 448, 450, 451, 455, 457, 459, 465, 471, 475, 478, 480, 481, 482, 483,
    492, 495,
)


def test_singular_draws_of_the_seed_777_protocol():
    rng = np.random.default_rng(777)
    singular, nets = {}, {}
    for k in range(500):
        nets[k] = random_netlist(rng)
        try:
            solve(nets[k], random_source(rng, allow_dc=True))
        except SingularNetworkError as exc:
            singular[k] = exc.omega
    assert singular == dict.fromkeys(SINGULAR_777, 0.0)
    # inductor loops: no zero row and no zero pivot, so the condition
    # estimate is what flags these two
    for k in (131, 435):
        stamps = nets[k]._stamps
        a = stamps.g / np.abs(stamps.g).max(axis=1)[:, None]
        assert np.isfinite(np.linalg.solve(a, np.ones(len(a)))).all()


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


def _plain_line(net, omega, v_port):
    """Branch voltages and the port current of one line from the textbook
    expressions: fresh arrays for A(omega), its row scaling and the real
    incidence's products."""
    stamps = net._stamps
    a = stamps.g + 1j * omega * stamps.c
    row_scale = np.abs(a).max(axis=1)
    rhs = stamps.rhs.copy()
    rhs[stamps.src, 0] = v_port
    rhs[:, 0] /= row_scale
    x = np.linalg.solve(a / row_scale[:, None], rhs)[:, 0]
    return stamps.incidence.real.T @ x[:stamps.n_nodes], complex(x[stamps.src])


def test_in_place_assembly_gives_the_bits_of_the_plain_expressions():
    rng = np.random.default_rng(777)
    cases = [(ladder(40, rng), harmonics(rng, 16))]
    cases += [(random_netlist(rng), random_source(rng, allow_dc=True)) for _ in range(300)]
    checked = 0
    for net, source in cases:
        for omega, v_port in zip(source.omegas.tolist(), source.amplitudes.tolist()):
            try:
                ph = solve_frequency(net, omega, v_port)
            except SingularNetworkError:
                continue
            volts, port_current = _plain_line(net, omega, v_port)
            assert np.array(list(ph.voltage.values())).tobytes() == volts.tobytes()
            assert np.array(ph.port_current).tobytes() == np.array(port_current).tobytes()
            checked += 1
    assert checked > 1000


def test_a_line_allocates_no_nodal_matrix_temporaries():
    # after the first line, A(omega) and |A(omega)| live in the thread's work
    # arrays; at the parent a line traced 3.0 * n**2 * 16 B
    net = ladder(40, np.random.default_rng(3))
    size = net._stamps.src + 1
    assert size == 122
    solve_frequency(net, 1.3, 1.0)
    tracemalloc.start()
    try:
        solve_frequency(net, 1.7, 2.0 - 1.0j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * size * size * 16


def test_threads_solving_alternately_match_serial_solves():
    # each thread re-sizes its work arrays at every switch between the nets,
    # and half of the threads hold the other net at each turn
    rng = np.random.default_rng(5)
    small = Netlist(
        (Branch("r", RESISTOR, 2.0, ("p", "m")), Branch("c", CAPACITOR, 0.5, ("m", "0"))),
        ("p", "0"),
    )
    assert small._stamps.src + 1 == 3
    cases = [(small, harmonics(rng, 5, dc=False)), (ladder(40, rng), harmonics(rng, 6))]
    assert cases[1][0]._stamps.src + 1 == 122
    serial = [solution_bits(solve(net, source)) for net, source in cases]
    workers, turns = 4, 12
    barrier = threading.Barrier(workers)
    results, errors = {w: [] for w in range(workers)}, []

    def work(w):
        try:
            for k in range(turns):
                barrier.wait(timeout=60)
                which = (w + k) % 2
                results[w].append((which, solution_bits(solve(*cases[which]))))
        except Exception as exc:  # noqa: BLE001 -- reported below
            errors.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for w in range(workers):
        assert len(results[w]) == turns
        for which, bits in results[w]:
            assert bits == serial[which]


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))])
def test_solved_netlists_and_solutions_copy_and_pickle(duplicate):
    rng = np.random.default_rng(9)
    net, source = ladder(6, rng), harmonics(rng, 8)
    sol = solve(net, source)
    again = duplicate(sol)
    assert again == sol
    assert solution_bits(again) == solution_bits(sol)
    twin = duplicate(net)
    assert twin == net
    assert solution_bits(solve(twin, source)) == solution_bits(sol)
    assert solution_bits(solve(again.netlist, source)) == solution_bits(sol)


def per_line_stack(sol):
    """The phasors of ``per_line`` stacked as the solution documents its stack."""
    ids = [b.id for b in sol.netlist.branches]
    rows = [[ph.voltage[bid] for ph in sol.per_line] for bid in ids]
    rows += [[ph.current[bid] for ph in sol.per_line] for bid in ids]
    rows += [[ph.port_current for ph in sol.per_line]]
    return np.array(rows, dtype=complex).reshape(len(rows), len(sol.per_line))


def test_the_phasor_stack_is_per_line_bit_for_bit():
    rng = np.random.default_rng(9090)
    sols = [solved_case(rng, allow_dc=True) for _ in range(300)]
    rlc = Netlist(
        (
            Branch("r1", RESISTOR, 2.0, ("p", "m")),
            Branch("l1", INDUCTOR, 0.5, ("m", "0")),
            Branch("c1", CAPACITOR, 0.25, ("p", "0")),
        ),
        ("p", "0"),
    )
    sols += [
        solve(rlc, LineSpectrum.zero(VOLT)),
        solve(rlc, LineSpectrum.dc(3.0, VOLT)),
        solve(rlc, LineSpectrum.from_lines([(0.0, -1.0), (2.0, 5.0), (6.0, 1.0 - 2.0j)], VOLT)),
        solve(ladder(3, rng), harmonics(rng, 5)),
    ]
    assert sum(0.0 in sol.source.omegas for sol in sols) >= 40
    negative_zeros = 0
    for k, sol in enumerate(sols):
        stack, want = sol._phasors, per_line_stack(sol)
        assert stack.dtype == want.dtype and stack.shape == want.shape, k
        assert stack.tobytes() == want.tobytes(), k  # signed zeros included
        parts = np.stack((stack.real, stack.imag))
        negative_zeros += int(np.sum(np.signbit(parts) & (parts == 0.0)))
    # the ensemble holds signed zeros for the comparison to keep
    assert negative_zeros > 0
    assert sols[300]._phasors.shape == (7, 0)


def test_the_phasor_stack_is_read_only_and_shared_with_no_spectrum():
    rng = np.random.default_rng(11)
    sol = solve(ladder(4, rng), harmonics(rng, 6))
    stack = sol._phasors
    assert not stack.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stack[0, 0] = 1.0
    spectra = (*sol.branch_voltage.values(), *sol.branch_current.values(), sol.port_current)
    assert not any(np.shares_memory(stack, spec._amps) for spec in spectra)


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))])
def test_the_phasor_stack_survives_copy_and_pickle_outside_eq_and_repr(duplicate):
    rng = np.random.default_rng(9)
    net, source = ladder(6, rng), harmonics(rng, 8)
    sol = solve(net, source)
    again = duplicate(sol)
    assert again == sol and again == solve(net, source)
    assert again._phasors.tobytes() == sol._phasors.tobytes()
    assert again._phasors is not sol._phasors and not again._phasors.flags.writeable
    stack = next(f for f in dataclasses.fields(sol) if f.name == "_phasors")
    assert not stack.compare and not stack.repr
    assert "_phasors" not in repr(sol)
    assert [f.name for f in dataclasses.fields(sol) if not f.name.startswith("_")] == [
        "netlist", "source", "per_line", "branch_voltage", "branch_current", "port_current"]


def _assert_spectra_are_from_lines(sol):
    omegas = [ph.omega for ph in sol.per_line]

    def check(spec, phasors, unit):
        want = LineSpectrum.from_lines(zip(omegas, phasors), unit)
        for name in ("_keys", "_omegas", "_amps"):
            assert getattr(spec, name).dtype == getattr(want, name).dtype
            assert getattr(spec, name).tobytes() == getattr(want, name).tobytes(), name
        assert (spec.omega0, spec.unit) == (want.omega0, want.unit)

    for b in sol.netlist.branches:
        check(sol.branch_voltage[b.id], [ph.voltage[b.id] for ph in sol.per_line], VOLT)
        check(sol.branch_current[b.id], [ph.current[b.id] for ph in sol.per_line], AMPERE)
    check(sol.port_current, [ph.port_current for ph in sol.per_line], AMPERE)


def test_solve_builds_the_spectra_from_lines_would_build():
    rng = np.random.default_rng(777)
    solved = 0
    while solved < 200:
        net = random_netlist(rng)
        try:
            sol = solve(net, random_source(rng, allow_dc=True))
        except SingularNetworkError:
            continue
        _assert_spectra_are_from_lines(sol)
        solved += 1
    sol = solve(ladder(40, rng), harmonics(rng, 63))
    assert len(sol.per_line) == 64
    _assert_spectra_are_from_lines(sol)


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


@pytest.mark.parametrize("omega", [math.nan, math.inf])
def test_non_finite_frequency_rejected(omega):
    with pytest.raises(ValueError, match="omega must be finite and >= 0"):
        solve_frequency(series_rl(), omega, 1.0)


@pytest.mark.parametrize("v_port", [math.nan, complex(1.0, math.inf)])
def test_non_finite_port_voltage_rejected(v_port):
    with pytest.raises(ValueError, match="v_port must be finite"):
        solve_frequency(series_rl(), 1.0, v_port)


def test_port_admittance_examples():
    # the port current drawn by a unit port voltage
    def admittance(net, omega):
        return solve_frequency(net, omega, 1.0).port_current

    r_only = Netlist((Branch("r", RESISTOR, 10.0, ("p", "0")),), ("p", "0"))
    for w in (0.0, 1.0, 7.5):
        assert admittance(r_only, w) == pytest.approx(0.1, rel=1e-14)
    c_only = Netlist((Branch("c", CAPACITOR, 0.3, ("p", "0")),), ("p", "0"))
    assert admittance(c_only, 1.0) == pytest.approx(0.3j, rel=1e-14)
    assert admittance(series_rl(), 1.0) == pytest.approx(0.5 - 0.5j, rel=1e-14)


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
    assert amplitude_at(sol.port_current, 1.0) == pytest.approx(
        10.0 * ROOT2 * (0.1 + 0.3j), rel=1e-13)
    # superposition: assembled spectra agree with the raw per-line phasors
    for ph in sol.per_line:
        for b in flicker_netlist.branches:
            assert amplitude_at(sol.branch_current[b.id], ph.omega) == pytest.approx(
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
        p_branches = reference_product([sol.branch_voltage[b.id] for b in net.branches],
                                       [sol.branch_current[b.id] for b in net.branches])
        p_port = reference_product(sol.source, sol.port_current)
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
