"""Single-port LTI RLC networks and their frequency-domain solution.

The load is a netlist of resistor/inductor/capacitor branches on named
nodes, driven by one ideal voltage source (the port) whose voltage does
not depend on the drawn current.  Each spectral line of the port voltage
is solved independently with modified nodal analysis (Ho, Ruehli and
Brennan, "The modified nodal approach to network analysis", IEEE Trans.
Circuits Syst., 1975); inductor currents are kept as explicit unknowns
so the DC line needs no special casing (an inductor is then a short, a
capacitor an open).  The nodal matrix is stamped once per netlist as two
real matrices, A(omega) = G + j*omega*C, so a line costs one matrix sum,
one LU solve and a few matrix products for the branch quantities and the
self-checks.  Superposing the per-line phasors yields every branch
voltage and current as an exact :class:`~pqbalance.spectrum.LineSpectrum`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import linalg

from .spectrum import AMPERE, VOLT, LineSpectrum

RESISTOR = "resistor"
INDUCTOR = "inductor"
CAPACITOR = "capacitor"
KINDS = (RESISTOR, INDUCTOR, CAPACITOR)

# LU pivot ratio below which the nodal system is declared singular.
_PIVOT_RTOL = 1e-12
# Relative tolerance for the KCL / constitutive-law self-checks.
_LAW_RTOL = 1e-10


class SingularNetworkError(RuntimeError):
    """The nodal system has no unique solution at some frequency."""

    def __init__(self, omega, detail=""):
        self.omega = omega
        msg = f"singular network at omega = {omega!r} rad/s"
        super().__init__(msg + (f": {detail}" if detail else ""))


@dataclass(frozen=True)
class Branch:
    """One two-terminal R, L or C element between nodes ``(a, b)``."""

    id: str
    kind: str
    value: float
    nodes: tuple[str, str]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"branch {self.id!r}: unknown kind {self.kind!r}")
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise ValueError(f"branch {self.id!r}: value must be > 0, got {self.value!r}")
        a, b = self.nodes
        if a == b:
            raise ValueError(f"branch {self.id!r}: nodes must differ, got {a!r}")
        object.__setattr__(self, "nodes", (str(a), str(b)))


@dataclass(frozen=True)
class Netlist:
    """Branches plus the port (plus node, ground node) of the driving source."""

    branches: tuple[Branch, ...]
    port: tuple[str, str]

    def __post_init__(self):
        branches = tuple(self.branches)
        plus, ground = self.port
        plus, ground = str(plus), str(ground)
        if plus == ground:
            raise ValueError("port plus and ground nodes must differ")
        ids = [b.id for b in branches]
        if len(set(ids)) != len(ids):
            raise ValueError("branch ids must be unique")
        adjacency: dict[str, set[str]] = {plus: {ground}, ground: {plus}}
        for b in branches:
            a, c = b.nodes
            adjacency.setdefault(a, set()).add(c)
            adjacency.setdefault(c, set()).add(a)
        seen = {ground}
        stack = [ground]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != set(adjacency):
            floating = sorted(set(adjacency) - seen)
            raise ValueError(f"netlist is not connected; unreachable nodes: {floating}")
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "port", (plus, ground))

    @property
    def nodes(self) -> list[str]:
        names = {n for b in self.branches for n in b.nodes} | set(self.port)
        return sorted(names)

    def by_kind(self, kind) -> list[Branch]:
        return [b for b in self.branches if b.kind == kind]

    @cached_property
    def _stamps(self) -> _Stamps:
        # frozen, so the stamps can never go stale
        return _Stamps(self)

    # ------------------------------------------------------------------
    # JSON interchange:  {"branches": [{"id", "kind", "value", "nodes": [a, b]}],
    #                     "port": {"plus", "ground"}}

    @classmethod
    def from_dict(cls, data, where="netlist"):
        def fail(path, msg):
            raise ValueError(f"{where}: {path}: {msg}")

        if not isinstance(data, dict):
            fail("$", "expected a JSON object")
        if "branches" not in data:
            fail("branches", "missing required key")
        if not isinstance(data["branches"], list):
            fail("branches", "expected an array")
        branches = []
        for i, raw in enumerate(data["branches"]):
            path = f"branches[{i}]"
            if not isinstance(raw, dict):
                fail(path, "expected an object")
            for key in ("id", "kind", "value", "nodes"):
                if key not in raw:
                    fail(f"{path}.{key}", "missing required key")
            nodes = raw["nodes"]
            if not (isinstance(nodes, list) and len(nodes) == 2):
                fail(f"{path}.nodes", "expected an array of two node labels")
            if not isinstance(raw["value"], (int, float)) or isinstance(raw["value"], bool):
                fail(f"{path}.value", "expected a number")
            try:
                branches.append(
                    Branch(str(raw["id"]), str(raw["kind"]), float(raw["value"]),
                           (str(nodes[0]), str(nodes[1])))
                )
            except ValueError as exc:
                fail(path, str(exc))
        port = data.get("port")
        if not isinstance(port, dict) or "plus" not in port or "ground" not in port:
            fail("port", "expected an object with keys 'plus' and 'ground'")
        try:
            return cls(tuple(branches), (str(port["plus"]), str(port["ground"])))
        except ValueError as exc:
            fail("$", str(exc))

    def to_dict(self) -> dict:
        return {
            "branches": [
                {"id": b.id, "kind": b.kind, "value": b.value, "nodes": list(b.nodes)}
                for b in self.branches
            ],
            "port": {"plus": self.port[0], "ground": self.port[1]},
        }


@dataclass(frozen=True)
class BranchPhasors:
    """Per-branch voltage/current phasors of one spectral line."""

    omega: float
    port_voltage: complex
    port_current: complex
    voltage: dict[str, complex]
    current: dict[str, complex]


@dataclass(frozen=True)
class NetworkSolution:
    """Steady-state solution of a netlist under a multi-tone port voltage.

    ``branch_voltage`` / ``branch_current`` map branch ids to exact line
    spectra; ``per_line`` holds the raw phasors, one entry per source line.
    """

    netlist: Netlist
    source: LineSpectrum
    per_line: tuple[BranchPhasors, ...]
    branch_voltage: dict[str, LineSpectrum]
    branch_current: dict[str, LineSpectrum]
    port_current: LineSpectrum


class _Stamps:
    """The nodal system of one netlist, stamped once for every frequency.

    The unknowns are x = [node voltages (ground excluded), inductor
    currents in branch order, source current], and the system at omega is
    A(omega) x = e_src * v_port with A(omega) = g + 1j*omega*c.  On the
    nodes, g is the incidence matrix times the diagonal of resistor
    conductances times its transpose, and c the same with capacitances.
    Each inductor adds its incidence column and row to g and -L to its
    diagonal entry of c; the source adds its column and row to g.
    """

    def __init__(self, net: Netlist):
        plus, ground = net.port
        names = [n for n in net.nodes if n != ground] + [ground]
        at = {n: i for i, n in enumerate(names)}
        cols = np.arange(len(net.branches))
        incidence = np.zeros((len(names), cols.size))
        incidence[[at[b.nodes[0]] for b in net.branches], cols] = 1.0
        incidence[[at[b.nodes[1]] for b in net.branches], cols] = -1.0
        # the ground row is the reference potential and has no equation
        self.incidence = inc = incidence[:-1]
        self.ids = [b.id for b in net.branches]
        self.values = np.array([b.value for b in net.branches])
        kinds = np.array([b.kind for b in net.branches])
        self.resistor = res = kinds == RESISTOR
        self.capacitor = cap = kinds == CAPACITOR
        self.inductor = ind = kinds == INDUCTOR
        n = self.n_nodes = inc.shape[0]
        src = self.src = n + int(ind.sum())
        self.plus = at[plus]
        self.g = np.zeros((src + 1, src + 1))
        self.c = np.zeros_like(self.g)
        self.g[:n, :n] = (inc[:, res] / self.values[res]) @ inc[:, res].T
        self.c[:n, :n] = (inc[:, cap] * self.values[cap]) @ inc[:, cap].T
        self.g[:n, n:src] = inc[:, ind]
        self.g[n:src, :n] = inc[:, ind].T
        self.c[range(n, src), range(n, src)] = -self.values[ind]
        # ideal source: current unknown flows out of the + terminal into the net
        self.g[self.plus, src] = -1.0
        self.g[src, self.plus] = 1.0

    def branch_phasors(self, omega, x):
        """Branch voltages and currents, in branch order, from the solution x."""
        volts = self.incidence.T @ x[:self.n_nodes]
        amps = np.empty_like(volts)
        res, cap, ind = self.resistor, self.capacitor, self.inductor
        amps[res] = volts[res] / self.values[res]
        amps[cap] = 1j * omega * self.values[cap] * volts[cap]
        amps[ind] = x[self.n_nodes:self.src]
        return volts, amps


def _self_check(stamps, omega, a, x, volts, amps, v_port):
    """KCL at every non-ground node and V = Z*I per branch, both to 1e-10.

    The current sums are judged against the largest node row of |A|*|x|
    for the nodal matrix A and solution x: the magnitudes the solve added
    up there.  A line that drives no current anywhere leaves only
    round-off currents, so the currents alone are no scale.  Each
    branch-law gap is judged against the largest magnitude of its unit
    anywhere in the solution, so a branch that carries no current is held
    to the round-off of the whole network, not to its own zero.
    """
    port_current = x[stamps.src]
    flows = stamps.incidence @ amps
    flows[stamps.plus] -= port_current
    kcl_scale = (np.abs(a[:stamps.n_nodes]) @ np.abs(x)).max()
    if np.abs(flows).max() > _LAW_RTOL * max(kcl_scale, 1e-300):
        raise SingularNetworkError(omega, "current-law self-check failed")
    # R and L obey v = z*i with z = R or j*omega*L; C obeys i = z*v with z = j*omega*C
    cap = stamps.capacitor
    z = np.where(stamps.resistor, stamps.values, 1j * omega * stamps.values)
    gap = np.abs(np.where(cap, amps, volts) - z * np.where(cap, volts, amps))
    amp_scale = max(np.abs(amps).max(initial=abs(port_current)), 1e-300)
    volt_scale = max(np.abs(volts).max(initial=abs(v_port)), 1e-300)
    failed = gap > _LAW_RTOL * np.where(cap, amp_scale, volt_scale)
    if failed.any():
        first = stamps.ids[failed.argmax()]
        raise SingularNetworkError(omega, f"branch law failed for {first!r}")


def solve_frequency(net: Netlist, omega, v_port) -> BranchPhasors:
    """Solve one spectral line of the port voltage.

    Solves the modified nodal system A(omega) x = e_src * v_port of Ho,
    Ruehli and Brennan ("The modified nodal approach to network analysis",
    IEEE Trans. Circuits Syst., 1975), with A(omega) = G + j*omega*C from
    the netlist's stamps, which are built once per netlist.

    Raises SingularNetworkError when the nodal matrix is singular at this
    frequency (for example a subnetwork isolated by capacitors at DC).
    """
    if omega < 0.0:
        raise ValueError(f"omega must be >= 0, got {omega!r}")
    stamps = net._stamps
    a = stamps.g + 1j * omega * stamps.c
    rhs = np.zeros(a.shape[0], dtype=complex)
    rhs[stamps.src] = v_port
    # Admittance stamps span many orders of magnitude, so scale each row
    # to unit max before factoring; the pivot ratio then measures rank,
    # not stamp units.  An all-zero row is singular outright.
    row_scale = np.max(np.abs(a), axis=1)
    if row_scale.min() <= 0.0:
        raise SingularNetworkError(omega)
    try:
        with warnings.catch_warnings():
            # an exactly zero pivot only warns; the ratio test below rejects it
            warnings.simplefilter("ignore")
            lu, piv = linalg.lu_factor(a / row_scale[:, None], check_finite=False)
    except linalg.LinAlgError:
        raise SingularNetworkError(omega) from None
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= _PIVOT_RTOL * pivots.max():
        raise SingularNetworkError(omega)
    x = linalg.lu_solve((lu, piv), rhs / row_scale, check_finite=False)
    volts, amps = stamps.branch_phasors(omega, x)
    _self_check(stamps, omega, a, x, volts, amps, v_port)
    return BranchPhasors(
        omega=float(omega),
        port_voltage=complex(v_port),
        port_current=complex(x[stamps.src]),
        voltage=dict(zip(stamps.ids, volts.tolist())),
        current=dict(zip(stamps.ids, amps.tolist())),
    )


def solve(net: Netlist, source: LineSpectrum) -> NetworkSolution:
    """Solve every line of a volt-tagged source and assemble branch spectra."""
    if source.unit != VOLT:
        raise ValueError(f"source must be tagged {VOLT!r}, got {source.unit!r}")
    per_line = tuple(
        solve_frequency(net, ln.omega, ln.amplitude) for ln in source.lines
    )
    omegas = [ph.omega for ph in per_line]

    def spectrum(phasors, unit):
        return LineSpectrum.from_lines(zip(omegas, phasors), unit)

    return NetworkSolution(
        netlist=net,
        source=source,
        per_line=per_line,
        branch_voltage={
            b.id: spectrum([ph.voltage[b.id] for ph in per_line], VOLT)
            for b in net.branches
        },
        branch_current={
            b.id: spectrum([ph.current[b.id] for ph in per_line], AMPERE)
            for b in net.branches
        },
        port_current=spectrum([ph.port_current for ph in per_line], AMPERE),
    )


def driving_point_admittance(net: Netlist, omega) -> complex:
    """Port admittance Y(j*omega): port current drawn for a unit port voltage."""
    return solve_frequency(net, omega, 1.0).port_current
