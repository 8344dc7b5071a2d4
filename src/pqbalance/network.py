"""Single-port LTI RLC networks and their frequency-domain solution.

The load is a netlist of resistor/inductor/capacitor branches on named
nodes, driven by one ideal voltage source (the port) whose voltage does
not depend on the drawn current.  Each spectral line of the port voltage
is solved independently with modified nodal analysis; inductor currents
are kept as explicit unknowns so the DC line needs no special casing
(an inductor is then a short, a capacitor an open).  Superposing the
per-line phasors yields every branch voltage and current as an exact
:class:`~pqbalance.spectrum.LineSpectrum`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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


class _MnaSystem:
    """Index bookkeeping for one netlist: node rows, inductor and source columns."""

    def __init__(self, net: Netlist):
        self.net = net
        plus, ground = net.port
        self.ground = ground
        self.node_index = {n: i for i, n in enumerate(x for x in net.nodes if x != ground)}
        self.inductors = net.by_kind(INDUCTOR)
        self.n_nodes = len(self.node_index)
        self.ind_index = {b.id: self.n_nodes + k for k, b in enumerate(self.inductors)}
        self.src_index = self.n_nodes + len(self.inductors)
        self.size = self.src_index + 1
        self.plus_row = self.node_index[plus]

    def matrix(self, omega) -> np.ndarray:
        a = np.zeros((self.size, self.size), dtype=complex)
        idx = self.node_index
        for b in self.net.branches:
            na, nb = b.nodes
            ia = idx.get(na)
            ib = idx.get(nb)
            if b.kind == INDUCTOR:
                k = self.ind_index[b.id]
                if ia is not None:
                    a[ia, k] += 1.0
                    a[k, ia] += 1.0
                if ib is not None:
                    a[ib, k] -= 1.0
                    a[k, ib] -= 1.0
                a[k, k] -= 1j * omega * b.value
            else:
                y = 1.0 / b.value if b.kind == RESISTOR else 1j * omega * b.value
                if ia is not None:
                    a[ia, ia] += y
                if ib is not None:
                    a[ib, ib] += y
                if ia is not None and ib is not None:
                    a[ia, ib] -= y
                    a[ib, ia] -= y
        # ideal source: current unknown flows out of the + terminal into the net
        a[self.plus_row, self.src_index] -= 1.0
        a[self.src_index, self.plus_row] += 1.0
        return a


def _branch_quantities(system, b, omega, volts, currents_col):
    idx = system.node_index
    na, nb = b.nodes
    va = volts[idx[na]] if na in idx else 0.0
    vb = volts[idx[nb]] if nb in idx else 0.0
    v = va - vb
    if b.kind == RESISTOR:
        i = v / b.value
    elif b.kind == CAPACITOR:
        i = 1j * omega * b.value * v
    else:
        i = currents_col[system.ind_index[b.id]]
    return v, i


def _self_check(system, phasors):
    """KCL at every non-ground node and V = Z*I per branch, both to 1e-10.

    Each gap is judged against the largest magnitude of its unit anywhere
    in the solution, so a branch that carries no current is held to the
    round-off of the whole network, not to its own zero.
    """
    net = system.net
    flows = {n: 0.0 + 0.0j for n in system.node_index}
    amp_scale = max(
        [abs(i) for i in phasors.current.values()] + [abs(phasors.port_current)],
        default=0.0,
    )
    volt_scale = max(
        [abs(v) for v in phasors.voltage.values()] + [abs(phasors.port_voltage)],
        default=0.0,
    )
    for b in net.branches:
        na, nb = b.nodes
        i = phasors.current[b.id]
        if na in flows:
            flows[na] += i
        if nb in flows:
            flows[nb] -= i
    flows[net.port[0]] -= phasors.port_current
    worst = max((abs(v) for v in flows.values()), default=0.0)
    if worst > _LAW_RTOL * max(amp_scale, 1e-300):
        raise SingularNetworkError(phasors.omega, "current-law self-check failed")
    for b in net.branches:
        v = phasors.voltage[b.id]
        i = phasors.current[b.id]
        if b.kind == RESISTOR:
            gap, law_scale = abs(v - b.value * i), volt_scale
        elif b.kind == INDUCTOR:
            gap, law_scale = abs(v - 1j * phasors.omega * b.value * i), volt_scale
        else:
            gap, law_scale = abs(i - 1j * phasors.omega * b.value * v), amp_scale
        if gap > _LAW_RTOL * max(law_scale, 1e-300):
            raise SingularNetworkError(phasors.omega, f"branch law failed for {b.id!r}")


def solve_frequency(net: Netlist, omega, v_port) -> BranchPhasors:
    """Solve one spectral line of the port voltage.

    Raises SingularNetworkError when the nodal matrix is singular at this
    frequency (for example a subnetwork isolated by capacitors at DC).
    """
    if omega < 0.0:
        raise ValueError(f"omega must be >= 0, got {omega!r}")
    system = _MnaSystem(net)
    a = system.matrix(omega)
    rhs = np.zeros(system.size, dtype=complex)
    rhs[system.src_index] = v_port
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
    voltage = {}
    current = {}
    for b in net.branches:
        v, i = _branch_quantities(system, b, omega, x, x)
        voltage[b.id] = complex(v)
        current[b.id] = complex(i)
    phasors = BranchPhasors(
        omega=float(omega),
        port_voltage=complex(v_port),
        port_current=complex(x[system.src_index]),
        voltage=voltage,
        current=current,
    )
    _self_check(system, phasors)
    return phasors


def solve(net: Netlist, source: LineSpectrum) -> NetworkSolution:
    """Solve every line of a volt-tagged source and assemble branch spectra."""
    if source.unit != VOLT:
        raise ValueError(f"source must be tagged {VOLT!r}, got {source.unit!r}")
    per_line = tuple(
        solve_frequency(net, ln.omega, ln.amplitude) for ln in source.lines
    )
    v_lines: dict[str, list] = {b.id: [] for b in net.branches}
    i_lines: dict[str, list] = {b.id: [] for b in net.branches}
    port_lines = []
    for ph in per_line:
        for b in net.branches:
            v_lines[b.id].append((ph.omega, ph.voltage[b.id]))
            i_lines[b.id].append((ph.omega, ph.current[b.id]))
        port_lines.append((ph.omega, ph.port_current))
    branch_voltage = {
        bid: LineSpectrum.from_lines(pairs, VOLT) for bid, pairs in v_lines.items()
    }
    branch_current = {
        bid: LineSpectrum.from_lines(pairs, AMPERE) for bid, pairs in i_lines.items()
    }
    return NetworkSolution(
        netlist=net,
        source=source,
        per_line=per_line,
        branch_voltage=branch_voltage,
        branch_current=branch_current,
        port_current=LineSpectrum.from_lines(port_lines, AMPERE),
    )


def driving_point_admittance(net: Netlist, omega) -> complex:
    """Port admittance Y(j*omega): port current drawn for a unit port voltage."""
    return solve_frequency(net, omega, 1.0).port_current
