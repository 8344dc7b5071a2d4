"""Single-port LTI RLC networks and their frequency-domain solution.

The load is a netlist of resistor/inductor/capacitor branches on named
nodes, driven by one ideal voltage source (the port) whose voltage does
not depend on the drawn current.  Each spectral line of the port voltage
is solved independently with modified nodal analysis (Ho, Ruehli and
Brennan, "The modified nodal approach to network analysis", IEEE Trans.
Circuits Syst., 1975); inductor currents are kept as explicit unknowns
so the DC line needs no special casing (an inductor is then a short, a
capacitor an open).  The nodal matrix is stamped once per netlist as two
real matrices, A(omega) = G + j*omega*C, and a line forms it in a work
array that each thread reuses from line to line, so a line costs one
in-place matrix sum and row scaling, one LAPACK solve (numpy's ``gesv``,
an LU factorisation with partial pivoting, which takes its own copy of
the matrix) and a few products with the complex incidence matrix for the
branch quantities and the self-checks: about 0.5 ms of CPU on a
40-section R-L-C-R ladder (122 unknowns), most of it in LAPACK, against
0.8 ms with fresh arrays per line.  The same solve carries two probe
columns, which give a lower estimate of the condition number that gates
near-singular lines.  ``solve`` stacks the per-line phasors once, the
branch voltages, branch currents and port current by lines, and keeps the
stack, read-only, on the solution; ``power._LineAmplitudes`` is its one
reader.  Every branch voltage and current is an exact
:class:`~pqbalance.spectrum.LineSpectrum`, built from one row of a copy
of that stack.
"""

from __future__ import annotations

import cmath
import math
import random
import threading
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .spectrum import AMPERE, VOLT, LineSpectrum

RESISTOR = "resistor"
INDUCTOR = "inductor"
CAPACITOR = "capacitor"
KINDS = (RESISTOR, INDUCTOR, CAPACITOR)

# Condition estimate (see solve_frequency) of the row-scaled nodal matrix
# above which a line is declared singular.  On a lossless series
# L = 1 mH, C = 1 uF across the port, driven at a relative detuning d from
# resonance, the estimate grows as 1/d: 2.64e13 at d = 1e-12 and 2.64e14
# at d = 1e-13, 0.52 of the exact kappa_1 there (5.04e13 and 5.05e14).
# The pivot-ratio test this gate replaced solved the first and flagged the
# second, switching between d = 4.5e-13 and 5.0e-13.  6.8e13 switches at
# d = 3.9e-13, a factor of 2.6 above the estimate at d = 1e-12 and 3.9
# below that at 1e-13; in kappa_1 that is a threshold of 1.3e14.  On the
# 3,000 seed-777 draws that tests/test_network.py samples, lines that
# solve estimate at most 1.1e5 and the near-singular ones at least 7.0e16.
_KAPPA_MAX = 6.8e13
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
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "port", (plus, ground))
        # the source joins the port nodes, so the walk starts from both
        floating = sorted(set(self.nodes) - self._reachable({plus, ground}))
        if floating:
            raise ValueError(f"netlist is not connected; unreachable nodes: {floating}")

    @property
    def nodes(self) -> list[str]:
        names = {n for b in self.branches for n in b.nodes} | set(self.port)
        return sorted(names)

    def by_kind(self, kind) -> list[Branch]:
        return [b for b in self.branches if b.kind == kind]

    def _reachable(self, starts, kinds=KINDS) -> set[str]:
        """The nodes joined to ``starts`` by paths of branches of the given kinds."""
        adjacency: dict[str, list[str]] = {}
        for b in self.branches:
            if b.kind in kinds:
                a, c = b.nodes
                adjacency.setdefault(a, []).append(c)
                adjacency.setdefault(c, []).append(a)
        seen = set(starts)
        stack = list(seen)
        while stack:
            for nxt in adjacency.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

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
                value = float(raw["value"])
            except OverflowError:  # an integer beyond the float range
                fail(f"{path}.value", "expected a finite number")
            try:
                branches.append(
                    Branch(str(raw["id"]), str(raw["kind"]), value,
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
    ``_phasors`` holds the same phasors stacked and read-only: the branch
    voltages, then the branch currents, in branch order, then the port
    current, each a row over the source's lines.
    """

    netlist: Netlist
    source: LineSpectrum
    per_line: tuple[BranchPhasors, ...]
    branch_voltage: dict[str, LineSpectrum]
    branch_current: dict[str, LineSpectrum]
    port_current: LineSpectrum
    _phasors: np.ndarray = field(compare=False, repr=False)

    def __setstate__(self, state):
        """Restore a copied or unpickled solution with its stack read-only."""
        self.__dict__.update(state)
        self._phasors.setflags(write=False)


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
        inc = incidence[:-1]
        # the branch and KCL products take complex phasors; numpy would cast
        # a real incidence to complex on every product
        self.incidence = inc.astype(complex)
        self.ids = [b.id for b in net.branches]
        values = np.array([b.value for b in net.branches])
        kinds = np.array([b.kind for b in net.branches])
        res, cap, ind = (kinds == RESISTOR), (kinds == CAPACITOR), (kinds == INDUCTOR)
        n = self.n_nodes = inc.shape[0]
        src = self.src = n + int(ind.sum())
        self.plus = at[plus]
        self.g = np.zeros((src + 1, src + 1))
        self.c = np.zeros_like(self.g)
        self.g[:n, :n] = (inc[:, res] / values[res]) @ inc[:, res].T
        self.c[:n, :n] = (inc[:, cap] * values[cap]) @ inc[:, cap].T
        self.g[:n, n:src] = inc[:, ind]
        self.g[n:src, :n] = inc[:, ind].T
        self.c[range(n, src), range(n, src)] = -values[ind]
        # ideal source: current unknown flows out of the + terminal into the net
        self.g[self.plus, src] = -1.0
        self.g[src, self.plus] = 1.0
        # what the per-line branch quantities and self-checks need of the
        # netlist: the branches of each kind and their values, and the
        # branch laws' impedances as resistance plus omega times 1j*L or 1j*C
        self.res_at, self.cap_at, self.ind_at = (np.flatnonzero(m) for m in (res, cap, ind))
        self.res_values, self.cap_values = values[res], values[cap]
        self.capacitor = cap
        self.law_resistance = np.where(res, values, 0.0).astype(complex)
        self.law_reactance = np.where(res, 0.0, 1j * values)
        # the right-hand sides of every line: the port's column, filled per
        # line, then the two probe columns of the condition estimate
        self.rhs = np.zeros((src + 1, 3), dtype=complex)
        self.rhs[:, 1:] = _probes(src + 1)

    def branch_phasors(self, omega, x):
        """Branch voltages and currents, in branch order, from the solution x."""
        volts = self.incidence.T @ x[:self.n_nodes]
        amps = np.empty_like(volts)
        amps[self.res_at] = volts[self.res_at] / self.res_values
        amps[self.cap_at] = 1j * omega * self.cap_values * volts[self.cap_at]
        amps[self.ind_at] = x[self.n_nodes:self.src]
        return volts, amps


def _self_check(stamps, omega, magnitude, x, volts, amps, v_port):
    """KCL at every non-ground node and V = Z*I per branch, both to 1e-10.

    The current sums are judged against the largest node row of |A|*|x|
    for the nodal matrix A (`magnitude` is |A|) and solution x: the
    magnitudes the solve added up there.  A line that drives no current
    anywhere leaves only round-off currents, so the currents alone are no
    scale.  Each branch-law gap is judged against the largest magnitude
    of its unit anywhere in the solution, so a branch that carries no
    current is held to the round-off of the whole network, not to its own
    zero.
    """
    port_current = x[stamps.src]
    flows = stamps.incidence @ amps
    flows[stamps.plus] -= port_current
    kcl_scale = (magnitude[:stamps.n_nodes] @ np.abs(x)).max()
    if np.abs(flows).max() > _LAW_RTOL * max(kcl_scale, 1e-300):
        raise SingularNetworkError(omega, "current-law self-check failed")
    # R and L obey v = z*i with z = R or j*omega*L; C obeys i = z*v with z = j*omega*C
    cap = stamps.capacitor
    z = stamps.law_resistance + omega * stamps.law_reactance
    gap = np.abs(np.where(cap, amps, volts) - z * np.where(cap, volts, amps))
    amp_scale = max(np.abs(amps).max(initial=abs(port_current)), 1e-300)
    volt_scale = max(np.abs(volts).max(initial=abs(v_port)), 1e-300)
    failed = gap > np.where(cap, _LAW_RTOL * amp_scale, _LAW_RTOL * volt_scale)
    if failed.any():
        first = stamps.ids[failed.argmax()]
        raise SingularNetworkError(omega, f"branch law failed for {first!r}")


# Per-thread work arrays of solve_frequency: A(omega) and |A(omega)| for the
# last unknown count solved on the thread.  Kept off the netlist so that a
# solved netlist still pickles and copies, and per thread so that threads
# may solve concurrently.
_work = threading.local()


def _work_arrays(size):
    """This thread's (size, size) complex and real work arrays."""
    arrays = getattr(_work, "arrays", None)
    if arrays is None or arrays[1].shape[0] != size:
        arrays = _work.arrays = (np.empty((size, size), complex), np.empty((size, size)))
    return arrays


@cache
def _probes(n):
    """Two fixed Gaussian columns of length n, each scaled to unit 1-norm,
    for the condition estimate.

    Drawn row by row from the standard library's generator, which numpy
    has imported already; numpy.random would add its own import to a
    process's first solve.
    """
    draw = random.Random(0).gauss
    probes = np.array([[draw(0.0, 1.0), draw(0.0, 1.0)] for _ in range(n)])
    probes /= np.abs(probes).sum(axis=0)
    probes.setflags(write=False)
    return probes


def solve_frequency(net: Netlist, omega, v_port) -> BranchPhasors:
    """Solve one spectral line of the port voltage.

    Solves the modified nodal system A(omega) x = e_src * v_port of Ho,
    Ruehli and Brennan ("The modified nodal approach to network analysis",
    IEEE Trans. Circuits Syst., 1975), with A(omega) = G + j*omega*C from
    the netlist's stamps, which are built once per netlist.

    Raises SingularNetworkError when the nodal matrix is singular at this
    frequency (for example a subnetwork isolated by capacitors at DC), or
    so near it that its condition estimate exceeds _KAPPA_MAX.
    """
    if not (math.isfinite(omega) and omega >= 0.0):
        raise ValueError(f"omega must be finite and >= 0, got {omega!r}")
    if not cmath.isfinite(v_port):
        raise ValueError(f"v_port must be finite, got {v_port!r}")
    stamps = net._stamps
    a, magnitude = _work_arrays(stamps.src + 1)
    # a = G + 1j*omega*C, by the same operations as the plain expression
    np.multiply(stamps.c, 1j * omega, out=a)
    np.add(stamps.g, a, out=a)
    # Admittance stamps span many orders of magnitude, so scale each row
    # to unit max before solving; the condition estimate then measures
    # rank, not stamp units.  An all-zero row is singular outright.
    np.abs(a, out=magnitude)
    row_scale = magnitude.max(axis=1)
    if row_scale.min() <= 0.0:
        raise SingularNetworkError(omega)
    rhs = stamps.rhs.copy()
    rhs[stamps.src, 0] = v_port
    rhs[:, 0] /= row_scale
    np.divide(a, row_scale[:, None], out=a)
    try:
        solved = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:  # an exactly zero pivot
        raise SingularNetworkError(omega) from None
    x = solved[:, 0]
    # For the row-scaled matrix S and a probe p with ||p||_1 = 1,
    # ||S||_1 ||S^-1 p||_1 never exceeds kappa_1(S), and for a random p it
    # falls short by a modest factor only with small probability (Dixon,
    # SIAM J. Numer. Anal. 20(4), 1983)
    norm = ((1.0 / row_scale) @ magnitude).max()
    if norm * np.abs(solved[:, 1:]).sum(axis=0).max() > _KAPPA_MAX:
        raise SingularNetworkError(omega)
    volts, amps = stamps.branch_phasors(omega, x)
    _self_check(stamps, omega, magnitude, x, volts, amps, v_port)
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
        solve_frequency(net, omega, amplitude)
        for omega, amplitude in zip(source.omegas.tolist(), source.amplitudes.tolist())
    )
    # The phasors stacked once.  The spectra hold rows of one copy, since
    # _on_lines and _store normalise their amplitudes in place.
    n = len(net.branches)
    stack = np.array([[*ph.voltage.values(), *ph.current.values(), ph.port_current]
                      for ph in per_line], complex).reshape(-1, 2 * n + 1).T
    stack.setflags(write=False)
    rows, omegas, ids = stack.copy(), source.omegas, [b.id for b in net.branches]

    def spectrum(row, unit):
        return object.__new__(LineSpectrum)._on_lines(omegas, row, unit)

    return NetworkSolution(
        netlist=net,
        source=source,
        per_line=per_line,
        branch_voltage={bid: spectrum(row, VOLT) for bid, row in zip(ids, rows[:n])},
        branch_current={bid: spectrum(row, AMPERE) for bid, row in zip(ids, rows[n:-1])},
        port_current=spectrum(rows[-1], AMPERE),
        _phasors=stack,
    )
