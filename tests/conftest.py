"""Seeded random generators shared by the test suites.

All ensembles are driven by explicit numpy Generators so every run sees
the same cases.  Netlists are built as a random spanning chain over a
small node set plus extra random branches, which keeps them connected by
construction; cases whose nodal system is singular at a source frequency
are rejected and redrawn.
"""

import math
import os

# The oracle's matrices are at most a few dozen rows, so a BLAS thread
# hand-off costs more than the product; pin one thread before numpy loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest

from pqbalance import power, spectrum
from pqbalance.network import Branch, Netlist, SingularNetworkError, solve
from pqbalance.spectrum import VOLT, LineSpectrum

KINDS = ("resistor", "inductor", "capacitor")


def random_source(rng, max_lines=8, amp_span=(0.1, 10.0), allow_dc=False):
    """Random commensurate voltage with 1..max_lines harmonic lines."""
    base = 10.0 ** rng.uniform(-1.0, 1.0)
    count = int(rng.integers(1, max_lines + 1))
    harmonics = rng.choice(np.arange(1, 13), size=count, replace=False)
    lo, hi = math.log10(amp_span[0]), math.log10(amp_span[1])
    pairs = []
    for n in sorted(int(h) for h in harmonics):
        peak = 10.0 ** rng.uniform(lo, hi)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        pairs.append((n * base, peak * complex(math.cos(phase), math.sin(phase))))
    if allow_dc and rng.random() < 0.4:
        pairs.insert(0, (0.0, rng.uniform(-5.0, 5.0)))
    return LineSpectrum.from_lines(pairs, VOLT)


def random_netlist(rng, max_branches=10, value_span=(1e-2, 1e2),
                   require_resistor=False):
    """Random connected RLC netlist across a two-terminal port."""
    extra = int(rng.integers(0, 4))
    nodes = ["gnd", "port"] + [f"n{i}" for i in range(extra)]
    spanning = len(nodes) - 1
    count = int(rng.integers(spanning, max_branches + 1)) if spanning <= max_branches \
        else spanning
    count = max(count, 1)
    order = list(rng.permutation(nodes))
    lo, hi = math.log10(value_span[0]), math.log10(value_span[1])
    branches = []
    for k in range(count):
        if k < spanning:
            pair = (order[k], order[k + 1])
        else:
            a, b = rng.choice(len(nodes), size=2, replace=False)
            pair = (nodes[a], nodes[b])
        kind = KINDS[int(rng.integers(0, 3))]
        value = 10.0 ** rng.uniform(lo, hi)
        branches.append(Branch(f"b{k}", kind, value, pair))
    if require_resistor and not any(b.kind == "resistor" for b in branches):
        b = branches[0]
        branches[0] = Branch(b.id, "resistor", b.value, b.nodes)
    return Netlist(tuple(branches), ("port", "gnd"))


def solved_case(rng, max_branches=10, value_span=(1e-2, 1e2), max_lines=8,
                amp_span=(0.1, 10.0), allow_dc=False, require_resistor=False,
                source=None, attempts=50):
    """Draw a solved random case, rejecting singular net/source pairings.

    The returned NetworkSolution carries its netlist and source; pass
    ``source`` to hold the excitation fixed while the net varies.
    """
    for _ in range(attempts):
        net = random_netlist(rng, max_branches, value_span, require_resistor)
        src = source if source is not None else random_source(
            rng, max_lines, amp_span, allow_dc)
        try:
            return solve(net, src)
        except SingularNetworkError:
            continue
    raise RuntimeError("could not draw a solvable random case")


def port_power_reference(sol, t):
    """Real and imaginary port power at s = 0, summed line by line with ``np.exp``.

    p = (u i + u_h i_h)/2 and q = (u_h i - u i_h)/2, where u_h and i_h are
    the Hilbert companions: a line Re{A e^{jwt}} has companion Im{A e^{jwt}},
    and a DC line has none.  No kernel, product spectrum or Hilbert
    transform of the package takes part.
    """
    def wave_and_companion(spec):
        terms = np.exp(1j * np.multiply.outer(t, spec.omegas)) * spec.amplitudes
        return terms.real.sum(axis=-1), terms[..., spec.omegas > 0.0].imag.sum(axis=-1)

    (u, u_h), (i, i_h) = wave_and_companion(sol.source), wave_and_companion(sol.port_current)
    return 0.5 * (u * i + u_h * i_h), 0.5 * (u_h * i - u * i_h)


def reference_product(f, g, unit=""):
    """The product f g of two spectra by a two-sided convolution over lattice indices.

    ``f`` and ``g`` may also be equal-length lists of spectra, whose
    products f_i g_i are summed.  Each operand's lines give two-sided
    coefficients by integer index: a DC line c_0 = A_0, a line at index
    n > 0 c_n = A/2 and c_-n = conj(A)/2.  A dict keyed by index sums every
    c_m d_n at m + n in Python complex arithmetic; index n > 0 becomes the
    line 2 c_n and index 0 the DC line.  All operands meet on the finest
    of their bases, which must divide each other one by an integer.  No
    product code of the package takes part: the result is stored on that
    base as ``LineSpectrum`` stores any lines, with no lattice search.
    """
    pairs = list(zip(f, g, strict=True)) if isinstance(f, list) else [(f, g)]
    base = min((h.omega0 for pair in pairs for h in pair if h.omega0 is not None),
               default=None)

    def coefficients(h):
        ratio = 1 if h.omega0 in (None, base) else round(h.omega0 / base)
        assert h.omega0 is None or abs(h.omega0 - ratio * base) <= 1e-9 * h.omega0
        coef = {}
        for n, a in zip(h._keys.tolist(), h._amps.tolist()):
            if n == 0:
                coef[0] = complex(a.real)
            else:
                coef[n * ratio], coef[-n * ratio] = a / 2.0, a.conjugate() / 2.0
        return coef

    total = {}
    for a, b in pairs:
        for m, c in coefficients(a).items():
            for n, d in coefficients(b).items():
                total[m + n] = total.get(m + n, 0.0) + c * d
    keys = sorted(n for n in total if n >= 0)
    amps = [2.0 * total[n] if n else complex(total[n].real) for n in keys]
    keys = np.array(keys, dtype=np.int64)
    return object.__new__(LineSpectrum)._store(
        keys, keys * (base or 0.0), np.array(amps, dtype=complex), unit, base)


@pytest.fixture
def rng():
    return np.random.default_rng(20230823)


@pytest.fixture
def flicker_source():
    """10*sqrt(2)*(1 + 0.1 cos 0.2t) cos t as exact lines."""
    return LineSpectrum.am_modulated(10.0 * math.sqrt(2.0), 1.0, 0.1, 0.2, VOLT)


@pytest.fixture
def flicker_netlist():
    """Reference load for the benchmark source: 10 ohm parallel 0.3 F."""
    return Netlist(
        (
            Branch("r1", "resistor", 10.0, ("a", "0")),
            Branch("c1", "capacitor", 0.3, ("a", "0")),
        ),
        ("a", "0"),
    )


@pytest.fixture
def lattice_searches(monkeypatch):
    """Sizes of the lattice searches run over non-empty frequency lists.

    A spectrum without positive lines, such as ``LineSpectrum.dc``,
    searches an empty list, which costs nothing and is not recorded.
    ``LineSpectrum.zero`` returns before the search.
    """
    sizes = []
    search = spectrum._find_lattice

    def counted(omegas):
        if len(omegas):
            sizes.append(len(omegas))
        return search(omegas)

    monkeypatch.setattr(spectrum, "_find_lattice", counted)
    return sizes


@pytest.fixture
def line_objects(monkeypatch):
    """SpectralLine objects constructed while the test runs.

    A ``LineSpectrum`` stores its lines as arrays and builds these objects
    only when ``lines`` is read, so a test can assert that a code path
    never reads it.
    """
    built = []
    init = spectrum.SpectralLine.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(spectrum.SpectralLine, "__init__", counted)
    return built


@pytest.fixture
def kernel_calls(monkeypatch):
    """Result shapes of the (t, s) grid evaluations run by ``spectrum._analytic``.

    Calls at a single scale, as ``evaluate`` and ``analytic_at`` make
    them, are not recorded.
    """
    shapes = []
    kernel = spectrum._analytic

    def counted(omegas, amps, t, s, phase=None):
        out = kernel(omegas, amps, t, s, phase)
        if np.ndim(s):
            shapes.append(out.shape)
        return out

    monkeypatch.setattr(spectrum, "_analytic", counted)
    return shapes


@pytest.fixture
def line_tables(monkeypatch):
    """The solutions of the ``power._LineAmplitudes`` tables built while the test runs."""
    built = []

    class Counted(power._LineAmplitudes):
        def __init__(self, sol):
            built.append(sol)
            super().__init__(sol)

    monkeypatch.setattr(power, "_LineAmplitudes", Counted)
    return built
