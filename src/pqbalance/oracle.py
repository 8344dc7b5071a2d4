"""Brute-force validators for the exact frequency-domain machinery.

Everything here recomputes some quantity by a deliberately different
route: implicit time stepping instead of phasor solves, FFT bin surgery
instead of line-wise quadrature rotation, direct numerical integration
of the complex-time kernel instead of its closed form, and plain sample
averaging instead of exact DC extraction.  The assembly of the
time-domain equations is written out here from scratch on purpose; it
shares no code with the frequency-domain solver it is meant to check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .network import CAPACITOR, INDUCTOR, RESISTOR, Netlist, SingularNetworkError
from .spectrum import VOLT, ComplexTimePoint, LineSpectrum, SampledSignal

# Relative drift between the last two integrated periods above which the
# settled waveform is considered still transient.
DRIFT_RTOL = 1e-6
# Steps per block of the block-state-space recursion: each block's forced
# response is one product with a Toeplitz matrix of this order.
_BLOCK = 256
# Blocks per chunk of source samples evaluated at once; bounds the
# (samples x lines) temporaries of LineSpectrum.evaluate.
_CHUNK_BLOCKS = 64


class TransientWarning(UserWarning):
    """The integrated waveform may still contain transient content."""


@dataclass(frozen=True)
class OdeState:
    """Energy-storage state at one instant: inductor currents, capacitor voltages."""

    inductor_currents: dict[str, float]
    capacitor_voltages: dict[str, float]
    time: float


@dataclass(frozen=True)
class QuadratureConfig:
    """Window and panel count for direct integration of the 1/t kernel."""

    half_width: float
    panels: int = 8192
    rule: str = "simpson"

    def __post_init__(self):
        if not (math.isfinite(self.half_width) and self.half_width > 0.0):
            raise ValueError(f"half_width must be > 0, got {self.half_width!r}")
        if self.panels < 2 or self.panels % 2 != 0:
            raise ValueError(f"panels must be even and >= 2, got {self.panels!r}")
        if self.rule != "simpson":
            raise ValueError(f"unknown quadrature rule {self.rule!r}")


# ----------------------------------------------------------------------
# time-domain integration


def _time_domain_matrices(net: Netlist):
    """Assemble G x + C x' = e_src * u(t) with x = [node volts, L currents, i_src]."""
    plus, ground = net.port
    names = [n for n in net.nodes if n != ground]
    node_at = {n: i for i, n in enumerate(names)}
    inductors = net.by_kind(INDUCTOR)
    ind_at = {b.id: len(names) + k for k, b in enumerate(inductors)}
    src = len(names) + len(inductors)
    size = src + 1
    g = np.zeros((size, size))
    c = np.zeros((size, size))
    for b in net.branches:
        ia = node_at.get(b.nodes[0])
        ib = node_at.get(b.nodes[1])
        if b.kind == RESISTOR:
            y = 1.0 / b.value
            for i, j, sgn in ((ia, ia, 1.0), (ib, ib, 1.0), (ia, ib, -1.0), (ib, ia, -1.0)):
                if i is not None and j is not None:
                    g[i, j] += sgn * y
        elif b.kind == CAPACITOR:
            for i, j, sgn in ((ia, ia, 1.0), (ib, ib, 1.0), (ia, ib, -1.0), (ib, ia, -1.0)):
                if i is not None and j is not None:
                    c[i, j] += sgn * b.value
        else:
            k = ind_at[b.id]
            if ia is not None:
                g[ia, k] += 1.0
                g[k, ia] += 1.0
            if ib is not None:
                g[ib, k] -= 1.0
                g[k, ib] -= 1.0
            c[k, k] -= b.value
    g[node_at[plus], src] -= 1.0
    g[src, node_at[plus]] += 1.0
    return g, c, node_at, ind_at, src


def _inductor_bridge(net: Netlist) -> bool:
    """True when inductor branches alone connect the two port nodes.

    Such a path closes a resistance-free loop through the driving source,
    so whatever constant current the start-up transient deposits in it
    circulates forever and shows up as a port-current offset.
    """
    parent: dict[str, str] = {}

    def find(node):
        while parent.setdefault(node, node) != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for b in net.by_kind(INDUCTOR):
        ra, rb = find(b.nodes[0]), find(b.nodes[1])
        if ra != rb:
            parent[ra] = rb
    return find(net.port[0]) == find(net.port[1])


def _factored(mat, rate):
    """LU-based solver for an implicit-step matrix, with a hard singularity gate.

    The step matrix mixes conductance stamps with capacitance stamps
    carrying a 1/dt factor, so raw rows can sit many orders of magnitude
    apart and pivot sizes would reflect stamp units, not rank.  Each row
    is scaled to unit max first; the pivot-ratio test then flags genuine
    singularity only.  Returns a function mapping a right-hand side (1-d
    or 2-d) to the solution.
    """
    row_scale = np.max(np.abs(mat), axis=1)
    if row_scale.min() <= 0.0:
        raise SingularNetworkError(rate, "implicit step matrix is singular")
    try:
        with warnings.catch_warnings():
            # an exactly zero pivot only warns; the ratio test below rejects it
            warnings.simplefilter("ignore")
            lu, piv = linalg.lu_factor(mat / row_scale[:, None], check_finite=False)
    except linalg.LinAlgError:
        raise SingularNetworkError(rate, "implicit step matrix is singular") from None
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= 1e-12 * pivots.max():
        raise SingularNetworkError(rate, "implicit step matrix is singular")

    def solve_with(rhs):
        balanced = rhs / (row_scale[:, None] if rhs.ndim == 2 else row_scale)
        return linalg.lu_solve((lu, piv), balanced, check_finite=False)

    return solve_with


def _block_stepper(step, drive, out):
    """Block-state-space form of z_n = step @ z_{n-1} + drive * u_n.

    Over a block of K = _BLOCK steps from state z, the outputs
    y_{n+k} = z_{n+k}[out] are free @ z + toeplitz @ u_blk, where row k of
    `free` is row `out` of step^(k+1) and `toeplitz` is lower triangular
    in the Markov parameters h_j = (step^j drive)[out]; the state after
    the block is step^K z + control @ u_blk, with column j of `control`
    equal to step^(K-1-j) drive (Burrus, "Block implementation of digital
    filters", IEEE Trans. Circuit Theory, 1971).  Returns a function
    mapping (z, u) to the outputs at the len(u) steps driven by u and the
    state after them.

    The powers are formed in np.longdouble and rounded once.  Formed in
    float64, step^K would carry about K roundings along a slowly decaying
    mode, and every hop would apply that same error again, so it would
    grow with the hop count.  Where longdouble is float64 the operators
    are still right, to that lesser accuracy.
    """
    size = step.shape[0]
    wide = step.astype(np.longdouble)
    free = np.empty((_BLOCK, size), dtype=np.longdouble)
    pushed = np.empty((size, _BLOCK), dtype=np.longdouble)
    row = np.zeros(size, dtype=np.longdouble)
    row[out] = 1.0
    col = drive.astype(np.longdouble)
    for k in range(_BLOCK):
        pushed[:, k] = col
        col = wide @ col
        row = row @ wide
        free[k] = row
    free, pushed = free.astype(float), pushed.astype(float)
    toeplitz = linalg.toeplitz(pushed[out], np.zeros(_BLOCK))
    control = pushed[:, ::-1]
    hop = np.linalg.matrix_power(wide, _BLOCK).astype(float)

    def advance(z, u):
        full, rest = divmod(u.size, _BLOCK)
        blocks = u[:full * _BLOCK].reshape(full, _BLOCK)
        starts = np.empty((full, size))
        for b, kick in enumerate(blocks @ control.T):
            starts[b] = z
            z = hop @ z + kick
        y = np.empty(u.size)
        y[:full * _BLOCK] = (starts @ free.T + blocks @ toeplitz.T).ravel()
        if rest:
            tail = u[full * _BLOCK:]
            y[full * _BLOCK:] = free[:rest] @ z + toeplitz[:rest, :rest] @ tail
            z = np.linalg.matrix_power(wide, rest).astype(float) @ z + control[:, -rest:] @ tail
        return y, z

    return advance


def ode_transient(net: Netlist, source: LineSpectrum, periods=50, steps_per_period=4096):
    """Integrate the network from rest; return the full port current and final state.

    Uses the two-step backward-differentiation rule, primed by one
    backward-Euler step.  Both are stiffly stable, and unlike an averaged
    (trapezoid-style) rule the backward family also kills the parasitic
    modes of the constraint rows, which carry no dynamics and would
    otherwise ring at the Nyquist rate or grow without bound (a capacitor
    directly across the port is the worst case).  Second-order accuracy
    is kept for the physical modes.  The step maps are affine with
    constant matrices, factored once.  The two-step recursion is run as
    a one-step map on the stacked state [x_n; x_{n-1}] in the
    block-state-space form of Burrus (IEEE Trans. Circuit Theory, 1971):
    each block of 256 steps is a few matrix products, and only the
    hop from one block's start state to the next is sequential.  The
    returned signal starts at t = 0 and has periods*steps_per_period + 1
    samples.
    """
    if source.unit != VOLT:
        raise ValueError(f"source must be tagged {VOLT!r}, got {source.unit!r}")
    for name, count in (("periods", periods), ("steps_per_period", steps_per_period)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {count!r}")
    if periods < 10:
        raise ValueError(f"need at least 10 periods of settling, got {periods!r}")
    if steps_per_period < 2:
        raise ValueError("steps_per_period must be >= 2")
    if not net.by_kind(RESISTOR):
        warnings.warn(
            "network has no resistive branch; transients cannot decay",
            TransientWarning,
            stacklevel=2,
        )
    elif _inductor_bridge(net):
        warnings.warn(
            "inductor-only path bridges the port; the start-up leaves a "
            "constant current offset that cannot decay",
            TransientWarning,
            stacklevel=2,
        )
    period = source.period
    if period is None:
        period = 2.0 * math.pi  # constant source, any settling window works
    dt = period / steps_per_period
    g, c, node_at, ind_at, src = _time_domain_matrices(net)
    size = g.shape[0]

    rhs_vec = np.zeros(size)
    rhs_vec[src] = 1.0
    start = _factored(g + c / dt, 1.0 / dt)
    main = _factored(g + (1.5 / dt) * c, 1.5 / dt)
    start_drive = start(rhs_vec)
    two_back = main((2.0 / dt) * c)
    one_back = main((-0.5 / dt) * c)
    drive = main(rhs_vec)
    advance = _block_stepper(
        np.block([[two_back, one_back], [np.eye(size), np.zeros((size, size))]]),
        np.concatenate([drive, np.zeros(size)]),
        src,
    )

    n_steps = periods * steps_per_period
    x = start_drive * source.evaluate(dt)
    port = np.empty(n_steps + 1)
    port[0] = 0.0
    port[1] = x[src]
    z = np.concatenate([x, np.zeros(size)])
    chunk = _CHUNK_BLOCKS * _BLOCK
    for lo in range(2, n_steps + 1, chunk):
        hi = min(lo + chunk, n_steps + 1)
        port[lo:hi], z = advance(z, source.evaluate(dt * np.arange(lo, hi)))
    x = z[:size]

    def volt_of(name):
        return x[node_at[name]] if name in node_at else 0.0

    state = OdeState(
        inductor_currents={bid: float(x[k]) for bid, k in ind_at.items()},
        capacitor_voltages={
            b.id: float(volt_of(b.nodes[0]) - volt_of(b.nodes[1]))
            for b in net.by_kind(CAPACITOR)
        },
        time=float(dt * n_steps),
    )
    return SampledSignal(0.0, dt, port), state


def ode_steady_state(net: Netlist, source: LineSpectrum, periods=50,
                     steps_per_period=4096) -> SampledSignal:
    """Settled port current over the final period, from time-domain integration.

    Integrates `periods` common periods from rest and returns the last
    one.  If the last two periods still differ by more than DRIFT_RTOL
    relative, a TransientWarning is issued; with the default 50 periods
    that points at a nearly lossless network.
    """
    full, _ = ode_transient(net, source, periods, steps_per_period)
    spp = steps_per_period
    start = (periods - 1) * spp
    last = full.samples[start:start + spp]
    prev = full.samples[start - spp:start]
    scale = float(np.max(np.abs(last), initial=0.0))
    if float(np.max(np.abs(last - prev), initial=0.0)) > DRIFT_RTOL * max(scale, 1e-300):
        warnings.warn(
            "waveform still drifting after the settling run",
            TransientWarning,
            stacklevel=2,
        )
    return SampledSignal(start * full.dt, full.dt, last)


# ----------------------------------------------------------------------
# discrete Hilbert transform


def fft_hilbert(x: SampledSignal) -> SampledSignal:
    """Quadrature companion of a sampled periodic signal via FFT bin surgery.

    Negative-frequency bins are zeroed, positive bins doubled, and the DC
    and Nyquist bins kept at unit weight; the imaginary part of the
    inverse transform is the discrete Hilbert transform.  The window must
    hold a power-of-two sample count and span a whole number of periods
    for the bins to mean what they should.
    """
    n = len(x)
    if n < 2 or n & (n - 1):
        raise ValueError(f"sample count must be a power of two, got {n}")
    spectrum_bins = np.fft.fft(x.samples)
    weights = np.zeros(n)
    weights[0] = 1.0
    weights[1:n // 2] = 2.0
    weights[n // 2] = 1.0
    analytic = np.fft.ifft(spectrum_bins * weights)
    return SampledSignal(x.t0, x.dt, analytic.imag.copy())


# ----------------------------------------------------------------------
# direct quadrature of the complex-time kernel


def quadrature_analytic(f: LineSpectrum, p: ComplexTimePoint,
                        cfg: QuadratureConfig) -> complex:
    """Windowed Simpson integration of (j/pi) * f(t') / (t + js - t').

    Converges to the closed-form analytic signal as the window grows,
    with an O(1/half_width) truncation tail; see quadrature_tail_bound.
    Needs p.s > 0 so the kernel stays smooth on the whole window.
    """
    if p.s <= 0.0:
        raise ValueError("quadrature needs s > 0; the s = 0 kernel is singular")
    grid = np.linspace(p.t - cfg.half_width, p.t + cfg.half_width, cfg.panels + 1)
    tau = p.t + 1j * p.s
    values = (1j / math.pi) * f.evaluate(grid) / (tau - grid)
    weights = np.ones(cfg.panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = (2.0 * cfg.half_width) / cfg.panels
    return complex(np.sum(weights * values) * h / 3.0)


def quadrature_tail_bound(f: LineSpectrum, p: ComplexTimePoint,
                          cfg: QuadratureConfig) -> float:
    """Upper estimate of the truncation error left outside the window.

    Oscillating lines contribute O(1/(omega*half_width)) after one
    integration by parts; the constant line leaves an O(s/half_width)
    imbalance between the two half-line tails.
    """
    width = cfg.half_width
    bound = 0.0
    for ln in f.lines:
        if ln.omega == 0.0:
            bound += 2.0 * abs(ln.amplitude) * p.s / width
        else:
            bound += 4.0 * abs(ln.amplitude) / (ln.omega * width)
    return bound / math.pi


# ----------------------------------------------------------------------
# numeric averaging


def numeric_mean(x: SampledSignal) -> float:
    """Mean of a periodic sample window.

    The window is taken as a whole number of periods with each sample
    owning one dt of it, so the trapezoidal rule wraps around and
    collapses to the plain sample mean.
    """
    return float(np.mean(x.samples))
