"""Brute-force validators for the exact frequency-domain machinery.

Everything here recomputes some quantity by a deliberately different
route: implicit time stepping instead of phasor solves, with the
periodic steady state found as the fixed point of the stepping's
one-period map, FFT bin surgery instead of line-wise quadrature
rotation, direct numerical integration of the complex-time kernel
instead of its closed form, and plain sample averaging instead of exact
DC extraction.  The assembly of the time-domain equations is written
out here from scratch on purpose; it shares no code with the
frequency-domain solver it is meant to check.  Each implicit-step matrix
is inverted once, and the inverse is kept as a plain matrix: the step
operators are its products with the capacitance stamps, and the drive is
its source column.  Whether inductors alone bridge the port is a walk
over the inductor branches, the netlist's own graph walk.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .network import CAPACITOR, INDUCTOR, RESISTOR, Netlist, SingularNetworkError
from .spectrum import VOLT, ComplexTimePoint, LineSpectrum, SampledSignal

# Steps per block of the block-state-space recursion: each block's forced
# response is one product with a Toeplitz matrix of this order.
_BLOCK = 64
# Samples per row of _uniform_samples: one complex exponential per line
# and row start, and one per line and offset within a row.
_ROW = 256
# Steps per block-stepper call after period 0 of a transient, at most,
# taken as whole periods (one period when it is longer); bounds the
# temporaries of one call and the repeated-period drive.
_CHUNK = 16384
# Smallest normal float64; _flushed sets entries below it to zero.
_TINY = np.finfo(float).tiny
# kappa_1 of a row-scaled implicit-step matrix above which it is declared
# singular.  On a lossless series L-C across the port, exact kappa_1 of the
# row-scaled nodal matrix crosses 1e14 at the same detuning from resonance
# as the LU pivot ratio crosses 1e-12, so there this flags what a pivot-ratio
# test at 1e-12 would.
_STEP_KAPPA_MAX = 1e14
# Singular values of I - M (M the one-period map) below this fraction of
# the largest are cut in the least-squares fixed-point solve.  A conserved
# mode sits at rounding level, 2.5e-15 to 1.2e-12 of the largest on the
# acceptance nets at 8192 steps per period; a series R-L with L/R = 1e6 s
# driven at a 2 pi s period sits at 6.3e-7 and must not be cut.
_FIXED_POINT_RCOND = 1e-9


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

    def __post_init__(self):
        if not (math.isfinite(self.half_width) and self.half_width > 0.0):
            raise ValueError(f"half_width must be > 0, got {self.half_width!r}")
        if isinstance(self.panels, bool) or not isinstance(self.panels, (int, np.integer)):
            raise ValueError(f"panels must be an integer, got {self.panels!r}")
        if self.panels < 2 or self.panels % 2 != 0:
            raise ValueError(f"panels must be even and >= 2, got {self.panels!r}")


# ----------------------------------------------------------------------
# uniform sampling


def _uniform_samples(f: LineSpectrum, t0, h, n) -> np.ndarray:
    """Samples f(t0 + h*k) for 0 <= k < n, by per-line rotation.

    With k = a*_ROW + b, line omega contributes
    Re{A e^{j omega (t0 + h*_ROW*a)} e^{j omega h b}}: one complex
    exponential per line and row a, and one per line and offset
    b < _ROW, instead of one per line and sample.  Each factor is formed
    directly from its own time, so no phase error accumulates along the
    grid, and the products are summed line by line in real arithmetic.
    """
    omegas, amps = f.omegas, f.amplitudes
    rows = -(-n // _ROW)
    coarse = np.multiply.outer(omegas, t0 + (h * _ROW) * np.arange(rows))
    fine = np.multiply.outer(omegas, h * np.arange(_ROW))
    cos, sin = np.cos(coarse), np.sin(coarse)
    anchor_re = amps.real[:, None] * cos - amps.imag[:, None] * sin
    anchor_im = amps.real[:, None] * sin + amps.imag[:, None] * cos
    fine_re, fine_im = np.cos(fine), np.sin(fine)
    out = np.zeros((rows, _ROW))
    for k in range(omegas.size):
        out += np.multiply.outer(anchor_re[k], fine_re[k])
        out -= np.multiply.outer(anchor_im[k], fine_im[k])
    return out.ravel()[:n]


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
        if b.kind == INDUCTOR:
            k = ind_at[b.id]
            if ia is not None:
                g[ia, k] += 1.0
                g[k, ia] += 1.0
            if ib is not None:
                g[ib, k] -= 1.0
                g[k, ib] -= 1.0
            c[k, k] -= b.value
            continue
        mat, y = (g, 1.0 / b.value) if b.kind == RESISTOR else (c, b.value)
        for i, j, sgn in ((ia, ia, 1.0), (ib, ib, 1.0), (ia, ib, -1.0), (ib, ia, -1.0)):
            if i is not None and j is not None:
                mat[i, j] += sgn * y
    g[node_at[plus], src] -= 1.0
    g[src, node_at[plus]] += 1.0
    return g, c, node_at, ind_at, src


def _inductor_bridge(net: Netlist) -> bool:
    """True when inductor branches alone connect the two port nodes.

    Such a path closes a resistance-free loop through the driving source,
    so whatever constant current the start-up transient deposits in it
    circulates forever and shows up as a port-current offset.
    """
    return net.port[1] in net._reachable({net.port[0]}, (INDUCTOR,))


def _factored(mat, rate):
    """Inverse of an implicit-step matrix, with a hard singularity gate.

    The step matrix mixes conductance stamps with capacitance stamps
    carrying a 1/dt factor, so raw rows can sit many orders of magnitude
    apart and a condition number would reflect stamp units, not rank.
    Each row is scaled to unit max first, and the scaled matrix S is
    inverted once; kappa_1(S) = ||S||_1 ||S^-1||_1 then flags genuine
    singularity only.  An all-zero row or an exactly zero pivot is
    singular outright.
    """
    row_scale = np.max(np.abs(mat), axis=1)
    if row_scale.min() <= 0.0:
        raise SingularNetworkError(rate, "implicit step matrix is singular")
    scaled = mat / row_scale[:, None]
    try:
        inverse = np.linalg.inv(scaled)
    except np.linalg.LinAlgError:
        raise SingularNetworkError(rate, "implicit step matrix is singular") from None
    kappa = np.abs(scaled).sum(axis=0).max() * np.abs(inverse).sum(axis=0).max()
    if kappa > _STEP_KAPPA_MAX:
        raise SingularNetworkError(rate, "implicit step matrix is singular")
    # mat^-1 = S^-1 D^-1 for the row scaling D
    inverse /= row_scale
    return inverse


def _flushed(a, dtype=float):
    """`a` rounded to a C-contiguous copy of `dtype`, entries below float64's
    normal range set to 0.0.

    A stepper operator whose entries decay past the normal range (the
    Markov parameters of a capacitor straight across the port do) would
    otherwise feed subnormals into every product it takes part in, and
    those run many times slower than normal operands.  Normal entries are
    kept bit for bit; a flushed entry is below 2.3e-308 in a sum of
    normal terms.  With dtype=np.longdouble nothing is rounded, and the
    same cut keeps repeated squaring clear of longdouble's own subnormals.
    """
    out = np.array(a, dtype=dtype, order="C")
    out[np.abs(out) < _TINY] = 0.0
    return out


def _block_stepper(step, drive, out):
    """Block-state-space form of z_n = step @ z_{n-1} + drive * u_n.

    Over a block of K = _BLOCK steps from state z, the outputs
    y_{n+k} = z_{n+k}[out] are free @ z + toeplitz @ u_blk, where row k of
    `free` is row `out` of step^(k+1) and `toeplitz` is lower triangular
    in the Markov parameters h_j = (step^j drive)[out]; the state after
    the block is hop @ z + control @ u_blk, with hop = step^K and column j
    of `control` equal to step^(K-1-j) drive (Burrus, "Block
    implementation of digital filters", IEEE Trans. Circuit Theory,
    1971).  Returns a function mapping (z, u, y) to the state after the
    len(u) steps driven by u; it writes the outputs at those steps into
    y, a float array of len(u), and with y=None does not form them.

    The block start states z_b = hop @ z_{b-1} + kick_b form a linear
    recurrence, which the returned function solves as an inclusive
    prefix scan (Kogge and Stone, IEEE Trans. Computers, 1973) in the
    Hillis-Steele order: a row of z followed by the kicks, then for
    d = 1, 2, 4, ... every row takes hop^d times the row d above it.
    That is log2(blocks) matrix products instead of one Python step per
    block.  The powers hop^d are formed once, the first time a call has
    enough blocks to need them, so a call may be of any length; so is
    step^r for each length r < K of a partial block that a call ends in.

    The powers are taken from one table of np.longdouble powers of step
    (_power) and rounded once.  Formed in float64, step^K would carry
    about K roundings along a slowly decaying mode, and every hop would
    apply that same error again, so it would grow with the hop count.
    Where longdouble is float64 the operators are still right, to that
    lesser accuracy.  Every operator is rounded through _flushed.  Returns
    the function and the table, which holds every power formed so far.
    """
    size = step.shape[0]
    wide = step.astype(np.longdouble)
    powers = {1: wide}
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
    free = _flushed(free)
    lags = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    toeplitz = np.where(lags >= 0, _flushed(pushed[out])[lags], 0.0)
    control = _flushed(pushed[:, ::-1])
    hops = []  # hop^(2^k), as many as the longest call so far needs
    tails = {}  # step^rest for the partial blocks that calls have ended in

    def advance(z, u, y=None):
        full, rest = divmod(u.size, _BLOCK)
        while len(hops) < full.bit_length():
            hops.append(_flushed(_power(powers, _BLOCK << len(hops))))
        blocks = u[:full * _BLOCK].reshape(full, _BLOCK)
        scan = np.empty((full + 1, size))
        scan[0] = z
        scan[1:] = blocks @ control.T
        for level in range(full.bit_length()):
            d = 1 << level
            scan[d:] += scan[:-d] @ hops[level].T
        z = scan[-1]
        if y is not None:
            forced = y[:full * _BLOCK].reshape(full, _BLOCK)
            np.matmul(scan[:-1], free.T, out=forced)
            forced += blocks @ toeplitz.T
        if rest:
            tail = u[full * _BLOCK:]
            if y is not None:
                y[full * _BLOCK:] = free[:rest] @ z + toeplitz[:rest, :rest] @ tail
            if rest not in tails:
                tails[rest] = _flushed(_power(powers, rest))
            z = tails[rest] @ z + control[:, -rest:] @ tail
        return z

    return advance, powers


def _power(powers, n):
    """a^n for an int n >= 1, from the table powers = {1: a, ...} of
    np.longdouble powers of one matrix a.

    Binary powering: a power of two is the square of its half, and any
    other a^n is a^(n - 2^k) @ a^(2^k) for the top bit 2^k of n, so the
    set bits are composed from the lowest up, as numpy's matrix_power
    does, in about 2*log2(n) products.  Every power formed on the way is
    kept in the table under its exponent, so no power is formed twice
    however many calls ask for it.  Each is passed through _flushed in
    longdouble: entries below float64's normal range drop out, and with
    them the subnormals that squaring a decaying map would reach and that
    run many times slower.
    """
    if n not in powers:
        top = 1 << (n.bit_length() - 1)
        low = top >> 1 if n == top else n - top
        powers[n] = _flushed(_power(powers, low) @ _power(powers, n - low), np.longdouble)
    return powers[n]


def _integrate(net, source, periods, steps_per_period, steady):
    """ode_transient's signal and final state, or with steady=True
    ode_steady_state's signal and None.

    The one integrator behind both public functions.  Its warnings are
    filed at the line that called the public function.

    Period p is steps p*spp + 1 .. (p+1)*spp.  The source is sampled at
    t = dt*k, k < spp, once, and that period drives every period, so the
    source is assumed to repeat exactly over source.period; ode_transient
    bounds the phase gap of a line off its lattice multiple.

    From rest, step 1 is the backward-Euler start, and one stepper call
    takes the rest of period 0.  Every later call starts on a period
    boundary and takes whole periods, at most max(_CHUNK, spp) steps, so
    its drive is a prefix of one tiled copy of the sampled period, and it
    writes its samples straight into one slice of the port buffer.

    With steady=True, nothing is stepped from rest.  Every period gets the
    same drive, so the stacked state at the end of a period is the affine
    map z -> M @ z + forced of the state at its start, where M = step^spp
    and `forced` is one period stepped from zero.  The periodic steady
    state is the fixed point z* = M @ z* + forced (the shooting method;
    Aprille and Trick, Proc. IEEE 60(1), 1972).  M is taken in
    np.longdouble from the stepper's table of powers, I - M is rounded to
    float64 once, and z* is its least-squares solution through the
    pseudo-inverse, with the singular values below _FIXED_POINT_RCOND of
    the largest cut, then refined once with the residual formed in
    longdouble: the solve's error scales with the largest entry of z*, a
    port current, and the BDF2 difference quotient amplifies it in the
    small voltages (6.5e-11 of the peak on an acceptance net with 82 F
    across the port, 5e-15 refined).  Then one period is stepped from z*,
    so two periods are stepped whatever `periods` is, and `periods` only
    places the window.
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
    # Python ints: a product of numpy integers would wrap past 2**63
    periods, spp = int(periods), int(steps_per_period)
    if not net.by_kind(RESISTOR):
        warnings.warn(
            "network has no resistive branch; transients cannot decay",
            TransientWarning,
            stacklevel=3,
        )
    elif _inductor_bridge(net):
        warnings.warn(
            "inductor-only path bridges the port; the start-up leaves a "
            "constant current offset that cannot decay",
            TransientWarning,
            stacklevel=3,
        )
    period = source.period
    if period is None:
        period = 2.0 * math.pi  # constant source, any settling window works
    dt = period / spp
    g, c, node_at, ind_at, src = _time_domain_matrices(net)
    size = g.shape[0]

    # the source drives row src alone, so a step's drive is column src of its inverse
    main = _factored(g + (1.5 / dt) * c, 1.5 / dt)
    step = np.block([[main @ ((2.0 / dt) * c), main @ ((-0.5 / dt) * c)],
                     [np.eye(size), np.zeros((size, size))]])
    advance, powers = _block_stepper(step, np.concatenate([main[:, src], np.zeros(size)]), src)
    # u[j] drives step p*spp + 1 + j of every period p: the one sampled
    # period, rolled by a step
    u = np.roll(_uniform_samples(source, 0.0, dt, spp), -1)

    if steady:
        forced = advance(np.zeros(2 * size), u)
        fixed = np.eye(2 * size) - _power(powers, spp)
        inverse = np.linalg.pinv(fixed.astype(float), rcond=_FIXED_POINT_RCOND)
        z = inverse @ forced
        z += inverse @ (forced - fixed @ z).astype(float)
        port = np.empty(spp + 1)  # the sample after the window is dropped
        port[0] = z[src]
        advance(z, u, port[1:])
        return SampledSignal._taking((periods - 1) * spp * dt, dt, port[:spp]), None

    # one call takes `group` periods, or what is left, on one tiled drive
    group = max(_CHUNK // spp, 1)
    u = np.tile(u, group)
    u.flags.writeable = False
    start = _factored(g + c / dt, 1.0 / dt)
    n_steps = periods * spp
    port = np.empty(n_steps + 1)
    x = start[:, src] * u[0]
    port[:2] = 0.0, x[src]
    z = advance(np.concatenate([x, np.zeros(size)]), u[1:spp], port[2:spp + 1])
    for p in range(1, periods, group):
        at = p * spp + 1
        n = min(group, periods - p) * spp
        z = advance(z, u[:n], port[at:at + n])
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
    return SampledSignal._taking(0.0, dt, port), state


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
    each block of 64 steps is a few matrix products, and the hops from
    one block's start state to the next are solved as a prefix scan over
    the blocks of one call (_block_stepper); after period 0 a call takes
    whole periods.  The source is sampled at t = dt*k,
    k < steps_per_period, by per-line rotation (_uniform_samples), and
    that one period drives every period (_integrate).  This assumes the
    source repeats exactly over source.period, as a source on its lattice
    does; a line off its lattice multiple by a relative
    delta <= COMMENSURATE_RTOL is driven at the lattice frequency, a phase
    gap of at most 2*pi*periods*n*delta for lattice index n.  The
    returned signal starts at t = 0 and has periods*steps_per_period + 1
    samples; it takes over the integrator's buffer without a copy.
    """
    return _integrate(net, source, periods, steps_per_period, False)


def ode_steady_state(net: Netlist, source: LineSpectrum, periods=50,
                     steps_per_period=4096) -> SampledSignal:
    """Periodic steady state of the port current over one period, from
    time-domain integration.

    The steady state of ode_transient's recursion, solved for directly as
    the fixed point of its one-period map (_integrate) instead of waiting
    for the start-up transient to die out, so a slowly decaying mode
    costs nothing.  The window has the t0 and dt of the last period of
    ode_transient's signal over `periods` periods, and holds its samples
    once that transient has settled; `periods` only places the window.
    Two periods are stepped, and only the returned one is stored.

    A conserved mode, with eigenvalue 1 of the one-period map (the charge
    of a floating capacitor cutset, or the current around an inductor
    loop), leaves the fixed point undetermined along it, and least
    squares picks the one of minimum norm.  Such a mode carries no port
    current unless inductor branches alone bridge the port, and those
    nets raise a TransientWarning, so the port samples do not depend on
    which fixed point is taken, beyond rounding.  On a bridged net they
    differ from ode_transient's settled period by a constant offset.
    """
    return _integrate(net, source, periods, steps_per_period, True)[0]


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
    return SampledSignal._taking(x.t0, x.dt, analytic.imag.copy())


# ----------------------------------------------------------------------
# direct quadrature of the complex-time kernel


def quadrature_analytic(f: LineSpectrum, p: ComplexTimePoint,
                        cfg: QuadratureConfig) -> complex:
    """Windowed Simpson integration of (j/pi) * f(t') / (t + js - t').

    Converges to the closed-form analytic signal as the window grows,
    with an O(1/half_width) truncation tail; see quadrature_tail_bound.
    Needs p.s > 0 so the kernel stays smooth on the whole window.  The
    nodes are t' = t - half_width + h*k, k = 0 .. panels, and f is
    sampled there by per-line rotation (_uniform_samples); the kernel's
    denominator uses the same nodes.  The kernel is split into its real
    and imaginary parts, so the sums run in real arithmetic.
    """
    if p.s <= 0.0:
        raise ValueError("quadrature needs s > 0; the s = 0 kernel is singular")
    h = (2.0 * cfg.half_width) / cfg.panels
    t0 = p.t - cfg.half_width
    # with d = t - t', (j/pi) / (d + js) = (s + jd) / (pi (d^2 + s^2))
    d = p.t - (t0 + h * np.arange(cfg.panels + 1))
    g = _uniform_samples(f, t0, h, cfg.panels + 1)
    g /= d * d + p.s * p.s
    d *= g
    return complex(p.s * _simpson_sum(g), _simpson_sum(d)) * (h / (3.0 * math.pi))


def _simpson_sum(y):
    """Composite Simpson's sum y_0 + 4 y_1 + 2 y_2 + ... + 4 y_{n-1} + y_n, n even."""
    return y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()


def quadrature_tail_bound(f: LineSpectrum, p: ComplexTimePoint,
                          cfg: QuadratureConfig) -> float:
    """Upper estimate of the truncation error left outside the window.

    Oscillating lines contribute O(1/(omega*half_width)) after one
    integration by parts; the constant line leaves an O(s/half_width)
    imbalance between the two half-line tails.
    """
    width = cfg.half_width
    bound = 0.0
    for omega, amplitude in zip(f.omegas.tolist(), f.amplitudes.tolist()):
        if omega == 0.0:
            bound += 2.0 * abs(amplitude) * p.s / width
        else:
            bound += 4.0 * abs(amplitude) / (omega * width)
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
