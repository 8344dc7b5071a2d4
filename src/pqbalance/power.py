"""Energies, powers, and the three balance laws of a solved network.

Three layers of description are computed from one frequency-domain
solution:

* instantaneous (real time): port power, dissipation, and stored
  energies as exact line spectra;
* classical per-line phasors: active/reactive power per frequency with
  Budeanu totals and apparent power;
* time-scale quantities on a (t, s) grid, where the scale s >= 0 damps
  each line by ``e^{-omega*s}``, suppressing the fastest content first.

The balances verified numerically are the instantaneous one,
``dw/dt = p - p_d``, the active one, ``dW/dt = P - P_d`` at every scale,
and the reactive one, ``-dX/ds = Q``, which runs along the scale axis
rather than the time axis.  Every scaled quantity is a weighted sum of
|a_b|^2 over branch signals a_b that are analytic in t + js, so
``da/ds = j da/dt`` and the exact t- and s-derivatives follow from the
product rule, line by line.  Residuals therefore measure rounding error,
not discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .network import CAPACITOR, INDUCTOR, RESISTOR, NetworkSolution
from .spectrum import (
    JOULE,
    VAR,
    WATT,
    COMMENSURATE_RTOL,
    LineSpectrum,
)

# Two independent routes to the same number must agree this tightly.
CROSS_CHECK_RTOL = 1e-8
# Fraction of apparent power below which a reactive total counts as zero.
_REACTIVE_FLOOR = 1e-4


class ConsistencyError(RuntimeError):
    """Two supposedly equivalent computations disagreed beyond tolerance."""


# ----------------------------------------------------------------------
# per-line amplitudes and the (t, s) kernel built from them

# weight of |a_b|^2 in W_m, W_e or P_d per unit value, and its sign in X
_WEIGHT = {INDUCTOR: 0.25, CAPACITOR: 0.25, RESISTOR: 0.5}
_SIGN = {INDUCTOR: 1.0, CAPACITOR: -1.0, RESISTOR: 0.0}


class _LineAmplitudes:
    """Branch-by-line analytic amplitudes of one solution, from ``per_line``.

    A row's analytic signal is ``sum_k A_k e^{j w_k t} e^{-w_k s}``, the
    DC line entering at w = 0 with full weight.  Row b of ``branch`` holds
    the current of an inductor or resistor, or the voltage of a capacitor;
    ``c`` weights its |a_b|^2 in W_m, W_e or P_d (L/4, C/4, R/2) and
    ``sigma`` signs it in X = W_m - W_e (+1, -1, 0).  ``port`` holds the
    port voltage and current rows.
    """

    def __init__(self, sol: NetworkSolution):
        branches, per_line = sol.netlist.branches, sol.per_line
        self.omegas = np.array([ph.omega for ph in per_line], dtype=float)
        self.branch = np.array(
            [[(ph.voltage if b.kind == CAPACITOR else ph.current)[b.id]
              for ph in per_line] for b in branches],
            dtype=complex,
        ).reshape(len(branches), len(per_line))
        self.c = np.array([_WEIGHT[b.kind] * b.value for b in branches], dtype=float)
        self.sigma = np.array([_SIGN[b.kind] for b in branches], dtype=float)
        self.port = np.array(
            [[ph.port_voltage, ph.port_current] for ph in per_line], dtype=complex
        ).reshape(len(per_line), 2).T

    def reactive_energy(self) -> np.ndarray:
        """Time mean of W_m - W_e carried by each line at s = 0."""
        return (self.sigma * self.c) @ (np.abs(self.branch) ** 2)


class _GridKernel:
    """Line tables of one solution on one (t, s) grid.

    ``rot = exp(j w_k t)`` (T x L) and ``damp = exp(-w_k s)`` (L x S), so
    amplitude rows ``A`` give ``rot @ (A[:, :, None] * damp)``.  A shift
    of t by h multiplies A_k by ``exp(j w_k h)`` and a shift of s by h
    multiplies it by ``exp(-w_k h)``, so finite differences reuse the tables.
    """

    def __init__(self, lines: _LineAmplitudes, t_arr, s_arr):
        self.lines = lines
        self.store = lines.sigma != 0.0
        self.rot = np.exp(1j * np.multiply.outer(t_arr, lines.omegas))
        self.damp = np.exp(-np.multiply.outer(lines.omegas, s_arr))

    def analytic(self, amps, factor=1.0, cols=slice(None)) -> np.ndarray:
        """Grid values of each amplitude row, shape (rows, T, S)."""
        return self.rot @ ((amps * factor)[:, :, None] * self.damp[:, cols])

    def stored(self, weights, factor, cols=slice(None)) -> np.ndarray:
        """sum_b weights[b] |a_b|^2 over L and C, line k scaled by factor[k]."""
        a = self.analytic(self.lines.branch[self.store], factor, cols)
        return (weights[self.store, None, None] * np.abs(a) ** 2).sum(axis=0)


# ----------------------------------------------------------------------
# instantaneous layer (s = 0, exact line spectra)


@dataclass(frozen=True)
class InstantaneousSet:
    """Real-time energy and power waveforms of one solution.

    All fields are exact line spectra: ``p`` the port power, ``p_dissipated``
    the total resistive loss, ``w_magnetic``/``w_electric`` the stored
    energies, ``w_stored`` their sum, and ``x_reactive`` their difference.
    """

    p: LineSpectrum
    p_dissipated: LineSpectrum
    w_magnetic: LineSpectrum
    w_electric: LineSpectrum
    w_stored: LineSpectrum
    x_reactive: LineSpectrum


def instantaneous(sol: NetworkSolution) -> InstantaneousSet:
    """Assemble p = u*i, p_d = sum R i^2, w_m = sum L i^2 / 2, w_e = sum C u^2 / 2."""
    p = sol.source.multiply(sol.port_current)
    p_d = LineSpectrum.zero(WATT)
    w_m = LineSpectrum.zero(JOULE)
    w_e = LineSpectrum.zero(JOULE)
    for b in sol.netlist.branches:
        if b.kind == RESISTOR:
            i_b = sol.branch_current[b.id]
            p_d = p_d + i_b.multiply(i_b, unit=WATT).scale(b.value)
        elif b.kind == INDUCTOR:
            i_b = sol.branch_current[b.id]
            w_m = w_m + i_b.multiply(i_b, unit=JOULE).scale(0.5 * b.value)
        else:
            u_b = sol.branch_voltage[b.id]
            w_e = w_e + u_b.multiply(u_b, unit=JOULE).scale(0.5 * b.value)
    return InstantaneousSet(
        p=p,
        p_dissipated=p_d,
        w_magnetic=w_m,
        w_electric=w_e,
        w_stored=w_m + w_e,
        x_reactive=w_m - w_e,
    )


def _instantaneous_terms(iset: InstantaneousSet, t_arr):
    """dw/dt (taken line-wise), p and p_d on the time grid."""
    return (
        iset.w_stored.derivative().evaluate(t_arr),
        iset.p.evaluate(t_arr),
        iset.p_dissipated.evaluate(t_arr),
    )


def _power_gap(dw_dt, p, p_d) -> np.ndarray:
    """|dw/dt - (p - p_d)|: the instantaneous law, and the active law at every s."""
    return np.abs(dw_dt - p + p_d)


def _worst(gap, *axes):
    """Largest entry of ``gap`` and its coordinates on the given grid axes."""
    if gap.size == 0:
        return 0.0, tuple(0.0 for _ in axes)
    idx = np.unravel_index(int(np.argmax(gap)), gap.shape)
    return float(gap[idx]), tuple(float(ax[i]) for ax, i in zip(axes, idx))


def _peak(*arrays) -> float:
    return max(float(np.max(np.abs(a), initial=0.0)) for a in arrays)


def instantaneous_balance(iset: InstantaneousSet, t_grid) -> float:
    """Max over the grid of |dw/dt - (p - p_d)|, with dw/dt taken line-wise."""
    t_arr = np.asarray(t_grid, dtype=float)
    return _worst(_power_gap(*_instantaneous_terms(iset, t_arr)))[0]


def real_imaginary_power(u: LineSpectrum, i: LineSpectrum):
    """Real and imaginary power waveforms as exact line spectra.

    The real power is ``(u i + u_h i_h)/2`` and the imaginary power is
    ``(u_h i - u i_h)/2``, with the subscript h denoting the quadrature
    (Hilbert) companion.  Their means give active power and the Budeanu
    reactive total respectively.
    """
    u_h = u.hilbert()
    i_h = i.hilbert()
    p_real = (u.multiply(i, unit=WATT) + u_h.multiply(i_h, unit=WATT)).scale(0.5)
    q_imag = (u_h.multiply(i, unit=WATT) - u.multiply(i_h, unit=WATT)).scale(0.5, unit=VAR)
    return p_real, q_imag


# ----------------------------------------------------------------------
# time-scale layer


@dataclass(frozen=True)
class ScaledQuantities:
    """Energies and powers on a (t, s) grid; arrays have shape (len(t), len(s)).

    ``w_magnetic``, ``w_electric`` and ``p_dissipated`` are sums of squared
    analytic branch waveforms, so they are nonnegative everywhere.  ``p``
    and ``q`` are the real and imaginary parts of half the port voltage
    times the conjugate port current.  The exact t-derivative of
    ``w_stored`` and s-derivative of ``x_reactive`` ride along privately,
    with the line tables that produced them.
    """

    t: np.ndarray
    s: np.ndarray
    w_magnetic: np.ndarray
    w_electric: np.ndarray
    w_stored: np.ndarray
    x_reactive: np.ndarray
    p: np.ndarray
    q: np.ndarray
    p_dissipated: np.ndarray
    _dw_dt: np.ndarray = field(repr=False, compare=False, default=None)
    _dx_ds: np.ndarray = field(repr=False, compare=False, default=None)
    _kernel: _GridKernel = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        for name in ("t", "s"):
            # a copy, so freezing it leaves the caller's grid writable
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def default_t_grid(source: LineSpectrum, n=256) -> np.ndarray:
    """n equispaced samples over one common period (endpoint excluded)."""
    period = source.period
    span = 2.0 * math.pi if period is None else period
    return np.linspace(0.0, span, n, endpoint=False)


def default_s_grid(source: LineSpectrum, n=32) -> np.ndarray:
    """s = 0 plus a geometric ladder spanning the damping range of all lines."""
    omegas = [w for w in source.omegas if w > 0.0]
    if omegas:
        lo, hi = 1e-3 / max(omegas), 10.0 / min(omegas)
    else:
        lo, hi = 1e-3, 10.0
    return np.concatenate(([0.0], np.geomspace(lo, hi, n)))


def scaled(sol: NetworkSolution, t_grid, s_grid) -> ScaledQuantities:
    """Evaluate every scaled quantity on the outer product of the two grids.

    With a' = da/dt, the exact derivatives are dW/dt = 2 sum c_b Re(a'_b conj a_b)
    and dX/ds = -2 sum sigma_b c_b Im(a'_b conj a_b), since da/ds = j a'.
    """
    t_arr = np.asarray(t_grid, dtype=float)
    s_arr = np.asarray(s_grid, dtype=float)
    if np.any(s_arr < 0.0):
        raise ValueError("scale grid must be >= 0")
    lines = _LineAmplitudes(sol)
    kernel = _GridKernel(lines, t_arr, s_arr)
    a = kernel.analytic(lines.branch)
    energy = lines.c[:, None, None] * np.abs(a) ** 2
    w_m = energy[lines.sigma > 0.0].sum(axis=0)
    w_e = energy[lines.sigma < 0.0].sum(axis=0)
    store = kernel.store
    a_dot = kernel.analytic(lines.branch[store], 1j * lines.omegas)
    rate = lines.c[store, None, None] * a_dot * np.conj(a[store])
    u_a, i_a = kernel.analytic(lines.port)
    s_complex = 0.5 * u_a * np.conj(i_a)
    return ScaledQuantities(
        t=t_arr,
        s=s_arr,
        w_magnetic=w_m,
        w_electric=w_e,
        w_stored=w_m + w_e,
        x_reactive=w_m - w_e,
        p=s_complex.real,
        q=s_complex.imag,
        p_dissipated=energy[~store].sum(axis=0),
        _dw_dt=2.0 * rate.real.sum(axis=0),
        _dx_ds=-2.0 * (lines.sigma[store, None, None] * rate.imag).sum(axis=0),
        _kernel=kernel,
    )


def _reactive_gap(sq: ScaledQuantities) -> np.ndarray:
    """|-dX/ds - Q| on the grid."""
    return np.abs(-sq._dx_ds - sq.q)


def active_balance(sq: ScaledQuantities) -> float:
    """Max over the grid of |dW/dt - (P - P_d)|, with dW/dt exact per line."""
    return _worst(_power_gap(sq._dw_dt, sq.p, sq.p_dissipated))[0]


def reactive_balance(sq: ScaledQuantities) -> float:
    """Max over the grid of |-dX/ds - Q|, with dX/ds exact per line."""
    return _worst(_reactive_gap(sq))[0]


def d_dt_fd_gap(sq: ScaledQuantities, h) -> float:
    """Max gap between the exact t-derivative of W and a central difference."""
    kernel, c = sq._kernel, sq._kernel.lines.c
    shift = np.exp(1j * kernel.lines.omegas * h)
    fd = (kernel.stored(c, shift) - kernel.stored(c, shift.conjugate())) / (2.0 * h)
    return _worst(np.abs(fd - sq._dw_dt))[0]


def d_ds_fd_gap(sq: ScaledQuantities, h) -> float:
    """Max gap between the exact s-derivative of X and a central difference.

    Only scale points with s >= h enter, so the difference stays inside
    the s >= 0 domain.
    """
    keep = sq.s >= h
    kernel, omegas = sq._kernel, sq._kernel.lines.omegas
    x_c = kernel.lines.sigma * kernel.lines.c
    fd = (
        kernel.stored(x_c, np.exp(-omegas * h), keep)
        - kernel.stored(x_c, np.exp(omegas * h), keep)
    ) / (2.0 * h)
    return _worst(np.abs(fd - sq._dx_ds[:, keep]))[0]


# ----------------------------------------------------------------------
# classical per-line summary


@dataclass(frozen=True)
class LinePower:
    """Active/reactive power carried by one frequency line."""

    omega: float
    u_rms: float
    i_rms: float
    p: float
    q: float


@dataclass(frozen=True)
class ClassicalSummary:
    """Per-line powers with Budeanu totals and rms-based apparent power."""

    lines: tuple[LinePower, ...]
    p_mean: float
    q_budeanu: float
    s_apparent: float
    u_rms: float
    i_rms: float

    def to_dict(self) -> dict:
        return {
            "lines": [
                {"omega": ln.omega, "u_rms": ln.u_rms, "i_rms": ln.i_rms,
                 "p": ln.p, "q": ln.q}
                for ln in self.lines
            ],
            "p_mean": self.p_mean,
            "q_budeanu": self.q_budeanu,
            "s_apparent": self.s_apparent,
            "u_rms": self.u_rms,
            "i_rms": self.i_rms,
        }


def classical_summary(sol: NetworkSolution) -> ClassicalSummary:
    """Per-line complex power and totals.

    Positive-frequency lines use half the product of peak phasors,
    so p + jq = U_rms I_rms e^{j(phase gap)}.  A DC line enters at full
    weight (p = U0*I0, q = 0), which keeps p_mean equal to the time
    average of the instantaneous port power.
    """
    entries = []
    p_total = 0.0
    q_total = 0.0
    for ph in sol.per_line:
        if ph.omega == 0.0:
            p_k = ph.port_voltage.real * ph.port_current.real
            q_k = 0.0
            u_rms = abs(ph.port_voltage)
            i_rms = abs(ph.port_current)
        else:
            s_k = 0.5 * ph.port_voltage * ph.port_current.conjugate()
            p_k, q_k = s_k.real, s_k.imag
            u_rms = abs(ph.port_voltage) / math.sqrt(2.0)
            i_rms = abs(ph.port_current) / math.sqrt(2.0)
        entries.append(LinePower(ph.omega, u_rms, i_rms, p_k, q_k))
        p_total += p_k
        q_total += q_k
    u_norm = sol.source.rms()
    i_norm = sol.port_current.rms()
    s_app = u_norm * i_norm
    # Cauchy-Schwarz guarantees S^2 >= P^2 + Q_B^2; a breach means a bug
    if p_total**2 + q_total**2 > s_app**2 * (1.0 + 1e-9):
        raise ConsistencyError(
            "apparent power fell below the per-line power totals"
        )
    return ClassicalSummary(
        lines=tuple(entries),
        p_mean=p_total,
        q_budeanu=q_total,
        s_apparent=s_app,
        u_rms=u_norm,
        i_rms=i_norm,
    )


def _stored_energy_q(sol: NetworkSolution) -> np.ndarray:
    """Reactive power 2*omega*(W_m - W_e) of each line, from the branch phasors."""
    lines = _LineAmplitudes(sol)
    return 2.0 * lines.omegas * lines.reactive_energy()


def budeanu(sol: NetworkSolution) -> float:
    """Budeanu reactive total, computed twice and cross-checked.

    Route one takes the mean of the imaginary-power waveform at the port.
    Route two differentiates the time-averaged reactive stored energy
    against the scale at s = 0, which turns into 2*omega_k per line
    applied to the magnetic-minus-electric energy of that line.  The two
    routes probe different data (port waveforms versus branch interiors)
    and must agree to CROSS_CHECK_RTOL.
    """
    _, q_wave = real_imaginary_power(sol.source, sol.port_current)
    return _budeanu(sol, q_wave)


def _budeanu(sol: NetworkSolution, q_wave: LineSpectrum) -> float:
    """``budeanu`` given the imaginary-power waveform of the solution's port."""
    q_port = q_wave.mean()

    q_interior = float(np.sum(_stored_energy_q(sol)))

    s_app = sol.source.rms() * sol.port_current.rms()
    tol = CROSS_CHECK_RTOL * max(abs(q_port), abs(q_interior), _REACTIVE_FLOOR * s_app)
    if abs(q_port - q_interior) > tol:
        raise ConsistencyError(
            f"Budeanu routes disagree: port mean {q_port!r} vs "
            f"stored-energy route {q_interior!r}"
        )
    return q_port


def q_from_stored_energy(sol: NetworkSolution, omega) -> float:
    """Reactive power of a single-sinusoid solution from its stored energies.

    Computes 2*omega*(mean magnetic energy - mean electric energy) and
    cross-checks it against the per-line phasor value.  Only defined for
    a source with exactly one line, at the given frequency.
    """
    lines = sol.source.lines
    if len(lines) != 1 or lines[0].omega == 0.0:
        raise ValueError("stored-energy route requires a single sinusoidal source")
    if not math.isclose(lines[0].omega, omega, rel_tol=COMMENSURATE_RTOL):
        raise ValueError(
            f"source line at {lines[0].omega!r} rad/s, not at {omega!r} rad/s"
        )
    ph = sol.per_line[0]
    q_energy = float(_stored_energy_q(sol)[0])
    q_phasor = (0.5 * ph.port_voltage * ph.port_current.conjugate()).imag
    scale = max(abs(q_phasor), abs(ph.port_voltage) * abs(ph.port_current) * 0.5)
    if abs(q_energy - q_phasor) > 1e-10 * max(scale, 1e-300):
        raise ConsistencyError(
            f"stored-energy route {q_energy!r} disagrees with phasor route {q_phasor!r}"
        )
    return q_energy


def scaled_time_means(sol: NetworkSolution, s_grid):
    """Time-averaged reactive energy and reactive power as functions of s.

    Distinct lines average out against each other over a common period,
    so each mean is the diagonal sum over lines of |A_k|^2 e^{-2 w_k s}
    terms: an exact finite sum of decaying exponentials in s.  The
    averages obey the scale-domain balance: the reactive power equals
    minus the s-derivative of the reactive energy.
    """
    s_arr = np.asarray(s_grid, dtype=float)
    if np.any(s_arr < 0.0):
        raise ValueError("scale grid must be >= 0")
    lines = _LineAmplitudes(sol)
    decay = np.exp(-2.0 * np.multiply.outer(lines.omegas, s_arr))
    u, i = lines.port
    mean_x = lines.reactive_energy() @ decay
    mean_q = (0.5 * u * np.conj(i)).imag @ decay
    return mean_x, mean_q


# ----------------------------------------------------------------------
# balance report


@dataclass(frozen=True)
class BalanceReport:
    """Residuals of the three balance laws on declared grids.

    Each residual is an absolute maximum; the matching scale is the
    largest magnitude among the balance terms (for the two power laws
    including the full complex-power magnitude, of which P and Q are the
    components), so residual/scale is the relative figure of merit.  The
    fd gaps compare the exact derivatives with central differences as an
    independent sanity check.
    """

    instantaneous_residual: float
    instantaneous_scale: float
    active_residual: float
    active_scale: float
    reactive_residual: float
    reactive_scale: float
    worst_instantaneous_t: float
    worst_active_t: float
    worst_active_s: float
    worst_reactive_t: float
    worst_reactive_s: float
    d_dt_fd_gap: float
    d_ds_fd_gap: float
    n_t: int
    n_s: int
    t_span: tuple[float, float]
    s_span: tuple[float, float]

    @property
    def instantaneous_relative(self) -> float:
        return self.instantaneous_residual / max(self.instantaneous_scale, 1e-300)

    @property
    def active_relative(self) -> float:
        return self.active_residual / max(self.active_scale, 1e-300)

    @property
    def reactive_relative(self) -> float:
        return self.reactive_residual / max(self.reactive_scale, 1e-300)

    def to_dict(self) -> dict:
        return {
            "instantaneous": {
                "residual": self.instantaneous_residual,
                "scale": self.instantaneous_scale,
                "relative": self.instantaneous_relative,
                "worst_t": self.worst_instantaneous_t,
            },
            "active": {
                "residual": self.active_residual,
                "scale": self.active_scale,
                "relative": self.active_relative,
                "worst_t": self.worst_active_t,
                "worst_s": self.worst_active_s,
                "fd_gap": self.d_dt_fd_gap,
            },
            "reactive": {
                "residual": self.reactive_residual,
                "scale": self.reactive_scale,
                "relative": self.reactive_relative,
                "worst_t": self.worst_reactive_t,
                "worst_s": self.worst_reactive_s,
                "fd_gap": self.d_ds_fd_gap,
            },
            "grid": {
                "n_t": self.n_t,
                "n_s": self.n_s,
                "t_span": list(self.t_span),
                "s_span": list(self.s_span),
            },
        }


def verify_balances(sol: NetworkSolution, t_grid=None, s_grid=None) -> BalanceReport:
    """Evaluate all three balance laws and package residuals with context."""
    t_arr = default_t_grid(sol.source) if t_grid is None else np.asarray(t_grid, float)
    s_arr = default_s_grid(sol.source) if s_grid is None else np.asarray(s_grid, float)
    return _balance_report(sol, instantaneous(sol), scaled(sol, t_arr, s_arr))


def _balance_report(sol: NetworkSolution, iset: InstantaneousSet,
                    sq: ScaledQuantities) -> BalanceReport:
    """``verify_balances`` from the solution's instantaneous and scaled sets."""
    t_arr, s_arr = sq.t, sq.s
    inst_terms = _instantaneous_terms(iset, t_arr)
    inst_res, (inst_t,) = _worst(_power_gap(*inst_terms), t_arr)

    act_res, (act_t, act_s) = _worst(
        _power_gap(sq._dw_dt, sq.p, sq.p_dissipated), t_arr, s_arr
    )
    rea_res, (rea_t, rea_s) = _worst(_reactive_gap(sq), t_arr, s_arr)
    # P and Q are the real and imaginary parts of the half voltage-current
    # product, so the natural magnitude of either is that whole product.
    # Degenerate loads zero one law's terms exactly (a lossless load makes
    # the active law 0 = 0 - 0, a storage-free load does the same to the
    # reactive law); judged only against themselves those residuals are
    # noise over noise, judged against the power magnitude they stay
    # clean identities.
    pq_mag = _peak(np.hypot(sq.p, sq.q))

    period = sol.source.period
    h_t = 1e-4 * (period if period is not None else 1.0)
    s_top = float(s_arr.max()) if s_arr.size else 1.0
    h_s = 1e-4 * max(s_top, 1e-6)
    return BalanceReport(
        instantaneous_residual=inst_res,
        instantaneous_scale=_peak(*inst_terms),
        active_residual=act_res,
        active_scale=max(pq_mag, _peak(sq.p_dissipated, sq._dw_dt)),
        reactive_residual=rea_res,
        reactive_scale=max(pq_mag, _peak(sq._dx_ds)),
        worst_instantaneous_t=inst_t,
        worst_active_t=act_t,
        worst_active_s=act_s,
        worst_reactive_t=rea_t,
        worst_reactive_s=rea_s,
        d_dt_fd_gap=d_dt_fd_gap(sq, h_t),
        d_ds_fd_gap=d_ds_fd_gap(sq, h_s),
        n_t=int(t_arr.size),
        n_s=int(s_arr.size),
        t_span=(float(t_arr.min()), float(t_arr.max())) if t_arr.size else (0.0, 0.0),
        s_span=(float(s_arr.min()), float(s_arr.max())) if s_arr.size else (0.0, 0.0),
    )
