"""Energies, powers, and the three balance laws of a solved network.

Three layers of description are computed from one frequency-domain
solution:

* instantaneous (real time): port power, dissipation, and stored
  energies, the s = 0 slice on a time grid (``instantaneous`` also
  builds them as exact line spectra, summing the line table's line-pair
  products on the source's lattice);
* classical per-line phasors: active/reactive power per frequency with
  Budeanu totals and apparent power;
* time-scale quantities on a (t, s) grid, where the scale s >= 0 damps
  each line by ``e^{-omega*s}``, suppressing the fastest content first.

All three read every per-line value from one table, ``_LineAmplitudes``,
and the first and last evaluate its one stack of rows with one kernel.
That kernel is the one route to the real and imaginary power at s = 0
and to every balance law; no product spectrum enters them.

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
import operator
from dataclasses import asdict, dataclass, field
from functools import cached_property, reduce

import numpy as np

from . import spectrum
from .network import CAPACITOR, INDUCTOR, RESISTOR, NetworkSolution
from .spectrum import JOULE, WATT, COMMENSURATE_RTOL, LineSpectrum

# Two independent routes to the same number must agree this tightly.
CROSS_CHECK_RTOL = 1e-8
# Fraction of apparent power below which a reactive total counts as zero.
_REACTIVE_FLOOR = 1e-4


class ConsistencyError(RuntimeError):
    """Two supposedly equivalent computations disagreed beyond tolerance."""


# ----------------------------------------------------------------------
# the per-line table, evaluated on a (t, s) grid by spectrum's kernel

# Per branch kind: the signal a_b (a capacitor's voltage, otherwise the
# branch current), the weight of |a_b|^2 in P_d, W_m or W_e per unit value,
# and the sign of that term in X = W_m - W_e.
_RULES = {RESISTOR: ("current", 0.5, 0.0), INDUCTOR: ("current", 0.25, 1.0),
          CAPACITOR: ("voltage", 0.25, -1.0)}


class _LineAmplitudes:
    """Every per-line value of one solution; the one reader of its phasor stack.

    Column k is the line at ``omegas[k]``.  ``port`` holds the rows U_k and
    I_k.  ``p`` and ``q`` hold 1/2 Re and 1/2 Im of U_k conj I_k, and
    ``u_rms`` and ``i_rms`` hold |U_k|/sqrt 2 and |I_k|/sqrt 2, but a DC
    line enters at full weight: p = U_0 I_0, q = 0, rms |U_0| and |I_0|.
    Row b of ``branch`` holds a_b by ``_RULES``, copied from the stack; ``c``
    weights its |a_b|^2 (R/2, L/4, C/4), ``sigma`` signs it in X and
    ``store`` marks the L and C rows.  ``spectrum._analytic`` evaluates a
    row A as the analytic signal ``sum_k A_k e^{j w_k t} e^{-w_k s}``.
    """

    def __init__(self, sol: NetworkSolution):
        branches, stack = sol.netlist.branches, sol._phasors
        self.omegas = sol.source.omegas
        self.port = np.stack((sol.source.amplitudes, stack[-1]))
        (ur, ir), (ui, ii) = self.port.real, self.port.imag
        dc = self.omegas == 0.0
        self.p = np.where(dc, ur * ir, 0.5 * (ur * ir + ui * ii))
        self.q = np.where(dc, 0.0, 0.5 * (ui * ir - ur * ii))
        # hypot, as abs() of a Python complex; numpy's complex abs may differ in the last bit
        root2 = np.where(dc, 1.0, math.sqrt(2.0))
        self.u_rms, self.i_rms = np.hypot(self.port.real, self.port.imag) / root2
        # the stack's voltage rows come first, then its current rows
        first = {"voltage": 0, "current": len(branches)}
        self.branch = stack[[first[_RULES[b.kind][0]] + k for k, b in enumerate(branches)]]
        self.c = np.array([_RULES[b.kind][1] * b.value for b in branches], dtype=float)
        self.sigma = np.array([_RULES[b.kind][2] for b in branches], dtype=float)
        self.store = self.sigma != 0.0

    def analytic(self, t_arr, s_arr, phase):
        """Port rows (u, i), every a_b and every stored a'_b on the (t, s) grid.

        One kernel call over the stacked rows, with ``phase`` the kernel's
        phase matrix on ``t_arr``; a'_b is a_b with each line times jw.
        """
        store, n_b = self.store, len(self.branch)
        rows = (self.port, self.branch, self.branch[store] * (1j * self.omegas))
        grid = spectrum._analytic(self.omegas, np.concatenate(rows), t_arr, s_arr, phase)
        return grid[:2], grid[2:2 + n_b], grid[2 + n_b:]

    def reactive_energy(self) -> np.ndarray:
        """Time mean of W_m - W_e carried by each line at s = 0."""
        return (self.sigma * self.c) @ (np.abs(self.branch) ** 2)

    def stored_energy_q(self) -> np.ndarray:
        """Reactive power 2*omega*(W_m - W_e) of each line, from the branch rows."""
        return 2.0 * self.omegas * self.reactive_energy()


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
    """Assemble p = u*i, p_d = sum R i^2, w_m = sum L i^2 / 2, w_e = sum C u^2 / 2.

    Every term is a sum over line pairs (k, l) at the key n_k + n_l of the
    source's lattice.  The rows of the line table become two-sided
    coefficient rows X: a DC entry at full weight, and A/2 at +n_k and
    conj(A)/2 at -n_k for every other line.  A kind's pair coefficients are
    the Gram matrix (X^T w) @ X over its rows, with w = 2 c_b by ``_RULES``;
    p pairs the u row with the i row.  Each is summed onto its keys n >= 0.
    """
    lines, source = _LineAmplitudes(sol), sol.source
    dc, _ = source._split()
    rows = np.concatenate((lines.port, lines.branch))
    half = 0.5 * rows[:, dc:]
    x = np.concatenate((rows[:, :dc].real, half, half.conj()), axis=1)
    two_sided = np.concatenate((source._keys, -source._keys[dc:]))
    pairs = np.add.outer(two_sided, two_sided).ravel()
    upper = pairs >= 0
    pairs = pairs[upper]

    def summed(left, right):
        # one-sided amplitude: 2 c_n for n > 0, the real part of c_0 for DC
        gram = (left.T @ right).ravel()[upper]
        found, _, coef = spectrum._sum_by_key(pairs, gram.real, gram.imag)
        return found, np.where(found > 0, 2.0 * coef, coef.real)

    branch, weight = x[2:], 2.0 * lines.c[:, None]
    found, p = summed(x[:1], x[1:2])
    kinds = {kind: summed(branch[mask] * weight[mask], branch[mask])[1]
             for kind, mask in ((RESISTOR, ~lines.store), (INDUCTOR, lines.sigma > 0.0),
                                (CAPACITOR, lines.sigma < 0.0))}
    w_m, w_e = kinds[INDUCTOR], kinds[CAPACITOR]
    omegas = found * (0.0 if source.omega0 is None else source.omega0)

    def held(amps, unit):
        return object.__new__(LineSpectrum)._store(found, omegas, amps, unit, source.omega0)

    return InstantaneousSet(
        p=held(p, WATT),
        p_dissipated=held(kinds[RESISTOR], WATT),
        w_magnetic=held(w_m, JOULE),
        w_electric=held(w_e, JOULE),
        w_stored=held(w_m + w_e, JOULE),
        x_reactive=held(w_m - w_e, JOULE),
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


# ----------------------------------------------------------------------
# time-scale layer


@dataclass(frozen=True, eq=False)
class ScaledQuantities:
    """Energies and powers on a (t, s) grid; arrays have shape (len(t), len(s)).

    ``w_magnetic``, ``w_electric`` and ``p_dissipated`` are sums of squared
    analytic branch waveforms, so they are nonnegative everywhere.  ``p``
    and ``q`` are the real and imaginary parts of half the port voltage
    times the conjugate port current.  The exact t-derivative of
    ``w_stored`` and s-derivative of ``x_reactive`` ride along privately,
    with the line amplitudes that produced them and the kernel's phase
    matrix on ``t``, which every later kernel call on ``t`` reuses.
    ``_instant`` holds the instantaneous terms on ``t``, evaluated on
    first read.
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
    _dw_dt: np.ndarray = field(repr=False, default=None)
    _dx_ds: np.ndarray = field(repr=False, default=None)
    _lines: _LineAmplitudes = field(repr=False, default=None)
    _phase: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        for name in ("t", "s"):
            # a copy, so freezing it leaves the caller's grid writable
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __setstate__(self, state):
        """Restore copied or unpickled quantities with their grids read-only."""
        self.__dict__.update(state)
        self.t.setflags(write=False)
        self.s.setflags(write=False)

    @cached_property
    def _instant(self) -> dict:
        """p, p_d, w_m, w_e, w, x, dw/dt, P_t and Q_t on ``t``, from one kernel call at s = 0.

        The call evaluates the row stack of ``scaled``, whose real parts are
        u, i, every a_b and every stored a'_b.  Then p = u i; branch b adds
        2 c_b a_b^2 to p_d, w_m or w_e by kind and 4 c_b a_b a'_b to dw/dt.
        ``P_t`` and ``Q_t`` are ``p`` and ``q`` of ``scaled(sol, t, [0.0])``,
        bit for bit.
        """
        lines = self._lines
        (u_a, i_a), a, a_dot = (
            rows[..., 0] for rows in lines.analytic(self.t, np.zeros(1), self._phase))
        a, store = a.real, lines.store
        energy = 2.0 * lines.c[:, None] * a ** 2
        w_m, w_e = energy[lines.sigma > 0.0].sum(axis=0), energy[lines.sigma < 0.0].sum(axis=0)
        s_complex = 0.5 * u_a * np.conj(i_a)
        return {"p": u_a.real * i_a.real, "p_d": energy[~store].sum(axis=0), "w_m": w_m,
                "w_e": w_e, "w": w_m + w_e, "x": w_m - w_e, "P_t": s_complex.real,
                "Q_t": s_complex.imag,
                "dw_dt": 4.0 * (lines.c[store, None] * a[store] * a_dot.real).sum(axis=0)}


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

    Both grids are flattened, and every ``s`` must be finite and >= 0.
    With a' = da/dt, the exact derivatives are dW/dt = 2 sum c_b Re(a'_b conj a_b)
    and dX/ds = -2 sum sigma_b c_b Im(a'_b conj a_b), since da/ds = j a'.
    """
    t_arr, s_arr = spectrum._grid(t_grid, s_grid)
    lines = _LineAmplitudes(sol)
    store = lines.store
    phase = spectrum._phase(t_arr, lines.omegas)
    (u_a, i_a), a, a_dot = lines.analytic(t_arr, s_arr, phase)
    energy = lines.c[:, None, None] * np.abs(a) ** 2
    w_m = energy[lines.sigma > 0.0].sum(axis=0)
    w_e = energy[lines.sigma < 0.0].sum(axis=0)
    rate = lines.c[store, None, None] * a_dot * np.conj(a[store])
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
        _lines=lines,
        _phase=phase,
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


def _check_step(h):
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be finite and > 0, got {h!r}")


def _central_difference(weights, fwd, bwd, h):
    """(F(+h) - F(-h)) / 2h for F = sum_b weights[b] |a_b|^2, from a_b shifted by +h and -h."""
    weights = weights[:, None, None]
    return ((weights * np.abs(fwd) ** 2).sum(axis=0)
            - (weights * np.abs(bwd) ** 2).sum(axis=0)) / (2.0 * h)


def d_dt_fd_gap(sq: ScaledQuantities, h) -> float:
    """Max gap between the exact t-derivative of W and a central difference.

    The step ``h`` must be finite and > 0.  A shift by +h or -h multiplies
    line k by e^{+-j w_k h}.
    """
    _check_step(h)
    lines = sq._lines
    amps, shift = lines.branch[lines.store], np.exp(1j * lines.omegas * h)
    rows = np.concatenate((amps * shift, amps * shift.conjugate()))
    a = spectrum._analytic(lines.omegas, rows, sq.t, sq.s, sq._phase)
    fd = _central_difference(lines.c[lines.store], a[:len(amps)], a[len(amps):], h)
    return _worst(np.abs(fd - sq._dw_dt))[0]


def d_ds_fd_gap(sq: ScaledQuantities, h) -> float:
    """Max gap between the exact s-derivative of X and a central difference.

    The step ``h`` must be finite and > 0.  Only scale points with s >= h
    enter, so the difference stays inside the s >= 0 domain.  One kernel
    call evaluates the stored rows at s + h and s - h, so no damping
    factor e^{-w_k (s +- h)} exceeds 1.
    """
    _check_step(h)
    lines = sq._lines
    keep = sq.s >= h
    s_keep = sq.s[keep]
    shifted = np.concatenate((s_keep + h, s_keep - h))
    a = spectrum._analytic(lines.omegas, lines.branch[lines.store], sq.t, shifted, sq._phase)
    fd = _central_difference((lines.sigma * lines.c)[lines.store],
                             a[..., :s_keep.size], a[..., s_keep.size:], h)
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
        return {**asdict(self), "lines": [asdict(ln) for ln in self.lines]}


def classical_summary(sol: NetworkSolution) -> ClassicalSummary:
    """Per-line complex power from the line table, and the totals.

    A positive-frequency line carries p + jq = U_rms I_rms e^{j(phase gap)}.
    A DC line enters at full weight, which keeps p_mean equal to the time
    average of the instantaneous port power.
    """
    return _classical_summary(sol, _LineAmplitudes(sol))


def _classical_summary(sol: NetworkSolution, lines: _LineAmplitudes) -> ClassicalSummary:
    """:func:`classical_summary` from the line table ``lines`` of ``sol``."""
    columns = (lines.omegas, lines.u_rms, lines.i_rms, lines.p, lines.q)
    entries = tuple(map(LinePower, *(col.tolist() for col in columns)))
    # running sums in line order; the builtin sum compensates on Python >= 3.12
    p_total, q_total = (reduce(operator.add, col.tolist(), 0.0) for col in (lines.p, lines.q))
    u_norm = sol.source.rms()
    i_norm = sol.port_current.rms()
    s_app = u_norm * i_norm
    # Cauchy-Schwarz guarantees S^2 >= P^2 + Q_B^2; a breach means a bug
    if p_total**2 + q_total**2 > s_app**2 * (1.0 + 1e-9):
        raise ConsistencyError(
            "apparent power fell below the per-line power totals"
        )
    return ClassicalSummary(
        lines=entries,
        p_mean=p_total,
        q_budeanu=q_total,
        s_apparent=s_app,
        u_rms=u_norm,
        i_rms=i_norm,
    )


def budeanu(sol: NetworkSolution) -> float:
    """Budeanu reactive total, computed twice and cross-checked.

    Route one is the total of :func:`classical_summary`: the sum of the
    line table's port values q_k, which equals the mean of the port's
    imaginary-power waveform.  Route two
    differentiates the time-averaged reactive stored energy against the
    scale at s = 0, which turns into 2*omega_k per line applied to the
    magnetic-minus-electric energy of that line.  The two routes probe
    different data (port phasors versus branch interiors) and must agree
    to CROSS_CHECK_RTOL.
    """
    return _checked_summary(sol).q_budeanu


def _checked_summary(sol: NetworkSolution) -> ClassicalSummary:
    """:func:`classical_summary`, after :func:`budeanu`'s cross-check.

    Both routes read one line table.
    """
    lines = _LineAmplitudes(sol)
    summary = _classical_summary(sol, lines)
    q_port = summary.q_budeanu
    q_interior = float(np.sum(lines.stored_energy_q()))
    tol = CROSS_CHECK_RTOL * max(
        abs(q_port), abs(q_interior), _REACTIVE_FLOOR * summary.s_apparent
    )
    if abs(q_port - q_interior) > tol:
        raise ConsistencyError(
            f"Budeanu routes disagree: port mean {q_port!r} vs "
            f"stored-energy route {q_interior!r}"
        )
    return summary


def q_from_stored_energy(sol: NetworkSolution, omega) -> float:
    """Reactive power of a single-sinusoid solution from its stored energies.

    Computes 2*omega*(mean magnetic energy - mean electric energy) and
    cross-checks it against the per-line phasor value.  Only defined for
    a source with exactly one line, at the given frequency.
    """
    omegas = sol.source.omegas
    if omegas.size != 1 or omegas[0] == 0.0:
        raise ValueError("stored-energy route requires a single sinusoidal source")
    line = float(omegas[0])
    if not math.isclose(line, omega, rel_tol=COMMENSURATE_RTOL):
        raise ValueError(f"source line at {line!r} rad/s, not at {omega!r} rad/s")
    lines = _LineAmplitudes(sol)
    q_energy = float(lines.stored_energy_q()[0])
    q_phasor, s_phasor = float(lines.q[0]), float(lines.u_rms[0] * lines.i_rms[0])
    if abs(q_energy - q_phasor) > 1e-10 * max(abs(q_phasor), s_phasor, 1e-300):
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
    minus the s-derivative of the reactive energy.  ``s_grid`` is
    flattened, and every ``s`` must be finite and >= 0.
    """
    _, s_arr = spectrum._grid((), s_grid)
    lines = _LineAmplitudes(sol)
    decay = np.exp(-2.0 * np.multiply.outer(lines.omegas, s_arr))
    return lines.reactive_energy() @ decay, lines.q @ decay


# ----------------------------------------------------------------------
# balance report


@dataclass(frozen=True)
class BalanceReport:
    """Residuals of the three balance laws on declared grids.

    Each residual is an absolute maximum; the matching scale is the
    largest magnitude among the balance terms (for the two power laws
    including the full complex-power magnitude, of which P and Q are the
    components), so residual/scale is the relative figure of merit.  All
    three laws read one kernel's evaluations of the same branch and port
    rows: the instantaneous one at s = 0, the other two on the (t, s) grid.
    The fd gaps compare the exact derivatives with central differences as
    an independent sanity check.
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
    """Evaluate all three balance laws and package residuals with context.

    The instantaneous terms come from ``scaled``'s rows at s = 0, with no
    product spectrum.
    """
    t_grid = default_t_grid(sol.source) if t_grid is None else t_grid
    s_grid = default_s_grid(sol.source) if s_grid is None else s_grid
    return _balance_report(sol, scaled(sol, t_grid, s_grid))


def _balance_report(sol: NetworkSolution, sq: ScaledQuantities) -> BalanceReport:
    """``verify_balances`` from the solution's scaled set."""
    t_arr, s_arr = sq.t, sq.s
    inst_terms = sq._instant["dw_dt"], sq._instant["p"], sq._instant["p_d"]
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

    # steps far inside the fastest line's period and damping scale, so
    # neither central difference aliases; a source without one keeps fixed steps
    w_top = sol.source.omega_max
    s_top = float(s_arr.max()) if s_arr.size else 1.0
    h_t, h_s = ((1e-4, 1e-4 * max(s_top, 1e-6)) if w_top is None
                else (1e-4 * 2.0 * math.pi / w_top, 1e-4 / w_top))
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
