"""Exact line-spectrum arithmetic for multi-tone real signals.

A real periodic signal made of finitely many commensurate tones,

    f(t) = A0 + sum_k Re{ A_k exp(j w_k t) },        w_k = n_k * omega0,

is stored as three arrays over its spectral lines: the integer lattice
indices n_k (0 for DC), the frequencies w_k and the complex peak
amplitudes A_k.  Every positive frequency must lie on the integer lattice
of a common base frequency ``omega0`` (within 1e-9 relative), which turns
periodic means, time derivatives and the analytic continuation of the
signal into exact line-level operations instead of discretized ones.
``SpectralLine`` objects are built only when ``lines`` is read.

Every spectrum built from frequencies is searched for its lattice in one
place, ``_on_lines``: a rational-ratio search finds ``omega0`` and each
line's integer index ``n_k``.  The constructor calls it on the user's
lines and ``+`` on both operands' lines together, so a sum of spectra on
different bases lands on the lattice a fresh construction would find.
Scaling, negation, the Hilbert transform and the derivative keep the
operand's ``(omega0, n_k)`` without a search.  A result whose surviving
indices share a factor ``g`` moves to the coarser base ``g*omega0``.
There is no product of two spectra: ``power.instantaneous`` forms its
products from line pairs on the source's lattice.

The analytic signal of ``f`` is ``A0 + sum_k A_k exp(j w_k t)``; a constant
keeps its full weight, so the analytic signal of a DC value ``c`` is ``c``
(zero quadrature part).  Extending time to ``t + j s`` with ``s >= 0``
multiplies each line by the low-pass factor ``exp(-w_k s)``.  One kernel,
``_analytic``, evaluates that formula for rows of amplitudes on one set of
lines: ``evaluate``, ``analytic_at`` and ``analytic_grid`` call it on the
positive lines, and ``power.scaled`` and its finite-difference checks call
it on the branch and port amplitudes of a solved network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

VOLT = "volt"
AMPERE = "ampere"
WATT = "watt"
JOULE = "joule"

# Relative tolerance for accepting a frequency as an integer lattice multiple.
COMMENSURATE_RTOL = 1e-9

_MAX_LATTICE_STEPS = 10**8
# Denominator cap for the rational-ratio search.  Must stay well below
# sqrt(1/COMMENSURATE_RTOL) ~ 3e4: a generic irrational ratio has best
# rational approximations with error ~1/q^2, so capping q at 1e4 keeps that
# error above the 1e-9 gate and irrational inputs get rejected instead of
# silently approximated.
_MAX_LATTICE_DENOMINATOR = 10**4
_DERIVATIVE_UNITS = {JOULE: WATT}


class IncommensurateError(ValueError):
    """A set of frequencies shares no common base frequency."""


def _find_lattice(omegas):
    """Base frequency and integer indices for strictly positive frequencies.

    Returns ``(None, [])`` for an empty input.  Raises IncommensurateError when
    no base exists such that every ``omega`` is an integer multiple within
    COMMENSURATE_RTOL, or when an index reaches 2**62.
    """
    if len(omegas) == 0:
        return None, []
    w_ref = min(omegas)
    steps = 1
    for w in omegas:
        ratio = Fraction(w / w_ref).limit_denominator(_MAX_LATTICE_DENOMINATOR)
        steps = math.lcm(steps, ratio.denominator)
        if steps > _MAX_LATTICE_STEPS:
            raise IncommensurateError(
                f"no common base frequency found for {sorted(set(omegas))}"
            )
    base = w_ref / steps
    indices = [round(w / base) for w in omegas]
    shrink = math.gcd(*indices)
    if shrink > 1:
        base *= shrink
        indices = [n // shrink for n in indices]
    _check_index(max(indices), base)
    for w, n in zip(omegas, indices):
        if n <= 0 or abs(w - n * base) > COMMENSURATE_RTOL * w:
            raise IncommensurateError(
                f"frequency {w} is not a lattice multiple of base {base}"
            )
    return base, indices


def _check_index(top, base):
    """IncommensurateError unless the lattice index ``top`` of ``base`` is below 2**62.

    Below it, a sum of two keys stays inside int64.
    """
    if top >= 2**62:
        raise IncommensurateError(f"lattice index {top} of base {base} reaches 2**62")


def _combine_units(a, b):
    if a == b:
        return a
    if not a:
        return b
    if not b:
        return a
    raise ValueError(f"incompatible units: {a!r} and {b!r}")


def _sum_by_key(keys, re, im):
    """Distinct keys ascending, each one's first position, and per-key sums
    of ``re + j*im`` by ``_sum_into``."""
    keys, first, slot = np.unique(keys, return_index=True, return_inverse=True)
    return keys, first, _sum_into(slot, keys.size, re, im)


def _sum_into(slot, size, re, im):
    """The ``size`` sums of ``re + j*im`` over each slot index in ``slot``.

    Each sum is added in input order, as a running sum over the entries
    would add it.
    """
    sums = np.empty(size, dtype=complex)
    sums.real = np.bincount(slot, re, size)
    sums.imag = np.bincount(slot, im, size)
    return sums


def _grid(t, s):
    """``t`` and ``s`` as 1-d float arrays; every ``t`` must be finite, every ``s`` >= 0 too."""
    t_arr, s_arr = np.asarray(t, dtype=float).ravel(), np.asarray(s, dtype=float).ravel()
    bad = s_arr[~(np.isfinite(s_arr) & (s_arr >= 0.0))]
    if bad.size:
        raise ValueError(f"s must be finite and >= 0, got {float(bad[0])!r}")
    bad = t_arr[~np.isfinite(t_arr)]
    if bad.size:
        raise ValueError(f"t must be finite, got {float(bad[0])!r}")
    return t_arr, s_arr


def _phase(t, omegas):
    """The phase matrix ``e^{j w_k t}``, of shape ``t.shape + omegas.shape``."""
    return np.exp(1j * np.multiply.outer(t, omegas))


def _analytic(omegas, amps, t, s, phase=None):
    """``sum_k A_k e^{j w_k t} e^{-w_k s}`` for each row of ``amps`` over ``omegas``.

    ``amps`` holds amplitudes on the L lines: one row, or a stack of rows
    of shape ``(..., L)``.  A 1-d ``s`` gives shape ``amps.shape[:-1] +
    t.shape + s.shape`` (a stack of rows needs a 1-d ``t``).  A scalar
    ``s >= 0`` takes one row and gives ``t.shape`` from one matrix-vector
    product, at ``s == 0`` on the undamped amplitudes.  An empty line set
    gives zeros.  ``phase``, when given, is ``_phase(t, omegas)`` formed
    once for several calls on the same times and lines.
    """
    if np.ndim(s):
        amps = amps[..., None] * np.exp(-np.multiply.outer(omegas, s))
    elif s:
        amps = amps * np.exp(-omegas * s)
    return (_phase(t, omegas) if phase is None else phase) @ amps


@dataclass(frozen=True)
class SpectralLine:
    """One spectral line: angular frequency (rad/s) and complex peak amplitude."""

    omega: float
    amplitude: complex

    def __post_init__(self):
        omega = float(self.omega)
        amplitude = complex(self.amplitude)
        if not math.isfinite(omega) or omega < 0.0:
            raise ValueError(f"omega must be finite and >= 0, got {self.omega!r}")
        if not (math.isfinite(amplitude.real) and math.isfinite(amplitude.imag)):
            raise ValueError("amplitude must be finite")
        if omega == 0.0 and amplitude.imag != 0.0:
            raise ValueError("the DC amplitude must be purely real")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "amplitude", amplitude)


@dataclass(frozen=True)
class ComplexTimePoint:
    """A complex time value t + j*s; the part ``s >= 0`` is the smoothing scale."""

    t: float
    s: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")
        if not math.isfinite(self.s) or self.s < 0.0:
            raise ValueError(f"s must be finite and >= 0, got {self.s!r}")


def _check_window(t0, dt):
    """A sample window's start must be finite and its step finite and > 0."""
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0!r}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """A uniformly sampled real signal: values at ``t0 + k*dt``."""

    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        self._hold(self.samples, copy=True)

    @classmethod
    def _taking(cls, t0, dt, samples):
        """A signal whose samples are ``samples`` itself, made read-only.

        For a fresh float64 array that nothing else refers to, such as an
        oracle's output buffer; the constructor would copy it.
        """
        signal = cls.__new__(cls)
        object.__setattr__(signal, "t0", t0)
        object.__setattr__(signal, "dt", dt)
        signal._hold(samples, copy=False)
        return signal

    def _hold(self, samples, copy):
        _check_window(self.t0, self.dt)
        samples = np.array(samples, dtype=float, copy=copy)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("samples must be a non-empty 1-d array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __setstate__(self, state):
        """Restore a copied or unpickled signal with its samples read-only."""
        self.__dict__.update(state)
        self.samples.setflags(write=False)

    def __len__(self):
        return self.samples.size

    @property
    def times(self):
        return self.t0 + self.dt * np.arange(self.samples.size)


@dataclass(frozen=True, init=False)
class LineSpectrum:
    """A real multi-tone signal as an immutable, lattice-aligned line spectrum.

    ``LineSpectrum(lines, unit)`` takes (omega, amplitude) pairs or
    ``SpectralLine`` objects in any order; :meth:`from_lines` is the same
    call.  Frequencies within 1e-9 relative of the same lattice multiple are
    merged by summing amplitudes in input order (the first-seen frequency is
    kept, which makes repeated reconstruction bit-stable), exact zeros are
    dropped, and a DC amplitude may carry an imaginary part of at most 1e-9
    of the largest amplitude, which is discarded.  ``lines`` are then
    strictly ascending in frequency; any DC line comes first and is purely
    real.  ``unit`` is a free-form tag; the pipeline uses ``volt``,
    ``ampere``, ``watt`` and ``joule``.

    The lines are stored as three read-only arrays in line order: ``_keys``
    holds each line's integer multiple of the lattice base ``omega0`` (0
    for DC; ``omega0`` is None without positive lines), ``_omegas`` the
    frequencies and ``_amps`` the amplitudes.  ``lines`` is built from them
    on first read.  The constructor searches for the lattice once, and
    ``a + b`` is the constructor on both operands' lines; the other
    operators keep their operand's lattice and store through the same
    ``_store`` without a search.

    Instances are immutable after construction and safe to share between
    threads.
    """

    lines: tuple[SpectralLine, ...]
    unit: str = ""
    omega0: float | None = field(init=False, default=None, compare=False, repr=False)
    _keys: np.ndarray = field(init=False, compare=False, repr=False)
    _omegas: np.ndarray = field(init=False, compare=False, repr=False)
    _amps: np.ndarray = field(init=False, compare=False, repr=False)

    def __init__(self, lines=(), unit=""):
        omegas, amps = [], []
        for entry in lines:
            if isinstance(entry, SpectralLine):
                omega, amplitude = entry.omega, entry.amplitude
            else:
                omega, amplitude = entry
                omega = float(omega)
            if not math.isfinite(omega) or omega < 0.0:
                raise ValueError(f"omega must be finite and >= 0, got {omega!r}")
            omegas.append(omega)
            amps.append(complex(amplitude))
        self._on_lines(np.array(omegas, dtype=float), np.array(amps, dtype=complex), unit)

    def _on_lines(self, omegas, amps, unit):
        """Hold the lines at frequencies ``omegas`` (each finite and >= 0)
        with amplitudes ``amps``, merged as the constructor documents.

        The one lattice search of every spectrum built from frequencies, by
        the constructor or by ``+``.  ``amps`` must be the caller's own
        array.  When no line merges or drops, both arrays are held as they
        are (``amps`` after adding 0.0 in place), so neither may be written
        to afterwards.  Returns ``self``.
        """
        positive = omegas > 0.0
        base, found = _find_lattice(omegas[positive].tolist())
        keys = np.zeros(omegas.size, dtype=np.int64)
        keys[positive] = found
        if np.all(keys[1:] > keys[:-1]):
            # nothing merges: each sum is its one entry plus 0.0, as
            # _sum_by_key's bincount forms it
            np.add(amps, 0.0, out=amps)
            return self._store(keys, omegas, amps, unit, base)
        keys, first, sums = _sum_by_key(keys, amps.real, amps.imag)
        return self._store(keys, omegas[first], sums, unit, base)

    def _store(self, keys, omegas, amps, unit, base):
        """Hold lines at ascending distinct lattice indices ``keys`` of ``base``.

        Key 0 is the DC line.  Exact zeros are dropped; the base then grows
        by the gcd of the surviving keys.  ``amps`` must be the caller's own
        array: its DC entry is set to its real part.  The arrays are held
        as they are, made read-only, when no line is dropped.  Returns
        ``self``.
        """
        if keys.size:
            if not np.all(np.isfinite(amps)):
                raise ValueError("amplitude must be finite")
            mags = np.abs(amps)
            if keys[0] == 0:
                if abs(amps[0].imag) > COMMENSURATE_RTOL * mags.max():
                    raise ValueError("the DC amplitude must be purely real")
                amps[0] = amps[0].real
                mags[0] = abs(amps[0].real)
            keep = mags > 0.0
            if not keep.all():
                keys, omegas, amps = keys[keep], omegas[keep], amps[keep]
            shrink = math.gcd(*keys.tolist())
            if shrink > 1:
                keys = keys // shrink
                base *= shrink
        for name, arr in (("_keys", keys), ("_omegas", omegas), ("_amps", amps)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "omega0", base if keys.size and keys[-1] > 0 else None)
        return self

    def __setstate__(self, state):
        """Restore a copied or unpickled spectrum with its line arrays read-only.

        ``copy.deepcopy`` and pickle hand back writable array copies.
        """
        self.__dict__.update(state)
        for arr in (self._keys, self._omegas, self._amps):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_lines(cls, pairs, unit=""):
        """The same as ``LineSpectrum(pairs, unit)``."""
        return cls(pairs, unit)

    @classmethod
    def zero(cls, unit=""):
        return cls((), unit)

    @classmethod
    def dc(cls, value, unit=""):
        return cls.from_lines([(0.0, float(value))], unit)

    @classmethod
    def tone(cls, omega, amplitude=1.0, unit=""):
        """Single line Re{amplitude * e^{j omega t}}; use -1j for a sine."""
        return cls.from_lines([(omega, amplitude)], unit)

    @classmethod
    def am_modulated(cls, carrier_amplitude, omega, depth, mod_omega, unit=""):
        """Amplitude-modulated tone A(1 + depth*cos(mod_omega*t))cos(omega*t).

        Expands to the carrier plus two sidebands at ``omega +- mod_omega``
        with amplitude ``A*depth/2``.
        """
        if not 0.0 < mod_omega < omega:
            raise ValueError("need 0 < mod_omega < omega for real sidebands")
        a = complex(carrier_amplitude)
        half = 0.5 * float(depth) * a
        return cls.from_lines(
            [(omega - mod_omega, half), (omega, a), (omega + mod_omega, half)],
            unit,
        )

    # ------------------------------------------------------------------
    # structure

    @cached_property
    def lines(self) -> tuple[SpectralLine, ...]:
        """The lines as ``SpectralLine`` objects, built on first read."""
        return tuple(map(SpectralLine, self._omegas.tolist(), self._amps.tolist()))

    @property
    def omegas(self) -> np.ndarray:
        return self._omegas.copy()

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amps.copy()

    @property
    def is_zero(self) -> bool:
        return self._keys.size == 0

    @property
    def period(self) -> float | None:
        """Common period 2*pi/omega0, or None without positive lines."""
        return None if self.omega0 is None else 2.0 * math.pi / self.omega0

    def _split(self):
        """Index of the first positive line (1 after a DC line, else 0) and the DC amplitude."""
        if self._keys.size and self._keys[0] == 0:
            return 1, float(self._amps[0].real)
        return 0, 0.0

    @property
    def omega_min(self) -> float | None:
        dc, _ = self._split()
        return float(self._omegas[dc]) if self._omegas.size > dc else None

    @property
    def omega_max(self) -> float | None:
        dc, _ = self._split()
        return float(self._omegas[-1]) if self._omegas.size > dc else None

    # ------------------------------------------------------------------
    # evaluation

    def evaluate(self, t):
        """Signal value(s) at time ``t`` (scalar or array, every entry finite), always real."""
        t = np.asarray(t, dtype=float)
        _grid(t, ())
        dc, a0 = self._split()
        out = (a0 + _analytic(self._omegas[dc:], self._amps[dc:], t, 0.0)).real
        return float(out) if out.ndim == 0 else out

    def analytic_at(self, t, s=0.0):
        """Analytic signal at complex time t + j*s (``t`` finite, ``s`` finite and >= 0).

        Equals ``A0 + sum_k A_k e^{j w_k t} e^{-w_k s}``; at s=0 the real part
        recovers the signal and the imaginary part its quadrature component.
        """
        t = np.asarray(t, dtype=float)
        _grid(t, s)
        dc, a0 = self._split()
        out = a0 + _analytic(self._omegas[dc:], self._amps[dc:], t, s)
        return complex(out) if out.ndim == 0 else out

    def analytic_grid(self, t_grid, s_grid) -> np.ndarray:
        """Analytic signal on the outer grid; result shape (t.size, s.size).

        Both grids are flattened, and every ``s`` must be finite and >= 0.
        """
        dc, a0 = self._split()
        return a0 + _analytic(self._omegas[dc:], self._amps[dc:], *_grid(t_grid, s_grid))

    def sample(self, t0, dt, n) -> SampledSignal:
        """Uniform samples at ``t0 + k*dt`` for ``k = 0 .. n-1``."""
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n must be an integer >= 1, got {n!r}")
        t0, dt = float(t0), float(dt)
        _check_window(t0, dt)
        return SampledSignal(t0, dt, self.evaluate(t0 + dt * np.arange(n)))

    def mean(self) -> float:
        """Exact periodic mean: the DC amplitude."""
        return self._split()[1]

    def rms(self) -> float:
        """Root-mean-square value over the common period."""
        dc, a0 = self._split()
        return math.sqrt(a0**2 + 0.5 * float(np.sum(np.abs(self._amps[dc:]) ** 2)))

    # ------------------------------------------------------------------
    # line-level operators

    # The operators silence numpy's overflow warnings: _store raises
    # ValueError for any non-finite amplitude they produce.

    def _relined(self, amplitudes, unit, start=0) -> "LineSpectrum":
        """This spectrum's lines from ``start`` on, on its lattice, with new amplitudes."""
        return object.__new__(LineSpectrum)._store(
            self._keys[start:], self._omegas[start:], amplitudes, unit, self.omega0
        )

    def hilbert(self) -> "LineSpectrum":
        """Quadrature signal: each positive line gains -j, the DC line vanishes."""
        dc, _ = self._split()
        return self._relined(-1j * self._amps[dc:], self.unit, dc)

    def derivative(self) -> "LineSpectrum":
        """Exact time derivative: each line gains j*omega, DC vanishes."""
        dc, _ = self._split()
        with np.errstate(over="ignore", invalid="ignore"):
            amps = 1j * self._omegas[dc:] * self._amps[dc:]
        return self._relined(amps, _DERIVATIVE_UNITS.get(self.unit, ""), dc)

    def scale(self, factor) -> "LineSpectrum":
        """Multiply by a real constant."""
        factor = float(factor)
        with np.errstate(over="ignore", invalid="ignore"):
            amps = factor * self._amps
        return self._relined(amps, self.unit)

    # ------------------------------------------------------------------
    # operators

    def __add__(self, other):
        if not isinstance(other, LineSpectrum):
            return NotImplemented
        unit = _combine_units(self.unit, other.unit)
        return object.__new__(LineSpectrum)._on_lines(
            np.concatenate((self._omegas, other._omegas)),
            np.concatenate((self._amps, other._amps)), unit)

    def __sub__(self, other):
        if not isinstance(other, LineSpectrum):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.scale(-1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__
