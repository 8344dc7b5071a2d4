"""Exact line-spectrum arithmetic for multi-tone real signals.

A real periodic signal made of finitely many commensurate tones,

    f(t) = A0 + sum_k Re{ A_k exp(j w_k t) },        w_k = n_k * omega0,

is stored as its spectral lines (w_k, A_k) with complex peak amplitudes.
Every positive frequency must lie on the integer lattice of a common base
frequency ``omega0`` (within 1e-9 relative), which turns products, periodic
means, time derivatives and the analytic continuation of the signal into
exact line-level operations instead of discretized ones.

The lattice is searched for once, when a spectrum is built from user
frequencies: a rational-ratio search finds ``omega0`` and each line's
integer index ``n_k``.  Every operator then carries ``(omega0, n_k)`` to
its result instead of searching again.  Scaling, negation, the Hilbert
transform and the derivative keep the operand's indices; sums merge lines
by index; a product convolves the two-sided coefficients by integer index
sums.  A result whose surviving indices share a factor ``g`` moves to the
coarser base ``g*omega0``.  Two operands whose bases differ by an integer
factor meet on the finer base; only two operands on otherwise different
bases are searched again, over both operands' frequencies together.

The analytic signal of ``f`` is ``A0 + sum_k A_k exp(j w_k t)``; a constant
keeps its full weight, so the analytic signal of a DC value ``c`` is ``c``
(zero quadrature part).  Extending time to ``t + j s`` with ``s >= 0``
multiplies each line by the low-pass factor ``exp(-w_k s)``.
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
VAR = "var"
JOULE = "joule"

# Relative tolerance for accepting a frequency as an integer lattice multiple.
COMMENSURATE_RTOL = 1e-9
# Relative threshold below which product lines are discarded.
PRUNE_RTOL = 1e-14

_MAX_LATTICE_STEPS = 10**8
# Denominator cap for the rational-ratio search.  Must stay well below
# sqrt(1/COMMENSURATE_RTOL) ~ 3e4: a generic irrational ratio has best
# rational approximations with error ~1/q^2, so capping q at 1e4 keeps that
# error above the 1e-9 gate and irrational inputs get rejected instead of
# silently approximated.
_MAX_LATTICE_DENOMINATOR = 10**4
_PRODUCT_UNITS = {(VOLT, AMPERE): WATT, (AMPERE, VOLT): WATT}
_DERIVATIVE_UNITS = {JOULE: WATT}


class IncommensurateError(ValueError):
    """A set of frequencies shares no common base frequency."""


def _find_lattice(omegas):
    """Base frequency and integer indices for strictly positive frequencies.

    Returns ``(None, [])`` for an empty input.  Raises IncommensurateError when
    no base exists such that every ``omega`` is an integer multiple within
    COMMENSURATE_RTOL.
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
    for w, n in zip(omegas, indices):
        if n <= 0 or abs(w - n * base) > COMMENSURATE_RTOL * w:
            raise IncommensurateError(
                f"frequency {w} is not a lattice multiple of base {base}"
            )
    return base, indices


def _combine_units(a, b):
    if a == b:
        return a
    if not a:
        return b
    if not b:
        return a
    raise ValueError(f"incompatible units: {a!r} and {b!r}")


def _sum_by_key(keys, re, im):
    """Distinct keys ascending, each one's first position, and per-key sums.

    The sums of ``re + j*im`` are added in input order, as a running sum
    over the entries would add them.
    """
    keys, first, slot = np.unique(keys, return_index=True, return_inverse=True)
    sums = np.empty(keys.size, dtype=complex)
    sums.real = np.bincount(slot, re, keys.size)
    sums.imag = np.bincount(slot, im, keys.size)
    return keys, first, sums


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


def _checked_line(omega, amplitude):
    """SpectralLine from a float and a complex the caller has already checked."""
    line = object.__new__(SpectralLine)
    object.__setattr__(line, "omega", omega)
    object.__setattr__(line, "amplitude", amplitude)
    return line


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


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """A uniformly sampled real signal: values at ``t0 + k*dt``."""

    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")
        samples = np.array(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("samples must be a non-empty 1-d array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return self.samples.size

    @property
    def times(self):
        return self.t0 + self.dt * np.arange(self.samples.size)


@dataclass(frozen=True)
class LineSpectrum:
    """A real multi-tone signal as an immutable, lattice-aligned line spectrum.

    ``lines`` are strictly ascending in frequency with no duplicates; any DC
    line comes first and is purely real.  ``unit`` is a free-form tag; the
    pipeline uses ``volt``, ``ampere``, ``watt`` and ``joule``.  Use
    :meth:`from_lines` to build a spectrum from arbitrary (omega, amplitude)
    pairs; the raw constructor expects already well-formed lines.

    ``omega0`` is the lattice base (None without positive lines) and
    ``_indices`` holds each line's integer multiple of it, 0 for DC.  Both
    the raw constructor and :meth:`from_lines` search for them once; the
    operators derive their results' lattices from their operands' and
    search only when two operands' bases differ.

    Instances are immutable after construction and safe to share between
    threads.
    """

    lines: tuple[SpectralLine, ...]
    unit: str = ""
    omega0: float | None = field(init=False, default=None, compare=False, repr=False)
    _indices: tuple[int, ...] = field(init=False, default=(), compare=False, repr=False)

    def __post_init__(self):
        lines = tuple(
            ln if isinstance(ln, SpectralLine) else SpectralLine(*ln)
            for ln in self.lines
        )
        omegas = [ln.omega for ln in lines]
        for lo, hi in zip(omegas, omegas[1:]):
            if not lo < hi:
                raise ValueError("line frequencies must be strictly ascending")
        positive = [w for w in omegas if w > 0.0]
        base, pos_idx = _find_lattice(positive)
        indices = ([0] if len(positive) < len(omegas) else []) + pos_idx
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "omega0", base)
        object.__setattr__(self, "_indices", tuple(indices))

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_lines(cls, pairs, unit="", prune=False):
        """Build a spectrum from (omega, amplitude) pairs or SpectralLine objects.

        Frequencies within 1e-9 relative of the same lattice multiple are
        merged by summing amplitudes (the first-seen frequency is kept, which
        makes repeated reconstruction bit-stable); with ``prune=True`` lines
        below PRUNE_RTOL of the largest amplitude are dropped.  Exact zeros
        are always dropped.
        """
        raw = []
        for entry in pairs:
            if isinstance(entry, SpectralLine):
                raw.append((entry.omega, entry.amplitude))
            else:
                omega, amplitude = entry
                raw.append((float(omega), complex(amplitude)))
        for omega, amplitude in raw:
            if not math.isfinite(omega) or omega < 0.0:
                raise ValueError(f"omega must be finite and >= 0, got {omega!r}")
            if not (math.isfinite(amplitude.real) and math.isfinite(amplitude.imag)):
                raise ValueError("amplitude must be finite")
        base, indices = _find_lattice([w for w, _ in raw if w > 0.0])
        pos = iter(indices)
        keys, first, amps = _sum_by_key(
            np.array([0 if w == 0.0 else next(pos) for w, _ in raw], dtype=np.int64),
            [a.real for _, a in raw],
            [a.imag for _, a in raw],
        )
        omegas = np.array([w for w, _ in raw], dtype=float)[first]
        return cls._from_keys(keys, omegas, amps, unit, base, prune)

    @classmethod
    def _on_lattice(cls, lines, unit, omega0, indices):
        """Instance with a known lattice: no search and no line validation."""
        self = object.__new__(cls)
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "omega0", omega0)
        object.__setattr__(self, "_indices", indices)
        return self

    @classmethod
    def _from_keys(cls, keys, omegas, amps, unit, base, prune=False):
        """Spectrum of lines at ascending distinct lattice indices ``keys`` of ``base``.

        Key 0 is the DC line.  Exact zeros, and with ``prune`` lines below
        PRUNE_RTOL of the largest amplitude, are dropped; the base then grows
        by the gcd of the surviving keys.
        """
        if keys.size == 0:
            return cls._on_lattice((), unit, None, ())
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitude must be finite")
        mags = np.abs(amps)
        if keys[0] == 0:
            if abs(amps[0].imag) > COMMENSURATE_RTOL * mags.max():
                raise ValueError("the DC amplitude must be purely real")
            amps[0] = amps[0].real
            mags[0] = abs(amps[0].real)
        keep = mags > (PRUNE_RTOL * mags.max() if prune else 0.0)
        keys, omegas, amps = keys[keep], omegas[keep], amps[keep]
        shrink = math.gcd(*keys.tolist())
        if shrink > 1:
            keys //= shrink
            base *= shrink
        lines = tuple(map(_checked_line, omegas.tolist(), amps.tolist()))
        omega0 = base if keys.size and keys[-1] > 0 else None
        return cls._on_lattice(lines, unit, omega0, tuple(keys.tolist()))

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

    @classmethod
    def from_records(cls, records, unit=""):
        """Rebuild a spectrum from ``to_records`` output."""
        pairs = []
        for i, rec in enumerate(records):
            try:
                pairs.append(
                    (float(rec["omega"]), complex(float(rec["re"]), float(rec["im"])))
                )
            except (KeyError, TypeError) as exc:
                raise ValueError(f"records[{i}]: expected omega/re/im keys: {exc}") from None
        return cls.from_lines(pairs, unit)

    def to_records(self) -> list[dict]:
        """JSON-friendly form: one {omega, re, im} record per line."""
        return [
            {"omega": ln.omega, "re": ln.amplitude.real, "im": ln.amplitude.imag}
            for ln in self.lines
        ]

    # ------------------------------------------------------------------
    # structure

    @cached_property
    def _dc(self) -> float:
        if self.lines and self.lines[0].omega == 0.0:
            return self.lines[0].amplitude.real
        return 0.0

    @cached_property
    def _pos_omegas(self) -> np.ndarray:
        return np.array([ln.omega for ln in self.lines if ln.omega > 0.0])

    @cached_property
    def _pos_amplitudes(self) -> np.ndarray:
        return np.array(
            [ln.amplitude for ln in self.lines if ln.omega > 0.0], dtype=complex
        )

    @property
    def omegas(self) -> np.ndarray:
        return np.array([ln.omega for ln in self.lines])

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([ln.amplitude for ln in self.lines], dtype=complex)

    @property
    def is_zero(self) -> bool:
        return not self.lines

    @property
    def period(self) -> float | None:
        """Common period 2*pi/omega0, or None without positive lines."""
        return None if self.omega0 is None else 2.0 * math.pi / self.omega0

    @property
    def omega_min(self) -> float | None:
        w = self._pos_omegas
        return float(w[0]) if w.size else None

    @property
    def omega_max(self) -> float | None:
        w = self._pos_omegas
        return float(w[-1]) if w.size else None

    def line_at(self, omega) -> complex:
        """Amplitude of the line at ``omega`` (0 when absent)."""
        for ln in self.lines:
            if ln.omega == omega or (
                omega > 0 and abs(ln.omega - omega) <= COMMENSURATE_RTOL * omega
            ):
                return ln.amplitude
        return 0.0 + 0.0j

    # ------------------------------------------------------------------
    # evaluation

    def evaluate(self, t):
        """Signal value(s) at time ``t`` (scalar or array), always real."""
        t_arr = np.asarray(t, dtype=float)
        if self._pos_omegas.size == 0:
            out = np.full(t_arr.shape, self._dc)
        else:
            rotate = np.exp(1j * np.multiply.outer(t_arr, self._pos_omegas))
            out = self._dc + (rotate @ self._pos_amplitudes).real
        return float(out) if t_arr.ndim == 0 else out

    def analytic_at(self, t, s=0.0):
        """Analytic signal at complex time t + j*s (``s >= 0``).

        Equals ``A0 + sum_k A_k e^{j w_k t} e^{-w_k s}``; at s=0 the real part
        recovers the signal and the imaginary part its quadrature component.
        """
        if s < 0.0:
            raise ValueError(f"s must be >= 0, got {s!r}")
        t_arr = np.asarray(t, dtype=float)
        if self._pos_omegas.size == 0:
            out = np.full(t_arr.shape, self._dc, dtype=complex)
        else:
            damped = self._pos_amplitudes * np.exp(-self._pos_omegas * s)
            rotate = np.exp(1j * np.multiply.outer(t_arr, self._pos_omegas))
            out = self._dc + rotate @ damped
        return complex(out) if t_arr.ndim == 0 else out

    def analytic_grid(self, t_grid, s_grid) -> np.ndarray:
        """Analytic signal on the outer grid; result shape (len(t), len(s))."""
        t_arr = np.asarray(t_grid, dtype=float)
        s_arr = np.asarray(s_grid, dtype=float)
        if np.any(s_arr < 0.0):
            raise ValueError("all scale values must be >= 0")
        if self._pos_omegas.size == 0:
            return np.full((t_arr.size, s_arr.size), self._dc, dtype=complex)
        rotate = np.exp(1j * np.outer(t_arr, self._pos_omegas))
        damp = np.exp(-np.outer(self._pos_omegas, s_arr))
        return self._dc + rotate @ (self._pos_amplitudes[:, None] * damp)

    def sample(self, t0, dt, n) -> SampledSignal:
        """Uniform samples at ``t0 + k*dt`` for ``k = 0 .. n-1``."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n!r}")
        t = float(t0) + float(dt) * np.arange(int(n))
        return SampledSignal(float(t0), float(dt), self.evaluate(t))

    def mean(self) -> float:
        """Exact periodic mean: the DC amplitude."""
        return self._dc

    def rms(self) -> float:
        """Root-mean-square value over the common period."""
        return math.sqrt(self._dc**2 + 0.5 * float(np.sum(np.abs(self._pos_amplitudes) ** 2)))

    # ------------------------------------------------------------------
    # line-level operators

    @property
    def _keys(self) -> np.ndarray:
        return np.array(self._indices, dtype=np.int64)

    # The operators silence numpy's overflow warnings: _from_keys raises
    # ValueError for any non-finite amplitude they produce.

    def _relined(self, amplitudes, unit, positive_only=False) -> "LineSpectrum":
        """This spectrum's lines and lattice with new amplitudes."""
        keys, omegas = self._keys, self.omegas
        if positive_only:
            keys, omegas = keys[keys > 0], omegas[keys > 0]
        return LineSpectrum._from_keys(keys, omegas, amplitudes, unit, self.omega0)

    def hilbert(self) -> "LineSpectrum":
        """Quadrature signal: each positive line gains -j, the DC line vanishes."""
        return self._relined(-1j * self._pos_amplitudes, self.unit, positive_only=True)

    def derivative(self) -> "LineSpectrum":
        """Exact time derivative: each line gains j*omega, DC vanishes."""
        with np.errstate(over="ignore", invalid="ignore"):
            amps = 1j * self._pos_omegas * self._pos_amplitudes
        return self._relined(
            amps, _DERIVATIVE_UNITS.get(self.unit, ""), positive_only=True
        )

    def scale(self, factor, unit=None) -> "LineSpectrum":
        """Multiply by a real constant, optionally retagging the unit."""
        factor = float(factor)
        with np.errstate(over="ignore", invalid="ignore"):
            amps = factor * self.amplitudes
        return self._relined(amps, self.unit if unit is None else unit)

    def _shared_lattice(self, other):
        """A base common to both spectra and each one's keys on it.

        The operands' own lattices serve when their bases are equal or one
        has none.  When one base is an integer multiple r of the other
        within COMMENSURATE_RTOL, the finer base serves and the coarser
        operand's keys are multiplied by r.  Otherwise both sets of positive
        frequencies are searched together, which raises IncommensurateError
        when no base exists.
        """
        a, b = self.omega0, other.omega0
        if a is None or b is None or a == b:
            return (b if a is None else a), self._keys, other._keys
        ratio = max(a, b) / min(a, b)
        # the search caps lattice steps at the same bound
        r = round(ratio) if ratio <= _MAX_LATTICE_STEPS else 0
        if r and abs(ratio - r) <= COMMENSURATE_RTOL * ratio:
            if a > b:
                return b, self._keys * r, other._keys
            return a, self._keys, other._keys * r
        n_a = self._pos_omegas.size
        base, found = _find_lattice(
            self._pos_omegas.tolist() + other._pos_omegas.tolist()
        )
        found = np.array(found, dtype=np.int64)
        keys_a = np.concatenate((self._keys[self._keys == 0], found[:n_a]))
        keys_b = np.concatenate((other._keys[other._keys == 0], found[n_a:]))
        return base, keys_a, keys_b

    def _two_sided(self, keys):
        """Two-sided Fourier coefficients in line order: keys, real and imaginary parts.

        A DC line gives c_0 = A_0; a line at key n > 0 gives c_n = A/2
        followed by c_-n = conj(A)/2.
        """
        amps = self.amplitudes
        dc = int(keys[0] == 0)
        half = 0.5 * amps[dc:]
        k2 = np.empty(2 * keys.size - dc, dtype=np.int64)
        re2 = np.empty(k2.size)
        im2 = np.empty(k2.size)
        k2[:dc], re2[:dc], im2[:dc] = 0, amps[:dc].real, 0.0
        k2[dc::2], re2[dc::2], im2[dc::2] = keys[dc:], half.real, half.imag
        k2[dc + 1::2], re2[dc + 1::2], im2[dc + 1::2] = -keys[dc:], half.real, -half.imag
        return k2, re2, im2

    def multiply(self, other, unit=None) -> "LineSpectrum":
        """Exact pointwise product via sum and difference frequencies.

        Both spectra must live on a common frequency lattice.  The result
        satisfies evaluate(f*g, t) == evaluate(f, t)*evaluate(g, t) to machine
        precision; lines below PRUNE_RTOL of the largest product amplitude are
        dropped.  The product's lines sit at n*omega0 of the common base.
        """
        if not isinstance(other, LineSpectrum):
            raise TypeError("multiply expects another LineSpectrum")
        if unit is None:
            unit = _PRODUCT_UNITS.get((self.unit, other.unit), "")
        if self.is_zero or other.is_zero:
            return LineSpectrum.zero(unit)
        base, keys_a, keys_b = self._shared_lattice(other)
        k_a, re_a, im_a = self._two_sided(keys_a)
        k_b, re_b, im_b = other._two_sided(keys_b)
        keys = np.add.outer(k_a, k_b).ravel()
        upper = keys >= 0
        with np.errstate(over="ignore", invalid="ignore"):
            # the real form rounds each partial product once, as scalar complex
            # multiplication does, where numpy's complex kernels may fuse them
            re = np.multiply.outer(re_a, re_b) - np.multiply.outer(im_a, im_b)
            im = np.multiply.outer(re_a, im_b) + np.multiply.outer(im_a, re_b)
            keys, _, conv = _sum_by_key(keys[upper], re.ravel()[upper], im.ravel()[upper])
            # one-sided amplitude: 2*c_n for n > 0, the real part of c_0 for DC
            amps = np.where(keys > 0, 2.0 * conv, conv.real)
        omegas = keys * (0.0 if base is None else base)
        return LineSpectrum._from_keys(keys, omegas, amps, unit, base, prune=True)

    # ------------------------------------------------------------------
    # operators

    def __add__(self, other):
        if not isinstance(other, LineSpectrum):
            return NotImplemented
        unit = _combine_units(self.unit, other.unit)
        base, keys_a, keys_b = self._shared_lattice(other)
        amps = np.concatenate((self.amplitudes, other.amplitudes))
        keys, first, amps = _sum_by_key(
            np.concatenate((keys_a, keys_b)), amps.real, amps.imag
        )
        omegas = np.concatenate((self.omegas, other.omegas))[first]
        return LineSpectrum._from_keys(keys, omegas, amps, unit, base)

    def __sub__(self, other):
        if not isinstance(other, LineSpectrum):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.scale(-1.0)

    def __mul__(self, other):
        if isinstance(other, LineSpectrum):
            return self.multiply(other)
        if isinstance(other, (int, float)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__
