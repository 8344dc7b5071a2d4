"""Line-spectrum arithmetic: construction, evaluation, and exact operators."""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pqbalance import spectrum
from pqbalance.network import solve
from pqbalance.oracle import (
    QuadratureConfig,
    TransientWarning,
    fft_hilbert,
    ode_steady_state,
    quadrature_analytic,
    quadrature_tail_bound,
)
from pqbalance.power import (
    budeanu,
    instantaneous,
    q_from_stored_energy,
    scaled,
    verify_balances,
)
from pqbalance.spectrum import (
    AMPERE,
    JOULE,
    VOLT,
    WATT,
    ComplexTimePoint,
    IncommensurateError,
    LineSpectrum,
    SampledSignal,
    SpectralLine,
)

from conftest import random_source, reference_product, solved_case

ROOT2 = math.sqrt(2.0)


# ----------------------------------------------------------------------
# construction and validation


def test_lines_sorted_and_lattice_found():
    f = LineSpectrum.from_lines([(1.2, 1.0), (0.8, 2.0), (1.0, 3.0)])
    assert [ln.omega for ln in f.lines] == [0.8, 1.0, 1.2]
    assert math.isclose(f.omega0, 0.2)
    assert math.isclose(f.period, 2.0 * math.pi / 0.2)


def test_duplicate_frequencies_merge():
    f = LineSpectrum.from_lines([(1.0, 1.0), (1.0, 2.0 + 1.0j), (0.0, 3.0), (0.0, -1.0)])
    assert len(f.lines) == 2
    assert f.lines[0].amplitude == 2.0
    assert f.lines[1].amplitude == 3.0 + 1.0j


def test_exact_cancellation_drops_line():
    f = LineSpectrum.from_lines([(1.0, 1.0), (1.0, -1.0), (2.0, 1.0)])
    assert [ln.omega for ln in f.lines] == [2.0]


def test_incommensurate_rejected():
    with pytest.raises(IncommensurateError):
        LineSpectrum.from_lines([(1.0, 1.0), (math.pi, 1.0)])


def test_near_lattice_frequency_merges():
    w = 2.0 * (1.0 + 1e-12)
    f = LineSpectrum.from_lines([(1.0, 1.0), (2.0, 1.0), (w, 1.0)])
    assert len(f.lines) == 2
    assert f.lines[1].amplitude == 2.0


def test_dc_must_be_real():
    with pytest.raises(ValueError):
        SpectralLine(0.0, 1.0 + 0.5j)
    with pytest.raises(ValueError):
        LineSpectrum.from_lines([(0.0, 1.0 + 0.5j)])


def test_negative_frequency_rejected():
    with pytest.raises(ValueError):
        LineSpectrum.from_lines([(-1.0, 1.0)])


def test_am_modulated_expands_to_three_lines(flicker_source):
    amps = dict(zip(flicker_source.omegas, flicker_source.amplitudes))
    assert set(amps) == {0.8, 1.0, 1.2}
    assert amps[1.0] == pytest.approx(10.0 * ROOT2)
    assert amps[0.8] == pytest.approx(0.5 * ROOT2)
    assert amps[1.2] == pytest.approx(0.5 * ROOT2)


def test_am_modulated_needs_slow_modulation():
    with pytest.raises(ValueError):
        LineSpectrum.am_modulated(1.0, 1.0, 0.1, 1.5)
    with pytest.raises(ValueError):
        LineSpectrum.am_modulated(1.0, 1.0, 0.1, 0.0)


def test_complex_time_point_validation():
    assert ComplexTimePoint(1.0).s == 0.0
    with pytest.raises(ValueError):
        ComplexTimePoint(0.0, -1.0)


def test_sampled_signal_validation():
    sig = SampledSignal(0.0, 0.5, [1.0, 2.0])
    assert len(sig) == 2
    assert np.allclose(sig.times, [0.0, 0.5])
    with pytest.raises(ValueError):
        SampledSignal(0.0, 0.0, [1.0])
    with pytest.raises(ValueError):
        SampledSignal(0.0, 0.5, [1.0, math.nan])


@pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
def test_sampled_signal_rejects_a_non_finite_start(t0):
    # unchecked, every entry of ``times`` was the bad start
    with pytest.raises(ValueError, match=r"t0 must be finite, got -?(nan|inf)"):
        SampledSignal(t0, 1.0, [1.0, 2.0])
    with pytest.raises(ValueError, match=r"t0 must be finite, got -?(nan|inf)"):
        SampledSignal._taking(t0, 1.0, np.array([1.0, 2.0]))


def test_sampled_signal_copies_a_callers_array():
    a = np.array([1.0, 2.0, 3.0])
    sig = SampledSignal(0, 1, a)
    assert a.flags.writeable and not sig.samples.flags.writeable
    a[0] = 7.0
    assert sig.samples.tolist() == [1.0, 2.0, 3.0]


def test_sampled_signal_can_take_over_a_fresh_array():
    owned = np.array([1.0, 2.0, 3.0])
    sig = SampledSignal._taking(0.5, 0.25, owned)
    assert sig.samples is owned and not owned.flags.writeable
    assert (sig.t0, sig.dt, len(sig)) == (0.5, 0.25, 3)
    with pytest.raises(ValueError, match="dt must be finite"):
        SampledSignal._taking(0.0, 0.0, np.ones(2))
    with pytest.raises(ValueError, match="finite"):
        SampledSignal._taking(0.0, 0.5, np.array([1.0, math.nan]))
    with pytest.raises(ValueError, match="non-empty 1-d"):
        SampledSignal._taking(0.0, 0.5, np.ones((2, 2)))


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
                         ids=["deepcopy", "pickle"])
def test_sampled_signal_copies_keep_their_samples_read_only(duplicate):
    sig = SampledSignal(0.5, 0.25, [1.0, 2.0, 3.0])
    twin = duplicate(sig)
    assert (twin.t0, twin.dt, twin.samples.tolist()) == (0.5, 0.25, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="read-only"):
        twin.samples[0] = 99.0


# ----------------------------------------------------------------------
# evaluation


def test_evaluate_pure_tone_at_zero():
    assert LineSpectrum.tone(1.0).evaluate(0.0) == 1.0


def test_evaluate_dc():
    f = LineSpectrum.dc(5.0)
    t = np.linspace(-3.0, 3.0, 11)
    assert np.all(f.evaluate(t) == 5.0)


def test_evaluate_flicker_matches_closed_form(flicker_source):
    assert flicker_source.evaluate(0.0) == pytest.approx(11.0 * ROOT2, rel=1e-14)
    t = np.linspace(0.0, 10.0 * math.pi, 257)
    closed = 10.0 * ROOT2 * (1.0 + 0.1 * np.cos(0.2 * t)) * np.cos(t)
    assert np.max(np.abs(flicker_source.evaluate(t) - closed)) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evaluate_and_analytic_at_reject_a_non_finite_time(bad):
    # unchecked, evaluate gave NaN at the bad time and analytic_at warned
    tone = LineSpectrum.tone(1.0, 2.0)
    for call in (tone.evaluate, tone.analytic_at, lambda t: tone.analytic_at(t, [0.0, 0.5])):
        for t in (bad, [0.0, bad], np.array([[0.0], [bad]])):
            with pytest.raises(ValueError, match=r"t must be finite, got -?(nan|inf)"):
                call(t)


def test_evaluate_and_analytic_at_keep_their_output_shapes():
    tone = LineSpectrum.from_lines([(0.0, 1.0), (1.0, 2.0)])
    t = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    assert type(tone.evaluate(0.0)) is float and tone.evaluate(t).shape == (2, 3)
    assert type(tone.analytic_at(0.0)) is complex and tone.analytic_at(t).shape == (2, 3)
    assert tone.analytic_at(t, [0.0, 0.5]).shape == (2, 3, 2)
    assert tone.evaluate(t).tolist() == [[tone.evaluate(v) for v in row] for row in t.tolist()]


def test_mean_and_rms():
    f = LineSpectrum.from_lines([(0.0, 0.5), (2.0, 0.5)])
    assert f.mean() == 0.5
    assert LineSpectrum.tone(1.0).mean() == 0.0
    assert LineSpectrum.tone(1.0, ROOT2).rms() == pytest.approx(1.0, rel=1e-15)
    assert LineSpectrum.dc(-3.0).rms() == 3.0


def test_mean_of_flicker_port_power_is_published_value(flicker_source):
    # current through 10 ohm parallel 0.3 F, line by line from the admittance
    i = LineSpectrum.from_lines(
        [(ln.omega, (0.1 + 0.3j * ln.omega) * ln.amplitude) for ln in flicker_source.lines],
        AMPERE,
    )
    p = reference_product(flicker_source, i, WATT)
    assert p.mean() == pytest.approx(10.05, rel=1e-12)


def test_sample_pure_tone():
    sig = LineSpectrum.tone(1.0).sample(0.0, math.pi / 2.0, 3)
    assert np.allclose(sig.samples, [1.0, 0.0, -1.0], atol=1e-15)


def test_sample_dc():
    sig = LineSpectrum.dc(5.0).sample(-1.0, 0.3, 7)
    assert np.all(sig.samples == 5.0)


@pytest.mark.parametrize("n", [3.7, 3.0, np.float64(4.0), True, "3", None, 0, -2, np.int64(0)])
def test_sample_rejects_a_count_that_is_not_a_positive_integer(n):
    # 3.7 used to give 3 samples, and True one
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        LineSpectrum.tone(1.0).sample(0.0, 0.1, n)


@pytest.mark.parametrize("t0, dt, message", [
    (math.inf, 1.0, r"t0 must be finite, got inf"),
    (math.nan, 1.0, r"t0 must be finite, got nan"),
    (0.0, math.inf, r"dt must be finite and > 0, got inf"),
    (0.0, math.nan, r"dt must be finite and > 0, got nan"),
    (0.0, -0.5, r"dt must be finite and > 0, got -0.5"),
])
def test_sample_rejects_a_bad_window_before_evaluating(monkeypatch, t0, dt, message):
    # unchecked, sample(inf, 1.0, 2) raised numpy's RuntimeWarning from the kernel
    tone = LineSpectrum.tone(1.0)
    monkeypatch.setattr(spectrum, "_analytic", lambda *args: pytest.fail("evaluated"))
    with pytest.raises(ValueError, match=message):
        tone.sample(t0, dt, 2)


def test_sample_takes_a_numpy_integer_count():
    tone = LineSpectrum.tone(1.0)
    sig = tone.sample(0.0, 0.1, np.int64(4))
    assert len(sig) == 4 and sig.samples.tolist() == tone.sample(0.0, 0.1, 4).samples.tolist()


# ----------------------------------------------------------------------
# hilbert / analytic signal


def test_hilbert_of_cosine_is_sine():
    h = LineSpectrum.tone(1.0).hilbert()
    t = np.linspace(0.0, 7.0, 31)
    assert np.max(np.abs(h.evaluate(t) - np.sin(t))) < 1e-15


def test_hilbert_of_two_tone_sum():
    f = LineSpectrum.from_lines([(1.0, 1.0), (3.0, 2.0)])
    t = np.linspace(0.0, 7.0, 31)
    want = np.sin(t) + 2.0 * np.sin(3.0 * t)
    assert np.max(np.abs(f.hilbert().evaluate(t) - want)) < 1e-14


def test_hilbert_of_dc_vanishes():
    assert LineSpectrum.dc(5.0).hilbert().is_zero


def test_analytic_of_tone_is_rotating_decaying_phasor():
    f = LineSpectrum.tone(2.0)
    for t, s in [(0.0, 0.0), (0.7, 0.0), (0.3, 1.5), (2.0, 0.4)]:
        want = np.exp(2.0j * t) * math.exp(-2.0 * s)
        assert abs(f.analytic_at(t, s) - want) < 1e-15


def test_analytic_of_two_tone_sum_at_s_zero():
    f = LineSpectrum.from_lines([(1.0, 1.0), (3.0, 2.0)])
    t = 0.37
    want = np.exp(1j * t) + 2.0 * np.exp(3j * t)
    assert abs(f.analytic_at(t) - want) < 1e-14


def test_analytic_suppression_at_large_s():
    f = LineSpectrum.from_lines([(1.0, 3.0), (2.0, 1.0 - 2.0j)])
    bound = (3.0 + abs(1.0 - 2.0j)) * math.exp(-1.0 * 30.0)
    assert abs(f.analytic_at(0.9, 30.0)) <= bound * (1.0 + 1e-12)


def test_analytic_rejects_negative_s():
    with pytest.raises(ValueError):
        LineSpectrum.tone(1.0).analytic_at(0.0, -0.1)


def test_analytic_grid_matches_pointwise():
    f = LineSpectrum.from_lines([(0.0, 1.0), (1.0, 2.0), (3.0, 1.0j)])
    t = np.array([0.0, 0.4, 1.1])
    s = np.array([0.0, 0.5])
    grid = f.analytic_grid(t, s)
    for i, tv in enumerate(t):
        for k, sv in enumerate(s):
            assert abs(grid[i, k] - f.analytic_at(tv, sv)) < 1e-15


# ----------------------------------------------------------------------
# derivatives and operators


def test_derivative_of_cosine():
    d = LineSpectrum.tone(2.0, 3.0).derivative()
    t = np.linspace(0.0, 5.0, 17)
    assert np.max(np.abs(d.evaluate(t) + 6.0 * np.sin(2.0 * t))) < 1e-14


def test_derivative_maps_energy_unit_to_power():
    w = LineSpectrum.tone(1.0, 1.0, JOULE)
    assert w.derivative().unit == WATT


def test_operator_sugar():
    f = LineSpectrum.tone(1.0, 2.0)
    g = LineSpectrum.tone(3.0, 1.0)
    total = f + g
    assert [ln.omega for ln in total.lines] == [1.0, 3.0]
    assert (total - g) == f
    assert (2.0 * f).lines[0].amplitude == 4.0
    with pytest.raises(TypeError):
        f * g


# ----------------------------------------------------------------------
# property tests


@st.composite
def lattice_pairs(draw, max_lines=5):
    """Two spectra on one shared frequency lattice."""
    base = draw(st.floats(0.05, 20.0))

    def one():
        ns = draw(st.lists(st.integers(1, 40), max_size=max_lines, unique=True))
        pairs = []
        if draw(st.booleans()):
            pairs.append((0.0, draw(st.floats(-10.0, 10.0))))
        for n in sorted(ns):
            amp = complex(draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0)))
            pairs.append((n * base, amp))
        return LineSpectrum.from_lines(pairs)

    return one(), one()


@settings(deadline=None, max_examples=60)
@given(lattice_pairs())
def test_hilbert_involution_is_exact(pair):
    f, _ = pair
    twice = f.hilbert().hilbert()
    centered = -(f - LineSpectrum.dc(f.mean()))
    assert twice.lines == centered.lines


@settings(deadline=None, max_examples=60)
@given(lattice_pairs(), st.floats(-50.0, 50.0))
def test_analytic_limits_at_s_zero(pair, t):
    f, _ = pair
    val = f.analytic_at(t)
    assert val.real == pytest.approx(f.evaluate(t), rel=1e-12, abs=1e-12)
    assert val.imag == pytest.approx(f.hilbert().evaluate(t), rel=1e-12, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(lattice_pairs(), st.floats(0.0, 5.0), st.floats(0.01, 5.0))
# a DC line far below the tone: subtracting the mean after evaluation
# would leave eps*|DC| of rounding above the exact-arithmetic bound
@example((LineSpectrum.from_lines([(0.0, 4e-145), (51.75, 1.0)]), LineSpectrum.zero()), 0.0, 7.0)
def test_scale_damping_is_monotone(pair, s1, ds):
    f, _ = pair
    w_min = f.omega_min
    if w_min is None:
        return
    s2 = s1 + ds
    bound_at_s1 = sum(
        abs(ln.amplitude) * math.exp(-ln.omega * s1)
        for ln in f.lines
        if ln.omega > 0.0
    )
    lhs = abs((f - LineSpectrum.dc(f.mean())).analytic_at(0.3, s2))
    assert lhs <= math.exp(-w_min * ds) * bound_at_s1 * (1.0 + 1e-9) + 1e-300


# ----------------------------------------------------------------------
# the carried lattice


def _rebuilt(f):
    """``f`` built afresh from its own lines, with a new lattice search."""
    return LineSpectrum.from_lines([(ln.omega, ln.amplitude) for ln in f.lines], f.unit)


@settings(deadline=None, max_examples=60)
@given(lattice_pairs(), st.floats(-1e3, 1e3))
def test_operators_carry_the_lattice_a_fresh_search_finds(pair, factor):
    f, g = pair
    results = {
        "add": f + g,
        "sub": f - g,
        "scale": f.scale(factor),
        "hilbert": f.hilbert(),
        "derivative": f.derivative(),
    }
    for name, result in results.items():
        fresh = _rebuilt(result)
        assert result.lines == fresh.lines, name
        assert result._keys.tolist() == fresh._keys.tolist(), name
        if fresh.omega0 is None:
            assert result.omega0 is None, name
        else:
            assert result.omega0 == pytest.approx(fresh.omega0, rel=1e-12), name


def test_from_lines_searches_once(lattice_searches):
    f = LineSpectrum.from_lines([(0.0, 1.0), (2.0, 1.0j), (1.0, 0.0), (3.0, 2.0)])
    assert lattice_searches == [3]
    assert f._keys.tolist() == [0, 2, 3]
    LineSpectrum.dc(4.0)
    LineSpectrum.zero()
    assert lattice_searches == [3]


def test_operators_on_one_lattice_do_not_search(lattice_searches):
    # a sum is built from its operands' frequencies, so it searches (below)
    f = LineSpectrum.from_lines([(0.0, 1.0), (1.0, 2.0), (3.0, 1.0j)])
    del lattice_searches[:]
    f.hilbert().derivative().scale(2.0)
    -f * 3.0
    assert lattice_searches == []


def test_dropped_lines_coarsen_the_lattice():
    f = LineSpectrum.from_lines([(1.0, 1.0), (2.0, 1.0), (4.0, 1.0)])
    g = f - LineSpectrum.tone(1.0)
    assert g._keys.tolist() == [1, 2]
    assert g.omega0 == 2.0


def test_sum_of_incommensurate_tones_rejected():
    with pytest.raises(IncommensurateError):
        LineSpectrum.tone(1.0) + LineSpectrum.tone(math.pi)
    with pytest.raises(IncommensurateError):
        LineSpectrum.tone(1.0) - LineSpectrum.tone(math.pi)


def test_lattice_indices_stay_below_two_to_the_62():
    # at 1e19 the index overflowed int64 on assignment; at 5e18 it fit, but
    # a sum of two keys, as a line pair's, wrapped
    for top in (1e19, 5e18):
        with pytest.raises(IncommensurateError, match=r"reaches 2\*\*62"):
            LineSpectrum.from_lines([(1.0, 1.0), (top, 1.0)])
    wide = LineSpectrum.from_lines([(1.0, 1.0), (1e15, 1.0)])
    assert (wide.omega0, wide._keys.tolist()) == (1.0, [1, 10**15])
    # each operand fits on its own base; 3 * 2**61 on the finer base does not
    coarse = LineSpectrum.from_lines([(3.0, 1.0), (3.0 * 2.0**61, 1.0)])
    assert (coarse.omega0, coarse._keys.tolist()) == (3.0, [1, 2**61])
    fine = LineSpectrum.tone(1.0)
    for combine in (lambda: coarse + fine, lambda: fine - coarse):
        with pytest.raises(IncommensurateError, match=r"reaches 2\*\*62"):
            combine()


def test_operands_on_different_bases_meet_on_a_common_lattice(lattice_searches):
    a = LineSpectrum.from_lines([(1.0 / 3.0, 1.0), (2.0 / 3.0, 0.5j)])
    b = LineSpectrum.from_lines([(0.0, 2.0), (0.5, -1.0 + 0.5j), (1.0, 0.25)])
    assert (a.omega0, b.omega0) == (1.0 / 3.0, 0.5)
    del lattice_searches[:]
    third = 1.0 / 3.0
    assert [(ln.omega, ln.amplitude) for ln in (a + b).lines] == [
        (0.0, 2.0), (third, 1.0), (0.5, -1.0 + 0.5j), (2.0 / 3.0, 0.5j), (1.0, 0.25),
    ]
    assert [(ln.omega, ln.amplitude) for ln in (a - b).lines] == [
        (0.0, -2.0), (third, 1.0), (0.5, 1.0 - 0.5j), (2.0 / 3.0, 0.5j), (1.0, -0.25),
    ]
    # one search over both operands' four positive lines per operator
    assert lattice_searches == [4, 4]
    assert (a + b).omega0 == pytest.approx(1.0 / 6.0, rel=1e-15)


@st.composite
def related_pairs(draw):
    """Two spectra on bases that are equal, in an integer ratio, or in a ratio p/q."""
    base = draw(st.floats(0.05, 20.0))
    num, den = draw(st.sampled_from([(1, 1), (2, 1), (1, 3), (5, 1), (2, 3), (7, 5)]))

    def one(step):
        pairs = [(0.0, draw(st.floats(-10.0, 10.0)))] if draw(st.booleans()) else []
        for n in sorted(draw(st.lists(st.integers(1, 12), max_size=5, unique=True))):
            pairs.append((n * step, complex(draw(st.floats(-10.0, 10.0)),
                                            draw(st.floats(-10.0, 10.0)))))
        return LineSpectrum.from_lines(pairs, VOLT)

    return one(base), one(base * num / den)


@settings(deadline=None, max_examples=150)
@given(related_pairs())
@example((LineSpectrum.zero(VOLT), LineSpectrum.am_modulated(2.0, 1.0, 0.1, 0.2, VOLT)))
@example((LineSpectrum.tone(0.5, 1.0, VOLT), LineSpectrum.tone(1.5, 1j, VOLT)))
@example((LineSpectrum.tone(1.0 / 3.0, 1.0, VOLT), LineSpectrum.tone(0.5, -1.0, VOLT)))
# bases in the ratio 3: meeting on the finer operand's base would give
# omega0 10.895318579735186, one ulp above what the constructor finds
@example((LineSpectrum.from_lines([(43.58127431894074, 1.0), (119.84850437708704, 1.0)], VOLT),
          LineSpectrum.tone(32.68595573920555, 1.0, VOLT)))
def test_sum_is_the_constructor_on_both_operands_lines(pair):
    a, b = pair

    def lines(f):
        return list(zip(f._omegas.tolist(), f._amps.tolist()))

    for got, first, second in ((a + b, a, b), (a - b, a, -b), (b + a, b, a)):
        want = LineSpectrum(lines(first) + lines(second), VOLT)
        for name in ("_keys", "_omegas", "_amps"):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
        assert (got.omega0, got.unit) == (want.omega0, want.unit)


def test_overflowing_amplitudes_raise_value_error():
    big = LineSpectrum.tone(1.0, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="amplitude must be finite"):
            LineSpectrum.tone(1.0, 1.5e308) + LineSpectrum.tone(1.0, 1.5e308)
        with pytest.raises(ValueError, match="amplitude must be finite"):
            big.scale(1e10)
        with pytest.raises(ValueError, match="amplitude must be finite"):
            LineSpectrum.tone(1e10, 1e300).derivative()


# ----------------------------------------------------------------------
# one array representation


def test_pipeline_builds_no_line_objects(rng, line_objects):
    # the power layer and the oracle alike
    for _ in range(50):
        sol = solved_case(rng, allow_dc=True)
        sol = solve(sol.netlist, sol.source)
        instantaneous(sol)
        scaled(sol, np.linspace(0.0, 1.0, 8), [0.0, 0.5])
        verify_balances(sol)
        budeanu(sol)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TransientWarning)
            ode_steady_state(sol.netlist, sol.source, periods=10, steps_per_period=64)
        period = sol.source.period or 1.0
        fft_hilbert(sol.source.sample(0.0, period / 64, 64))
        point, cfg = ComplexTimePoint(0.3, 0.5), QuadratureConfig(10.0 * period, panels=64)
        quadrature_analytic(sol.source, point, cfg)
        quadrature_tail_bound(sol.source, point, cfg)
    for _ in range(10):
        omega = float(rng.uniform(0.2, 8.0))
        sol = solved_case(rng, source=LineSpectrum.tone(omega, rng.uniform(0.5, 20.0), VOLT))
        q_from_stored_energy(sol, omega)
    assert line_objects == []


def test_copies_keep_their_arrays_read_only():
    f = LineSpectrum.from_lines([(0.0, 1.0), (1.0, 2.0j), (3.0, -1.0)])
    f.lines  # a cached tuple travels with the copy
    for g in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g == f
        assert g.omega0 == f.omega0
        assert g.evaluate(0.0) == f.evaluate(0.0)
        for arr in (g._keys, g._omegas, g._amps):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 99
        assert g.evaluate(0.0) == f.evaluate(0.0)


def test_omegas_and_amplitudes_are_writable_copies():
    f = LineSpectrum.from_lines([(0.0, 1.0), (1.0, 2.0j), (3.0, -1.0)])
    omegas, amps = f.omegas, f.amplitudes
    omegas[:] = 7.0
    amps[:] = 0.0
    assert f.omegas.tolist() == [0.0, 1.0, 3.0]
    assert f.amplitudes.tolist() == [1.0, 2.0j, -1.0]
    assert f.lines == (SpectralLine(0.0, 1.0), SpectralLine(1.0, 2.0j), SpectralLine(3.0, -1.0))
    assert f == LineSpectrum.from_lines([(0.0, 1.0), (1.0, 2.0j), (3.0, -1.0)])


# ----------------------------------------------------------------------
# one constructor, one evaluation kernel


@st.composite
def raw_pairs(draw):
    """Unsorted (omega, amplitude) pairs on one lattice with repeats, zeros and DC."""
    base = draw(st.floats(0.05, 20.0))
    amp = st.floats(-10.0, 10.0) | st.just(0.0)
    pairs = []
    for n in draw(st.lists(st.integers(0, 8), max_size=8)):
        if n == 0:
            pairs.append((0.0, draw(amp)))
        else:
            pairs.append((n * base, complex(draw(amp), draw(amp))))
    if draw(st.booleans()):
        pairs = [SpectralLine(*p) for p in pairs]
    return pairs


@settings(deadline=None, max_examples=80)
@given(raw_pairs(), st.sampled_from(["", VOLT]))
@example([(1.0, 0.0)], "")
@example([(2.0, 1.0), (0.0, 3.0), (1.0, 0.0), (2.0, -1.0), (0.0, 0.5)], VOLT)
def test_constructor_is_from_lines(pairs, unit):
    f = LineSpectrum(pairs, unit)
    g = LineSpectrum.from_lines(pairs, unit)
    assert f == g
    assert f._keys.tolist() == g._keys.tolist()
    assert f.omega0 == g.omega0
    assert np.all(np.diff(f.omegas) > 0.0)
    assert np.all(f.amplitudes != 0.0)
    plain = [(p.omega, p.amplitude) if isinstance(p, SpectralLine) else p for p in pairs]
    t = np.linspace(-3.0, 3.0, 11)
    direct = sum((complex(a) * np.exp(1j * w * t)).real for w, a in plain)
    scale = max(1.0, sum(abs(a) for _, a in plain))
    assert np.max(np.abs(f.evaluate(t) - direct)) <= 1e-12 * scale


def test_a_zero_line_is_the_zero_spectrum():
    f = LineSpectrum([(1.0, 0.0)])
    assert f == LineSpectrum.zero()
    assert f.is_zero
    assert f.omega0 is None


def test_constructor_tolerates_a_rounded_dc_imaginary_part():
    f = LineSpectrum([(0.0, 2.0 + 1e-12j), (1.0, 1.0)])
    assert f.lines[0] == SpectralLine(0.0, 2.0)


def _merged(pairs, unit):
    """The constructor's general route: every line merged through np.unique
    and bincount, whether or not the lattice keys come out ascending."""
    omegas = np.array([w for w, _ in pairs], dtype=float)
    amps = np.array([a for _, a in pairs], dtype=complex)
    positive = omegas > 0.0
    base, found = spectrum._find_lattice(omegas[positive].tolist())
    keys = np.zeros(omegas.size, dtype=np.int64)
    keys[positive] = found
    keys, first, sums = spectrum._sum_by_key(keys, amps.real, amps.imag)
    return object.__new__(LineSpectrum)._store(keys, omegas[first], sums, unit, base)


@pytest.mark.parametrize("pairs, ascending", [
    ([(1.0, complex(-0.0, -0.0)), (2.0, complex(1.5, -0.0)), (3.0, complex(-0.0, 2.0))], True),
    ([(0.0, -0.0), (1.0, complex(-2.0, -0.0))], True),
    ([(1.0, 0.0), (2.0, 1.0 + 1.0j), (3.0, 0j), (4.0, -2.0)], True),
    ([(0.0, 2.5)], True),
    ([(0.0, 2.0 + 1e-12j), (1.0, 1.0)], True),
    ([(3.0, 1.0), (1.0, 2j), (0.0, -0.0), (2.0, -1.0)], False),
    ([(1.0, 1.0), (1.0, -0.0), (2.0, complex(-0.0, 3.0)), (2.0, -0.0)], False),
    ([(1.0, 1.0), (1.0 + 1e-12, 2.0)], False),
    ([], True),
])
def test_ascending_lines_skip_the_merge_and_keep_its_bits(monkeypatch, pairs, ascending):
    want = _merged(pairs, VOLT)
    merges = []
    merge = spectrum._sum_by_key
    monkeypatch.setattr(spectrum, "_sum_by_key", lambda *args: merges.append(1) or merge(*args))
    got = LineSpectrum(pairs, VOLT)
    assert merges == ([] if ascending else [1])
    for name in ("_keys", "_omegas", "_amps"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert (got.omega0, got.unit) == (want.omega0, want.unit)


def _bits(x):
    return np.asarray(x).tobytes()


def test_evaluators_match_the_three_formulas_bit_for_bit():
    """The shared kernel gives the bits each evaluator's own formula gave."""
    rng = np.random.default_rng(2024)
    sources = [LineSpectrum.zero(), LineSpectrum.dc(1.5)]
    sources += [random_source(rng, allow_dc=True) for _ in range(398)]
    for f in sources:
        t = rng.uniform(-50.0, 50.0, 17)
        t0 = float(t[0])
        s_grid = np.concatenate(([0.0], rng.uniform(0.0, 3.0, 6)))
        s = float(s_grid[1])
        dc = int(f._keys.size > 0 and f._keys[0] == 0)
        a0 = float(f._amps[0].real) if dc else 0.0
        w, amps = f._omegas[dc:], f._amps[dc:]

        def evaluate(t):
            t = np.asarray(t, dtype=float)
            if w.size == 0:
                return np.full(t.shape, a0)
            return a0 + (np.exp(1j * np.multiply.outer(t, w)) @ amps).real

        def analytic_at(t, s):
            t = np.asarray(t, dtype=float)
            if w.size == 0:
                return np.full(t.shape, a0, dtype=complex)
            return a0 + np.exp(1j * np.multiply.outer(t, w)) @ (amps * np.exp(-w * s))

        def analytic_grid(t, s):
            if w.size == 0:
                return np.full((t.size, s.size), a0, dtype=complex)
            damp = np.exp(-np.outer(w, s))
            return a0 + np.exp(1j * np.outer(t, w)) @ (amps[:, None] * damp)

        assert _bits(f.evaluate(t0)) == _bits(float(evaluate(t0)))
        assert _bits(f.evaluate(t)) == _bits(evaluate(t))
        for at in (0.0, s):
            assert _bits(f.analytic_at(t0, at)) == _bits(complex(analytic_at(t0, at)))
            assert _bits(f.analytic_at(t, at)) == _bits(analytic_at(t, at))
        assert _bits(f.analytic_grid(t, s_grid)) == _bits(analytic_grid(t, s_grid))
