"""Run one workload item through pqbalance, then check it by another route.

``run_item`` is the timed work.  It reaches the program only through
attribute lookups on the public modules at call time
(``pqbalance.solve``, ``pqbalance.cli.main``, ...), so the tracer can
wrap those bindings.  ``check_item`` runs afterwards, outside the timed
phase, and returns a list of failure messages; an empty list is a pass.
The checks recompute what they can from the per-line phasors in the
benchmark itself:

* Tellegen: per line, the port's active power equals the resistor losses;
* per line, the reactive power equals 2*omega*(W_m - W_e) from the
  branch phasors;
* the time means of X and Q along the scale axis equal the phasor sums
  ``sum_k (...) e^{-2 omega_k s}``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pqbalance
import pqbalance.cli

import inputs

BALANCE_RTOL = 1e-9
CROSS_RTOL = 1e-8
TELLEGEN_RTOL = 1e-9
ODE_RTOL = 1e-4
FFT_RTOL = 1e-8
FLICKER_P = 10.05
FLICKER_Q = -30.15
FLICKER_RTOL = 1e-6

SUBCOMMANDS = ("analyze", "verify", "sweep-s")
BALANCE_LAWS = ("instantaneous", "active", "reactive")


@dataclass
class Outcome:
    """What the timed work produced; ``error`` holds an exception it raised."""

    values: dict = field(default_factory=dict)
    times: dict = field(default_factory=dict)
    error: str | None = None


# ----------------------------------------------------------------------
# building program inputs from generated data


def source_pairs(lines):
    return [
        (ln["omega"], ln["amplitude_peak"] * complex(math.cos(ln["phase"]),
                                                     math.sin(ln["phase"])))
        for ln in lines
    ]


def prepare(workload, item, where: Path, root: Path):
    """Write what the timed work reads from disk; returns the paths it needs."""
    if workload != "cli-batch":
        return {}
    where.mkdir(parents=True)
    if item.get("flicker"):
        config = root / "benchmarks" / "flicker_config.json"
    else:
        (where / "net.json").write_text(json.dumps(item["netlist"]), encoding="utf-8")
        doc = {k: v for k, v in item.items() if k != "netlist"}
        doc["netlist"] = "net.json"
        config = where / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
    return {"config": str(config), "analyze": str(where / "analyze"),
            "sweep-s": str(where / "sweep")}


# ----------------------------------------------------------------------
# the timed work


def _run_cli(paths, out: Outcome):
    codes = {}
    texts = {}
    for cmd in SUBCOMMANDS:
        argv = [cmd, "--config", paths["config"]]
        if cmd != "verify":
            argv += ["--out", paths[cmd]]
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes[cmd] = pqbalance.cli.main(argv)
        out.times[cmd] = time.perf_counter() - t0
        texts[cmd] = sink.getvalue()
    out.values["codes"] = codes
    out.values["text"] = texts


def _build(item):
    net = pqbalance.Netlist.from_dict(item["netlist"])
    source = pqbalance.LineSpectrum.from_lines(source_pairs(item["lines"]), pqbalance.VOLT)
    return net, source


def _run_many_lines(item, out: Outcome):
    net, source = _build(item)
    sol = pqbalance.solve(net, source)
    t_grid = pqbalance.default_t_grid(source)
    s_grid = pqbalance.default_s_grid(source)
    out.values.update(
        sol=sol,
        s_grid=s_grid,
        summary=pqbalance.classical_summary(sol),
        q_budeanu=pqbalance.budeanu(sol),
        iset=pqbalance.instantaneous(sol),
        scaled=pqbalance.scaled(sol, t_grid, s_grid),
        report=pqbalance.verify_balances(sol, t_grid, s_grid),
        means=pqbalance.scaled_time_means(sol, s_grid),
    )


def _run_wide_net(item, out: Outcome):
    net, source = _build(item)
    sol = pqbalance.solve(net, source)
    out.values.update(
        sol=sol,
        summary=pqbalance.classical_summary(sol),
        q_budeanu=pqbalance.budeanu(sol),
    )


def _run_oracle(item, out: Outcome):
    net, source = _build(item)
    out.values["sol"] = pqbalance.solve(net, source)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out.values["ode"] = pqbalance.ode_steady_state(
            net, source, inputs.ORACLE_PERIODS, inputs.ORACLE_STEPS_PER_PERIOD)
    out.values["warnings"] = [str(w.message) for w in caught]
    n = inputs.ORACLE_FFT_SAMPLES
    sampled = source.sample(0.0, source.period / n, n)
    out.values["fft"] = (sampled, pqbalance.fft_hilbert(sampled))
    quad = []
    for pt in item["quadrature_points"]:
        point = pqbalance.ComplexTimePoint(pt["t"], pt["s"])
        quad.append([
            pqbalance.quadrature_analytic(
                source, point, pqbalance.QuadratureConfig(half_width=w))
            for w in item["quadrature_widths"]
        ])
    out.values["quadrature"] = quad


_RUNNERS = {
    "many-lines": _run_many_lines,
    "wide-net": _run_wide_net,
    "oracle": _run_oracle,
}


def run_item(workload, item, paths) -> Outcome:
    """The timed work of one item.  Exceptions are recorded, not raised."""
    out = Outcome()
    try:
        if workload == "cli-batch":
            _run_cli(paths, out)
        else:
            _RUNNERS[workload](item, out)
    except Exception as exc:  # one failing item must not end the run
        out.error = f"{type(exc).__name__}: {exc}"
    return out


# ----------------------------------------------------------------------
# checks, outside the timed phase


def _rel_gap(a, b, scale):
    return abs(a - b) / max(scale, 1e-300)


def _line_checks(sol, lines, fails):
    """Tellegen and stored-energy routes per line, from the branch phasors."""
    branches = sol.netlist.branches
    if len(lines) != len(sol.per_line):
        fails.append(f"{len(lines)} line powers for {len(sol.per_line)} lines")
    for ph, line in zip(sol.per_line, lines):
        w = ph.omega
        factor = 1.0 if w == 0.0 else 0.5
        loss = 0.0
        x_line = 0.0
        magnitude = abs(ph.port_voltage * ph.port_current) * factor
        for b in branches:
            v, i = ph.voltage[b.id], ph.current[b.id]
            magnitude += abs(v * i) * factor
            if b.kind == "resistor":
                loss += factor * b.value * abs(i) ** 2
            elif b.kind == "inductor":
                x_line += 0.25 * b.value * abs(i) ** 2
            else:
                x_line -= 0.25 * b.value * abs(v) ** 2
        if _rel_gap(line.p, loss, magnitude) > TELLEGEN_RTOL:
            fails.append(f"Tellegen at omega={w!r}: port {line.p!r} vs losses {loss!r}")
        if w > 0.0 and _rel_gap(line.q, 2.0 * w * x_line, magnitude) > TELLEGEN_RTOL:
            fails.append(f"stored-energy Q at omega={w!r}: {line.q!r} vs {2 * w * x_line!r}")


def _scale_mean_checks(sol, s_grid, means, fails):
    """Time means of X(s) and Q(s) against phasor sums with e^{-2 omega s}."""
    s_arr = np.asarray(s_grid, dtype=float)
    want_x = np.zeros_like(s_arr)
    want_q = np.zeros_like(s_arr)
    scale = 0.0
    for ph in sol.per_line:
        decay = np.exp(-2.0 * ph.omega * s_arr)
        for b in sol.netlist.branches:
            if b.kind == "inductor":
                term = 0.25 * b.value * abs(ph.current[b.id]) ** 2
            elif b.kind == "capacitor":
                term = -0.25 * b.value * abs(ph.voltage[b.id]) ** 2
            else:
                continue
            want_x += term * decay
            scale += abs(term)
        q_term = 0.5 * (ph.port_voltage * ph.port_current.conjugate()).imag
        want_q += q_term * decay
        scale += abs(0.5 * ph.port_voltage * ph.port_current)
    mean_x, mean_q = means
    gap = max(float(np.max(np.abs(mean_x - want_x))), float(np.max(np.abs(mean_q - want_q))))
    if gap > CROSS_RTOL * max(scale, 1e-300):
        fails.append(f"scale-axis time means off the phasor route by {gap:.3e} (scale {scale:.3e})")


def _budeanu_checks(values, fails):
    summary = values["summary"]
    if _rel_gap(values["q_budeanu"], summary.q_budeanu, summary.s_apparent) > CROSS_RTOL:
        fails.append(f"Budeanu {values['q_budeanu']!r} vs per-line sum {summary.q_budeanu!r}")


def _balance_checks(relative, fails):
    """``relative`` maps each balance law to its relative residual."""
    for law, rel in relative.items():
        if not rel <= BALANCE_RTOL:
            fails.append(f"{law} balance relative residual {rel:.3e} > {BALANCE_RTOL:g}")


def _check_cli(item, paths, out, fails):
    for cmd, code in out.values["codes"].items():
        if code != 0:
            fails.append(f"{cmd} exited {code}: {out.values['text'][cmd].strip()}")
    if fails:
        return
    verdicts = out.values["text"]["verify"].splitlines()
    if len(verdicts) != 4 or not all(": PASS " in v for v in verdicts):
        fails.append(f"verify verdicts: {verdicts}")
    analyze = Path(paths["analyze"])
    balance = json.loads((analyze / "balance.json").read_text(encoding="utf-8"))
    _balance_checks({law: balance[law]["relative"] for law in BALANCE_LAWS}, fails)
    summary_doc = json.loads((analyze / "summary.json").read_text(encoding="utf-8"))
    cfg = pqbalance.cli.load_config(paths["config"])
    sol = pqbalance.solve(cfg.netlist, cfg.source)
    _line_checks(sol, [pqbalance.LinePower(**ln) for ln in summary_doc["lines"]], fails)
    n_t = len(cfg.time_grid())
    n_s = len(cfg.scale_grid())
    rows = (analyze / "instantaneous.csv").read_text(encoding="utf-8").splitlines()
    scaled_files = sorted(analyze.glob("scaled_s*.csv"))
    if len(rows) != n_t + 1 or len(scaled_files) != n_s:
        fails.append(f"analyze wrote {len(rows) - 1} time rows and {len(scaled_files)} scale files")
    sweep = (Path(paths["sweep-s"]) / "sweep.csv").read_text(encoding="utf-8").splitlines()
    first = dict(zip(sweep[0].split(","), map(float, sweep[1].split(","))))
    if len(sweep) != n_s + 1 or first["s"] != 0.0:
        fails.append(f"sweep.csv has {len(sweep) - 1} rows starting at s={first['s']!r}")
    elif _rel_gap(first["mean_Q"], summary_doc["q_budeanu"],
                  summary_doc["s_apparent"]) > CROSS_RTOL:
        fails.append(f"sweep mean_Q(0)={first['mean_Q']!r} vs Q_B={summary_doc['q_budeanu']!r}")
    if item.get("flicker"):
        p, q = summary_doc["p_mean"], summary_doc["q_budeanu"]
        if _rel_gap(p, FLICKER_P, FLICKER_P) > FLICKER_RTOL or \
                _rel_gap(q, FLICKER_Q, -FLICKER_Q) > FLICKER_RTOL:
            fails.append(f"flicker P={p!r} W, Q={q!r} VAr")


def _check_oracle(item, out, fails):
    values = out.values
    sol = values["sol"]
    if values["warnings"]:
        fails.append(f"oracle warned: {values['warnings']}")
    sig = values["ode"]
    want = sol.port_current.evaluate(sig.times)
    err = float(np.max(np.abs(sig.samples - want))) / max(float(np.max(np.abs(want))), 1e-300)
    if not err <= ODE_RTOL:
        fails.append(f"ODE vs solve {err:.3e} > {ODE_RTOL:g}")
    sampled, via_fft = values["fft"]
    via_lines = sol.source.hilbert().sample(sampled.t0, sampled.dt, len(sampled))
    scale = max(float(np.max(np.abs(sampled.samples))), 1e-300)
    err = float(np.max(np.abs(via_fft.samples - via_lines.samples))) / scale
    if not err <= FFT_RTOL:
        fails.append(f"FFT vs line Hilbert {err:.3e} > {FFT_RTOL:g}")
    for pt, results in zip(item["quadrature_points"], values["quadrature"]):
        point = pqbalance.ComplexTimePoint(pt["t"], pt["s"])
        exact = sol.source.analytic_at(point.t, point.s)
        for width, got in zip(item["quadrature_widths"], results):
            bound = pqbalance.quadrature_tail_bound(
                sol.source, point, pqbalance.QuadratureConfig(half_width=width))
            err = abs(got - exact)
            if not err <= bound:
                fails.append(f"quadrature at {pt} width {width!r}: {err:.3e} > {bound:.3e}")


def check_item(workload, item, paths, out: Outcome) -> list[str]:
    """Failure messages for one item; empty when every check passes."""
    if out.error is not None:
        return [out.error]
    fails: list[str] = []
    try:
        if workload == "cli-batch":
            _check_cli(item, paths, out, fails)
            return fails
        values = out.values
        if workload == "oracle":
            _check_oracle(item, out, fails)
            return fails
        _line_checks(values["sol"], values["summary"].lines, fails)
        _budeanu_checks(values, fails)
        if workload == "many-lines":
            report = values["report"]
            _balance_checks({law: getattr(report, f"{law}_relative") for law in BALANCE_LAWS},
                            fails)
            _scale_mean_checks(values["sol"], values["s_grid"], values["means"], fails)
            p_mean = values["iset"].p.mean()
            summary = values["summary"]
            if _rel_gap(p_mean, summary.p_mean, summary.s_apparent) > CROSS_RTOL:
                fails.append(f"mean of p(t) {p_mean!r} vs per-line sum {summary.p_mean!r}")
    except Exception as exc:  # a malformed output is a failed item
        fails.append(f"check raised {type(exc).__name__}: {exc}")
    return fails
