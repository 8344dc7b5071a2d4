"""Batch front end: config in, CSV time series and JSON reports out.

A single JSON config names the netlist file, describes the driving
voltage as explicit lines and/or an AM shorthand, and optionally
overrides the evaluation grids and output set.  Three subcommands share
it: ``analyze`` writes waveform tables and summary documents, ``sweep-s``
writes time-averaged reactive quantities against the scale, and
``verify`` prints one verdict line per balance law and sets the exit
code.  All numeric output uses 17 significant digits and LF line
endings, so a fixed config yields byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .network import Netlist, SingularNetworkError, solve
from .power import (
    ConsistencyError,
    _balance_report,
    _checked_summary,
    budeanu,
    default_s_grid,
    default_t_grid,
    scaled,
    scaled_time_means,
    verify_balances,
)
from .spectrum import VOLT, LineSpectrum

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# Budeanu totals smaller than this fraction of apparent power count as balanced.
_BALANCED_BAND = 1e-9

_FORMATS = ("csv", "json")


def _fmt(value) -> str:
    return format(float(value), ".17g")


@dataclass(frozen=True)
class AnalysisConfig:
    """Validated analysis request: netlist, source, resolved grids, output policy."""

    netlist: Netlist
    source: LineSpectrum
    t_grid: np.ndarray
    s_grid: np.ndarray
    out_dir: str | None
    formats: tuple[str, ...]

    def time_grid(self) -> np.ndarray:
        return self.t_grid

    def scale_grid(self) -> np.ndarray:
        return self.s_grid


def _require_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{path}: expected a finite number, got {value!r}")
    return number


def _parse_grid(config, key, path, default, nonnegative=False) -> np.ndarray:
    """config[key] as {"n": count} or {"values": [...]}; default() when absent."""
    if key not in config:
        return default()
    data = config[key]
    path = f"{path}: {key}"
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected an object with 'n' or 'values'")
    if ("n" in data) == ("values" in data):
        raise ValueError(f"{path}: give exactly one of 'n' or 'values'")
    if "n" in data:
        n = data["n"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 2:
            raise ValueError(f"{path}.n: expected an integer >= 2, got {n!r}")
        return default(n)
    values = data["values"]
    if not isinstance(values, list) or not values:
        raise ValueError(f"{path}.values: expected a nonempty array")
    # adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is
    arr = np.array(
        [_require_number(v, f"{path}.values[{i}]") for i, v in enumerate(values)]
    ) + 0.0
    if nonnegative and np.any(arr < 0.0):
        raise ValueError(f"{path}.values: scale values must be >= 0")
    return arr


def _parse_source(data, path) -> LineSpectrum:
    if not isinstance(data, dict) or not ({"lines", "am"} & set(data)):
        raise ValueError(f"{path}: expected an object with 'lines' and/or 'am'")
    lines = data.get("lines", [])
    if not isinstance(lines, list):
        raise ValueError(f"{path}.lines: expected an array")
    pairs = []
    for i, raw in enumerate(lines):
        where = f"{path}.lines[{i}]"
        if not isinstance(raw, dict):
            raise ValueError(f"{where}: expected an object")
        peak = _require_number(raw.get("amplitude_peak"), f"{where}.amplitude_peak")
        omega = _require_number(raw.get("omega"), f"{where}.omega")
        phase = _require_number(raw.get("phase", 0.0), f"{where}.phase")
        if omega == 0.0 and phase != 0.0:
            raise ValueError(f"{where}: a DC line cannot carry a phase")
        pairs.append((omega, peak * complex(math.cos(phase), math.sin(phase))))
    total = LineSpectrum.from_lines(pairs, VOLT)
    if "am" in data:
        raw = data["am"]
        where = f"{path}.am"
        if not isinstance(raw, dict):
            raise ValueError(f"{where}: expected an object")
        total = total + LineSpectrum.am_modulated(
            _require_number(raw.get("amplitude_peak"), f"{where}.amplitude_peak"),
            _require_number(raw.get("omega"), f"{where}.omega"),
            _require_number(raw.get("depth"), f"{where}.depth"),
            _require_number(raw.get("mod_omega"), f"{where}.mod_omega"),
            VOLT,
        )
    return total


def _read_json(path: Path, what: str):
    """The parsed contents of a JSON file; ValueError naming it when unreadable."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"{path}: cannot read {what}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None


def load_config(path) -> AnalysisConfig:
    """Read and validate a config file; netlist paths resolve next to it.

    Absent grids and grids given by count are resolved to arrays here.
    """
    cfg_path = Path(path)
    data = _read_json(cfg_path, "config")
    if not isinstance(data, dict):
        raise ValueError(f"{cfg_path}: config must be a JSON object")
    if "netlist" not in data or not isinstance(data["netlist"], str):
        raise ValueError(f"{cfg_path}: 'netlist' must name a file")
    net_path = cfg_path.parent / data["netlist"]
    netlist = Netlist.from_dict(_read_json(net_path, "netlist"), where=str(net_path))
    if "source" not in data:
        raise ValueError(f"{cfg_path}: missing 'source'")
    source = _parse_source(data["source"], f"{cfg_path}: source")
    t_grid = _parse_grid(data, "t_grid", cfg_path, functools.partial(default_t_grid, source))
    s_grid = _parse_grid(
        data, "s_grid", cfg_path, functools.partial(default_s_grid, source), nonnegative=True
    )
    out_dir = data.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ValueError(f"{cfg_path}: out_dir must be a string")
    formats = data.get("formats", list(_FORMATS))
    if (
        not isinstance(formats, list)
        or not formats
        or any(f not in _FORMATS for f in formats)
    ):
        raise ValueError(f"{cfg_path}: formats must be a nonempty subset of {_FORMATS}")
    return AnalysisConfig(
        netlist=netlist,
        source=source,
        t_grid=t_grid,
        s_grid=s_grid,
        out_dir=out_dir,
        formats=tuple(dict.fromkeys(formats)),
    )


# ----------------------------------------------------------------------
# output writers


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: Path, header, columns):
    """One header line, then the columns side by side as rows of %.17g values.

    The whole table goes through one %-format call, which gives the same
    text as _fmt value by value.
    """
    table = np.array(columns, dtype=float).T
    rows, cols = table.shape
    template = (",".join(["%.17g"] * cols) + "\n") * rows
    _write_text(path, ",".join(header) + "\n" + template % tuple(table.ravel().tolist()))


def _write_json(path: Path, document):
    _write_text(path, json.dumps(document, indent=2) + "\n")


def _character(q_total, s_apparent) -> str:
    if abs(q_total) < _BALANCED_BAND * max(s_apparent, 1e-300):
        return "balanced"
    return "inductive" if q_total > 0.0 else "capacitive"


def _scale_file_names(s_arr) -> list[str]:
    """One per-scale CSV name per value; ValueError when two values share one."""
    names = {}
    for s_val in s_arr:
        name = f"scaled_s{format(float(s_val), '.6g')}.csv"
        if name in names:
            raise ValueError(
                f"s_grid values {names[name]!r} and {float(s_val)!r} "
                f"would both be written to {name}"
            )
        names[name] = float(s_val)
    return list(names)


def run_analyze(cfg: AnalysisConfig) -> int:
    """Write instantaneous.csv, per-scale CSVs, summary.json, balance.json."""
    s_arr = cfg.scale_grid()
    scale_files = _scale_file_names(s_arr) if "csv" in cfg.formats else []
    sol = solve(cfg.netlist, cfg.source)
    t_arr = cfg.time_grid()
    out = Path(cfg.out_dir)
    # both output sets read it, and its terms at s = 0 are evaluated once
    sq = scaled(sol, t_arr, s_arr)

    if "csv" in cfg.formats:
        # P_t and Q_t: Re and Im of 1/2 u_a conj(i_a) at s = 0
        names = ["p", "p_d", "w_m", "w_e", "w", "x", "P_t", "Q_t"]
        _write_csv(out / "instantaneous.csv", ["t", *names],
                   [t_arr, *(sq._instant[name] for name in names)])
        for k, name in enumerate(scale_files):
            _write_csv(
                out / name,
                ["t", "W_m", "W_e", "W", "X", "P", "Q", "P_d"],
                [
                    t_arr,
                    sq.w_magnetic[:, k],
                    sq.w_electric[:, k],
                    sq.w_stored[:, k],
                    sq.x_reactive[:, k],
                    sq.p[:, k],
                    sq.q[:, k],
                    sq.p_dissipated[:, k],
                ],
            )

    if "json" in cfg.formats:
        summary = _checked_summary(sol)  # runs budeanu's two-route cross-check
        report = _balance_report(sol, sq)
        doc = summary.to_dict()
        doc["character"] = _character(summary.q_budeanu, summary.s_apparent)
        doc["residual_maxima"] = {
            "instantaneous": report.instantaneous_residual,
            "active": report.active_residual,
            "reactive": report.reactive_residual,
        }
        _write_json(out / "summary.json", doc)
        _write_json(out / "balance.json", report.to_dict())
    return EXIT_OK


def run_sweep_s(cfg: AnalysisConfig) -> int:
    """Write sweep.csv: time-averaged reactive energy and power against s."""
    sol = solve(cfg.netlist, cfg.source)
    s_arr = cfg.scale_grid()
    mean_x, mean_q = scaled_time_means(sol, s_arr)
    _write_csv(Path(cfg.out_dir) / "sweep.csv", ["s", "mean_X", "mean_Q"],
               [s_arr, mean_x, mean_q])
    return EXIT_OK


def run_verify(cfg: AnalysisConfig, tol) -> int:
    """Check the three balance laws and the Budeanu cross-check; print verdicts."""
    sol = solve(cfg.netlist, cfg.source)
    report = verify_balances(sol, cfg.time_grid(), cfg.scale_grid())
    status = EXIT_OK
    checks = [
        ("instantaneous balance", report.instantaneous_relative,
         f"t={_fmt(report.worst_instantaneous_t)}"),
        ("active balance", report.active_relative,
         f"t={_fmt(report.worst_active_t)}, s={_fmt(report.worst_active_s)}"),
        ("reactive balance", report.reactive_relative,
         f"t={_fmt(report.worst_reactive_t)}, s={_fmt(report.worst_reactive_s)}"),
    ]
    for name, relative, worst in checks:
        if relative <= tol:
            print(f"{name}: PASS relative residual {relative:.3e} (tolerance {tol:g})")
        else:
            print(
                f"{name}: FAIL relative residual {relative:.3e} "
                f"exceeds {tol:g} at {worst}"
            )
            status = EXIT_NUMERIC
    try:
        budeanu(sol)
        print("budeanu cross-check: PASS two routes agree")
    except ConsistencyError as exc:
        print(f"budeanu cross-check: FAIL {exc}")
        status = EXIT_NUMERIC
    return status


# ----------------------------------------------------------------------
# argument handling


def _tolerance(text) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return tol


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every main call."""
    parser = argparse.ArgumentParser(
        prog="pqbalance",
        description="Power and energy analysis of RLC networks under multi-tone drive",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="write waveform tables and summaries")
    sweep = sub.add_parser("sweep-s", help="write scale-sweep table")
    verify = sub.add_parser("verify", help="check the balance laws")
    for p in (analyze, sweep, verify):
        p.add_argument("--config", required=True, help="path to a JSON config file")
    for p in (analyze, sweep):
        p.add_argument("--out", help="output directory (overrides config out_dir)")
    analyze.add_argument(
        "--format",
        choices=["csv", "json", "both"],
        help="restrict outputs (overrides config formats)",
    )
    verify.add_argument(
        "--tol", type=_tolerance, default=1e-9,
        help="relative residual tolerance (default 1e-9)",
    )
    return parser


def _resolve_outputs(cfg: AnalysisConfig, args) -> AnalysisConfig:
    formats = cfg.formats
    if args.command == "analyze" and args.format:
        formats = _FORMATS if args.format == "both" else (args.format,)
    out_dir = args.out or cfg.out_dir or "pqbalance_out"
    return replace(cfg, out_dir=out_dir, formats=tuple(formats))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "verify":
            return run_verify(cfg, args.tol)
        run = run_analyze if args.command == "analyze" else run_sweep_s
        return run(_resolve_outputs(cfg, args))
    except (SingularNetworkError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
