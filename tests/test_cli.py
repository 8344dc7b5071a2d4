"""Command-line front end: config parsing, file outputs, exit codes."""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pqbalance import cli, power
from pqbalance.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, load_config, main
from pqbalance.network import solve
from pqbalance.power import scaled, verify_balances
from pqbalance.spectrum import LineSpectrum

from conftest import port_power_reference

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
SRC = BENCH.parent / "src"

ROOT2 = math.sqrt(2.0)


@pytest.fixture
def bench_dir(tmp_path):
    """Benchmark config and netlist copied somewhere writable."""
    for name in ("flicker_config.json", "flicker_netlist.json"):
        shutil.copy(BENCH / name, tmp_path / name)
    return tmp_path


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def simple_setup(tmp_path, source=None, extra=None):
    """Single 2-ohm resistor behind a one-line source; returns config path."""
    write_json(
        tmp_path / "net.json",
        {
            "branches": [
                {"id": "r1", "kind": "resistor", "value": 2.0, "nodes": ["p", "0"]}
            ],
            "port": {"plus": "p", "ground": "0"},
        },
    )
    cfg = {
        "netlist": "net.json",
        "source": source or {"lines": [{"amplitude_peak": ROOT2, "omega": 1.0}]},
    }
    cfg.update(extra or {})
    path = tmp_path / "config.json"
    write_json(path, cfg)
    return path


# ----------------------------------------------------------------------
# config handling


def test_load_config_benchmark(bench_dir):
    cfg = load_config(bench_dir / "flicker_config.json")
    assert set(cfg.netlist.by_kind("resistor")[0].nodes) == {"port", "gnd"}
    assert sorted(cfg.source.omegas.tolist()) == [0.8, 1.0, 1.2]
    assert cfg.out_dir == "flicker_out"
    assert cfg.formats == ("csv", "json")


def test_missing_config_file(tmp_path, capsys):
    assert main(["analyze", "--config", str(tmp_path / "nope.json")]) == EXIT_INPUT
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["analyze", "--config", str(path)]) == EXIT_INPUT
    assert "invalid JSON" in capsys.readouterr().err


def test_missing_netlist_file(tmp_path, capsys):
    path = simple_setup(tmp_path)
    (tmp_path / "net.json").unlink()
    assert main(["analyze", "--config", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "cannot read netlist" in err and "net.json" in err


def test_invalid_json_netlist(tmp_path, capsys):
    path = simple_setup(tmp_path)
    (tmp_path / "net.json").write_text("{not json", encoding="utf-8")
    assert main(["analyze", "--config", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{tmp_path / 'net.json'}: invalid JSON" in err


def test_load_config_resolves_the_grids_bit_for_bit(tmp_path):
    source = {"lines": [{"amplitude_peak": 1.0, "omega": 1.5},
                        {"amplitude_peak": 0.5, "omega": 4.5, "phase": 0.3}]}
    spectrum = load_config(simple_setup(tmp_path, source=source)).source
    t_values, s_values = [0.0, 0.3, 2.5], [0.0, 0.25, 1.0]
    cases = [
        ({}, power.default_t_grid(spectrum), power.default_s_grid(spectrum)),
        ({"t_grid": {"n": 7}, "s_grid": {"n": 5}},
         power.default_t_grid(spectrum, 7), power.default_s_grid(spectrum, 5)),
        ({"t_grid": {"values": t_values}, "s_grid": {"values": s_values}},
         np.array(t_values), np.array(s_values)),
    ]
    for extra, t_grid, s_grid in cases:
        cfg = load_config(simple_setup(tmp_path, source=source, extra=extra))
        assert cfg.t_grid.dtype == t_grid.dtype and cfg.s_grid.dtype == s_grid.dtype
        assert cfg.t_grid.tobytes() == t_grid.tobytes(), extra
        assert cfg.s_grid.tobytes() == s_grid.tobytes(), extra
        assert cfg.time_grid() is cfg.t_grid and cfg.scale_grid() is cfg.s_grid


def test_malformed_netlist_names_json_path(tmp_path, capsys):
    write_json(
        tmp_path / "net.json",
        {
            "branches": [
                {"id": "r1", "kind": "resistor", "value": True, "nodes": ["p", "0"]}
            ],
            "port": {"plus": "p", "ground": "0"},
        },
    )
    write_json(
        tmp_path / "config.json",
        {"netlist": "net.json", "source": {"lines": [{"amplitude_peak": 1.0, "omega": 1.0}]}},
    )
    assert main(["analyze", "--config", str(tmp_path / "config.json")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "branches[0].value" in err and "net.json" in err


def test_netlist_value_beyond_the_float_range_exits_with_input_error(tmp_path, capsys):
    path = simple_setup(tmp_path)
    net = json.loads((tmp_path / "net.json").read_text(encoding="utf-8"))
    net["branches"][0]["value"] = 10**400  # json writes and reads it as an integer
    write_json(tmp_path / "net.json", net)
    out = tmp_path / "o"
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "branches[0].value: expected a finite number" in err and "net.json" in err
    assert not out.exists()


def test_source_validation_messages(tmp_path, capsys):
    path = simple_setup(tmp_path, source={"lines": [{"omega": 1.0}]})
    assert main(["analyze", "--config", str(path)]) == EXIT_INPUT
    assert "source.lines[0].amplitude_peak" in capsys.readouterr().err

    path = simple_setup(
        tmp_path, source={"lines": [{"amplitude_peak": 1.0, "omega": 0.0, "phase": 0.3}]}
    )
    assert main(["analyze", "--config", str(path)]) == EXIT_INPUT
    assert "DC line cannot carry a phase" in capsys.readouterr().err


def test_grid_validation_messages(tmp_path, capsys):
    path = simple_setup(tmp_path, extra={"t_grid": {"n": 21, "values": [0.0]}})
    assert main(["analyze", "--config", str(path)]) == EXIT_INPUT
    assert "exactly one of 'n' or 'values'" in capsys.readouterr().err

    path = simple_setup(tmp_path, extra={"s_grid": {"values": [0.1, -0.5]}})
    assert main(["analyze", "--config", str(path)]) == EXIT_INPUT
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, where",
    [
        ({"t_grid": {"values": [0.0, math.nan]}}, "t_grid.values[1]"),
        ({"s_grid": {"values": [0.0, math.inf]}}, "s_grid.values[1]"),
        ({"source": {"lines": [{"amplitude_peak": -math.inf, "omega": 1.0}]}},
         "source.lines[0].amplitude_peak"),
        ({"source": {"lines": [{"amplitude_peak": 1.0, "omega": 10**400}]}},
         "source.lines[0].omega"),
    ],
)
def test_non_finite_config_numbers_rejected(tmp_path, capsys, extra, where):
    # Python's json reads NaN, Infinity and -Infinity, and 1e400 as inf
    path = simple_setup(tmp_path, extra=extra)
    out = tmp_path / "o"
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == EXIT_INPUT
    assert f"{where}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_incommensurate_source_rejected(tmp_path, capsys):
    path = simple_setup(
        tmp_path,
        source={
            "lines": [
                {"amplitude_peak": 1.0, "omega": 1.0},
                {"amplitude_peak": 1.0, "omega": math.pi},
            ]
        },
    )
    assert main(["analyze", "--config", str(path)]) == EXIT_INPUT
    assert "not a lattice multiple" in capsys.readouterr().err


def test_source_beyond_the_lattice_index_range_rejected(tmp_path, capsys):
    # an index of 1e19 overflowed int64 and ended the run with a traceback
    path = simple_setup(
        tmp_path,
        source={"lines": [{"amplitude_peak": 1.0, "omega": 1.0},
                          {"amplitude_peak": 1.0, "omega": 1e19}]},
    )
    assert main(["verify", "--config", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "2**62" in err[0]


def test_singular_network_exit_code(tmp_path, capsys):
    # two capacitors in series leave the middle node unconstrained at DC
    write_json(
        tmp_path / "net.json",
        {
            "branches": [
                {"id": "c1", "kind": "capacitor", "value": 1.0, "nodes": ["p", "x"]},
                {"id": "c2", "kind": "capacitor", "value": 1.0, "nodes": ["x", "0"]},
            ],
            "port": {"plus": "p", "ground": "0"},
        },
    )
    write_json(
        tmp_path / "config.json",
        {
            "netlist": "net.json",
            "source": {"lines": [{"amplitude_peak": 1.0, "omega": 0.0}]},
        },
    )
    assert main(["analyze", "--config", str(tmp_path / "config.json")]) == EXIT_NUMERIC
    assert "singular network" in capsys.readouterr().err


# ----------------------------------------------------------------------
# analyze outputs


def test_analyze_writes_expected_files(bench_dir):
    out = bench_dir / "out"
    code = main(
        ["analyze", "--config", str(bench_dir / "flicker_config.json"), "--out", str(out)]
    )
    assert code == EXIT_OK
    names = {p.name for p in out.iterdir()}
    assert names == {
        "balance.json",
        "instantaneous.csv",
        "scaled_s0.csv",
        "scaled_s0.5.csv",
        "scaled_s1.csv",
        "scaled_s2.csv",
        "summary.json",
    }

    inst = (out / "instantaneous.csv").read_text(encoding="utf-8").splitlines()
    assert inst[0] == "t,p,p_d,w_m,w_e,w,x,P_t,Q_t"
    assert len(inst) == 1 + 64

    scaled0 = (out / "scaled_s0.csv").read_text(encoding="utf-8").splitlines()
    assert scaled0[0] == "t,W_m,W_e,W,X,P,Q,P_d"

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["p_mean"] == pytest.approx(10.05, rel=1e-12)
    assert summary["q_budeanu"] == pytest.approx(-30.15, rel=1e-12)
    assert summary["character"] == "capacitive"
    assert summary["residual_maxima"]["reactive"] < 1e-9 * 30.15

    balance = json.loads((out / "balance.json").read_text(encoding="utf-8"))
    assert balance["active"]["relative"] < 1e-12
    assert balance["grid"]["n_t"] == 64


def test_analyze_respects_grid_values(tmp_path):
    path = simple_setup(
        tmp_path, extra={"t_grid": {"values": [0.0, 1.0, 2.5]}, "s_grid": {"values": [0.0]}}
    )
    out = tmp_path / "o"
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == EXIT_OK
    rows = (out / "instantaneous.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 1 + 3
    assert rows[1].split(",")[0] == "0"
    assert rows[3].split(",")[0] == "2.5"
    # u = sqrt(2) cos t across 2 ohms: p(0) = 1 W exactly on this path
    assert float(rows[1].split(",")[1]) == pytest.approx(1.0, rel=1e-15)


def test_negative_zero_grid_values_are_written_as_zero(tmp_path):
    path = simple_setup(
        tmp_path, extra={"t_grid": {"values": [-0.0, 1.0]}, "s_grid": {"values": [-0.0, 1.0]}}
    )
    cfg = load_config(path)
    assert not np.signbit(cfg.t_grid).any() and not np.signbit(cfg.s_grid).any()
    out = tmp_path / "o"
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == EXIT_OK
    assert {"scaled_s0.csv", "scaled_s1.csv"} <= {p.name for p in out.iterdir()}
    rows = (out / "instantaneous.csv").read_text(encoding="utf-8").splitlines()
    assert rows[1].split(",")[0] == "0"
    assert main(["sweep-s", "--config", str(path), "--out", str(tmp_path / "w")]) == EXIT_OK
    rows = (tmp_path / "w" / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert rows[1].split(",")[0] == "0"


def test_analyze_format_restriction(tmp_path):
    path = simple_setup(tmp_path, extra={"s_grid": {"values": [0.0]}})
    out_csv = tmp_path / "csv_only"
    assert main(["analyze", "--config", str(path), "--out", str(out_csv),
                 "--format", "csv"]) == EXIT_OK
    assert {p.name for p in out_csv.iterdir()} == {"instantaneous.csv", "scaled_s0.csv"}

    out_json = tmp_path / "json_only"
    assert main(["analyze", "--config", str(path), "--out", str(out_json),
                 "--format", "json"]) == EXIT_OK
    assert {p.name for p in out_json.iterdir()} == {"summary.json", "balance.json"}


def test_scale_values_sharing_a_file_name_rejected(tmp_path, capsys):
    # 1 and 1.0000001 print alike at 6 significant digits
    path = simple_setup(tmp_path, extra={"s_grid": {"values": [1.0, 1.0000001, 0.5, 0.5]}})
    out = tmp_path / "o"
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "s_grid values 1.0 and 1.0000001 would both be written to scaled_s1.csv" in err
    assert not out.exists()
    # no per-scale files, no clash
    assert main(["analyze", "--config", str(path), "--out", str(out),
                 "--format", "json"]) == EXIT_OK


def test_analyze_runs_are_byte_identical(bench_dir):
    cfg = str(bench_dir / "flicker_config.json")
    out_a, out_b = bench_dir / "a", bench_dir / "b"
    assert main(["analyze", "--config", cfg, "--out", str(out_a)]) == EXIT_OK
    assert main(["analyze", "--config", cfg, "--out", str(out_b)]) == EXIT_OK
    for path_a in sorted(out_a.iterdir()):
        path_b = out_b / path_a.name
        assert path_a.read_bytes() == path_b.read_bytes()


def test_analyze_balance_json_is_the_verify_balances_report(bench_dir):
    cfg_path = bench_dir / "flicker_config.json"
    out = bench_dir / "out"
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    cfg = load_config(cfg_path)
    report = verify_balances(solve(cfg.netlist, cfg.source), cfg.time_grid(), cfg.scale_grid())
    written = json.loads((out / "balance.json").read_text(encoding="utf-8"))
    assert written == report.to_dict()


def test_analyze_forms_no_hilbert_transform(bench_dir, monkeypatch):
    # nor a product spectrum: every waveform comes from the one kernel
    def refuse(*args, **kwargs):
        raise AssertionError("formed a Hilbert transform or a product spectrum")

    monkeypatch.setattr(LineSpectrum, "hilbert", refuse)
    monkeypatch.setattr(power, "instantaneous", refuse)
    cfg = str(bench_dir / "flicker_config.json")
    assert main(["analyze", "--config", cfg, "--out", str(bench_dir / "out")]) == EXIT_OK
    assert main(["verify", "--config", cfg]) == EXIT_OK
    assert main(["sweep-s", "--config", cfg, "--out", str(bench_dir / "sweep")]) == EXIT_OK


def test_balance_json_stays_strict_json_at_large_scales(bench_dir):
    # at s = 1e9 the s-step h = 1e5 gave e^{w h} = inf, and inf * 0 wrote
    # "fd_gap": NaN, which no strict JSON reader accepts
    cfg_path = bench_dir / "flicker_config.json"
    doc = json.loads(cfg_path.read_text(encoding="utf-8"))
    doc["s_grid"] = {"values": [0.0, 1e7, 1e9]}
    write_json(cfg_path, doc)
    out = bench_dir / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    report = json.loads((out / "balance.json").read_text(encoding="utf-8"),
                        parse_constant=reject)
    assert math.isfinite(report["reactive"]["fd_gap"])


def test_analyze_power_columns_are_the_kernel_at_s_zero(bench_dir):
    cfg_path = bench_dir / "flicker_config.json"
    out = bench_dir / "out"
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    rows = (out / "instantaneous.csv").read_text(encoding="utf-8").splitlines()[1:]
    p_col, q_col = (np.array([float(row.split(",")[k]) for row in rows]) for k in (7, 8))
    cfg = load_config(cfg_path)
    sol = solve(cfg.netlist, cfg.source)
    t = cfg.time_grid()
    sq = scaled(sol, t, [0.0])
    assert p_col.tobytes() == sq.p[:, 0].tobytes() and q_col.tobytes() == sq.q[:, 0].tobytes()
    # the line-by-line sums of u, i and their Hilbert companions agree to rounding
    p_t, q_t = port_power_reference(sol, t)
    bound = 1e-14 * np.max(np.hypot(sq.p, sq.q))
    assert np.max(np.abs(p_col - p_t)) <= bound
    assert np.max(np.abs(q_col - q_t)) <= bound


def test_analyze_evaluates_the_branches_once(bench_dir, kernel_calls):
    cfg = str(bench_dir / "flicker_config.json")
    assert main(["analyze", "--config", cfg, "--out", str(bench_dir / "out")]) == EXIT_OK
    # scaled: port u and i, r1 and c1, the rate of c1; then the same five
    # rows at s = 0 for every instantaneous term, read by both the CSV and
    # the balance report; then the two finite-difference gaps on c1: shifted
    # in t forward and backward, and at s + h and s - h for the points s >= h
    n_t, n_s = kernel_calls[0][1:]
    # of the scales 0, 0.5, 1 and 2, the last three are >= h = 1e-4 / 1.2,
    # with 1.2 rad/s the flicker source's top line
    assert kernel_calls == [(5, n_t, n_s), (5, n_t, 1), (2, n_t, n_s), (1, n_t, 2 * 3)]


def test_a_thousand_line_ladder_balances(tmp_path):
    # a DC line and harmonics 1..1023 on one R-L-C-R ladder section
    rng = np.random.default_rng(1024)
    write_json(tmp_path / "net.json", {
        "branches": [
            {"id": "r1", "kind": "resistor", "value": 0.5, "nodes": ["p", "m"]},
            {"id": "l1", "kind": "inductor", "value": 0.3, "nodes": ["m", "a"]},
            {"id": "c1", "kind": "capacitor", "value": 0.2, "nodes": ["a", "0"]},
            {"id": "r2", "kind": "resistor", "value": 5.0, "nodes": ["a", "0"]},
        ],
        "port": {"plus": "p", "ground": "0"},
    })
    lines = [{"amplitude_peak": 2.0, "omega": 0.0}] + [
        {"amplitude_peak": 10.0 ** rng.uniform(-1.0, 1.0), "omega": float(n),
         "phase": rng.uniform(0.0, 2.0 * math.pi)} for n in range(1, 1024)
    ]
    path = tmp_path / "config.json"
    write_json(path, {"netlist": "net.json", "source": {"lines": lines},
                      "s_grid": {"values": [0.0, 0.01, 0.1, 1.0]}})
    cfg = load_config(path)
    sol = solve(cfg.netlist, cfg.source)
    assert len(sol.per_line) == 1024
    report = verify_balances(sol)  # the default 256 x 33 grid
    assert report.n_t == 256 and report.n_s == 33
    # each term sums 1024 lines, which round by at most about 1024 eps of the parts
    for law in ("instantaneous", "active", "reactive"):
        assert getattr(report, f"{law}_relative") <= 1024 * np.finfo(float).eps, law
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == EXIT_OK
    assert len((out / "instantaneous.csv").read_text(encoding="utf-8").splitlines()) == 257
    # the instantaneous law reads only the t grid, which the two runs share
    written = json.loads((out / "balance.json").read_text(encoding="utf-8"))
    assert written["instantaneous"] == report.to_dict()["instantaneous"]


def test_analyze_and_verify_build_one_line_table_per_route(bench_dir, line_tables):
    cfg = str(bench_dir / "flicker_config.json")
    assert main(["analyze", "--config", cfg, "--out", str(bench_dir / "out")]) == EXIT_OK
    assert len(line_tables) == 2  # scaled, and the summary with budeanu's two routes
    line_tables.clear()
    assert main(["verify", "--config", cfg]) == EXIT_OK
    assert len(line_tables) == 2  # scaled, and budeanu's two routes


def test_csv_uses_full_precision_and_lf(tmp_path):
    path = simple_setup(tmp_path, extra={"t_grid": {"values": [1.0 / 3.0]}})
    out = tmp_path / "o"
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == EXIT_OK
    raw = (out / "instantaneous.csv").read_bytes()
    assert b"\r" not in raw
    assert b"0.33333333333333331" in raw  # .17g round-trips doubles exactly


# the values whose .17g text is easiest to get wrong: signed zero, the
# smallest subnormal, the largest finite double, non-finite values,
# integral floats and values that need all 17 digits
CSV_EDGE_VALUES = (
    -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    math.nan, math.inf, -math.inf, 1.0, -3.0, 2.0 ** 53, 1e22, 1e16, 0.1, 1.0 / 3.0,
    -2.0 / 3.0 * 1e-300, 123456789.01234567, -9.8765432109876543e-7, 2.2250738585072014e-308,
)


def per_value_csv(header, columns):
    rows = [",".join(header)]
    rows += [",".join(format(float(v), ".17g") for v in row) for row in zip(*columns)]
    return "\n".join(rows) + "\n"


def test_csv_table_matches_per_value_formatting(tmp_path):
    rng = np.random.default_rng(20161)
    one_row = [np.array([v]) for v in CSV_EDGE_VALUES]
    spread = rng.standard_normal(256) * 10.0 ** rng.integers(-300, 300, 256)
    many_rows = [np.resize(CSV_EDGE_VALUES, 256), spread, np.roll(spread, 7) / 3.0,
                 np.arange(256.0)]
    for columns in (one_row, many_rows):
        header = [f"c{k}" for k in range(len(columns))]
        cli._write_csv(tmp_path / "table.csv", header, columns)
        want = per_value_csv(header, columns).encode("utf-8")
        assert (tmp_path / "table.csv").read_bytes() == want


# ----------------------------------------------------------------------
# the argument parser


def test_main_builds_its_parser_once(bench_dir, monkeypatch):
    cli._build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(parser, *args, **kwargs):
        if kwargs.get("prog") == "pqbalance":
            built.append(parser)
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cfg = str(bench_dir / "flicker_config.json")
    for argv in (["analyze", "--config", cfg, "--out", str(bench_dir / "a")],
                 ["verify", "--config", cfg],
                 ["sweep-s", "--config", cfg, "--out", str(bench_dir / "s")]):
        assert main(argv) == EXIT_OK
    assert len(built) == 1


def test_the_parser_serves_again_after_an_argument_error(bench_dir, capsys):
    cfg = str(bench_dir / "flicker_config.json")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--config", cfg, "--format", "xml"])
    assert exc.value.code == EXIT_INPUT
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    # an earlier call's options do not carry over: --tol falls back to its default
    assert main(["verify", "--config", cfg, "--tol", "0"]) == EXIT_NUMERIC
    capsys.readouterr()
    assert main(["verify", "--config", cfg]) == EXIT_OK
    assert capsys.readouterr().out.count("PASS") == 4
    out = bench_dir / "o"
    assert main(["analyze", "--config", cfg, "--out", str(out), "--format", "csv"]) == EXIT_OK
    assert (out / "instantaneous.csv").is_file() and not (out / "summary.json").exists()


def test_each_subcommand_takes_its_own_options():
    # an option added to or dropped from a subcommand shows up here
    commands = next(a for a in cli._build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = {name: {opt for action in sub._actions for opt in action.option_strings
                      if opt not in ("-h", "--help")}
               for name, sub in commands.items()}
    assert options == {"analyze": {"--config", "--out", "--format"},
                       "sweep-s": {"--config", "--out"},
                       "verify": {"--config", "--tol"}}


def test_sweep_takes_no_format(bench_dir, capsys):
    # it used to be accepted and ignored, and sweep.csv written all the same
    out = bench_dir / "s"
    with pytest.raises(SystemExit) as exc:
        main(["sweep-s", "--config", str(bench_dir / "flicker_config.json"),
              "--out", str(out), "--format", "json"])
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments: --format json" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------------
# sweep-s


def test_sweep_single_tone_decay(tmp_path):
    # 1 H inductor: mean X and mean Q both carry exp(-2 omega s)
    write_json(
        tmp_path / "net.json",
        {
            "branches": [
                {"id": "l1", "kind": "inductor", "value": 1.0, "nodes": ["p", "0"]}
            ],
            "port": {"plus": "p", "ground": "0"},
        },
    )
    s_values = [0.0, 0.25, 0.5, 1.0]
    write_json(
        tmp_path / "config.json",
        {
            "netlist": "net.json",
            "source": {"lines": [{"amplitude_peak": ROOT2, "omega": 1.0}]},
            "s_grid": {"values": s_values},
        },
    )
    out = tmp_path / "o"
    code = main(["sweep-s", "--config", str(tmp_path / "config.json"), "--out", str(out)])
    assert code == EXIT_OK
    rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "s,mean_X,mean_Q"
    table = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert np.allclose(table[:, 0], s_values)
    assert np.allclose(table[:, 1], 0.5 * np.exp(-2.0 * table[:, 0]), rtol=1e-12)
    assert np.allclose(table[:, 2], 1.0 * np.exp(-2.0 * table[:, 0]), rtol=1e-12)


def test_sweep_slope_at_origin_matches_budeanu(bench_dir):
    h = 1e-6
    cfg = json.loads((bench_dir / "flicker_config.json").read_text(encoding="utf-8"))
    cfg["s_grid"] = {"values": [0.0, h]}
    write_json(bench_dir / "cfg2.json", cfg)
    out = bench_dir / "o"
    assert main(["sweep-s", "--config", str(bench_dir / "cfg2.json"),
                 "--out", str(out)]) == EXIT_OK
    rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
    (s0, x0, q0), (s1, x1, _) = ([float(v) for v in r.split(",")] for r in rows)
    assert q0 == pytest.approx(-30.15, rel=1e-12)
    # mean Q = -d(mean X)/ds, so a forward difference of mean X recovers Q_B
    assert -(x1 - x0) / h == pytest.approx(-30.15, rel=1e-4)


# ----------------------------------------------------------------------
# verify


def test_verify_passes_with_default_tolerance(bench_dir, capsys):
    assert main(["verify", "--config", str(bench_dir / "flicker_config.json")]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert all("PASS" in ln for ln in lines)
    assert lines[0].startswith("instantaneous balance: PASS")
    assert lines[3].startswith("budeanu cross-check: PASS")


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "one"])
def test_verify_rejects_a_bad_tolerance(bench_dir, capsys, tol):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(bench_dir / "flicker_config.json"), f"--tol={tol}"])
    assert exc.value.code == EXIT_INPUT
    assert "--tol: expected a finite number >= 0" in capsys.readouterr().err


def test_verify_fails_with_zero_tolerance(bench_dir, capsys):
    code = main(["verify", "--config", str(bench_dir / "flicker_config.json"),
                 "--tol", "0"])
    assert code == EXIT_NUMERIC
    out = capsys.readouterr().out
    assert "FAIL" in out and "exceeds" in out


# ----------------------------------------------------------------------
# dependencies


NO_SCIPY_PROBE = """
import sys

from pqbalance import cli, ode_steady_state

config, out = sys.argv[1:]
for argv in (["analyze", "--config", config, "--out", out],
             ["verify", "--config", config],
             ["sweep-s", "--config", config, "--out", out]):
    assert cli.main(argv) == cli.EXIT_OK, argv
cfg = cli.load_config(config)
ode_steady_state(cfg.netlist, cfg.source, periods=10, steps_per_period=256)
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "random"]))
"""


def test_cli_and_oracle_run_without_scipy(bench_dir):
    # numpy's LAPACK solves every linear system; scipy would triple the import.
    # numpy.random would add its own import to the first solve.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE, str(bench_dir / "flicker_config.json"),
         str(bench_dir / "out")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.splitlines()[-1] == "[]"
