"""Tests of the benchmark itself: inputs, checks, metrics, tracing, refusal.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pqbalance  # noqa: E402

import inputs  # noqa: E402
import items  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def small_item(seed=3, lines=5):
    """A wide-net-shaped item on a small random net."""
    import random

    rng = random.Random(seed)
    net = inputs.random_net(rng, 2, 3, (0.1, 10.0), (0.1, 10.0), (0.1, 10.0))
    return {"netlist": net, "lines": inputs.random_source(rng, 1.3, lines, 12, 1.0)}


# ----------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_input_hashes(workload):
    make = inputs.PASSES[workload]
    first = inputs.digest([make(11, p) for p in range(2)])
    assert inputs.digest([make(11, p) for p in range(2)]) == first
    assert inputs.digest([make(12, p) for p in range(2)]) != first


def test_inputs_are_built_without_pqbalance():
    probe = ("import sys; sys.modules['pqbalance'] = None; import inputs; "
             "[inputs.PASSES[w](1, 0) for w in inputs.WORKLOADS]; print('ok')")
    done = subprocess.run([sys.executable, "-c", probe], cwd=HERE, capture_output=True,
                          text=True, timeout=60)
    assert done.stdout.strip() == "ok", done.stderr


def test_generated_nets_follow_the_construction_rules():
    for seed in range(20):
        for item in inputs.cli_pass(seed, 0)[1:]:
            branches = item["netlist"]["branches"]
            assert 2 <= len(branches) <= 10
            assert 1 <= len(item["source"]["lines"]) <= 8
            internal = {n for b in branches for n in b["nodes"]} - {"port", "gnd"}
            shunts = {tuple(b["nodes"]) for b in branches if b["kind"] == "resistor"}
            assert all((n, "gnd") in shunts for n in internal)
            # No inductor touches ground, so every inductor carries DC current.
            assert not any(b["kind"] == "inductor" and "gnd" in b["nodes"] for b in branches)
    ladder = inputs.wide_net_pass(0, 0)[0]["netlist"]["branches"]
    assert len(ladder) == 4 * inputs.LADDER_SECTIONS


# ----------------------------------------------------------------------
# checks catch wrong results


def test_library_item_passes_then_injected_error_fails(monkeypatch):
    item = small_item()
    assert items.check_item("wide-net", item, {}, items.run_item("wide-net", item, {})) == []

    real = pqbalance.classical_summary

    def skewed(sol):
        summary = real(sol)
        lines = tuple(replace(ln, p=ln.p * (1.0 + 1e-6)) for ln in summary.lines)
        return replace(summary, lines=lines)

    monkeypatch.setattr(pqbalance, "classical_summary", skewed)
    fails = items.check_item("wide-net", item, {}, items.run_item("wide-net", item, {}))
    assert any("Tellegen" in f for f in fails)


def test_many_lines_checks_catch_a_wrong_scale_mean(monkeypatch):
    item = small_item(lines=8)
    real = pqbalance.scaled_time_means
    out = items.run_item("many-lines", item, {})
    assert items.check_item("many-lines", item, {}, out) == []
    monkeypatch.setattr(pqbalance, "scaled_time_means",
                        lambda sol, s: tuple(1.001 * v for v in real(sol, s)))
    fails = items.check_item("many-lines", item, {}, items.run_item("many-lines", item, {}))
    assert any("time means" in f for f in fails)


def test_raised_error_is_a_failure(monkeypatch):
    def broken(*args, **kwargs):
        raise pqbalance.SingularNetworkError(1.0)

    monkeypatch.setattr(pqbalance, "solve", broken)
    item = small_item()
    out = items.run_item("wide-net", item, {})
    assert out.error and items.check_item("wide-net", item, {}, out) == [out.error]


def test_cli_item_passes_then_tampered_output_fails(tmp_path):
    item = inputs.cli_pass(5, 0)[1]
    paths = items.prepare("cli-batch", item, tmp_path / "x", ROOT)
    out = items.run_item("cli-batch", item, paths)
    assert items.check_item("cli-batch", item, paths, out) == []
    summary = Path(paths["analyze"]) / "summary.json"
    doc = json.loads(summary.read_text())
    doc["lines"][0]["p"] *= 1.001
    summary.write_text(json.dumps(doc))
    assert any("Tellegen" in f for f in items.check_item("cli-batch", item, paths, out))


def test_flicker_values_are_checked(tmp_path):
    paths = items.prepare("cli-batch", {"flicker": True}, tmp_path / "f", ROOT)
    out = items.run_item("cli-batch", {"flicker": True}, paths)
    assert items.check_item("cli-batch", {"flicker": True}, paths, out) == []
    monkeypatched = dict(out.values)
    monkeypatched["codes"] = dict(out.values["codes"], verify=3)
    failed = items.Outcome(monkeypatched, out.times)
    assert any("verify exited 3" in f for f in
               items.check_item("cli-batch", {"flicker": True}, paths, failed))


def test_oracle_checks_catch_fft_and_warning(monkeypatch):
    monkeypatch.setattr(inputs, "ORACLE_PERIODS", 10)
    monkeypatch.setattr(inputs, "ORACLE_STEPS_PER_PERIOD", 2048)
    item = inputs.oracle_pass(2, 0)[0]
    assert items.check_item("oracle", item, {}, items.run_item("oracle", item, {})) == []

    out = items.run_item("oracle", item, {})
    sampled, via_fft = out.values["fft"]
    out.values["fft"] = (sampled, replace(via_fft, samples=via_fft.samples * 1.01))
    out.values["warnings"] = ["waveform still drifting after the settling run"]
    fails = items.check_item("oracle", item, {}, out)
    assert any("FFT" in f for f in fails) and any("warned" in f for f in fails)


# ----------------------------------------------------------------------
# metrics


def records(count, failed=0, traced=False):
    return [run.Record(0, k, traced, 0.1 + 0.001 * k, {"analyze": 0.05},
                       ["x"] if k < failed else []) for k in range(count)]


def test_failures_are_counted_not_dropped():
    metrics, extras = run.end_to_end("wide-net", records(10, failed=2), 0.4)
    assert extras["failed_ratio"][0] == pytest.approx(0.2)
    busy = sum(0.1 + 0.001 * k for k in range(10))
    assert metrics["items_per_s"][0] == pytest.approx(8 / busy)


def test_absent_metrics_are_not_reported_as_zero():
    metrics, extras = run.end_to_end("wide-net", records(10), 0.4)
    assert not {"item_p90_s", "analyze_p50_s"} & set(extras)
    _, extras = run.end_to_end("cli-batch", records(99), 0.4)
    assert "item_p90_s" not in extras and "analyze_p50_s" in extras
    failing = records(10, failed=10)
    metrics, _ = run.end_to_end("cli-batch", failing, 0.4)
    doc = run.result(metrics, failing)
    assert "item_p50_s" not in doc["metrics"] and not doc["correct"]
    assert doc["metrics"]["items_per_s"]["value"] == 0.0  # measured: nothing passed
    assert math.isnan(run.ratio(3, 0))
    assert run.result({"network.lines_per_s": (run.ratio(3, 0), "1/s")}, [])["metrics"] == {}


def test_reports_exactly_the_declared_metrics(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    done = [r for traced in (False, True)
            for r in run.run_pass("wide-net", [small_item()], 0, traced, tmp_path, tracer)]
    assert not any(r.failures for r in done)
    for got, kind in ((run.end_to_end("wide-net", done, 0.4)[0], "end_to_end"),
                      (run.per_layer(done, tracer, (0.4, 0.3))[0], "per_layer")):
        assert {k: unit for k, (_, unit) in got.items()} == \
            {m["name"]: m["unit"] for m in declared[kind]}
        assert all(math.isfinite(value) for value, _ in got.values())


# ----------------------------------------------------------------------
# tracing


def test_tracer_restores_bindings_and_accounts_every_second():
    originals = (pqbalance.solve, pqbalance.cli.solve, pqbalance.network.solve_frequency,
                 pqbalance.LineSpectrum.__dict__["from_lines"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pqbalance.cli.solve is pqbalance.network.solve is pqbalance.solve
        assert pqbalance.solve is not originals[0]
        items.run_item("wide-net", small_item(), {})
    finally:
        tracer.uninstall()
    assert (pqbalance.solve, pqbalance.cli.solve, pqbalance.network.solve_frequency,
            pqbalance.LineSpectrum.__dict__["from_lines"]) == originals
    assert tracer.counts["network.solve.calls"] == 1
    assert tracer.counts["network.solve_frequency.calls"] == 6
    spans = tracer.self_times()
    top = sum(s[6] - s[5] for s, _ in spans if s[1] is None)
    assert sum(self_s for _, self_s in spans) == pytest.approx(top, rel=1e-9)
    assert all(self_s >= -1e-9 for _, self_s in spans)


# ----------------------------------------------------------------------
# refusal outside a checkout


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
