"""Benchmark for pqbalance: four closed-loop workloads, one client, one process.

Run from the repository root:

    python3 perfbench/run.py --workload cli-batch --seed 1 --seconds 35 --trace 0

The timed phase runs passes of seeded items (see ``inputs.py``) until
``--seconds`` have gone by, finishing the pass in progress.  Every item
is then checked outside the timed phase (see ``items.py``).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` each pass runs once untraced and
once traced on the same inputs, and the JSON carries the per-layer
metrics, the tracing overhead being the difference of the two.  Lines
before it print every metric by name and unit, plus workload-specific
figures that are absent where they do not apply.

BLAS is pinned to one thread in this process and in every process it
starts.  The benchmark reads and writes only inside the checkout: the
program from ``src/``, the shipped ``benchmarks/flicker_config.json``,
and scratch files under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import inputs
import tracing

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 60
# The 90th percentile needs ten samples beyond it.
P90_MIN_ITEMS = 100
MAX_PRINTED_FAILURES = 10

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import pqbalance; "
    "print(time.perf_counter() - t); print(pqbalance.__file__)"
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)


def fresh_import_seconds():
    """Median `import pqbalance` time over fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        seconds, path = run_child(["-c", IMPORT_PROBE]).stdout.split("\n")[:2]
        if Path(path).resolve().parent != SRC / "pqbalance":
            raise RuntimeError(f"fresh interpreter imported pqbalance from {path}")
        samples.append(float(seconds))
    return statistics.median(samples)


def importtime_seconds():
    """Median seconds (pqbalance, scipy) from `python -X importtime`.

    pqbalance is its cumulative time.  scipy is the cumulative time of
    every scipy module imported from outside scipy, so it includes the
    dependencies scipy pulls in first and is what dropping scipy saves.
    """
    ours, scipy = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        err = run_child(["-X", "importtime", "-c", "import pqbalance"]).stderr
        pq_us = sp_us = 0
        stack = []  # (depth, inside scipy) of the enclosing imports
        # Lines come children first; reversed, each parent precedes its children.
        for line in reversed(err.splitlines()):
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            raw = fields[2].rstrip()
            name = raw.strip()
            depth = len(raw) - len(raw.lstrip())
            while stack and stack[-1][0] >= depth:
                stack.pop()
            inside = bool(stack) and stack[-1][1]
            is_scipy = name == "scipy" or name.startswith("scipy.")
            if name == "pqbalance":
                pq_us = int(fields[1])
            if is_scipy and not inside:
                sp_us += int(fields[1])
            stack.append((depth, inside or is_scipy))
        ours.append(pq_us / 1e6)
        scipy.append(sp_us / 1e6)
    return statistics.median(ours), statistics.median(scipy)


def environment_line():
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    pins = " ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
    return (f"env: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} {pins} "
            f"python={sys.version.split()[0]} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} openblas(numpy)={blas_version(numpy)} "
            f"openblas(scipy)={blas_version(scipy)}")


# ----------------------------------------------------------------------
# the timed phase


@dataclass
class Record:
    """One item's timing and verdict; its outputs are dropped once checked."""

    pass_index: int
    index: int
    traced: bool
    seconds: float
    times: dict
    failures: list
    files: int = 0
    size: int = 0


def _output_size(paths):
    files = size = 0
    for key in ("analyze", "sweep-s"):
        for path in Path(paths[key]).rglob("*"):
            if path.is_file():
                files += 1
                size += path.stat().st_size
    return files, size


def run_pass(workload, batch, p, traced, scratch, tracer):
    """Time each item of one pass, then check it and free its outputs."""
    import items

    timed = []
    if traced:
        tracer.install()
    try:
        for k, item in enumerate(batch):
            where = scratch / f"{p}-{k}-{int(traced)}"
            paths = items.prepare(workload, item, where, ROOT)
            if traced:
                tracer.item = f"{p}-{k}"
            t0 = time.perf_counter()
            outcome = items.run_item(workload, item, paths)
            timed.append((k, item, where, paths, outcome, time.perf_counter() - t0))
    finally:
        if traced:
            tracer.uninstall()
    records = []
    for k, item, where, paths, outcome, seconds in timed:
        record = Record(p, k, traced, seconds, outcome.times,
                        items.check_item(workload, item, paths, outcome))
        if paths:
            record.files, record.size = _output_size(paths)
            shutil.rmtree(where)
        records.append(record)
    return records


def timed_phase(workload, seed, seconds, scratch, tracer):
    """Run passes until `seconds` elapse; with a tracer, each pass twice.

    Traced and untraced runs of a pass alternate which goes first, so
    warm-up effects do not bias the tracing overhead.
    """
    passes, records = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        p = len(passes)
        batch = inputs.PASSES[workload](seed, p)
        passes.append(batch)
        order = (False, True) if p % 2 == 0 else (True, False)
        for traced in order if tracer else (False,):
            records += run_pass(workload, batch, p, traced, scratch, tracer)
    return passes, records


def warm_up(scratch):
    """Touch every layer once on a tiny input so lazy set-up is not timed."""
    import items
    import pqbalance

    paths = items.prepare("cli-batch", {"flicker": True}, scratch / "warm-up", ROOT)
    items.run_item("cli-batch", {"flicker": True}, paths)
    source = pqbalance.LineSpectrum.from_lines([(1.0, 1.0), (2.0, 0.5j)], pqbalance.VOLT)
    net = pqbalance.Netlist((pqbalance.Branch("r", "resistor", 1.0, ("p", "0")),), ("p", "0"))
    pqbalance.ode_steady_state(net, source, periods=10, steps_per_period=64)
    pqbalance.fft_hilbert(source.sample(0.0, source.period / 64, 64))
    pqbalance.quadrature_analytic(source, pqbalance.ComplexTimePoint(0.0, 1.0),
                                  pqbalance.QuadratureConfig(half_width=10.0))


# ----------------------------------------------------------------------
# metrics


def latencies(records, key=None):
    """Item (or per-subcommand) seconds, a failed item counting as infinitely late."""
    out = []
    for r in records:
        value = r.seconds if key is None else r.times.get(key, math.inf)
        out.append(math.inf if r.failures else value)
    return out


def ratio(num, den):
    """num/den, or NaN (reported as absent) when nothing was measured."""
    return num / den if den else math.nan


def end_to_end(workload, records, setup_s):
    """(metrics, extras): the contract's metrics and workload-specific figures."""
    attempted = len(records)
    passed = sum(1 for r in records if not r.failures)
    busy = sum(r.seconds for r in records)
    times = latencies(records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (passed / busy, "1/s"),
        "item_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extras = {"failed_ratio": ((attempted - passed) / attempted, "ratio")}
    if workload == "cli-batch":
        if attempted >= P90_MIN_ITEMS:
            extras["item_p90_s"] = (statistics.quantiles(times, n=10)[8], "s")
        for cmd in ("analyze", "verify", "sweep-s"):
            name = f"{cmd.replace('-', '_')}_p50_s"
            extras[name] = (statistics.median(latencies(records, cmd)), "s")
    return metrics, extras


# Per-item layer metrics: (kind, name).  "self" and "incl" sum the self or
# inclusive seconds of the spans of that name; "count" reads a tracer counter.
PER_ITEM = {
    "cli.load_config_s": ("incl", "cli.load_config"),
    "cli.run_analyze.self_s": ("self", "cli.run_analyze"),
    "spectrum.from_lines.calls": ("count", "spectrum.LineSpectrum.from_lines.calls"),
    "spectrum.multiply.calls": ("count", "spectrum.LineSpectrum.multiply.calls"),
    "spectrum.multiply.terms": ("count", "spectrum.multiply.terms"),
    "spectrum.multiply_s": ("self", "spectrum.LineSpectrum.multiply"),
    "spectrum.evaluate_s": ("self", "spectrum.LineSpectrum.evaluate"),
    "spectrum.analytic_grid_s": ("self", "spectrum.LineSpectrum.analytic_grid"),
    "network.solve_s": ("incl", "network.solve"),
    "network.solve_frequency.calls": ("count", "network.solve_frequency.calls"),
    "power.instantaneous_s": ("self", "power.instantaneous"),
    "power.scaled_s": ("self", "power.scaled"),
    "power.verify_balances.self_s": ("self", "power.verify_balances"),
    "power.scaled_time_means_s": ("self", "power.scaled_time_means"),
    "power.budeanu_s": ("self", "power.budeanu"),
    "power.grid_points": ("count", "power.grid_points"),
    "oracle.ode_steady_state_s": ("incl", "oracle.ode_steady_state"),
    "oracle.steps": ("count", "oracle.steps"),
    "oracle.fft_hilbert_s": ("self", "oracle.fft_hilbert"),
    "oracle.quadrature_analytic_s": ("self", "oracle.quadrature_analytic"),
}


def per_layer(records, tracer, import_s):
    """(metrics, extras) from the traced half of a --trace 1 run."""
    traced = [r for r in records if r.traced]
    n = len(traced)
    busy = sum(r.seconds for r in traced)
    baseline = sum(r.seconds for r in records if not r.traced)
    totals = {"self": Counter(), "incl": Counter(), "count": tracer.counts}
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    top = 0.0
    for span, self_s in tracer.self_times():
        duration = span[6] - span[5]
        totals["self"][span[4]] += self_s
        totals["incl"][span[4]] += duration
        layer_self[span[3]] += self_s
        if span[1] is None:
            top += duration
    counts = tracer.counts
    solve_s = totals["incl"]["network.solve"]
    metrics = {
        "import.pqbalance_s": (import_s[0], "s"),
        "import.scipy_s": (import_s[1], "s"),
        "network.lines_per_s": (ratio(counts["network.lines"], solve_s), "1/s"),
        "network.mna_size": (ratio(counts["network.mna_size_sum"],
                                   counts["network.solve.calls"]), "count"),
        "cli.files_written": (sum(r.files for r in traced) / n, "count/item"),
        "cli.bytes_written": (sum(r.size for r in traced) / n, "B/item"),
    }
    for metric, (kind, name) in PER_ITEM.items():
        metrics[metric] = (totals[kind][name] / n, "count/item" if kind == "count" else "s/item")
    for layer, seconds in layer_self.items():
        metrics[f"layer.{layer}.share"] = (100.0 * seconds / busy, "%")
    metrics["layer.outside.share"] = (100.0 * (busy - top) / busy, "%")
    metrics["trace.overhead_s"] = ((busy - baseline) / n, "s/item")
    metrics["trace.overhead_ratio"] = (100.0 * (busy - baseline) / baseline, "%")
    metrics["trace.spans"] = (len(tracer.spans) / n, "count/item")
    extras = {}
    if counts["oracle.steps"]:
        extras["oracle.steps_per_s"] = (
            counts["oracle.steps"] / totals["incl"]["oracle.ode_steady_state"], "1/s")
    return metrics, extras


def result(metrics, records):
    """The final JSON object.  A metric that could not be measured (NaN, or
    infinite because most items failed) is left out, never written as 0,
    and makes the run incorrect."""
    failed = sum(1 for r in records if r.failures)
    reported = {name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items() if math.isfinite(value)}
    return {
        "correct": failed == 0 and len(reported) == len(metrics),
        "attempted": len(records),
        "failed": failed,
        "metrics": reported,
    }


# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy loads its BLAS; children inherit it
        os.environ[var] = "1"
    if not (SRC / "pqbalance" / "__init__.py").is_file():
        print(f"error: no pqbalance sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pqbalance

    if Path(pqbalance.__file__).resolve().parent != SRC / "pqbalance":
        print(f"error: imported pqbalance from {pqbalance.__file__}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            import_s = importtime_seconds()
        else:
            setup_s = fresh_import_seconds()
        warm_up(scratch)
        tracer = tracing.Tracer() if args.trace else None
        passes, records = timed_phase(args.workload, args.seed, args.seconds, scratch, tracer)
        if args.trace:
            metrics, extras = per_layer(records, tracer, import_s)
            spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.csv"
            tracer.write(spans_path)
        else:
            metrics, extras = end_to_end(args.workload, records, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(environment_line())
    print(f"inputs: passes={len(passes)} items={len(records)} sha256={inputs.digest(passes)}")
    if args.trace:
        print(f"spans: {spans_path.relative_to(ROOT)}")
    for r in [r for r in records if r.failures][:MAX_PRINTED_FAILURES]:
        print(f"FAILED pass {r.pass_index} item {r.index}: {'; '.join(r.failures[:3])}")
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps(result(metrics, records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
