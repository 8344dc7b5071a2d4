"""Seeded workload inputs, built without importing pqbalance.

Every generator draws from a ``random.Random`` keyed by (workload, seed,
pass index) and returns plain JSON-ready data: netlists in the
``Netlist.from_dict`` schema and sources as lists of
``{"amplitude_peak", "omega", "phase"}`` records, the schema of a CLI
config.  The program under test never sees the generator, so one seed
gives byte-identical inputs on every commit.

Networks are nonsingular by construction, not by trial solve:

* a spanning chain over all nodes uses resistors and inductors only and
  ends at ground through a resistor, so at DC (capacitors open, inductors
  shorted) every node stays connected, the source is never shorted, and
  every node other than ground reaches the port without passing ground:
  each sits at a nonzero DC potential and each inductor carries DC
  current.  (``network.solve`` reports a net as singular at DC when an
  inductor carries no DC current there, since the round-off voltage
  across it fails the branch-law self-check against its zero current;
  a chain with ground in its middle makes such nets now and then.)
* inductors appear only on the chain, so no inductor-only loop exists;
* every internal node also gets a resistor to ground, so with the source
  shorted a nonzero state must dissipate power: every natural mode is
  damped, and the real part of the nodal admittance is positive
  definite at every frequency above DC;
* the remaining branches are resistors or capacitors between random
  node pairs.

Frequencies are integer multiples of a random base, so every source is
commensurate.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

# cli-batch: one pass is the shipped flicker config plus this many random configs.
CLI_CONFIGS_PER_PASS = 24
# many-lines: one pass solves one case per (line count, ladder sections).  The
# cost of the power layer grows with the number of L and C branches, so the
# nets are ladders with a fixed branch mix and every pass is the same work.
MANY_LINE_CASES = ((64, 2), (128, 1), (256, 1))
# wide-net: R-L-C-R ladder sections per net and lines per source.
LADDER_SECTIONS = 40
LADDER_LINES = 64
# oracle: integration length, as in the acceptance test of the oracle layer.
ORACLE_PERIODS = 50
ORACLE_STEPS_PER_PERIOD = 8192
ORACLE_FFT_SAMPLES = 4096
# AC lines per oracle source; fixed, as the ODE's source evaluation scales with it.
ORACLE_AC_LINES = 3
# quadrature probes: scales and window half-widths in units of 1/base.
ORACLE_QUAD_SCALES = (0.5, 1.0, 2.0)
ORACLE_QUAD_WIDTHS = (25.0, 50.0, 100.0, 200.0)


def rng_for(workload, seed, pass_index) -> random.Random:
    return random.Random(f"{workload}/{seed}/{pass_index}")


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def random_net(rng, n_internal, n_extra, r_span, l_span, c_span):
    """Damped RLC netlist with ``n_internal`` nodes besides port and ground."""
    internal = [f"n{i}" for i in range(n_internal)]
    order = ["port"] + internal
    rng.shuffle(order)
    order.append("gnd")
    branches = []

    def add(kind, a, b):
        span = {"resistor": r_span, "inductor": l_span, "capacitor": c_span}[kind]
        branches.append({"id": f"b{len(branches)}", "kind": kind,
                         "value": _log_uniform(rng, *span), "nodes": [a, b]})

    for k in range(len(order) - 1):
        kind = "resistor" if k == len(order) - 2 else rng.choice(("resistor", "inductor"))
        add(kind, order[k], order[k + 1])
    for node in internal:
        add("resistor", node, "gnd")
    nodes = ["port", "gnd"] + internal
    for _ in range(n_extra):
        a, b = rng.sample(nodes, 2)
        add(rng.choice(("resistor", "capacitor")), a, b)
    return {"branches": branches, "port": {"plus": "port", "ground": "gnd"}}


def ladder_net(rng, sections):
    """Series R, series L, shunt C, shunt R per section; port at the input.

    Nonsingular for the same reasons as ``random_net``: the resistors alone
    connect every node to ground, and the inductors form no loop.
    """
    branches = []

    def add(kind, a, b, lo, hi):
        branches.append({"id": f"{kind[0]}{len(branches)}", "kind": kind,
                         "value": _log_uniform(rng, lo, hi), "nodes": [a, b]})

    node = "port"
    for k in range(sections):
        mid, nxt = f"m{k}", f"a{k + 1}"
        add("resistor", node, mid, 0.1, 1.0)
        add("inductor", mid, nxt, 0.1, 1.0)
        add("capacitor", nxt, "gnd", 0.1, 1.0)
        add("resistor", nxt, "gnd", 1.0, 10.0)
        node = nxt
    return {"branches": branches, "port": {"plus": "port", "ground": "gnd"}}


def random_source(rng, base, n_ac, max_harmonic, dc_probability):
    """The fundamental ``base`` and ``n_ac - 1`` other distinct harmonics of it,
    plus, sometimes, a DC line."""
    lines = []
    if rng.random() < dc_probability:
        lines.append({"amplitude_peak": rng.uniform(-5.0, 5.0), "omega": 0.0, "phase": 0.0})
    for n in [1] + sorted(rng.sample(range(2, max_harmonic + 1), n_ac - 1)):
        lines.append({"amplitude_peak": _log_uniform(rng, 0.1, 10.0),
                      "omega": n * base,
                      "phase": rng.uniform(0.0, 2.0 * math.pi)})
    return lines


def _small_net(rng, n_branches):
    """random_net with ``n_branches`` branches and component values in [0.1, 10]."""
    n_internal = rng.randint(0, min(3, (n_branches - 1) // 2))
    span = (0.1, 10.0)
    return random_net(rng, n_internal, n_branches - 2 * n_internal - 1, span, span, span)


# ----------------------------------------------------------------------
# one pass of each workload


def cli_pass(seed, pass_index):
    """The flicker config, then small random configs on flicker-sized grids."""
    rng = rng_for("cli-batch", seed, pass_index)
    items = [{"flicker": True}]
    for _ in range(CLI_CONFIGS_PER_PASS):
        net = _small_net(rng, rng.randint(2, 10))
        base = _log_uniform(rng, 0.3, 3.0)
        lines = random_source(rng, base, rng.randint(1, 7), 12, 0.3)
        items.append({"netlist": net, "source": {"lines": lines},
                      "t_grid": {"n": 64}, "s_grid": {"n": 3}})
    return items


def many_lines_pass(seed, pass_index):
    rng = rng_for("many-lines", seed, pass_index)
    items = []
    for count, sections in MANY_LINE_CASES:
        net = ladder_net(rng, sections)
        base = _log_uniform(rng, 0.3, 3.0)
        items.append({"netlist": net,
                      "lines": random_source(rng, base, count, count, 0.0)})
    return items


def wide_net_pass(seed, pass_index):
    rng = rng_for("wide-net", seed, pass_index)
    base = _log_uniform(rng, 0.3, 3.0)
    return [{"netlist": ladder_net(rng, LADDER_SECTIONS),
             "lines": random_source(rng, base, LADDER_LINES, 2 * LADDER_LINES, 0.5)}]


def oracle_pass(seed, pass_index):
    """A damped net whose time constants are short against the source period.

    Resistors sit within a factor 2 of 1 ohm and every L/R and RC product
    between a hundredth and a fifth of a period, so 50 periods settle far
    below the oracle's drift gate.
    """
    rng = rng_for("oracle", seed, pass_index)
    base = _log_uniform(rng, 0.3, 3.0)
    period = 2.0 * math.pi / base
    tau = (period / 50.0, period / 10.0)
    n_internal = rng.randint(0, 2)
    net = random_net(rng, n_internal, rng.randint(1, 3), (0.5, 2.0), tau, tau)
    lines = random_source(rng, base, ORACLE_AC_LINES, 4, 0.3)
    quad = [{"t": rng.uniform(0.0, period), "s": s / base} for s in ORACLE_QUAD_SCALES]
    return [{"netlist": net, "lines": lines, "quadrature_points": quad,
             "quadrature_widths": [w / base for w in ORACLE_QUAD_WIDTHS]}]


PASSES = {
    "cli-batch": cli_pass,
    "many-lines": many_lines_pass,
    "wide-net": wide_net_pass,
    "oracle": oracle_pass,
}
WORKLOADS = tuple(PASSES)


def digest(passes) -> str:
    """sha256 of the canonical JSON of a list of passes."""
    text = json.dumps(passes, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
