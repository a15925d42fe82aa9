"""Per-layer metrics from the spans of a traced run.

Each operation of the benchmark is one root span named "op" whose
attrs carry the command.  A metric is averaged over the calls of the
command(s) it belongs to, so a count such as resonant_position calls
per ``select`` repeats exactly.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from tracer import ATTRS, END, NAME, PARENT, START, children_of, descendants, self_times

SHORT = ("scan", "select", "probability", "bands", "coils")
MODULES = (
    "config",
    "breit_rabi",
    "selection",
    "probability",
    "dynamics",
    "phase_space",
    "apparatus",
    "cli",
)
CELL = ("phase_space.band_from_first_pulse", "phase_space.band_from_second_pulse",
        "phase_space.selection_cell")
BATCH = "probability.averaged_probability_batch"
SIMPSON = "probability.transition_probability"


class OpSummary:
    """Totals over the spans of one operation."""

    def __init__(self, spans, kids, own, root):
        self.command = spans[root][ATTRS]["command"]
        self.total_ms = (spans[root][END] - spans[root][START]) * 1e3
        self.ms = defaultdict(float)  # inclusive ms by span name
        self.calls = defaultdict(int)
        self.self_ms = defaultdict(float)  # self ms by module
        self.self_ms["other"] += own[root] * 1e3
        self.counts = defaultdict(float)
        for i in descendants(kids, root):
            name = spans[i][NAME]
            self.ms[name] += (spans[i][END] - spans[i][START]) * 1e3
            self.calls[name] += 1
            module = name.split(".", 1)[0]
            self.self_ms[module if module in MODULES else "other"] += own[i] * 1e3
            attrs = spans[i][ATTRS] or {}
            if name == "cli.simulation_csv":
                self.counts["csv_bytes"] += attrs["bytes"]
            elif name == "phase_space.run_monte_carlo":
                self.counts["mc_self_ms"] += own[i] * 1e3
                self.counts["alive"] += attrs["survived_first"]
                self._pulse_rows(spans, kids, i, attrs["t0_first"])
            elif name in (BATCH, SIMPSON):
                points = sum(
                    (spans[j][ATTRS] or {}).get("points", 0)
                    for j in descendants(kids, i)
                    if spans[j][NAME] == "selection.detuning"
                )
                key = "batch" if name == BATCH else "simpson"
                self.counts[f"{key}_evals"] += points
                if name == BATCH:
                    self.counts["batch_rows"] += attrs["rows"]

    def _pulse_rows(self, spans, kids, mc, t0_first):
        for j in descendants(kids, mc):
            if spans[j][NAME] == BATCH:
                first = spans[j][ATTRS]["t0"] == t0_first
                self.counts["rows1" if first else "rows2"] += spans[j][ATTRS]["rows"]

    def config_ms(self):
        return sum(ms for name, ms in self.ms.items() if name.startswith("config."))


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(spans) -> dict[str, list[OpSummary]]:
    kids = children_of(spans)
    own = self_times(spans)
    by_command = defaultdict(list)
    for i, span in enumerate(spans):
        if span[NAME] == "op" and span[PARENT] < 0:
            op = OpSummary(spans, kids, own, i)
            by_command[op.command].append(op)
    return by_command


def layer_metrics(ops, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """name -> (value, unit), from summarize()'s operations."""

    def over(commands, fn):
        return _mean([fn(op) for c in commands for op in ops.get(c, [])])

    sim = ops.get("simulate", [])
    alive = sum(op.counts["alive"] for op in sim)

    def rows(key):
        return sum(op.counts[key] for op in sim)

    out = {
        "config.load_ms": (over(SHORT, OpSummary.config_ms), "ms"),
        "breit_rabi.resonant_position.ms": (
            over(SHORT, lambda op: op.ms["breit_rabi.resonant_position"]), "ms"),
    }
    for c in ("select", "probability", "bands", "coils"):
        out[f"breit_rabi.resonant_position.calls.{c}"] = (
            over([c], lambda op: op.calls["breit_rabi.resonant_position"]), "count")
    out.update({
        "selection.select.ms": (over(["select"], lambda op: op.ms["selection.select"]), "ms"),
        "apparatus.stability_budget.ms": (
            over(["select", "coils"], lambda op: op.ms["apparatus.stability_budget"]), "ms"),
        "probability.simpson.evals": (
            over(["probability"], lambda op: op.counts["simpson_evals"]), "count"),
        "probability.simpson.ms": (over(["probability"], lambda op: op.ms[SIMPSON]), "ms"),
        "probability.batch.rows": (over(["simulate"], lambda op: op.counts["batch_rows"]), "count"),
        "probability.batch.evals": (
            over(["simulate"], lambda op: op.counts["batch_evals"]), "count"),
        "probability.batch.ms": (over(["simulate"], lambda op: op.ms[BATCH]), "ms"),
        "phase_space.pulse1.useful_ratio": (_ratio(alive, rows("rows1")), "ratio"),
        "phase_space.pulse2.useful_ratio": (_ratio(alive, rows("rows2")), "ratio"),
        "phase_space.run_monte_carlo.self_ms": (
            over(["simulate"], lambda op: op.counts["mc_self_ms"]), "ms"),
        "phase_space.cell.ms": (
            over(["select", "bands"], lambda op: sum(op.ms[n] for n in CELL)), "ms"),
        "cli.simulation_csv.ms": (over(["simulate"], lambda op: op.ms["cli.simulation_csv"]), "ms"),
        "cli.simulation_csv.bytes": (
            over(["simulate"], lambda op: op.counts["csv_bytes"]), "bytes"),
        "trace.overhead_frac": (overhead_frac, "fraction"),
    })
    for module in (*MODULES, "other"):
        out[f"simulate.{module}.self_ms"] = (
            over(["simulate"], lambda op: op.self_ms[module]), "ms")
        # per pass of the five short commands
        out[f"commands.{module}.self_ms"] = (
            sum(over([c], lambda op: op.self_ms[module]) for c in SHORT), "ms")
    return out


def print_layer_metrics(spans, overhead_frac: float) -> dict:
    metrics = {}
    ops = summarize(spans)
    rows = layer_metrics(ops, overhead_frac)
    print(f"{'per-layer metric':<46} {'value':>14}  unit")
    for name, (value, unit) in rows.items():
        print(f"{name:<46} {value:>14.6g}  {unit}")
        metrics[name] = {"value": value, "unit": unit}
    for label, commands in (("simulate", ["simulate"]), ("commands", list(SHORT))):
        split = sum(rows[f"{label}.{m}.self_ms"][0] for m in (*MODULES, "other"))
        traced = sum(_mean([op.total_ms for op in ops.get(c, [])]) for c in commands)
        print(f"{label}: module split sums to {split:.3f} ms of {traced:.3f} ms traced per "
              f"{'call' if label == 'simulate' else 'pass'}")
    return metrics


def write_spans(spans, path: Path) -> None:
    """Compact dump: a name table plus [name_id, start, end, parent] rows."""
    names = sorted({s[NAME] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [[index[s[NAME]], s[START], s[END], s[PARENT]] for s in spans]
    path.write_text(json.dumps({"names": names, "spans": rows}, separators=(",", ":")))
