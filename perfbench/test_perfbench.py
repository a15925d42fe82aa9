"""Tests of the benchmark itself: tracer hygiene, checks, seeding.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from mwselect import cli  # noqa: E402

SMALL = 2000


def _namespaces():
    return {
        name: dict(vars(module))
        for name, module in tracer_mod.package_modules().items()
    }


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    return run.Runner("cli_suite", 7, out)


def _simulate(runner, seed):
    argv = [
        f"ensemble.seed={seed}" if a.startswith("ensemble.seed=") else a
        for a in runner.argv("simulate")
    ]
    assert cli.main(argv) == 0
    csv_text = (runner.out / "atoms.csv").read_text()
    doc = checks.load_json(runner.out / "simulate.out")
    return csv_text, doc


@pytest.fixture(scope="module")
def simulated(runner):
    return _simulate(runner, 11)


def test_tracer_restores_every_namespace():
    before = _namespaces()
    tr = tracer_mod.Tracer()
    with pytest.raises(RuntimeError):
        with tr:
            from mwselect import phase_space

            assert cli.resonant_position is not before["breit_rabi"]["resonant_position"]
            assert phase_space.averaged_probability_batch is not (
                before["probability"]["averaged_probability_batch"]
            )
            raise RuntimeError("leave the block by an exception")
    after = _namespaces()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        changed = [a for a, obj in attrs.items() if after[name][a] is not obj]
        assert not changed, (name, changed)


def test_traced_counts_match_baseline(tmp_path):
    tr = tracer_mod.Tracer()
    for command in ("select", "probability", "bands", "coils"):
        with tr, tr.span("op", command=command):
            assert cli.main([command, str(run.CONFIG), "-o", str(tmp_path / "o")]) == 0
    metrics = layers.layer_metrics(layers.summarize(tr.spans), 0.0)
    calls = [metrics[f"breit_rabi.resonant_position.calls.{c}"][0]
             for c in ("select", "probability", "bands", "coils")]
    assert calls == [6, 2, 2, 1]
    assert metrics["probability.simpson.evals"][0] == 1077 + 1161
    own = tracer_mod.self_times(tr.spans)
    roots = [i for i, s in enumerate(tr.spans) if s[tracer_mod.PARENT] < 0]
    total = sum(tr.spans[i][tracer_mod.END] - tr.spans[i][tracer_mod.START] for i in roots)
    assert sum(own) == pytest.approx(total, rel=1e-9)


def test_real_simulation_passes(runner, simulated):
    csv_text, doc = simulated
    assert checks.check_simulation(runner.ctx, SMALL, csv_text, doc) == []
    table = checks.parse_simulation_csv(csv_text)
    picks = checks.oracle_sample(runner.ctx, table[:, 1], table[:, 2])
    assert checks.check_oracle(runner.ctx, picks) == []


def _write(table: np.ndarray) -> str:
    lines = [checks.CSV_HEADER]
    for row in table:
        lines.append(",".join(cli._format_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def _corruptions(table):
    first, both = table[:, 3] == 1, table[:, 4] == 1
    lost = np.flatnonzero(~first)
    bad = table.copy()
    bad[lost[0], 4] = 1  # survived both but not the first
    bad[lost[0], 5:7] = (0.01, -0.005)
    yield "subset", bad
    bad = table.copy()
    bad[lost[1], 5] = 0.01  # finite coordinate on a lost atom
    yield "finite", bad
    yield "rows", table[:-1]
    bad = table.copy()
    bad[lost[:200], 3] = 1  # far too many pulse-1 survivors
    yield "binomial", bad
    bad = table.copy()
    bad[:, 1] *= 1.5  # a cloud wider than configured
    yield "moments", bad
    if both.any():
        bad = table.copy()
        bad[np.flatnonzero(both)[0], 5] += 1e-6  # survivor off its ballistic path
        yield "flight", bad


def test_corrupted_simulation_fails(runner, simulated):
    csv_text, doc = simulated
    table = checks.parse_simulation_csv(csv_text)
    for label, bad in _corruptions(table):
        assert checks.check_simulation(runner.ctx, SMALL, _write(bad), doc), label
    wrong = json.loads(json.dumps(doc))
    wrong["result"]["n_survived_first"] += 1
    assert checks.check_simulation(runner.ctx, SMALL, csv_text, wrong)


def test_corrupted_batch_fails_the_oracle(runner, simulated, monkeypatch):
    table = checks.parse_simulation_csv(simulated[0])
    picks = checks.oracle_sample(runner.ctx, table[:, 1], table[:, 2])
    real = checks.averaged_probability_batch
    monkeypatch.setattr(checks, "averaged_probability_batch",
                        lambda *a, **k: real(*a, **k) * (1 - 1e-5))
    assert checks.check_oracle(runner.ctx, picks)


def test_corrupted_commands_fail(runner, tmp_path):
    outputs = {}
    for command in run.COMMANDS:
        path = tmp_path / command
        assert cli.main([command, str(run.CONFIG), "-o", str(path)]) == 0
        outputs[command] = path.read_text()
    golden = checks.load_golden_scan(run.GOLDEN_SCAN)
    assert checks.check_scan(outputs["scan"], golden, run.SCAN_POINTS) == []
    assert checks.check_bands(outputs["bands"], runner.ctx.delta_t) == []
    docs = {c: json.loads(outputs[c]) for c in ("select", "probability", "coils")}
    assert checks.check_select(docs["select"]) == []
    assert checks.check_probability(docs["probability"]) == []
    assert checks.check_coils(docs["coils"]) == []

    lines = outputs["scan"].splitlines()
    cells = lines[101].split(",")
    cells[4] = f"{float(cells[4]) * (1 + 1e-6):.16e}"
    lines[101] = ",".join(cells)
    assert checks.check_scan("\n".join(lines) + "\n", golden, run.SCAN_POINTS)
    rows = outputs["bands"].splitlines()
    element, vertex, z, v = rows[-1].split(",")
    rows[-1] = f"{element},{vertex},{z},{float(v) * 1.2:.16e}"
    assert checks.check_bands("\n".join(rows) + "\n", runner.ctx.delta_t)
    docs["select"]["result"]["pulses"][0]["position_width_m"] *= 1.1
    assert checks.check_select(docs["select"])
    docs["probability"]["result"]["pulses"][1]["probability"] = 0.80
    assert checks.check_probability(docs["probability"])
    docs["coils"]["result"]["gradient_ratio_to_configured"] = 1.001
    assert checks.check_coils(docs["coils"])


def test_seed_changes_inputs(tmp_path):
    a = run.Runner("simulate_thermal", 1, tmp_path)
    b = run.Runner("simulate_thermal", 2, tmp_path)
    a_again = run.Runner("simulate_thermal", 1, tmp_path)
    assert a.argv("simulate") != b.argv("simulate")
    assert a.argv("simulate") == a_again.argv("simulate")
    orders = [[r.round_ops() for _ in range(3)] for r in (a, b, a_again)]
    assert orders[0] != orders[1] and orders[0] == orders[2]


def test_seed_changes_the_cloud(runner):
    z0 = [checks.parse_simulation_csv(_simulate(runner, s)[0])[:, 1] for s in (5, 6, 5)]
    assert not np.array_equal(z0[0], z0[1])
    assert np.array_equal(z0[0], z0[2])


def test_tail_percentile():
    assert run.tail_percentile(list(range(10)), "lower") is None
    assert run.tail_percentile(list(range(100)), "lower") == (90, 89)
    assert run.tail_percentile(list(range(100)), "higher") == (10, 10)


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".out", ".run-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
