"""mwselect benchmark: closed-loop CLI calls with output checks.

Usage, from the repository root:

    python3 perfbench/run.py --workload simulate_thermal --seed 1 \
        --seconds 30 --trace 0

One process, one thread, closed loop: every call of ``mwselect.cli.main``
starts after the previous one returned.  A round is one ``simulate``
call and ``passes`` passes over the five short commands, in an order
drawn from the seed.  Every output is checked (see checks.py).  With
``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` rounds alternate between
untraced and traced (see tracer.py) and it holds the per-layer metrics.
README.md in this directory maps each layer metric to the end-to-end
metric it should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "rb87_10us.yaml"
GOLDEN_SCAN = ROOT / "tests" / "data" / "scan_golden.csv"
TRACE_DIR = BENCH_DIR / ".out"

COMMANDS = ("scan", "select", "probability", "bands", "coils")
SCAN_POINTS = 201
SETUP_RUNS = 8  # fresh interpreters timed per run

# Timings are scaled to a machine on which reference_seconds() takes
# REFERENCE_S: each operation's time is multiplied by REFERENCE_S over
# the mean of the machine_speed() readings just before and just after it.
# The host this was written on (2 cores) switches between speeds 1.6x
# apart every few seconds, which spreads raw run medians by 20-60%.
REFERENCE_S = 1.4e-3
_REFERENCE_GRID = np.linspace(0.0, 1.0, 4096)

# n: atoms per simulate call; cloud: --set overrides; passes: rounds of
# the five short commands per simulate call.
WORKLOADS = {
    "simulate_thermal": {"n": 50000, "cloud": [], "passes": 3},
    "simulate_matched": {
        "n": 50000,
        "cloud": ['ensemble.z_rms="20 um"', 'ensemble.v_rms="2 mm/s"'],
        "passes": 3,
    },
    "cli_suite": {"n": 2000, "cloud": [], "passes": 1},
}

# name -> (unit, better) for the end-to-end metrics
END_TO_END = {
    "atoms_per_s": ("atoms/s", "higher"),
    **{f"{c}_ms": ("ms", "lower") for c in COMMANDS},
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import mwselect.cli
from mwselect.config import load_config
load_config(sys.argv[2], sys.argv[3:])
print(time.monotonic())
"""


def reference_seconds() -> float:
    """Time of a fixed loop of interpreted math and numpy: the machine's speed."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += math.sin(i * 1e-3) * math.sqrt(i + 1.0)
    for _ in range(20):
        np.sin(_REFERENCE_GRID * 3.1) ** 2 / (1.0 + _REFERENCE_GRID**2)
    return time.perf_counter() - start


def machine_speed() -> float:
    """Median of three reference timings, which damps their own jitter."""
    return statistics.median(reference_seconds() for _ in range(3))


def timed(fn):
    """(result, raw seconds, seconds scaled to the reference speed)."""
    before = machine_speed()
    start = time.perf_counter()
    out = fn()
    raw = time.perf_counter() - start
    return out, raw, raw * REFERENCE_S / (0.5 * (before + machine_speed()))


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    """Import mwselect from this checkout's src/, or exit without a result."""
    for path in (SRC / "mwselect" / "cli.py", CONFIG, GOLDEN_SCAN):
        if not path.is_file():
            fail_setup(f"missing {path.relative_to(ROOT)}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mwselect

    if not Path(mwselect.__file__).resolve().is_relative_to(SRC.resolve()):
        fail_setup(f"imported mwselect from {mwselect.__file__}, not {SRC}")


def tail_percentile(samples: list[float], better: str):
    """Highest percentile with at least ten samples beyond it, or None."""
    k = len(samples)
    if k < 11:
        return None
    ordered = sorted(samples, reverse=(better == "higher"))
    pct = math.floor(100 * (k - 10) / k)
    return (pct if better == "lower" else 100 - pct), ordered[k - 11]


class Runner:
    """Runs one workload's closed loop and checks every output."""

    def __init__(self, workload: str, seed: int, out_dir: Path) -> None:
        import checks
        from mwselect import cli

        self.checks, self.cli = checks, cli
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.rng = random.Random(seed)
        self.out = out_dir
        self.base = [f"ensemble.seed={seed}", f"ensemble.n={self.spec['n']}"]
        self.base += self.spec["cloud"]
        self.ctx = checks.SimulateContext.from_config(CONFIG, self.base)
        self.golden = checks.load_golden_scan(GOLDEN_SCAN)
        self.verified: dict[str, bytes] = {}
        self.simulate_calls = 0
        self.attempted = 0
        self.failures: list[str] = []
        # seconds per call, scaled and raw
        self.samples: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}

    def round_ops(self) -> list[str]:
        ops = ["simulate"] + list(COMMANDS) * self.spec["passes"]
        self.rng.shuffle(ops)
        return ops

    def argv(self, command: str) -> list[str]:
        overrides = list(self.base)
        extra = ["-o", str(self.out / f"{command}.out")]
        if command == "simulate":
            # every simulate call gets its own seed, fixed by the run seed
            sim_seed = (self.seed * 1_000_003 + self.simulate_calls) % 2**63
            overrides[0] = f"ensemble.seed={sim_seed}"
            extra += ["--csv", str(self.out / "atoms.csv")]
        sets = [arg for item in overrides for arg in ("--set", item)]
        return [command, str(CONFIG), *sets, *extra]

    def _main(self, argv, command, tracer):
        try:
            if tracer is None:
                return self.cli.main(argv), None
            with tracer, tracer.span("op", command=command):
                return self.cli.main(argv), None
        except Exception as exc:  # a traceback is a failed operation
            return None, f"{type(exc).__name__}: {exc}"

    def call(self, command: str, tracer=None) -> float:
        """One timed operation and its (untimed) output check; raw seconds."""
        argv = self.argv(command)
        gc.collect()
        self.attempted += 1
        (rc, error), raw, elapsed = timed(lambda: self._main(argv, command, tracer))
        if rc != 0:
            problems = [f"exit {rc}" if error is None else error]
        else:
            try:
                problems = self.check(command)
            except Exception as exc:  # unreadable output fails its check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if command == "simulate":
            self.simulate_calls += 1
        if problems:
            self.failures.append(f"{command}: " + "; ".join(problems))
        elif tracer is None:
            self.samples.setdefault(command, []).append(elapsed)
            self.raw.setdefault(command, []).append(raw)
        return raw

    def check(self, command: str) -> list[str]:
        checks = self.checks
        path = self.out / f"{command}.out"
        if command == "simulate":
            csv_text = (self.out / "atoms.csv").read_text()
            doc = checks.load_json(path)
            problems = checks.check_simulation(self.ctx, self.spec["n"], csv_text, doc)
            if self.simulate_calls == 0 and not problems:
                table = checks.parse_simulation_csv(csv_text)
                picks = checks.oracle_sample(self.ctx, table[:, 1], table[:, 2])
                problems = checks.check_oracle(self.ctx, picks)
            return problems
        # the short commands are deterministic: later calls must repeat
        # the first call's bytes, which were checked in full
        data = path.read_bytes()
        if command in self.verified:
            return [] if data == self.verified[command] else ["output changed between calls"]
        text = data.decode()
        if command == "scan":
            problems = checks.check_scan(text, self.golden, SCAN_POINTS)
        elif command == "bands":
            problems = checks.check_bands(text, self.ctx.delta_t)
        else:
            doc = json.loads(text)
            problems = {
                "select": checks.check_select,
                "probability": checks.check_probability,
                "coils": checks.check_coils,
            }[command](doc)
        if not problems:
            self.verified[command] = data
        return problems

    def measure_setup(self, record: bool = True) -> None:
        """Fresh interpreter to mwselect imported and the config loaded."""
        argv = [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(CONFIG), *self.base]
        self.attempted += 1
        start = time.monotonic()
        proc, raw, scaled = timed(
            lambda: subprocess.run(argv, capture_output=True, text=True, timeout=120)
        )
        try:
            ready = float(proc.stdout.split()[-1]) - start
        except (IndexError, ValueError):
            ready = None
        if proc.returncode != 0 or ready is None:
            self.failures.append(f"setup: exit {proc.returncode}: {proc.stderr[-300:]}")
        elif record:
            self.samples.setdefault("setup", []).append(ready * scaled / raw)
            self.raw.setdefault("setup", []).append(ready)


def run_untraced(runner: Runner, seconds: float) -> dict:
    runner.measure_setup(record=False)  # writes bytecode, like a first install
    # set-up runs are spread over the run, so they see the same machine
    # states as the operations
    gap = seconds / SETUP_RUNS
    start = next_setup = time.perf_counter()
    while True:
        for command in runner.round_ops():
            runner.call(command)
        now = time.perf_counter()
        if now >= next_setup:
            runner.measure_setup()
            next_setup = now + gap
        if now - start >= seconds:
            break
    n = runner.spec["n"]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = []
    for series in (runner.samples, runner.raw):
        samples = {f"{c}_ms": [t * 1e3 for t in series.get(c, [])] for c in COMMANDS}
        samples["atoms_per_s"] = [n / t for t in series.get("simulate", [])]
        samples["setup_s"] = series.get("setup", [])
        samples["peak_rss_mb"] = [rss_mb]
        out.append(samples)
    return out


def run_traced(runner: Runner, seconds: float):
    """Alternate untraced and traced rounds; return the tracer and its overhead."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        for times, t in ((plain, None), (traced, tracer)):
            times.append(sum(runner.call(c, t) for c in runner.round_ops()))
        if time.perf_counter() - start >= seconds:
            break
    return tracer, sum(traced) / sum(plain) - 1.0


def print_end_to_end(samples: dict, raw: dict) -> dict:
    print(f"{'metric':<14} {'median':>12} {'tail':>20} {'samples':>8} {'unscaled':>12}  unit")
    metrics = {}
    for name, (unit, better) in END_TO_END.items():
        values = samples[name]
        if not values:
            continue
        median = statistics.median(values)
        tail = tail_percentile(values, better)
        tail_text = "-" if tail is None else f"p{tail[0]}={tail[1]:.6g}"
        print(f"{name:<14} {median:>12.6g} {tail_text:>20} {len(values):>8} "
              f"{statistics.median(raw[name]):>12.6g}  {unit}")
        metrics[name] = {"value": median, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as tmp:
        runner = Runner(args.workload, args.seed, Path(tmp))
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace} n {runner.spec['n']}")
        if args.trace:
            import layers

            tracer, overhead = run_traced(runner, args.seconds)
            metrics = layers.print_layer_metrics(tracer.spans, overhead)
            TRACE_DIR.mkdir(exist_ok=True)
            spans_path = TRACE_DIR / f"spans-{args.workload}-{args.seed}.json"
            layers.write_spans(tracer.spans, spans_path)
            print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        else:
            metrics = print_end_to_end(*run_untraced(runner, args.seconds))

    failed = len(runner.failures)
    for line in runner.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"error_rate {failed / runner.attempted:.6g} fraction "
          f"({failed} of {runner.attempted} operations failed)")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
