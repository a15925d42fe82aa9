"""Every output of a fixed matrix of CLI calls, pinned by a committed table.

Each case runs cli.main in-process and records its exit code, its stderr
and the SHA-256 of each output file (-o, and simulate's --csv), or "-"
for a file not written.  The case's temporary directory reads "<tmp>" in
both, since simulate's JSON names its CSV path.  tests/data/output_sweep.tsv holds one line per
case; a case whose line differs is named, and assert_same shows where.

The table is a fixed point, like the goldens.  Regenerate it only for an
output change that CHANGES.md states, case by case, from the repository
root:

    PYTHONPATH=src python tests/test_output_sweep.py
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

import pytest

from mwselect.cli import main

from byte_diff import assert_same

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).resolve().parent / "data" / "output_sweep.tsv"

COMMANDS = ["scan", "select", "probability", "bands", "simulate", "coils"]
SHIPPED = ["configs/rb87_10us.yaml", "configs/rb87_5us.yaml"]
# a config without ensemble or apparatus, so several commands exit 2 on it
SMALL = "tests/data/scan_small.yaml"

# every species at either sign of sigma and a zero, negative-zero and nonzero bias
MATRIX = [
    [f"species={species}", f"sigma={sigma}", f'field.bias="{bias}"']
    for species, sigma, bias in itertools.product(
        ["Rb87", "Rb85", "Na23", "Cs133"], [1, -1], ["0 G", "-0 G", "0.5 G"]
    )
]

# single edits of a config, each on every config; the last three exit 2 or 3
EDITS = [
    [],
    ['field.bias="-0 G"'],
    ['field.bias="0 G"'],
    ['pulses.0.resonant_at="-0 m"'],
    ["sigma=-1"],
    ["species=Rb85"],
    ["species=Na23"],
    ["species=Cs133"],
    ["species=Cs133", "sigma=-1"],
    ['field.gradient="400 T/m"'],
    ['apparatus.current="-5.79233 A"'],
    ['apparatus.half_separation="1 mm"'],
    ["ensemble.seed=7"],
    ['field.bias="3 mG"', "sigma=-1"],
    ["scan.points=16"],
    ["scan.points=17"],
    ["scan.points=2"],
    ["scan.points=1"],
    ['apparatus.displacement="1 um"'],
    ['apparatus.displacement="10 m"'],
    ['apparatus.displacement="1e-320 m"'],
    ['apparatus.radius="0 m"', 'apparatus.displacement="0 m"'],
    ["field.colour=1"],
    ['field.gradient="0 G/cm"'],
    ['pulses.0.t0="-1 s"'],
]


def cases():
    """(case id, argv) for every case, in table order."""
    for command in COMMANDS:
        runs = [(config, sets) for config in SHIPPED for sets in MATRIX]
        runs += [(config, sets) for config in [*SHIPPED, SMALL] for sets in EDITS]
        for config, sets in runs:
            if command == "simulate":
                sets = ["ensemble.n=2000", *sets]
            argv = [command, config]
            for item in sets:
                argv += ["--set", item]
            yield " ".join(argv), argv


def _digest(path: Path, tmp: Path) -> str:
    if not path.exists():
        return "-"
    digest = hashlib.sha256(path.read_bytes().replace(bytes(tmp), b"<tmp>")).hexdigest()
    path.unlink()
    return digest


def record(argv, tmp: Path) -> str:
    """The table line of one case after its id: code, stderr, output digests."""
    out, csv = tmp / "out", tmp / "atoms.csv"
    paths = ["-o", str(out)] + (["--csv", str(csv)] if argv[0] == "simulate" else [])
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, *paths])
    text = err.getvalue().replace(str(tmp), "<tmp>")
    return "\t".join([str(code), json.dumps(text), _digest(out, tmp), _digest(csv, tmp)])


def _table() -> dict[str, str]:
    lines = TABLE.read_text(encoding="utf-8").splitlines()[1:]
    return dict(line.split("\t", 1) for line in lines)


@pytest.mark.parametrize("command", COMMANDS)
def test_every_output_matches_the_committed_sweep(command, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    want = _table()
    ours = [(case, argv) for case, argv in cases() if argv[0] == command]
    assert len(ours) == len(MATRIX) * len(SHIPPED) + len(EDITS) * 3
    assert sorted(case for case in want if case.split()[0] == command) == sorted(
        case for case, _ in ours
    )
    failures = []
    for case, argv in ours:
        got = record(argv, tmp_path)
        try:
            assert_same(got, want[case])
        except AssertionError as exc:
            failures.append(f"{case}: {exc}")
    assert not failures, f"{len(failures)} cases differ:\n" + "\n".join(failures[:10])


def _write_table() -> None:
    import tempfile
    import warnings

    warnings.simplefilter("error", RuntimeWarning)  # as pyproject.toml sets for pytest
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        lines = [f"{case}\t{record(argv, Path(tmp))}" for case, argv in cases()]
    TABLE.write_text("case\tcode\tstderr\tout_sha256\tcsv_sha256\n" + "\n".join(lines) + "\n",
                     encoding="utf-8")
    print(f"wrote {len(lines)} cases to {TABLE}", file=sys.stderr)


if __name__ == "__main__":
    _write_table()
