"""The per-process caches: the CLI parser, each config text's YAML document,
each (text, --set list)'s RunConfig and each run's config echo.

cli.main builds its parser once, load_config parses each distinct config
text once and validates each distinct (text, --set list) once, and
_json_doc renders each RunConfig object's echo once.  Every call must
still give what a fresh process gives: --set edits never reach a later
call, an edited file is read again, an aliased node stays shared under
--set as a fresh parse leaves it, a -0.0 echoes as -0.0 after an equal
0.0, and an error is raised on every call.
"""

import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import yaml

from mwselect import cli
from mwselect import config as cf

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ROOT / "configs" / "rb87_10us.yaml"


def _take(path: Path):
    """The bytes at path, which is then removed; None where there are none."""
    if not path.exists():
        return None
    data = path.read_bytes()
    path.unlink()
    return data


def _fresh(argv: list[str], out: Path):
    """(exit code, stderr, output bytes) of argv -o out in a new interpreter."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mwselect", *argv, "-o", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
    )
    return proc.returncode, proc.stderr, _take(out)


def _here(argv: list[str], out: Path, capsys):
    """(exit code, stderr, output bytes) of argv -o out through this process's cli.main."""
    code = cli.main([*argv, "-o", str(out)])
    return code, capsys.readouterr().err, _take(out)


def _same_as_fresh(calls: list[list[str]], out: Path, capsys) -> list:
    """Each call's result, after checking it against a fresh process's."""
    got = [_here(argv, out, capsys) for argv in calls]
    for argv, result in zip(calls, got):
        assert result == _fresh(argv, out), argv
    return got


def test_overrides_do_not_reach_later_calls(tmp_path, capsys):
    # no quadrature section, so quadrature.window_sigmas is a new key
    text = SHIPPED.read_text(encoding="utf-8").split("quadrature:")[0]
    path = tmp_path / "run.yaml"
    path.write_text(text, encoding="utf-8")
    calls = [
        ["select", str(path), "--set", "pulses.0.tau=5 us", "--set", "quadrature.window_sigmas=6"],
        ["probability", str(path)],
        ["select", str(path)],
        ["select", str(path), "--set", "field.gradient=20 G/cm"],
        ["select", str(path)],
    ]
    got = _same_as_fresh(calls, tmp_path / "out.json", capsys)
    assert all(code == 0 for code, _, _ in got)
    assert got[0] != got[2] != got[3]
    assert got[2] == got[4]
    assert b'"window_sigmas": 6.0' in got[0][2]
    assert b'"window_sigmas": 6.0' not in got[2][2]


def test_a_rewritten_config_is_read_again(tmp_path, capsys):
    path = tmp_path / "run.yaml"
    out = tmp_path / "out.json"
    text = SHIPPED.read_text(encoding="utf-8")
    got = []
    # the same length and, within the clock's step, the same mtime
    for gradient in ("25 G/cm", "20 G/cm", "25 G/cm"):
        path.write_text(text.replace("25 G/cm", gradient), encoding="utf-8")
        got += _same_as_fresh([["select", str(path)]], out, capsys)
    assert got[0] != got[1]
    assert got[0] == got[2]


def test_an_aliased_pulse_stays_shared_under_set(tmp_path, capsys):
    """Both pulses are one mapping, so --set on one edits both, as at a fresh parse."""
    path = tmp_path / "alias.yaml"
    path.write_text(
        "species: Rb87\n"
        'field: {gradient: "25 G/cm"}\n'
        "pulses:\n"
        '  - &p {tau: "10 us", t0: "0 s", resonant_at: "0 m"}\n'
        "  - *p\n",
        encoding="utf-8",
    )
    calls = [
        ["select", str(path), "--set", "pulses.1.t0=28 ms", "--set", "pulses.1.resonant_at=1 cm"],
        ["select", str(path), "--set", "pulses.0.tau=5 us"],
        ["select", str(path)],
    ]
    got = _same_as_fresh(calls, tmp_path / "out.json", capsys)
    for code, err, _ in got:
        assert code == 2
        assert "increasing t0 order" in err


def test_each_text_is_parsed_once(tmp_path, monkeypatch):
    path = tmp_path / "run.yaml"
    path.write_bytes(SHIPPED.read_bytes())
    parsed = []
    load = yaml.load

    def spy(stream, Loader):
        parsed.append(stream)
        return load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    cf._parse.cache_clear()
    cf._validated.cache_clear()
    first = cf.load_config(path)
    edited = cf.load_config(path, ["ensemble.n=10", "ensemble.seed=3"])
    assert cf.load_config(path) == first
    # the document once, then one parse per --set value
    assert parsed == [SHIPPED.read_bytes(), "10", "3"]
    assert (edited.ensemble.n, edited.ensemble.seed) == (10, 3)
    assert (first.ensemble.n, first.ensemble.seed) == (20000, 20260815)


@pytest.mark.parametrize("key,zero,echo", [("field.bias", "0 G", b'"bias": "-0.0 T"'),
                                            ("pulses.0.resonant_at", "0 m", b'"-0.0 m"')],
                         ids=["bias", "resonant_at"])
def test_a_signed_zero_echoes_as_in_a_fresh_process(tmp_path, capsys, key, zero, echo):
    """-0.0 and 0.0 make equal RunConfigs, which echo differently, in either order."""
    out = tmp_path / "out.json"
    argv = {sign: ["select", str(SHIPPED), "--set", f"{key}={sign}{zero}"] for sign in ("", "-")}
    fresh = {sign: _fresh(call, out) for sign, call in argv.items()}
    assert echo in fresh["-"][2] and echo not in fresh[""][2]
    for order in (["", "-", ""], ["-", "", "-"]):
        cf._validated.cache_clear()
        cli._echo.cache_clear()
        assert [_here(argv[sign], out, capsys) for sign in order] == [fresh[s] for s in order]


def test_a_repeated_load_is_validated_once(tmp_path, monkeypatch):
    path = tmp_path / "run.yaml"
    path.write_bytes(SHIPPED.read_bytes())
    built = []
    from_dict = cf.from_dict
    monkeypatch.setattr(cf, "from_dict", lambda data: built.append(data) or from_dict(data))
    cf._validated.cache_clear()
    sets = ["ensemble.n=10", "field.gradient=20 G/cm"]
    first = cf.load_config(path, sets)
    assert cf.load_config(path, list(sets)) is first
    assert len(built) == 1
    # the same values in another order are another key
    swapped = cf.load_config(path, sets[::-1])
    assert swapped == first and swapped is not first
    assert len(built) == 2
    # no --set list and an empty one are the same key
    assert cf.load_config(path) is cf.load_config(path, [])
    assert len(built) == 3


_SHIPPED_TEXT = SHIPPED.read_bytes()


@pytest.mark.parametrize("text,sets,message", [
    (_SHIPPED_TEXT, ["pulses.0.tau"], "--set expects dotted.path=value"),
    (_SHIPPED_TEXT, ["bogus.key=1"], "config: unknown keys 'bogus'"),
    (_SHIPPED_TEXT, ["field.gradient=25"], "gradient: dimensional values must be strings"),
    (b"species: [Rb87\n", [], "invalid YAML in"),
    (b"- a\n", [], "config root must be a mapping"),
], ids=["bad-set", "unknown-key", "bare-number", "invalid-yaml", "not-a-mapping"])
def test_an_error_is_raised_on_every_call(tmp_path, text, sets, message):
    paths = [tmp_path / "a.yaml", tmp_path / "b.yaml"]
    for path in paths:
        path.write_bytes(text)
    cf._validated.cache_clear()
    for path in [*paths, paths[0]]:
        with pytest.raises(cf.ConfigError, match=re.escape(message)) as err:
            cf.load_config(path, sets)
        if message == "invalid YAML in":
            # the same bad bytes at each path name that path
            assert str(err.value).startswith(f"invalid YAML in {path}: ")
    assert cf._validated.cache_info().currsize == 0


def test_concurrent_calls_match_their_serial_runs(tmp_path, capsys):
    """Four threads, each with its own seed and gradient, through every cache."""
    sets = [[f"ensemble.seed={10 + i}", f"field.gradient={20 + i} G/cm"] for i in range(4)]
    outs = [tmp_path / f"select{i}.json" for i in range(4)]
    argvs = [["select", str(SHIPPED), *(a for s in sets[i] for a in ("--set", s)),
              "-o", str(outs[i])] for i in range(4)]

    def once(i):
        assert cli.main(argvs[i]) == 0
        return cf.load_config(SHIPPED, sets[i]), outs[i].read_bytes()

    want = [once(i) for i in range(4)]
    assert len({doc for _, doc in want}) == 4
    got = [[] for _ in range(4)]
    errors = []

    def work(i):
        try:
            for _ in range(5):
                got[i].append(once(i))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    # every cache starts empty, so the threads race to fill them
    cf._parse.cache_clear()
    cf._validated.cache_clear()
    cli._echo.cache_clear()
    cli.build_parser.cache_clear()
    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert got == [[w] * 5 for w in want]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["select", "--set", "ensemble.n=5"], ["bands"]])
def test_the_parser_keeps_no_state_between_calls(argv):
    first = cli.build_parser().parse_args([argv[0], "a.yaml", *argv[1:]])
    later = cli.build_parser().parse_args(["select", "b.yaml"])
    assert cli.build_parser() is cli.build_parser()
    assert later.overrides == [] and later.output is None
    assert first.overrides == argv[2:]
