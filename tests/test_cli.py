import contextlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwselect import config as cf
from mwselect import get_species
from mwselect.cli import main

from byte_diff import assert_same

DATA = Path(__file__).resolve().parent / "data"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

FLOAT_CELL = re.compile(r"^(-?\d\.\d{16}e[+-]\d{2,3}|nan)$")


def _base_config() -> dict:
    return {
        "species": "Rb87",
        "field": {"gradient": "25 G/cm", "bias": "0 T"},
        "sigma": 1,
        "pulses": [
            {"tau": "10 us", "t0": "0 s", "resonant_at": "0 m"},
            {"tau": "10 us", "t0": "28 ms", "resonant_at": "1 cm"},
        ],
        "ensemble": {
            "n": 400,
            "z_mean": "0 m",
            "z_rms": "0.1 mm",
            "v_mean": "0.7192 m/s",
            "v_rms": "3 mm/s",
            "dz0": "3 um",
            "seed": 20260815,
            "decision_mode": "band",
        },
        "scan": {"z_min": "-1 cm", "z_max": "1 cm", "points": 11},
        "apparatus": {
            "radius": "5 cm",
            "current": "5.79233904 A",
            "half_separation": "2.5 cm",
            "turns": 100,
            "displacement": "1 cm",
        },
    }


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "run.yaml"
    p.write_text(yaml.safe_dump(_base_config(), sort_keys=False))
    return p


def _load_json(path: Path) -> dict:
    doc = json.loads(path.read_text())
    assert set(doc) == {"command", "config", "result"}
    return doc


def test_scan_golden_bytes(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", str(DATA / "scan_small.yaml"), "-o", str(out)]) == 0
    assert_same(out.read_bytes(), (DATA / "scan_golden.csv").read_bytes())


def test_bands_golden_bytes(tmp_path):
    out = tmp_path / "bands.csv"
    assert main(["bands", str(CONFIGS / "rb87_10us.yaml"), "-o", str(out)]) == 0
    assert_same(out.read_bytes(), (DATA / "bands_golden.csv").read_bytes())


def test_simulate_golden_bytes(tmp_path):
    # 400 atoms of the matched cloud: the bytes pin the draws (Philox keys
    # 0, 1, 2 and 4), both pulses' decisions and the propagation
    out = tmp_path / "atoms.csv"
    assert main([
        "simulate", str(CONFIGS / "rb87_10us.yaml"), "--set", "ensemble.n=400",
        "--set", 'ensemble.z_rms="20 um"', "--set", 'ensemble.v_rms="2 mm/s"',
        "--csv", str(out), "-o", str(tmp_path / "sim.json"),
    ]) == 0
    assert_same(out.read_bytes(), (DATA / "simulate_golden.csv").read_bytes())


def test_scan_csv_shape_and_format(config_path, tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", str(config_path), "-o", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    lines = raw.decode().splitlines()
    assert lines[0] == "z_m,kz,V_minus_J,V_plus_J,transition_Hz,detuning_rad_s"
    assert len(lines) == 1 + 11
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 6
        for cell in cells:
            assert FLOAT_CELL.match(cell), cell


def test_scan_to_stdout(config_path, capsys):
    assert main(["scan", str(config_path)]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("z_m,kz,")
    assert len(captured.splitlines()) == 12


@pytest.mark.parametrize("command", ["scan", "bands", "select"])
def test_stdout_matches_output_file(config_path, tmp_path, capsys, command):
    """Without -o a command prints exactly the bytes -o writes."""
    out = tmp_path / "out"
    assert main([command, str(config_path), "-o", str(out)]) == 0
    assert main([command, str(config_path)]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_simulate_csv_is_simulation_csv(tmp_path):
    """simulate --csv writes the bytes simulation_csv returns, over several blocks."""
    from mwselect import cli

    sets = ["ensemble.n=20000", "ensemble.seed=3"]
    out = tmp_path / "atoms.csv"
    argv = ["simulate", str(_SHIPPED), *[a for s in sets for a in ("--set", s)],
            "--csv", str(out), "-o", str(tmp_path / "sim.json")]
    assert main(argv) == 0
    assert out.read_bytes() == cli.simulation_csv(_shipped_result(sets))


def test_select_json(config_path, tmp_path):
    out = tmp_path / "select.json"
    assert main(["select", str(config_path), "-o", str(out)]) == 0
    doc = _load_json(out)
    assert doc["command"] == "select"
    # config echo reparses to the same validated run
    assert cf.from_dict(doc["config"]) == cf.load_config(config_path)
    pulses = doc["result"]["pulses"]
    assert len(pulses) == 2
    first = pulses[0]
    assert first["position_width_m"] == pytest.approx(1.9034e-5, rel=1e-3)
    assert first["velocity_width_m_s"] == pytest.approx(1.3596e-3, rel=1e-3)
    assert first["validity_diagnostic"] == pytest.approx(0.0731, rel=1e-2)
    assert pulses[1]["validity_diagnostic"] == pytest.approx(0.0392, rel=1e-2)
    assert first["stability"]["bias_tolerance_G"] == pytest.approx(0.0238, rel=1e-2)
    pair = doc["result"]["pair"]
    assert pair["v_center_m_s"] == pytest.approx(-4.8986e-3, rel=1e-3)
    assert pair["velocity_support_m_s"] == pytest.approx(1.3561e-3, rel=1e-3)


def _golden_document(command: str, golden: str) -> bytes:
    """The whole file command writes on the shipped config, its result the
    golden one: json.dumps of the document, indent 2, sorted keys."""
    run = cf.load_config(CONFIGS / "rb87_10us.yaml")
    doc = {"command": command, "config": cf.to_dict(run),
           "result": json.loads((DATA / golden).read_text())}
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def test_select_golden_result(tmp_path):
    # written at the commit before delta_t was retired: the per-pulse velocity
    # widths, now taken from the pulses' t0 gap, and the pair keep every bit;
    # the file keeps its key order and indentation
    out = tmp_path / "select.json"
    assert main(["select", str(CONFIGS / "rb87_10us.yaml"), "-o", str(out)]) == 0
    assert_same(out.read_bytes(), _golden_document("select", "select_golden.json"))


def test_coils_golden_result(tmp_path):
    # the coils result block on the shipped config, kept byte for byte, in
    # the file's key order and indentation
    out = tmp_path / "coils.json"
    assert main(["coils", str(CONFIGS / "rb87_10us.yaml"), "-o", str(out)]) == 0
    assert_same(out.read_bytes(), _golden_document("coils", "coils_golden.json"))


# JSON leaves as a result holds them: numpy and Python scalars, non-finite
# and signed-zero floats, integers past 2**63, and texts with escapes
_JSON_TEXTS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "a\nb", '"q"', "back\\slash", "\u00b5m \u00e9\U0001f600", "\r\t\x00\n"]),
)
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.booleans().map(np.bool_), _JSON_TEXTS,
    st.integers(-2**70, 2**70), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.floats(), st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.sampled_from([-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf, np.float64(-0.0)]),
)
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_JSON_TEXTS, inner, max_size=4),
    ),
    max_leaves=24,
)


def _jsonable(obj):
    """Coerce numpy scalars and non-finite floats for strict JSON."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if np.isfinite(f) else None
    return obj


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["select", "probability", "simulate", "coils"]),
    overrides=st.sampled_from([[], ["field.bias=-0 G"], ["pulses.0.resonant_at=-0 m"]]),
    result=st.dictionaries(_JSON_TEXTS, _JSON_PAYLOADS, max_size=5),
)
def test_json_doc_is_json_dumps_of_the_whole_document(command, overrides, result):
    """The echo and result, each dumped alone one level down, nest exactly.

    The reference is the document dumped in one call, as json.dumps writes it.
    """
    from mwselect import cli

    run = cf.load_config(CONFIGS / "rb87_10us.yaml", overrides)
    payload = {"command": command, "config": cf.to_dict(run), "result": result}
    want = (json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n").encode()
    assert cli._json_doc(command, run, result) == want


@pytest.mark.parametrize("result", [
    {"leaf": object()},
    {"nested": [{"path": Path("out.json")}]},
    {(1, 2): 0.5},
    {"pulses": [{1: 0.5}]},
], ids=["object", "path", "tuple-key", "int-key"])
def test_json_doc_rejects_what_json_cannot_write(result):
    """A leaf json.dumps cannot write, or a key that is not text, raises TypeError."""
    from mwselect import cli

    run = cf.load_config(CONFIGS / "rb87_10us.yaml")
    with pytest.raises(TypeError):
        cli._json_doc("select", run, result)


def test_select_single_pulse_has_note(tmp_path):
    # a single pulse resolves a position, not a velocity
    data = _base_config()
    data["pulses"] = data["pulses"][:1]
    p = tmp_path / "one.yaml"
    p.write_text(yaml.safe_dump(data, sort_keys=False))
    out = tmp_path / "select.json"
    assert main(["select", str(p), "-o", str(out)]) == 0
    result = _load_json(out)["result"]
    assert result["note"] == "velocity widths need two pulses"
    assert "pair" not in result
    assert result["pulses"][0]["velocity_width_m_s"] is None
    assert result["pulses"][0]["position_width_m"] == pytest.approx(1.9034e-5, rel=1e-3)


def test_probability_json(config_path, tmp_path):
    out = tmp_path / "prob.json"
    assert main(["probability", str(config_path), "-o", str(out)]) == 0
    doc = _load_json(out)
    pulses = doc["result"]["pulses"]
    assert pulses[0]["probability"] == pytest.approx(0.9110, abs=2e-3)
    assert pulses[1]["probability"] == pytest.approx(0.8208, abs=2e-3)
    assert pulses[1]["packet_width_m"] == pytest.approx(4.5419e-6, rel=1e-3)
    for entry in pulses:
        assert entry["quadrature"]["nodes"] == 201
        assert 0.0 <= entry["quadrature"]["error"] < 1e-10


def test_bands_csv(config_path, tmp_path):
    out = tmp_path / "bands.csv"
    assert main(["bands", str(config_path), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "element,vertex,z_m,v_m_s"
    assert len(lines) == 1 + 8 + 4
    elements = [line.split(",")[0] for line in lines[1:]]
    assert elements.count("cell") == 4
    for name in ("first_band_low", "first_band_high",
                 "second_band_low", "second_band_high"):
        assert elements.count(name) == 2


def test_simulate_artifacts(config_path, tmp_path):
    csv_out = tmp_path / "atoms.csv"
    json_out = tmp_path / "sim.json"
    rc = main([
        "simulate", str(config_path),
        "--csv", str(csv_out), "-o", str(json_out),
    ])
    assert rc == 0
    doc = _load_json(json_out)
    res = doc["result"]
    assert res["n_total"] == 400
    assert res["n_survived_both"] >= 1
    assert res["n_survivors_outside_cell"] == 0
    assert res["per_atom_csv"] == str(csv_out)

    lines = csv_out.read_text().splitlines()
    assert lines[0].split(",") == [
        "atom_index", "z0_m", "v0_m_s", "survived_first", "survived_both",
        "z_final_m", "v_final_m_s",
    ]
    assert len(lines) == 1 + 400
    survived = 0
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[3] in "01" and cells[4] in "01"
        for cell in cells[1:3] + cells[5:]:
            assert FLOAT_CELL.match(cell), cell
        if cells[4] == "1":
            survived += 1
            assert "nan" not in (cells[5], cells[6])
        else:
            assert cells[5] == "nan" and cells[6] == "nan"
    assert survived == res["n_survived_both"]


def test_simulate_rejects_workers_key(config_path, tmp_path, capsys):
    rc = main([
        "simulate", str(config_path), "--set", "workers=8",
        "--csv", str(tmp_path / "atoms.csv"), "-o", str(tmp_path / "sim.json"),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown keys 'workers'" in err and "Traceback" not in err


def test_simulate_uses_quadrature_window(monkeypatch, tmp_path):
    """Every bound and batch call takes the config's window, on both bound paths.

    2000 atoms stay under phase_space._BIN_ATOMS, so each atom gets its
    own bound (lo = hi); with the threshold at 0 both pulses bin their
    atoms, and the bound is also taken over the bins' ranges (lo < hi).
    """
    from mwselect import phase_space, probability

    seen, ranges = {}, set()
    for name in ("averaged_probability_batch", "averaged_probability_bound"):
        def spy(*args, _real=getattr(probability, name), _name=name, **kwargs):
            seen.setdefault(_name, set()).add(kwargs.get("window_sigmas"))
            if _name == "averaged_probability_bound":
                ranges.add(bool(np.any(args[0] < args[1])))
            return _real(*args, **kwargs)

        monkeypatch.setattr(phase_space, name, spy)
    for bin_atoms in (phase_space._BIN_ATOMS, 0):
        monkeypatch.setattr(phase_space, "_BIN_ATOMS", bin_atoms)
        seen.clear()
        ranges.clear()
        rc = main([
            "simulate", str(CONFIGS / "rb87_10us.yaml"), "--set", "ensemble.n=2000",
            "--set", "quadrature.window_sigmas=5.5",
            "--csv", str(tmp_path / "atoms.csv"), "-o", str(tmp_path / "sim.json"),
        ])
        assert rc == 0
        assert seen == {
            "averaged_probability_batch": {5.5},
            "averaged_probability_bound": {5.5},
        }
        assert ranges == ({False} if bin_atoms else {False, True})


def test_coils_json(config_path, tmp_path):
    out = tmp_path / "coils.json"
    assert main(["coils", str(config_path), "-o", str(out)]) == 0
    res = _load_json(out)["result"]
    assert res["gradient_T_per_m"] == pytest.approx(0.25, rel=1e-6)
    assert res["gradient_ratio_to_configured"] == pytest.approx(1.0, rel=1e-6)
    assert res["is_max_gradient_geometry"] is True
    assert res["linearity_fraction_of_geometry"] == pytest.approx(0.1938, rel=1e-2)
    assert res["shifted_zero_m"] == 0.0
    assert res["stability"]["gradient_fraction"] == pytest.approx(9.5169e-4,
                                                                  rel=1e-3)


def test_shipped_configs_run_scan_and_select(tmp_path):
    for name in ("rb87_10us.yaml", "rb87_5us.yaml"):
        out = tmp_path / f"{name}.json"
        assert main(["select", str(CONFIGS / name), "-o", str(out)]) == 0
        assert main(["scan", str(CONFIGS / name),
                     "-o", str(tmp_path / f"{name}.csv")]) == 0


@pytest.mark.parametrize(
    "argv_tail,needle",
    [
        (["--set", "field.gradient=0.25"], "must be strings"),
        (["--set", "unknown_section.x=1"], "unknown key"),
        (["--set", "ensemble.n=0"], "ensemble"),
        (["--set", "pulses.0.omega=6.8 GHz"], "exactly one"),
        (["--set", "ensemble.n=" + "9" * 5000], "ensemble.n"),
        (["--set", "scan.z_max=-1 cm"], "scan.z_max must exceed scan.z_min"),
        (["--set", "scan.points=1"], "scan.points must be at least 2"),
        (["--set", "ensemble.z_rms=-1 mm"], "ensemble: z_rms and v_rms must be nonnegative"),
        (["--set", "ensemble.v_rms=-1 mm/s"], "ensemble: z_rms and v_rms must be nonnegative"),
        # magnitudes whose products overflow are out of range
        (["--set", "scan.z_min=-1e300 m"], "scan.z_min and scan.z_max must lie in [-1, 1] m"),
        (["--set", "scan.z_max=1e300 m"], "scan.z_min and scan.z_max must lie in [-1, 1] m"),
        (["--set", "field.gradient=1e300 T/m"], "field: |eta| must be at most 1e4 T/m"),
        (["--set", "field.bias=-1e300 T"], "and |bias| at most 1e3 T"),
        (["--set", "ensemble.z_mean=1e300 m"], "|z_mean| and z_rms must be at most 1 m"),
        (["--set", "ensemble.z_rms=1e300 m"], "|z_mean| and z_rms must be at most 1 m"),
        (["--set", "ensemble.v_mean=-1e300 m/s"], "|v_mean| and v_rms must be at most 3e8"),
        (["--set", "ensemble.v_rms=1e300 m/s"], "|v_mean| and v_rms must be at most 3e8"),
    ],
)
def test_config_errors_exit_2(config_path, tmp_path, capsys, argv_tail, needle):
    rc = main(["select", str(config_path), "-o", str(tmp_path / "o.json")]
              + argv_tail)
    assert rc == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,override",
    [
        ("select", "pulses.0.tau=nan us"),
        ("select", "field.bias=nan T"),
        ("select", "field.gradient=inf G/cm"),
        ("simulate", "ensemble.dz0=nan m"),
        ("simulate", "ensemble.z_rms=inf m"),
        ("probability", "quadrature.window_sigmas=.nan"),
        ("simulate", "quadrature.window_sigmas=.nan"),
    ],
)
def test_non_finite_values_exit_2(config_path, tmp_path, capsys, command, override):
    argv = [command, str(config_path), "--set", override, "-o", str(tmp_path / "o")]
    if command == "simulate":
        argv += ["--csv", str(tmp_path / "atoms.csv")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "finite" in err and "Traceback" not in err
    # the section is named once, not once per wrapping layer
    assert err.count(override.split(".")[0]) == 1


def test_unreachable_frequency_reports_finite_range(config_path, tmp_path, capsys):
    rc = main([
        "select", str(config_path), "--set", "pulses.0.omega=1e300 rad/s",
        "--set", "pulses.0.resonant_at=null", "-o", str(tmp_path / "o.json"),
    ])
    err = capsys.readouterr().err
    assert rc == 3
    match = re.search(r"transition range \[(\S+), (\S+)\]", err)
    assert match is not None, err
    lo, hi = (float(x) for x in match.groups())
    assert np.isfinite(lo) and np.isfinite(hi) and 0.0 < lo < hi
    assert "nan" not in err and "Traceback" not in err
    # pulse 1 is tuned to z = 0, where the transition is exactly delta_W.  The
    # convex transition dips below it inside [-1, 1] m at both gradients, but
    # only at 400 T/m does it cross delta_W twice there: exit 3 with the dip
    # counted in the range, which then holds delta_W.
    delta_w = get_species("Rb87").delta_W
    for gradient, code in (("300 T/m", 0), ("400 T/m", 3)):
        rc = main(["select", str(config_path), "--set", f"field.gradient={gradient}",
                   "-o", str(tmp_path / "o.json")])
        err = capsys.readouterr().err
        assert rc == code, err
    assert "crossed twice" in err and "outside" not in err
    lo, hi = (float(x) for x in re.search(r"range \[(\S+), (\S+)\]", err).groups())
    assert lo < delta_w < hi


@pytest.mark.parametrize("value", ["2 m", "-1e300 m", "-1.0000001 m"])
def test_resonant_at_outside_position_range_exits_2(
    value, config_path, tmp_path, capsys
):
    rc = main([
        "select", str(config_path), "--set", f"pulses.1.resonant_at={value}",
        "-o", str(tmp_path / "o.json"),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert "pulses[1]: resonant_at" in err and "[-1, 1] m" in err
    assert "Traceback" not in err


def test_too_wide_packet_simulate_exits_3(config_path, tmp_path, capsys):
    rc = main([
        "simulate", str(config_path), "--set", "ensemble.decision_mode=bernoulli",
        "--set", "ensemble.dz0=300 um", "--csv", str(tmp_path / "atoms.csv"),
        "-o", str(tmp_path / "sim.json"),
    ])
    err = capsys.readouterr().err
    assert rc == 3
    assert "too wide" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command,override",
    [
        ("simulate", "ensemble.dz0=1e-320 m"),
        ("select", "ensemble.dz0=1e-320 m"),
        ("probability", "ensemble.dz0=1e-320 m"),
        ("select", "ensemble.dz0=1e-200 m"),
        ("probability", "ensemble.dz0=1e300 m"),
        ("select", "field.gradient=1e-300 T/m"),
    ],
)
def test_underflowing_inputs_exit_cleanly(config_path, tmp_path, capsys, command, override):
    argv = [command, str(config_path), "--set", override, "-o", str(tmp_path / "o")]
    if command == "simulate":
        argv += ["--csv", str(tmp_path / "atoms.csv")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (2, 3)
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# A gradient too weak to select a slice exits 3 on every command that
# resolves a pulse: at 1e-6 T/m the slice is 4.76 m wide, wider than the
# position range [-1, 1] m, and at 1e-20 T/m the transition is so flat that
# the resonance lands on the range's end.  At 1e-302 and 1e-310 T/m kappa
# underflows to 0 though the gradient is not zero.  At 1e-4 T/m the slice
# is 4.8 cm wide.
@pytest.mark.parametrize("command", ["select", "probability", "bands", "coils", "simulate"])
@pytest.mark.parametrize("gradient,code", [("1e-6", 3), ("1e-20", 3), ("1e-4", 0),
                                           ("1e-302", 3), ("1e-310", 3)])
def test_a_gradient_too_weak_to_select_exits_3(tmp_path, capsys, command, gradient, code):
    out = tmp_path / "o"
    argv = [command, str(CONFIGS / "rb87_10us.yaml"), "--set",
            f"field.gradient={gradient} T/m", "-o", str(out)]
    if command == "simulate":
        argv += ["--set", "ensemble.n=2000", "--csv", str(tmp_path / "atoms.csv")]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: the gradient is too weak to select") and err.count("\n") == 1
        assert not out.exists()
    else:
        assert err == "" and out.stat().st_size > 0


def test_a_pulse_tuned_to_the_range_end_keeps_its_slice(tmp_path):
    """A resonance on an end of [-1, 1] m from a pulse tuned there is not a weak gradient."""
    data = yaml.safe_load((CONFIGS / "rb87_10us.yaml").read_text())
    data["pulses"][1]["resonant_at"] = "1 m"
    path, out = tmp_path / "edge.yaml", tmp_path / "select.json"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    assert main(["select", str(path), "-o", str(out)]) == 0
    second = json.loads(out.read_text())["result"]["pulses"][1]
    assert second["z_center_m"] == 1.0 and second["position_width_m"] < 1e-4


# exit 2, out of range: a turns count past float's range, a coil geometry whose
# eta0*z underflows or whose r^2 overflows, a current that overflows the
# gradient, a lever arm that sends the gradient budget to inf and, in the last
# two cases, a subnormal current, whose gradient would lose digits; exit 3, in
# range but without a gradient: a zero current
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "overrides,code",
    [
        (["apparatus.turns=1" + "0" * 400], 2),
        (['apparatus.half_separation="1e-200 m"'], 2),
        (['apparatus.radius="1e200 m"'], 2),
        (['apparatus.current="1e308 A"'], 2),
        (['apparatus.displacement="1e-320 m"'], 2),
        (['apparatus.radius="10 m"', 'apparatus.half_separation="1 um"',
          "apparatus.turns=1000000", 'apparatus.current="0 A"'], 3),
        (['apparatus.current="1e-310 A"'], 2),
        (['apparatus.radius="10 m"', 'apparatus.half_separation="1 um"',
          "apparatus.turns=1000000", 'apparatus.current="1e-310 A"'], 2),
    ],
)
def test_degenerate_coils_exit_cleanly(tmp_path, capsys, overrides, code):
    argv = ["coils", str(CONFIGS / "rb87_10us.yaml"), "-o", str(tmp_path / "o")]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "overrides",
    [
        ['apparatus.radius="1 um"', 'apparatus.half_separation="10 m"',
         "apparatus.turns=1", 'apparatus.current="-1000000 A"',
         'apparatus.displacement="1 um"'],
        ['apparatus.radius="10 m"', 'apparatus.half_separation="1 um"',
         "apparatus.turns=1000000", 'apparatus.current="1000000 A"',
         'apparatus.displacement="10 m"'],
        ['apparatus.radius="1 um"', 'apparatus.half_separation="10 m"',
         "apparatus.turns=1", 'apparatus.current="1e-6 A"'],
        ['apparatus.radius="10 m"', 'apparatus.half_separation="1 um"',
         "apparatus.turns=1", 'apparatus.current="-1e-6 A"'],
    ],
)
def test_coil_bounds_are_inclusive(tmp_path, overrides):
    argv = ["coils", str(CONFIGS / "rb87_10us.yaml"), "-o", str(tmp_path / "o")]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 0
    result = _load_json(tmp_path / "o")["result"]
    assert None not in result.values()
    assert all(np.isfinite(v) for v in result.values() if isinstance(v, float))


_COMMAND_NAMES = ["scan", "select", "probability", "bands", "simulate", "coils"]


def _argv(command, config, tmp_path, *overrides):
    argv = [command, str(config), "-o", str(tmp_path / "out")]
    if command == "simulate":
        argv += ["--set", "ensemble.n=2000", "--csv", str(tmp_path / "atoms.csv")]
    for item in overrides:
        argv += ["--set", item]
    return argv


# far outside [1 ns, 1 s] and [5, 40], 4*omega0^2 overflows or the Gaussian
# weight underflows, and a run would report no survivors or no probability
@pytest.mark.parametrize(
    "command,override",
    [
        ("simulate", 'pulses.0.tau="1e-300 s"'),
        ("probability", 'pulses.0.tau="1e-300 s"'),
        ("simulate", 'pulses.0.tau="1e300 s"'),
        ("probability", 'pulses.0.tau="1e300 s"'),
        ("simulate", "quadrature.window_sigmas=1e308"),
        ("probability", "quadrature.window_sigmas=1e308"),
        ("select", 'pulses.1.tau="0.999 ns"'),
        ("select", 'pulses.1.tau="1.001 s"'),
        ("select", 'pulses.1.tau="0 s"'),
        ("probability", "quadrature.window_sigmas=40.01"),
    ],
)
def test_out_of_range_tau_and_window_exit_2(tmp_path, capsys, command, override):
    rc = main(_argv(command, CONFIGS / "rb87_10us.yaml", tmp_path, override))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "override",
    ['pulses.0.tau="1 ns"', 'pulses.1.tau="1 s"', "quadrature.window_sigmas=40"],
)
def test_tau_and_window_bounds_are_inclusive(tmp_path, override):
    argv = _argv("simulate", CONFIGS / "rb87_10us.yaml", tmp_path, override)
    # a 1 s pulse is resolved only by a finer rule than the 201-node one
    assert main(argv) in (0, 3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize(
    "config", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name
)
@pytest.mark.parametrize("command", _COMMAND_NAMES)
def test_shipped_configs_run_warning_free(tmp_path, command, config, sigma):
    assert main(_argv(command, config, tmp_path, f"sigma={sigma}")) == 0


@pytest.mark.parametrize("t0", ["0 s", "-1 ms"])
@pytest.mark.parametrize("command", _COMMAND_NAMES)
def test_second_pulse_not_after_first_exits_2(tmp_path, capsys, command, t0):
    data = yaml.safe_load((CONFIGS / "rb87_10us.yaml").read_text())
    data["pulses"][1]["t0"] = t0
    path = tmp_path / "order.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    assert main(_argv(command, path, tmp_path)) == 2
    assert capsys.readouterr().err == (
        "error: pulses must be listed in increasing t0 order\n"
    )


# a run is one pulse or a pulse pair: a third pulse, here earlier than the
# second, is rejected before any command runs or any output is opened
@pytest.mark.parametrize("command", _COMMAND_NAMES)
def test_three_pulses_exit_2(tmp_path, capsys, command):
    data = yaml.safe_load((CONFIGS / "rb87_10us.yaml").read_text())
    data["pulses"].append({**data["pulses"][0], "t0": "5 ms"})
    path = tmp_path / "three.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    assert main(_argv(command, path, tmp_path)) == 2
    assert capsys.readouterr().err == (
        "error: a run has one pulse or a pulse pair, not 3\n"
    )
    assert not (tmp_path / "out").exists() and not (tmp_path / "atoms.csv").exists()


# each bound lives in the dataclass it guards; the config reaches every one
# of them, whether the section is built at load or the pulse at command time
@pytest.mark.parametrize(
    "overrides,needle",
    [
        (['pulses.0.tau="1e-300 s"'], "pulses[0]: tau = 1e-300 s is outside [1 ns"),
        (['pulses.1.tau="1.001 s"'], "pulses[1]: tau = 1.001 s is outside [1 ns"),
        (["pulses.0.resonant_at=null", "pulses.0.omega=0 rad/s"],
         "pulses[0]: omega_A must be positive"),
        (['pulses.1.resonant_at="2 m"'], "pulses[1]: resonant_at = 2.0 m is outside"),
        (["ensemble.n=10000001"], "ensemble: n must be at most 10000000"),
        (["scan.points=10000001"], "scan.points must be at most 10000000"),
        (['pulses.1.t0="1e300 s"'],
         "pulses[1]: t0 = 1e+300 s is outside [-1000 s, 1000 s]"),
        (['pulses.0.t0="-1e308 s"', 'pulses.1.t0="1e308 s"'],
         "pulses[0]: t0 = -1e+308 s is outside [-1000 s, 1000 s]"),
        (['pulses.0.t0="-1000.001 s"'], "pulses[0]: t0 = -1000.001 s is outside"),
        (['pulses.1.t0="1000.001 s"'], "pulses[1]: t0 = 1000.001 s is outside"),
    ],
    ids=["tau-low", "tau-high", "omega", "resonant_at", "n", "points",
         "t0-huge", "t0-gap-overflow", "t0-low", "t0-high"],
)
@pytest.mark.parametrize("command", _COMMAND_NAMES)
def test_moved_bounds_exit_2_on_every_subcommand(
    tmp_path, capsys, command, overrides, needle
):
    argv = _argv(command, CONFIGS / "rb87_10us.yaml", tmp_path, *overrides)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {needle}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# a pulse 1000 s from the other spreads the packet to 0.12 m, too wide for the
# rule on the probability command; every other command runs
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("override", ['pulses.0.t0="-1000 s"', 'pulses.1.t0="1000 s"'])
@pytest.mark.parametrize("command", _COMMAND_NAMES)
def test_t0_bounds_are_inclusive(tmp_path, command, override):
    argv = _argv(command, CONFIGS / "rb87_10us.yaml", tmp_path, override)
    assert main(argv) == (3 if command == "probability" else 0)


# the pulses' t0 gap is the only delta_t, so a config that still sets one,
# even to that gap, is rejected like any unknown key
@pytest.mark.parametrize("value", ['"28 ms"', '"10 ms"'])
@pytest.mark.parametrize("command", _COMMAND_NAMES)
def test_delta_t_key_exits_2(tmp_path, capsys, command, value):
    argv = _argv(command, CONFIGS / "rb87_10us.yaml", tmp_path, f"delta_t={value}")
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: config: unknown keys 'delta_t'\n"
    assert not (tmp_path / "out").exists()


# -o and --csv are the only output paths: a config that still names one is
# rejected like any unknown key, and simulate without --csv names only --csv
@pytest.mark.parametrize("override", ["output.csv=a.csv", "output.json=s.json"])
@pytest.mark.parametrize("command", _COMMAND_NAMES)
def test_output_section_exits_2(tmp_path, capsys, command, override):
    argv = _argv(command, CONFIGS / "rb87_10us.yaml", tmp_path, override)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: config: unknown keys 'output'\n"
    assert not (tmp_path / "out").exists()


def test_simulate_without_csv_exits_2(tmp_path, capsys):
    argv = ["simulate", str(CONFIGS / "rb87_10us.yaml"), "-o", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: simulate needs a per-atom CSV path (--csv)\n"
    assert not (tmp_path / "out").exists()


def test_missing_sections_exit_2(tmp_path, capsys):
    data = {"species": "Rb87", "field": {"gradient": "25 G/cm"}}
    p = tmp_path / "min.yaml"
    p.write_text(yaml.safe_dump(data))
    assert main(["scan", str(p)]) == 2
    assert main(["select", str(p)]) == 2
    assert main(["bands", str(p)]) == 2
    assert main(["coils", str(p)]) == 2
    err = capsys.readouterr().err
    assert "scan" in err and "apparatus" in err


@pytest.mark.parametrize("command", ["scan", "select", "probability", "bands", "coils"])
def test_csv_is_simulate_only(config_path, tmp_path, capsys, command):
    out, csv = tmp_path / "out", tmp_path / "atoms.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, str(config_path), "-o", str(out), "--csv", str(csv)])
    assert exc.value.code == 2
    assert "--csv" in capsys.readouterr().err
    assert not out.exists() and not csv.exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["scan", str(tmp_path / "absent.yaml")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_unreachable_frequency_exits_3(config_path, tmp_path, capsys):
    rc = main([
        "select", str(config_path), "-o", str(tmp_path / "o.json"),
        "--set", "pulses.0.omega=1 GHz",
        "--set", "pulses.0.resonant_at=null",
    ])
    assert rc == 3
    assert "transition range" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mwselect", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for name in ("scan", "select", "probability", "bands", "simulate", "coils"):
        assert name in proc.stdout


def test_configs_read_the_same_under_an_ascii_locale(tmp_path):
    """A C locale without UTF-8 mode decodes nothing: YAML's own decoding applies."""
    text = CONFIGS.joinpath("rb87_10us.yaml").read_text(encoding="utf-8")
    assert '"3 um"' in text
    micro = tmp_path / "micro.yaml"
    micro.write_text(text.replace('"3 um"', '"3 µm"'), encoding="utf-8")
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"species: Rb87\n\xff\n")
    env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(CONFIGS.parent / "src"), os.environ.get("PYTHONPATH")]))
    outputs = {}
    for mode in ("0", "1"):
        out = tmp_path / f"utf8_{mode}.json"
        proc = subprocess.run(
            [sys.executable, "-X", f"utf8={mode}", "-m", "mwselect", "select", str(micro),
             "-o", str(out)], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs[mode] = out.read_bytes()
    assert main(["select", str(CONFIGS / "rb87_10us.yaml"), "-o", str(tmp_path / "um.json")]) == 0
    assert outputs["0"] == outputs["1"] == (tmp_path / "um.json").read_bytes()
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "mwselect", "select", str(bad)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: invalid YAML in ")
    assert "Traceback" not in proc.stderr


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def _leaf_paths(node, prefix=""):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [prefix[:-1]]
    return [p for k, v in items for p in _leaf_paths(v, f"{prefix}{k}.")]


_SHIPPED = CONFIGS / "rb87_10us.yaml"
# the benchmark clouds, as --set overrides of the shipped config
_CLOUDS = {"thermal": [], "matched": ['ensemble.z_rms="20 um"', 'ensemble.v_rms="2 mm/s"']}


def _shipped_result(sets: list[str]):
    """The Monte Carlo result `simulate` computes for the shipped config and sets."""
    from mwselect.phase_space import run_monte_carlo

    run = cf.load_config(_SHIPPED, sets)
    field = cf.to_field_config(run)
    first, second = cf.to_pulses(run, field)
    return run_monte_carlo(cf.to_ensemble_spec(run), first, second, field,
                           window_sigmas=run.quadrature.window_sigmas)


# keys that older configs still carry: every command must reject them with exit 2
_RETIRED = ["delta_t", "ensemble.probability_mode", "ensemble.survival_efficiency",
            "quadrature.max_subdivisions", "quadrature.rel_tol", "output.csv", "output.json"]
_SECTIONS = ["field", "pulses", "ensemble", "scan", "apparatus", "quadrature"]
_LEAVES = _leaf_paths(yaml.safe_load(_SHIPPED.read_text())) + _RETIRED + _SECTIONS
_ALL_UNITS = sorted({u for table in cf._UNITS.values() for u in table})
_OVERRIDE_VALUES = st.one_of(
    st.builds(
        "{} {}".format,
        st.one_of(st.floats(), st.sampled_from(["nan", "inf", "-inf"])),
        st.sampled_from(_ALL_UNITS),
    ),
    # capped so that scan.points or ensemble.n cannot allocate gigabytes;
    # this limits resources and hides no defect
    st.integers(-10, 10_000).map(str),
    st.text(max_size=20),
    st.sampled_from(["true", "false", "null"]),
)


@pytest.mark.parametrize("path", _LEAVES)
@settings(max_examples=3, deadline=None)
@given(value=_OVERRIDE_VALUES)
# magnitudes whose products overflow: a bound must reject them on every run
@example(value="1e300 m")
@example(value="1e300 T")
@example(value="1e300 T/m")
@example(value="1e300 m/s")
def test_any_single_override_exits_cleanly(tmp_path_factory, path, value):
    base = tmp_path_factory.getbasetemp()
    # simulate runs 2000 atoms unless the override sets ensemble.n itself
    simulate = ["--set", "ensemble.n=2000", "--csv", str(base / "fuzz.csv")]
    for command in ("scan", "select", "probability", "bands", "coils", "simulate"):
        argv = [command, str(_SHIPPED), *(simulate if command == "simulate" else []),
                "--set", f"{path}={value}", "-o", str(base / "fuzz.out")]
        with contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        assert rc == 2 if path in _RETIRED else rc in (0, 2, 3)


@pytest.mark.parametrize(
    "value,type_name",
    [("5", "int"), ("0", "int"), ("true", "bool"), ("false", "bool"), ("abc", "str"),
     ("2.5", "float"), ("{tau: 1 us}", "dict")],
)
def test_non_list_pulses_exit_2(tmp_path, capsys, value, type_name):
    argv = ["select", str(_SHIPPED), "--set", f"pulses={value}",
            "-o", str(tmp_path / "out.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: pulses: expected a list, got {type_name}\n"


# every key a section must carry, under the name its errors give the section
_REQUIRED_KEYS = {
    "config": ["species", "field"],
    "field": ["gradient"],
    "pulses[0]": ["tau", "t0"],
    "pulses[1]": ["tau", "t0"],
    "ensemble": ["n", "z_rms", "v_rms", "dz0", "seed"],
    "scan": ["z_min", "z_max", "points"],
    "apparatus": ["radius", "current", "half_separation"],
}


@pytest.mark.parametrize(
    "section,key", [(s, k) for s, keys in _REQUIRED_KEYS.items() for k in keys]
)
def test_missing_required_key_exits_2(tmp_path, capsys, section, key):
    data = yaml.safe_load(_SHIPPED.read_text())
    name, _, index = section.rstrip("]").partition("[")
    node = data if section == "config" else data[name]
    if index:
        node = node[int(index)]
    del node[key]
    path = tmp_path / "missing.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    assert main(["select", str(path), "-o", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == f"error: {section}: missing required key {key!r}\n"


def test_assert_same_names_the_first_difference():
    assert_same(b"a,b\n1,2\n", b"a,b\n1,2\n")
    with pytest.raises(AssertionError, match=r"offset 6 \(line 2, column 3\) of 8 got and 8"):
        assert_same(b"a,b\n1,3\n", b"a,b\n1,2\n")
    with pytest.raises(AssertionError, match=r"offset 3 \(line 1, column 4\) of 3 got and 4"):
        assert_same("abc", "abcd")
    with pytest.raises(AssertionError, match="got a str, want a bytes"):
        assert_same("abc", b"abc")


def _rowwise_csv(header, rows) -> str:
    """Reference CSV text: every cell through cli._format_cell, row by row."""
    from mwselect import cli

    lines = [",".join(header)]
    lines += [",".join(cli._format_cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


_SIMULATION_HEADER = ["atom_index", "z0_m", "v0_m_s", "survived_first", "survived_both",
                      "z_final_m", "v_final_m_s"]


def _rowwise_simulation_csv(result) -> bytes:
    rows = zip(range(result.n_total), result.z0, result.v0, result.survived_first,
               result.survived_both, result.z_final, result.v_final)
    return _rowwise_csv(_SIMULATION_HEADER, rows).encode()


def _sparse_result(rng):
    """A result whose z_final and v_final are NaN but in a few rows.

    At 4096-row blocks the first block has no finite row, the second one
    (z_final alone), the third two, its first and last rows, with zeros,
    subnormals and 1e300 among them, and the fifth and sixth about 40
    each, one of them finite in v_final too.
    """
    from types import SimpleNamespace

    n = 24_576 + 13
    z_final, v_final = np.full(n, np.nan), np.full(n, np.nan)
    z_final[5000] = 1.5e-3
    z_final[[8192, 12287]] = (-0.0, 1e300)
    v_final[[8192, 12287]] = (5e-324, -2.5e-320)
    many = np.sort(rng.choice(np.arange(16384, 24576), 80, replace=False))
    z_final[many] = rng.standard_normal(80) * 1e-3
    v_final[many[17]] = -7.25e-5
    z_final[-1] = 0.25
    first = rng.random(n) < 0.5
    return SimpleNamespace(
        n_total=n, z0=rng.standard_normal(n) * 1e-3, v0=0.7 + rng.standard_normal(n) * 1e-2,
        survived_first=first, survived_both=first & ~np.isnan(z_final),
        z_final=z_final, v_final=v_final,
    )


def _limit_result(rng):
    """A result whose z_final and v_final sit at the narrow limit.

    With L = 4096 // _SPARSE: in rows 0-4095 z_final is finite in L rows,
    among them the first and the last, and v_final in L rows, one of them
    its own; in rows 4096-8191 z_final is finite in L + 1 rows and v_final
    in L of them.  Rows 8192-12287 are all NaN and the 13 after them finite
    once, in z_final.  So at 4096-row blocks the first block is narrow in
    both columns and the second in v_final alone; at 8192-row blocks the
    first is narrow in v_final alone, 2L finite, with z_final one over.
    """
    from types import SimpleNamespace

    from mwselect import cli

    limit = 4096 // cli._SPARSE
    n = 3 * 4096 + 13
    z_final, v_final = np.full(n, np.nan), np.full(n, np.nan)
    picks = rng.choice(np.arange(1, 4095), limit - 1, replace=False)
    z_rows = np.r_[0, 4095, picks[:-1]]
    z_final[z_rows] = rng.standard_normal(limit) * 1e-3
    z_final[z_rows[:4]] = (-0.0, 5e-324, 1e300, np.inf)
    v_final[np.r_[4095, picks]] = rng.standard_normal(limit) * 1e-2
    second = 4096 + rng.choice(4096, limit + 1, replace=False)
    z_final[second] = rng.standard_normal(limit + 1) * 1e-3
    v_final[second[1:]] = -rng.random(limit)
    z_final[n - 5] = 0.125
    both = ~np.isnan(z_final)
    return SimpleNamespace(
        n_total=n, z0=rng.standard_normal(n) * 1e-3, v0=0.7 + rng.standard_normal(n) * 1e-2,
        survived_first=both | (rng.random(n) < 0.1), survived_both=both,
        z_final=z_final, v_final=v_final,
    )


def _kind_rows(columns) -> list[int]:
    """The first row of each kind of cell in each column.

    A float's kind is its sign and its class: NaN, infinite, zero,
    subnormal, |x| >= 1e17, |x| < 1e-29, or else whether _mantissas formats
    it or leaves it to _format_cell.  A bool's kind is its value, an
    integer's its number of digits.
    """
    from mwselect import cli

    rows = set()
    for col in map(np.asarray, columns):
        if col.dtype.kind == "f":
            a, finite = np.abs(col), np.isfinite(col)
            ok = np.zeros(len(col), bool)
            ok[finite] = cli._mantissas(col[finite])[0]
            with np.errstate(invalid="ignore"):
                classes = [np.isnan(col), np.isinf(col), a == 0.0,
                           a < np.finfo(float).tiny, a >= 1e17, a < 1e-29, ok]
            kind = 2 * np.select(classes, range(len(classes)), len(classes)) + np.signbit(col)
        else:
            kind = col if col.dtype.kind == "b" else np.char.str_len(col.astype(str))
        rows.update(np.unique(kind, return_index=True)[1].tolist())
    return sorted(rows)


def test_simulation_csv_matches_cell_by_cell_formatting(monkeypatch):
    """The block-wise writer gives the bytes of the row-wise reference.

    At 4096-row blocks z_final and v_final are mixed in the first block,
    all finite in the second and all NaN in the third; at the default
    block size the all-NaN rows follow a mixed block.  atom_index goes
    from 9 to 10, 99 to 100 and 9999 to 10000 inside a block.  A second
    result is sparse in z_final and v_final (see _sparse_result), and a
    third sits at the narrow limit (see _limit_result).  At one row a
    block, cli._csv writes a subset of each result's rows: the first of
    each kind of cell in each column (_kind_rows) and those around each
    step of atom_index to one more digit, which then cross block
    boundaries.  The subset goes through the kernels however few its cells.
    """
    from types import SimpleNamespace

    from mwselect import cli

    n = 10_050
    rng = np.random.default_rng(4)
    # mostly the fast range, with zeros, subnormals, huge values and ties
    # that go cell by cell
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-14, 18, n)
    extreme = rng.random(n) < 0.02
    values[extreme] *= 10.0 ** rng.integers(-300, 280, extreme.sum())
    values[:5] = (-0.0, 0.0, 1e-300, 5e-324, -2.5e-320)
    values[5000:5000 + len(_LONG_DOUBLE_TIES)] = _LONG_DOUBLE_TIES
    first = rng.random(n) < 0.7
    both = first & (rng.random(n) < 0.6)
    both[4096:8192] = first[4096:8192] = True
    both[8192:] = False
    result = SimpleNamespace(
        n_total=n, z0=values, v0=values[::-1].copy(),
        survived_first=first, survived_both=both,
        z_final=np.where(both, values * 0.5, np.nan),
        v_final=np.where(both, -values, np.nan),
    )
    default = cli._CSV_BLOCK
    for result in (result, _sparse_result(rng), _limit_result(rng)):
        want = _rowwise_simulation_csv(result)
        for block in (default, 4096, 7):
            monkeypatch.setattr(cli, "_CSV_BLOCK", block)
            assert_same(cli.simulation_csv(result), want)
        columns = [np.arange(result.n_total), result.z0, result.v0, result.survived_first,
                   result.survived_both, result.z_final, result.v_final]
        steps = [i for i in (9, 10, 99, 100, 999, 1000, 9999, 10000) if i < result.n_total]
        rows = sorted({*_kind_rows(columns), *steps})
        subset = [col[rows] for col in columns]
        monkeypatch.setattr(cli, "_CSV_BLOCK", 1)
        monkeypatch.setattr(cli, "_FEW_CELLS", 0)
        assert_same(b"".join(cli._csv(_SIMULATION_HEADER, subset)),
                    _rowwise_csv(_SIMULATION_HEADER, zip(*subset)).encode())


# block size, and the cells of _limit_result's narrow columns spliced at it:
# limits * L + extra
@pytest.mark.parametrize("block,limits,extra", [(4096, 3, 0), (8192, 2, 1), (7, 0, 0), (1, 0, 0)])
def test_a_sparse_block_splices_its_cells_up_to_the_limit(monkeypatch, block, limits, extra):
    """A block yields one piece, and two more for each cell spliced in.

    That is each finite cell of a narrow column and each cell that
    _mantissas leaves out.  z_final's -0.0, 5e-324, 1e300 and inf lie in a
    narrow column at 4096-row blocks and in a wide one at every other size,
    where they are spliced all the same.
    """
    from types import SimpleNamespace

    from mwselect import cli

    monkeypatch.setattr(cli, "_CSV_BLOCK", block)
    result = _limit_result(np.random.default_rng(6))
    if block == 1:
        # one row a block: the first row of each kind of cell in each column,
        # among them z_final's four slow cells
        columns = {"z0": result.z0, "v0": result.v0, "survived_first": result.survived_first,
                   "survived_both": result.survived_both, "z_final": result.z_final,
                   "v_final": result.v_final}
        rows = _kind_rows([np.arange(result.n_total), *columns.values()])
        result = SimpleNamespace(n_total=len(rows),
                                 **{name: col[rows] for name, col in columns.items()})
        monkeypatch.setattr(cli, "_FEW_CELLS", 0)  # through the kernels however few
    pieces = list(cli._simulation_blocks(result))
    blocks = -(-result.n_total // block)
    slow = 0 if block == 4096 else 4
    spliced = limits * (4096 // cli._SPARSE) + extra + slow
    assert len(pieces) == 2 + blocks + 2 * spliced
    assert_same(b"".join(pieces), _rowwise_simulation_csv(result))


def test_a_text_cell_holding_the_mark_byte_is_spliced_whole(monkeypatch):
    """Every text cell is spliced in at a mark, beside narrow and wide columns.

    The mark search runs over the block before any text goes in, so
    "a\x01b" is written whole.  In one 300-row block "x" is narrow (two
    finite rows) and "wide" is NaN in every third row, with a 24-character
    cell: each of the 300 texts, x's two finite cells and that one cell
    are spliced.
    """
    from mwselect import cli

    n = 300
    names = ["t"] * n
    names[2] = "a\x01b"
    x, wide, nans = np.full(n, np.nan), np.linspace(-1.0, 1.0, n), np.full(n, np.nan)
    x[[0, 150]] = (1.5, -2.0)
    wide[::3] = np.nan
    wide[4] = -1e300
    assert 2 * cli._SPARSE <= n and len(cli._format_cell(-1e300)) == 24
    header = ["name", "x", "wide", "all_nan"]
    want = _rowwise_csv(header, zip(names, x, wide, nans))
    for block in (cli._CSV_BLOCK, 4096, 7, 1):
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        pieces = list(cli._csv(header, [names, x, wide, nans]))
        assert_same(b"".join(pieces).decode(), want)
        if block >= n:
            assert len(pieces) == 3 + 2 * (n + 2 + 1)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("cloud", _CLOUDS.values(), ids=_CLOUDS.keys())
def test_benchmark_final_columns_take_their_paths(monkeypatch, cloud, seed):
    """At 50k atoms the thermal cloud's final columns are narrow, the matched cloud's wide.

    A narrow column never reaches a kernel call; a wide one does, with six
    words a row.  z0 and v0 have no NaN, and the final columns are NaN for
    every atom lost.
    """
    from mwselect import cli

    result = _shipped_result(["ensemble.n=50000", f"ensemble.seed={seed}", *cloud])
    want = cli.simulation_csv(result)
    finals = []
    kernel_call = cli._kernel_call

    def spy(columns):
        cells = kernel_call(columns)
        finals.extend(cell[0] for c, cell in zip(columns, cells) if c.finite is not None)
        return cells

    monkeypatch.setattr(cli, "_kernel_call", spy)
    assert b"".join(cli._simulation_blocks(result)) == want
    assert result.n_survived_both > 0
    blocks = -(-result.n_total // cli._CSV_BLOCK)
    assert finals == ([] if cloud == _CLOUDS["thermal"] else [cli._FLOAT_WORDS] * 2 * blocks)


def _kernel_calls(monkeypatch) -> list[list[int]]:
    """Per block written from now on, the cells of each _mantissas call."""
    from mwselect import cli

    calls = []
    lines, mantissas = cli._lines, cli._mantissas
    monkeypatch.setattr(cli, "_lines", lambda columns: calls.append([]) or lines(columns))
    monkeypatch.setattr(cli, "_mantissas", lambda x: calls[-1].append(len(x)) or mantissas(x))
    return calls


def test_a_short_table_formats_its_floats_in_one_call(monkeypatch, tmp_path):
    """bands' 48 cells make no kernel call; scan's six float columns and a
    2k simulate's share one."""
    calls = _kernel_calls(monkeypatch)
    assert main(["bands", str(_SHIPPED), "-o", str(tmp_path / "bands.csv")]) == 0
    assert calls == []
    assert main(["scan", str(_SHIPPED), "-o", str(tmp_path / "scan.csv")]) == 0
    assert calls == [[6 * 201]]
    for cloud in _CLOUDS.values():
        del calls[:]
        argv = ["simulate", str(_SHIPPED), "--set", "ensemble.n=2000", "--csv",
                str(tmp_path / "atoms.csv"), "-o", str(tmp_path / "sim.json")]
        for item in cloud:
            argv += ["--set", item]
        assert main(argv) == 0
        assert len(calls) == 1 and len(calls[0]) == 1 and calls[0][0] >= 4000


def _every_kind_table(cells: int) -> list:
    """Columns of exactly `cells` cells in all, holding every kind of cell.

    Column j is of kind j % 5: float64 (NaN, -0.0, 5e-324, 1e300, +-inf
    and two in the fast range), int64 (2**32 - 1, then 2**32 and above,
    and 7), np.bool_, np.float32, and text, one text holding _MARK.  Each
    column starts j // 5 values into its pool and cycles through it.  The
    table has the fewest columns, at least five, that divide `cells`.
    """
    from mwselect import cli

    pools = [
        np.array([np.nan, -0.0, 5e-324, 1e300, np.inf, -np.inf, 0.1, -2.5e-3]),
        np.array([2**32 - 1, 2**32, 2**63 - 1, 7, 2**40], dtype=np.int64),
        np.array([True, False]),
        np.array([0.1, -np.inf, 1e-40, np.nan, 3.0], dtype=np.float32),
        ["a" + cli._MARK.decode() + "b", "cell", ""],
    ]
    width = next(w for w in range(5, cells + 1) if cells % w == 0)
    rows = np.arange(cells // width)
    columns = []
    for j in range(width):
        pool = pools[j % 5]
        picks = (j // 5 + rows) % len(pool)
        columns.append([pool[i] for i in picks] if isinstance(pool, list) else pool[picks])
    return columns


def test_a_table_of_few_cells_is_written_cell_by_cell(monkeypatch):
    """A table of _FEW_CELLS cells comes in one chunk, without _lines; one
    more cell sends it through _lines.  Both give the row-wise bytes."""
    from mwselect import cli

    seen, lines = [], cli._lines
    monkeypatch.setattr(cli, "_lines", lambda columns: seen.append(columns) or lines(columns))
    for cells in (cli._FEW_CELLS, cli._FEW_CELLS + 1):
        columns = _every_kind_table(cells)
        assert sum(map(len, columns)) == cells
        header = [f"c{j}" for j in range(len(columns))]
        del seen[:]
        pieces = list(cli._csv(header, columns))
        assert_same(b"".join(pieces).decode(), _rowwise_csv(header, zip(*columns)))
        if cells == cli._FEW_CELLS:
            assert seen == [] and len(pieces) == 1
        else:
            assert len(seen) == 1


def test_scan_splices_exactly_its_three_zero_cells(monkeypatch):
    """scan's one kernel call leaves out z_m's, kz's and detuning's 0.0 alone.

    They are spliced into its one block, which comes as four views of it
    between the header and the final newline.
    """
    from mwselect import cli

    run = cf.load_config(str(_SHIPPED), [])
    field = cf.to_field_config(run)
    calls = _kernel_calls(monkeypatch)
    pieces = list(cli.cmd_scan(run, field, cf.to_pulses(run, field), None))
    assert calls == [[6 * 201]]
    assert len(pieces) == 9
    assert pieces[2:-2:2] == [b"0.0000000000000000e+00"] * 3
    rows = b"".join(pieces).decode().split("\n")[101].split(",")
    assert [rows[i] for i in (0, 1, 5)] == ["0.0000000000000000e+00"] * 3


@pytest.mark.parametrize("cloud", _CLOUDS.values(), ids=_CLOUDS.keys())
def test_a_full_block_gives_each_dense_column_its_own_call(monkeypatch, cloud):
    """At 50k a full block's z0 and v0 fill a call each, never gathered.

    The thermal cloud's final columns are narrow, so its full blocks make
    two calls; the matched cloud's share a third.  The last block's
    columns share one call.
    """
    from mwselect import cli

    result = _shipped_result(["ensemble.n=50000", *cloud])
    want = cli.simulation_csv(result)
    calls = _kernel_calls(monkeypatch)
    assert b"".join(cli._simulation_blocks(result)) == want
    full = result.n_total // cli._CSV_BLOCK
    assert len(calls) == full + 1 and len(calls[-1]) == 1
    dense = [cli._CSV_BLOCK] * 2
    for call in calls[:full]:
        if cloud == _CLOUDS["thermal"]:
            assert call == dense
        else:
            assert call[:2] == dense and len(call) <= 3


def _mixed_table(rng, n):
    """Four float columns and an integer one (see the test below)."""
    ties = np.array(_LONG_DOUBLE_TIES)
    slow = rng.standard_normal(n) * 10.0 ** rng.integers(-14, 18, n)
    odd = rng.random(n) < 0.02
    slow[odd] = rng.choice([5e-324, 1e300, -0.0, -1e300, -2.5e-320, 0.0], odd.sum())
    slow[n - len(ties):] = ties
    wide = np.full(n, np.nan)
    some = rng.random(n) < 0.1
    wide[some] = rng.standard_normal(some.sum()) * 1e-3
    wide[np.flatnonzero(some)[::9]] = -1e300
    dense = 0.7 + rng.standard_normal(n) * 1e-2
    return {"slow": slow, "index": np.arange(n), "wide": wide,
            "all_nan": np.full(n, np.nan), "dense": dense}


@pytest.mark.parametrize("block", [1, 7, 4096, None])
def test_csv_of_shared_calls_matches_row_by_row_formatting(monkeypatch, block):
    """_csv gives the bytes of the row-wise reference wherever its calls fall.

    The first column leads each row with "\n" and has slow-path cells
    (5e-324, 1e300, -0.0, 24-character texts, long-double ties) among
    dense ones, each spliced in at a mark; "wide" is NaN in about nine rows
    of ten, so it stays wide, with 24-character cells among its finite
    ones.  At 4096 and the default block size the last, short block's
    columns share one call; at 1 and 7 rows a dense column fills a call.
    At one row a block the table is cut to the first row of each kind of
    cell in each column (_kind_rows), which keeps index's steps to one
    more digit, and still goes through the kernels.
    """
    from mwselect import cli

    if block is not None:
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
    table = _mixed_table(np.random.default_rng(8), 10_050)
    if block == 1:
        rows = _kind_rows(table.values())
        table = {name: col[rows] for name, col in table.items()}
        monkeypatch.setattr(cli, "_FEW_CELLS", 0)  # through the kernels however few
    want = _rowwise_csv(list(table), zip(*table.values()))
    assert_same(b"".join(cli._csv(list(table), list(table.values()))).decode(), want)


def test_a_sparse_csv_to_stdout_is_simulation_csv(capsys):
    from mwselect import cli

    result = _sparse_result(np.random.default_rng(5))
    cli._emit([(cli._simulation_blocks(result), None)])
    assert capsys.readouterr().out == cli.simulation_csv(result).decode()


@pytest.mark.parametrize("value,text", [
    (0.1, "1.0000000000000001e-01"),
    (-0.0, "-0.0000000000000000e+00"),
    (float("nan"), "nan"),
    (np.float64(5e-324), "4.9406564584124654e-324"),
    (np.float64(-1e300), "-1.0000000000000001e+300"),
    (np.float32(0.1), "1.0000000149011612e-01"),
    (True, "1"),
    (np.bool_(False), "0"),
    (7, "7"),
    (np.int64(-2**63), "-9223372036854775808"),
    ("a,b", "a,b"),
])
def test_format_cell_texts(value, text):
    """The reference every CSV test compares with, pinned by its literal texts."""
    from mwselect import cli

    assert cli._format_cell(value) == text


_INT_TOPS = [0, 1, 9, 10, 10**7, 2**32 - 1, 2**32, 10**19, 2**64 - 1]


@pytest.mark.parametrize("dtype,top", [
    (dtype, top)
    for dtype in (np.int64, np.uint64, np.int32, np.uint8, np.bool_)
    for top in _INT_TOPS
    if top <= (1 if dtype is np.bool_ else np.iinfo(dtype).max)
])
def test_integer_column_matches_format_cell(monkeypatch, dtype, top):
    """32-bit digits up to 2**32 - 1, cell by cell above, the same text either way."""
    from mwselect import cli

    used = []
    int_cells = cli._int_cells
    monkeypatch.setattr(cli, "_int_cells", lambda *a: used.append(1) or int_cells(*a))
    values = np.array(sorted({0, 1, top // 3, top - (top > 0), top}), dtype=dtype)
    assert _csv_cells(values) == [cli._format_cell(v) for v in values.tolist()]
    assert used == ([1] if top < 2**32 else [])


def _csv_cells(values) -> list[str]:
    """The cells the kernels write for one column of values, however few."""
    from mwselect import cli

    return b"".join(cli._lines([values])).decode().split("\n")[1:]


def _kernel_cells(values) -> list[str]:
    """What the "%.16e" kernel writes for each value."""
    return _csv_cells(np.asarray(values, dtype=np.float64))


def _reference_cells(values) -> list[str]:
    from mwselect import cli

    return [cli._format_cell(float(v)) for v in values]


# sign, 11-bit exponent and 52-bit mantissa drawn apart: a whole 64-bit
# integer is mostly small, a subnormal double, and never reaches the fast path
_BIT_PATTERNS = st.builds(
    lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
    st.integers(0, 1), st.integers(0, 2**11 - 1), st.integers(0, 2**52 - 1),
)


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(_BIT_PATTERNS, min_size=1, max_size=64))
def test_float_kernel_matches_format_cell_for_any_bit_pattern(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _kernel_cells(values) == _reference_cells(values)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(1e-30, 1e17) | st.floats(-1e17, -1e-30),
                       min_size=1, max_size=64))
def test_float_kernel_matches_format_cell_in_the_fast_range(values):
    assert _kernel_cells(values) == _reference_cells(values)


# Doubles whose long-double product |x| * 10**q lands exactly on a
# half-integer while the exact product does not: rounding that product
# would give the even neighbour, one unit off in the 17th digit.
_LONG_DOUBLE_TIES = [
    0.43042710632523073, 80604300759.26736, 41.98962885468695,
    4.749231150374778e-10, 16280065.250188, 967914518.5979359,
    8.503502347870858e-10, 7.123034373246319e-07,
]


def test_float_kernel_edge_values():
    decades = [10.0**j for j in range(-31, 18)]
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300,
             1e15 + 0.25, np.nan, -np.nan, np.inf, -np.inf, *_LONG_DOUBLE_TIES]
    for d in decades:
        edges += [d, -d, np.nextafter(d, 0.0), np.nextafter(d, np.inf)]
    assert _kernel_cells(edges) == _reference_cells(edges)
    assert _kernel_cells([1e15 + 0.25]) == ["1.0000000000000002e+15"]


def _near_ties(rng) -> list[float]:
    """Doubles nearest to (m + 1/2) * 10**(k - 16), and their neighbours.

    Random 17-digit m at every k from -31 to 17, and exact ties: for odd t
    with t * 5**j in [2e16, 2e17) and 2 <= j <= 24, t / 2**(j + 1) is
    (m + 1/2) * 10**-j with m = (t * 5**j - 1) / 2.
    """
    from fractions import Fraction

    ties = []
    for k in range(-31, 18):
        for m in rng.integers(10**16, 10**17, 8).tolist():
            ties.append(float(Fraction(2 * m + 1, 2) * Fraction(10) ** (k - 16)))
    for j in range(2, 25):
        for _ in range(4):
            t = int(rng.integers(2 * 10**16 // 5**j, 2 * 10**17 // 5**j)) | 1
            ties.append(t / 2.0 ** (j + 1))
    return [v for tie in ties for v in (np.nextafter(tie, -np.inf), tie, np.nextafter(tie, np.inf))]


def _is_tie(value: float) -> bool:
    """Whether value's exact decimal is 18 digits ending in 5, halfway between two 17-digit ones."""
    from decimal import Decimal

    digits = "".join(map(str, Decimal(value).as_tuple().digits)).rstrip("0")
    return len(digits) == 18 and digits[-1] == "5"


def test_float_kernel_matches_format_cell_next_to_ties():
    values = _near_ties(np.random.default_rng(22))
    values += [-v for v in values]
    assert sum(map(_is_tie, values)) >= 2 * 23 * 4
    assert _kernel_cells(values) == _reference_cells(values)


# Doubles x, found by a lattice search, whose exact product |x| * 10**q with
# q = 16 - floor(log10|x|) in [24, 29] lies within 1e-16 of a half-integer
# but not on it: for each q and binade x = m * 2**e, m = (2**(s-1) + d) /
# 5**q mod 2**s (s = -(e + q)) for every 0 < |d| <= 1e-16 * 2**s, kept where
# m has 53 bits.  From q = 23 the kernel's low term |x| * _POW_LO[q] is
# rounded, so these fractions can come out as exactly 1/2 or past it.
_NEAR_TIES_ROUNDED_LOW = [
    1.0076000255121024e-08, 4.95286445202696e-09, 4.974148370910348e-09,
    1.2568395420297045e-10, 2.460469286850939e-10, 4.974148370910348e-10,
    2.460469286850939e-11, 2.3233180180504022e-11, 2.1861667492498654e-11,
    6.83280278535067e-11, 1.1959468262253353e-12, 3.587840478676006e-12,
    6.83280278535067e-12, 4.440909132899999e-12, 1.1959468262253353e-13,
    3.587840478676006e-13,
]


def test_float_kernel_leaves_near_ties_of_the_rounded_low_term_to_format_cell():
    """Without the _TIE margin the kernel misrounds 9 of these 16 values."""
    from fractions import Fraction

    for x in _NEAR_TIES_ROUNDED_LOW:
        q = 16 - math.floor(math.log10(x))
        y = Fraction(x) * 10**q
        gap = abs(y - math.floor(y) - Fraction(1, 2))
        assert q >= 23 and 0 < gap <= Fraction(1, 10**16)
    values = _NEAR_TIES_ROUNDED_LOW + [-x for x in _NEAR_TIES_ROUNDED_LOW]
    assert _kernel_cells(values) == _reference_cells(values)


@pytest.mark.parametrize("cloud", _CLOUDS.values(), ids=_CLOUDS.keys())
def test_simulate_csv_is_the_same_without_the_fast_path(tmp_path, cloud):
    """simulate --csv writes the bytes of the row-wise _format_cell reference."""
    sets = ["ensemble.n=20000", "ensemble.seed=11", *cloud]
    argv = ["simulate", str(_SHIPPED), *[a for s in sets for a in ("--set", s)],
            "--csv", str(tmp_path / "atoms.csv"), "-o", str(tmp_path / "out.json")]
    assert main(argv) == 0
    want = _rowwise_simulation_csv(_shipped_result(sets))
    assert_same((tmp_path / "atoms.csv").read_bytes(), want)


@pytest.mark.parametrize("command,path", [("scan", "scan.points"),
                                          ("simulate", "ensemble.n")])
def test_sizes_above_the_limit_exit_2(tmp_path, capsys, command, path):
    argv = [command, str(_SHIPPED), "--set", f"{path}={10**30}",
            "--csv", str(tmp_path / "a.csv"), "-o", str(tmp_path / "out")]
    if command != "simulate":
        del argv[4:6]
    assert main(argv) == 2
    err = capsys.readouterr().err
    section, key = path.split(".")
    assert err.startswith(f"error: {section}") and err.count("\n") == 1
    assert f"{key} must be at most 10000000" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv_tail,shown", [
    (["--csv", ""], "''"),
    (["--csv", "missing/dir/atoms.csv"], "'missing/dir/atoms.csv'"),
    (["--csv", "atoms.csv", "-o", "."], "'.'"),
    (["--csv", "atoms.csv", "-o", ""], "''"),
])
def test_unwritable_output_exits_2(tmp_path, monkeypatch, capsys, argv_tail, shown):
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", str(_SHIPPED), "--set", "ensemble.n=100", "-o", "out.json",
            *argv_tail]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {shown}: ")


# every output is opened before any is written, so a -o that cannot be opened
# leaves an existing --csv file with its bytes and a new one without rows
def test_unwritable_output_leaves_the_csv_unwritten(tmp_path, capsys):
    kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
    kept.write_bytes(b"old")
    for csv in (kept, fresh):
        argv = ["simulate", str(_SHIPPED), "--set", "ensemble.n=100", "--csv", str(csv),
                "-o", str(tmp_path / "missing" / "sim.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")
    assert kept.read_bytes() == b"old"
    assert not fresh.exists() or fresh.read_bytes() == b""


def test_broken_stdout_exits_2(monkeypatch, capsys):
    class BrokenPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    assert main(["select", str(_SHIPPED)]) == 2
    assert capsys.readouterr().err == "error: cannot write stdout: Broken pipe\n"


# Outputs are rewritten in place and cut to their length, never opened with
# O_TRUNC: on a filesystem mounted with discard, freeing an existing file's
# blocks at open costs tens of milliseconds per output.

def _simulate_into(csv: Path, out: Path, n: int) -> int:
    return main(["simulate", str(_SHIPPED), "--set", f"ensemble.n={n}",
                 "--csv", str(csv), "-o", str(out)])


def test_a_shorter_rewrite_leaves_the_bytes_of_a_fresh_run(tmp_path):
    csv, out = tmp_path / "atoms.csv", tmp_path / "sim.json"
    assert _simulate_into(csv, out, 100) == 0
    fresh = csv.read_bytes(), out.read_bytes()
    csv.unlink()
    out.unlink()
    assert _simulate_into(csv, out, 2000) == 0
    assert csv.stat().st_size > 10 * len(fresh[0])
    assert _simulate_into(csv, out, 100) == 0
    assert (csv.read_bytes(), out.read_bytes()) == fresh


def test_csv_and_json_into_one_path_leave_the_json(tmp_path):
    both, json_only = tmp_path / "both", tmp_path / "sim.json"
    argv = ["simulate", str(_SHIPPED), "--set", "ensemble.n=2000", "--csv", str(both)]
    assert main([*argv, "-o", str(both)]) == 0
    written = both.read_bytes()
    assert main([*argv, "-o", str(json_only)]) == 0
    assert written == json_only.read_bytes()


def test_output_through_a_symlink_rewrites_its_target(tmp_path):
    target, link, fresh = tmp_path / "target", tmp_path / "link", tmp_path / "fresh"
    assert main(["scan", str(_SHIPPED), "-o", str(fresh)]) == 0
    target.write_bytes(b"x" * (2 * fresh.stat().st_size))
    link.symlink_to(target)
    assert main(["scan", str(_SHIPPED), "-o", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh.read_bytes()


def test_output_to_the_null_device_exits_0():
    # the null device is not a regular file, so it is written but not cut
    assert main(["simulate", str(_SHIPPED), "--set", "ensemble.n=100",
                 "--csv", os.devnull, "-o", os.devnull]) == 0


def test_a_new_output_gets_the_umask_mode(tmp_path):
    out = tmp_path / "scan.csv"
    old = os.umask(0o027)
    try:
        assert main(["scan", str(_SHIPPED), "-o", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027


class _CutRecorder:
    """A file object that records where it is cut."""

    def __init__(self, file, cuts: list):
        self.file, self.cuts = file, cuts

    def __getattr__(self, name):
        return getattr(self.file, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.file.__exit__(*exc)

    def truncate(self, size=None):
        self.cuts.append(self.file.tell() if size is None else size)
        return self.file.truncate(size)


def test_rewriting_an_output_never_truncates_at_open(tmp_path, monkeypatch):
    """An equal-length rewrite opens without O_TRUNC and cuts at its length."""
    flags, cuts = [], []
    real_open, real_fdopen = os.open, os.fdopen

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(
        os, "fdopen", lambda *args, **kwargs: _CutRecorder(real_fdopen(*args, **kwargs), cuts)
    )
    out = tmp_path / "scan.csv"
    assert main(["scan", str(_SHIPPED), "-o", str(out)]) == 0
    first = out.read_bytes()
    inode = out.stat().st_ino
    assert main(["scan", str(_SHIPPED), "-o", str(out)]) == 0
    assert len(flags) == 2 and not any(flag & os.O_TRUNC for flag in flags)
    assert cuts == [len(first), len(first)]
    assert out.read_bytes() == first and out.stat().st_ino == inode


# The per-atom CSV goes to its file block by block as it is made, so a
# simulate call never holds it whole.

def _traced_peak(call) -> int:
    """The largest traced heap, in bytes, while call runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cloud", _CLOUDS.values(), ids=_CLOUDS.keys())
def test_the_writer_adds_nothing_to_a_simulate_peak(tmp_path, cloud):
    """One simulate call peaks less than a quarter of its CSV above its Monte Carlo."""
    sets = ["ensemble.n=200000", *cloud]
    csv = tmp_path / "atoms.csv"
    argv = ["simulate", str(_SHIPPED), *[a for s in sets for a in ("--set", s)],
            "--csv", str(csv), "-o", str(tmp_path / "sim.json")]
    codes = []
    monte_carlo = _traced_peak(lambda: _shipped_result(sets))
    call = _traced_peak(lambda: codes.append(main(argv)))
    assert codes == [0]
    assert call - monte_carlo < csv.stat().st_size / 4


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_simulate_streams_its_csv_into_a_fifo(tmp_path, monkeypatch):
    """A FIFO gets the whole CSV, written as its blocks are made, and is never cut."""
    from mwselect import cli

    n = 20000
    assert n > 2 * cli._CSV_BLOCK
    fifo, out = tmp_path / "atoms.csv", tmp_path / "sim.json"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    cuts = []
    real_fdopen = os.fdopen
    monkeypatch.setattr(
        os, "fdopen", lambda *args, **kwargs: _CutRecorder(real_fdopen(*args, **kwargs), cuts)
    )
    sets = [f"ensemble.n={n}"]
    assert main(["simulate", str(_SHIPPED), "--set", sets[0],
                 "--csv", str(fifo), "-o", str(out)]) == 0
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert cuts == [out.stat().st_size]
    assert received == [cli.simulation_csv(_shipped_result(sets))]
