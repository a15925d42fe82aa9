import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mwselect import config as cf
from mwselect.cli import main

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
    assert out.read_bytes() == (DATA / "scan_golden.csv").read_bytes()


def test_bands_golden_bytes(tmp_path):
    out = tmp_path / "bands.csv"
    assert main(["bands", str(CONFIGS / "rb87_10us.yaml"), "-o", str(out)]) == 0
    assert out.read_bytes() == (DATA / "bands_golden.csv").read_bytes()


def test_simulate_golden_bytes(tmp_path):
    # 400 atoms of the matched cloud: the bytes pin the draws (Philox keys
    # 0, 1, 2 and 4), both pulses' decisions and the propagation
    out = tmp_path / "atoms.csv"
    assert main([
        "simulate", str(CONFIGS / "rb87_10us.yaml"), "--set", "ensemble.n=400",
        "--set", 'ensemble.z_rms="20 um"', "--set", 'ensemble.v_rms="2 mm/s"',
        "--csv", str(out), "-o", str(tmp_path / "sim.json"),
    ]) == 0
    assert out.read_bytes() == (DATA / "simulate_golden.csv").read_bytes()


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
    from mwselect.phase_space import run_monte_carlo

    sets = ["ensemble.n=20000", "ensemble.seed=3"]
    out = tmp_path / "atoms.csv"
    argv = ["simulate", str(_SHIPPED), *[a for s in sets for a in ("--set", s)],
            "--csv", str(out), "-o", str(tmp_path / "sim.json")]
    assert main(argv) == 0
    run = cf.load_config(_SHIPPED, sets)
    field = cf.to_field_config(run)
    first, second = cf.to_pulses(run, field)
    result = run_monte_carlo(cf.to_ensemble_spec(run), first, second, field,
                             window_sigmas=run.quadrature.window_sigmas)
    assert out.read_bytes() == cli.simulation_csv(result)


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


def test_select_golden_result(tmp_path):
    # written at the commit before delta_t was retired: the per-pulse velocity
    # widths, now taken from the pulses' t0 gap, and the pair keep every bit
    out = tmp_path / "select.json"
    assert main(["select", str(CONFIGS / "rb87_10us.yaml"), "-o", str(out)]) == 0
    result = _load_json(out)["result"]
    golden = (DATA / "select_golden.json").read_text()
    assert json.dumps(result, sort_keys=True) + "\n" == golden


def test_coils_golden_result(tmp_path):
    # the coils result block on the shipped config, kept byte for byte
    out = tmp_path / "coils.json"
    assert main(["coils", str(CONFIGS / "rb87_10us.yaml"), "-o", str(out)]) == 0
    result = _load_json(out)["result"]
    golden = (DATA / "coils_golden.json").read_text()
    assert json.dumps(result, sort_keys=True) + "\n" == golden


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
    from mwselect import phase_space

    seen = {}
    for name in ("averaged_probability_batch", "averaged_probability_bound"):
        def spy(*args, _real=getattr(phase_space, name), _name=name, **kwargs):
            seen.setdefault(_name, set()).add(kwargs.get("window_sigmas"))
            return _real(*args, **kwargs)

        monkeypatch.setattr(phase_space, name, spy)
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


def test_simulate_without_csv_path_exits_2(config_path, tmp_path, capsys):
    assert main(["simulate", str(config_path),
                 "-o", str(tmp_path / "sim.json")]) == 2
    assert "--csv" in capsys.readouterr().err


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
# keys that older configs still carry: every command must reject them with exit 2
_RETIRED = ["delta_t", "ensemble.probability_mode", "ensemble.survival_efficiency",
            "quadrature.max_subdivisions", "quadrature.rel_tol"]
_SECTIONS = ["field", "pulses", "ensemble", "scan", "apparatus", "quadrature", "output"]
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


def _rowwise_csv(header, rows) -> str:
    """Reference CSV text: every cell through cli._format_cell, row by row."""
    from mwselect import cli

    lines = [",".join(header)]
    lines += [",".join(cli._format_cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_simulation_csv_matches_cell_by_cell_formatting(monkeypatch):
    """The block-wise writer gives the bytes of the row-wise reference.

    At 4096-row blocks z_final and v_final are mixed in the first block,
    all finite in the second and all NaN in the third; at the default
    block size the all-NaN rows follow a mixed block.  atom_index goes
    from 9 to 10, 99 to 100 and 9999 to 10000 inside a block and, at one
    row a block, across block boundaries.
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
    header = ["atom_index", "z0_m", "v0_m_s", "survived_first", "survived_both",
              "z_final_m", "v_final_m_s"]
    rows = zip(range(n), result.z0, result.v0, first, both,
               result.z_final, result.v_final)
    want = _rowwise_csv(header, rows).encode()
    for block in (cli._CSV_BLOCK, 4096, 7, 1):
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        assert cli.simulation_csv(result) == want


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
    int_column = cli._int_column
    monkeypatch.setattr(cli, "_int_column", lambda v: used.append(1) or int_column(v))
    values = np.array(sorted({0, 1, top // 3, top - (top > 0), top}), dtype=dtype)
    table = cli._column(values)
    cells = [bytes(row[row != 0]).decode() for row in table]
    assert cells == [cli._format_cell(v) for v in values.tolist()]
    assert used == ([1] if top < 2**32 else [])


def _kernel_cells(values) -> list[str]:
    """What the "%.16e" kernel writes for each value, NUL padding removed."""
    from mwselect import cli

    table = cli._float_column(np.asarray(values, dtype=np.float64))
    return [bytes(row[row != 0]).decode() for row in table]


def _reference_cells(values) -> list[str]:
    from mwselect import cli

    return [cli._format_cell(float(v)) for v in values]


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_float_kernel_matches_format_cell_for_any_bit_pattern(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _kernel_cells(values) == _reference_cells(values)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(1e-12, 1e17) | st.floats(-1e17, -1e-12),
                       min_size=1, max_size=64))
def test_float_kernel_matches_format_cell_in_the_fast_range(values):
    assert _kernel_cells(values) == _reference_cells(values)


# Doubles whose long-double product |x| * 10**q lands exactly on a
# half-integer while the exact product does not: rint would round them
# to the even neighbour, one unit off in the 17th digit.
_LONG_DOUBLE_TIES = [
    0.43042710632523073, 80604300759.26736, 41.98962885468695,
    4.749231150374778e-10, 16280065.250188, 967914518.5979359,
    8.503502347870858e-10, 7.123034373246319e-07,
]


def test_float_kernel_edge_values():
    decades = [10.0**j for j in range(-12, 18)]
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300,
             1e15 + 0.25, np.nan, -np.nan, np.inf, -np.inf, *_LONG_DOUBLE_TIES]
    for d in decades:
        edges += [d, -d, np.nextafter(d, 0.0), np.nextafter(d, np.inf)]
    assert _kernel_cells(edges) == _reference_cells(edges)
    assert _kernel_cells([1e15 + 0.25]) == ["1.0000000000000002e+15"]


@pytest.mark.parametrize("cloud", [[], ['ensemble.z_rms="20 um"', 'ensemble.v_rms="2 mm/s"']],
                         ids=["thermal", "matched"])
def test_simulate_csv_is_the_same_without_the_fast_path(monkeypatch, tmp_path, cloud):
    from mwselect import cli

    def simulate(name):
        sets = ["ensemble.n=20000", "ensemble.seed=11", *cloud]
        argv = ["simulate", str(_SHIPPED), *[a for s in sets for a in ("--set", s)],
                "--csv", str(tmp_path / name), "-o", str(tmp_path / "out.json")]
        assert main(argv) == 0
        return (tmp_path / name).read_bytes()

    fast = simulate("fast.csv")
    monkeypatch.setattr(cli, "_EXACT", False)
    assert not cli._mantissas(np.array([1.0, 2.5e-3]))[0].any()
    assert simulate("slow.csv") == fast


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
    (["--set", "output.csv=''"], "''"),
    (["--csv", "missing/dir/atoms.csv"], "'missing/dir/atoms.csv'"),
])
def test_unwritable_output_exits_2(tmp_path, monkeypatch, capsys, argv_tail, shown):
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", str(_SHIPPED), "--set", "ensemble.n=100", *argv_tail,
            "-o", "out.json"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {shown}: ")
