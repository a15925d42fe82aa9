import copy
import dataclasses
import math
from pathlib import Path

import pytest
import yaml
from hypothesis import given, strategies as st

import mwselect as mw
from mwselect import config as cf

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _minimal(**extra):
    data = {"species": "Rb87", "field": {"gradient": "25 G/cm"}}
    data.update(copy.deepcopy(extra))
    return data


def _two_pulse(**extra):
    return _minimal(
        delta_t="28 ms",
        pulses=[
            {"tau": "10 us", "t0": "0 s", "resonant_at": "0 m"},
            {"tau": "10 us", "t0": "28 ms", "resonant_at": "1 cm"},
        ],
        **extra,
    )


class TestParseQuantity:
    @pytest.mark.parametrize(
        "text,kind,want",
        [
            ("25 G/cm", "gradient", 0.25),
            ("1 T/m", "gradient", 1.0),
            ("10 us", "time", 1e-5),
            ("28 ms", "time", 28e-3),
            ("1 cm", "length", 1e-2),
            ("3 um", "length", 3e-6),
            ("-5.6 mm/s", "velocity", -5.6e-3),
            ("5 mG", "field", 5e-7),
            ("1 GHz", "angular_frequency", 2 * math.pi * 1e9),
            ("1 rad/s", "angular_frequency", 1.0),
            ("5.79233904 A", "current", 5.79233904),
            ("1e-3 m", "length", 1e-3),
        ],
    )
    def test_conversions(self, text, kind, want):
        assert cf.parse_quantity(text, kind) == pytest.approx(want, rel=1e-15)

    def test_gradient_in_gauss_per_cm_is_exact(self):
        # 25 * 1e-2 is exact in binary (25 * 2^-? no: 1e-2 is inexact, but
        # the product must equal the literal 0.25 bit for bit)
        assert cf.parse_quantity("25 G/cm", "gradient") == 0.25

    @pytest.mark.parametrize(
        "bad",
        [0.25, 25, None, True, ["25", "G/cm"]],
    )
    def test_bare_numbers_rejected(self, bad):
        with pytest.raises(mw.ConfigError, match="must be strings"):
            cf.parse_quantity(bad, "gradient", key="field.gradient")

    @pytest.mark.parametrize("bad", ["25G/cm", "25", "25 G cm extra", ""])
    def test_malformed_rejected(self, bad):
        with pytest.raises(mw.ConfigError, match="number unit"):
            cf.parse_quantity(bad, "gradient")

    def test_unknown_unit_lists_alternatives(self):
        with pytest.raises(mw.ConfigError, match="allowed:"):
            cf.parse_quantity("25 Oe", "field")

    def test_unparseable_number(self):
        with pytest.raises(mw.ConfigError, match="cannot parse"):
            cf.parse_quantity("two us", "time")

    def test_unknown_kind_is_a_programming_error(self):
        with pytest.raises(ValueError, match="quantity kind"):
            cf.parse_quantity("1 m", "torque")

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(sorted(cf._CANONICAL_UNIT)),
    )
    def test_format_parse_round_trip_is_exact(self, value, kind):
        text = cf.format_quantity(value, kind)
        assert cf.parse_quantity(text, kind) == value


class TestFromDict:
    def test_minimal_defaults(self):
        run = cf.from_dict(_minimal())
        assert run.species == "Rb87"
        assert run.field.gradient == 0.25
        assert run.field.bias == 0.0
        assert run.sigma == 1
        assert run.delta_t is None
        assert run.pulses == ()
        assert run.quadrature == mw.QuadratureSettings()

    def test_unknown_species(self):
        with pytest.raises(mw.ConfigError, match="Rb86"):
            cf.from_dict(_minimal(species="Rb86"))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(extra_key=1),
            lambda d: d["field"].update(offset="1 mT"),
            lambda d: d["pulses"][0].update(shape="square"),
            lambda d: d["ensemble"].update(temperature="1 uK"),
            lambda d: d["scan"].update(step="1 mm"),
            lambda d: d["apparatus"].update(wire_gauge=12),
            lambda d: d["quadrature"].update(order=7),
            lambda d: d["output"].update(fmt="csv"),
            # keys that older configs still carry
            lambda d: d["ensemble"].update(probability_mode="averaged"),
            lambda d: d["quadrature"].update(rel_tol=1e-10),
            lambda d: d["quadrature"].update(max_subdivisions=32768),
        ],
    )
    def test_unknown_keys_rejected_per_section(self, mutate):
        data = _two_pulse(
            ensemble={
                "n": 10, "z_rms": "1 mm", "v_rms": "1 cm/s", "dz0": "3 um",
                "seed": 1,
            },
            scan={"z_min": "-1 cm", "z_max": "1 cm", "points": 11},
            apparatus={
                "radius": "5 cm", "current": "1 A", "half_separation": "2.5 cm",
            },
            quadrature={"window_sigmas": 6.0},
            output={"csv": "out.csv"},
        )
        mutate(data)
        with pytest.raises(mw.ConfigError, match="unknown key"):
            cf.from_dict(data)

    def test_pulse_frequency_is_exclusive(self):
        both = _minimal(
            pulses=[{
                "tau": "10 us", "t0": "0 s",
                "omega": "6.8 GHz", "resonant_at": "0 m",
            }]
        )
        with pytest.raises(mw.ConfigError, match="exactly one"):
            cf.from_dict(both)
        neither = _minimal(pulses=[{"tau": "10 us", "t0": "0 s"}])
        with pytest.raises(mw.ConfigError, match="exactly one"):
            cf.from_dict(neither)

    def test_delta_t_must_match_pulse_gap(self):
        data = _two_pulse()
        data["pulses"][1]["t0"] = "14 ms"
        with pytest.raises(mw.ConfigError, match="apart"):
            cf.from_dict(data)

    def test_ensemble_modes_validated_at_parse_time(self):
        data = _minimal(
            ensemble={
                "n": 10, "z_rms": "1 mm", "v_rms": "1 cm/s", "dz0": "3 um",
                "seed": 1, "decision_mode": "maybe",
            }
        )
        with pytest.raises(mw.ConfigError, match="ensemble"):
            cf.from_dict(data)

    def test_sigma_and_workers_bounds(self):
        with pytest.raises(mw.ConfigError, match="sigma"):
            cf.from_dict(_minimal(sigma=0))
        with pytest.raises(mw.ConfigError, match="unknown keys 'workers'"):
            cf.from_dict(_minimal(workers=0))

    def test_yaml_style_string_floats_accepted_for_plain_numbers(self):
        # yaml 1.1 reads a scalar like 6e0 as a string; number() coerces it
        run = cf.from_dict(_minimal(quadrature={"window_sigmas": "6e0"}))
        assert run.quadrature.window_sigmas == 6.0

    def test_integer_too_large_for_a_float(self):
        with pytest.raises(mw.ConfigError, match="window_sigmas: expected a number"):
            cf.from_dict(_minimal(quadrature={"window_sigmas": 10**400}))

    def test_round_trip_identity(self):
        run = cf.load_config(CONFIG_DIR / "rb87_10us.yaml")
        assert cf.from_dict(cf.to_dict(run)) == run

    def test_round_trip_minimal(self):
        run = cf.from_dict(_two_pulse())
        assert cf.from_dict(cf.to_dict(run)) == run


class TestEffectiveDeltaT:
    def test_explicit_for_a_single_pulse(self):
        data = _two_pulse()
        data["pulses"] = data["pulses"][:1]
        assert cf.from_dict(data).effective_delta_t() == 28e-3

    def test_two_pulses_give_their_gap(self):
        data = _two_pulse()
        data["delta_t"] = "28.000000001 ms"  # agrees with the gap to 1e-9
        data["pulses"][0]["t0"] = "1 ms"
        data["pulses"][1]["t0"] = "29 ms"
        assert cf.from_dict(data).effective_delta_t() == 29e-3 - 1e-3

    def test_from_pulse_gap(self):
        data = _two_pulse()
        del data["delta_t"]
        assert cf.from_dict(data).effective_delta_t() == pytest.approx(28e-3)

    def test_unavailable(self):
        with pytest.raises(mw.ConfigError, match="delta_t"):
            cf.from_dict(_minimal()).effective_delta_t()

    def test_misordered_pulses(self):
        data = _two_pulse()
        del data["delta_t"]
        data["pulses"][0]["t0"] = "30 ms"
        with pytest.raises(mw.ConfigError, match="increasing"):
            cf.from_dict(data).effective_delta_t()


class TestOverrides:
    def test_nested_and_list_paths(self):
        data = _two_pulse()
        cf.apply_overrides(
            data,
            ["field.gradient=12.5 G/cm", "pulses.1.resonant_at=2 cm"],
        )
        run = cf.from_dict(data)
        assert run.field.gradient == 0.125
        assert run.pulses[1].resonant_at == 0.02

    def test_null_clears_a_key(self):
        data = _two_pulse()
        cf.apply_overrides(
            data, ["pulses.0.resonant_at=null", "pulses.0.omega=6.834682611 GHz"]
        )
        run = cf.from_dict(data)
        assert run.pulses[0].resonant_at is None
        assert run.pulses[0].omega == pytest.approx(2 * math.pi * 6.834682611e9)

    def test_creates_missing_sections(self):
        data = _minimal()
        cf.apply_overrides(data, ["output.json=run.json"])
        assert cf.from_dict(data).output.json == "run.json"

    def test_bad_assignments(self):
        with pytest.raises(mw.ConfigError, match="dotted.path"):
            cf.apply_overrides(_minimal(), ["workers"])
        with pytest.raises(mw.ConfigError, match="out of range"):
            cf.apply_overrides(_two_pulse(), ["pulses.7.tau=1 us"])
        with pytest.raises(mw.ConfigError, match="list index"):
            cf.apply_overrides(_two_pulse(), ["pulses.first.tau=1 us"])


class TestLoadAndResolve:
    @pytest.mark.parametrize("name", ["rb87_10us.yaml", "rb87_5us.yaml"])
    def test_shipped_configs_load(self, name):
        run = cf.load_config(CONFIG_DIR / name)
        assert run.species == "Rb87"
        assert run.field.gradient == 0.25
        assert len(run.pulses) == 2
        assert run.ensemble is not None and run.scan is not None

    def test_readme_config_block_is_the_shipped_config(self):
        readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1]
        block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        shipped = cf.load_config(CONFIG_DIR / "rb87_10us.yaml")
        assert cf.from_dict(yaml.safe_load(block)) == shipped

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.name)
    def test_yaml_loader_reads_what_safe_load_reads(self, path):
        text = path.read_text()
        assert yaml.load(text, Loader=cf._YAML_LOADER) == yaml.safe_load(text)

    @pytest.mark.parametrize("section,key", [("scan", "points"), ("ensemble", "n")])
    def test_size_limit_is_inclusive(self, section, key):
        data = _two_pulse(
            scan={"z_min": "-1 cm", "z_max": "1 cm", "points": 2},
            ensemble={"n": 1, "z_rms": "1 mm", "v_rms": "1 cm/s", "dz0": "3 um",
                      "seed": 1},
        )
        data[section][key] = 10**7
        assert getattr(getattr(cf.from_dict(data), section), key) == 10**7
        data[section][key] = 10**7 + 1
        with pytest.raises(mw.ConfigError, match=f"{section}.{key}: must be at most"):
            cf.from_dict(data)

    def test_missing_file(self, tmp_path):
        with pytest.raises(mw.ConfigError, match="cannot read"):
            cf.load_config(tmp_path / "nope.yaml")

    def test_non_mapping_root(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("- just\n- a\n- list\n")
        with pytest.raises(mw.ConfigError, match="mapping"):
            cf.load_config(p)

    def test_integer_past_digit_limit(self, tmp_path):
        p = tmp_path / "big.yaml"
        p.write_text("species: Rb87\nsigma: " + "9" * 5000 + "\n")
        with pytest.raises(mw.ConfigError, match="invalid YAML"):
            cf.load_config(p)

    def test_pulses_resolve_against_field(self):
        run = cf.from_dict(_two_pulse())
        cfg = cf.to_field_config(run)
        pulses = cf.to_pulses(run, cfg)
        assert len(pulses) == 2
        assert mw.detuning(0.0, pulses[0], cfg) == pytest.approx(0.0, abs=1e-3)
        assert mw.detuning(1e-2, pulses[1], cfg) == pytest.approx(0.0, abs=1e-3)
        assert pulses[1].t0 - pulses[0].t0 == pytest.approx(28e-3)

    def test_explicit_omega_passes_through(self):
        data = _minimal(
            pulses=[{"tau": "10 us", "t0": "0 s", "omega": "6.9 GHz"}]
        )
        run = cf.from_dict(data)
        pulses = cf.to_pulses(run, cf.to_field_config(run))
        assert pulses[0].omega_A == pytest.approx(2 * math.pi * 6.9e9)

    def test_unreachable_resonant_at_fails_at_resolve_time(self):
        data = _minimal(
            pulses=[{"tau": "10 us", "t0": "0 s", "resonant_at": "1 km"}]
        )
        with pytest.raises(mw.ConfigError, match="unknown length unit"):
            cf.from_dict(data)
        data = _minimal(
            pulses=[{"tau": "10 us", "t0": "0 s", "omega": "1 GHz"}]
        )
        run = cf.from_dict(data)  # parses fine
        with pytest.raises(mw.NoBracketError):
            # resolution happens when physics objects are built
            pulse = cf.to_pulses(run, cf.to_field_config(run))[0]
            mw.resonant_position(pulse.omega_A, pulse.branch, cf.to_field_config(run))

    def test_ensemble_spec_requires_section(self):
        with pytest.raises(mw.ConfigError, match="ensemble"):
            cf.to_ensemble_spec(cf.from_dict(_minimal()))

    def test_ensemble_spec_carries_sigma(self):
        data = _minimal(
            sigma=-1,
            ensemble={
                "n": 10, "z_rms": "1 mm", "v_rms": "1 cm/s", "dz0": "3 um",
                "seed": 1,
            },
        )
        spec = cf.to_ensemble_spec(cf.from_dict(data))
        assert spec.sigma == -1
        assert spec.z_rms == 1e-3

    def test_ensemble_sigma_must_match_run_sigma(self):
        run = cf.from_dict(_minimal(
            ensemble={
                "n": 10, "z_rms": "1 mm", "v_rms": "1 cm/s", "dz0": "3 um",
                "seed": 1,
            },
        ))
        with pytest.raises(mw.ConfigError, match="top-level sigma"):
            dataclasses.replace(run, sigma=-1)
        with pytest.raises(mw.ConfigError, match="^sigma must be"):
            cf.from_dict(_minimal(sigma=2, ensemble=cf.to_dict(run)["ensemble"]))
