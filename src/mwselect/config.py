"""Run configuration: unit-tagged YAML in, SI dataclasses out.

Every dimensional value in a config file is a string "number unit"
("25 G/cm", "10 us", "0 T"); bare numbers for dimensional keys are
rejected so nobody ever guesses a unit.  Internally everything is SI.
to_dict/from_dict round-trip exactly: serialization uses repr floats
with canonical SI units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .breit_rabi import _POSITION_RANGE, FieldConfig, StretchedBranch
from .constants import get_species
from .errors import ConfigError, UnknownSpeciesError
from .phase_space import EnsembleSpec
from .probability import QuadratureSettings
from .selection import PulseSpec

_TWO_PI = 2.0 * math.pi

_UNITS: dict[str, dict[str, float]] = {
    "length": {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9},
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9},
    "field": {
        "T": 1.0,
        "mT": 1e-3,
        "uT": 1e-6,
        "µT": 1e-6,
        "nT": 1e-9,
        "G": 1e-4,
        "mG": 1e-7,
    },
    "gradient": {"T/m": 1.0, "mT/m": 1e-3, "T/cm": 1e2, "G/cm": 1e-2, "G/m": 1e-4},
    "velocity": {"m/s": 1.0, "cm/s": 1e-2, "mm/s": 1e-3, "um/s": 1e-6, "µm/s": 1e-6},
    "angular_frequency": {
        "rad/s": 1.0,
        "Hz": _TWO_PI,
        "kHz": _TWO_PI * 1e3,
        "MHz": _TWO_PI * 1e6,
        "GHz": _TWO_PI * 1e9,
    },
    "current": {"A": 1.0, "mA": 1e-3},
}

_CANONICAL_UNIT = {
    "length": "m",
    "time": "s",
    "field": "T",
    "gradient": "T/m",
    "velocity": "m/s",
    "angular_frequency": "rad/s",
    "current": "A",
}


def parse_quantity(value, kind: str, key: str = "value") -> float:
    """Convert a "number unit" string of the given kind to SI."""
    table = _UNITS.get(kind)
    if table is None:
        raise ValueError(f"unknown quantity kind {kind!r}")
    if not isinstance(value, str):
        raise ConfigError(
            f"{key}: dimensional values must be strings like "
            f"'1.5 {_CANONICAL_UNIT[kind]}', got {value!r}"
        )
    parts = value.split()
    if len(parts) != 2:
        raise ConfigError(
            f"{key}: expected 'number unit', got {value!r}"
        )
    try:
        magnitude = float(parts[0])
    except ValueError:
        raise ConfigError(f"{key}: cannot parse number in {value!r}") from None
    scale = table.get(parts[1])
    if scale is None:
        raise ConfigError(
            f"{key}: unknown {kind} unit {parts[1]!r}; "
            f"allowed: {', '.join(sorted(table))}"
        )
    value_si = magnitude * scale
    if not math.isfinite(value_si):
        raise ConfigError(f"{key}: {value!r} is not a finite quantity")
    return value_si


def format_quantity(value: float, kind: str) -> str:
    """Canonical SI string for a quantity, exact under parse_quantity."""
    return f"{value!r} {_CANONICAL_UNIT[kind]}"


_MISSING = object()


class _Section:
    """Dict wrapper that pops known keys and rejects the rest."""

    def __init__(self, data, name: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{name}: expected a mapping, got {type(data).__name__}")
        self._data = dict(data)
        self._name = name

    def take(self, key: str, default=_MISSING):
        if key in self._data:
            return self._data.pop(key)
        if default is _MISSING:
            raise ConfigError(f"{self._name}: missing required key {key!r}")
        return default

    def quantity(self, key: str, kind: str, default=_MISSING) -> float:
        raw = self.take(key, default)
        if raw is default and default is not _MISSING:
            return raw
        return parse_quantity(raw, kind, key=f"{self._name}.{key}")

    def integer(self, key: str, default=_MISSING) -> int:
        raw = self.take(key, default)
        if raw is default and default is not _MISSING:
            return raw
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ConfigError(f"{self._name}.{key}: expected an integer, got {raw!r}")
        return raw

    def number(self, key: str, default=_MISSING) -> float:
        raw = self.take(key, default)
        if raw is default and default is not _MISSING:
            return raw
        if isinstance(raw, bool):
            raise ConfigError(f"{self._name}.{key}: expected a number, got {raw!r}")
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise ConfigError(
                f"{self._name}.{key}: expected a number, got {raw!r}"
            ) from None
        if not math.isfinite(value):
            raise ConfigError(
                f"{self._name}.{key}: expected a finite number, got {raw!r}"
            )
        return value

    def text(self, key: str, default=_MISSING) -> str:
        raw = self.take(key, default)
        if raw is default and default is not _MISSING:
            return raw
        if not isinstance(raw, str):
            raise ConfigError(f"{self._name}.{key}: expected a string, got {raw!r}")
        return raw

    def finish(self) -> None:
        if self._data:
            extra = ", ".join(sorted(map(repr, self._data)))
            raise ConfigError(f"{self._name}: unknown keys {extra}")


@dataclass(frozen=True)
class FieldEntry:
    gradient: float  # T/m
    bias: float  # T


@dataclass(frozen=True)
class PulseEntry:
    """One pulse as configured: frequency either explicit or by position.

    Exactly one of omega (rad/s) and resonant_at (m) is set; resonant_at
    is resolved into a frequency only when the physics objects are
    built, so configs round-trip untouched.
    """

    tau: float  # s
    t0: float  # s
    omega: float | None = None
    resonant_at: float | None = None

    def __post_init__(self) -> None:
        if self.tau <= 0.0:
            raise ConfigError("pulse tau must be positive")
        if (self.omega is None) == (self.resonant_at is None):
            raise ConfigError("pulse needs exactly one of 'omega' and 'resonant_at'")
        if self.omega is not None and self.omega <= 0.0:
            raise ConfigError("pulse omega must be positive")


@dataclass(frozen=True)
class ScanEntry:
    z_min: float
    z_max: float
    points: int

    def __post_init__(self) -> None:
        if not self.z_max > self.z_min:
            raise ConfigError("scan.z_max must exceed scan.z_min")
        if self.points < 2:
            raise ConfigError("scan.points must be at least 2")


@dataclass(frozen=True)
class ApparatusEntry:
    radius: float
    current: float
    half_separation: float
    turns: int = 1
    displacement: float = 1e-2  # m, lever arm for the gradient budget

    def __post_init__(self) -> None:
        if self.radius <= 0.0 or self.half_separation <= 0.0:
            raise ConfigError("apparatus radius and half_separation must be positive")
        if self.turns < 1:
            raise ConfigError("apparatus.turns must be at least 1")
        if self.displacement <= 0.0:
            raise ConfigError("apparatus.displacement must be positive")


@dataclass(frozen=True)
class OutputEntry:
    csv: str | None = None
    json: str | None = None


@dataclass(frozen=True)
class RunConfig:
    """Complete run description; sections a command does not use may be None."""

    species: str
    field: FieldEntry
    sigma: int = 1
    delta_t: float | None = None
    pulses: tuple[PulseEntry, ...] = ()
    ensemble: EnsembleSpec | None = None
    scan: ScanEntry | None = None
    apparatus: ApparatusEntry | None = None
    quadrature: QuadratureSettings = field(default_factory=QuadratureSettings)
    output: OutputEntry = field(default_factory=OutputEntry)

    def __post_init__(self) -> None:
        if self.sigma not in (1, -1):
            raise ConfigError("sigma must be +1 or -1")
        if self.ensemble is not None and self.ensemble.sigma != self.sigma:
            raise ConfigError("ensemble sigma must equal the top-level sigma")
        if self.delta_t is not None and self.delta_t <= 0.0:
            raise ConfigError("delta_t must be positive")
        if self.delta_t is not None and len(self.pulses) >= 2:
            gap = self.pulses[1].t0 - self.pulses[0].t0
            if not math.isclose(gap, self.delta_t, rel_tol=1e-9, abs_tol=1e-15):
                raise ConfigError(
                    f"delta_t = {self.delta_t!r} s but the first two pulses are "
                    f"{gap!r} s apart"
                )

    def effective_delta_t(self) -> float:
        """Explicit delta_t, or the gap between the first two pulses."""
        if self.delta_t is not None:
            return self.delta_t
        if len(self.pulses) >= 2:
            gap = self.pulses[1].t0 - self.pulses[0].t0
            if gap <= 0.0:
                raise ConfigError("pulses must be listed in increasing t0 order")
            return gap
        raise ConfigError("delta_t is not set and fewer than two pulses are defined")


def from_dict(data: dict) -> RunConfig:
    """Build a validated RunConfig from a parsed YAML mapping."""
    top = _Section(data, "config")
    species_name = top.text("species")
    try:
        get_species(species_name)
    except UnknownSpeciesError as exc:
        raise ConfigError(str(exc)) from None

    fsec = _Section(top.take("field"), "field")
    field_entry = FieldEntry(
        gradient=fsec.quantity("gradient", "gradient"),
        bias=fsec.quantity("bias", "field", default=0.0),
    )
    fsec.finish()

    sigma = top.integer("sigma", default=1)
    if sigma not in (1, -1):
        raise ConfigError("sigma must be +1 or -1")
    delta_t_raw = top.take("delta_t", default=None)
    delta_t = (
        parse_quantity(delta_t_raw, "time", key="delta_t")
        if delta_t_raw is not None
        else None
    )

    pulses = []
    lo, hi = _POSITION_RANGE
    for i, pdata in enumerate(top.take("pulses", default=[]) or []):
        psec = _Section(pdata, f"pulses[{i}]")
        omega_raw = psec.take("omega", default=None)
        res_raw = psec.take("resonant_at", default=None)
        tau = psec.quantity("tau", "time")
        t0 = psec.quantity("t0", "time")
        omega = (
            parse_quantity(omega_raw, "angular_frequency", key=f"pulses[{i}].omega")
            if omega_raw is not None
            else None
        )
        resonant_at = (
            parse_quantity(res_raw, "length", key=f"pulses[{i}].resonant_at")
            if res_raw is not None
            else None
        )
        if resonant_at is not None and not lo <= resonant_at <= hi:
            raise ConfigError(
                f"pulses[{i}].resonant_at: {res_raw!r} is outside the position "
                f"range [{lo:g}, {hi:g}] m"
            )
        pulses.append(PulseEntry(tau=tau, t0=t0, omega=omega, resonant_at=resonant_at))
        psec.finish()

    ensemble = None
    edata = top.take("ensemble", default=None)
    if edata is not None:
        esec = _Section(edata, "ensemble")
        values = dict(
            n=esec.integer("n"),
            z_mean=esec.quantity("z_mean", "length", default=0.0),
            z_rms=esec.quantity("z_rms", "length"),
            v_mean=esec.quantity("v_mean", "velocity", default=0.0),
            v_rms=esec.quantity("v_rms", "velocity"),
            dz0=esec.quantity("dz0", "length"),
            seed=esec.integer("seed"),
            decision_mode=esec.text("decision_mode", default="bernoulli"),
            survival_efficiency=esec.number("survival_efficiency", default=1.0),
        )
        esec.finish()
        try:
            ensemble = EnsembleSpec(sigma=sigma, **values)
        except ValueError as exc:
            raise ConfigError(f"ensemble: {exc}") from None

    scan = None
    sdata = top.take("scan", default=None)
    if sdata is not None:
        ssec = _Section(sdata, "scan")
        scan = ScanEntry(
            z_min=ssec.quantity("z_min", "length"),
            z_max=ssec.quantity("z_max", "length"),
            points=ssec.integer("points"),
        )
        ssec.finish()

    apparatus = None
    adata = top.take("apparatus", default=None)
    if adata is not None:
        asec = _Section(adata, "apparatus")
        apparatus = ApparatusEntry(
            radius=asec.quantity("radius", "length"),
            current=asec.quantity("current", "current"),
            half_separation=asec.quantity("half_separation", "length"),
            turns=asec.integer("turns", default=1),
            displacement=asec.quantity("displacement", "length", default=1e-2),
        )
        asec.finish()

    qdata = top.take("quadrature", default=None)
    if qdata is not None:
        qsec = _Section(qdata, "quadrature")
        window_sigmas = qsec.number("window_sigmas", default=8.0)
        qsec.finish()
        try:
            quad = QuadratureSettings(window_sigmas=window_sigmas)
        except ValueError as exc:
            raise ConfigError(f"quadrature: {exc}") from None
    else:
        quad = QuadratureSettings()

    odata = top.take("output", default=None)
    if odata is not None:
        osec = _Section(odata, "output")
        output = OutputEntry(
            csv=osec.text("csv", default=None), json=osec.text("json", default=None)
        )
        osec.finish()
    else:
        output = OutputEntry()

    top.finish()

    return RunConfig(
        species=species_name,
        field=field_entry,
        sigma=sigma,
        delta_t=delta_t,
        pulses=tuple(pulses),
        ensemble=ensemble,
        scan=scan,
        apparatus=apparatus,
        quadrature=quad,
        output=output,
    )


def to_dict(run: RunConfig) -> dict:
    """Serialize with canonical SI unit strings; inverse of from_dict."""
    out: dict = {
        "species": run.species,
        "field": {
            "gradient": format_quantity(run.field.gradient, "gradient"),
            "bias": format_quantity(run.field.bias, "field"),
        },
        "sigma": run.sigma,
    }
    if run.delta_t is not None:
        out["delta_t"] = format_quantity(run.delta_t, "time")
    if run.pulses:
        plist = []
        for p in run.pulses:
            pd = {
                "tau": format_quantity(p.tau, "time"),
                "t0": format_quantity(p.t0, "time"),
            }
            if p.omega is not None:
                pd["omega"] = format_quantity(p.omega, "angular_frequency")
            if p.resonant_at is not None:
                pd["resonant_at"] = format_quantity(p.resonant_at, "length")
            plist.append(pd)
        out["pulses"] = plist
    if run.ensemble is not None:
        e = run.ensemble
        out["ensemble"] = {
            "n": e.n,
            "z_mean": format_quantity(e.z_mean, "length"),
            "z_rms": format_quantity(e.z_rms, "length"),
            "v_mean": format_quantity(e.v_mean, "velocity"),
            "v_rms": format_quantity(e.v_rms, "velocity"),
            "dz0": format_quantity(e.dz0, "length"),
            "seed": e.seed,
            "decision_mode": e.decision_mode,
            "survival_efficiency": e.survival_efficiency,
        }
    if run.scan is not None:
        out["scan"] = {
            "z_min": format_quantity(run.scan.z_min, "length"),
            "z_max": format_quantity(run.scan.z_max, "length"),
            "points": run.scan.points,
        }
    if run.apparatus is not None:
        a = run.apparatus
        out["apparatus"] = {
            "radius": format_quantity(a.radius, "length"),
            "current": format_quantity(a.current, "current"),
            "half_separation": format_quantity(a.half_separation, "length"),
            "turns": a.turns,
            "displacement": format_quantity(a.displacement, "length"),
        }
    out["quadrature"] = {"window_sigmas": run.quadrature.window_sigmas}
    if run.output.csv is not None or run.output.json is not None:
        od = {}
        if run.output.csv is not None:
            od["csv"] = run.output.csv
        if run.output.json is not None:
            od["json"] = run.output.json
        out["output"] = od
    return out


def apply_overrides(data: dict, assignments: list[str]) -> dict:
    """Apply --set dotted.path=value edits to a raw config mapping.

    List elements are addressed by numeric path components
    (pulses.0.tau).  Values are parsed as YAML scalars, so quoted unit
    strings stay strings and bare numbers become numbers.
    """
    for item in assignments:
        path, sep, raw_value = item.partition("=")
        if not sep or not path:
            raise ConfigError(f"--set expects dotted.path=value, got {item!r}")
        try:
            value = yaml.safe_load(raw_value)
        except yaml.YAMLError:
            value = raw_value
        except ValueError as exc:  # e.g. an integer past Python's digit limit
            raise ConfigError(f"--set {path}: {exc}") from None
        keys = path.split(".")
        node = data
        for j, key in enumerate(keys[:-1]):
            if isinstance(node, list):
                node = _list_item(node, key, path)
            elif isinstance(node, dict):
                if key not in node or not isinstance(node[key], (dict, list)):
                    node[key] = {}
                node = node[key]
            else:
                raise ConfigError(
                    f"--set {path}: {'.'.join(keys[:j])} is not a mapping"
                )
        leaf = keys[-1]
        if isinstance(node, list):
            idx = _list_index(leaf, path, len(node))
            node[idx] = value
        elif isinstance(node, dict):
            node[leaf] = value
        else:
            raise ConfigError(f"--set {path}: parent is not a mapping or list")
    return data


def _list_index(key: str, path: str, length: int) -> int:
    try:
        idx = int(key)
    except ValueError:
        raise ConfigError(f"--set {path}: {key!r} is not a list index") from None
    if not 0 <= idx < length:
        raise ConfigError(f"--set {path}: index {idx} out of range (length {length})")
    return idx


def _list_item(node: list, key: str, path: str):
    return node[_list_index(key, path, len(node))]


def load_config(path: str | Path, overrides: list[str] | None = None) -> RunConfig:
    """Read a YAML config file, apply --set overrides, validate."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from None
    try:
        data = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"invalid YAML in {p}: {exc}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    if overrides:
        data = apply_overrides(data, overrides)
    return from_dict(data)


def to_field_config(run: RunConfig) -> FieldConfig:
    """Physics-side field model for this run."""
    species = get_species(run.species)
    try:
        return FieldConfig(eta=run.field.gradient, bias=run.field.bias, species=species)
    except ValueError as exc:
        raise ConfigError(f"field: {exc}") from None


def to_pulses(run: RunConfig, cfg: FieldConfig) -> tuple[PulseSpec, ...]:
    """Resolve configured pulses into PulseSpec objects.

    resonant_at entries are resolved against the actual field here, so a
    frequency outside the attainable range surfaces as a physics error
    at command time, not at parse time.
    """
    branch = StretchedBranch(sigma=run.sigma)
    specs = []
    for p in run.pulses:
        if p.omega is not None:
            specs.append(
                PulseSpec(t0=p.t0, tau=p.tau, omega_A=p.omega, branch=branch)
            )
        else:
            specs.append(
                PulseSpec.resonant_at(p.resonant_at, cfg, t0=p.t0, tau=p.tau, branch=branch)
            )
    return tuple(specs)


def to_ensemble_spec(run: RunConfig) -> EnsembleSpec:
    """Monte Carlo ensemble for this run (sigma comes from the top level)."""
    if run.ensemble is None:
        raise ConfigError("this command needs an 'ensemble' section")
    return run.ensemble
