"""Run configuration: unit-tagged YAML in, SI dataclasses out.

Every dimensional value in a config file is a string "number unit"
("25 G/cm", "10 us", "0 T"); bare numbers for dimensional keys are
rejected so nobody ever guesses a unit.  Internally everything is SI.
One key table per section (_RUN) drives from_dict and to_dict, which
round-trip exactly: serialization uses repr floats with canonical SI units.
"""

from __future__ import annotations

import copy
import functools
import math
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import yaml

from .apparatus import _GEOMETRY_RANGE, CoilPair
from .breit_rabi import _POSITION_RANGE, FieldConfig, StretchedBranch
from .constants import get_species
from .errors import ConfigError
from .phase_space import _MAX_SIZE, EnsembleSpec
from .probability import QuadratureSettings
from .selection import PulseSpec

_TWO_PI = 2.0 * math.pi

# libyaml's parser where PyYAML was built with it; both build the same objects
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

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

# the SI unit of each kind is the one of scale 1
_CANONICAL_UNIT = {
    kind: next(unit for unit, scale in table.items() if scale == 1.0)
    for kind, table in _UNITS.items()
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
        if (self.omega is None) == (self.resonant_at is None):
            raise ValueError("pulse needs exactly one of 'omega' and 'resonant_at'")
        lo, hi = _POSITION_RANGE
        if self.resonant_at is not None and not lo <= self.resonant_at <= hi:
            raise ValueError(
                f"resonant_at = {self.resonant_at!r} m is outside the position "
                f"range [{lo:g}, {hi:g}] m"
            )


@dataclass(frozen=True)
class ScanEntry:
    z_min: float
    z_max: float
    points: int

    def __post_init__(self) -> None:
        if not self.z_max > self.z_min:
            raise ConfigError("scan.z_max must exceed scan.z_min")
        lo, hi = _POSITION_RANGE
        if not (lo <= self.z_min and self.z_max <= hi):
            raise ConfigError(f"scan.z_min and scan.z_max must lie in [{lo:g}, {hi:g}] m")
        if self.points < 2:
            raise ConfigError("scan.points must be at least 2")
        if self.points > _MAX_SIZE:
            raise ConfigError(f"scan.points must be at most {_MAX_SIZE}")


@dataclass(frozen=True)
class ApparatusEntry(CoilPair):
    """A CoilPair plus displacement, its budget's lever arm, in [1 um, 10 m]."""

    displacement: float = 1e-2  # m

    def __post_init__(self) -> None:
        super().__post_init__()
        lo, hi = _GEOMETRY_RANGE
        if not lo <= self.displacement <= hi:
            raise ValueError(f"displacement must lie in [{lo:g} m, {hi:g} m]")


@dataclass(frozen=True)
class RunConfig:
    """Complete run description; sections a command does not use may be None."""

    species: str
    field: FieldEntry
    sigma: int = 1
    pulses: tuple[PulseEntry, ...] = ()
    ensemble: EnsembleSpec | None = None
    scan: ScanEntry | None = None
    apparatus: ApparatusEntry | None = None
    quadrature: QuadratureSettings = field(default_factory=QuadratureSettings)

    def __post_init__(self) -> None:
        if self.sigma not in (1, -1):
            raise ConfigError("sigma must be +1 or -1")
        if self.ensemble is not None and self.ensemble.sigma != self.sigma:
            raise ConfigError("ensemble sigma must equal the top-level sigma")
        if len(self.pulses) > 2:
            raise ConfigError(f"a run has one pulse or a pulse pair, not {len(self.pulses)}")
        if len(self.pulses) >= 2 and not self.effective_delta_t() > 0.0:
            raise ConfigError("pulses must be listed in increasing t0 order")

    def effective_delta_t(self) -> float:
        """The gap between the first two pulses' t0, the only delta_t."""
        if len(self.pulses) < 2:
            raise ConfigError("delta_t needs two pulses")
        return self.pulses[1].t0 - self.pulses[0].t0


@dataclass(frozen=True)
class _Schema:
    """One config section: its builder and its (key, kind, default) rows.

    A kind is a unit kind of _UNITS, "int", "number", "text", "species",
    a nested _Schema, or [kind] for a list of that kind.  Kinds only parse;
    each range is checked by the dataclass the section builds.
    A MISSING default makes the key required; a None default lets it be
    null or absent, and then the dataclass's own default applies.
    """

    build: Callable
    table: tuple


def _schema(cls, *rows, build=None, **defaults) -> _Schema:
    """Schema for cls from (key, kind) rows; defaults are cls's unless given."""
    by_name = {f.name: f for f in fields(cls)}
    table = []
    for key, kind in rows:
        f = by_name[key]
        default = defaults.get(key, f.default)
        required = default is MISSING and f.default_factory is MISSING
        if isinstance(kind, (_Schema, list)) and not required:
            default = None  # an optional section is absent, not empty
        table.append((key, kind, default))
    return _Schema(build or cls, tuple(table))


def _run_config(ensemble=None, **values) -> RunConfig:
    """RunConfig whose ensemble carries the top-level sigma."""
    run = RunConfig(**values)
    if ensemble is not None:
        run = replace(run, ensemble=replace(ensemble, sigma=run.sigma))
    return run


_RUN = _schema(
    RunConfig,
    ("species", "species"),
    ("field", _schema(FieldEntry, ("gradient", "gradient"), ("bias", "field"),
                      bias=0.0)),
    ("sigma", "int"),
    ("pulses", [_schema(
        PulseEntry,
        ("tau", "time"), ("t0", "time"),
        ("omega", "angular_frequency"), ("resonant_at", "length"),
    )]),
    ("ensemble", _schema(
        EnsembleSpec,
        ("n", "int"), ("z_mean", "length"), ("z_rms", "length"),
        ("v_mean", "velocity"), ("v_rms", "velocity"), ("dz0", "length"),
        ("seed", "int"), ("decision_mode", "text"),
        z_mean=0.0, v_mean=0.0,
    )),
    ("scan", _schema(ScanEntry, ("z_min", "length"), ("z_max", "length"),
                     ("points", "int"))),
    ("apparatus", _schema(
        ApparatusEntry,
        ("radius", "length"), ("current", "current"), ("half_separation", "length"),
        ("turns", "int"), ("displacement", "length"),
    )),
    ("quadrature", _schema(QuadratureSettings, ("window_sigmas", "number"))),
    build=_run_config,
)


def _value(raw, kind, key: str):
    """Parse one config value of the given kind; key names it in errors."""
    if isinstance(kind, _Schema):
        return _parse_section(raw, kind, key)
    if isinstance(kind, list):
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"{key}: expected a list, got {type(raw).__name__}")
        return tuple(_value(item, kind[0], f"{key}[{i}]") for i, item in enumerate(raw))
    if kind in _UNITS:
        return parse_quantity(raw, kind, key)
    if kind == "int":
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ConfigError(f"{key}: expected an integer, got {raw!r}")
        return raw
    if kind == "number":
        try:
            value = None if isinstance(raw, bool) else float(raw)
        except (TypeError, ValueError, OverflowError):
            value = None
        if value is None:
            raise ConfigError(f"{key}: expected a number, got {raw!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
        return value
    if not isinstance(raw, str):  # "text" and "species"
        raise ConfigError(f"{key}: expected a string, got {raw!r}")
    if kind == "species":
        get_species(raw)
    return raw


def _parse_section(raw, schema: _Schema, name: str):
    """Pop every key of the table, reject the rest, build the section."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: expected a mapping, got {type(raw).__name__}")
    data = dict(raw)
    values = {}
    for key, kind, default in schema.table:
        value = data.pop(key, default)
        if value is MISSING:
            raise ConfigError(f"{name}: missing required key {key!r}")
        if value is None and default is None:
            continue
        if value is not default:
            # the root names its sections and quantities by their bare key
            bare = name == "config" and (not isinstance(kind, str) or kind in _UNITS)
            value = _value(value, kind, key if bare else f"{name}.{key}")
        values[key] = value
    if data:
        extra = ", ".join(sorted(map(repr, data)))
        raise ConfigError(f"{name}: unknown keys {extra}")
    try:
        return schema.build(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _dump(value, kind):
    """Inverse of _value: canonical SI strings, None for an absent value."""
    if value is None:
        return None
    if isinstance(kind, _Schema):
        out = {}
        for key, sub, _ in kind.table:
            item = _dump(getattr(value, key), sub)
            if item not in (None, [], {}):
                out[key] = item
        return out
    if isinstance(kind, list):
        return [_dump(item, kind[0]) for item in value]
    return format_quantity(value, kind) if kind in _UNITS else value


def from_dict(data: dict) -> RunConfig:
    """Build a validated RunConfig from a parsed YAML mapping."""
    return _value(data, _RUN, "config")


def to_dict(run: RunConfig) -> dict:
    """Serialize with canonical SI unit strings; inverse of from_dict."""
    return _dump(run, _RUN)


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
            value = yaml.load(raw_value, Loader=_YAML_LOADER)
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


@functools.lru_cache(maxsize=8)
def _parse(text: bytes):
    """The YAML document in text, parsed once per process; never edit it."""
    return yaml.load(text, Loader=_YAML_LOADER)


def load_config(path: str | Path, overrides: list[str] | None = None) -> RunConfig:
    """Read a YAML config file, apply --set overrides, validate.

    The file is read on every call and decoded as YAML specifies (UTF-8,
    or UTF-16 with a byte order mark), whatever the locale.  Each distinct
    (text, overrides) is validated once per process, and every call with
    it returns that one RunConfig; an error is raised on every call.
    """
    p = Path(path)
    try:
        text = p.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from None
    try:
        _parse(text)  # here, so that its error names this call's path
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"invalid YAML in {p}: {exc}") from None
    return _validated(text, tuple(overrides or ()))


# A RunConfig is frozen, so one object per (text, overrides) serves every call.
@functools.lru_cache(maxsize=8)
def _validated(text: bytes, overrides: tuple[str, ...]) -> RunConfig:
    """The RunConfig of a parsed text under --set overrides, built once per process."""
    data = _parse(text)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    if overrides:
        # a deep copy keeps aliased nodes shared, as a fresh parse has them
        data = apply_overrides(copy.deepcopy(data), list(overrides))
    return from_dict(data)


def to_field_config(run: RunConfig) -> FieldConfig:
    """Physics-side field model for this run; its range check becomes a ConfigError."""
    species = get_species(run.species)
    try:
        return FieldConfig(eta=run.field.gradient, bias=run.field.bias, species=species)
    except ValueError as exc:
        raise ConfigError(f"field: {exc}") from None


def to_pulses(run: RunConfig, cfg: FieldConfig) -> tuple[PulseSpec, ...]:
    """Resolve configured pulses into PulseSpec objects.

    resonant_at entries are resolved against the actual field here, so a
    frequency outside the attainable range surfaces as a physics error
    at command time, not at parse time.  PulseSpec's own checks (the tau
    range, a positive omega) become ConfigErrors naming the pulse.
    """
    branch = StretchedBranch(sigma=run.sigma)
    specs = []
    for i, p in enumerate(run.pulses):
        try:
            if p.omega is not None:
                spec = PulseSpec(t0=p.t0, tau=p.tau, omega_A=p.omega, branch=branch)
            else:
                spec = PulseSpec.resonant_at(
                    p.resonant_at, cfg, t0=p.t0, tau=p.tau, branch=branch
                )
        except ValueError as exc:
            raise ConfigError(f"pulses[{i}]: {exc}") from None
        specs.append(spec)
    return tuple(specs)


def to_ensemble_spec(run: RunConfig) -> EnsembleSpec:
    """Monte Carlo ensemble for this run (sigma comes from the top level)."""
    if run.ensemble is None:
        raise ConfigError("this command needs an 'ensemble' section")
    return run.ensemble
