"""Position and velocity selection with microwave pi pulses in a field gradient.

Commands: scan (energies and transition frequency vs position, CSV),
select (resonance positions and selected widths, JSON), probability
(packet-averaged flip probabilities at the band centers, JSON), bands
(phase-space band and cell geometry, CSV), simulate (Monte Carlo of a
cloud through both pulses, per-atom CSV plus JSON summary) and coils
(gradient-coil diagnostics, JSON).

All commands take a YAML config plus optional --set overrides; -o and
--csv are the only output paths.  JSON outputs echo the fully resolved
config so a result file is self-describing.  Exit codes: 0 success, 2
configuration error, 3 physically impossible request.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import ExitStack
from dataclasses import asdict

import numpy as np

from . import apparatus as app
from .breit_rabi import (
    FieldConfig,
    Level,
    StretchedBranch,
    eigenvalue,
    field_coordinate,
    kappa,
    resonant_position,  # noqa: F401  (unused here; perfbench's tracer test reads it)
    transition_angular_frequency,
)
from .config import (
    ApparatusEntry,
    RunConfig,
    load_config,
    to_dict,
    to_ensemble_spec,
    to_field_config,
    to_pulses,
)
from .dynamics import WavepacketState, spread_width
from .errors import ConfigError, PhysicsDomainError
from .phase_space import (
    MonteCarloResult,
    cell_polygon,
    run_monte_carlo,
    selection_cell,
)
from .probability import RULE_ORDER, transition_probability
from .selection import select, validity_diagnostic, velocity_width

_TWO_PI = 2.0 * np.pi
# Rows formatted at a time.  A float column's temporaries then peak near
# 0.75 MB and a block's table near 0.9 MB, small enough to be reused from
# the heap instead of being mapped and faulted in afresh for every block.
_CSV_BLOCK = 8192
# Opened without truncation: freeing a file's old blocks is slow under discard.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.16e}"


# The "%.16e" kernel.  For |x| in [1e-11, 1e17), k = floor(log10|x|) and
# q = 16 - k lie in [0, 27], and 10**q = 2**q * 5**q with 5**27 < 2**64 is
# exact in an x87 extended or IEEE quad long double.  Its product with |x|,
# y in [1e16, 1e17), is then within half an ulp of the exact Y = |x| * 10**q,
# and that ulp, at most 2**-7, divides 1/2.  So unless y is itself a tie (a
# half-integer), Y lies on the same side of every tie as y, and rint(y) is
# Y rounded to the 17-digit mantissa.  It stays below 1e17: the largest
# double below each power of ten up to 1e17 is more than 4e-17 below it.
# NaN is written as "nan"; every other value goes through _format_cell, as
# does every value on a platform with another long double.
_EXACT = np.finfo(np.longdouble).nmant in (63, 112)
_POW10 = np.multiply.accumulate(np.r_[1, np.full(27, 10)].astype(np.longdouble))
_FIELD = 24  # widest cell: "-4.9406564584124654e-324"
_U64 = np.uint64


def _words(texts) -> np.ndarray:
    """4-byte ASCII texts as uint32 words that keep their bytes in memory order."""
    return np.frombuffer("".join(texts).encode(), dtype=np.uint32)


# A fast-path cell is six words: NUL, sign or NUL, the lead digit and the
# point; four groups of four digits; and the exponent.  An integer cell is
# one to three groups.  _GROUPS holds each group's word first as a leading
# group, with a NUL for each leading zero (0 keeps its "0"), then with all
# four digits, as _QUADS.
_HEADS = _words(f"\0{sign}{d}." for sign in ("\0", "-") for d in range(10))
_QUAD = np.uint32(10_000)
_DIGITS = np.arange(_QUAD)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
_LEADS = np.where(np.arange(_QUAD)[:, None] < [1000, 100, 10, 0], 0, _DIGITS)
_GROUPS = np.vstack([_LEADS, _DIGITS]).astype(np.uint8).view(np.uint32).ravel()
_QUADS = _GROUPS[_QUAD:]
_TAILS = _words(f"e{e:+03d}" for e in range(-11, 17))
_NAN = np.frombuffer(b"nan", np.uint8)


def _mantissas(x: np.ndarray):
    """(ok, mant, exp): x = mant * 10**(exp - 16) to 17 digits where ok."""
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(np.abs(x)))
    ok = (k >= -11) & (k <= 16) & _EXACT
    a = np.where(ok, np.abs(x), 1.0).astype(np.longdouble)
    q = np.where(ok, 16 - k, 16).astype(np.intp)
    y = a * _POW10[q]
    # log10 can be one off next to a power of ten: those go to _format_cell
    ok &= (y >= 1e16) & (y < 1e17)
    nearest = np.rint(y)
    # y - rint(y) is exact and, for y >= 1e16 > 2**53, a multiple of
    # ulp(y) >= 2**-10 on x87, so float64 holds it exactly.  On quad it can
    # round up to 0.5, which only sends a non-tie to _format_cell.
    ok &= np.abs((y - nearest).astype(np.float64)) < 0.5
    return ok, np.where(ok, nearest, 1e16).astype(_U64), 16 - q


def _float_column(values: np.ndarray) -> np.ndarray:
    """Each float's "%.16e" text as a NUL-padded uint8 row.

    The rows are _FIELD bytes wide, or 3 when every value is NaN.
    """
    x = np.asarray(values, dtype=np.float64)
    nan = np.isnan(x)
    if nan.all():
        return np.broadcast_to(_NAN, (len(x), len(_NAN)))
    some_nan = nan.any()
    numbers = x[~nan] if some_nan else x
    ok, mant, exp = _mantissas(numbers)
    # every integer op pairs equal dtypes: before NEP 50 a uint32 array times
    # a uint64 scalar that fits in 32 bits stayed uint32 and overflowed
    hi = mant // _U64(10**8)
    lo = (mant - hi * _U64(10**8)).astype(np.uint32)
    lead, hi = np.divmod(hi.astype(np.uint32), np.uint32(10**8))
    words = np.empty((_FIELD // 4, len(numbers)), np.uint32)
    np.take(_HEADS, lead + 10 * (numbers < 0), out=words[0])
    for row, group in enumerate((*np.divmod(hi, _QUAD), *np.divmod(lo, _QUAD))):
        np.take(_QUADS, group, out=words[row + 1])
    np.take(_TAILS, exp + 11, out=words[5])
    cells = np.ascontiguousarray(words.T)
    slow = np.flatnonzero(~ok)
    if slow.size:
        text = _text_column(numbers[slow].tolist())
        cells[slow] = 0
        cells.view(np.uint8)[slow, : text.shape[1]] = text
    if some_nan:
        out = np.zeros((len(x), _FIELD // 4), np.uint32)
        out[~nan] = cells
        out.view(np.uint8)[nan, : len(_NAN)] = _NAN
        cells = out
    return cells.view(np.uint8)


def _int_column(values: np.ndarray) -> np.ndarray:
    """Integers in [0, 2**32) as right-aligned, NUL-padded uint8 rows.

    Each four-digit group is one word of _GROUPS: NUL above a value's
    leading group, its leading-group word there and _QUADS below it.
    """
    # every operand is uint32, as in _float_column
    v = np.asarray(values).astype(np.uint32)
    width = len(str(int(v.max())))
    groups = -(-width // 4)
    words = np.empty((groups, len(v)), np.uint32)
    for row in range(groups):
        upto = v // np.uint32(10 ** (4 * (groups - 1 - row)))
        np.take(_GROUPS, np.where(upto < _QUAD, upto, upto % _QUAD + _QUAD), out=words[row])
        if row < groups - 1:
            words[row, upto == 0] = 0
    return np.ascontiguousarray(words.T).view(np.uint8)[:, 4 * groups - width :]


def _text_column(cells) -> np.ndarray:
    """Cells written by _format_cell as a NUL-padded uint8 matrix."""
    text = np.array([_format_cell(c).encode() for c in cells], dtype=bytes)
    return text.view(np.uint8).reshape(len(text), -1)


def _column(cells) -> np.ndarray:
    """A column's _format_cell text as NUL-padded uint8 rows."""
    values = np.asarray(cells)
    if values.dtype.kind == "f":
        return _float_column(values)
    if values.dtype.kind in "biu" and not (values < 0).any():
        if int(values.max()) < 2**32:
            return _int_column(values)
    return _text_column(cells)


def _lines(columns: list[np.ndarray]) -> bytes:
    """CSV lines as bytes from NUL-padded uint8 columns of equal length.

    Every byte of the table is written, so it needs no zeroing; the NULs
    drop out in the one compress that also makes the bytes.
    """
    width = sum(c.shape[1] + 1 for c in columns)
    table = np.empty((len(columns[0]), width), np.uint8)
    at = 0
    for col in columns:
        table[:, at : at + col.shape[1]] = col
        at += col.shape[1] + 1
        table[:, at - 1] = ord(",")
    table[:, -1] = ord("\n")
    return table[table != 0].tobytes()


def _csv(header: list[str], columns: list) -> bytes:
    """ASCII CSV of equal-length columns, written _CSV_BLOCK rows at a time.

    A column is an array or a sequence of cells; every cell reads as
    _format_cell writes it.
    """
    blocks = [(",".join(header) + "\n").encode()]
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        rows = slice(start, start + _CSV_BLOCK)
        blocks.append(_lines([_column(col[rows]) for col in columns]))
    return b"".join(blocks)


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


def _json_doc(command: str, run: RunConfig, result: dict) -> bytes:
    payload = {"command": command, "config": to_dict(run), "result": result}
    return (json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n").encode()


def _emit(outputs: list[tuple[bytes, str | None]]) -> None:
    """Write each (data, path) over path's bytes, cut to length if a regular file,
    or to stdout if path is None.  All are opened first: a failed open writes nothing."""
    with ExitStack() as stack:
        try:
            files = []
            for _, path in outputs:
                fd = None if path is None else os.open(path, _WRITE_FLAGS, 0o666)
                files.append(fd if fd is None else stack.enter_context(os.fdopen(fd, "wb")))
            for (data, path), out in zip(outputs, files):
                if out is None:
                    sys.stdout.write(data.decode())
                    continue
                # closed here, so a later output to the same file writes over it
                with out:
                    out.write(data)
                    if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                        out.truncate()
        except OSError as exc:
            name = "stdout" if path is None else repr(path)
            raise ConfigError(f"cannot write {name}: {exc.strerror or exc}") from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def cmd_scan(run: RunConfig, cfg: FieldConfig, pulses, csv_path) -> bytes:
    _require(run.scan is not None, "scan command needs a 'scan' section")
    omega_ref = pulses[0].omega_A if pulses else cfg.species.delta_W
    lower = StretchedBranch(sigma=run.sigma, level=Level.LOWER)
    upper = StretchedBranch(sigma=run.sigma, level=Level.UPPER)
    z = np.linspace(run.scan.z_min, run.scan.z_max, run.scan.points)
    x = field_coordinate(cfg, z)
    v_lower = eigenvalue(lower, x, cfg.species)
    v_upper = eigenvalue(upper, x, cfg.species)
    omega = transition_angular_frequency(lower, z, cfg)
    return _csv(
        ["z_m", "kz", "V_minus_J", "V_plus_J", "transition_Hz", "detuning_rad_s"],
        [z, x, v_lower, v_upper, omega / _TWO_PI, omega - omega_ref],
    )


def cmd_select(run: RunConfig, cfg: FieldConfig, pulses, csv_path) -> dict:
    _require(len(pulses) >= 1, "select command needs at least one pulse")
    # the apparatus lever arm, or ApparatusEntry's default without one
    displacement = (run.apparatus or ApparatusEntry).displacement
    sels = [select(pulse, cfg) for pulse in pulses]
    cell = selection_cell(*sels, cfg) if len(sels) == 2 else None
    per_pulse = []
    for i, (pulse, sel) in enumerate(zip(pulses, sels)):
        stability = asdict(app.stability_budget(sel, cfg, displacement))
        entry = {
            "index": i,
            "t0_s": pulse.t0,
            "tau_s": pulse.tau,
            "omega_A_rad_s": pulse.omega_A,
            "z_center_m": sel.z_center,
            "position_width_m": sel.position_width,
            "position_width_low_field_m": sel.position_width_low_field,
            "rabi_at_resonance_rad_s": pulse.rabi_at_resonance,
            "transition_slope_rad_s_per_m": sel.transition_slope,
            "velocity_width_m_s": (
                None if cell is None else velocity_width(sel.position_width, cell.delta_t)
            ),
            "stability": stability,
        }
        if run.ensemble is not None:
            dz0 = run.ensemble.dz0
            elapsed = pulse.t0 - pulses[0].t0
            dz_now = spread_width(dz0, elapsed, cfg.species)
            # band-center packet: zero mean momentum offset from resonance
            entry["validity_diagnostic"] = validity_diagnostic(
                pulse,
                cfg,
                momentum=0.0,
                width_initial=dz0,
                width_at_pulse=dz_now,
                t_pulse=elapsed,
            )
            entry["packet_width_at_pulse_m"] = dz_now
        per_pulse.append(entry)
    result: dict = {"pulses": per_pulse, "kappa_per_m": kappa(cfg)}
    if cell is None:
        result["note"] = "velocity widths need two pulses"
    else:
        result["pair"] = {
            "delta_t_s": cell.delta_t,
            "v_center_m_s": cell.v_center,
            "velocity_support_m_s": cell.velocity_support,
            "cell_area_m2_s": cell.area,
        }
    return result


def cmd_probability(run: RunConfig, cfg: FieldConfig, pulses, csv_path) -> dict:
    _require(len(pulses) >= 1, "probability command needs at least one pulse")
    _require(
        run.ensemble is not None,
        "probability command needs an 'ensemble' section (for dz0)",
    )
    dz0 = run.ensemble.dz0
    per_pulse = []
    for i, pulse in enumerate(pulses):
        z_c = select(pulse, cfg).z_center
        elapsed = pulse.t0 - pulses[0].t0
        dz_now = spread_width(dz0, elapsed, cfg.species)
        state = WavepacketState.minimum_uncertainty(
            z=z_c, v=0.0, dz=dz_now, level=Level.LOWER, sigma=run.sigma
        )
        p, error = transition_probability(
            state, pulse, cfg, settings=run.quadrature, detail=True
        )
        per_pulse.append(
            {
                "index": i,
                "t0_s": pulse.t0,
                "z_center_m": z_c,
                "packet_width_m": dz_now,
                "probability": p,
                "quadrature": {"nodes": RULE_ORDER, "error": error},
            }
        )
    return {"dz0_m": dz0, "pulses": per_pulse}


def cmd_bands(run: RunConfig, cfg: FieldConfig, pulses, csv_path) -> bytes:
    _require(len(pulses) >= 2, "bands command needs two pulses")
    cell = selection_cell(select(pulses[0], cfg), select(pulses[1], cfg), cfg)
    v_half = cell.velocity_support  # draw band edges over twice the cell extent
    v = (cell.v_center - v_half, cell.v_center + v_half)
    rows = []
    for name, band in (("first_band", cell.band_first), ("second_band", cell.band_second)):
        for side, z in zip(("low", "high"), zip(*map(band.edges, v))):
            rows += [(f"{name}_{side}", j, z[j], v[j]) for j in (0, 1)]
    rows += [("cell", j, *corner) for j, corner in enumerate(cell_polygon(cell))]
    return _csv(["element", "vertex", "z_m", "v_m_s"], list(zip(*rows)))


def simulation_csv(result: MonteCarloResult) -> bytes:
    """Per-atom CSV for a Monte Carlo result; NaN marks lost atoms."""
    return _csv(
        ["atom_index", "z0_m", "v0_m_s", "survived_first", "survived_both",
         "z_final_m", "v_final_m_s"],
        [np.arange(result.n_total), result.z0, result.v0, result.survived_first,
         result.survived_both, result.z_final, result.v_final],
    )


def cmd_simulate(run: RunConfig, cfg: FieldConfig, pulses, csv_path) -> tuple[bytes, dict]:
    _require(len(pulses) >= 2, "simulate command needs two pulses")
    spec = to_ensemble_spec(run)
    _require(csv_path is not None, "simulate needs a per-atom CSV path (--csv)")
    result = run_monte_carlo(
        spec, pulses[0], pulses[1], cfg, window_sigmas=run.quadrature.window_sigmas
    )
    summary = result.summary()
    inside = int(np.count_nonzero(result.cell.contains(result.z_final, result.v_final)))
    summary["n_survivors_in_cell"] = inside
    summary["n_survivors_outside_cell"] = result.n_survived_both - inside
    summary["per_atom_csv"] = csv_path
    return simulation_csv(result), summary


def cmd_coils(run: RunConfig, cfg: FieldConfig, pulses, csv_path) -> dict:
    coils = run.apparatus
    _require(coils is not None, "coils command needs an 'apparatus' section")
    grad = app.gradient_at_center(coils)
    lin = app.linearity_region(coils)
    span = min(coils.radius, coils.half_separation)
    d_opt = app.max_gradient_half_separation(coils.radius)
    result = {
        "gradient_T_per_m": grad,
        "gradient_G_per_cm": grad * 1e2,
        "configured_gradient_T_per_m": run.field.gradient,
        "gradient_ratio_to_configured": (
            grad / run.field.gradient if run.field.gradient != 0.0 else None
        ),
        "current_for_configured_gradient_A": (
            app.current_for_gradient(
                run.field.gradient, coils.radius, coils.half_separation, coils.turns
            )
            if run.field.gradient != 0.0
            else None
        ),
        "linearity_region_m": lin,
        "linearity_fraction_of_geometry": lin / span,
        "optimal_half_separation_m": d_opt,
        "is_max_gradient_geometry": abs(coils.half_separation - d_opt) <= 1e-9 * d_opt,
        "shifted_zero_m": (
            app.shifted_zero(run.field.gradient, run.field.bias)
            if run.field.gradient != 0.0
            else None
        ),
    }
    if pulses:
        sel = select(pulses[0], cfg)
        result["stability"] = {
            **asdict(app.stability_budget(sel, cfg, coils.displacement)),
            "rabi_rad_s": pulses[0].rabi_at_resonance,
            "position_width_m": sel.position_width,
        }
    return result


# Each command takes the run, its field model, its pulses and simulate's --csv path,
# and returns CSV bytes, a JSON result, or simulate's per-atom CSV bytes and result.
_COMMANDS = {
    "scan": cmd_scan,
    "select": cmd_select,
    "probability": cmd_probability,
    "bands": cmd_bands,
    "simulate": cmd_simulate,
    "coils": cmd_coils,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwselect",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("config", help="YAML run configuration file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help="override a config entry, e.g. --set ensemble.n=1000",
    )
    parser.add_argument(
        "-o", "--output", metavar="PATH", help="write the primary artifact here instead of stdout"
    )
    parser.add_argument("--csv", metavar="PATH", help="simulate only: per-atom CSV path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.csv is not None and args.command != "simulate":
        parser.error("--csv applies only to simulate")
    try:
        run = load_config(args.config, args.overrides)
        cfg = to_field_config(run)
        out = _COMMANDS[args.command](run, cfg, to_pulses(run, cfg), args.csv)
        # simulate returns its per-atom CSV bytes ahead of its summary
        *csv, out = out if isinstance(out, tuple) else (out,)
        if isinstance(out, dict):
            out = _json_doc(args.command, run, out)
        _emit([*zip(csv, [args.csv]), (out, args.output)])
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PhysicsDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0
