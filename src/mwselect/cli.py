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
from collections.abc import Iterable, Iterator
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
# Rows formatted at a time.  A block's row table then stays near 0.6 MB
# (0.9 MB where the final columns are wide) and its temporaries near 0.1 MB
# each.  4096 rows fault a third as often but take as long, 16384 longer.
_CSV_BLOCK = 8192
# Opened without truncation: freeing a file's old blocks is slow under discard.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _format_cell(value) -> str:
    if isinstance(value, float):  # np.float64 too; never a str, bool or int
        return f"{value:.16e}"
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.16e}"


# The "%.16e" kernel, in float64 alone.  For |x| in [1e-29, 1e17), k =
# floor(log10|x|) and q = 16 - k lie in [0, 45], and 10**q = 2**q * 5**q
# with 5**q < 2**105 is exactly the double-double _POW_HI[q] + _POW_LO[q].
# Dekker's product of |x| and _POW_HI[q], each split in halves by
# Veltkamp, is exact: |x| * _POW_HI[q] = p + e.  So the exact Y = |x| *
# 10**q is p + e + |x| * _POW_LO[q], and p is an integer where Y >= 1e16.
# With r = fl(e + fl(|x| * _POW_LO[q])) and n = rint(r), f = r - n is exact
# and within 3e-15 of Y - (p + n): where Y < 1e17 < 2**57, |e| <= 8 and
# |x| * _POW_LO[q] < 12, so each of the two roundings is at most 2**-49.
# Unless f lies within _TIE of +-1/2, p + n is Y rounded to the 17-digit
# mantissa.  log10 can pick the wrong decade next to a power of ten; the
# mantissa is then 10**17 (as it is when Y rounds up to 10**17), below
# 10**16, or 10**16 with Y just below it, which f < 0 shows: the doubles
# next to each power of ten in range are at least 1.1e-18 of it away, so
# there |Y - 1e16| >= 0.011.  Every value left out goes through
# _format_cell.
_TIE = 2.0**-46
_SPLIT = 2.0**27 + 1.0  # Veltkamp's constant for float64
_POW_HI = np.array([float(10**q) for q in range(46)])
_POW_LO = np.array([float(10**q - int(h)) for q, h in enumerate(_POW_HI)])
_MIN_EXP = -29
# every integer op pairs equal dtypes: before NEP 50 an array op with a
# Python int or a narrower scalar chose its dtype from the scalar's value
_M16, _M17, _M8 = np.int64(10**16), np.int64(10**17), np.int64(10**8)
_U8, _QUAD = np.uint32(10**8), np.uint32(10_000)


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo, each with at most 26 significant bits."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


def _words(texts) -> np.ndarray:
    """4-byte ASCII texts as uint32 words that keep their bytes in memory order."""
    return np.frombuffer("".join(texts).encode(), dtype=np.uint32)


# A cell's first byte is its lead: the "," before it or, in a row's first
# cell, the "\n" that ends the row before.  A fast-path float cell is six
# words: the lead, sign or NUL, the lead digit and the point; four groups
# of four digits; and the exponent.  An integer cell is one to three groups.
# _GROUPS holds each group's word first as a leading group, with a NUL for
# each leading zero (0 keeps its "0"), then with all four digits, as _QUADS.
_LEADS = ("\n", ",")
_HEADS = {lead: _words(f"{lead}{sign}{d}." for sign in ("\0", "-") for d in range(10))
          for lead in _LEADS}
_NANS = {lead: _words([f"{lead}nan"]) for lead in _LEADS}
# A narrow float column's finite row holds a mark: its lead and _MARK, a
# byte no number's text holds.  Narrowing a column saves about 0.09 ms of
# kernel calls per block and costs about 1 us per finite cell spliced in,
# so it pays up to about 1/100 of a block's rows finite.
_MARK = b"\x01"
_MARKS = {lead: _words([f"{lead}{_MARK.decode()}\0\0"]) for lead in _LEADS}
_SPARSE = 128
_DIGITS = np.arange(_QUAD)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
_TOP = np.where(np.arange(_QUAD)[:, None] < [1000, 100, 10, 0], 0, _DIGITS)
_GROUPS = np.vstack([_TOP, _DIGITS]).astype(np.uint8).view(np.uint32).ravel()
_QUADS = _GROUPS[_QUAD:]
_TAILS = _words(f"e{e:+03d}" for e in range(_MIN_EXP, 17))
_FLOAT_WORDS = 6


def _mantissas(x: np.ndarray):
    """(ok, mant, exp): |x| = mant * 10**(exp - 16) to 17 digits where ok.

    x holds no NaN.  Where not ok, mant is 10**16 and exp is in [-29, 16].
    """
    a = np.abs(x)
    # values out of range (0, subnormals, huge, infinite) make infinities
    # and NaNs below, which are discarded
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k = np.floor(np.log10(a))
        exp = np.clip(k, _MIN_EXP, 16)
        ok = exp == k
        q = (16 - exp).astype(np.intp)
        big = np.take(_POW_HI, q)
        p = a * big
        a_hi, a_lo = _halves(a)
        b_hi, b_lo = _halves(big)
        e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
        r = e + a * np.take(_POW_LO, q)
        n = np.rint(r)
        f = r - n
        mant = p.astype(np.int64) + n.astype(np.int64)
    # |f| <= 1/2, so this leaves out every f within _TIE of +-1/2
    ok &= np.abs(f) < 0.5 - _TIE
    ok &= (mant < _M17) & ((mant > _M16) | ((mant == _M16) & (f >= 0.0)))
    return ok, np.where(ok, mant, _M16), exp.astype(np.intp)


def _text_column(cells) -> np.ndarray:
    """Cells written by _format_cell as a NUL-padded uint8 matrix."""
    text = np.array([_format_cell(c).encode() for c in cells], dtype=bytes)
    return text.view(np.uint8).reshape(len(text), -1)


def _put_text(out: np.ndarray, rows, lead: str, text: np.ndarray) -> None:
    """Write each text row, after lead and NUL-padded, over out[rows] (uint32)."""
    cells = np.zeros((len(text), out.shape[1] * 4), np.uint8)
    cells[:, 0] = ord(lead)
    cells[:, 1 : 1 + text.shape[1]] = text
    out[rows] = cells.view(np.uint32)


def _float_cells(x: np.ndarray, lead: str, narrow: bool):
    """(words, write, splices) for a float column; see _cells.

    Where narrow allows and the column is NaN in all but at most
    1/_SPARSE of its rows, it is one word a row: a NaN word, or a mark
    word for a finite row, whose _format_cell text is spliced in for the
    mark.  Any other column has the six words of a fast-path cell, or
    seven for a 24-character one from _format_cell; its NaN rows are a NaN
    word and NULs, and only its other rows are formatted.
    """
    nan = np.isnan(x)
    finite = None
    if nan.any():
        finite = np.flatnonzero(~nan)
        if narrow and finite.size * _SPARSE <= len(x):
            texts = [_format_cell(v).encode() for v in x[finite].tolist()]

            def write_narrow(out):
                np.copyto(out, _NANS[lead])
                out[finite] = _MARKS[lead]

            return 1, write_narrow, zip(finite.tolist(), texts)
        x = x[finite]
    ok, mant, exp = _mantissas(x)
    slow = np.flatnonzero(~ok)
    text = _text_column(x[slow].tolist()) if slow.size else None
    words = _FLOAT_WORDS if text is None else max(_FLOAT_WORDS, text.shape[1] // 4 + 1)

    def write(out):
        slot = out if finite is None else np.empty((len(x), words), np.uint32)
        top = mant // _M8
        lo = (mant - top * _M8).astype(np.uint32)
        top = top.astype(np.uint32)
        digit = top // _U8
        hi = top - digit * _U8
        at = words - _FLOAT_WORDS
        slot[:, :at] = 0
        slot[:, at] = np.take(_HEADS[lead], digit + np.uint32(10) * (x < 0))
        for i, group in enumerate((hi, lo)):
            upper = group // _QUAD
            slot[:, at + 1 + 2 * i] = np.take(_QUADS, upper)
            slot[:, at + 2 + 2 * i] = np.take(_QUADS, group - upper * _QUAD)
        slot[:, at + 5] = np.take(_TAILS, exp - _MIN_EXP)
        if slow.size:
            _put_text(slot, slow, lead, text)
        if finite is not None:
            out[:, 0] = _NANS[lead]
            out[:, 1:] = 0
            out[finite] = slot

    return words, write, ()


def _int_cells(v: np.ndarray, lead: str):
    """(words, write) for integers in [0, 2**32); see _cells.

    Each four-digit group is one word of _GROUPS: NUL above a value's
    leading group, its leading-group word there and _QUADS below it.  The
    digits are right-aligned, so the first byte is a NUL for every value
    and takes the lead.
    """
    v = v.astype(np.uint32)
    width = len(str(int(v.max())))
    groups = -(-width // 4)
    words = width // 4 + 1

    def write(out):
        out[:, : words - groups] = 0
        above = None
        for row in range(groups):
            scale = 10 ** (4 * (groups - 1 - row))
            upto = v // np.uint32(scale) if scale > 1 else v
            index = upto
            if above is not None:
                group = upto - above * _QUAD
                index = np.where(above > 0, group + _QUAD, group)
            col = out[:, words - groups + row]
            col[:] = np.take(_GROUPS, index)
            if row < groups - 1:
                col[upto == 0] = 0
            above = upto
        out.view(np.uint8)[:, 0] = ord(lead)

    return words, write


def _cells(cells, lead: str, narrow: bool):
    """(words, write, splices) for a column of cells.

    write(out) puts each cell's lead and _format_cell text, NUL-padded,
    in a (rows, words) uint32 slot.  splices holds (row, text) for each
    mark it writes, in row order.
    """
    values = np.asarray(cells)
    if values.dtype.kind == "f":
        return _float_cells(values.astype(np.float64, copy=False), lead, narrow)
    if values.dtype.kind in "biu" and not (values < 0).any():
        if int(values.max()) < 2**32:
            return *_int_cells(values, lead), ()
    text = _text_column(cells)
    return text.shape[1] // 4 + 1, lambda out: _put_text(out, slice(None), lead, text), ()


def _lines(columns: list) -> list:
    """Each row's cells, led by "\n" and then ",", as pieces of bytes.

    The row table lives in a bytearray, so the NULs drop out in the one
    pass that makes the block's bytes, with no copy of the table before it.
    The block is then cut at each mark, and the pieces are views of it with
    the marks' texts between them.
    """
    # a text cell may hold the mark byte, so a block with one has no marks
    narrow = all(np.asarray(col).dtype.kind in "biuf" for col in columns)
    cells = [_cells(col, _LEADS[i > 0], narrow) for i, col in enumerate(columns)]
    width = sum(words for words, _, _ in cells)
    buffer = bytearray(4 * width * len(columns[0]))
    table = np.frombuffer(buffer, np.uint32).reshape(-1, width)
    at = 0
    marks = []
    for i, (words, write, splices) in enumerate(cells):
        write(table[:, at : at + words])
        at += words
        marks += [(row, i, text) for row, text in splices]
    block = buffer.translate(None, b"\0")
    view, start, pieces = memoryview(block), 0, []
    for _, _, text in sorted(marks):
        end = block.find(_MARK, start)
        pieces += (view[start:end], text)
        start = end + 1
    pieces.append(view[start:])
    return pieces


def _csv(header: list[str], columns: list) -> Iterator[bytes]:
    """ASCII CSV of equal-length columns, made _CSV_BLOCK rows at a time.

    A column is an array or a sequence of cells; every cell reads as
    _format_cell writes it.  Each block's pieces are yielded as they are
    made, so the whole CSV is never held.
    """
    yield ",".join(header).encode()
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        rows = slice(start, start + _CSV_BLOCK)
        yield from _lines([col[rows] for col in columns])
    yield b"\n"


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


def _emit(outputs: list[tuple[Iterable[bytes], str | None]]) -> None:
    """Write each (chunks, path) over path's bytes, chunk by chunk as they are
    made, and cut it to length if a regular file; to stdout if path is None.
    All are opened first: a failed open writes nothing."""
    with ExitStack() as stack:
        try:
            files = []
            for _, path in outputs:
                fd = None if path is None else os.open(path, _WRITE_FLAGS, 0o666)
                files.append(fd if fd is None else stack.enter_context(os.fdopen(fd, "wb")))
            for (chunks, path), out in zip(outputs, files):
                if out is None:
                    for chunk in chunks:
                        sys.stdout.write(str(chunk, "ascii"))
                    continue
                # closed here, so a later output to the same file writes over it
                with out:
                    for chunk in chunks:
                        out.write(chunk)
                    if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                        out.truncate()
        except OSError as exc:
            name = "stdout" if path is None else repr(path)
            raise ConfigError(f"cannot write {name}: {exc.strerror or exc}") from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def cmd_scan(run: RunConfig, cfg: FieldConfig, pulses, csv_path) -> Iterator[bytes]:
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


def cmd_bands(run: RunConfig, cfg: FieldConfig, pulses, csv_path) -> Iterator[bytes]:
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


def _simulation_blocks(result: MonteCarloResult) -> Iterator[bytes]:
    return _csv(
        ["atom_index", "z0_m", "v0_m_s", "survived_first", "survived_both",
         "z_final_m", "v_final_m_s"],
        [np.arange(result.n_total), result.z0, result.v0, result.survived_first,
         result.survived_both, result.z_final, result.v_final],
    )


def simulation_csv(result: MonteCarloResult) -> bytes:
    """Per-atom CSV for a Monte Carlo result; NaN marks lost atoms."""
    return b"".join(_simulation_blocks(result))


def cmd_simulate(
    run: RunConfig, cfg: FieldConfig, pulses, csv_path
) -> tuple[Iterator[bytes], dict]:
    _require(len(pulses) >= 2, "simulate command needs two pulses")
    spec = to_ensemble_spec(run)
    _require(csv_path is not None, "simulate needs a per-atom CSV path (--csv)")
    result = run_monte_carlo(
        spec, pulses[0], pulses[1], cfg, window_sigmas=run.quadrature.window_sigmas
    )
    summary = result.summary()
    # z_final and v_final are NaN, and so outside the cell, for every atom lost
    both = result.survived_both
    inside = int(np.count_nonzero(
        result.cell.contains(result.z_final[both], result.v_final[both])
    ))
    summary["n_survivors_in_cell"] = inside
    summary["n_survivors_outside_cell"] = result.n_survived_both - inside
    summary["per_atom_csv"] = csv_path
    return _simulation_blocks(result), summary


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
# and returns CSV blocks, a JSON result, or simulate's per-atom CSV blocks and result.
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
        # simulate returns its per-atom CSV blocks ahead of its summary
        *csv, out = out if isinstance(out, tuple) else (out,)
        if isinstance(out, dict):
            out = [_json_doc(args.command, run, out)]
        _emit([*zip(csv, [args.csv]), (out, args.output)])
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PhysicsDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0
