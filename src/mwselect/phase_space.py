"""Phase-space geometry of two-pulse selection and a Monte Carlo check.

Each pulse accepts a position slice of full width delta_z at its own
time.  Mapped to the time of the second pulse through the upper-branch
ballistic flow, the first pulse's slice becomes a tilted band in the
(z, v) plane and the second stays vertical; atoms passing both lie in
the intersection parallelogram, which is what "velocity selection"
means here.  run_monte_carlo samples a thermal cloud through the same
two pulses and reports who survived.

Atoms are assumed prepared in the lower stretched state; the first pulse
transfers the selected slice to the upper branch (which then falls with
the effective g), and the second transfers it back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .breit_rabi import FieldConfig, Level
from .dynamics import g_effective, spread_width
from .errors import LevelMismatchError
from .probability import (
    averaged_probability_batch,
    averaged_probability_bound,
    interpolation_tolerance,
)
from .selection import PulseSpec, SelectionResult, detuning, select

_TABLE_STEP = 0.125  # largest grid step of a pulse's probability table, in dz
# Fixed cost of one averaged_probability_batch call and its interpolation, in
# rule rows: about 90 us against 11-13 us per row (Python 3.11, numpy 2)
_CALL_ROWS = 8

# Largest ensemble.n and scan.points.  At its peak a run holds about 250
# bytes per simulate atom (its draws, outcomes and CSV line) or 330 per scan
# point, so this keeps one run under about 3.5 GB; a larger Monte Carlo can
# be split into runs with different seeds.
_MAX_SIZE = 10**7


@dataclass(frozen=True)
class PhaseSpaceBand:
    """Position band {(z, v): |z + a_v*v - center| <= half_width}.

    Coordinates are taken at the second pulse's time; a_v encodes how
    far back in time the pulse acts (-delta_t for the first, 0 for the
    second).
    """

    a_v: float
    center: float
    half_width: float

    def __post_init__(self) -> None:
        if self.half_width <= 0.0:
            raise ValueError("half_width must be positive")

    def contains(self, z, v):
        """Membership test; vectorizes, and NaN coordinates test False."""
        s = np.asarray(z) + self.a_v * np.asarray(v)
        return np.abs(s - self.center) <= self.half_width


@dataclass(frozen=True)
class SelectionCell:
    """Bounded intersection of the two pulse bands.

    z_center/v_center is the cell midpoint; velocity_support the full
    extent of selected velocities; area the parallelogram area
    delta_z1*delta_z2/delta_t.
    """

    band_first: PhaseSpaceBand
    band_second: PhaseSpaceBand
    z_center: float
    v_center: float
    velocity_support: float
    area: float

    def contains(self, z, v):
        return self.band_first.contains(z, v) & self.band_second.contains(z, v)

    def dilated(self, factor: float) -> "SelectionCell":
        """Same cell with both half-widths scaled by factor (tolerance tests)."""
        if factor <= 0.0:
            raise ValueError("factor must be positive")
        b1, b2 = self.band_first, self.band_second
        return _cell(
            PhaseSpaceBand(b1.a_v, b1.center, b1.half_width * factor),
            PhaseSpaceBand(b2.a_v, b2.center, b2.half_width * factor),
        )


def selection_cell(
    first: SelectionResult, second: SelectionResult, cfg: FieldConfig
) -> SelectionCell:
    """The velocity class two resolved pulses select, their centers delta_t apart.

    The second pulse's slice is a vertical band at its own time.  The
    first pulse's slice is pushed forward to it: backtracking z(t2) -
    v(t2)*delta_t - g_eff*delta_t^2/2 recovers the position at the first
    pulse, so that band tilts with slope 1/delta_t in (z, v).  It uses the
    upper-branch g because accepted atoms spend the gap on the upper
    branch.
    """
    delta_t = second.pulse.t0 - first.pulse.t0
    if delta_t <= 0.0:
        raise ValueError("the second pulse must come after the first")
    g = g_effective(cfg.species, cfg.eta, Level.UPPER, first.pulse.branch.sigma)
    return _cell(
        PhaseSpaceBand(-delta_t, first.z_center + 0.5 * g * delta_t * delta_t,
                       0.5 * first.position_width),
        PhaseSpaceBand(0.0, second.z_center, 0.5 * second.position_width),
    )


def _cell(b1: PhaseSpaceBand, b2: PhaseSpaceBand) -> SelectionCell:
    """Intersect two bands; det = a_v2 - a_v1 = delta_t > 0 for a pulse pair."""
    det = b2.a_v - b1.a_v
    # cell center solves both band equations at their centers
    z_c = (b1.center * b2.a_v - b2.center * b1.a_v) / det
    v_c = (b2.center - b1.center) / det
    # velocity extent: v ranges over solutions as both offsets span their widths
    v_half = (b1.half_width + b2.half_width) / det
    area = 4.0 * b1.half_width * b2.half_width / det
    return SelectionCell(b1, b2, z_c, v_c, 2.0 * v_half, area)


def cell_polygon(cell: SelectionCell) -> np.ndarray:
    """Vertices of the cell as a (4, 2) array of (z, v), counterclockwise.

    The corners run counterclockwise in the band offsets, and the map to
    (z, v) has determinant 1/det > 0, so it keeps that orientation.
    """
    b1, b2 = cell.band_first, cell.band_second
    det = b2.a_v - b1.a_v
    corners = []
    for s1, s2 in ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)):
        c1 = b1.center + s1 * b1.half_width
        c2 = b2.center + s2 * b2.half_width
        z = (c1 * b2.a_v - c2 * b1.a_v) / det
        v = (c2 - c1) / det
        corners.append((z, v))
    return np.asarray(corners)


def marginal_velocity(
    cell: SelectionCell, resolution: int = 513
) -> tuple[np.ndarray, np.ndarray]:
    """Velocity marginal of the uniform density on the cell.

    Returns (v, density) with density integrating to 1 over the support;
    for equal band widths the shape is an isosceles triangle.
    """
    if resolution < 3:
        raise ValueError("resolution must be at least 3")
    b1, b2 = cell.band_first, cell.band_second
    half = 0.5 * cell.velocity_support
    v = np.linspace(cell.v_center - half, cell.v_center + half, resolution)
    # slice length in z at fixed v: overlap of the two position intervals
    lo = np.maximum(
        b1.center - b1.half_width - b1.a_v * v, b2.center - b2.half_width - b2.a_v * v
    )
    hi = np.minimum(
        b1.center + b1.half_width - b1.a_v * v, b2.center + b2.half_width - b2.a_v * v
    )
    length = np.clip(hi - lo, 0.0, None)
    return v, length / cell.area


_DECISION_MODES = ("bernoulli", "band")


@dataclass(frozen=True)
class EnsembleSpec:
    """Thermal cloud and sampling policy for the Monte Carlo run.

    Positions and velocities are drawn from independent Gaussians at the
    first pulse's time; dz0 is each atom's quantum packet width there.
    decision_mode is "bernoulli" (accept with the flip probability
    averaged over the packet) or "band" (accept exactly when the Rabi
    envelope is at least 1/2, the deterministic geometric rule).
    """

    n: int
    z_mean: float
    z_rms: float
    v_mean: float
    v_rms: float
    dz0: float
    seed: int
    sigma: int = 1
    decision_mode: str = "bernoulli"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.n > _MAX_SIZE:
            raise ValueError(f"n must be at most {_MAX_SIZE}")
        cloud = (self.z_mean, self.z_rms, self.v_mean, self.v_rms)
        if not all(map(math.isfinite, cloud)):
            raise ValueError("z_mean, z_rms, v_mean and v_rms must be finite")
        if self.z_rms < 0.0 or self.v_rms < 0.0:
            raise ValueError("z_rms and v_rms must be nonnegative")
        # 1 pm is far below any atomic packet; 1 m is the position range
        if not 1e-12 <= self.dz0 <= 1.0:
            raise ValueError("dz0 must lie in [1 pm, 1 m]")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.sigma not in (1, -1):
            raise ValueError("sigma must be +1 or -1")
        if self.decision_mode not in _DECISION_MODES:
            raise ValueError(f"decision_mode must be one of {_DECISION_MODES}")


@dataclass(frozen=True)
class MonteCarloResult:
    """Per-atom outcomes plus the predicted cell.

    z_final/v_final are at the second pulse's time and are NaN for atoms
    lost at either stage.  quadrature_rows counts, at pulse 1 and at
    pulse 2, the atoms whose decision the Rabi-envelope bound left open
    (decided from the pulse's table or by their own packet average); it
    is bookkeeping and stays out of summary().
    """

    z0: np.ndarray
    v0: np.ndarray
    survived_first: np.ndarray
    survived_both: np.ndarray
    z_final: np.ndarray
    v_final: np.ndarray
    cell: SelectionCell
    quadrature_rows: tuple[int, int]

    @property
    def n_total(self) -> int:
        return self.z0.size

    @property
    def n_survived_first(self) -> int:
        return int(np.count_nonzero(self.survived_first))

    @property
    def n_survived_both(self) -> int:
        return int(np.count_nonzero(self.survived_both))

    def summary(self) -> dict:
        """Scalar digest used by the CLI and tests."""
        out = {
            "n_total": self.n_total,
            "n_survived_first": self.n_survived_first,
            "n_survived_both": self.n_survived_both,
            "fraction_both": self.n_survived_both / self.n_total,
            "cell_z_center_m": self.cell.z_center,
            "cell_v_center_m_s": self.cell.v_center,
            "cell_velocity_support_m_s": self.cell.velocity_support,
            "cell_area_m2_s": self.cell.area,
        }
        if self.n_survived_both:
            vf = self.v_final[self.survived_both]
            zf = self.z_final[self.survived_both]
            out.update(
                survivor_v_mean_m_s=float(np.mean(vf)),
                survivor_v_std_m_s=float(np.std(vf)),
                survivor_v_min_m_s=float(np.min(vf)),
                survivor_v_max_m_s=float(np.max(vf)),
                survivor_v_range_m_s=float(np.max(vf) - np.min(vf)),
                survivor_z_mean_m=float(np.mean(zf)),
                survivor_z_std_m=float(np.std(zf)),
            )
        else:
            out.update(
                survivor_v_mean_m_s=None,
                survivor_v_std_m_s=None,
                survivor_v_min_m_s=None,
                survivor_v_max_m_s=None,
                survivor_v_range_m_s=None,
                survivor_z_mean_m=None,
                survivor_z_std_m=None,
            )
        return out


def _draws(spec: EnsembleSpec) -> tuple[np.ndarray, ...]:
    """Initial z, v and the decision uniforms u1, u2.

    Each quantity has its own counter-based stream keyed by (seed, k)
    and filled in atom order, so atom i always gets element i: the draws
    do not depend on n.  u1 and u2 keep keys 2 and 4 (keys 3 and 5 fed a
    retired survival draw), so every seed draws what it always drew.
    """
    streams = [
        np.random.Generator(np.random.Philox(key=[spec.seed, k])) for k in (0, 1, 2, 4)
    ]
    n = spec.n
    z = spec.z_mean + spec.z_rms * streams[0].standard_normal(n)
    v = spec.v_mean + spec.v_rms * streams[1].standard_normal(n)
    return (z, v, *(rng.random(n) for rng in streams[2:]))


def _grid_points(lo: float, hi: float, n: int, dz: float) -> int:
    """Points of a table of step <= dz*_TABLE_STEP over [lo, hi], at most n + 1."""
    return math.ceil(min((hi - lo) / (_TABLE_STEP * dz), n)) + 1


def _densest_run(z: np.ndarray, dz: float) -> tuple[float, float, int]:
    """Ends and grid points of the sorted run of z a table saves most rows on.

    A table over the sorted positions z_(i)..z_(j) needs about
    (z_(j) - z_(i))/(_TABLE_STEP*dz) grid points in place of j - i + 1
    direct rows, so with s_k = k - z_(k)/(_TABLE_STEP*dz) the run
    maximising s_j - min_(i<=j) s_i saves the most.  A tie of z_(i) with
    its lower neighbour, or of z_(j) with its upper one, would score one
    less, so the run holds exactly the atoms with z_(i) <= z <= z_(j).
    """
    ordered = np.sort(z)
    # in place where it can be: a matched cloud leaves ~45k atoms open, and
    # each fresh array that size is paged in anew
    s = ordered / -(_TABLE_STEP * dz)
    s += np.arange(z.size)
    gain = np.minimum.accumulate(s)
    j = int(np.argmax(np.subtract(s, gain, out=gain)))
    i = int(np.argmin(s[: j + 1]))
    lo, hi = float(ordered[i]), float(ordered[j])
    return lo, hi, _grid_points(lo, hi, j - i + 1, dz)


def _accept(
    u: np.ndarray,
    z: np.ndarray,
    dz: float,
    pulse: PulseSpec,
    cfg: FieldConfig,
    spec: EnsembleSpec,
    window_sigmas: float,
) -> tuple[np.ndarray, int]:
    """One pulse's decisions for atoms at z, and how many the bound left open.

    In Bernoulli mode the packet average p is needed only for atoms
    with u below averaged_probability_bound: for the others u >= bound
    >= p, so u < p is false whatever the quadrature would give.  The
    densest sorted run of the open atoms (_densest_run) is tabulated on
    a grid of step <= dz*_TABLE_STEP if it has more atoms than grid
    points by over _CALL_ROWS, the cost of the extra batch call.  On
    the table, p is interpolated; an atom whose u is more than
    interpolation_tolerance from the interpolant is decided from it.
    The rest, and every open atom outside the run, are averaged one by
    one in one direct call.  So every decision equals
    u < averaged_probability_batch(z) bit for bit, and the table and the
    direct call span the open atoms' lowest and highest positions
    between them, so the phase check raises QuadratureError exactly when
    one call over every open atom would.
    """
    if spec.decision_mode == "band":
        return np.abs(detuning(z, pulse, cfg)) <= 2.0 * pulse.coupling_omega0, 0
    keep = u < averaged_probability_bound(
        z, dz, pulse, cfg, window_sigmas=window_sigmas
    )
    (rows,) = np.nonzero(keep)
    n_open = rows.size
    if n_open:
        z_open = z[rows]
        lo, hi, points = _densest_run(z_open, dz)
        run = (lo <= z_open) & (z_open <= hi)
        # the table adds a batch call, so it must save more than one's cost
        if points + _CALL_ROWS < np.count_nonzero(run):
            # linspace ends exactly at lo and hi, so the table's phase check
            # covers the same span as a direct call on the run would
            grid = np.linspace(lo, hi, points)
            table = averaged_probability_batch(
                grid, dz, pulse, cfg, window_sigmas=window_sigmas
            )
            approx = np.interp(z_open, grid, table)
            step = (hi - lo) / max(points - 1, 1)
            tol = interpolation_tolerance(step, dz, window_sigmas)
            sure = run & (np.abs(u[rows] - approx) > tol)
            keep[rows[sure]] = u[rows[sure]] < approx[sure]
            rows = rows[~sure]
    keep[rows] = u[rows] < averaged_probability_batch(
        z[rows], dz, pulse, cfg, window_sigmas=window_sigmas
    )
    return keep, n_open


def run_monte_carlo(
    spec: EnsembleSpec,
    pulse_first: PulseSpec,
    pulse_second: PulseSpec,
    cfg: FieldConfig,
    window_sigmas: float = 8.0,
) -> MonteCarloResult:
    """Sample the cloud through both pulses, their centers delta_t apart.

    All draws are made up front and all per-atom arithmetic is
    row-independent, so pulse 1 is decided for every atom at once and
    pulse 2 only for the pulse-1 survivors, each with at most one
    probability table (see _accept): the outcomes are bit-identical to
    averaging every atom at both pulses.  window_sigmas is the
    half-width of the packet-average window, in packet widths
    (QuadratureSettings.window_sigmas).
    """
    for pulse in (pulse_first, pulse_second):
        if pulse.branch.sigma != spec.sigma:
            raise LevelMismatchError(
                "pulse addresses a different stretched pair than the ensemble"
            )
    # the cell checks that the second pulse comes after the first
    cell = selection_cell(select(pulse_first, cfg), select(pulse_second, cfg), cfg)
    delta_t = pulse_second.t0 - pulse_first.t0

    z0, v0, u1, u2 = _draws(spec)
    dz_second = spread_width(spec.dz0, delta_t, cfg.species)
    g = g_effective(cfg.species, cfg.eta, Level.UPPER, spec.sigma)

    survived_first, rows1 = _accept(
        u1, z0, spec.dz0, pulse_first, cfg, spec, window_sigmas
    )
    (alive,) = np.nonzero(survived_first)
    z2 = z0[alive] + v0[alive] * delta_t - 0.5 * g * delta_t * delta_t
    ok2, rows2 = _accept(
        u2[alive], z2, dz_second, pulse_second, cfg, spec, window_sigmas
    )
    kept = alive[ok2]
    survived_both = np.zeros_like(survived_first)
    survived_both[kept] = True
    z_final = np.full(spec.n, np.nan)
    z_final[kept] = z2[ok2]
    v_final = np.full(spec.n, np.nan)
    v_final[kept] = v0[kept] - g * delta_t
    return MonteCarloResult(
        z0=z0,
        v0=v0,
        survived_first=survived_first,
        survived_both=survived_both,
        z_final=z_final,
        v_final=v_final,
        cell=cell,
        quadrature_rows=(rows1, rows2),
    )
