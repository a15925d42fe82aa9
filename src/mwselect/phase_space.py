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
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .breit_rabi import FieldConfig, Level
from .dynamics import g_effective, spread_width
from .errors import LevelMismatchError
from .probability import (
    averaged_probability_batch,
    averaged_probability_bound,
    averaged_probability_table,
    interpolation_tolerance,
    node_spacing,
)
from .selection import PulseSpec, SelectionResult, detuning, select

_BIN_STEP = 0.125  # smallest bin of the Rabi-envelope bound (_bin_bound), in dz
# Cost of one table grid point, in direct rows: 33-51 ns a point against
# 2.5-3.3 us a row of an averaged_probability_batch call of 1-32 rows, 1/64 to
# 1/74 of a row at any window_sigmas (2-core AMD EPYC, Python 3.11.7, numpy
# 2.4.6)
_POINT_ROWS = 1 / 64
# Fixed cost of one table call, in direct rows: 31-53 us at 2 points, 13-16
# rows, with the 2*100 points of its convolution's ends at any window_sigmas
# (same host)
_TABLE_ROWS = 14
# Atoms above which a pulse bins them for the Rabi-envelope bound (_bin_bound).
# Binning adds a bound call, 40 us at 1 atom against ~19 ns per atom at 2000
# (about 2100 atoms' worth), and a pass over the atoms.  With the cached rule
# and the convolution table, pulse 1 cost the same binned or not at 4000
# thermal atoms (236 us) and at 3000-4000 matched ones, and binning was
# 11-19% ahead at 6000-8000: the break-even is 3500-4000 atoms (same host)
_BIN_ATOMS = 4096

# Largest ensemble.n and scan.points.  At its peak a run holds 60-95 bytes
# per simulate atom (its draws and outcomes; the CSV is written a block at a
# time and never held whole) or 80-90 per scan point, so this keeps one run
# under about 1 GB; a larger Monte Carlo can be split into runs with
# different seeds.
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

    def edges(self, v):
        """Positions (low, high) of the band's two edges at velocity v."""
        return (self.center - self.half_width - self.a_v * v,
                self.center + self.half_width - self.a_v * v)


@dataclass(frozen=True)
class SelectionCell:
    """Intersection of the two pulse bands; every other quantity derives from them.

    delta_t, the bands' a_v gap, is the determinant of their two equations.
    """

    band_first: PhaseSpaceBand
    band_second: PhaseSpaceBand

    def __post_init__(self) -> None:
        if not self.delta_t > 0.0:
            raise ValueError("the second pulse must come after the first")

    @property
    def delta_t(self) -> float:
        return self.band_second.a_v - self.band_first.a_v

    def point(self, c1: float, c2: float) -> tuple[float, float]:
        """(z, v) where the first band's axis is at c1 and the second's at c2."""
        a1, a2, det = self.band_first.a_v, self.band_second.a_v, self.delta_t
        return (c1 * a2 - c2 * a1) / det, (c2 - c1) / det

    @property
    def z_center(self) -> float:
        return self.point(self.band_first.center, self.band_second.center)[0]

    @property
    def v_center(self) -> float:
        return self.point(self.band_first.center, self.band_second.center)[1]

    @property
    def velocity_support(self) -> float:
        b1, b2 = self.band_first, self.band_second
        return 2.0 * ((b1.half_width + b2.half_width) / self.delta_t)

    @property
    def area(self) -> float:
        b1, b2 = self.band_first, self.band_second
        return 4.0 * b1.half_width * b2.half_width / self.delta_t

    def contains(self, z, v):
        return self.band_first.contains(z, v) & self.band_second.contains(z, v)

    def dilated(self, factor: float) -> "SelectionCell":
        """Same cell with both half-widths scaled by factor (tolerance tests)."""
        if factor <= 0.0:
            raise ValueError("factor must be positive")
        b1, b2 = self.band_first, self.band_second
        return SelectionCell(replace(b1, half_width=b1.half_width * factor),
                             replace(b2, half_width=b2.half_width * factor))


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
    g = g_effective(cfg.species, cfg.eta, Level.UPPER, first.pulse.branch.sigma)
    return SelectionCell(
        PhaseSpaceBand(-delta_t, first.z_center + 0.5 * g * delta_t * delta_t,
                       0.5 * first.position_width),
        PhaseSpaceBand(0.0, second.z_center, 0.5 * second.position_width),
    )


def cell_polygon(cell: SelectionCell) -> np.ndarray:
    """Vertices of the cell as a (4, 2) array of (z, v), counterclockwise.

    The corners run counterclockwise in the band offsets, and the map to
    (z, v) has determinant 1/delta_t > 0, so it keeps that orientation.
    """
    b1, b2 = cell.band_first, cell.band_second
    return np.asarray([
        cell.point(b1.center + s1 * b1.half_width, b2.center + s2 * b2.half_width)
        for s1, s2 in ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))
    ])


def marginal_velocity(
    cell: SelectionCell, resolution: int = 513
) -> tuple[np.ndarray, np.ndarray]:
    """Velocity marginal of the uniform density on the cell.

    Returns (v, density) with density integrating to 1 over the support;
    for equal band widths the shape is an isosceles triangle.
    """
    if resolution < 3:
        raise ValueError("resolution must be at least 3")
    half = 0.5 * cell.velocity_support
    v = np.linspace(cell.v_center - half, cell.v_center + half, resolution)
    # slice length in z at fixed v: overlap of the two position intervals
    (lo1, hi1), (lo2, hi2) = cell.band_first.edges(v), cell.band_second.edges(v)
    length = np.clip(np.minimum(hi1, hi2) - np.maximum(lo1, lo2), 0.0, None)
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
    pulse 2, the atoms whose decision the Rabi-envelope bound pass left
    open (decided from the pulse's table or by their own packet
    average): each atom's own bound on a pulse of at most _BIN_ATOMS
    atoms, its bin's bound above, which leaves a superset open.  It is
    bookkeeping and stays out of summary().
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


def _stream(spec: EnsembleSpec, key: int) -> np.ndarray:
    """The draw of stream key: z (0) or v (1) from its Gaussian, u1 (2) or u2 (4).

    Each stream is counter-based, keyed by (seed, key) and filled in
    atom order, so atom i always gets element i: the draws do not depend
    on n.  u1 and u2 keep keys 2 and 4 (keys 3 and 5 fed a retired
    survival draw), so every seed draws what it always drew.  A Gaussian
    is scaled in place, which gives the floats of mean + rms * x.
    """
    rng = np.random.Generator(np.random.Philox(key=[spec.seed, key]))
    if key > 1:
        return rng.random(spec.n)
    mean, rms = (spec.z_mean, spec.z_rms) if key == 0 else (spec.v_mean, spec.v_rms)
    x = rng.standard_normal(spec.n)
    x *= rms
    x += mean
    return x


def _draws(spec: EnsembleSpec) -> tuple[np.ndarray, ...]:
    """Initial z, v and the decision uniforms u1, u2, drawn one after another."""
    return tuple(_stream(spec, key) for key in (0, 1, 2, 4))


# Atoms from which run_monte_carlo draws u1, v and u2 on its worker thread
# while it draws z and decides pulse 1 (numpy releases the GIL for each
# fill).  The handoff costs about 0.1 ms of a simulate call.  In-process
# cli.main, thread against serial: -8% at 2000 atoms, -2% to +1% at 8192
# (the break-even), +5% to +6% at 12000 and 16384 on either cloud, +8% at
# 50000 thermal (2-core AMD EPYC, Python 3.11.7, numpy 2.4.6)
_THREAD_ATOMS = 16384
_worker: tuple | None = None  # (pid, single-thread executor), made on first use
_worker_lock = threading.Lock()


def _draw_worker():
    """This process's draw thread: a forked child makes its own, as the
    parent's thread does not exist in it."""
    global _worker
    with _worker_lock:
        if _worker is None or _worker[0] != os.getpid():
            # imported here: it takes 2.4-3.8 ms, which no serial run needs
            from concurrent.futures import ThreadPoolExecutor

            _worker = (os.getpid(), ThreadPoolExecutor(1, "mwselect-draws"))
        return _worker[1]


def _draw_and_decide(spec: EnsembleSpec, decide) -> tuple:
    """z0, v0, u2 and decide(z0, u1), the pulse-1 decision.

    From _THREAD_ATOMS atoms, u1, v and u2 are drawn in that order on
    the worker thread while this thread draws z and decides pulse 1 as
    soon as u1 is in.  Each stream keeps its own generator, used by one
    thread, so every array is that of _draws.  v and u2 are collected
    even when the decision raises, so no draw outlives the call.
    """
    if spec.n < _THREAD_ATOMS:
        z0, v0, u1, u2 = _draws(spec)
        return z0, v0, u2, decide(z0, u1)
    later = [_draw_worker().submit(_stream, spec, key) for key in (2, 1, 4)]
    try:
        z0 = _stream(spec, 0)
        first = decide(z0, later[0].result())
    finally:
        v0, u2 = (future.result() for future in later[1:])
    return z0, v0, u2, first


def _densest_run(z: np.ndarray, step: float) -> tuple[float, float, int]:
    """Ends and atoms of the sorted run of z a table saves most on, at grid step step.

    A table over the sorted positions z_(i)..z_(j) costs _POINT_ROWS
    direct rows for each of its (z_(j) - z_(i))/step grid steps and
    saves j - i + 1 direct rows, so with s_k = k -
    _POINT_ROWS*z_(k)/step the run maximising s_j -
    min_(i<=j) s_i saves the most.  A tie of z_(i) with its lower
    neighbour, or of z_(j) with its upper one, would score one less, so
    the run holds exactly the j - i + 1 atoms with z_(i) <= z <= z_(j).
    """
    ordered = np.sort(z)
    # in place where it can be: a matched cloud leaves ~45k atoms open, and
    # each fresh array that size is paged in anew
    s = ordered * -(_POINT_ROWS / step)
    s += np.arange(z.size)
    gain = np.minimum.accumulate(s)
    j = int(np.argmax(np.subtract(s, gain, out=gain)))
    i = int(np.argmin(s[: j + 1]))
    return float(ordered[i]), float(ordered[j]), j - i + 1


def _table_run(z: np.ndarray, step: float) -> tuple[float, float] | None:
    """(lo, hi) of a table over the densest run of z, or None if none pays.

    The table pays if its call and grid steps cost fewer direct rows than
    the run holds atoms, so it holds fewer than 1/_POINT_ROWS points per
    atom of the run.
    """
    lo, hi, atoms = _densest_run(z, step)
    if (hi - lo) / step * _POINT_ROWS + _TABLE_ROWS < atoms:
        return lo, hi
    return None


def _lookup(z: np.ndarray, lo: float, step: float, table: np.ndarray) -> np.ndarray:
    """Linear interpolation at z of a table on the uniform grid lo + i*step.

    The table holds averaged_probability_table(lo, hi), whose step is
    the rule's node spacing.  Each z's interval is a direct index rather
    than np.interp's binary search; where rounding puts z one interval
    off, z is within rounding of the grid point where the two intervals'
    lines meet.  Only z in [lo, hi] read the table; the others get a
    finite value from an end interval (or the one point, which a table
    has only if hi = lo), which the caller discards.
    """
    if table.size == 1:
        return np.full(z.size, table[0])
    t = (z - lo) / step
    i = np.clip(t, 0, table.size - 2).astype(np.intp)
    t -= i
    left = table[i]
    return left + t * (table[i + 1] - left)


def _bin_bound(z: np.ndarray, dz: float, bound) -> np.ndarray:
    """Each atom's Rabi-envelope bound, evaluated once per bin of atoms.

    Atoms are binned at k = floor((z - z_min)/w), w = max(_BIN_STEP*dz,
    span/(n/8)), so there are at most n/8 + 1 bins.  A bin's bound covers
    every center from one bin below it to one above, so an atom whose k
    rounded one off still lies inside its bin's range (an edge rounded a
    few ulps of z past it moves delta_min far less than the bound's slack,
    which grows with |z|), and since averaged_probability_bound over a
    range is never below the bound of a center in it, no atom's bin bound
    is below its own.
    """
    z_min, z_max = float(z.min()), float(z.max())
    w = max(_BIN_STEP * dz, (z_max - z_min) / (z.size / 8))
    k = ((z - z_min) / w).astype(np.intp)
    bins = int((z_max - z_min) / w) + 1  # the top atom's k, plus one
    edges = z_min + w * np.arange(-1.0, bins + 2.0)
    return bound(edges[:-3], edges[3:])[k]


def _open_rows(
    u: np.ndarray, z: np.ndarray, dz: float, step: float, bound
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple | None]:
    """Rows the bound pass leaves open, their z and u, which are live, and a run.

    Up to _BIN_ATOMS atoms each gets its own bound and every row is live.
    Above, the atoms are binned (_bin_bound) and the rows are those the
    bins' bounds leave open; live marks the rows whose own bound leaves
    them open, or that lie strictly inside the run and were not bounded
    alone.  The run is (lo, hi) from _table_run at grid step step, or
    None.

    On a binned pulse the per-atom bound is applied, in one call, to the
    rows outside the run and to its two end atoms.  If one at or beyond
    each end passes, the run and the live rows outside it span the
    lowest to the highest per-atom open atom, so the phase check raises
    as one call over those would; a live row inside the run that only
    its bin's bound left open is rejected by the table or the average
    anyway (u >= its bound >= p).  Otherwise every row gets its own bound
    and the run is found again among the live rows.
    """
    if z.size <= _BIN_ATOMS:
        (rows,) = np.nonzero(u < bound(z, z))
        zr, ur = z[rows], u[rows]
        live = np.ones(rows.size, dtype=bool)
        return rows, zr, ur, live, _table_run(zr, step) if rows.size else None
    (rows,) = np.nonzero(u < _bin_bound(z, dz, bound))
    zr, ur = z[rows], u[rows]
    run = _table_run(zr, step) if rows.size else None
    if run is None:
        return rows, zr, ur, ur < bound(zr, zr), None
    lo, hi = run
    check = (zr <= lo) | (zr >= hi)
    live = ~check
    live[check] = ur[check] < bound(zr[check], zr[check])
    ends = zr[check & live]
    if ends.size and ends.min() <= lo and ends.max() >= hi:
        return rows, zr, ur, live, run
    # at or beyond one end of the run no atom is open: bound every row alone
    rest = ~check
    live[rest] = ur[rest] < bound(zr[rest], zr[rest])
    return rows, zr, ur, live, _table_run(zr[live], step) if live.any() else None


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
    >= p, so u < p is false whatever the quadrature would give
    (_open_rows; above _BIN_ATOMS atoms the count is of the rows the
    bins left open).  The densest sorted run of the open atoms
    (_densest_run) is tabulated, by averaged_probability_table on the
    grid of the rule's node spacing, if that costs fewer direct rows than
    the run holds atoms.  On the table, p is interpolated by a direct index
    into the uniform grid; a live atom in the run whose u is more than
    interpolation_tolerance from the interpolant is decided from it.
    The other live atoms are averaged one by one in one direct call.  So
    every decision equals u < averaged_probability_batch(z) bit for bit,
    and the table and the direct call span the per-atom open atoms'
    lowest and highest positions between them, so the phase checks raise
    QuadratureError exactly when one call over every such atom would.
    """
    if spec.decision_mode == "band":
        return np.abs(detuning(z, pulse, cfg)) <= 2.0 * pulse.coupling_omega0, 0

    def bound(lo, hi):
        return averaged_probability_bound(
            lo, hi, dz, pulse, cfg, window_sigmas=window_sigmas
        )

    step = node_spacing(dz, window_sigmas)
    rows, zr, ur, direct, run = _open_rows(u, z, dz, step, bound)
    flip = np.zeros(rows.size, dtype=bool)
    if run is not None:
        lo, hi = run
        table = averaged_probability_table(
            lo, hi, dz, pulse, cfg, window_sigmas=window_sigmas
        )
        approx = _lookup(zr, lo, step, table)
        tol = interpolation_tolerance(dz, window_sigmas)
        sure = direct & (lo <= zr) & (zr <= hi) & (np.abs(ur - approx) > tol)
        np.less(ur, approx, out=flip, where=sure)
        direct &= ~sure
    flip[direct] = ur[direct] < averaged_probability_batch(
        zr[direct], dz, pulse, cfg, window_sigmas=window_sigmas
    )
    keep = np.zeros(z.size, dtype=bool)
    keep[rows] = flip
    return keep, rows.size


def run_monte_carlo(
    spec: EnsembleSpec,
    pulse_first: PulseSpec,
    pulse_second: PulseSpec,
    cfg: FieldConfig,
    window_sigmas: float = 8.0,
) -> MonteCarloResult:
    """Sample the cloud through both pulses, their centers delta_t apart.

    Every draw is made before pulse 2 (v and u2, from _THREAD_ATOMS
    atoms, while pulse 1 is decided: _draw_and_decide) and all per-atom
    arithmetic is row-independent, so pulse 1 is decided for every atom
    at once and pulse 2 only for the pulse-1 survivors, each with at
    most one probability table (see _accept): the outcomes are
    bit-identical to averaging every atom at both pulses.  window_sigmas
    is the half-width of the packet-average window, in packet widths
    (QuadratureSettings.window_sigmas).
    """
    for pulse in (pulse_first, pulse_second):
        if pulse.branch.sigma != spec.sigma:
            raise LevelMismatchError(
                "pulse addresses a different stretched pair than the ensemble"
            )
    # the cell checks that the second pulse comes after the first
    cell = selection_cell(select(pulse_first, cfg), select(pulse_second, cfg), cfg)
    delta_t = cell.delta_t

    z0, v0, u2, (survived_first, rows1) = _draw_and_decide(
        spec,
        lambda z, u: _accept(u, z, spec.dz0, pulse_first, cfg, spec, window_sigmas),
    )
    dz_second = spread_width(spec.dz0, delta_t, cfg.species)
    g = g_effective(cfg.species, cfg.eta, Level.UPPER, spec.sigma)
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
