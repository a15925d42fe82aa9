"""Output checks for every benchmark operation.

Each check returns a list of problems; an empty list means the output
is correct.  Nothing here pins a survivor count: Monte Carlo outputs are
held to statistics of the cloud and to an expected survivor count that
is integrated here from the Gaussian cloud and the flip profile, so a
change of random draws keeps passing while a change of physics does not.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mwselect.breit_rabi import Level, resonant_position
from mwselect.config import (
    load_config,
    to_ensemble_spec,
    to_field_config,
    to_pulses,
)
from mwselect.dynamics import WavepacketState, g_effective, spread_width
from mwselect.probability import (
    averaged_probability_batch,
    point_probability,
    transition_probability,
)

# Headline numbers of the paper for configs/rb87_10us.yaml.
SLICE_M = 19e-6
VELOCITY_CLASS_M_S = 1.36e-3
FLIP_PROBABILITIES = (0.9110, 0.8208)

Z_SIGMAS = 5.0  # moment bounds, in standard deviations
TAIL_ALPHA = 1e-7  # survivor counts: smallest accepted binomial tail probability
MODEL_SLACK = 2e-3  # relative allowance for the integrated expectation
# Batch rule vs adaptive Simpson, absolute.  The oracle's own error
# reaches 7.7e-8 (pulse 2, 3.5 um off resonance) while it reports 1e-10.
ORACLE_TOL = 1e-6
ORACLE_ATOMS = 4  # per pulse, the atoms nearest its resonance

CSV_HEADER = (
    "atom_index,z0_m,v0_m_s,survived_first,survived_both,z_final_m,v_final_m_s"
)
SCAN_HEADER = "z_m,kz,V_minus_J,V_plus_J,transition_Hz,detuning_rad_s"
BANDS_HEADER = "element,vertex,z_m,v_m_s"


def _gauss(x, mean, width):
    return np.exp(-0.5 * ((x - mean) / width) ** 2) / (math.sqrt(2.0 * math.pi) * width)


def _smooth(values: np.ndarray, h: float, width: float, pad: int) -> np.ndarray:
    """Gaussian average of grid values; drops pad points at either end."""
    kernel = _gauss(np.arange(-pad, pad + 1) * h, 0.0, width) * h
    size = values.size + kernel.size - 1
    nfft = 1 << (size - 1).bit_length()
    full = np.fft.irfft(np.fft.rfft(values, nfft) * np.fft.rfft(kernel, nfft), nfft)
    return full[2 * pad : values.size]


@dataclass(frozen=True)
class SimulateContext:
    """What the checks need to know about one simulate configuration."""

    spec: object
    cfg: object
    pulses: tuple
    delta_t: float
    settings: object
    g: float
    dz_second: float
    z_resonant: tuple[float, float]
    p_first: float  # probability that an atom survives pulse 1
    p_both: float  # probability that it survives both pulses

    @classmethod
    def from_config(cls, path, overrides) -> "SimulateContext":
        run = load_config(path, overrides)
        cfg = to_field_config(run)
        pulses = to_pulses(run, cfg)
        spec = to_ensemble_spec(run)
        delta_t = run.effective_delta_t()
        g = g_effective(cfg.species, cfg.eta, Level.UPPER, spec.sigma)
        dz_second = spread_width(spec.dz0, delta_t, cfg.species)
        p_first, p_both = survival_probabilities(
            spec, pulses, cfg, delta_t, g, dz_second
        )
        z_res = tuple(resonant_position(p.omega_A, p.branch, cfg) for p in pulses[:2])
        return cls(spec, cfg, pulses, delta_t, run.quadrature, g, dz_second,
                   z_res, p_first, p_both)


def survival_probabilities(spec, pulses, cfg, delta_t, g, dz_second):
    """Probability that one atom survives pulse 1, and both pulses.

    Integrates the point flip profile against the Gaussian cloud, with
    each packet average done as a Gaussian convolution on a fine grid:
    P1 = E[p1avg(z)], P12 = E[p1avg(z) * p2avg(z + v*dt - g*dt^2/2)].
    """
    if spec.z_rms <= 0.0:
        raise ValueError("the expectation needs a cloud of nonzero width")
    h = spec.dz0 / 8.0
    half = 8.0 * math.hypot(spec.z_rms, spec.dz0)
    z = spec.z_mean + h * np.arange(-math.ceil(half / h), math.ceil(half / h) + 1)
    first, second = pulses[0], pulses[1]

    pad1 = math.ceil(8.0 * spec.dz0 / h)
    z_ext = z[0] + h * np.arange(-pad1, z.size + pad1)
    p1_avg = _smooth(point_probability(z_ext, first, cfg), h, spec.dz0, pad1)

    shift = spec.v_mean * delta_t - 0.5 * g * delta_t * delta_t
    width2 = math.hypot(spec.v_rms * delta_t, dz_second)
    pad2 = math.ceil(8.0 * width2 / h)
    y_ext = z[0] + shift + h * np.arange(-pad2, z.size + pad2)
    q = _smooth(point_probability(y_ext, second, cfg), h, width2, pad2)

    cloud = _gauss(z, spec.z_mean, spec.z_rms) * h
    return float(np.sum(cloud * p1_avg)), float(np.sum(cloud * p1_avg * q))


def _binomial_tail(k: int, n: int, p: float, upper: bool) -> float:
    """P(X >= k) if upper else P(X <= k), for X ~ Binomial(n, p), 0 < p < 1."""
    log_norm = math.lgamma(n + 1)
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for j in range(k, n + 1) if upper else range(k, -1, -1):
        term = math.exp(log_norm - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                        + j * log_p + (n - j) * log_q)
        total += term
        if term <= 1e-17 * total and (j > n * p if upper else j < n * p):
            break
    return total


def _binomial(label: str, observed: int, n: int, p: float) -> list[str]:
    """Exact two-sided tail test, so small expected counts are judged fairly."""
    high = min(p * (1.0 + MODEL_SLACK), 1.0 - 1e-12)
    low = p * (1.0 - MODEL_SLACK)
    if (_binomial_tail(observed, n, high, upper=True) < TAIL_ALPHA
            or _binomial_tail(observed, n, low, upper=False) < TAIL_ALPHA):
        return [f"{label}: {observed} survivors, expected {n * p:.1f}"]
    return []


def _moments(label: str, x: np.ndarray, mean: float, rms: float) -> list[str]:
    n = x.size
    problems = []
    if abs(x.mean() - mean) > Z_SIGMAS * rms / math.sqrt(n):
        problems.append(f"{label}: sample mean {x.mean():.6g} vs {mean:.6g}")
    if abs(x.std() / rms - 1.0) > Z_SIGMAS / math.sqrt(2.0 * n):
        problems.append(f"{label}: sample rms {x.std():.6g} vs {rms:.6g}")
    return problems


def parse_simulation_csv(text: str) -> np.ndarray:
    """(n, 7) array of the per-atom CSV; raises ValueError on bad shape."""
    header, _, body = text.partition("\n")
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    table = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    if table.shape[1] != 7:
        raise ValueError(f"expected 7 CSV columns, got {table.shape[1]}")
    return table


def check_simulation(ctx: SimulateContext, n: int, csv_text: str, doc: dict) -> list[str]:
    """Invariants, statistics and survivor counts of one simulate call."""
    try:
        table = parse_simulation_csv(csv_text)
    except ValueError as exc:
        return [f"simulate CSV: {exc}"]
    if table.shape[0] != n:
        return [f"simulate CSV has {table.shape[0]} rows, expected {n}"]
    index, z0, v0, first, both, z_final, v_final = table.T
    problems = []
    if not np.array_equal(index, np.arange(n)):
        problems.append("atom_index is not 0..n-1")
    if not (np.isin(first, (0.0, 1.0)).all() and np.isin(both, (0.0, 1.0)).all()):
        problems.append("survival flags are not 0/1")
    first, both = first == 1.0, both == 1.0
    if np.any(both & ~first):
        problems.append("an atom survived both pulses but not the first")
    if not (np.isfinite(z0).all() and np.isfinite(v0).all()):
        problems.append("initial coordinates are not all finite")
    if not (
        np.array_equal(np.isfinite(z_final), both)
        and np.array_equal(np.isfinite(v_final), both)
    ):
        problems.append("final coordinates are not finite exactly on survivors")
    else:
        dt, g = ctx.delta_t, ctx.g
        z_expect = z0[both] + v0[both] * dt - 0.5 * g * dt * dt
        v_expect = v0[both] - g * dt
        if not (
            np.allclose(z_final[both], z_expect, rtol=1e-12, atol=1e-18)
            and np.allclose(v_final[both], v_expect, rtol=1e-12, atol=1e-18)
        ):
            problems.append("survivor coordinates do not follow the ballistic flight")
    spec = ctx.spec
    problems += _moments("z0", z0, spec.z_mean, spec.z_rms)
    problems += _moments("v0", v0, spec.v_mean, spec.v_rms)
    n_first, n_both = int(first.sum()), int(both.sum())
    problems += _binomial("pulse 1", n_first, n, ctx.p_first)
    problems += _binomial("both pulses", n_both, n, ctx.p_both)

    result = doc.get("result", {})
    if (result.get("n_total"), result.get("n_survived_first"),
            result.get("n_survived_both")) != (n, n_first, n_both):
        problems.append("JSON survivor counts disagree with the CSV")
    support = result.get("cell_velocity_support_m_s") or 0.0
    if abs(support / VELOCITY_CLASS_M_S - 1.0) > 0.02:
        problems.append(f"cell velocity support {support:.4g} m/s")
    return problems


def oracle_sample(ctx: SimulateContext, z0, v0) -> list[np.ndarray]:
    """Packet centres, per pulse, of the atoms nearest its resonance.

    These are the atoms whose decision the packet average settles.  Far
    from resonance the oracle itself fails: adaptive Simpson raises
    QuadratureError on about 5% of packets 50 um to 1 mm off resonance.
    """
    dt = ctx.delta_t
    positions = (z0, z0 + v0 * dt - 0.5 * ctx.g * dt * dt)
    return [
        pos[np.argsort(np.abs(pos - z_res), kind="stable")[:ORACLE_ATOMS]]
        for pos, z_res in zip(positions, ctx.z_resonant)
    ]


def check_oracle(ctx: SimulateContext, picks) -> list[str]:
    """averaged_probability_batch against transition_probability per atom."""
    problems = []
    for k, (centers, dz) in enumerate(zip(picks, (ctx.spec.dz0, ctx.dz_second))):
        pulse = ctx.pulses[k]
        batch = averaged_probability_batch(centers, dz, pulse, ctx.cfg)
        for z, p in zip(centers, batch):
            state = WavepacketState.minimum_uncertainty(
                z=float(z), v=0.0, dz=dz, level=Level.LOWER, sigma=ctx.spec.sigma
            )
            ref = transition_probability(state, pulse, ctx.cfg, settings=ctx.settings)
            if abs(p - ref) > ORACLE_TOL:
                problems.append(
                    f"pulse {k + 1} at z={z:.6e}: batch {p:.12f} vs oracle {ref:.12f}"
                )
    return problems


def _close(value, target, rel) -> bool:
    return isinstance(value, (int, float)) and abs(value / target - 1.0) <= rel


def check_select(doc: dict) -> list[str]:
    res = doc.get("result", {})
    pulses = res.get("pulses", [])
    if len(pulses) != 2:
        return ["select: expected two pulses"]
    problems = []
    for p, z_c in zip(pulses, (0.0, 1e-2)):
        if abs(p["position_width_m"] - SLICE_M) > 0.5e-6:
            problems.append(f"select: slice {p['position_width_m']:.4g} m")
        if not _close(p["velocity_width_m_s"], VELOCITY_CLASS_M_S, 0.02):
            problems.append(f"select: velocity width {p['velocity_width_m_s']:.4g}")
        if abs(p["z_center_m"] - z_c) > 1e-9:
            problems.append(f"select: resonance at {p['z_center_m']:.9g} m")
    if not _close(res.get("pair", {}).get("velocity_support_m_s"),
                  VELOCITY_CLASS_M_S, 0.02):
        problems.append("select: cell velocity support")
    return problems


def check_probability(doc: dict) -> list[str]:
    pulses = doc.get("result", {}).get("pulses", [])
    got = [p.get("probability") for p in pulses]
    if len(got) != 2 or any(
        not isinstance(p, float) or abs(p - want) > 2e-3
        for p, want in zip(got, FLIP_PROBABILITIES)
    ):
        return [f"probability: {got} vs {list(FLIP_PROBABILITIES)}"]
    return []


def check_coils(doc: dict) -> list[str]:
    res = doc.get("result", {})
    problems = []
    # the configured current has six digits, so the coils give 25 G/cm to 1e-6
    if not _close(res.get("gradient_ratio_to_configured"), 1.0, 1e-5):
        problems.append(f"coils: gradient ratio {res.get('gradient_ratio_to_configured')}")
    if not _close(res.get("stability", {}).get("gradient_fraction"), 9.5169e-4, 1e-3):
        problems.append("coils: stability gradient fraction")
    return problems


def check_scan(text: str, golden: np.ndarray, points: int) -> list[str]:
    header, _, body = text.partition("\n")
    if header != SCAN_HEADER:
        return [f"scan: header {header!r}"]
    table = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    if table.shape != (points, 6):
        return [f"scan: shape {table.shape}"]
    scale = np.max(np.abs(golden), axis=0)
    problems = []
    for row in golden:
        hit = np.flatnonzero(np.abs(table[:, 0] - row[0]) <= 1e-15)
        if hit.size != 1:
            problems.append(f"scan: no row at z={row[0]:.6e}")
        elif np.any(np.abs(table[hit[0]] - row) > 1e-9 * np.maximum(np.abs(row), scale)):
            problems.append(f"scan: row at z={row[0]:.6e} differs from golden")
    return problems


def check_bands(text: str, delta_t: float) -> list[str]:
    header, _, body = text.partition("\n")
    if header != BANDS_HEADER:
        return [f"bands: header {header!r}"]
    rows = [line.split(",") for line in body.splitlines()]
    cell = np.array([[float(r[2]), float(r[3])] for r in rows if r[0] == "cell"])
    if len(rows) != 12 or cell.shape != (4, 2):
        return ["bands: expected 8 band-edge rows and 4 cell vertices"]
    z, v = cell.T
    area = 0.5 * abs(np.dot(z, np.roll(v, -1)) - np.dot(v, np.roll(z, -1)))
    problems = []
    if not _close(float(np.ptp(v)), VELOCITY_CLASS_M_S, 0.02):
        problems.append(f"bands: velocity extent {np.ptp(v):.4g} m/s")
    if not _close(float(area), SLICE_M * SLICE_M / delta_t, 0.05):
        problems.append(f"bands: cell area {area:.4g} m^2/s")
    return problems


def load_golden_scan(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def load_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())
