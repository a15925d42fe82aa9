"""Center-of-mass motion and dispersion of a selected wavepacket.

z points up, so gravity contributes -g0 to the acceleration.  An atom in
the upper stretched state sees a potential linear in z, which just adds
a constant to gravity: it falls with an effective, state- and
sign-dependent g.  Selected atoms spend the pulse gap on that branch, so
it is the only one propagated here; the lower state's nonlinear
potential has no constant g.  Wavepacket widths disperse as for a free
particle; a linear potential rigidly translates the packet and does not
change its spreading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .breit_rabi import FieldConfig, Level
from .constants import CONST, AtomSpecies
from .errors import LevelMismatchError

_HEISENBERG_SLACK = 1.0 - 1e-9


@dataclass(frozen=True)
class WavepacketState:
    """Gaussian wavepacket summary: means, widths, internal state.

    z, v are the position (m) and velocity (m/s) expectation values; dz
    and dp the position (m) and momentum (kg m/s) standard deviations.
    """

    z: float
    v: float
    dz: float
    dp: float
    level: Level
    sigma: int

    def __post_init__(self) -> None:
        if self.sigma not in (1, -1):
            raise ValueError("sigma must be +1 or -1")
        if not isinstance(self.level, Level):
            raise ValueError("level must be a Level enum member")
        if self.dz <= 0.0 or self.dp <= 0.0:
            raise ValueError("widths dz and dp must be positive")
        if self.dz * self.dp < 0.5 * CONST.hbar * _HEISENBERG_SLACK:
            raise ValueError(
                f"dz*dp = {self.dz * self.dp:.3e} violates the uncertainty "
                f"bound hbar/2 = {0.5 * CONST.hbar:.3e}"
            )

    @classmethod
    def minimum_uncertainty(
        cls,
        z: float,
        v: float,
        dz: float,
        level: Level,
        sigma: int,
    ) -> "WavepacketState":
        """State with dp = hbar/(2*dz), the tightest allowed momentum width."""
        return cls(z=z, v=v, dz=dz, dp=0.5 * CONST.hbar / dz, level=level, sigma=sigma)


def g_effective(species: AtomSpecies, eta: float, level: Level, sigma: int) -> float:
    """Effective downward acceleration (m/s^2) on the upper stretched state.

    The upper-branch potential is exactly linear in z, so the gradient
    shifts gravity by sigma*gamma1*g_sum*eta/M.  Positive means downward
    (the acceleration used in z(t) = z0 + v0*t - g_eff*t^2/2).  The lower
    branch has no such constant; asking for one raises.
    """
    if level is not Level.UPPER:
        raise LevelMismatchError(
            "g_effective is defined only on the upper stretched state"
        )
    if sigma not in (1, -1):
        raise ValueError("sigma must be +1 or -1")
    return CONST.g0 + sigma * species.gamma1 * species.g_sum * eta / species.mass


def evolve_expected(
    state: WavepacketState, duration: float, cfg: FieldConfig
) -> tuple[float, float]:
    """New (z, v) of an upper-branch packet center after duration.

    The exact constant-acceleration form; a lower-level state raises
    LevelMismatchError through g_effective.
    """
    g = g_effective(cfg.species, cfg.eta, state.level, state.sigma)
    z = state.z + state.v * duration - 0.5 * g * duration * duration
    v = state.v - g * duration
    return z, v


def spread_width(dz_ref: float, elapsed: float, species: AtomSpecies) -> float:
    """Free-dispersion width sqrt(dz_ref^2 + (hbar*t/(2*M*dz_ref))^2) (m).

    dz_ref is the width at the reference (minimum-width) time, elapsed
    the time since then; valid for minimum-uncertainty packets, whose
    momentum width stays hbar/(2*dz_ref) throughout.
    """
    if dz_ref <= 0.0:
        raise ValueError("dz_ref must be positive")
    drift = CONST.hbar * elapsed / (2.0 * species.mass * dz_ref)
    return math.hypot(dz_ref, drift)
