"""Resonant microwave pulses and the widths they select.

A square pulse of duration tau drives the stretched-pair transition with
coupling omega0 = pi/(2*tau), so on resonance it is exactly a pi pulse
(Rabi frequency 2*omega0, area pi).  In a gradient the detuning grows
linearly away from the resonant position, and the span where it stays
within the resonant Rabi frequency defines the selected position slice;
two pulses separated by delta_t turn that slice into a velocity slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .breit_rabi import (
    FieldConfig,
    StretchedBranch,
    d_transition_dz,
    epsilon,
    kappa,
    resonant_position,
    transition_angular_frequency,
)
from .constants import CONST, AtomSpecies
from .errors import PhysicsDomainError, ZeroGradientError

@dataclass(frozen=True)
class PulseSpec:
    """One square microwave pulse addressing a stretched pair.

    t0 is the pulse center time (s), within [-1000 s, 1000 s], tau the
    duration (s), within [1 ns, 1 s], and omega_A the microwave angular
    frequency (rad/s).  The coupling is tied to tau so
    the resonant pulse area is always pi.
    """

    t0: float
    tau: float
    omega_A: float
    branch: StretchedBranch

    def __post_init__(self) -> None:
        if not math.isfinite(self.t0):
            raise ValueError(f"t0 = {self.t0!r} s is not finite")
        # |t0| <= 1000 s holds any fountain or transport sequence; far outside
        # it the gap overflows, or the packet spread over it underflows dp to 0
        if not -1e3 <= self.t0 <= 1e3:
            raise ValueError(f"t0 = {self.t0!r} s is outside [-1000 s, 1000 s]")
        # [1 ns, 1 s] holds every practical microwave pi pulse; far outside
        # it 4*omega0^2 overflows or the flip profile underflows, silently
        if not 1e-9 <= self.tau <= 1.0:
            raise ValueError(f"tau = {self.tau!r} s is outside [1 ns, 1 s]")
        if not self.omega_A > 0.0:
            raise ValueError("omega_A must be positive")

    @property
    def coupling_omega0(self) -> float:
        """Coupling strength omega0 = pi/(2*tau) (rad/s)."""
        return math.pi / (2.0 * self.tau)

    @property
    def rabi_at_resonance(self) -> float:
        """On-resonance Rabi frequency 2*omega0 = pi/tau (rad/s)."""
        return math.pi / self.tau

    @classmethod
    def resonant_at(
        cls,
        z: float,
        cfg: FieldConfig,
        t0: float,
        tau: float,
        branch: StretchedBranch,
    ) -> "PulseSpec":
        """Pulse tuned to the transition frequency at position z."""
        omega_A = float(transition_angular_frequency(branch, z, cfg))
        return cls(t0=t0, tau=tau, omega_A=omega_A, branch=branch)


def detuning(z, pulse: PulseSpec, cfg: FieldConfig):
    """Detuning transition(z) - omega_A (rad/s); vectorizes over z."""
    return transition_angular_frequency(pulse.branch, z, cfg) - pulse.omega_A


def position_width_low_field(
    pulse: PulseSpec, species: AtomSpecies, eta: float
) -> float:
    """Low-field estimate hbar*Omega_R*(I+1/2)/(I*mu_B*eta) of the FWHM (m).

    Drops the nuclear moment and the field curvature, leaving a width
    that depends only on I, the pulse duration and the gradient; it
    degrades where the field coordinate is no longer small.
    """
    if eta == 0.0:
        raise ZeroGradientError("low-field width requires a nonzero gradient")
    spin = species.nuclear_spin
    return (
        CONST.hbar
        * pulse.rabi_at_resonance
        * species.f_plus
        / (spin * CONST.mu_B * abs(eta))
    )


def velocity_width(delta_z: float, delta_t: float) -> float:
    """Selected velocity FWHM 2*delta_z/delta_t (m/s) for pulse gap delta_t."""
    if delta_t <= 0.0:
        raise ValueError("delta_t must be positive")
    return 2.0 * delta_z / delta_t


def raman_velocity_width(k: float, delta_t: float) -> float:
    """Velocity FWHM 1/(2*k*delta_t) of a two-photon Doppler-sensitive pair.

    Reference point for comparing the microwave scheme against optical
    selection with effective wavevector k (rad/m) and the same gap.
    """
    if k <= 0.0 or delta_t <= 0.0:
        raise ValueError("k and delta_t must be positive")
    return 1.0 / (2.0 * k * delta_t)


def validity_diagnostic(
    pulse: PulseSpec,
    cfg: FieldConfig,
    momentum: float,
    width_initial: float,
    width_at_pulse: float,
    t_pulse: float,
) -> float:
    """Size of the leading correction to the frozen-motion pulse model.

    The flip-probability formula treats the atom as frozen during the
    pulse.  The first correction is proportional to epsilon and involves
    the wavepacket momentum and widths; this returns its raw magnitude
    (dimensionless), small when the frozen treatment is good.  The
    internal phase-spread term is complex because free dispersion mixes
    position and momentum quadratures.
    """
    k = kappa(cfg)
    if k == 0.0:
        raise ZeroGradientError("validity diagnostic requires a nonzero gradient")
    eps = epsilon(cfg)
    d_w = cfg.species.delta_W
    hbar_k = CONST.hbar * k
    spread = complex(k * k * width_initial * width_initial, eps * d_w * t_pulse)
    norm_sq = 2.0 * math.pi * k * k * width_at_pulse * width_at_pulse
    if hbar_k == 0.0 or spread == 0.0 or norm_sq == 0.0:
        raise PhysicsDomainError(
            "validity diagnostic: the gradient terms underflow for this "
            "gradient and packet width"
        )
    scaled_p = momentum / hbar_k
    term = abs(scaled_p * scaled_p + 1.0 / (2.0 * spread))
    norm = norm_sq ** -0.25
    return eps * term * (math.pi * d_w / pulse.rabi_at_resonance) * norm


@dataclass(frozen=True)
class SelectionResult:
    """One pulse resolved: its resonance and the widths it selects, in SI units.

    pulse is the spec that was resolved.  A single pulse selects a
    position slice; a velocity width needs a second pulse and its gap.
    """

    pulse: PulseSpec
    z_center: float
    position_width: float
    position_width_low_field: float
    transition_slope: float


def select(pulse: PulseSpec, cfg: FieldConfig) -> SelectionResult:
    """Locate the resonant position of a pulse and the widths it selects.

    The position width is the slice where |detuning| stays within the
    resonant Rabi frequency pi/tau, the FWHM of the Rabi envelope
    (2*omega0/Omega_R)^2: 2*(pi/tau) over the exact analytic slope at
    the resonance.  The bands, the selection cell and the stability budget
    read the result instead of solving for the resonance again.
    """
    z_c = resonant_position(pulse.omega_A, pulse.branch, cfg)
    slope = float(d_transition_dz(pulse.branch, z_c, cfg))
    if slope == 0.0:
        raise ZeroGradientError("position width is undefined at zero slope")
    return SelectionResult(
        pulse=pulse,
        z_center=z_c,
        position_width=2.0 * pulse.rabi_at_resonance / abs(slope),
        position_width_low_field=position_width_low_field(pulse, cfg.species, cfg.eta),
        transition_slope=slope,
    )
