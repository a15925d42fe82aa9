"""Physical constants and the alkali species registry.

Everything is SI.  The gravitational acceleration is fixed at 9.8 m/s^2
(two digits, not the standard 9.80665) because all trajectory numbers in
this package are calibrated against that value.

Nuclear g factors use the nuclear-magneton convention: the Zeeman energy
of a nuclear sublevel |m_I> is -g_I * mu_N * m_I * B, so g_I > 0 for all
species below.  Tables that write the nuclear term with the Bohr magneton
(e.g. the Steck alkali data sheets) quote g_I' = -g_I * mu_N / mu_B; the
registry values were converted from those tables with the CODATA mass
ratio mu_B / mu_N = 1836.15267343 and keep the diamagnetically shielded
in-atom magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnknownSpeciesError

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants (CODATA 2018)."""

    hbar: float = 1.054571817e-34   # reduced Planck constant (J s)
    mu_B: float = 9.2740100783e-24  # Bohr magneton (J/T)
    mu_N: float = 5.0507837461e-27  # nuclear magneton (J/T)
    g0: float = 9.8                 # gravitational acceleration (m/s^2), fixed
    mu0: float = 1.25663706212e-6   # vacuum permeability (T m/A)

    def __post_init__(self) -> None:
        for name in ("hbar", "mu_B", "mu_N", "g0", "mu0"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")


CONST = PhysicalConstants()


@dataclass(frozen=True)
class AtomSpecies:
    """Ground-state data for one alkali isotope.

    delta_W is the zero-field hyperfine splitting as an angular frequency
    (rad/s); g_s is the electron spin g factor and g_I the nuclear g
    factor in the nuclear-magneton convention described in the module
    docstring.  g_sum, gamma1 and gamma2 are the Zeeman scale derived
    from them: the field coordinate and the stretched-state slopes.
    """

    name: str
    mass: float          # kg
    nuclear_spin: float  # I, half-integer
    g_s: float
    g_I: float
    delta_W: float       # rad/s

    def __post_init__(self) -> None:
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.delta_W <= 0.0:
            raise ValueError("delta_W must be positive")
        two_i = 2.0 * self.nuclear_spin
        if self.nuclear_spin < 0.5 or abs(two_i - round(two_i)) > 1e-12:
            raise ValueError("nuclear_spin must be a positive half-integer")

    @property
    def f_plus(self) -> float:
        """Upper hyperfine quantum number F = I + 1/2."""
        return self.nuclear_spin + 0.5

    @property
    def f_minus(self) -> float:
        """Lower hyperfine quantum number F = I - 1/2."""
        return self.nuclear_spin - 0.5

    @property
    def g_sum(self) -> float:
        """Magnetic-moment sum g_s*mu_B + g_I*mu_N (J/T) that sets the field scale."""
        return self.g_s * CONST.mu_B + self.g_I * CONST.mu_N

    @property
    def gamma1(self) -> float:
        """Upper stretched-state Zeeman slope (g_s*mu_B - 2*I*g_I*mu_N)/(2*g_sum)."""
        return (
            self.g_s * CONST.mu_B - 2.0 * self.nuclear_spin * self.g_I * CONST.mu_N
        ) / (2.0 * self.g_sum)

    @property
    def gamma2(self) -> float:
        """Nuclear share g_I*mu_N/g_sum of the magnetic moment."""
        return self.g_I * CONST.mu_N / self.g_sum


_REGISTRY = {
    # Masses and hyperfine splittings from the Steck alkali data sheets,
    # g_s from CODATA, g_I converted as described in the module docstring.
    "Rb87": AtomSpecies(
        name="Rb87",
        mass=1.44316e-25,
        nuclear_spin=1.5,
        g_s=2.0023193043622,
        g_I=1.8272317,                       # from -0.0009951414 (Bohr-magneton table)
        delta_W=_TWO_PI * 6.834682610904290e9,
    ),
    "Rb85": AtomSpecies(
        name="Rb85",
        mass=1.409993199e-25,
        nuclear_spin=2.5,
        g_s=2.0023193043622,
        g_I=0.5391681,                       # from -0.00029364000
        delta_W=_TWO_PI * 3.0357324390e9,
    ),
    "Na23": AtomSpecies(
        name="Na23",
        mass=3.81754035e-26,
        nuclear_spin=1.5,
        g_s=2.0023193043622,
        g_I=1.4773885,                       # from -0.00080461080
        delta_W=_TWO_PI * 1.7716261288e9,
    ),
    "Cs133": AtomSpecies(
        name="Cs133",
        mass=2.20694650e-25,
        nuclear_spin=3.5,
        g_s=2.0023193043622,
        g_I=0.7323567,                       # from -0.00039885395
        delta_W=_TWO_PI * 9.192631770e9,     # defines the SI second
    ),
}


def available_species() -> tuple[str, ...]:
    """Names accepted by get_species, sorted."""
    return tuple(sorted(_REGISTRY))


def get_species(name: str) -> AtomSpecies:
    """Look up a registered species by name.

    Raises UnknownSpeciesError listing the known names if absent.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_species())
        raise UnknownSpeciesError(
            f"unknown species {name!r}; registered species: {known}"
        ) from None
