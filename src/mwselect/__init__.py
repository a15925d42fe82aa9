"""Position and velocity selection of alkali atoms with microwave pi pulses.

A static field gradient makes the ground-state hyperfine transition
frequency position dependent; a resonant pi pulse then transfers only a
thin position slice between the stretched states, and two pulses
separated by a free-fall interval select a velocity slice.  The
subpackages cover the stretched-state energies, pulse and width
formulas, wavepacket motion, pulse-averaged flip probabilities,
phase-space geometry with a Monte Carlo sampler, and the gradient-coil
apparatus; the `mwselect` CLI drives them from YAML configs.
"""

from .apparatus import (
    CoilPair,
    StabilityBudget,
    current_for_gradient,
    gradient_at_center,
    linearity_region,
    max_gradient_half_separation,
    on_axis_field,
    shifted_zero,
    stability_budget,
)
from .breit_rabi import (
    FieldConfig,
    Level,
    StretchedBranch,
    d_transition_dz,
    eigenvalue,
    epsilon,
    field_coordinate,
    kappa,
    resonant_position,
    transition_angular_frequency,
)
from .constants import CONST, AtomSpecies, available_species, get_species
from .dynamics import WavepacketState, evolve_expected, g_effective, spread_width
from .errors import (
    ConfigError,
    LevelMismatchError,
    NoBracketError,
    PhysicsDomainError,
    QuadratureError,
    UnknownSpeciesError,
    ZeroGradientError,
)
from .phase_space import (
    EnsembleSpec,
    MonteCarloResult,
    PhaseSpaceBand,
    SelectionCell,
    cell_polygon,
    marginal_velocity,
    run_monte_carlo,
    selection_cell,
)
from .probability import (
    QuadratureSettings,
    averaged_probability_batch,
    point_probability,
    transition_probability,
)
from .selection import (
    PulseSpec,
    SelectionResult,
    detuning,
    position_width_low_field,
    raman_velocity_width,
    select,
    validity_diagnostic,
    velocity_width,
)

__version__ = "0.1.0"

__all__ = [
    "AtomSpecies",
    "CONST",
    "CoilPair",
    "ConfigError",
    "EnsembleSpec",
    "FieldConfig",
    "Level",
    "LevelMismatchError",
    "MonteCarloResult",
    "NoBracketError",
    "PhaseSpaceBand",
    "PhysicsDomainError",
    "PulseSpec",
    "QuadratureError",
    "QuadratureSettings",
    "SelectionCell",
    "SelectionResult",
    "StabilityBudget",
    "StretchedBranch",
    "UnknownSpeciesError",
    "WavepacketState",
    "ZeroGradientError",
    "available_species",
    "averaged_probability_batch",
    "cell_polygon",
    "current_for_gradient",
    "d_transition_dz",
    "detuning",
    "eigenvalue",
    "epsilon",
    "evolve_expected",
    "field_coordinate",
    "g_effective",
    "get_species",
    "gradient_at_center",
    "kappa",
    "linearity_region",
    "marginal_velocity",
    "max_gradient_half_separation",
    "on_axis_field",
    "point_probability",
    "position_width_low_field",
    "raman_velocity_width",
    "resonant_position",
    "run_monte_carlo",
    "select",
    "selection_cell",
    "shifted_zero",
    "spread_width",
    "stability_budget",
    "transition_angular_frequency",
    "transition_probability",
    "validity_diagnostic",
    "velocity_width",
]
