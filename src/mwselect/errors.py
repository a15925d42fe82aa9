"""Exception types shared across the package.

The CLI maps ConfigError to exit code 2 and PhysicsDomainError to exit
code 3; everything else is a plain bug and propagates.
"""


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


class UnknownSpeciesError(ConfigError):
    """Species name not present in the registry."""


class PhysicsDomainError(RuntimeError):
    """Computation rejected because the inputs leave the model's domain."""


class ZeroGradientError(PhysicsDomainError):
    """Operation requires a nonzero magnetic field gradient."""


class NoBracketError(PhysicsDomainError):
    """Target value is not attained inside the root-finding interval."""


class LevelMismatchError(PhysicsDomainError):
    """Operation called for a hyperfine level it does not apply to."""


class QuadratureError(PhysicsDomainError):
    """Packet too wide for the fixed packet-average rule to resolve."""
