"""Exception hierarchy shared by all mzweak modules."""


class SimulationError(Exception):
    """Base class for all mzweak errors."""


class OrthogonalPostSelection(SimulationError):
    """Pre- and post-selected states are orthogonal within tolerance."""


class NotAnEigenvalue(SimulationError):
    """Requested outcome is not in the operator's spectrum."""


class VanishingPostSelection(SimulationError):
    """Post-selected probability is too small for a conditional moment, or
    nothing survived the post-selection: a pointer state with no branches."""


class DegenerateProfile(SimulationError):
    """Profile carries no shape information (all counts equal or zero)."""


class NonConvergence(SimulationError):
    """Iterative fit did not converge within the iteration budget."""


class ZeroDenominator(SimulationError):
    """A counting ratio was requested with a zero denominator."""


class ZeroScale(SimulationError):
    """Reference pointer displacement is too small to scale weak values."""


class MissingReference(SimulationError):
    """A scan file ``analyze`` needs is absent."""


class UnreadableInput(SimulationError):
    """An input file exists but is damaged or malformed."""


class ConfigError(SimulationError):
    """A configuration document is malformed, has unknown keys, or bad values."""
