"""Shared exception types."""


class MixedPhaseWithoutDelta(ValueError):
    """A magnitude was requested for a phase-dependent amplitude with no phase given."""


class UnmappedMode(KeyError):
    """A state contains a spatial mode the mode map does not cover."""


class LengthMismatch(ValueError):
    """Operator string length differs from the qubit count."""


class DuplicateSpatialLabel(ValueError):
    """Two qubits were assigned the same spatial mode."""


class ZeroGain(ZeroDivisionError):
    """QBER requested where the gain is exactly zero."""


class NoPositiveRate(ValueError):
    """The key rate is non-positive already at zero distance."""
