"""Exception hierarchy for recoilspec.

All numerical-failure exceptions derive from ConvergenceError so the CLI can
map them onto a single exit code.
"""


class RecoilSpecError(Exception):
    """Base class for all recoilspec errors."""


class ConfigError(RecoilSpecError):
    """Invalid physical parameters or malformed run configuration."""


class ConvergenceError(RecoilSpecError):
    """Base class for numerical-convergence failures."""


class NoCrossingError(ConvergenceError):
    """The overlap probability never reaches the requested working point."""


class FlatFlankError(ConvergenceError):
    """|dP/dDelta| on the resonance flank is below the usable threshold."""


class PerturbativeRegimeError(RecoilSpecError):
    """First-order-in-g treatment requested outside its validity range."""


class UnsupportedDampingError(RecoilSpecError):
    """Closed-form propagation requested with damping it does not support."""


class GridUnderflowError(ConvergenceError):
    """The finite phase-space grid misses the probability mass: it leaked
    off the grid, or the grid is too coarse to integrate it."""


class OptimizerError(ConvergenceError):
    """All optimizer restarts failed to converge."""
