"""Exception types raised by the toolkit, and their in-band text."""


class PtfidelityError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(PtfidelityError):
    """Vector or matrix dimensions are incompatible."""


class DefectiveMatrixError(PtfidelityError):
    """Raw left/right overlap below the EP guard: the matrix is (numerically)
    defective and biorthogonal normalization is impossible."""


class AmbiguousPairingError(PtfidelityError):
    """Left and right spectra cannot be matched bijectively within tolerance.

    ``biorthogonal_eig`` no longer raises it: LAPACK returns each eigenvalue
    with its left and right vectors already paired."""


class UnpairableSpectrumError(PtfidelityError):
    """A complex eigenvalue has no conjugate partner within tolerance."""


class NotBrokenError(PtfidelityError):
    """The requested state has a real eigenvalue and no PT partner."""


class NoConvergenceError(PtfidelityError):
    """Iterative solver did not reach the residual target within max_iter."""


class DimTooLargeError(PtfidelityError):
    """Problem dimension exceeds the configured dense-work guard."""


class DegenerateDenominatorError(PtfidelityError):
    """An energy denominator fell below the degeneracy guard (EP or exact
    degeneracy with the reference state)."""


class PartnerMismatchError(PtfidelityError):
    """Susceptibility of the PT partner fails the conjugate identity."""


class NoTransitionError(PtfidelityError):
    """The supplied bracket does not straddle a PT transition."""


class AtExceptionalMomentumError(PtfidelityError):
    """A Bloch momentum sits on (or numerically at) an exceptional point."""

    def __init__(self, message, momentum_index=None, k=None):
        super().__init__(message)
        self.momentum_index = momentum_index
        self.k = k


class GridCrossesEPError(PtfidelityError):
    """A Berry-phase integration grid point landed on an exceptional point."""


class OddLError(PtfidelityError):
    """The staggered chain requires an even number of sites."""


class BasisCapExceededError(PtfidelityError):
    """Requested sector basis exceeds the configured size cap."""


class InsufficientSizesError(PtfidelityError):
    """Extrapolation needs at least three system sizes."""


class ConfigError(PtfidelityError):
    """Invalid sweep configuration."""


def error_text(err: Exception) -> str:
    """Class name and message of ``err``, as sweep rows, scan records and
    the CLI report a failure."""
    return f"{type(err).__name__}: {err}"
