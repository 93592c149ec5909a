"""Exception types raised across the toolkit.

Everything derives from :class:`FreeFermError` (a ``ValueError``), so callers
can catch the whole family or individual conditions.
"""


class FreeFermError(ValueError):
    """Base class for all toolkit errors."""


# -- skew-symmetric linear algebra ------------------------------------------

class NotAntisymmetric(FreeFermError):
    """Input matrix is not antisymmetric within tolerance, or not finite."""


class OddRestriction(FreeFermError):
    """Pfaffian restriction to an odd number of indices."""


class IndexOutOfRange(FreeFermError):
    """Restriction index outside the matrix."""


class ConvergenceFailure(FreeFermError):
    """A LAPACK factorization (eigensolver, Hessenberg reduction or SVD) failed."""


class PfaffianOutOfRange(FreeFermError):
    """A non-zero Pfaffian's magnitude would overflow or underflow a float."""


class UnsupportedP(FreeFermError):
    """Schatten norm order outside {1, 2, inf}."""


class RankTooLarge(FreeFermError):
    """Ky Fan order exceeds the matrix dimension."""


class DimensionMismatch(FreeFermError):
    """Operands have incompatible dimensions."""


# -- Gaussian states ---------------------------------------------------------

class NotAValidCorrelationMatrix(FreeFermError):
    """Normal eigenvalue exceeds 1 beyond tolerance."""


class LambdaOutOfRange(FreeFermError):
    """Product-state occupation parameter outside [-1, 1]."""


class NotOrthogonal(FreeFermError):
    """Matrix expected to be orthogonal is not, within tolerance."""


class OddSubset(FreeFermError):
    """Wick expectation of an odd Majorana product was requested."""


class NotPure(FreeFermError):
    """Operation requires a pure state (all normal eigenvalues 1)."""


class RankExponentOutOfRange(FreeFermError):
    """Rank exponent r outside [0, n-1]."""


class NotHermitian(FreeFermError):
    """Matrix expected to be Hermitian is not, within tolerance."""


class OccupationOutOfRange(FreeFermError):
    """Occupation-number spectrum outside [0, 1]."""


# -- dense oracle ------------------------------------------------------------

class NonNegligibleImaginaryPart(FreeFermError):
    """Correlation entries of a corrupted state have imaginary residue."""


class TooManyModes(FreeFermError):
    """Mode count exceeds the dense/sparse desk-scale cap."""


# -- sampling ----------------------------------------------------------------

class InvalidMatching(FreeFermError):
    """Pair list is not a perfect matching of the Majorana indices."""


class BudgetOverflow(FreeFermError):
    """Computed shot count exceeds the configured cap."""


# -- algorithms --------------------------------------------------------------

class InfeasibleThresholds(FreeFermError):
    """The (eps_a, eps_b) pair violates the feasibility predicate."""


class TooManyLocalModes(FreeFermError):
    """Local tomography requested on more modes than the cap allows."""


class PromiseNotCertified(FreeFermError):
    """The oracle shows the robustness promise does not hold."""


# -- cli ---------------------------------------------------------------------

class ValidationError(FreeFermError):
    """Experiment configuration failed validation."""
