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


class DimensionMismatch(FreeFermError):
    """Operands have incompatible dimensions."""


# -- Gaussian states ---------------------------------------------------------

class NotAValidCorrelationMatrix(FreeFermError):
    """A normal eigenvalue, or a product state's lambda, is not finite or exceeds 1 in magnitude."""


class NotOrthogonal(FreeFermError):
    """Matrix expected to be orthogonal is not, within tolerance."""


class NotPure(FreeFermError):
    """Operation requires a pure state (all normal eigenvalues 1)."""


class RankExponentOutOfRange(FreeFermError):
    """Rank exponent r outside [0, n-1]."""


# -- dense oracle ------------------------------------------------------------

class NonNegligibleImaginaryPart(FreeFermError):
    """Correlation entries or rotated diagonals of a corrupted state have an
    imaginary residue."""


class TooManyModes(FreeFermError):
    """Mode count exceeds a desk-scale cap: the dense (``dense.MAX_DENSE_MODES``), sampling
    (``sampling.MAX_SAMPLING_MODES``), local-tomography or robustness-certification
    (``dense.MAX_TRIAL_DENSE_MODES``) cap."""


# -- sampling ----------------------------------------------------------------

class BudgetOverflow(FreeFermError):
    """A copy count, or a trial's or run's total, exceeds the draw ceiling
    ``sampling.MAX_DRAW``, or a budget exceeds every float."""


class NotADistribution(FreeFermError):
    """A computed outcome distribution's mass is not 1 within tolerance."""


# -- algorithms --------------------------------------------------------------

class InfeasibleThresholds(FreeFermError):
    """The (eps_a, eps_b) pair violates the feasibility predicate."""


class PromiseNotCertified(FreeFermError):
    """The oracle shows the robustness promise does not hold."""


# -- cli ---------------------------------------------------------------------

class ValidationError(FreeFermError):
    """Experiment configuration failed validation."""
