"""Free-fermionic state toolkit.

Correlation-matrix algebra for fermionic Gaussian states: Pfaffians and
normal forms, trace-distance and fidelity bounds, measurement simulation
with correlation-matrix estimators, property-testing and tomography
protocols, and a dense Jordan-Wigner oracle that cross-checks everything at
small mode counts.
"""

__version__ = "0.1.0"

from . import dense, learning, sampling, skew, states  # noqa: F401
