"""Multiplicative compound matrices and inverse-compound recovery.

The k-th multiplicative compound of a matrix collects all of its k x k
minors.  This package computes compounds, wedge products, and adjugate
identities, and solves the inverse problem: given a matrix known to be a
k-th compound, reconstruct its source, which is unique up to sign whenever
the compound has rank above one.

Each module's ``__all__`` is its public surface; the package re-exports
them in this order.
"""

__version__ = "0.1.0"

from . import combinat, errors, exterior, matio, numerics, recovery, reference
from .combinat import *
from .errors import *
from .exterior import *
from .matio import *
from .numerics import *
from .recovery import *
from .reference import *

__all__ = [
    "__version__",
    *combinat.__all__,
    *errors.__all__,
    *exterior.__all__,
    *matio.__all__,
    *numerics.__all__,
    *recovery.__all__,
    *reference.__all__,
]
