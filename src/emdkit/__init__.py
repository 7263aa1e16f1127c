"""emdkit: the d-fold earth mover's distance on the standard simplex.

Exact optimal transport between any number of distributions on the line
segment {1, ..., n+1}: greedy and interval-sweep plans, barycenters, the
exact expected distance under the uniform distribution, and the pairwise
decomposition of the d-fold distance with its obstruction term.

Each public name is declared once, in its module's ``__all__``; the package
re-exports those lists.
"""

__version__ = "1.0.0"

from . import cayley_menger, cost, errors, expectation, polynomial, sampling, simplex, transport
from .cayley_menger import *
from .cost import *
from .errors import *
from .expectation import *
from .polynomial import *
from .sampling import *
from .simplex import *
from .transport import *

__all__ = [
    "__version__",
    *simplex.__all__,
    *cost.__all__,
    *transport.__all__,
    *polynomial.__all__,
    *expectation.__all__,
    *sampling.__all__,
    *cayley_menger.__all__,
    *errors.__all__,
]
