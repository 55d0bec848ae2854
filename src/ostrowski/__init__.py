"""Position-dependent error bounds for function averages under s-convexity.

The package bounds |f(x) - average of f over [a, b]| from derivative data
for functions whose derivative magnitude (or a power of it) is s-convex in
the second sense, verifies every inequality against a brute-force
integration oracle, and turns the midpoint-rule error estimates into a
certified composite quadrature. A CLI (``ostrowski``) exposes all of it.
"""

# each module's __all__ lists its public names, once; the package re-exports them all
from . import bounds, core, kernel, means, quadrature, toolkit
from .core import *
from .kernel import *
from .bounds import *
from .toolkit import *
from .means import *
from .quadrature import *

__version__ = "0.1.0"

__all__ = core.__all__ + kernel.__all__ + bounds.__all__ + toolkit.__all__ + means.__all__ + quadrature.__all__
