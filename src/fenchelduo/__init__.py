"""Projection-free first-order methods with Fenchel duality-gap certificates.

The package solves  min_x f(Ax) + h(x)  through subgradient oracles for f and
for the conjugate h*, with three drivers (conditional subgradient, mirror
descent, and a symmetric primal-dual iteration), per-iteration certified gap
bounds, exact certificate identities, and empirical curvature/rate tools.
"""

from .oracles import *  # noqa: F401,F403
from .problems import *  # noqa: F401,F403
from .certificates import *  # noqa: F401,F403
from .steps import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from .duality import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403

__version__ = "0.1.0"
