"""Metric projections onto convex sets in finite-dimensional ℓ_p spaces.

The package computes projections with variational certificates, their
one-sided directional derivatives (closed forms where available, audited
numerics elsewhere), the exact moduli of convexity and smoothness, and
Cauchy-rate diagnostics for quotient limits.  `banachproj` on the command
line exposes the same operations behind JSON configs.

The export list is the seven submodules' `__all__` lists: a public name is
declared once, next to its definition.
"""
from . import derivative, moduli, numdiff, sets, solver, space, verify
from .derivative import *  # noqa: F401,F403
from .moduli import *  # noqa: F401,F403
from .numdiff import *  # noqa: F401,F403
from .sets import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .space import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (space, sets, solver, derivative, numdiff, moduli, verify)
           for name in module.__all__] + ["__version__"]
