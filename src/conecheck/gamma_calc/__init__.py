"""Two flavors of Gamma-calculus.

``graph``: exact discrete operators on weighted graphs (Gamma, Gamma2,
per-vertex curvature-dimension, Bochner-type checks).  ``grid``:
finite-difference verification of the warped-product Gamma2 identities and
the sharp product estimate on tensor grids.

The flavors are deliberately separate: chain and Leibniz rules hold only in
the grid flavor, and mixing them silently is the main correctness hazard.
"""

from . import graph, grid
from .graph import *  # noqa: F401,F403
from .grid import *  # noqa: F401,F403

__all__ = [*graph.__all__, *grid.__all__]
