"""Numerical certification toolkit for curvature-dimension structure on
cones and warped products over finite metric measure spaces."""

__version__ = "0.1.0"
