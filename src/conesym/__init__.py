"""Combinatorial certification of the symmetry groups of cut and metric cones."""

__version__ = "0.1.0"
