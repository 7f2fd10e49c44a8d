"""Numerical construction, classification and verification of special
Lagrangian submanifolds of C^m swept out by evolving quadrics.

Layers, bottom up:

- ``multilinear``: exterior algebra over R^n, and the one kernel that
  evaluates omega and Omega on tangent frames in C^m = R^{2m}.
- ``elliptic``: Jacobi elliptic functions by the arithmetic-geometric mean.
- ``evodata``: evolution data (P, chi) -- quadrics, products, planar
  curves -- with validation, symmetry algebras and the n = m classifier.
- ``evolver``: the general engine for linear/affine maps R^n -> C^m.
- ``centred``: the diagonal (centred-quadric) reduction: conserved
  quantity, turning points, monodromy-angle quadrature, periodicity search.
- ``affine``: the translated (paraboloid) family and its closed beta law.
- ``threefold``: the m = 3 cone link circle and explicit translated solutions.
- ``meshverify``: the swept families (the conformal cone-over-link sweep
  among them), meshes, analytic-frame residual verification, exporters.
- ``cli``: the ``slevolve`` command-line front end.
"""

__version__ = "0.1.0"

from .errors import ConstructionError, NumericalError, ValidationError

__all__ = ["ConstructionError", "NumericalError", "ValidationError",
           "__version__"]
