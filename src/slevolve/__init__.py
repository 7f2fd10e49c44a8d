"""Numerical construction, classification and verification of special
Lagrangian submanifolds of C^m swept out by evolving quadrics.

Layers, bottom up:

- ``errors``: the exception types and the input checks layers share (counts,
  the normalized gauge of the alphas).
- ``multilinear``: k-subset indexing of k-vectors over R^n with its one
  primitive, the insertion table (the signs and ranks of e_i ^ e_K), and
  the one kernel that evaluates omega and Omega on tangent frames in
  C^m = R^{2m}.
- ``elliptic``: Jacobi elliptic functions by the arithmetic-geometric mean.
- ``evodata``: evolution data (P, chi), chi one coefficient array --
  quadrics, products, planar curves -- with their samplers and tangent
  frames.
- ``evolver``: the general engine for linear/affine maps R^n -> C^m.
- ``centred``: the diagonal (centred-quadric) reduction: conserved
  quantity, turning points, monodromy-angle quadrature, periodicity search.
- ``affine``: the translated (paraboloid) family and its closed beta law.
- ``threefold``: the m = 3 cone link circle in closed elliptic form.
- ``meshverify``: the swept families (the conformal cone-over-link sweep
  among them), meshes, analytic-frame residual verification, exporters.
- ``cli``: the ``slevolve`` command-line front end.
"""

__version__ = "0.1.0"

from .errors import ConstructionError, NumericalError, ValidationError

__all__ = ["ConstructionError", "NumericalError", "ValidationError",
           "__version__"]
