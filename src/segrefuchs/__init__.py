"""Exact workbench for nonminimal hypersurfaces in C^2.

Derives the associated singular second-order ODE of an m-admissible
hypersurface from its Segre family, classifies the Fuchsian condition,
computes infinitesimal automorphisms through Frobenius-type solving of the
derived linear systems, performs monomial blow-ups, and measures monodromy
of the linear systems numerically.

The package is used through its modules (`segrefuchs.surfaces`,
`segrefuchs.serialize`, ...) or through the `segrefuchs` command
(`segrefuchs.cli`); this root re-exports nothing.
"""

__version__ = "0.1.0"
