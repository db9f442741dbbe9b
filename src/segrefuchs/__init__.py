"""Exact workbench for nonminimal hypersurfaces in C^2.

Derives the associated singular second-order ODE of an m-admissible
hypersurface from its Segre family, classifies the Fuchsian condition,
computes infinitesimal automorphisms through Frobenius-type solving of the
derived linear systems, performs monomial blow-ups, and measures monodromy
of the linear systems numerically.
"""

from .qfield import GaussianRational, qi
from .series import MultiSeries, LaurentInW, exp_series, log_series, \
    solve_implicit
from .surfaces import (RealDefining, ComplexDefining, build_real,
                       build_complex, real_to_complex, complex_to_real,
                       check_reality, validate_complex, nonminimality_order)
from .segre import (SegreGraph, AssociatedODE, segre_graph, eliminate,
                    closed_form_coeffs, verify_ode, families_agree)
from .fuchs import (FuchsReport, check_fuchsian_real, check_fuchsian_complex,
                    check_fuchsian_ode)
from .prolongation import (VectorField, ProlongedField, tangency_residual,
                           initial_system, assemble_u_system,
                           assemble_Y_system, assemble_twelve_system,
                           LinearODESystem, TwelveSystem)
from .frobenius import (ResidueSpectrum, FrobeniusBasis, SymmetryBasis,
                        residue_spectrum, holomorphic_solutions,
                        frobenius_basis, formal_symmetries, lie_bracket,
                        convergence_diagnostic, real_form_basis,
                        real_tangency_residual, field_u_vector)
from .blowup import (BlowupMap, pullback_surface, find_blowup_exponent,
                     pullback_field, pushforward_field)
from .monodromy import (LoopSpec, MonodromyResult, continue_system,
                        monodromy_matrix, infinitesimal_monodromy)

__version__ = "0.1.0"

__all__ = [
    "GaussianRational", "qi",
    "MultiSeries", "LaurentInW", "exp_series", "log_series",
    "solve_implicit",
    "RealDefining", "ComplexDefining", "build_real", "build_complex",
    "real_to_complex", "complex_to_real", "check_reality",
    "validate_complex", "nonminimality_order",
    "SegreGraph", "AssociatedODE", "segre_graph", "eliminate",
    "closed_form_coeffs", "verify_ode", "families_agree",
    "FuchsReport", "check_fuchsian_real", "check_fuchsian_complex",
    "check_fuchsian_ode",
    "VectorField", "ProlongedField", "tangency_residual",
    "initial_system",
    "assemble_u_system", "assemble_Y_system", "assemble_twelve_system",
    "LinearODESystem", "TwelveSystem",
    "ResidueSpectrum", "FrobeniusBasis", "SymmetryBasis",
    "residue_spectrum", "holomorphic_solutions", "frobenius_basis",
    "formal_symmetries", "lie_bracket", "convergence_diagnostic",
    "real_form_basis", "real_tangency_residual", "field_u_vector",
    "BlowupMap", "pullback_surface", "find_blowup_exponent",
    "pullback_field", "pushforward_field",
    "LoopSpec", "MonodromyResult", "continue_system", "monodromy_matrix",
    "infinitesimal_monodromy",
]
