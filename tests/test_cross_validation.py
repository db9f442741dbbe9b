"""Dual-route checks: independently derived objects must agree.

These tests never compare a computation to itself: each pits two separate
construction paths (structural u-system vs Fuchsian Y-system, exact
Frobenius series vs numeric continuation, tagged assembly vs concrete
residuals) against each other on nontrivial surfaces.
"""

import numpy as np
import pytest

from segrefuchs.qfield import qi
from segrefuchs.series import MultiSeries
from segrefuchs.surfaces import build_real, build_complex, real_to_complex
from segrefuchs.segre import eliminate
from segrefuchs.prolongation import (assemble_u_system, assemble_Y_system,
                                     assemble_twelve_system,
                                     tangency_residual)
from segrefuchs.frobenius import (formal_symmetries, holomorphic_solutions,
                                  _jet_residuals)
from segrefuchs.fuchs import check_fuchsian_ode
from segrefuchs.monodromy import LoopSpec
from reference import (H22_U, SQRT2_TABLE, continue_system, dense_surface,
                       equal_mod, eval_complex, field_u_vector, jet_vector,
                       residue_spectrum, system_residual, twelve_residuals,
                       twelve_system)


def rich_fuchsian_m2():
    wb = MultiSeries.variable("wb", ("wb",))
    return build_complex(2, 1, {(2, 2): wb.scale(qi(1, 1)),
                                (3, 3): (wb * wb).scale(2)}, 14)


def sqrt2_surface():
    return real_to_complex(build_real(2, 1, SQRT2_TABLE, 14))


@pytest.mark.parametrize("make", [rich_fuchsian_m2, sqrt2_surface])
def test_Y_solutions_solve_u_system(make):
    """Y-solutions mapped back through Y = G(w) u solve the u-system.

    The Y-system is the gauge of the u-system, so this checks the gauge
    table; the independent two-shape solve is in test_y_system.py."""
    M = make()
    E = eliminate(M)
    U = assemble_u_system(E)
    Y = assemble_Y_system(E, check_fuchsian_ode(E))
    basis = holomorphic_solutions(Y)
    assert basis.dimension >= 1
    for vec in basis.solutions:
        P0, P1, R0, R1 = vec[0], vec[1], vec[2], vec[3]
        u = [P0, P1, P0.diff("w"), P1.diff("w"),
             R0.monomial_mul("w", 1), R1.monomial_mul("w", 1),
             R0 + R0.diff("w").monomial_mul("w", 1),
             R1 + R1.diff("w").monomial_mul("w", 1)]
        for r in system_residual(U, u):
            assert r.body.truncate(min(4, r.body.order)).is_zero()


@pytest.mark.parametrize("make", [rich_fuchsian_m2, sqrt2_surface])
def test_symmetries_vs_twelve_system(make):
    """Every returned field solves the separately built 12x12 exactly."""
    M = make()
    basis = formal_symmetries(M)
    A, B = twelve_system(assemble_twelve_system(basis.ode))
    for L in basis.fields:
        y = jet_vector(L)
        rz, rw = twelve_residuals(A, B, y)
        for r in rz + rw:
            assert r.body.is_zero()


# real surfaces whose Frobenius candidates reach the jet filter; on the
# first four it drops every candidate, on the last two it keeps both
JET_FILTER_SURFACES = {
    "dense-m1-N14": lambda: dense_surface(14, 1, fuchsian=True),
    "dense-m2-N17": lambda: dense_surface(17, 2, fuchsian=True),
    "dense-m3-N19": lambda: dense_surface(19, 3, fuchsian=True),
    "sqrt2-m2-N20": lambda: build_real(2, 1, SQRT2_TABLE, 20),
    "model-m1-N24": lambda: build_real(1, 1, {}, 24),
    "h22u-m2-N20": lambda: build_real(2, 1, H22_U, 20),
}


@pytest.mark.parametrize("label", list(JET_FILTER_SURFACES))
def test_eight_jet_residuals_decide_as_the_twelve_system(label):
    """The jet filter checks the eight solved third-order equations; on
    every candidate that passes the pole and tangency filters its decision
    equals that of the 24 rows of the complete 12x12 system.  On the dense
    and sqrt2 surfaces every candidate is dropped there, after a zero
    tangency residual; the structured ones keep both."""
    basis = formal_symmetries(real_to_complex(JET_FILTER_SURFACES[label]()))
    E = basis.ode
    third = assemble_twelve_system(E)
    A, B = twelve_system(third)
    reasons = [reason for reason, _ in basis.dropped]
    jet_dropped = [L for reason, L in basis.dropped if reason == "jet-system"]
    if label.startswith(("dense", "sqrt2")):
        assert basis.dimension == 0
        assert reasons and set(reasons) == {"jet-system"}
        for L in jet_dropped:
            assert tangency_residual(L, E).is_zero()
    else:
        assert (basis.dimension, reasons) == (2, [])
    for L, kept in ([(L, True) for L in basis.fields]
                    + [(L, False) for L in jet_dropped]):
        eight = _jet_residuals(third, L).values()
        rz, rw = twelve_residuals(A, B, jet_vector(L))
        assert all(r.body.is_zero() for r in eight) == kept
        assert all(r.body.is_zero() for r in rz + rw) == kept


def test_jet_residuals_claim_only_known_degrees():
    """dense-m3-N19 has a basis of order 1.  The (P, 2, 1) residual of its
    first dropped candidate reads third derivatives of a body known
    through degree 3, so it is known through degree 1 only: there it has
    one term, nonzero, and the drop stands on that term alone."""
    basis = formal_symmetries(real_to_complex(
        JET_FILTER_SURFACES["dense-m3-N19"]()))
    assert basis.order == 1
    third = assemble_twelve_system(basis.ode)
    reason, L = basis.dropped[0]
    r = _jet_residuals(third, L)[("P", 2, 1)]
    assert reason == "jet-system"
    assert (r.pole, r.body.order, len(r.body.num)) == (3, 1, 1)
    assert not r.body.is_zero()


def test_spurious_shallow_candidates_are_rejected():
    """The sqrt2 surface has no structural symmetries: shallow Frobenius
    candidates must be filtered out at every working order, and deeper
    windows must agree."""
    for order in (14, 18, 22):
        M = real_to_complex(build_real(2, 1, SQRT2_TABLE, order))
        basis = formal_symmetries(M)
        assert basis.dimension == 0
        assert basis.dropped


def test_frobenius_solutions_single_valued_numerically():
    """Exact holomorphic solutions of a non-constant Fuchsian system are
    single-valued; the numeric continuation must return them unchanged."""
    M = rich_fuchsian_m2()
    E = eliminate(M)
    Y = assemble_Y_system(E, check_fuchsian_ode(E))
    basis = holomorphic_solutions(Y)
    loop = LoopSpec(radius=0.05, tol=1e-9)
    for vec in basis.solutions:
        v0 = [eval_complex(s, loop.radius) for s in vec]
        scale = max(max(abs(x) for x in v0), 1.0)
        out, err, _ = continue_system(Y, loop, v0)
        # truncation tail limits the match, not the continuation
        assert np.max(np.abs(np.array(out) - np.array(v0))) / scale < 1e-5


def test_spectrum_consistent_with_holomorphic_dimension():
    """dim of the power-series space never exceeds the count of nonnegative
    integer eigenvalues of the residue matrix (with multiplicity)."""
    for make in (rich_fuchsian_m2, sqrt2_surface):
        M = make()
        E = eliminate(M)
        Y = assemble_Y_system(E, check_fuchsian_ode(E))
        spec = residue_spectrum(Y)
        basis = holomorphic_solutions(Y)
        nonneg = sum(mult for lam, mult in spec.rational.items()
                     if lam >= 0 and lam.denominator == 1)
        assert basis.dimension <= nonneg


@pytest.mark.parametrize("m,order", [(1, 12), (3, 13)])
def test_monodromy_unipotent_for_nilpotent_residue(m, order):
    """The u^m|z|^2 chain Y-systems have nilpotent residue matrices, so
    their numeric monodromy must be unipotent with determinant one:
    exact spectrum vs continued matrix."""
    from segrefuchs.monodromy import monodromy_matrix
    M = build_complex(m, 1, {}, order)
    E = eliminate(M)
    Y = assemble_Y_system(E, check_fuchsian_ode(E))
    spec = residue_spectrum(Y)
    assert spec.rational == {0: 8} and spec.residual_factor is None
    res = monodromy_matrix(Y, LoopSpec(radius=0.05, tol=1e-10))
    N = res.matrix - np.eye(8)
    P = np.eye(8)
    for _ in range(8):
        P = P @ N
    scale = max(np.linalg.norm(res.matrix, np.inf), 1.0) ** 8
    assert np.linalg.norm(P, np.inf) / scale < 1e-6
    assert abs(np.linalg.det(res.matrix) - 1.0) < 1e-6


def test_u_vector_extraction_matches_reconstruction():
    """field_u_vector inverts the structural reconstruction."""
    M = rich_fuchsian_m2()
    basis = formal_symmetries(M)
    Y = assemble_Y_system(basis.ode, None)
    hb = holomorphic_solutions(Y)
    assert basis.dimension == len(hb.solutions)

    def match(a, b):
        k = min(a.order, b.order, 5)
        return equal_mod(a.truncate(k), b.truncate(k), k)

    for vec, L in zip(hb.solutions, basis.fields):
        u = field_u_vector(L)
        assert match(u[0], vec[0])                        # P0
        assert match(u[1], vec[1])                        # P1
        assert match(u[4], vec[2].monomial_mul("w", 1))   # Q0 = w R0
