"""Dual-route checks: independently derived objects must agree.

These tests never compare a computation to itself: each pits two separate
construction paths (structural u-system vs Fuchsian Y-system, exact
Frobenius series vs numeric continuation, tagged assembly vs concrete
residuals) against each other on nontrivial surfaces.
"""

import numpy as np
import pytest

from segrefuchs.qfield import qi, I
from segrefuchs.series import MultiSeries, LaurentInW, EXACT
from segrefuchs.surfaces import build_real, build_complex, real_to_complex
from segrefuchs.segre import eliminate
from segrefuchs.prolongation import (assemble_u_system, assemble_Y_system,
                                     assemble_twelve_system)
from segrefuchs.frobenius import (formal_symmetries, holomorphic_solutions,
                                  field_u_vector, residue_spectrum)
from segrefuchs.fuchs import check_fuchsian_ode
from segrefuchs.monodromy import LoopSpec, continue_system


def rich_fuchsian_m2():
    wb = MultiSeries.variable("wb", ("wb",))
    return build_complex(2, 1, {(2, 2): wb.scale(qi(1, 1)),
                                (3, 3): (wb * wb).scale(2)}, 14)


def sqrt2_surface():
    u = MultiSeries.variable("u", ("u",))
    c = qi(1, 2)
    return real_to_complex(build_real(
        2, 1, {(2, 2): u,
               (2, 3): MultiSeries(("u",), EXACT, {(2,): c}),
               (3, 2): MultiSeries(("u",), EXACT,
                                   {(2,): c.conjugate()})}, 14))


@pytest.mark.parametrize("make", [rich_fuchsian_m2, sqrt2_surface])
def test_Y_solutions_solve_u_system(make):
    """Both 8x8 systems are assembled independently; solutions transfer."""
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
        for r in U.residual(u):
            assert r.body.truncate(min(4, r.body.order)).is_zero()


@pytest.mark.parametrize("make", [rich_fuchsian_m2, sqrt2_surface])
def test_symmetries_vs_twelve_system(make):
    """Every returned field solves the separately built 12x12 exactly."""
    M = make()
    basis = formal_symmetries(M)
    T12 = assemble_twelve_system(basis.ode)
    for L in basis.fields:
        y = T12.vector_of(L)
        rz, rw = T12.residuals(y)
        for r in rz + rw:
            assert r.body.is_zero()


def test_spurious_shallow_candidates_are_rejected():
    """The sqrt2 surface has no structural symmetries: shallow Frobenius
    candidates must be filtered out at every working order, and deeper
    windows must agree."""
    for order in (14, 18, 22):
        u = MultiSeries.variable("u", ("u",))
        c = qi(1, 2)
        M = real_to_complex(build_real(
            2, 1, {(2, 2): u,
                   (2, 3): MultiSeries(("u",), EXACT, {(2,): c}),
                   (3, 2): MultiSeries(("u",), EXACT,
                                       {(2,): c.conjugate()})}, order))
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
        v0 = [s.eval_complex({"w": loop.radius}) for s in vec]
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
        return a.truncate(k).equal_mod(b.truncate(k), k)

    for vec, L in zip(hb.solutions, basis.fields):
        u = field_u_vector(L)
        assert match(u[0], vec[0])                        # P0
        assert match(u[1], vec[1])                        # P1
        assert match(u[4], vec[2].monomial_mul("w", 1))   # Q0 = w R0
