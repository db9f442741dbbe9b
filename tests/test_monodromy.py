import random
from fractions import Fraction

import numpy as np
import pytest

from segrefuchs.qfield import GaussianRational, ONE, qi
from segrefuchs.series import MultiSeries, LaurentInW
from segrefuchs.surfaces import build_complex
from segrefuchs.segre import eliminate
from segrefuchs.prolongation import (LinearODESystem, assemble_u_system,
                                     VectorField)
from segrefuchs.frobenius import formal_symmetries, field_u_vector
from segrefuchs.monodromy import (LoopSpec, continue_system,
                                  monodromy_matrix, infinitesimal_monodromy,
                                  tail_estimate)
from segrefuchs.errors import SegrefuchsError


def const_system(rows, order=14):
    n = len(rows)
    ent = [[LaurentInW(MultiSeries.const(rows[i][j], ("w",), order), 1, "w")
            for j in range(n)] for i in range(n)]
    return LinearODESystem(ent, unknown="y")


def expm_oracle(A):
    """Independent matrix exponential: scaling and squaring on the series."""
    A = np.array(A, dtype=complex)
    k = max(int(np.ceil(np.log2(max(1.0, np.linalg.norm(A, np.inf))))) + 4, 0)
    B = A / 2 ** k
    E = np.eye(len(A), dtype=complex)
    term = np.eye(len(A), dtype=complex)
    for j in range(1, 25):
        term = term @ B / j
        E = E + term
    for _ in range(k):
        E = E @ E
    return E


def test_half_exponent_loop():
    S = const_system([[qi(Fraction(1, 2))]])
    y, err, steps = continue_system(S, LoopSpec(tol=1e-9), [1.0])
    assert abs(y[0] + 1.0) < 1e-8
    assert steps >= 128


def test_integer_exponent_trivial():
    for k in (1, 2, 3):
        S = const_system([[qi(k)]])
        y, _, _ = continue_system(S, LoopSpec(tol=1e-9), [1.0])
        assert abs(y[0] - 1.0) < 1e-8


def test_pole_free_identity():
    ent = [[LaurentInW(MultiSeries.variable("w", ("w",), 12), 0, "w")]]
    S = LinearODESystem(ent, unknown="y")
    y, _, _ = continue_system(S, LoopSpec(tol=1e-9), [1.0])
    assert abs(y[0] - 1.0) < 1e-9


def test_monodromy_diag_half():
    S = const_system([[qi(Fraction(1, 2)), qi(0)], [qi(0), qi(0)]])
    res = monodromy_matrix(S, LoopSpec(tol=1e-9))
    expect = np.diag([-1.0 + 0j, 1.0 + 0j])
    assert np.max(np.abs(res.matrix - expect)) < 1e-8
    assert res.invertible()
    assert res.tail_estimate == 0.0  # constant matrix has no tail


def random_bounded_matrix(rng, n, radius=2):
    """Rational matrix with Gershgorin discs inside |z| <= radius."""
    A = [[qi(Fraction(rng.randint(-8, 8), 8)) for _ in range(n)]
         for _ in range(n)]
    for i in range(n):
        row_sum = sum(abs(c.to_complex()) for c in A[i])
        if row_sum > radius:
            scl = qi(Fraction(radius, 1)) * qi(
                Fraction(1, int(np.ceil(row_sum))))
            A[i] = [c * scl for c in A[i]]
    return A


def test_monodromy_matches_expm_randomized():
    rng = random.Random(99)
    for trial in range(4):
        n = rng.choice((2, 3, 4))
        A = random_bounded_matrix(rng, n)
        S = const_system(A)
        res = monodromy_matrix(S, LoopSpec(tol=1e-9))
        Af = [[c.to_complex() for c in row] for row in A]
        expect = expm_oracle(2j * np.pi * np.array(Af))
        assert np.max(np.abs(res.matrix - expect)) < 1e-8


def test_loop_radius_independence():
    S = const_system([[qi(Fraction(1, 3)), qi(1)], [qi(0), qi(Fraction(1, 2))]])
    r1 = monodromy_matrix(S, LoopSpec(radius=0.2, tol=1e-9))
    r2 = monodromy_matrix(S, LoopSpec(radius=0.35, tol=1e-9),
                          trusted_radius=0.5)
    assert np.max(np.abs(r1.matrix - r2.matrix)) < 1e-8


def test_orientation_inverse():
    S = const_system([[qi(Fraction(1, 2)), qi(1)], [qi(0), qi(Fraction(1, 4))]])
    fwd = monodromy_matrix(S, LoopSpec(tol=1e-9))
    rev = monodromy_matrix(S, LoopSpec(tol=1e-9, direction=-1))
    assert np.max(np.abs(fwd.matrix @ rev.matrix - np.eye(2))) < 1e-8


def test_radius_guard():
    S = const_system([[qi(1)]])
    with pytest.raises(SegrefuchsError):
        continue_system(S, LoopSpec(radius=0.3), [1.0])  # 0.3 >= 0.25


def test_model_u_system_monodromy_fixes_symmetries():
    M = build_complex(1, 1, {}, 12)
    basis = formal_symmetries(M.truncate(12))
    U = assemble_u_system(basis.ode)
    uvecs = [field_u_vector(L) for L in basis.fields]
    psi, off = infinitesimal_monodromy(uvecs, U, LoopSpec(tol=1e-9))
    assert off < 1e-8
    assert np.max(np.abs(psi - np.eye(len(uvecs)))) < 1e-6
    # psi is linear and injective: invertible within tolerance
    assert abs(np.linalg.det(psi)) > 1e-6


def test_infinitesimal_monodromy_bracket_compatibility():
    """psi[L1,L2] = [psi L1, psi L2] within tolerance on the test algebra.

    For the model the action is the identity, so compatibility is the
    statement that brackets of basis fields continue to themselves.
    """
    from segrefuchs.frobenius import lie_bracket
    M = build_complex(1, 1, {}, 12)
    basis = formal_symmetries(M.truncate(12))
    U = assemble_u_system(basis.ode)
    br = None
    for i in range(basis.dimension):
        for j in range(i + 1, basis.dimension):
            cand = lie_bracket(basis.fields[i], basis.fields[j])
            if not cand.is_zero():
                br = cand
                break
        if br is not None:
            break
    assert br is not None
    # psi is the identity on this basis, so compatibility
    # psi[L1,L2] = [psi L1, psi L2] reduces to the bracket's u-vector
    # continuing to itself around the loop
    loop = LoopSpec(tol=1e-9)
    uvec = [s.eval_complex({"w": loop.radius})
            for s in field_u_vector(br)]
    out, err, _ = continue_system(U, loop, uvec)
    assert np.max(np.abs(np.array(out) - np.array(uvec))) < 1e-6


def test_tail_estimate_reported():
    # a term at the truncation boundary signals an unknown tail
    body = MultiSeries(("w",), 6, {(1,): ONE, (6,): qi(3)})
    S = LinearODESystem([[LaurentInW(body, 1, "w")]], unknown="y")
    t = tail_estimate(S, 0.25)
    assert t > 0.0
    # a short exact polynomial reports no tail
    body2 = MultiSeries(("w",), 6, {(1,): ONE})
    S2 = LinearODESystem([[LaurentInW(body2, 1, "w")]], unknown="y")
    assert tail_estimate(S2, 0.25) == 0.0
