import random
from fractions import Fraction

import pytest

from segrefuchs.qfield import GaussianRational, ZERO, ONE, I, qi
from segrefuchs.series import MultiSeries, LaurentInW, EXACT, SeriesError
from segrefuchs.surfaces import build_complex, build_real, real_to_complex
from segrefuchs.segre import eliminate
from segrefuchs.prolongation import (LinearODESystem, VectorField,
                                     tangency_residual)
from segrefuchs.frobenius import (residue_spectrum, holomorphic_solutions,
                                  frobenius_basis, formal_symmetries,
                                  lie_bracket, convergence_diagnostic,
                                  real_form_basis, field_u_vector,
                                  FrobeniusBasis, _field_row)
from segrefuchs.errors import NonFuchsianError, OrderTooLowError
from segrefuchs import linalg

from test_golden import dense_surface


def const_system(rows, order=14):
    n = len(rows)
    ent = [[LaurentInW(MultiSeries.const(rows[i][j], ("w",), order), 1, "w")
            for j in range(n)] for i in range(n)]
    return LinearODESystem(ent, unknown="y")


def zw(name):
    return MultiSeries.variable(name, ("z", "w"))


def zero_zw():
    return MultiSeries.zero(("z", "w"))


def in_span(fields, target, order=6):
    rows = [_field_row(L, order) for L in fields]
    r0 = linalg.rank(rows)
    rows.append(_field_row(target, order))
    return linalg.rank(rows) == r0


# ---- residue spectrum ----------------------------------------------------------

def test_spectrum_diagonal_resonant():
    S = const_system([[qi(0), qi(0)], [qi(0), qi(1)]])
    spec = residue_spectrum(S)
    assert spec.rational == {Fraction(0): 1, Fraction(1): 1}
    assert spec.resonances == [(Fraction(0), Fraction(1))]


def test_spectrum_no_resonance_half():
    S = const_system([[qi(0), qi(0)], [qi(0), qi(Fraction(1, 2))]])
    spec = residue_spectrum(S)
    assert spec.resonances == []
    assert Fraction(1, 2) in spec.rational


def test_spectrum_nilpotent_block():
    S = const_system([[qi(0), qi(1)], [qi(0), qi(0)]])
    spec = residue_spectrum(S)
    assert spec.rational == {Fraction(0): 2}


def test_spectrum_past_the_divisor_cap():
    # 2 * big is past DIVISOR_CAP, so the divisor search is cut short; the
    # linear factor left once 2 is found is read off exactly
    big = 10 ** 13 + 37
    spec = residue_spectrum(const_system([[qi(2), qi(0)], [qi(0), qi(big)]]))
    assert spec.rational == {Fraction(2): 1, Fraction(big): 1}
    assert spec.as_dict()["non_rational_factor_degree"] == 0
    assert spec.as_dict()["root_search_truncated"] is False
    # x**2 + big has no rational root, and the cut search says so
    spec = residue_spectrum(const_system([[qi(0), qi(-big)], [qi(1), qi(0)]]))
    assert spec.rational == {}
    assert spec.as_dict()["non_rational_factor_degree"] == 2
    assert spec.as_dict()["root_search_truncated"] is True


# ---- holomorphic solutions ------------------------------------------------------

def brute_force_recurrence(A0, A_rest, n, order):
    """Independent oracle: iterate the recurrence naively over columns."""
    from segrefuchs.linalg import solve_with_rhs_matrix
    # returns dimension found by rank of all solutions at the end
    Ms = []
    params = 0
    for k in range(order + 1):
        lam = GaussianRational.from_int(k)
        L = [[(lam if i == j else ZERO) - A0[i][j] for j in range(n)]
             for i in range(n)]
        rhs = [[ZERO] * params for _ in range(n)]
        for j, Aj in enumerate(A_rest, start=1):
            if k - j < 0:
                break
            Mk = Ms[k - j]
            for i in range(n):
                for t in range(n):
                    for p in range(params):
                        rhs[i][p] = rhs[i][p] + Aj[i][t] * Mk[t][p]
        X, kern, cons = solve_with_rhs_matrix(L, rhs)
        assert not cons
        if kern:
            X = [X[i] + [v[i] for v in kern] for i in range(n)]
            Ms = [[row + [ZERO] * len(kern) for row in M] for M in Ms]
            params += len(kern)
        Ms.append(X)
    return params


def test_holomorphic_diag_examples():
    S = const_system([[qi(0), qi(0)], [qi(0), qi(1)]])
    B = holomorphic_solutions(S, 8)
    assert B.dimension == 2
    flat = sorted(repr(v) for v in B.solutions)
    S2 = const_system([[qi(0), qi(0)], [qi(0), qi(-1)]])
    B2 = holomorphic_solutions(S2, 8)
    assert B2.dimension == 1
    assert B2.solutions[0][1].is_zero()


def test_pole_two_systems_are_refused_by_fuchsian_A():
    ent = [[LaurentInW(MultiSeries.const(qi(1), ("w",), 8), 2, "w")]]
    S = LinearODESystem(ent, unknown="y")
    for solve in (holomorphic_solutions, residue_spectrum):
        with pytest.raises(NonFuchsianError, match="pole order 2 > 1"):
            solve(S)


def test_exact_system_needs_an_explicit_order():
    """No trust order bounds an all-exact system: the window is the
    caller's to give, and None is refused rather than replaced."""
    S = const_system([[qi(0), qi(0)], [qi(0), qi(1)]], order=EXACT)
    with pytest.raises(SeriesError, match="explicit order"):
        holomorphic_solutions(S)
    B = holomorphic_solutions(S, 8)
    assert B.dimension == 2 and B.order == 8


def test_holomorphic_resonant_consistent():
    """A21 = 1, eigenvalues {0, 2}: solvability decided exactly."""
    A = [[qi(0), qi(0)], [qi(1), qi(2)]]
    S = const_system(A)
    B = holomorphic_solutions(S, 6)
    oracle_dim = brute_force_recurrence(A, [], 2, 6)
    assert B.dimension == oracle_dim == 2
    # solutions satisfy the system exactly
    for vec in B.solutions:
        assert all(r.is_zero() for r in S.residual(vec))


def test_log_obstruction_detected():
    """Forced inconsistency at a resonance: dimension drops, reported."""
    # A = [[0, 0], [w, 1]]: eigenvalues {0,1}; the k=1 step for the
    # k=0 kernel vector (1,0) needs (I - A0) y1 = A1 y0 = (0,1), which is
    # inconsistent in the second row: that branch requires a log term.
    ent = [[LaurentInW(MultiSeries.zero(("w",), 10), 1, "w"),
            LaurentInW(MultiSeries.zero(("w",), 10), 1, "w")],
           [LaurentInW(MultiSeries.variable("w", ("w",), 10), 1, "w"),
            LaurentInW(MultiSeries.const(1, ("w",), 10), 1, "w")]]
    S = LinearODESystem(ent, unknown="y")
    B = holomorphic_solutions(S, 8)
    assert B.log_obstructions == [(1, 1)]
    assert B.dimension == 1
    for vec in B.solutions:
        assert all(r.is_zero() for r in S.residual(vec))


def stacked_dimension(A_mats, n, order):
    """Independent oracle: the nullity of the recurrence equations of all
    degrees 0..order stacked into one matrix over the coefficients y_k."""
    rows = []
    for k in range(order + 1):
        for i in range(n):
            row = [ZERO] * (n * (order + 1))
            for j, Aj in enumerate(A_mats[:k + 1]):
                for t in range(n):
                    row[n * (k - j) + t] = row[n * (k - j) + t] - Aj[i][t]
            row[n * k + i] = row[n * k + i] + GaussianRational.from_int(k)
            rows.append(row)
    return n * (order + 1) - linalg.rank(rows)


def test_resonant_cut_keeps_parameters():
    """Two parameters before the k=1 cut, one kept through it."""
    # A = A0 + A1 w with A0 = diag(0, 0, 1): y0 is free in e1, e2; at k=1
    # the third row needs A1[2] . y0 = 0, which kills the e1 direction only
    A0 = [[qi(0), qi(0), qi(0)], [qi(0), qi(0), qi(0)],
          [qi(0), qi(0), qi(1)]]
    A1 = [[qi(1), qi(2), qi(0)], [qi(0), qi(1), qi(1)],
          [qi(1), qi(0), qi(1)]]
    ent = [[LaurentInW(MultiSeries(("w",), 10, {(0,): A0[i][j],
                                               (1,): A1[i][j]}), 1, "w")
            for j in range(3)] for i in range(3)]
    S = LinearODESystem(ent, unknown="y")
    B = holomorphic_solutions(S, 6)
    assert brute_force_recurrence(A0, [A1], 3, 0) == 2
    assert B.log_obstructions == [(1, 1)]
    assert B.dimension == stacked_dimension([A0, A1], 3, 6) == 2
    for vec in B.solutions:
        assert all(r.is_zero() for r in S.residual(vec))


def test_frobenius_branches_half_exponent():
    S = const_system([[qi(0), qi(0)], [qi(0), qi(Fraction(1, 2))]])
    F = frobenius_basis(S, 6)
    assert F.dimension == 1
    assert len(F.branches) == 1
    lam0, sols = F.branches[0]
    assert lam0 == Fraction(1, 2)
    assert len(sols) == 1


# ---- symmetries ------------------------------------------------------------------

def test_model_symmetries_contain_known_fields():
    M = build_complex(1, 1, {}, 12)
    basis = formal_symmetries(M.truncate(12))
    z, w = zw("z"), zw("w")
    assert basis.dimension >= 2
    assert in_span(basis.fields, VectorField(z.scale(I), zero_zw()))
    assert in_span(basis.fields, VectorField(zero_zw(), w))
    for cert in basis.certificates:
        assert cert.is_zero()
    assert basis.bracket_closure_defect() == 0


def test_m2_symmetries_contain_rotation():
    Mr = build_real(2, 1, {}, 13)
    Mc = real_to_complex(Mr)
    basis = formal_symmetries(Mc)
    z = zw("z")
    assert in_span(basis.fields, VectorField(z.scale(I), zero_zw()))


def test_random_fuchsian_surface_certificates():
    rng = random.Random(21)
    wb = MultiSeries.variable("wb", ("wb",))
    tbl = {(2, 2): wb.scale(qi(rng.randint(1, 3), 1)),
           (3, 3): (wb * wb).scale(qi(Fraction(1, 2)))}
    M = build_complex(2, 1, tbl, 12)
    basis = formal_symmetries(M)
    for L, cert in zip(basis.fields, basis.certificates):
        assert cert.is_zero()
        assert tangency_residual(L, basis.ode).is_zero()


def test_non_fuchsian_rejected():
    M = build_complex(2, 1, {(2, 2): MultiSeries.const(1, ("wb",))}, 12)
    with pytest.raises(NonFuchsianError) as exc:
        formal_symmetries(M)
    assert exc.value.ledger_row["name"] == "phi22"


def test_dimension_monotone_in_order():
    M = build_complex(1, 1, {}, 14)
    d1 = formal_symmetries(M.truncate(10)).dimension
    d2 = formal_symmetries(M.truncate(14)).dimension
    assert d2 <= d1


# ---- brackets ---------------------------------------------------------------------

def test_lie_bracket_examples():
    z, w = zw("z"), zw("w")
    b1 = lie_bracket(VectorField(z, zero_zw()), VectorField(zero_zw(), w))
    assert b1.is_zero()
    b2 = lie_bracket(VectorField(z, zero_zw()), VectorField(z * z, zero_zw()))
    assert b2.P == z * z and b2.Q.is_zero()
    b3 = lie_bracket(VectorField(z.scale(I), zero_zw()),
                     VectorField(zero_zw(), w))
    assert b3.is_zero()


# ---- convergence -------------------------------------------------------------------

def test_convergence_geometric_vs_factorial():
    geo = MultiSeries(("w",), 14, {(k,): ONE for k in range(15)})
    rep = convergence_diagnostic([geo])
    assert rep.verdict == "growth-bounded"
    assert all(abs(v - 1.0) < 1e-12 for v in rep.ratios.values())
    import math
    fac = MultiSeries(("w",), 14,
                      {(k,): qi(math.factorial(k)) for k in range(15)})
    rep2 = convergence_diagnostic([fac])
    assert rep2.verdict == "growth-unbounded"


def test_convergence_inconclusive():
    s = MultiSeries(("w",), 14, {(3,): ONE})
    assert convergence_diagnostic([s]).verdict == "inconclusive"


def test_symmetry_outputs_never_unbounded():
    M = build_complex(1, 1, {}, 12)
    basis = formal_symmetries(M.truncate(12))
    for d in basis.diagnostics:
        assert d.verdict != "growth-unbounded"


def test_filters_drop_a_pole_and_a_tangency_residual(monkeypatch):
    """formal_symmetries of dense m=2 at N = 17 on two hand-made candidates
    in place of the Frobenius basis: R1 = 1 alone gives P a pole through
    a~, and P0 = 1 alone is pole-free but leaves a tangency residual."""
    from segrefuchs import frobenius
    real = frobenius.holomorphic_solutions

    def candidates(Y, order=None):
        unit = [[MultiSeries.const(ONE if k == i else ZERO, ("w",), EXACT)
                 for k in range(Y.n)] for i in (3, 0)]
        return FrobeniusBasis(unit, 2, [], real(Y, order).order)
    monkeypatch.setattr(frobenius, "holomorphic_solutions", candidates)
    basis = formal_symmetries(real_to_complex(dense_surface(17, 2,
                                                            fuchsian=True)))
    assert basis.dimension == 0
    (pole, Pl), (residual, res) = basis.dropped
    assert (pole, residual) == ("pole", "residual")
    assert Pl.pole_order() > 0
    assert not res.is_zero()


# ---- real form -------------------------------------------------------------------

@pytest.mark.parametrize("m,order", [(1, 12), (2, 16), (3, 24)])
def test_real_form_weighted_scaling(m, order):
    """The chain v = u^m |z|^2 carries the scaling c z dz + w dw, c=(1-m)/2.

    Recovered mechanically: the real-form kernel must contain it, and the
    real tangency residual certifies it directly.
    """
    from segrefuchs.frobenius import real_tangency_residual
    from segrefuchs.surfaces import build_real, real_to_complex
    Mc = real_to_complex(build_real(m, 1, {}, order))
    basis = formal_symmetries(Mc)
    real = real_form_basis(basis, Mc)
    assert len(real) == 2
    z, w = zw("z"), zw("w")
    c = qi(Fraction(1 - m, 2))
    scaling = VectorField(z.scale(c), w)
    check_order = min(Mc.order, basis.order, m + 3)
    Mt = Mc.truncate(check_order)
    assert real_tangency_residual(scaling, Mt).is_zero()
    assert real_tangency_residual(
        VectorField(z.scale(I), zero_zw()), Mt).is_zero()
    for f in real:
        assert real_tangency_residual(f, Mt).is_zero()


def test_real_form_guards_thin_windows():
    from segrefuchs.errors import OrderTooLowError
    from segrefuchs.surfaces import build_real, real_to_complex
    Mc = real_to_complex(build_real(3, 1, {}, 16))
    basis = formal_symmetries(Mc)
    with pytest.raises(OrderTooLowError):
        real_form_basis(basis, Mc)


@pytest.mark.xfail(strict=True, raises=OrderTooLowError,
                   reason="real_form_basis refuses an empty basis below its "
                   "m+2 window; the benchmark's dense-real workload still "
                   "expects that refusal, see ROADMAP item 1")
def test_empty_basis_has_an_empty_real_form_below_the_window():
    """Dense m=3 at N = 16: the jet filter drops both candidates at window
    1 < m + 2, so there is nothing to make real."""
    Mc = real_to_complex(dense_surface(16, 3, fuchsian=True))
    basis = formal_symmetries(Mc)
    assert (basis.dimension, basis.order, len(basis.dropped)) == (0, 1, 2)
    assert real_form_basis(basis, Mc) == []


def test_real_form_of_model():
    from segrefuchs.frobenius import real_tangency_residual
    M = build_complex(1, 1, {}, 12)
    basis = formal_symmetries(M.truncate(12))
    real = real_form_basis(basis, M)
    assert len(real) == 2
    z, w = zw("z"), zw("w")
    # every returned field genuinely preserves M ...
    M10 = M.truncate(10)
    for f in real:
        assert real_tangency_residual(f, M10).is_zero()
    # ... as do iz dz and w dw, while z dz only preserves the ODE
    assert real_tangency_residual(
        VectorField(z.scale(I), zero_zw()), M10).is_zero()
    assert real_tangency_residual(
        VectorField(zero_zw(), w), M10).is_zero()
    assert not real_tangency_residual(
        VectorField(z, zero_zw()), M10).is_zero()
