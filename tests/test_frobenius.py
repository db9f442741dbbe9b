import random
from fractions import Fraction

import pytest

from segrefuchs.qfield import GaussianRational, ZERO, ONE, I, qi
from segrefuchs.series import MultiSeries, LaurentInW, EXACT, SeriesError
from segrefuchs.surfaces import build_complex, build_real, real_to_complex
from segrefuchs.prolongation import (LinearODESystem, VectorField,
                                     tangency_residual)
from segrefuchs.frobenius import (holomorphic_solutions, formal_symmetries,
                                  lie_bracket, convergence_diagnostic,
                                  real_form_basis, FrobeniusBasis,
                                  SymmetryBasis, in_span, _matrix_coeffs,
                                  _param_recurrence, _solution_vectors)
from segrefuchs.errors import NonFuchsianError, OrderTooLowError
from segrefuchs import linalg
from reference import (const_system, dense_surface, real_tangency_residual,
                       residue_spectrum, system_residual, zero_zw, zw)


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
    assert spec.residual_factor is None
    assert spec.truncated_search is False
    # x**2 + big has no rational root, and the cut search says so
    spec = residue_spectrum(const_system([[qi(0), qi(-big)], [qi(1), qi(0)]]))
    assert spec.rational == {}
    assert len(spec.residual_factor) - 1 == 2
    assert spec.truncated_search is True


# ---- holomorphic solutions ------------------------------------------------------

def brute_force_recurrence(A0, A_rest, n, order):
    """Independent oracle: iterate the recurrence naively over columns,
    solving each step by reading rref([L | rhs]) directly; returns the
    number of parameters at the end (no step may be inconsistent)."""
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
        R, piv = linalg.rref([L[i] + rhs[i] for i in range(n)])
        assert all(c < n for c in piv)
        free = [c for c in range(n) if c not in piv]
        # particular solution with the free unknowns 0, then one column per
        # free unknown: 1 there, the negated rref column at the pivots
        X = [[ZERO] * (params + len(free)) for _ in range(n)]
        for r, c in enumerate(piv):
            X[c][:params] = R[r][n:]
        for f, fc in enumerate(free):
            X[fc][params + f] = ONE
            for r, c in enumerate(piv):
                X[c][params + f] = -R[r][fc]
        Ms = [[row + [ZERO] * len(free) for row in M] for M in Ms]
        params += len(free)
        Ms.append(X)
    return params


def test_holomorphic_diag_examples():
    S = const_system([[qi(0), qi(0)], [qi(0), qi(1)]])
    B = holomorphic_solutions(S, 8)
    assert B.dimension == 2
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


def test_no_holomorphic_solution_has_dimension_zero():
    """y' = -y/(2w) has the solutions c w^(-1/2) only, so every step of the
    recurrence has the unique solution 0 and the empty basis passes the
    independence check."""
    B = holomorphic_solutions(const_system([[qi(Fraction(-1, 2))]]))
    assert (B.dimension, B.solutions, B.order) == (0, [], 14)


def test_holomorphic_resonant_consistent():
    """A21 = 1, eigenvalues {0, 2}: solvability decided exactly."""
    A = [[qi(0), qi(0)], [qi(1), qi(2)]]
    S = const_system(A)
    B = holomorphic_solutions(S, 6)
    oracle_dim = brute_force_recurrence(A, [], 2, 6)
    assert B.dimension == oracle_dim == 2
    # solutions satisfy the system exactly
    for vec in B.solutions:
        assert all(r.is_zero() for r in system_residual(S, vec))


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
        assert all(r.is_zero() for r in system_residual(S, vec))


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


def affine_system(A0, A1):
    """dy/dw = (A0 + A1 w) y / w, each entry trusted through order 10."""
    n = len(A0)
    return LinearODESystem(
        [[LaurentInW(MultiSeries(("w",), 10, {(0,): A0[i][j],
                                              (1,): A1[i][j]}), 1, "w")
          for j in range(n)] for i in range(n)], unknown="y")


# (A0, A1) with A0 = diag(0, 0, 1): two parameters at k=0, one cut at k=1
CUT_SYSTEM = ([[0, 0, 0], [0, 0, 0], [0, 0, 1]],
              [[1, 2, 0], [0, 1, 1], [1, 0, 1]])
# A0 = diag(0, 2, 2): one parameter at k=0, cut at k=2, where the two
# resonant directions add two new ones
CUT_AND_ADD_SYSTEM = ([[0, 0, 0], [0, 2, 0], [0, 0, 2]],
                      [[1, 1, 0], [1, 0, 3], [2, 1, 1]])
# constant A0 = diag(0, 3): degrees 1-2 have nothing to solve, and the k=3
# resonance adds w^3 e2
SKIP_TO_RESONANCE_SYSTEM = ([[0, 0], [0, 3]], [[0, 0], [0, 0]])
# A0 = diag(-1, 2): no parameter at k=0, nothing to solve at k=1, a new
# parameter at k=2, and A1 live from k=3 on
SKIP_THEN_ADD_SYSTEM = ([[-1, 0], [0, 2]], [[1, 1], [1, 1]])


@pytest.mark.parametrize("system,obstructions,solutions", [
    (CUT_SYSTEM, [(1, 1)], [
        [{1: "2", 2: "2", 3: "1", 4: "2/3", 5: "5/12", 6: "11/60"},
         {0: "1", 1: "1", 2: "1/2", 3: "5/6", 4: "17/24", 5: "41/120",
          6: "91/720"},
         {2: "2", 3: "2", 4: "1", 5: "5/12", 6: "1/6"}],
        [{3: "1/3", 4: "1/3", 5: "1/6", 6: "17/270"},
         {2: "1/2", 3: "1/2", 4: "1/4", 5: "19/180", 6: "31/720"},
         {1: "1", 2: "1", 3: "1/2", 4: "5/18", 5: "11/72", 6: "23/360"}]]),
    (CUT_AND_ADD_SYSTEM, [(2, 1)], [
        [{3: "1/3", 4: "1/12", 5: "7/20", 6: "109/540"},
         {2: "1", 4: "5/3", 5: "31/36", 6: "181/240"},
         {3: "1", 4: "5/6", 5: "8/9", 6: "49/80"}],
        [{4: "3/4", 5: "9/20", 6: "9/20"},
         {3: "3", 4: "3/2", 5: "9/4", 6: "109/80"},
         {2: "1", 3: "1", 4: "2", 5: "5/3", 6: "289/240"}]]),
    (SKIP_TO_RESONANCE_SYSTEM, [], [
        [{0: "1"}, {}],
        [{}, {3: "1"}]]),
    (SKIP_THEN_ADD_SYSTEM, [], [
        [{3: "1/4", 4: "1/4", 5: "7/48", 6: "1/16"},
         {2: "1", 3: "1", 4: "5/8", 5: "7/24", 6: "7/64"}]]),
], ids=["cut", "cut-and-add", "skip-to-resonance", "skip-then-add"])
def test_resonant_bases_are_pinned(system, obstructions, solutions):
    """The exact basis through order 6 of systems whose recurrence cuts
    parameters at a resonant degree or solves nothing at some degrees:
    values, parameter order and the log obstructions, as recorded before
    the resonant step became one kernel solve (the cut systems) and before
    degrees with nothing to solve were skipped (the skip systems)."""
    A0, A1 = [[[qi(a) for a in row] for row in A] for A in system]
    B = holomorphic_solutions(affine_system(A0, A1), 6)
    assert (B.dimension, B.order) == (len(solutions), 6)
    assert B.log_obstructions == obstructions
    assert [[s.order for s in vec] for vec in B.solutions] == \
        [[6] * len(A0)] * len(solutions)
    assert [[{e: c for (e,), c in s.terms.items()} for s in vec]
            for vec in B.solutions] == \
        [[{e: qi(Fraction(c)) for e, c in comp.items()} for comp in vec]
         for vec in solutions]


@pytest.mark.parametrize("system,solves", [
    (SKIP_TO_RESONANCE_SYSTEM, 2),
    (SKIP_THEN_ADD_SYSTEM, 6),
    (([[Fraction(-1, 2), 0], [0, Fraction(1, 3)]], [[0, 0], [0, 0]]), 1),
], ids=["skip-to-resonance", "skip-then-add", "no-integer-eigenvalue"])
def test_degrees_with_nothing_to_solve_take_no_solve(monkeypatch, system,
                                                     solves):
    """Through order 6, a kernel solve runs at degree 0, at a resonant
    degree and at each degree with a live right-hand-side term, and nowhere
    else; the dimension still matches the stacked oracle."""
    A0, A1 = [[[qi(a) for a in row] for row in A] for A in system]
    calls = []
    kernel_basis = linalg.kernel_basis

    def counted(M):
        calls.append(M)
        return kernel_basis(M)
    monkeypatch.setattr(linalg, "kernel_basis", counted)
    B = holomorphic_solutions(affine_system(A0, A1), 6)
    assert len(calls) == solves
    assert B.dimension == stacked_dimension([A0, A1], 2, 6)


def test_charpoly_forms_one_product_per_step(monkeypatch):
    """Faddeev-LeVerrier keeps A M_k for the next step, so an n x n
    charpoly forms n products; the sympy oracle pins its coefficients."""
    rng = random.Random(6)
    calls = []
    mat_mul = linalg.mat_mul

    def counted(X, Y):
        calls.append(X)
        return mat_mul(X, Y)
    monkeypatch.setattr(linalg, "mat_mul", counted)
    for n in range(1, 7):
        calls.clear()
        A = [[qi(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(n)]
             for _ in range(n)]
        assert len(linalg.charpoly(A)) == n + 1
        assert len(calls) == n


def test_resonant_cut_keeps_parameters():
    """Two parameters before the k=1 cut, one kept through it."""
    # A = A0 + A1 w with A0 = diag(0, 0, 1): y0 is free in e1, e2; at k=1
    # the third row needs A1[2] . y0 = 0, which kills the e1 direction only
    A0, A1 = [[[qi(a) for a in row] for row in A] for A in CUT_SYSTEM]
    S = affine_system(A0, A1)
    B = holomorphic_solutions(S, 6)
    assert brute_force_recurrence(A0, [A1], 3, 0) == 2
    assert B.log_obstructions == [(1, 1)]
    assert B.dimension == stacked_dimension([A0, A1], 3, 6) == 2
    for vec in B.solutions:
        assert all(r.is_zero() for r in system_residual(S, vec))


def frobenius_basis(S, order=None):
    """The holomorphic family with the non-integer rational branches:
    (holomorphic_solutions(S, order), [(lambda0, solutions), ...]).

    For every class mod 1 of non-integer rational eigenvalues of A0 the
    recurrence runs from the class's smallest member lambda0: H(w) w^lambda0
    solves the system when H solves (A - lambda0 I) / w, whose recurrence
    is the holomorphic one with A0 - lambda0 I as its constant term, run
    through the holomorphic family's order.
    """
    hol = holomorphic_solutions(S, order)
    classes = {}
    for lam in residue_spectrum(S).rational:
        if lam.denominator != 1:
            classes.setdefault(lam - lam // 1, []).append(lam)
    A_mats = _matrix_coeffs(S.fuchsian_A(), hol.order)
    branches = []
    for _, lams in sorted(classes.items()):
        lam0 = min(lams)
        shift = GaussianRational.of(lam0)
        A0 = [[a - shift if i == j else a for j, a in enumerate(row)]
              for i, row in enumerate(A_mats[0])]
        Ms, params, _ = _param_recurrence([A0] + A_mats[1:], S.n, hol.order)
        if params:
            branches.append(
                (lam0, _solution_vectors(Ms, S.n, params, hol.order)))
    return hol, branches


def test_frobenius_branches_half_exponent():
    S = const_system([[qi(0), qi(0)], [qi(0), qi(Fraction(1, 2))]])
    F, branches = frobenius_basis(S, 6)
    assert F.dimension == 1
    assert len(branches) == 1
    lam0, sols = branches[0]
    assert lam0 == Fraction(1, 2)
    assert len(sols) == 1


def test_frobenius_branches_solve_the_shifted_system():
    """A = A0 + A1 w with A0 = diag(0, 1/2): the branch H(w) w^(1/2)
    solves dY/dw = A Y / w, so H solves (A - I/2) / w exactly through the
    order of the holomorphic family."""
    A0 = [[qi(0), qi(0)], [qi(0), qi(Fraction(1, 2))]]
    A1 = [[qi(1), qi(2)], [qi(-3), qi(1, 1)]]

    def system(shift):
        return LinearODESystem(
            [[LaurentInW(MultiSeries(("w",), 10, {
                (0,): A0[i][j] - (shift if i == j else ZERO),
                (1,): A1[i][j]}), 1, "w") for j in range(2)]
             for i in range(2)], unknown="y")

    F, branches = frobenius_basis(system(ZERO), 6)
    assert (F.dimension, F.order) == (1, 6)
    [(lam0, sols)] = branches
    assert lam0 == Fraction(1, 2) and len(sols) == 1
    shifted = system(GaussianRational.of(lam0))
    for H in sols:
        assert [h.order for h in H] == [6, 6]
        assert not H[0].is_zero() and not H[1].is_zero()
        assert all(r.is_zero() for r in system_residual(shifted, H))


# ---- symmetries ------------------------------------------------------------------

def test_model_symmetries_contain_known_fields():
    M = build_complex(1, 1, {}, 12)
    basis = formal_symmetries(M.truncate(12))
    z, w = zw("z"), zw("w")
    assert basis.dimension >= 2
    assert in_span(basis.fields, [VectorField(z.scale(I), zero_zw()),
                                  VectorField(zero_zw(), w)], 6)
    for cert in basis.certificates:
        assert cert.is_zero()
    assert basis.bracket_closure_defect() == 0


def test_bracket_closure_defect_sees_a_bracket_off_the_span():
    """[d/dz, z^2 d/dz] = 2z d/dz leaves the span of the pair, while
    [d/dz, z d/dz] = d/dz stays in it."""
    z = zw("z")
    dz = VectorField(MultiSeries.const(ONE, ("z", "w")), zero_zw())

    def defect(*fields):
        return SymmetryBasis(list(fields), [], [], None, [], [],
                             8).bracket_closure_defect()
    assert defect(dz, VectorField(z * z, zero_zw())) == 1
    assert defect(dz, VectorField(z, zero_zw())) == 0
    assert defect() == defect(dz) == 0


def test_bracket_closure_defect_reads_only_known_degrees():
    """In an order-1 basis a bracket is known through degree 0 only.
    [z d/dz, d/dz + z d/dw] = -d/dz + z d/dw leaves the span of the pair in
    degree 1, which is not known; through degree 0 it lies in the span."""
    z = zw("z").truncate(1)
    one = MultiSeries.const(ONE, ("z", "w"), 1)
    fields = [VectorField(z, zero_zw().truncate(1)), VectorField(one, z)]
    bracket = lie_bracket(*fields)
    assert in_span(fields, [bracket], 0)
    assert not in_span(fields, [bracket], 1)
    assert SymmetryBasis(fields, [], [], None, [], [],
                         1).bracket_closure_defect() == 0


def test_in_span_compares_through_the_order():
    z, w = zw("z"), zw("w")
    zdz, wdw = VectorField(z, zero_zw()), VectorField(zero_zw(), w)
    z2dz = VectorField(z * z, zero_zw())
    assert in_span([zdz, wdw], [VectorField(z.scale(3), w.scale(-2))], 4)
    assert not in_span([zdz], [wdw], 4)
    assert not in_span([zdz, wdw], [z2dz], 4)
    assert in_span([zdz], [z2dz], 1)


def test_m2_symmetries_contain_rotation():
    Mr = build_real(2, 1, {}, 13)
    Mc = real_to_complex(Mr)
    basis = formal_symmetries(Mc)
    z = zw("z")
    assert in_span(basis.fields, [VectorField(z.scale(I), zero_zw())], 6)


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
