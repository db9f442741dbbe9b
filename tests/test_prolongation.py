import random
from fractions import Fraction

import pytest

from segrefuchs.qfield import ONE, I, qi
from segrefuchs.series import MultiSeries, LaurentInW, EXACT
from segrefuchs.surfaces import build_complex, build_real, real_to_complex
from segrefuchs.segre import AssociatedODE, eliminate, WV, ZETA
from segrefuchs.prolongation import (VectorField, ProlongedField,
                                     LinForm, STRUCT_ALG, JET_ALG,
                                     structural_field, tangency_forms,
                                     tangency_residual,
                                     reconstruct_field,
                                     assemble_u_system, assemble_Y_system,
                                     assemble_twelve_system,
                                     LinearODESystem, _solve_tags)
from segrefuchs.frobenius import _jet_residuals
from segrefuchs.fuchs import check_fuchsian_ode
from segrefuchs.errors import NonFuchsianError, SegrefuchsError
from reference import (SQRT2_TABLE, collect_initial_system, dense_surface,
                       field_u_vector, jet_vector, system_residual,
                       twelve_residuals, twelve_system, zero_zw, zw)


def model(order=12, m=1):
    return build_complex(m, 1, {}, order)


# ---- prolongation ----------------------------------------------------------

def test_prolong2_displayed_examples():
    z, w = zw("z"), zw("w")
    pf = ProlongedField(z, zero_zw())
    assert pf.q1[0].is_zero() and pf.q1[1] == MultiSeries.const(-1, ("z", "w"))
    assert pf.q2_w2[0] == MultiSeries.const(-2, ("z", "w"))
    pf = ProlongedField(zero_zw(), w)
    assert pf.q1[1] == MultiSeries.const(1, ("z", "w"))
    assert pf.q2_w2[0] == MultiSeries.const(1, ("z", "w"))
    pf = ProlongedField(w, zero_zw())
    assert pf.q1[2] == MultiSeries.const(-1, ("z", "w"))
    assert pf.q2_w2[1] == MultiSeries.const(-3, ("z", "w"))


def test_prolongation_linearity():
    rng = random.Random(5)

    def rnd_field():
        t = {}
        for _ in range(3):
            t[(rng.randint(0, 3), rng.randint(0, 3))] = qi(
                rng.randint(-3, 3), rng.randint(-3, 3))
        return VectorField(MultiSeries(("z", "w"), 8, t),
                           MultiSeries(("z", "w"), 8, dict(t)))

    for _ in range(5):
        L1, L2 = rnd_field(), rnd_field()
        L12 = L1 + L2
        s = ProlongedField(L12.P, L12.Q)
        p1, p2 = ProlongedField(L1.P, L1.Q), ProlongedField(L2.P, L2.Q)
        for j in s.q1:
            assert s.q1[j] == p1.q1[j] + p2.q1[j]
        for j in s.q2_w2:
            assert s.q2_w2[j] == p1.q2_w2[j] + p2.q2_w2[j]
        c = qi(Fraction(2, 3), 1)
        sc = ProlongedField(L1.P.scale(c), L1.Q.scale(c))
        for j in sc.q1:
            assert sc.q1[j] == p1.q1[j].scale(c)


# ---- tangency ----------------------------------------------------------------

def test_tangency_known_symmetries_of_model():
    E = eliminate(model())
    z, w = zw("z"), zw("w")
    assert tangency_residual(VectorField(z.scale(I), zero_zw()), E).is_zero()
    assert tangency_residual(VectorField(zero_zw(), w), E).is_zero()
    # z dz generates the complexification together with iz dz; also zero
    assert tangency_residual(VectorField(z, zero_zw()), E).is_zero()


def test_tangency_negative_examples():
    E = eliminate(model())
    z, w = zw("z"), zw("w")
    r1 = tangency_residual(VectorField(z * z, zero_zw()), E)
    assert not r1.is_zero()
    assert not r1.coeff_of({ZETA: r1.var_valuation(ZETA)}).is_zero()
    r2 = tangency_residual(VectorField(w, zero_zw()), E)
    assert not r2.is_zero()


# ---- restricted tangency (only the slots the systems read) -------------------

def _restriction_surface(kind, m):
    N = 3 * m + 8
    if kind == "model":
        return build_complex(m, 1, {}, N)
    if kind == "dense":
        return real_to_complex(dense_surface(N, m, fuchsian=True))
    return real_to_complex(build_real(m, 1, SQRT2_TABLE, N))


def _same_slot(full, restricted):
    assert sorted(full.coef) == sorted(restricted.coef)
    for t, c in full.coef.items():
        r = restricted.coef[t]
        assert c.pole == r.pole and c.body.order == r.body.order, t
        assert c.body == r.body, t


def _reads_agree(Pf, Qf, E, top):
    """The slots within top of the full and the restricted residual agree
    tag for tag, in coefficients and in orders."""
    full = tangency_forms(Pf, Qf, E)
    part = tangency_forms(Pf, Qf, E, top)
    for j in range(top[ZETA] + 1):
        for k in range(top.get("z", 0) + 1):
            slot = {ZETA: j, "z": k} if "z" in top else {ZETA: j}
            _same_slot(full.slice(slot), part.slice(slot))


@pytest.mark.parametrize("kind", ("model", "dense", "sqrt2"))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_restricted_tangency_matches_the_full_one_where_read(kind, m):
    """Both restrictions the systems use: the structural form of the
    u-system in the slots zeta <= 3, z <= 1, and the jet form of the
    initial system in the slices zeta <= 3."""
    E = eliminate(_restriction_surface(kind, m))
    V3 = ("z", WV, ZETA)
    at = E.a_tilde()
    Pf, Qf = structural_field(
        LaurentInW(at.body.embed(V3), at.pole, WV),
        MultiSeries.variable("z", V3),
        *(LinForm.unknown((n, 0), STRUCT_ALG)
          for n in ("P0", "P1", "Q0", "Q1")))
    _reads_agree(Pf, Qf, E, {ZETA: 3, "z": 1})
    P, Q = (LinForm.unknown((n, 0, 0), JET_ALG) for n in ("P", "Q"))
    _reads_agree(P, Q, E, {ZETA: 3})


@pytest.mark.parametrize("m", (1, 2, 3))
def test_restricted_tangency_keeps_the_valuation_of_each_factor(m):
    """Phi = w^m z zeta^4 + (2 + i) w^(m+3) z zeta^2: the lowest-degree
    term of Phi and of Phi_z lies outside the slots zeta <= 3, z <= 1.  The
    coefficient of P is c(w) of order 5 with no z, so for m >= 2 the lowest
    order among the contributions to P's coefficient is that of c * Phi_z,
    set by the valuation of Phi_z; dropping its one lowest term outright
    would raise that order."""
    V3 = ("z", WV, ZETA)
    Phi = MultiSeries(V3, m + 12, {(1, m, 4): ONE, (1, m + 3, 2): qi(2, 1)})
    E = AssociatedODE.from_phi(m, 1, Phi)
    c = MultiSeries(V3, 5, {(0, 2, 0): ONE, (0, 3, 0): qi(3)})
    P = LinForm({("P", 0, 0): LaurentInW(c, 0, WV)}, JET_ALG)
    Q = LinForm.unknown(("Q", 0, 0), JET_ALG)
    _reads_agree(P, Q, E, {ZETA: 3, "z": 1})


# ---- symbolic collection (four-equation regression fixture) --------------------

def test_collected_system_matches_fixture_lines():
    oriented, fixture, diffs = collect_initial_system()
    assert all(d.is_zero() for d in diffs), diffs
    # first line is Q_zz and second is 2Q_zw - P_zz = 2 a Q_z, literally
    assert oriented[0] == fixture[0]
    gen = fixture[1]
    assert oriented[1] == gen


def test_initial_system_concrete_lines():
    """The concrete four-line system of the model: first line Q_zz = 0,
    second line carries 2 a Q_z with a = 1/w."""
    from segrefuchs.prolongation import initial_system
    E = eliminate(model())
    lines = initial_system(E)
    assert sorted(lines[0].coef) == [("Q", 2, 0)]
    l1 = lines[1]
    assert set(l1.coef) == {("Q", 1, 1), ("P", 2, 0), ("Q", 1, 0)}
    c = l1.get(("Q", 1, 0))
    assert c.pole_order() == 1
    assert c.body.constant_term() == qi(-2)
    # symmetries annihilate every line
    z, w = zw("z"), zw("w")
    for L in (VectorField(z.scale(I), zero_zw()), VectorField(zero_zw(), w)):
        comps = {("P", i, j): _jet(L.P, i, j) for i in range(4)
                 for j in range(4) if i + j <= 3}
        comps.update({("Q", i, j): _jet(L.Q, i, j) for i in range(4)
                      for j in range(4) if i + j <= 3})
        for ln in lines:
            acc = None
            for t, coeff in ln.coef.items():
                term = coeff * comps[t]
                acc = term if acc is None else acc + term
            assert acc is None or acc.body.is_zero()


def _jet(s, i, j):
    from segrefuchs.series import LaurentInW
    for _ in range(i):
        s = s.diff("z")
    for _ in range(j):
        s = s.diff("w")
    return LaurentInW(s, 0, "w")


# ---- a_tilde and reconstruction ---------------------------------------------

def test_a_tilde_examples():
    E1 = eliminate(model())
    at = E1.a_tilde()  # a = 1/w -> z^2/(2w)
    assert at.pole == 1
    assert at.body.coefficient((2, 0)) == qi(Fraction(1, 2))
    for m in (2, 3):
        Em = eliminate(model(3 * m + 4, m))
        atm = Em.a_tilde()  # a = w^(m-1)/w^m = 1/w
        assert atm.pole == 1
        assert atm.body.coefficient((2, 0)) == qi(Fraction(1, 2))


def test_reconstruction_formula():
    """(P0,P1,Q0,Q1) = (0,0,0,w): P = z^2 d/dw(w) - 2 w a_tilde."""
    E = eliminate(model())
    zer = MultiSeries.zero(("w",))
    w = MultiSeries.variable("w", ("w",))
    Pl, Ql = reconstruct_field(E, zer, zer, zer, w)
    at = E.a_tilde()
    z2 = MultiSeries.monomial(ONE, (2, 0), ("z", "w"))
    expect = LaurentInW(z2, 0, "w") - at * LaurentInW(
        MultiSeries.variable("w", ("z", "w")).scale(2), 0, "w")
    assert (Pl - expect).body.is_zero()
    assert Ql.as_series() == MultiSeries.monomial(
        ONE, (1, 1), ("z", "w"), Ql.body.order)


# ---- u-system ----------------------------------------------------------------

def test_u_system_model_and_known_solutions():
    E = eliminate(model())
    U = assemble_u_system(E)
    assert U.pole_order <= 3 * E.m
    z, w = zw("z"), zw("w")
    for L in (VectorField(zero_zw(), w), VectorField(z.scale(I), zero_zw())):
        res = system_residual(U, field_u_vector(L))
        assert all(r.is_zero() for r in res)


def _form(**coef):
    """The LinForm sum of coef[name] * (name, 0), each a Laurent value
    w^-pole * c * w^degree given as (c, degree, pole)."""
    return LinForm({(n, 0): LaurentInW(MultiSeries.monomial(c, (k,), ("w",)),
                                       p, "w")
                    for n, (c, k, p) in coef.items()}, STRUCT_ALG)


@pytest.mark.parametrize("eqs,match", [
    ([_form(x=(1, 1, 0), a=(1, 0, 0))], "not constant"),
    ([_form(x=(1, 0, 1), a=(1, 0, 0))], "not constant"),
    ([_form(x=(1, 0, 0), b=(1, 0, 0))], r"left tags \[\('b', 0\)\]"),
    ([_form(x=(1, 0, 0), y=(1, 0, 0), a=(1, 0, 0)),
      _form(x=(2, 0, 0), y=(2, 0, 0), a=(1, 0, 0))], "singular")],
    ids=["w-target", "pole-target", "outside-allowed", "singular"])
def test_solve_tags_refusals(eqs, match):
    """A target coefficient that is not a constant, a tag left outside the
    allowed ones and a singular target matrix are each refused."""
    targets = [("x", 0), ("y", 0)][:len(eqs)]
    with pytest.raises(SegrefuchsError, match=match):
        _solve_tags(eqs, targets, {("a", 0)})


def test_system_entries_depend_on_w_alone():
    """A z-term is refused when the system is built; a z variable that no
    term uses is not a dependence."""
    z_term = MultiSeries.variable("z", ("z", "w"), 4)
    with pytest.raises(SegrefuchsError, match="depends on 'z'"):
        LinearODESystem([[LaurentInW(z_term, 1, "w")]], unknown="y")
    one = MultiSeries.const(ONE, ("z", "w"), 4)
    assert LinearODESystem([[LaurentInW(one, 1, "w")]], unknown="y").n == 1


def test_collection_soundness():
    """u-vector solves the system iff the zeta^2/zeta^3 slices vanish."""
    E = eliminate(model())
    U = assemble_u_system(E)
    w = zw("w")
    # a non-symmetry of the structural shape: Q = w^2
    L = VectorField(zero_zw(), w * w)
    res = system_residual(U, field_u_vector(L))
    assert any(not r.is_zero() for r in res)
    t = tangency_residual(L, E)
    assert any(not t.coeff_of({ZETA: j}).is_zero()
               for j in range(2, t.var_degree(ZETA) + 1))


# ---- Y-system ----------------------------------------------------------------

def test_Y_system_fuchsian_cases():
    E = eliminate(model())
    Y = assemble_Y_system(E)
    assert Y.pole_order <= 1
    wb = MultiSeries.variable("wb", ("wb",))
    M2 = build_complex(2, 1, {(2, 2): wb}, 12)
    E2 = eliminate(M2)
    Y2 = assemble_Y_system(E2, check_fuchsian_ode(E2))
    assert Y2.pole_order <= 1


def test_Y_system_non_fuchsian_refusal():
    M = build_complex(2, 1, {(2, 2): MultiSeries.const(1, ("wb",))}, 12)
    E = eliminate(M)
    rep = check_fuchsian_ode(E)
    with pytest.raises(NonFuchsianError) as exc:
        assemble_Y_system(E, rep)
    err = exc.value
    assert err.entry is not None
    assert err.pole >= 1
    assert err.ledger_row is not None and err.ledger_row["name"] == "a0"


def test_Y_solutions_reconstruct_u_solutions():
    E = eliminate(model())
    Y = assemble_Y_system(E)
    zer = MultiSeries.zero(("w",))
    one = MultiSeries.const(1, ("w",))
    # w dw: R0 = 1 -> Y = (0,0,1,0,0,0,0,0)
    res = system_residual(Y, [zer, zer, one, zer, zer, zer, zer, zer])
    assert all(r.is_zero() for r in res)


# ---- twelve system -------------------------------------------------------------

def test_twelve_bookkeeping_row():
    E = eliminate(model())
    A, _ = twelve_system(assemble_twelve_system(E))
    # dP/dz = Pz: row 0 selects component 2 exactly
    row = A[0]
    assert row[2].body.constant_term() == ONE
    assert all(row[j].is_zero() for j in range(12) if j != 2)


def test_twelve_known_solutions_and_compatibility():
    E = eliminate(model())
    A, B = twelve_system(assemble_twelve_system(E))
    z, w = zw("z"), zw("w")
    for L in (VectorField(zero_zw(), w), VectorField(z.scale(I), zero_zw()),
              VectorField(z, zero_zw())):
        y = jet_vector(L)
        rz, rw = twelve_residuals(A, B, y)
        assert all(r.is_zero() for r in rz + rw)
        # mixed second derivatives agree along solutions:
        # d/dw (A y) = d/dz (B y) for the jet vector of a symmetry
        Ay = [sum((A[i][j] * LaurentInW(y[j], 0, "w")
                   for j in range(12)),
                  LaurentInW(MultiSeries.zero(("z", "w")), 0, "w"))
              for i in range(12)]
        By = [sum((B[i][j] * LaurentInW(y[j], 0, "w")
                   for j in range(12)),
                  LaurentInW(MultiSeries.zero(("z", "w")), 0, "w"))
              for i in range(12)]
        for i in range(12):
            d = Ay[i].diff("w") - By[i].diff("z")
            assert d.body.truncate(min(6, d.body.order)).is_zero()


def test_jet_residuals_negative_control():
    """On the model the eight jet residuals vanish for w d/dw and
    iz d/dz; z^3 d/dz breaks the (P,3,0) equation and a w^3 term in Q the
    (Q,0,3) one."""
    third = assemble_twelve_system(eliminate(model()))
    z, w = zw("z"), zw("w")
    for L in (VectorField(zero_zw(), w), VectorField(z.scale(I), zero_zw())):
        assert all(r.body.is_zero() for r in _jet_residuals(third, L).values())
    for L, tag in ((VectorField(z.scale(I) + z * z * z, zero_zw()),
                    ("P", 3, 0)),
                   (VectorField(zero_zw(), w + w * w * w), ("Q", 0, 3))):
        assert not _jet_residuals(third, L)[tag].body.is_zero()


def test_twelve_pole_bound_random():
    rng = random.Random(8)
    for m in (1, 2):
        tbl = {}
        for (k, l) in ((2, 2), (3, 2), (2, 3)):
            tbl[(k, l)] = MultiSeries(
                ("wb",), EXACT,
                {(rng.randint(0, 2),): qi(rng.randint(1, 3),
                                          rng.randint(-2, 2))})
        M = build_complex(m, 1, tbl, 3 * m + 6)
        A, B = twelve_system(assemble_twelve_system(eliminate(M)))
        assert max(e.pole_order() for M12 in (A, B) for row in M12
                   for e in row) <= 3 * m + 1


# ---- Q-divisibility (computed symmetries vanish on w = 0) ----------------------

def test_symmetry_Q_divisible_by_w():
    from segrefuchs.frobenius import formal_symmetries
    basis = formal_symmetries(model().truncate(12))
    for L in basis.fields:
        assert L.Q.coeff_of({"w": 0}).is_zero()
