import random
from fractions import Fraction

import pytest

from segrefuchs import blowup, serialize
from segrefuchs.qfield import ONE, I, qi
from segrefuchs.series import MultiSeries, EXACT
from segrefuchs.segre import XIB, ETAB
from segrefuchs.surfaces import (ComplexDefining, build_complex, build_real,
                                 real_to_complex)
from segrefuchs.prolongation import VectorField
from segrefuchs.frobenius import (formal_symmetries, lie_bracket,
                                  real_form_basis)
from segrefuchs.blowup import (BlowupMap, pullback_surface,
                               find_blowup_exponent, levi_unit_off_locus,
                               XI, ETA)
from segrefuchs.errors import SegrefuchsError
from reference import (H22_U, SQRT2_TABLE, DivisibilityError, dense_surface,
                       identical, pullback_field, pullback_relation,
                       pushforward_field, real_tangency_residual,
                       rnd_pullback_field, solve_by_degree, zero_zw, zw)


# ---- map validation --------------------------------------------------------

def test_blowup_map_guards():
    with pytest.raises(SegrefuchsError):
        BlowupMap(0, 2)
    with pytest.raises(SegrefuchsError):
        BlowupMap(2, 0)
    B = BlowupMap(3)
    assert B.l == 2


def test_monomial_bookkeeping():
    """z^2 w under (s=2, l=2) becomes xi^2 eta^6."""
    B = BlowupMap(2, 2)
    f = zw("z") ** 2 * zw("w")
    sub = f.compose({"z": MultiSeries.monomial(ONE, (1, B.s), (XI, ETA)),
                     "w": MultiSeries.monomial(ONE, (0, B.l), (XI, ETA))})
    assert sub.vars == (XI, ETA)
    assert sub.coefficient((2, 6)) == ONE and len(sub.terms) == 1


# ---- surface pullback --------------------------------------------------------

def test_pullback_surface_oracle():
    """Pullback equals direct compose-and-renormalize on the graphs."""
    Mr = build_real(2, 1, {}, 12)
    Mc = real_to_complex(Mr)
    B = BlowupMap(2, 2)
    P = pullback_surface(Mc, B)
    assert P.m_star == 2 * (Mc.m - 1) + 2 * B.s + 1
    # oracle: the pulled-back defining series must satisfy the original
    # relation: F(graph point) in M, i.e. eta^2 = R_M(xi eta^s, xib etab^s,
    # etab^2) when eta = R*(xi, xib, etab)
    Rstar = P.defining
    RM = Mc.defining_series()
    amb = Rstar.vars
    lhs = Rstar * Rstar
    sub_z = MultiSeries.monomial(ONE, tuple(
        1 if v == XI else 0 for v in amb), amb) * Rstar ** B.s
    sub_zb = MultiSeries.monomial(ONE, tuple(
        1 if v == "xib" else (B.s if v == "etab" else 0) for v in amb), amb)
    sub_wb = MultiSeries.monomial(ONE, tuple(
        2 if v == "etab" else 0 for v in amb), amb)
    rhs = RM.rename({"z": "_z", "zb": "_zb", "wb": "_wb"}) \
        .embed(("_z", "_zb", "_wb") + amb) \
        .compose({"_z": sub_z, "_zb": sub_zb, "_wb": sub_wb})
    d = lhs - rhs
    assert d.truncate(min(8, d.order)).is_zero()


# the model and the dense benchmark rungs at m = 1, 2, 3, and the sqrt2 rung
PULLBACK_SURFACES = {
    **{"model-m%d-N%d" % (m, 4 * m + 12):
       (lambda m=m: build_real(m, 1, {}, 4 * m + 12)) for m in (1, 2, 3)},
    **{"dense-m%d-N%d" % (m, N): (lambda m=m, N=N: dense_surface(N, m))
       for m, N in ((1, 13), (2, 17), (3, 19))},
    "sqrt2-m2-N20": lambda: build_real(2, 1, SQRT2_TABLE, 20),
}


@pytest.mark.parametrize("label", list(PULLBACK_SURFACES))
def test_pullback_solves_the_relation_by_degree(label, monkeypatch):
    """For s, l in {1, 2, 3}, the fixed-point iteration of pullback_surface
    gives the degree-by-degree solve of G = eta - etab exp(E) in packed
    data and order, within ceil(R.order / g) + 2 exp_series calls for the
    gain g = 2s + 2 + l(m-1) of one iteration."""
    Mc = real_to_complex(PULLBACK_SURFACES[label]())
    calls = []
    exp = blowup.exp_series
    monkeypatch.setattr(blowup, "exp_series",
                        lambda x: calls.append(x) or exp(x))
    for s in (1, 2, 3):
        for l in (1, 2, 3):
            B = BlowupMap(s, l)
            calls.clear()
            R = pullback_surface(Mc, B).defining
            ref, = solve_by_degree([pullback_relation(Mc, B)],
                                   (XI, XIB, ETAB), (ETA,))
            identical(R, ref)
            g = 2 * s + 2 + l * (Mc.m - 1)
            assert 2 <= len(calls) <= -(-R.order // g) + 2


def test_pullback_order_is_bounded():
    """The exponent E has order N + l(m-1); past MAX_ORDER the pullback is
    refused before any series work, and at MAX_ORDER it runs."""
    Mc = real_to_complex(build_real(2, 1, SQRT2_TABLE, 20))
    top = serialize.MAX_ORDER - Mc.order
    for l in (top + 1, 10 ** 9):
        with pytest.raises(SegrefuchsError, match="would have order"):
            pullback_surface(Mc, BlowupMap(1, l))
    P = pullback_surface(Mc, BlowupMap(1, top))
    assert P.defining.order == serialize.MAX_ORDER + 1


def test_pullback_normalized_surface_reality():
    Mc = real_to_complex(build_real(1, 1, {}, 10))
    P = pullback_surface(Mc, BlowupMap(2, 2))
    assert P.surface is not None
    from segrefuchs.surfaces import check_reality
    res = check_reality(P.surface)
    assert res.truncate(min(6, res.order)).is_zero()


def test_pullback_degenerates_below_truncation():
    from segrefuchs.errors import OrderTooLowError
    M = build_complex(1, 1, {}, 10)
    with pytest.raises(OrderTooLowError):
        pullback_surface(M.truncate(1), BlowupMap(2, 2))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pullback_defining_has_unit_etab_coefficient(m):
    """The pulled-back R solves eta = etab exp(E), and E has no constant
    term, so R carries etab with coefficient exactly 1 at every order at
    which pullback_surface returns: R is never zero."""
    from segrefuchs.errors import OrderTooLowError
    for Mr in (build_real(m, 1, {}, 10 + m), dense_surface(10 + m, m)):
        Mc = real_to_complex(Mr)
        for s in (1, 2, 3):
            for l in (1, 2, 3):
                returned = 0
                for order in range(2, Mc.order + 1):
                    try:
                        P = pullback_surface(Mc.truncate(order),
                                             BlowupMap(s, l))
                    except OrderTooLowError:
                        continue
                    assert P.defining.vars == (XI, "xib", "etab")
                    assert P.defining.coefficient((0, 0, 1)) == ONE
                    returned += 1
                assert returned


def test_find_blowup_exponent_scan():
    M = build_complex(1, 1, {}, 10)
    s, P = find_blowup_exponent(M, 6)
    assert s == 2
    assert not levi_unit_off_locus(P).is_zero()
    # brute-force scan oracle: first s whose pullback has a xi*xib unit
    for ss in range(2, 7):
        Ps = pullback_surface(M, BlowupMap(ss, 2))
        if not levi_unit_off_locus(Ps).is_zero():
            assert ss == s
            break
    assert find_blowup_exponent(M, 1)[0] is None


def test_blowup_search_stops_at_two(monkeypatch):
    """phi = z zb^2 has no z*zb slice, so no s certifies; the answer does not
    depend on s_max and takes one pullback, at s = 2."""
    M = ComplexDefining(1, 1, MultiSeries(("z", "zb", "wb"), 12,
                                          {(1, 2, 0): ONE}))
    calls = []

    def counted(M, B):
        calls.append(B.s)
        return pullback_surface(M, B)
    monkeypatch.setattr(blowup, "pullback_surface", counted)
    for s_max in (2, 3, 5):
        calls.clear()
        assert find_blowup_exponent(M, s_max) == \
            (None, [(2, "xi*xib coefficient vanishes to order 10")])
        assert calls == [2]
    calls.clear()
    assert find_blowup_exponent(M, 1) == (None, [])
    assert calls == []


def test_segre_functoriality_perturbed_sample():
    """Graphs of M* map under F into graphs of M, on a non-model sample.

    Along the graph eta = R*(xi, xib0, etab0) the blow-down image must lie
    on the Segre variety of M at the mapped conjugate parameters:
    R*(xi)^l = R_M(xi R*(xi)^s, xib0 etab0^s, etab0^l).
    """
    wb = MultiSeries.variable("wb", ("wb",))
    Mc = build_complex(2, 1, {(2, 2): wb,
                              (3, 3): MultiSeries(
                                  ("wb",), EXACT,
                                  {(0,): qi(Fraction(1, 2), 1)})}, 12)
    B = BlowupMap(3, 2)
    P = pullback_surface(Mc, B)
    Rstar = P.defining
    amb = Rstar.vars
    lhs = Rstar ** B.l
    sub_z = MultiSeries.monomial(ONE, tuple(
        1 if v == XI else 0 for v in amb), amb) * Rstar ** B.s
    sub_zb = MultiSeries.monomial(ONE, tuple(
        1 if v == "xib" else (B.s if v == "etab" else 0) for v in amb), amb)
    sub_wb = MultiSeries.monomial(ONE, tuple(
        B.l if v == "etab" else 0 for v in amb), amb)
    rhs = Mc.defining_series().rename(
        {"z": "_z", "zb": "_zb", "wb": "_wb"}) \
        .embed(("_z", "_zb", "_wb") + amb) \
        .compose({"_z": sub_z, "_zb": sub_zb, "_wb": sub_wb})
    d = lhs - rhs
    assert d.truncate(min(8, d.order)).is_zero()


# ---- field transport ------------------------------------------------------------

def test_pullback_field_examples():
    B = BlowupMap(2, 2)
    z, w = zw("z"), zw("w")
    P, Q = pullback_field(VectorField(zero_zw(), w), B)
    # -xi dxi + (eta/2) deta
    assert P.pole == 0
    assert P.body == MultiSeries.monomial(-ONE, (1, 0), (XI, ETA))
    assert Q.body == MultiSeries.monomial(qi(Fraction(1, 2)), (0, 1),
                                          (XI, ETA))
    P2, Q2 = pullback_field(VectorField(z, zero_zw()), B)
    assert P2.body == MultiSeries.monomial(ONE, (1, 0), (XI, ETA))
    assert Q2.is_zero()
    P3, _ = pullback_field(VectorField(z.scale(I), zero_zw()), B)
    assert P3.body == MultiSeries.monomial(I, (1, 0), (XI, ETA))


def test_roundtrip_exact_randomized():
    rng = random.Random(88)
    for trial in range(10):
        B = BlowupMap(rng.choice((2, 3)), 2)
        L = rnd_pullback_field(rng)
        L2 = pushforward_field(*pullback_field(L, B), B)
        assert (L2.P - L.P).is_zero()
        assert (L2.Q - L.Q).is_zero()


def test_pushforward_claims_no_more_order_than_the_field():
    """A term z^a w^b of degree d lands at (xi, eta)-degree up to d(s+1),
    so the field pushed forward from a pulled-back one is known only
    through a (s+1)-th of the pullback's order: it is the field through
    that order, and never claims more than the field's own."""
    Mc = real_to_complex(build_real(1, 1, {}, 24))
    for L in real_form_basis(formal_symmetries(Mc), Mc):
        assert (L.P.order, L.Q.order) == (17, 18)
        for s in (1, 2, 3):
            B = BlowupMap(s, 2)
            L2 = pushforward_field(*pullback_field(L, B), B)
            assert L2.P.order <= L.P.order and L2.Q.order <= L.Q.order
            assert (L2.P - L.P).is_zero() and (L2.Q - L.Q).is_zero()


def test_divisibility_error_named():
    B = BlowupMap(2, 2)
    xi = MultiSeries.variable(XI, (XI, ETA))
    eta = MultiSeries.variable(ETA, (XI, ETA))
    with pytest.raises(DivisibilityError) as exc:
        pushforward_field(xi * eta, MultiSeries.zero((XI, ETA)), B)
    assert exc.value.j == 1


def test_pullback_is_lie_algebra_map():
    rng = random.Random(77)
    B = BlowupMap(2, 2)
    for _ in range(5):
        L1 = rnd_pullback_field(rng)
        L2 = rnd_pullback_field(rng)
        br = lie_bracket(L1, L2)
        lhs = pullback_field(br, B)
        p1, p2 = pullback_field(L1, B), pullback_field(L2, B)
        # [p1, p2] componentwise with Laurent calculus
        def bracket(a, b):
            (aP, aQ), (bP, bQ) = a, b
            P = (aP * bP.diff(XI) + aQ * bP.diff(ETA)
                 - bP * aP.diff(XI) - bQ * aP.diff(ETA))
            Q = (aP * bQ.diff(XI) + aQ * bQ.diff(ETA)
                 - bP * aQ.diff(XI) - bQ * aQ.diff(ETA))
            return P, Q
        Pb, Qb = bracket(p1, p2)
        dP = Pb - lhs[0]
        dQ = Qb - lhs[1]
        assert dP.body.truncate(min(6, dP.body.order)).is_zero()
        assert dQ.body.truncate(min(6, dQ.body.order)).is_zero()


# ---- blow-up transport as a second oracle of the symmetry basis -------------

@pytest.mark.parametrize("m,table,N,orders", [
    (1, {}, 24, [15, 17]), (2, H22_U, 20, [7, 7])],
    ids=["model-m1-N24", "h22u-m2-N20"])
def test_real_form_fields_stay_tangent_in_the_blowup(m, table, N, orders):
    """The --real-form fields of a structured rung, pulled back along
    BlowupMap(2, 2), have no eta-pole and are tangent to the pulled-back
    surface M* through the orders they are known to; pushforward_field
    returns each exactly.  This route shares no code with the Frobenius
    route that found the fields.  Adding i w^2 to the pulled-back Q
    leaves M*, so the residual sees a field off the basis."""
    Mc = real_to_complex(build_real(m, 1, table, N))
    fields = real_form_basis(formal_symmetries(Mc), Mc)
    B = BlowupMap(2, 2)
    Mstar = pullback_surface(Mc, B).surface
    w2 = (zw("w") * zw("w")).scale(I)
    got = []
    for L in fields:
        P, Q = pullback_field(L, B)
        assert max(P.pole_order(), Q.pole_order()) <= 0
        L2 = pushforward_field(P, Q, B)
        assert (L2.P - L.P).is_zero() and (L2.Q - L.Q).is_zero()
        Pz, Qz = (h.as_series().rename({XI: "z", ETA: "w"}) for h in (P, Q))
        res = real_tangency_residual(VectorField(Pz, Qz), Mstar)
        assert res.is_zero()
        got.append(res.order)
        bad = real_tangency_residual(VectorField(Pz, Qz + w2), Mstar)
        assert not bad.is_zero()
    assert got == orders
