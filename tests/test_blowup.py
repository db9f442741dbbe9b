import random
from fractions import Fraction

import pytest

from segrefuchs.qfield import ONE, I, qi
from segrefuchs.series import MultiSeries, EXACT
from segrefuchs.surfaces import (ComplexDefining, build_complex, build_real,
                                 real_to_complex)
from segrefuchs.prolongation import VectorField
from segrefuchs.frobenius import lie_bracket
from segrefuchs.blowup import (BlowupMap, pullback_surface, pullback_field,
                               pushforward_field, find_blowup_exponent,
                               levi_unit_off_locus, XI, ETA)
from segrefuchs.errors import DivisibilityError, SegrefuchsError
from reference import dense_surface, rnd_pullback_field, zero_zw, zw


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
    import segrefuchs.blowup as blowup
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
    bf = pullback_field(VectorField(zero_zw(), w), B)
    # -xi dxi + (eta/2) deta
    assert bf.P.pole == 0
    assert bf.P.body == MultiSeries.monomial(-ONE, (1, 0), (XI, ETA))
    assert bf.Q.body == MultiSeries.monomial(qi(Fraction(1, 2)), (0, 1),
                                             (XI, ETA))
    bf2 = pullback_field(VectorField(z, zero_zw()), B)
    assert bf2.P.body == MultiSeries.monomial(ONE, (1, 0), (XI, ETA))
    assert bf2.Q.is_zero()
    bf3 = pullback_field(VectorField(z.scale(I), zero_zw()), B)
    assert bf3.P.body == MultiSeries.monomial(I, (1, 0), (XI, ETA))


def test_roundtrip_exact_randomized():
    rng = random.Random(88)
    for trial in range(10):
        B = BlowupMap(rng.choice((2, 3)), 2)
        L = rnd_pullback_field(rng)
        bf = pullback_field(L, B)
        L2 = pushforward_field(bf.P, bf.Q, B)
        assert (L2.P - L.P).is_zero()
        assert (L2.Q - L.Q).is_zero()


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
            P = (a.P * b.P.diff(XI) + a.Q * b.P.diff(ETA)
                 - b.P * a.P.diff(XI) - b.Q * a.P.diff(ETA))
            Q = (a.P * b.Q.diff(XI) + a.Q * b.Q.diff(ETA)
                 - b.P * a.Q.diff(XI) - b.Q * a.Q.diff(ETA))
            return P, Q
        Pb, Qb = bracket(p1, p2)
        dP = Pb - lhs.P
        dQ = Qb - lhs.Q
        assert dP.body.truncate(min(6, dP.body.order)).is_zero()
        assert dQ.body.truncate(min(6, dQ.body.order)).is_zero()
