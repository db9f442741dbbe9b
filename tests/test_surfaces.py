import random
from fractions import Fraction

import pytest

from segrefuchs import serialize
from segrefuchs.qfield import GaussianRational, ONE, I, qi
from segrefuchs.series import MultiSeries, EXACT, log_series
from segrefuchs.surfaces import (RealDefining, ComplexDefining, build_real,
                                 build_complex, real_to_complex,
                                 complex_to_real, check_reality,
                                 require_reality, validate_complex,
                                 nonminimality_order, normalize_lead,
                                 bar_series, split_admissible, Z, ZB, WB, U,
                                 W)
from segrefuchs.errors import (RealityViolation, SegrefuchsError,
                               OrderTooLowError)
from reference import (H22_U, H22_U2, SQRT2_TABLE, conj, dense_surface,
                       kl_table, solve_by_degree, u_series, wb_series)


# ---- real_to_complex --------------------------------------------------------

def test_model_m1_closed_form():
    """v = u z zb has the closed form w = wb (1 + i z zb)/(1 - i z zb), so
    log(w/wb) = 2i atan(z zb), and the z -> z/sqrt(2) rescale that makes
    the z zb coefficient 1 gives phi = 2 atan(z zb / 2): the terms
    (z zb)^(2k+1) with coefficient (-1)^k / ((2k+1) 4^k), and no others,
    through the order N-1 of the transfer, here up to the benchmark's
    model orders."""
    for N in (10, 24, 32, 40):
        Mr = build_real(1, 1, {}, N)
        Mc = real_to_complex(Mr)
        assert Mc.scale_sq == Fraction(1, 2)
        assert Mc.phi.order == N - 1
        assert dict(Mc.phi.terms) == {
            (2 * k + 1, 2 * k + 1, 0):
            qi(Fraction((-1) ** k, (2 * k + 1) * 4 ** k))
            for k in range(N) if 4 * k + 2 <= N - 1}
        # oracle: R must satisfy (w - wb)/2i = u * z*zb with u = (w+wb)/2,
        # both sides divided by the original z-scale
        R = Mc.defining_series()
        lhs = (R - MultiSeries.variable(WB, (Z, ZB, WB))).scale(
            qi(0, Fraction(-1, 2)))
        u = (R + MultiSeries.variable(WB, (Z, ZB, WB))).scale(Fraction(1, 2))
        zzb = MultiSeries.monomial(ONE, (1, 1, 0), (Z, ZB, WB))
        rhs = u * zzb.scale(GaussianRational.of(Fraction(Mc.scale_sq)))
        assert (lhs - rhs).truncate(R.order).is_zero()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pure_model_chain_residual(m):
    """v = u^m z zb: the transfer satisfies its defining relation."""
    order = 3 * m + 4
    Mr = build_real(m, 1, {}, order)
    Mc = real_to_complex(Mr)
    R = Mc.defining_series()
    lhs = (R - MultiSeries.variable(WB, (Z, ZB, WB))).scale(
        qi(0, Fraction(-1, 2)))
    u = (R + MultiSeries.variable(WB, (Z, ZB, WB))).scale(Fraction(1, 2))
    zzb = MultiSeries.monomial(ONE, (1, 1, 0), (Z, ZB, WB))
    rhs = (u ** m) * zzb.scale(GaussianRational.of(Fraction(Mc.scale_sq)))
    assert (lhs - rhs).truncate(R.order).is_zero()
    assert check_reality(Mc).is_zero()


def test_round_trip_real_complex_real():
    h = {(2, 2): u_series({1: qi(1), 2: qi(Fraction(1, 3))}),
         (2, 3): u_series({2: qi(1, 1)}),
         (3, 2): u_series({2: qi(1, -1)}),
         (3, 3): u_series({0: qi(Fraction(-1, 2))})}
    Mr = build_real(2, 1, h, 13)
    Mc = real_to_complex(Mr)
    assert check_reality(Mc).is_zero()
    Mr2 = complex_to_real(Mc)
    assert Mr2.m == Mr.m and Mr2.eps == Mr.eps
    for kl in h:
        got = Mr2.h_kl(*kl)
        k = min(got.order, 13 - sum(kl))
        assert got.truncate(k) == Mr.h_kl(*kl).truncate(k)
    assert not Mr2.reality_defect()


def test_round_trip_negative_sign():
    Mr = build_real(2, -1, {(2, 2): u_series({1: qi(2)})}, 12)
    Mc = real_to_complex(Mr)
    assert Mc.eps == -1
    assert check_reality(Mc).is_zero()
    Mr2 = complex_to_real(Mc)
    assert Mr2.eps == -1
    k = min(Mr2.h_kl(2, 2).order, 8)
    assert Mr2.h_kl(2, 2).truncate(k) == u_series({1: qi(2)}).truncate(k)


def test_complex_to_real_pure_model():
    """phi = z zb exactly at m=1 gives v = u(zzb + higher) with real h."""
    Mc = build_complex(1, 1, {}, 10)
    Mr = complex_to_real(Mc)
    assert Mr.m == 1 and Mr.eps == 1
    assert not Mr.reality_defect()
    _, defects = split_admissible(Mr.psi)
    table = kl_table(Mr.psi)
    assert not defects
    for (k, l), s in table.items():
        assert k >= 2 and l >= 2
        mirror = MultiSeries(s.vars, s.order, {e: conj(c) for e, c
                                               in table[(l, k)].terms.items()})
        assert s == mirror


def test_complex_to_real_order_relation():
    """ord h22 = ord phi22 across the transfer (both directions)."""
    u = MultiSeries.variable("u", ("u",))
    Mr = build_real(2, 1, {(2, 2): u}, 12)
    Mc = real_to_complex(Mr)
    phi22 = Mc.phi_kl(2, 2)
    assert phi22.var_valuation("wb") == 1
    # a w-dependent phi22 with a real coefficient is NOT a real surface
    Mr2 = complex_to_real(Mc)
    assert Mr2.h_kl(2, 2).var_valuation("u") == 1


# ---- the transfers against the substitution routes --------------------------

def reference_real_to_complex(Mr):
    """The substitution route: solve (w - wb)/2i = F(z, zb, (w+wb)/2) for w.

    F is embedded over (z, zb, u, wb, w) and u = (w+wb)/2 composed into it;
    the exponential shape is then factored out as in real_to_complex.
    """
    F = Mr.defining_series()
    vars5 = (Z, ZB, WB, W)
    half = MultiSeries(vars5, EXACT, {(0, 0, 1, 0): qi(Fraction(1, 2)),
                                      (0, 0, 0, 1): qi(Fraction(1, 2))})
    Fw = F.embed((Z, ZB, U, WB, W)).compose({U: half})
    lin = MultiSeries(vars5, EXACT, {(0, 0, 0, 1): qi(0, Fraction(-1, 2)),
                                     (0, 0, 1, 0): qi(0, Fraction(1, 2))})
    R = solve_by_degree([lin - Fw], (Z, ZB, WB), (W,))[0]
    lg = log_series(R.monomial_div(WB, 1))
    phi = lg.scale((I if Mr.eps == 1 else -I).inverse()) \
        .monomial_div(WB, Mr.m - 1)
    _, phi, lam_sq = normalize_lead(phi)
    return ComplexDefining(Mr.m, Mr.eps, phi, scale_sq=lam_sq)


def reference_complex_to_real(Mc):
    """The recomposing route: v = (R(z, zb, B) - B)/2i with wb = B(z, zb, u)
    solved from (R + wb)/2 = u."""
    R = Mc.defining_series()
    vars4 = (Z, ZB, U, WB)
    G = (R.embed(vars4) + MultiSeries.variable(WB, vars4)).scale(
        Fraction(1, 2)) - MultiSeries.variable(U, vars4)
    wb = solve_by_degree([G], (Z, ZB, U), (WB,))[0]
    F = (R.compose({WB: wb}) - wb).scale(qi(0, Fraction(-1, 2)))
    eps, psi, _ = normalize_lead(F.monomial_div(U, Mc.m))
    return RealDefining(Mc.m, eps, psi)


def _real_surfaces(m, eps, N):
    dense = dense_surface(N, m)
    return {"model": build_real(m, eps, {}, N),
            "dense": RealDefining(m, eps, dense.psi.scale(eps))}


def _json(M):
    return serialize.dumps(serialize.surface_to_json(M))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("extra", [2, 5])
def test_transfers_match_the_substitution_routes(m, eps, extra):
    """Both transfers give byte-for-byte the surface of the routes that
    substitute u = (w+wb)/2 into F and recompose R with wb(z, zb, u), and
    phi is trusted through the order of psi, N - m."""
    N = 4 * m + extra
    for name, Mr in _real_surfaces(m, eps, N).items():
        Mc = real_to_complex(Mr)
        assert _json(Mc) == _json(reference_real_to_complex(Mr)), name
        assert Mc.phi.order == Mr.psi.order == N - m, name
        assert _json(complex_to_real(Mc)) == \
            _json(reference_complex_to_real(Mc)), name


# ---- reality ---------------------------------------------------------------

def test_check_reality_examples():
    M1 = build_complex(1, 1, {}, 8)
    assert check_reality(M1).is_zero()
    # phi = i z zb is not real: residual 2i z zb + higher
    phi = MultiSeries.monomial(I, (1, 1, 0), (Z, ZB, WB), 8)
    M2 = ComplexDefining(1, 1, phi)
    res = check_reality(M2)
    assert res.coefficient((1, 1, 0)) == qi(0, 2)
    # real coefficients independent of wb: real surface
    M3 = build_complex(1, 1, {(2, 2): wb_series({0: qi(Fraction(2, 7))})}, 8)
    assert check_reality(M3).is_zero()


def test_reality_detects_single_perturbation():
    u = MultiSeries.variable("u", ("u",))
    M = real_to_complex(build_real(2, 1, {(2, 2): u}, 12))
    assert check_reality(M).is_zero()
    # phi22 -> phi22 + i wb^k: asymmetric, must be caught
    bad = ComplexDefining(M.m, M.eps,
                          M.phi + MultiSeries.monomial(I, (2, 2, 2),
                                                       (Z, ZB, WB)))
    res = check_reality(bad)
    assert not res.is_zero()
    with pytest.raises(RealityViolation):
        require_reality(bad)


# the surfaces of the benchmark's ladders: dense Fuchsian tables, a dense
# non-Fuchsian one, the models and the structured h tables, at the
# workloads' (m, N)
REALITY_LADDER = {
    "dense-m1-N13": lambda: dense_surface(13, 1, fuchsian=True),
    "dense-m1-N14": lambda: dense_surface(14, 1, fuchsian=True),
    "dense-m2-N17": lambda: dense_surface(17, 2, fuchsian=True),
    "dense-m3-N19": lambda: dense_surface(19, 3, fuchsian=True),
    "dense-nonfuchsian-m2-N14": lambda: dense_surface(14, 2),
    "model-m1-N24": lambda: build_real(1, 1, {}, 24),
    "model-m2-N24": lambda: build_real(2, 1, {}, 24),
    "model-m3-N28": lambda: build_real(3, 1, {}, 28),
    "h22u-m2-N20": lambda: build_real(2, 1, H22_U, 20),
    "h22u2-m3-N24": lambda: build_real(3, 1, H22_U2, 24),
    "sqrt2-m2-N20": lambda: build_real(2, 1, SQRT2_TABLE, 20),
}


@pytest.mark.parametrize("name", sorted(REALITY_LADDER))
def test_transfer_of_real_data_is_real(name):
    """real_to_complex does not re-check its result, so the suite does: the
    reality residual of the transferred form vanishes."""
    Mc = real_to_complex(REALITY_LADDER[name]())
    assert check_reality(Mc).is_zero()


def test_bar_series_involution():
    rng = random.Random(9)
    terms = {}
    for _ in range(6):
        e = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2))
        terms[e] = qi(rng.randint(-3, 3), rng.randint(-3, 3))
    s = MultiSeries((Z, ZB, WB), 8, terms)
    assert bar_series(bar_series(s)) == s


# ---- nonminimality order ------------------------------------------------------

def test_nonminimality_order_examples():
    zzb = MultiSeries.monomial(ONE, (1, 1, 0), (Z, ZB, U), 9)
    u2 = zzb.monomial_mul(U, 2)
    assert nonminimality_order(u2) == 2
    f = zzb.monomial_mul(U, 1) + \
        MultiSeries.monomial(ONE, (2, 2, 3), (Z, ZB, U), 9)
    assert nonminimality_order(f) == 1
    with pytest.raises(SegrefuchsError):
        nonminimality_order(zzb)  # minimal: m = 0 rejected
    with pytest.raises(SegrefuchsError):
        nonminimality_order(MultiSeries.zero((Z, ZB, U), 9))


def test_nonminimality_unit_invariance():
    zzb = MultiSeries.monomial(ONE, (1, 1, 0), (Z, ZB, U), 9)
    base = zzb.monomial_mul(U, 2)
    unit = MultiSeries.const(ONE, (Z, ZB, U), 9) + \
        MultiSeries.monomial(qi(Fraction(1, 2)), (1, 1, 1), (Z, ZB, U), 9)
    assert nonminimality_order((base * unit).truncate(9)) == 2


# ---- validation and guards -----------------------------------------------------

def test_validation_report():
    M = build_complex(1, 1, {(2, 2): wb_series({0: qi(1)})}, 8)
    rep = validate_complex(M)
    assert all(rep.as_dict().values())
    assert rep.as_dict()["m_admissible"]


FLAGS = ("normal_coordinates", "m_admissible", "reality_ok",
         "levi_nondegenerate_off_X")


ZZB = {(1, 1, 0): ONE}


@pytest.mark.parametrize("terms,false_flags", [
    (ZZB, ()),
    ({**ZZB, (2, 0, 1): ONE},
     ("normal_coordinates", "m_admissible", "reality_ok")),
    ({**ZZB, (1, 1, 1): ONE}, ("m_admissible", "reality_ok")),
    ({**ZZB, (2, 2, 0): I}, ("reality_ok",)),
    ({(2, 2, 0): ONE}, ("m_admissible", "levi_nondegenerate_off_X")),
], ids=["model", "z2-wb", "zzb-wb", "phi22-i", "no-zzb"])
def test_validation_flags(terms, false_flags):
    """m = 1, order 8: the model phi = z zb, the model plus a z^2 wb term,
    the model plus a z zb wb term, the model with phi22 = i, and
    phi = z^2 zb^2 with no z zb term."""
    M = ComplexDefining(1, 1, MultiSeries((Z, ZB, WB), 8, terms))
    assert validate_complex(M).as_dict() == {f: f not in false_flags
                                             for f in FLAGS}


def test_conversion_order_guard():
    Mr = build_real(2, 1, {}, 5)
    with pytest.raises(OrderTooLowError):
        real_to_complex(Mr)  # needs >= 3m+2 = 8


# ---- one trusted order per surface ------------------------------------------

def test_truncate_is_the_one_way_to_lower_a_surface():
    u = u_series({1: qi(1)})
    Mr = build_real(2, 1, {(2, 2): u}, 12)
    Mc = real_to_complex(Mr)
    for M in (Mr, Mc):
        # at or above its own order a surface is returned unchanged
        assert M.truncate(M.order) is M and M.truncate(M.order + 5) is M
        low = M.truncate(M.order - 2)
        assert low.order == M.order - 2 and (low.m, low.eps) == (M.m, M.eps)
    # the complex order is phi's, lowered together with it
    low = Mc.truncate(8)
    assert low.phi == Mc.phi.truncate(8) and low.phi.order == 8
    assert low.scale_sq == Mc.scale_sq
    # the real form lowers its defining series, and transfers the same way
    # as the old order argument did
    assert Mr.truncate(10).defining_series() == \
        Mr.defining_series().truncate(10)
    assert real_to_complex(Mr.truncate(10)).phi == \
        real_to_complex(build_real(2, 1, {(2, 2): u}, 10)).phi


def test_complex_order_is_phi_order():
    M = build_complex(1, 1, {(2, 2): wb_series({1: qi(1)}, 3)}, 12)
    # a table entry trusted through wb^3 caps phi at total degree 7
    assert M.phi.order == 7 and M.order == 7
    with pytest.raises(AttributeError):
        M.order = 12
    with pytest.raises(SegrefuchsError):
        ComplexDefining(1, 1, MultiSeries.monomial(ONE, (1, 1, 0),
                                                   (Z, ZB, WB)))


def test_real_order_is_psi_order_plus_m():
    M = build_real(2, 1, {(2, 2): u_series({1: qi(1)}, 3)}, 12)
    # a table entry trusted through u^3 caps psi at total degree 7, and
    # v = u^2 psi is trusted two orders past it
    assert M.psi.order == 7 and M.order == 9
    assert M.h_kl(2, 2).order == 3 and M.defining_series().order == 9
    with pytest.raises(AttributeError):
        M.order = 12
    with pytest.raises(SegrefuchsError):
        RealDefining(1, 1, MultiSeries.monomial(ONE, (1, 1, 0), (Z, ZB, U)))
