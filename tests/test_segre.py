import random
from fractions import Fraction

import pytest

from segrefuchs.qfield import ONE, I, qi
from segrefuchs.series import MultiSeries, solve_implicit
from segrefuchs.surfaces import build_complex, build_real, real_to_complex
from segrefuchs.segre import (segre_graph, eliminate, closed_form_coeffs,
                              families_agree, AssociatedODE,
                              COEFF_KEYS, XIB, ETAB, WV, ZETA)
from segrefuchs.errors import OrderTooLowError
from reference import (SQRT2_TABLE, eliminate_by_composition, segre_system,
                       spy_compose, verify_ode, wb_series)


def random_table(rng, m, order, keys=((2, 2), (2, 3), (3, 2), (3, 3),
                                      (2, 4), (4, 2), (3, 4), (4, 3))):
    tbl = {}
    for (k, l) in keys:
        cap = order - k - l
        if cap < 0:
            continue
        terms = {}
        for _ in range(rng.randint(0, 2)):
            terms[(rng.randint(0, cap),)] = qi(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
        s = MultiSeries(("wb",), cap, terms)
        if not s.is_zero():
            tbl[(k, l)] = s
    return tbl


# ---- Segre graphs -------------------------------------------------------------

def test_graph_normalization_and_leading_terms():
    M = build_complex(1, 1, {}, 10)
    g = segre_graph(M)
    w0 = g.w.coeff_of({"z": 0})
    assert w0 == MultiSeries.variable(ETAB, (XIB, ETAB), w0.order)
    # w_p = etab + i etab z xib - (etab/2) z^2 xib^2 + ...
    assert g.w.coefficient((1, 1, 1)) == I
    assert g.w.coefficient((2, 2, 1)) == qi(Fraction(-1, 2))


@pytest.mark.parametrize("m,eps", [(1, 1), (2, 1), (2, -1), (3, -1)])
def test_graph_derivative_matches_sign(m, eps):
    """dw_p/dz at z = 0 equals eps*i*etab^m*xib, independently recomputed."""
    rng = random.Random(100 + m + eps)
    order = 3 * m + 4
    M = build_complex(m, eps, random_table(rng, m, order), order)
    g = segre_graph(M)
    wz = g.w.diff("z")
    lead = wz.coeff_of({"z": 0})
    expect = MultiSeries.monomial(I if eps == 1 else -I, (1, m),
                                  (XIB, ETAB), lead.order)
    assert lead.truncate(m + 1) == expect.truncate(m + 1)
    # zeta = w'/w^m = eps*i*xib*(1 + O(z)) and the jet relation w' = zeta w^m
    zeta0 = g.zeta.coeff_of({"z": 0}).truncate(1)
    assert zeta0 == MultiSeries.monomial(I if eps == 1 else -I, (1, 0),
                                         (XIB, ETAB), 1)
    jet = wz - g.zeta * g.w ** m
    assert jet.truncate(min(jet.order, order)).is_zero()


# ---- eliminate -------------------------------------------------------------

def test_model_ode_is_w_zeta_squared():
    M = build_complex(1, 1, {}, 14)
    E = eliminate(M)
    expected = MultiSeries.monomial(ONE, (0, 1, 2), ("z", WV, ZETA),
                                    E.Phi.order)
    assert E.Phi == expected
    assert verify_ode(M, E).is_zero()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pure_chain_coefficients(m):
    """phi = z zb at any m: a0 = w^(m-1), every other coefficient zero."""
    M = build_complex(m, 1, {}, 3 * m + 4)
    E = eliminate(M)
    fam = E.coeffs
    assert fam["a0"] == MultiSeries.monomial(ONE, (m - 1,), (WV,),
                                             fam["a0"].order)
    for key in COEFF_KEYS:
        if key != "a0":
            assert fam[key].is_zero()
    cf = closed_form_coeffs(M)
    ok, _ = families_agree(fam, cf)
    assert ok


def test_oracle_equivalence_randomized():
    """Central test: eliminate vs closed forms, all m and both signs."""
    rng = random.Random(12345)
    for m in (1, 2, 3):
        for eps in (1, -1):
            order = 3 * m + 4
            M = build_complex(m, eps, random_table(rng, m, order), order)
            E = eliminate(M)
            ok, report = families_agree(E.coeffs, closed_form_coeffs(M))
            assert ok, (m, eps, report)


def dense_table(rng, m, order):
    """Every admissible phi_kl (k, l >= 2) with every wb-power up to the
    order, random small Gaussian coefficients."""
    tbl = {}
    for k in range(2, order - 1):
        for l in range(2, order - k + 1):
            cap = order - k - l
            tbl[(k, l)] = MultiSeries(("wb",), cap, {
                (j,): qi(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                         rng.randint(-2, 2)) for j in range(cap + 1)})
    return tbl


def _oracle_surfaces():
    """(id, surface) for the division oracle: random sparse and dense
    tables at m = 1, 2, 3 and eps = +-1, the model and the sqrt2 table of
    the benchmark, each at the 3m+2 floor of the complex form and above."""
    rng = random.Random(2016)
    out = []
    for m in (1, 2, 3):
        for eps in (1, -1):
            for order in (3 * m + 2, 3 * m + 5):
                out.append(("sparse-m%d%+d-N%d" % (m, eps, order),
                            build_complex(m, eps,
                                          random_table(rng, m, order), order)))
                out.append(("dense-m%d%+d-N%d" % (m, eps, order),
                            build_complex(m, eps,
                                          dense_table(rng, m, order), order)))
        out.append(("model-m%d" % m, build_complex(m, 1, {}, 3 * m + 2)))
        out.append(("model-m%d-N24" % m, build_complex(m, -1, {}, 24)))
    # the real sqrt2 surface at its 4m+2 floor (complex order 3m+2) and
    # at its benchmark order
    for N in (10, 20):
        out.append(("sqrt2-m2-N%d" % N,
                    real_to_complex(build_real(2, 1, SQRT2_TABLE, N))))
    return out


ORACLE_SURFACES = _oracle_surfaces()


@pytest.mark.parametrize("M", [M for _, M in ORACLE_SURFACES],
                         ids=[name for name, _ in ORACLE_SURFACES])
def test_division_matches_substitution_into_wzz(M):
    """Phi from the first integral xib equals Phi from w_p'' composed with
    the solution, down to its packed data and order, and solves the ODE
    along the Segre graphs."""
    E, ref = eliminate(M), eliminate_by_composition(M)
    assert E.Phi.vars == ref.Phi.vars
    assert (E.Phi.den, E.Phi.num, E.order) == \
        (ref.Phi.den, ref.Phi.num, ref.order)
    assert verify_ode(M, E).is_zero()


def test_eliminate_composes_only_in_the_solve(monkeypatch):
    """eliminate makes the compositions of its solve and no other: Phi
    comes from a division, not from substituting into w_p''."""
    M = build_complex(2, -1, random_table(random.Random(9), 2, 11), 11)
    composed = spy_compose(monkeypatch)
    eliminate(M)
    n_eliminate = len(composed)
    composed.clear()
    solve_implicit(*segre_system(segre_graph(M)))
    assert n_eliminate == len(composed) > 0


def test_eliminate_guards_low_order():
    M = build_complex(2, 1, {}, 12)
    with pytest.raises(OrderTooLowError):
        eliminate(M, 7)


def test_phi_divisibility_invariant():
    rng = random.Random(777)
    for m in (1, 2):
        M = build_complex(m, 1, random_table(rng, m, 3 * m + 4), 3 * m + 4)
        E = eliminate(M)
        E.check_shape()  # w^m and zeta^2 divide Phi exactly
        assert E.Phi.coeff_of({ZETA: 0}).is_zero()
        assert E.Phi.coeff_of({ZETA: 1}).is_zero()


# ---- closed forms on one-term tables -------------------------------------------

def test_closed_form_a0_single_term():
    """phi22 = wb at m = 2: a0 = w - 2i w."""
    M = build_complex(2, 1, {(2, 2): wb_series({1: ONE})}, 10)
    a0 = closed_form_coeffs(M)["a0"]
    assert a0.coefficient((1,)) == ONE - qi(0, 2)
    assert a0.coefficient((0,)).is_zero()


def test_closed_form_b0_single_term():
    """phi23 = wb^2, everything else zero: b0 = -2 wb^2."""
    M = build_complex(1, 1, {(2, 3): wb_series({2: ONE})}, 10)
    b0 = closed_form_coeffs(M)["b0"]
    assert b0.coefficient((2,)) == qi(-2)
    assert len(b0.terms) == 1


def test_closed_form_vanishing_table():
    M = build_complex(3, 1, {}, 13)
    fam = closed_form_coeffs(M)
    assert fam["a0"] == MultiSeries.monomial(ONE, (2,), (WV,),
                                             fam["a0"].order)
    assert all(fam[k].is_zero() for k in COEFF_KEYS if k != "a0")


# ---- verify_ode ---------------------------------------------------------------

def test_verify_ode_defining_property():
    rng = random.Random(31)
    M = build_complex(2, 1, random_table(rng, 2, 10), 10)
    E = eliminate(M)
    assert verify_ode(M, E).is_zero()


def test_verify_ode_detects_perturbation():
    M = build_complex(1, 1, {}, 12)
    E = eliminate(M)
    bad_phi = E.Phi + MultiSeries.monomial(ONE, (1, 1, 2),
                                           ("z", WV, ZETA), E.Phi.order)
    bad = AssociatedODE.from_phi(E.m, E.eps, bad_phi)
    res = verify_ode(M, bad)
    assert not res.is_zero()


def test_transferred_surface_oracle():
    """Real data -> complex -> eliminate == closed forms (sqrt2 path)."""
    u = MultiSeries.variable("u", ("u",))
    Mr = build_real(2, 1, {(2, 2): u, (2, 3): u * u, (3, 2): u * u}, 13)
    Mc = real_to_complex(Mr)
    E = eliminate(Mc)
    ok, rep = families_agree(E.coeffs, closed_form_coeffs(Mc))
    assert ok, rep
    assert verify_ode(Mc, E).is_zero()


def test_ode_order_is_phi_order():
    E = eliminate(build_complex(1, 1, {}, 12))
    assert E.order == E.Phi.order
    low = AssociatedODE.from_phi(E.m, E.eps, E.Phi.truncate(6))
    assert low.order == 6
    with pytest.raises(AttributeError):
        E.order = 12


def test_eliminate_order_reads_the_surface_order():
    # an order argument above the surface's order cannot skip the 3m+2
    # floor: it truncates, and truncation never raises the order
    M = build_complex(1, 1, {}, 4)
    with pytest.raises(OrderTooLowError):
        eliminate(M, 12)
    assert eliminate(build_complex(1, 1, {}, 12), 8).order == \
        eliminate(build_complex(1, 1, {}, 8)).order
