import random
from fractions import Fraction

import pytest

from segrefuchs.qfield import ONE, I, qi
from segrefuchs.series import (MultiSeries, LaurentInW, EXACT, SeriesError,
                               exp_series, log_series, solve_implicit,
                               SingularJacobianError)
from reference import equal_mod


def var(name, vars, order=EXACT):
    return MultiSeries.variable(name, vars, order)


def rnd_series(rng, vars, order, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, order) for _ in vars)
        if sum(e) <= order:
            terms[e] = qi(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                          rng.randint(-2, 2))
    return MultiSeries(vars, order, terms)


# ---- add -----------------------------------------------------------------

def test_add_examples():
    z = var("z", ("z", "zb"))
    zb = var("zb", ("z", "zb"))
    s = (1 + z) + (1 + zb)
    assert s.coefficient((0, 0)) == qi(2)
    assert s.coefficient((1, 0)) == ONE
    assert s.coefficient((0, 1)) == ONE
    x = rnd_series(random.Random(0), ("z",), 5)
    assert (x + MultiSeries.zero(("z",))) == x
    a = var("z", ("z",), 3)
    b = (var("z", ("z",)) ** 2).truncate(2)
    c = a + b
    assert c.order == 2
    assert c.coefficient((1,)) == ONE and c.coefficient((2,)) == ONE


def test_mul_examples():
    z = var("z", ("z", "zb"))
    zb = var("zb", ("z", "zb"))
    p = (1 + z) * (1 + zb)
    assert p.coefficient((1, 1)) == ONE
    x = rnd_series(random.Random(1), ("z", "w"), 6)
    one = MultiSeries.const(ONE, ("z", "w"))
    assert x * one == x
    # degree-4 content of (z^2)^2 is exact, so only the order-3 view is empty
    z3 = var("z", ("z",), 3)
    assert ((z3 ** 2) * (z3 ** 2)).truncate(3).is_zero()


def test_ring_axioms_randomized():
    rng = random.Random(3)
    for _ in range(100):
        x = rnd_series(rng, ("z", "w"), 6)
        y = rnd_series(rng, ("z", "w"), 6)
        t = rnd_series(rng, ("z", "w"), 6)
        assert (x * y) * t == x * (y * t)
        assert x * y == y * x
        assert x * (y + t) == x * y + x * t


def test_product_rule_all_vars():
    rng = random.Random(4)
    for _ in range(30):
        x = rnd_series(rng, ("z", "w"), 7)
        y = rnd_series(rng, ("z", "w"), 7)
        for v in ("z", "w"):
            lhs = (x * y).diff(v)
            rhs = x.diff(v) * y + x * y.diff(v)
            assert equal_mod(lhs, rhs, min(lhs.order, rhs.order))


def test_diff_of_an_order_0_series_knows_nothing():
    """A series known through degree 0 says nothing of its derivative, not
    even its constant term: the derivative has order -1 and no terms."""
    d = MultiSeries(("x",), 0, {(0,): 1}).diff("x")
    assert d.order == -1 and d.is_zero()
    d = var("x", ("x", "y"), 1).diff("x")
    assert d.order == 0 and d.constant_term() == ONE
    assert var("x", ("x", "y"), 0).diff("y").order == -1


# ---- exp/log --------------------------------------------------------------

def test_exp_examples():
    z = var("z", ("z",), 2)
    e = exp_series(z)
    assert e.coefficient((0,)) == ONE
    assert e.coefficient((1,)) == ONE
    assert e.coefficient((2,)) == qi(Fraction(1, 2))
    assert exp_series(MultiSeries.zero(("z",), 5)) == \
        MultiSeries.const(ONE, ("z",), 5)
    zzb = MultiSeries.monomial(I, (1, 1), ("z", "zb"), 4)
    e2 = exp_series(zzb)
    assert e2.coefficient((1, 1)) == I
    assert e2.coefficient((2, 2)) == qi(Fraction(-1, 2))


def test_exp_rejects_constant_term():
    s = MultiSeries.const(ONE, ("z",), 4)
    with pytest.raises(SeriesError):
        exp_series(s)


def test_exp_inverse_and_log():
    rng = random.Random(5)
    for _ in range(10):
        x = rnd_series(rng, ("z", "w"), 6)
        x = x - MultiSeries.const(x.constant_term(), ("z", "w"))
        e = exp_series(x)
        em = exp_series(-x)
        assert equal_mod(e * em, MultiSeries.const(ONE, ("z", "w")), 6)
        assert equal_mod(log_series(e), x, 6)


# ---- compose ---------------------------------------------------------------

def test_compose_examples():
    z2 = var("z", ("z",)) ** 2
    sub = MultiSeries.monomial(ONE, (1, 2), ("xi", "eta"))
    r = z2.compose({"z": sub})
    assert r.coefficient((2, 4)) == ONE and len(r.terms) == 1
    x = var("x", ("x",), 9)
    assert x.compose({"x": x}) == x
    assert x.compose({}) is x and x.compose({"y": x}) is x
    e = exp_series(var("z", ("z",), 2))
    z = var("z", ("z",), 2)
    r2 = e.compose({"z": (z + z * z).truncate(2)})
    # direct expansion oracle: exp(z + z^2) = 1 + z + 3/2 z^2 + ...
    assert r2.coefficient((0,)) == ONE
    assert r2.coefficient((1,)) == ONE
    assert r2.coefficient((2,)) == qi(Fraction(3, 2))


def test_compose_rejects_constant_term():
    f = exp_series(var("z", ("z",), 5))
    bad = MultiSeries.const(ONE, ("z",), 5) + var("z", ("z",), 5)
    with pytest.raises(SeriesError):
        f.compose({"z": bad})
    # an exact polynomial takes any substitution
    poly = var("z", ("z",)) ** 2
    shifted = poly.compose({"z": bad})
    assert shifted.order == 5
    assert shifted.coefficient((0,)) == ONE
    assert shifted.coefficient((1,)) == qi(2)


# ---- implicit solve ---------------------------------------------------------

def _fixed_point_oracle(order):
    """Independent oracle for y = x + y^2 by naive iteration."""
    x = var("x", ("x",), order)
    y = MultiSeries.zero(("x",), order)
    for _ in range(order + 1):
        y = (x + y * y).truncate(order)
    return y


def test_solve_implicit_catalan():
    order = 4
    y = var("y", ("x", "y"), order)
    sol = solve_implicit([y - y * y], ("x",), ("y",), ("x",))[0]
    oracle = _fixed_point_oracle(order)
    assert sol == oracle
    assert sol.coefficient((4,)) == qi(5)


def test_solve_implicit_identity_and_triangular():
    y = var("y", ("x", "y"), 5)
    assert solve_implicit([y], ("x",), ("y",), ("x",))[0] == \
        var("x", ("x",), 5)
    # an inversion names one input per unknown
    v = ("x1", "x2", "y1", "y2")
    x1, x2, y1, y2 = (var(n, v, 5) for n in v)
    s1, s2 = solve_implicit([y1, y2 - y1 * y1], ("x1", "x2"),
                            ("y1", "y2"), ("x1", "x2"))
    x1, x2 = (var(n, ("x1", "x2"), 5) for n in ("x1", "x2"))
    assert s1 == x1
    assert s2 == (x1 ** 2 + x2).truncate(5)


def test_solve_implicit_residual_postcondition():
    """H(y) = x, as an inversion needs; the random perturbation is a
    series in y alone."""
    rng = random.Random(6)
    order = 5
    x = var("x", ("x", "y"), order)
    y = var("y", ("x", "y"), order)
    pert = rnd_series(rng, ("y",), order).embed(("x", "y"))
    pert = (pert - MultiSeries.const(pert.constant_term(), ("x", "y"))) * y
    H = y - (y * y).scale(3) - pert.scale(Fraction(1, 2))
    sol = solve_implicit([H], ("x",), ("y",), ("x",))[0]
    assert (H - x).compose({"y": sol}).is_zero()


def test_solve_implicit_singular_jacobian():
    y = var("y", ("x", "y"), 4)
    with pytest.raises(SingularJacobianError) as exc:
        solve_implicit([y * y], ("x",), ("y",), ("x",))
    assert exc.value.determinant.is_zero()


# ---- Laurent ----------------------------------------------------------------

def test_laurent_normalization_and_ops():
    w = var("w", ("w",), 8)
    L = LaurentInW(w * w + w ** 3, 3)
    assert L.pole == 1
    assert L.pole_order() == 1
    M = LaurentInW(MultiSeries.const(ONE, ("w",), 8), 1)
    s = L + M
    assert s.pole == 1
    d = M.diff("w")
    assert d.pole == 2
    assert d.body.coefficient((0,)) == qi(-1)
    assert (L * M).pole_order() == 2
    assert LaurentInW(w, 1).as_series() == \
        MultiSeries.const(ONE, ("w",), 7)


def test_laurent_negative_pole_multiplies_by_w():
    body = MultiSeries(("w",), 6, {(0,): ONE, (1,): qi(2)})
    assert LaurentInW(body, -2).as_series() == \
        MultiSeries(("w",), 8, {(2,): ONE, (3,): qi(2)})


def test_laurent_genuine_pole_rejected():
    L = LaurentInW(MultiSeries.const(ONE, ("w",), 6), 2)
    with pytest.raises(SeriesError):
        L.as_series()
