"""The packed series kernel against a per-term GaussianRational reference,
and the series functions against the algorithms they replaced.

RefSeries keeps the straightforward representation the kernel replaced: a
dict from exponent vectors to GaussianRational coefficients, with the same
trust-order rules.  Every packed operation must agree with it exactly, in
coefficients and in order, on seeded random series.  The same holds for
exp, log, compose and the implicit solve against their earlier algorithms
(see the references further down).
"""

import random
from fractions import Fraction
from math import factorial, lcm

import pytest

from segrefuchs import linalg, serialize
from segrefuchs.errors import FormatError, SegrefuchsError
from segrefuchs.qfield import GaussianRational, ZERO, ONE, qi
from segrefuchs.series import (MultiSeries, EXACT, SeriesError, W,
                               SingularJacobianError, divide, exp_series,
                               log_series, solve_implicit)
from reference import identical, of_sqrt2, solve_by_degree, spy_compose

VARS = ("z", "w", "t")
# the elimination's five variables (z, w, zeta, xib, etab)
VARS5 = VARS + ("xib", "etab")


class RefSeries:
    """Per-term reference: terms maps exponents to nonzero coefficients of
    total degree <= order."""

    def __init__(self, vars, order, terms):
        self.vars = tuple(vars)
        self.order = order
        self.terms = {e: c for e, c in terms.items()
                      if sum(e) <= order and not c.is_zero()}

    def valuation(self):
        if not self.terms:
            return self.order + 1
        return min(sum(e) for e in self.terms)

    def truncate(self, order):
        if order >= self.order:
            return self
        return RefSeries(self.vars, order, self.terms)

    def __add__(self, other):
        order = min(self.order, other.order)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, ZERO) + c
        return RefSeries(self.vars, order, terms)

    def __mul__(self, other):
        order = min(self.order + other.valuation(),
                    other.order + self.valuation())
        acc = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                acc[e] = acc.get(e, ZERO) + ca * cb
        return RefSeries(self.vars, order, acc)

    def scale(self, c):
        return RefSeries(self.vars, self.order,
                         {e: c * x for e, x in self.terms.items()})

    def coeff_of_var_power(self, i, k):
        terms = {e[:i] + e[i + 1:]: c for e, c in self.terms.items()
                 if e[i] == k}
        return RefSeries(self.vars[:i] + self.vars[i + 1:], self.order - k,
                         terms)

    def monomial_mul(self, i, k):
        """Times the i-th variable to the power k, k < 0 dividing."""
        return RefSeries(self.vars, self.order + k,
                         {e[:i] + (e[i] + k,) + e[i + 1:]: c
                          for e, c in self.terms.items()})

    def diff(self, i):
        return RefSeries(self.vars, self.order - 1,
                         {e[:i] + (e[i] - 1,) + e[i + 1:]:
                          c * GaussianRational.from_int(e[i])
                          for e, c in self.terms.items() if e[i]})

    def integrate(self, i):
        return RefSeries(self.vars, self.order + 1,
                         {e[:i] + (e[i] + 1,) + e[i + 1:]:
                          c * GaussianRational.of(Fraction(1, e[i] + 1))
                          for e, c in self.terms.items()})

    def var_valuation(self, i):
        return min((e[i] for e in self.terms), default=self.order + 1)

    def var_degree(self, i):
        return max((e[i] for e in self.terms), default=0)

    def within(self, box):
        """The terms with e[i] <= k for (i, k) in box, and the first
        lowest-degree term in exponent order."""
        terms = {e: c for e, c in self.terms.items()
                 if all(e[i] <= k for i, k in box)}
        if self.terms:
            low = min(self.terms, key=lambda e: (sum(e), e))
            terms[low] = self.terms[low]
        return RefSeries(self.vars, self.order, terms)

    def embed(self, vars):
        pos = [vars.index(v) for v in self.vars]
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * len(vars)
            for p, x in zip(pos, e):
                ne[p] = x
            terms[tuple(ne)] = c
        return RefSeries(vars, self.order, terms)

    def compose(self, subs):
        """Horner in each substituted variable, as the kernel composes."""
        out_vars = tuple(v for v in self.vars if v not in subs)
        for s in subs.values():
            out_vars += tuple(v for v in s.vars if v not in out_vars)
        order = min([self.order] + [s.order for s in subs.values()])
        return _ref_compose(self, subs, out_vars, order)


def _ref_compose(f, subs, out_vars, order):
    here = [v for v in f.vars if v in subs]
    if not here:
        return f.embed(out_vars).truncate(order)
    v = here[0]
    i = f.vars.index(v)
    s = subs[v].embed(out_vars).truncate(order)
    rest = {u: x for u, x in subs.items() if u != v}
    d = max((e[i] for e in f.terms), default=0)
    acc = _ref_compose(f.coeff_of_var_power(i, d), rest, out_vars, order)
    for j in range(d - 1, -1, -1):
        cj = _ref_compose(f.coeff_of_var_power(i, j), rest, out_vars, order)
        acc = acc * s + cj
    return acc.truncate(order)


def rnd_coeff(rng, kind):
    q = rng.choice((1, 1, 2, 3, 4, 6, 9, 12))
    re, im = (Fraction(rng.randint(-6, 6), q) for _ in range(2))
    if kind == "gauss":
        return GaussianRational.of(re, im)
    s2 = of_sqrt2(Fraction(rng.randint(-5, 5), q),
                  Fraction(rng.randint(-5, 5), q))
    return s2 if kind == "sqrt2" else GaussianRational.of(re, im) + s2


def rnd_pair(rng, nvars, order, dense, kind, zero_constant=False):
    """The same random series as (packed, reference); at four and five
    variables its degrees stop at 3, so a dense one stays small."""
    vars = VARS5[:nvars]
    top = min(order, 6 if nvars <= 3 else 3)
    terms = {}
    if dense:
        expos = list(_exponents(nvars, top))
    else:
        expos = [tuple(rng.randint(0, top) for _ in vars)
                 for _ in range(rng.randint(0, 5))]
    for e in expos:
        if sum(e) <= top and not (zero_constant and sum(e) == 0):
            terms[e] = rnd_coeff(rng, kind)
    return (MultiSeries(vars, order, terms), RefSeries(vars, order, terms))


def _exponents(nvars, top):
    if nvars == 0:
        yield ()
        return
    for k in range(top + 1):
        for rest in _exponents(nvars - 1, top - k):
            yield (k,) + rest


def same(packed, ref):
    """Exact agreement, and the packed data in lowest terms; the terms
    view iterates, reads and unpacks every exponent tuple."""
    assert packed.vars == ref.vars
    assert packed.order == ref.order
    assert dict(packed.terms) == ref.terms
    assert dict(packed.terms.items()) == ref.terms
    assert sorted(packed.terms) == sorted(ref.terms)
    assert len(packed.terms) == len(ref.terms)
    assert packed.den == lcm(*(c.q for c in ref.terms.values()))


CASES = [(nvars, dense, kind, order)
         for nvars in (1, 2, 3, 4, 5)
         for dense in (False, True)
         for kind in ("gauss", "sqrt2", "mixed")
         for order in (4, EXACT)]


# an exact order is named by its file encoding, 1000000
@pytest.mark.parametrize("nvars,dense,kind,order", CASES,
                         ids=lambda v: "1000000" if v == EXACT else None)
def test_ring_ops_match_reference(nvars, dense, kind, order):
    rng = random.Random(repr((nvars, dense, kind, order)))
    for _ in range(4):
        a, ra = rnd_pair(rng, nvars, order, dense, kind)
        b, rb = rnd_pair(rng, nvars, rng.choice((3, order)), dense,
                         rng.choice(("gauss", "sqrt2", "mixed")))
        c = rnd_coeff(rng, kind)
        same(a + b, ra + rb)
        same(a * b, ra * rb)
        same(a.scale(c), ra.scale(c))
        same(a.truncate(2), ra.truncate(2))
        same(a - a, RefSeries(a.vars, order, {}))


@pytest.mark.parametrize("nvars,dense,kind",
                         [(n, d, k) for n in (2, 3, 4, 5)
                          for d in (False, True)
                          for k in ("gauss", "sqrt2", "mixed")])
def test_compose_matches_reference(nvars, dense, kind):
    rng = random.Random(repr((nvars, dense, kind)))
    for _ in range(2):
        f, rf = rnd_pair(rng, nvars, rng.choice((5, EXACT)), dense, kind)
        v = f.vars[-1]
        g, rg = rnd_pair(rng, nvars, 5, False, kind, zero_constant=True)
        same(f.compose({v: g}), rf.compose({v: rg}))


FIELD_CASES = [(nvars, dense, kind) for nvars in (1, 2, 3, 4, 5)
               for dense in (False, True)
               for kind in ("gauss", "sqrt2", "mixed")]


@pytest.mark.parametrize("nvars,dense,kind", FIELD_CASES)
def test_field_ops_match_reference(nvars, dense, kind):
    """Every operation that shifts or masks exponent fields of the packed
    keys: slices, derivatives, antiderivatives, monomial factors,
    embeddings into reordered and larger variable sets, the box of
    `within`, valuations, degrees and single coefficients."""
    rng = random.Random(repr(("fields", nvars, dense, kind)))
    for order in (4, EXACT):
        a, ra = rnd_pair(rng, nvars, order, dense, kind)
        assert a.valuation() == ra.valuation()
        for i, v in enumerate(a.vars):
            for k, s in enumerate(a._var_slices(v, 0, 3)):
                same(s, ra.coeff_of_var_power(i, k))
            same(a.coeff_of_var_power(v, 2), ra.coeff_of_var_power(i, 2))
            same(a.diff(v), ra.diff(i))
            same(a.integrate(v), ra.integrate(i))
            k = rng.randint(0, 3)
            same(a.monomial_mul(v, k), ra.monomial_mul(i, k))
            # a negative step would borrow across the fields
            for op in (a.monomial_mul, a.monomial_div):
                with pytest.raises(SeriesError, match="negative"):
                    op(v, -1)
            assert a.var_valuation(v) == ra.var_valuation(i)
            assert a.var_degree(v) == ra.var_degree(i)
            if ra.terms:
                low = ra.var_valuation(i)
                same(a.monomial_div(v, low), ra.monomial_mul(i, -low))
                same(a.monomial_mul(v, k).monomial_div(v, k), ra)
                with pytest.raises(SeriesError, match="not divisible"):
                    a.monomial_div(v, low + 1)
        if nvars >= 2:
            u, v = rng.sample(a.vars, 2)
            i, j = a.vars.index(u), a.vars.index(v)
            ref = ra.coeff_of_var_power(i, 1)
            same(a.coeff_of({u: 1, v: 0}),
                 ref.coeff_of_var_power(j - (j > i), 0))
        reordered = tuple(rng.sample(a.vars, nvars))
        larger = list(reordered)
        for extra in ("p", "q"):
            larger.insert(rng.randint(0, len(larger)), extra)
        for vars in (reordered, tuple(larger), a.vars + ("p",)):
            same(a.embed(vars), ra.embed(vars))
        box = {v: rng.randint(0, 2)
               for v in rng.sample(a.vars, rng.randint(1, nvars))}
        same(a.within(box),
             ra.within([(a.vars.index(v), k) for v, k in box.items()]))
        for e in list(ra.terms) + [tuple(rng.randint(0, 4) for _ in a.vars)]:
            assert a.coefficient(e) == ra.terms.get(e, ZERO)


def test_exponent_fields_hold_degrees_below_two_to_the_w():
    """A total degree of 2**W - 1 loads, multiplies and reads back; a
    product, monomial factor or antiderivative reaching 2**W is refused,
    never carried into the next field, and so is such a term in a file."""
    top = (1 << W) - 1
    vars = ("z", "w")
    z, w = (MultiSeries.variable(v, vars) for v in vars)
    a = MultiSeries.monomial(ONE, (top - 1, 0), vars)
    p = a * w
    assert dict(p.terms) == {(top - 1, 1): ONE}
    assert p.valuation() == p.max_degree() == top
    assert p.coefficient((top - 1, 1)) == ONE
    assert p.var_degree("z") == top - 1 and p.var_valuation("w") == 1
    assert dict(p.diff("w").terms) == {(top - 1, 0): ONE}
    b = MultiSeries.monomial(ONE, (0, top), vars)
    assert dict(b.embed(("w", "x", "z")).terms) == {(top, 0, 0): ONE}
    for reach in (lambda: p * w, lambda: b * z, lambda: b.monomial_mul("z", 1),
                  lambda: b.integrate("z"),
                  lambda: MultiSeries.monomial(ONE, (top, 1), vars)):
        with pytest.raises(SeriesError, match="does not fit"):
            reach()
    # under a finite order of 2**W or more, a pair above the order is
    # never formed, so it reaches nothing
    c = (1 + b).truncate(top + 5)
    assert dict((c * c).terms) == {(0, 0): ONE,
                                   (0, top): GaussianRational.from_int(2)}
    with pytest.raises(SeriesError, match="does not fit"):
        c * z
    j = serialize.series_to_json(b)
    assert serialize.series_from_json(j) == b
    j["terms"] = [[[top, 1], "1/1", "0/1"]]
    with pytest.raises(FormatError, match="2\\*\\*20"):
        serialize.series_from_json(j)


def test_a_wrong_length_exponent_vector_is_refused():
    """One exponent per variable: another length is an error, not a zero
    coefficient, and so is a negative exponent."""
    s = MultiSeries.monomial(ONE, (1, 1, 0), VARS)
    assert s.coefficient((1, 1, 0)) == s.terms[(1, 1, 0)] == ONE
    for e in ((1, 1), (1, 1, 0, 0), ()):
        with pytest.raises(SeriesError, match="3 nonnegative"):
            s.coefficient(e)
        with pytest.raises(KeyError):
            s.terms[e]
        assert e not in s.terms and s.terms.get(e) is None
        with pytest.raises(SeriesError):
            MultiSeries(VARS, EXACT, {e: ONE})
    with pytest.raises(SeriesError):
        s.coefficient((1, -1, 0))
    with pytest.raises(SeriesError):
        MultiSeries.monomial(ONE, (2, -1, 0), VARS)


def test_cancelling_results_are_zero_in_lowest_terms():
    z = MultiSeries.variable("z", ("z", "w"))
    w = MultiSeries.variable("w", ("z", "w"))
    s2 = of_sqrt2(1)
    # (z + w)(z - w): the cross terms cancel
    same((z + w) * (z - w),
         RefSeries(("z", "w"), EXACT, {(2, 0): GaussianRational.from_int(1),
                                      (0, 2): GaussianRational.from_int(-1)}))
    # (1 + sqrt2 z)(1 - sqrt2 z) = 1 - 2 z^2, all rational again
    p = (1 + z.scale(s2)) * (1 - z.scale(s2))
    same(p, RefSeries(("z", "w"), EXACT,
                      {(0, 0): GaussianRational.from_int(1),
                       (2, 0): GaussianRational.from_int(-2)}))
    # halves that add up to integers leave no denominator behind
    h = z.scale(Fraction(1, 2))
    assert (h + h).den == 1 and (h + h) == z
    zero = (z.scale(Fraction(1, 3)) - z.scale(Fraction(1, 3)))
    assert zero.is_zero() and zero.den == 1


# ---------- the series functions against the algorithms they replaced ----
#
# The references below are the earlier implementations, kept here only as
# oracles: exp and log as power sums of x**k, and compose by Horner in every
# substituted variable.  solve_implicit's oracle, the degree-by-degree solve
# that composes F once per degree, is reference.solve_by_degree.  The
# rewrites must agree with them in every coefficient and in the trusted
# order.

def ref_power_sum(x, c0, coeff):
    order = x.order
    if order >= EXACT:
        raise SeriesError("a series function of an exact input is infinite")
    # never trusted past x, a zero x included
    acc = MultiSeries.const(c0, x.vars, order)
    term = MultiSeries.const(ONE, x.vars, order)
    v = max(x.valuation(), 1)
    k = 1
    while k * v <= order:
        term = term * x
        if term.is_zero():
            break
        acc = acc + term.scale(coeff(k))
        k += 1
    return acc


def ref_exp(x):
    return ref_power_sum(x, ONE, lambda k: Fraction(1, factorial(k)))


def ref_log(x):
    return ref_power_sum(x - MultiSeries.const(ONE, x.vars), ZERO,
                         lambda k: Fraction((-1) ** (k + 1), k))


def ref_compose(f, subs):
    out_vars = tuple(v for v in f.vars if v not in subs)
    for s in subs.values():
        out_vars += tuple(v for v in s.vars if v not in out_vars)
    order = min([f.order] + [s.order for s in subs.values()])
    return _ref_horner(f, subs, out_vars, order)


def _ref_horner(f, subs, out_vars, order):
    here = [v for v in f.vars if v in subs]
    if not here:
        return f.embed(out_vars).truncate(order)
    v = here[0]
    s = subs[v].embed(out_vars).truncate(order)
    rest = {u: t for u, t in subs.items() if u != v}
    d = f.var_degree(v)
    acc = _ref_horner(f.coeff_of_var_power(v, d), rest, out_vars, order)
    for j in range(d - 1, -1, -1):
        acc = acc * s + _ref_horner(f.coeff_of_var_power(v, j), rest,
                                    out_vars, order)
    return acc.truncate(order)


EXP_CASES = [(nvars, kind, shape)
             for nvars in (1, 2, 3)
             for kind in ("gauss", "sqrt2", "mixed")
             for shape in ("plain", "low-order", "valuation-2", "exact",
                           "sparse-high", "big-den")]


def exp_argument(rng, nvars, kind, shape):
    """A random series with zero constant term.  "sparse-high" has 1-3
    terms of degree 1..6, exact, to be truncated at the benchmark's model
    orders; "big-den" is dense, its coefficients over two denominators
    of 10**6 and more, each with a sqrt2 part."""
    vars = VARS[:nvars]
    if shape == "sparse-high":
        terms, size = {}, rng.randint(1, 3)
        while len(terms) < size:
            e = tuple(rng.randint(0, 3) for _ in vars)
            if 1 <= sum(e) <= 6:
                terms[e] = rnd_coeff(rng, kind)
        return MultiSeries(vars, EXACT, terms)
    if shape == "big-den":
        dens = [rng.randint(10 ** 6, 10 ** 7) for _ in range(2)]

        def big():
            return rng.choice(dens)
        return MultiSeries(vars, 6, {
            e: qi(Fraction(1, big())) * rnd_coeff(rng, kind) +
            of_sqrt2(Fraction(rng.randint(-5, 5), big()), Fraction(1, big()))
            for e in _exponents(nvars, 6) if sum(e)})
    x, _ = rnd_pair(rng, nvars, {"low-order": 4, "exact": EXACT}.get(
        shape, 6), True, kind, zero_constant=True)
    if shape == "valuation-2":
        x = MultiSeries(x.vars, x.order, {e: c for e, c in x.terms.items()
                                          if sum(e) >= 2})
    return x


@pytest.mark.parametrize("nvars,kind,shape", EXP_CASES)
def test_exp_log_match_power_sums(nvars, kind, shape):
    rng = random.Random(repr(("exp", nvars, kind, shape)))
    for _ in range(2):
        x = exp_argument(rng, nvars, kind, shape)
        one = MultiSeries.const(ONE, x.vars)
        for o in (24, 32, 40) if shape == "sparse-high" else (6, 3):
            xt = x.truncate(o)
            identical(exp_series(xt), ref_exp(xt))
            identical(log_series(one + xt), ref_log(one + xt))


def test_exp_log_of_one_term_make_no_product(monkeypatch):
    """The recurrences multiply packed homogeneous parts, never series."""
    products = []
    mul = MultiSeries.__mul__

    def spy(a, b):
        products.append((a, b))
        return mul(a, b)
    x = MultiSeries.monomial(qi(Fraction(1, 3), 2), (1, 1, 0), VARS, 40)
    one = MultiSeries.const(ONE, VARS)
    monkeypatch.setattr(MultiSeries, "__mul__", spy)
    exp_series(x)
    log_series(one + x)
    assert products == []


@pytest.mark.parametrize("nvars,kind", [(n, k) for n in (1, 2, 3)
                                         for k in ("gauss", "sqrt2", "mixed")])
def test_divide_inverts_the_product(nvars, kind):
    """divide(a, b) times b is a through their common order, and the
    quotient is trusted exactly that far."""
    rng = random.Random(repr(("divide", nvars, kind)))
    for shape in ("plain", "valuation-2", "big-den"):
        a = exp_argument(rng, nvars, kind, shape) + rnd_coeff(rng, kind)
        c = rnd_coeff(rng, kind)
        b = exp_argument(rng, nvars, kind, "plain") + \
            (ONE if c.is_zero() else c)
        for oa, ob in ((6, 6), (3, 5), (5, 2)):
            at, bt = a.truncate(oa), b.truncate(ob)
            q = divide(at, bt)
            assert q.order == min(oa, ob)
            identical((q * bt).truncate(q.order), at.truncate(q.order))


def test_divide_refusals():
    """A divisor without a constant term, and two exact arguments."""
    x = MultiSeries.variable("z", VARS)
    one = MultiSeries.const(ONE, VARS)
    with pytest.raises(SeriesError, match="nonzero constant term"):
        divide(one.truncate(4), x.truncate(4))
    with pytest.raises(SeriesError, match="no finite order"):
        divide(x, one + x)


def test_exp_log_of_zero_match_power_sums():
    for vars, order in ((("z",), 5), (("z", "w"), 3), (("z", "w"), EXACT)):
        for o in (2, 5, 8):
            zero = MultiSeries.zero(vars, order).truncate(o)
            one = MultiSeries.const(ONE, vars, order).truncate(o)
            identical(exp_series(zero), ref_exp(zero))
            identical(log_series(one), ref_log(one))


def test_series_functions_refuse_an_exact_argument():
    z, w = (MultiSeries.variable(v, ("z", "w")) for v in ("z", "w"))
    for x in (z, z * w, MultiSeries.zero(("z", "w"))):
        with pytest.raises(SeriesError):
            exp_series(x)
        with pytest.raises(SeriesError):
            log_series(1 + x)
    # y = x + y**2 with F exact: Newton lifting would never stop
    with pytest.raises(SeriesError):
        solve_implicit([w - w * w], ("z",), ("w",), ("z",))


def test_exactness_survives_every_kernel_operation():
    z, w = (MultiSeries.variable(v, ("z", "w")) for v in ("z", "w"))
    p = (1 + z) * (z - w.scale(3)) * w
    zero = MultiSeries.zero(("z", "w"))
    for r in (p, p * p, p * zero, z.truncate(4) * zero, p.diff("z"),
              p.diff("z").diff("z").diff("z").diff("z"), p.integrate("w"),
              p.monomial_mul("z", 4), p.monomial_mul("w", 2).monomial_div(
                  "w", 3), p.coeff_of_var_power("w", 1),
              *p._var_slices("z", 0, 4), p.coeff_of({"z": 1, "w": 1})):
        assert r.order == EXACT
    assert zero.valuation() == zero.var_valuation("z") == EXACT
    # a finite order stays finite however high it is
    q = z.truncate(999999)
    assert q.monomial_mul("z", 5).order == 1000004
    assert (q * z).order == 1000000 and q.integrate("z").order == 1000000
    assert q.diff("z").order == 999998 and q.monomial_div("z", 1).order == \
        999998


@pytest.mark.parametrize("nsubs,kind",
                         [(n, k) for n in (1, 2, 3)
                          for k in ("gauss", "sqrt2", "mixed")])
def test_compose_matches_horner(nsubs, kind):
    rng = random.Random(repr(("compose", nsubs, kind)))
    for _ in range(3):
        f, _ = rnd_pair(rng, 3, rng.choice((6, EXACT)), True, kind)
        subs = {}
        for v in rng.sample(VARS, nsubs):
            # a dense exact substitution into an exact f has no truncation
            dense = rng.random() < 0.5
            g, _ = rnd_pair(rng, 3, rng.choice((5, 6) if dense else
                                               (5, 6, EXACT)),
                            dense, kind, zero_constant=True)
            subs[v] = g.rename(dict(zip(VARS, ("a", "b", "z"))))
        identical(f.compose(subs), ref_compose(f, subs))
        # higher valuations cut each Horner step further below the order;
        # a zero substitution has valuation order + 1, infinite if exact
        for val in (2, 3):
            high = {v: MultiSeries(g.vars, g.order,
                                   {e: c for e, c in g.terms.items()
                                    if sum(e) >= val})
                    for v, g in subs.items()}
            identical(f.compose(high), ref_compose(f, high))
        for order in (5, EXACT):
            zero = {v: MultiSeries.zero(g.vars, order)
                    for v, g in subs.items()}
            identical(f.compose(zero), ref_compose(f, zero))
        # substitutions with a constant term go only into an exact f; the
        # order then follows the slices' own orders
        shifted = {v: g + rnd_coeff(rng, kind) for v, g in subs.items()}
        exact = MultiSeries(f.vars, EXACT, f.terms)
        identical(exact.compose(shifted), ref_compose(exact, shifted))
        with pytest.raises(SeriesError):
            f.truncate(5).compose(shifted)
        for order in (5, EXACT):
            const = {v: MultiSeries.const(rnd_coeff(rng, kind), g.vars, order)
                     for v, g in subs.items()}
            identical(exact.compose(const), ref_compose(exact, const))


SOLVE_CASES = [(n, kind) for n in (1, 2, 3)
               for kind in ("gauss", "sqrt2", "mixed")]


@pytest.mark.parametrize("n,kind", SOLVE_CASES)
def test_solve_implicit_matches_fixed_point(n, kind):
    """Inversions with H exact, trusted past, at and below the solve's
    order; truncated to order 1; and truncated to order 0, where H has
    lost its Jacobian and both refuse."""
    rng = random.Random(repr(("solve", n, kind)))
    for H_order, order in ((EXACT, 6), (8, 6), (4, 6), (5, 1), (5, 0)):
        H, x_vars, y_vars, t_vars = rnd_inversion(rng, n, kind, True,
                                                  H_order)
        H = [h.truncate(order) for h in H]
        try:
            ref = solve_by_degree(minus_inputs(H, t_vars), x_vars, y_vars)
        except SingularJacobianError as err:
            assert order == 0
            with pytest.raises(SingularJacobianError) as got:
                solve_implicit(H, x_vars, y_vars, t_vars)
            assert got.value.determinant == err.determinant
            continue
        for got, r in zip(solve_implicit(H, x_vars, y_vars, t_vars), ref):
            identical(got, r)


def test_singular_jacobian_carries_the_determinant():
    v = ("z", "x1", "x2", "y1", "y2")
    z, y1, y2 = (MultiSeries.variable(x, v) for x in ("z", "y1", "y2"))
    # Jacobian [[1, 2], [2, 4]] at the origin: determinant 0
    H = [(y1 + y2.scale(2)).truncate(4),
         (y1.scale(2) + y2.scale(4) + z * z).truncate(4)]
    t_vars = ("x1", "x2")
    with pytest.raises(SingularJacobianError) as err:
        solve_implicit(H, v[:3], ("y1", "y2"), t_vars)
    assert err.value.determinant == ZERO
    with pytest.raises(SingularJacobianError) as err:
        solve_by_degree(minus_inputs(H, t_vars), v[:3], ("y1", "y2"))
    assert err.value.determinant == ZERO


# ---------- inversions: the reversion step ----------

def minus_inputs(H, t_vars):
    """The system H - t = 0 of the inversion H = t, as the oracle
    reference.solve_by_degree takes it."""
    return [h - MultiSeries.variable(t, h.vars) for h, t in zip(H, t_vars)]


def rnd_inversion(rng, n, kind, dense, order, nonlinear=False):
    """H(x, y) = -C^-1 G(z, y) in n unknowns y1..yn, to be solved for
    H = a: the inputs a1..an enter the system G + C a = 0 only through C,
    invertible and dense or a scaled permutation.  z enters G through z**2
    and its terms of degree 2 and 3 in (z, y), present with probability
    1/2 (dense) or 1/6; b enters nowhere, so the solve must pass over it.
    With `nonlinear`, every a_k also enters the first equation of G
    through a_k**2, so H reads its inputs and is no inversion.  The
    equations of G after the first are trusted one degree further than it.
    Returns (H, x_vars, y_vars, t_vars), x_vars in random order and t_vars
    the inputs a1..an."""
    a_vars = tuple("a%d" % k for k in range(1, n + 1))
    y_vars = tuple("y%d" % k for k in range(1, n + 1))
    vars = ("z", "b") + a_vars + y_vars
    perm = rng.sample(range(n), n)

    def invertible(entry):
        while True:
            M = [[entry(i, k) for k in range(n)] for i in range(n)]
            try:
                return M, linalg.inverse(M)
            except SegrefuchsError:
                pass

    def at(pos, k=1):
        return tuple(k if j == pos else 0 for j in range(len(vars)))

    _, Cinv = invertible(lambda i, k: rnd_coeff(rng, kind)
                         if dense or perm[i] == k else ZERO)
    J0, _ = invertible(lambda i, k: rnd_coeff(rng, kind))
    G = []
    for i in range(n):
        terms = {at(0): rnd_coeff(rng, kind)}
        for k in range(n):
            terms[at(2 + n + k)] = J0[i][k]
        for e in _exponents(n + 1, 3):
            if sum(e) >= 2 and rng.random() < (0.5 if dense else 1 / 6):
                terms[(e[0], 0) + (0,) * n + e[1:]] = rnd_coeff(rng, kind)
        terms[at(0, 2)] = ONE
        if nonlinear and i == 0:
            for k in range(n):
                terms[at(2 + k, 2)] = ONE
        G.append(MultiSeries(vars, order + (i > 0), terms))
    H = [sum((g.scale(-c) for c, g in zip(row, G) if not c.is_zero()),
             MultiSeries.zero(vars)) for row in Cinv]
    x_vars = list(vars[:2 + n])
    rng.shuffle(x_vars)
    return H, tuple(x_vars), y_vars, a_vars


INVERSION_CASES = [(n, kind, dense) for n in (1, 2, 3)
                   for kind in ("gauss", "sqrt2") for dense in (False, True)]


@pytest.mark.parametrize("n,kind,dense", INVERSION_CASES)
def test_inversion_matches_the_degree_by_degree_solve(n, kind, dense):
    """The reversion step's solution equals the oracle's, in every
    coefficient and in the trusted order."""
    rng = random.Random(repr(("inversion", n, kind, dense)))
    for order in (2, 3, 4, 7):
        H, x_vars, y_vars, t_vars = rnd_inversion(rng, n, kind, dense, order)
        for got, ref in zip(solve_implicit(H, x_vars, y_vars, t_vars),
                            solve_by_degree(minus_inputs(H, t_vars), x_vars,
                                            y_vars)):
            identical(got, ref)
            assert got.order == order


@pytest.mark.parametrize("n,kind", [(n, kind) for n in (1, 2, 3)
                                    for kind in ("gauss", "sqrt2")])
def test_nonlinear_inputs_match_the_degree_by_degree_solve(n, kind):
    """With every a_k also entering nonlinearly, H reads its inputs, and
    solve_implicit refuses to solve H = a with SeriesError.  The system
    F = H - a, solved for F = t with one new input t_i per equation, is an
    inversion, and its solution at t = 0 equals the oracle's solution of
    F; its packed parts meet sqrt2 coefficients and denominators other
    than 1."""
    rng = random.Random(repr(("nonlinear", n, kind)))
    t_vars = tuple("t%d" % k for k in range(1, n + 1))
    for order in (2, 3, 6):
        H, x_vars, y_vars, a_vars = rnd_inversion(rng, n, kind, True, order,
                                                  nonlinear=True)
        assert any(h.den != 1 for h in H)
        assert (kind == "sqrt2") == any(t[2] or t[3] for h in H
                                        for t in h.num.values())
        with pytest.raises(SeriesError, match="reads the input"):
            solve_implicit(H, x_vars, y_vars, a_vars)
        F = minus_inputs(H, a_vars)
        at_zero = {t: MultiSeries.zero(x_vars) for t in t_vars}
        for got, ref in zip(solve_implicit(F, x_vars + t_vars, y_vars,
                                           t_vars),
                            solve_by_degree(F, x_vars, y_vars)):
            identical(got.compose(at_zero), ref)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inversion_composes_F_alone(monkeypatch, n):
    """A step of an inversion composes each equation F = H - t once and no
    Jacobian entry.  At order 9 the precisions are 1, 2, 3, 5 and 9:
    q <= 2p after the first step, so five steps and 5n compositions."""
    H, x_vars, y_vars, t_vars = rnd_inversion(random.Random(n), n, "gauss",
                                              True, 9)
    composed = spy_compose(monkeypatch)
    solve_implicit(H, x_vars, y_vars, t_vars)
    assert len(composed) == 5 * n
    for s in composed:
        assert any(dict(s.terms) == {e: c for e, c in f.terms.items()
                                     if sum(e) <= s.order}
                   for f in minus_inputs(H, t_vars))


def test_inversion_refusals():
    """The solve's refusals: counts of equations, inputs and unknowns that
    differ; an input that is no x-variable, or that H reads, as it does
    when a caller still subtracts it; a nonzero H(0, 0); and a singular
    Jacobian at the origin, reported with its determinant."""
    v = ("z", "a1", "a2", "y1", "y2")
    z, a1, a2, y1, y2 = (MultiSeries.variable(x, v) for x in v)
    x_vars, y_vars = v[:3], v[3:]
    H = [(y1 + z * z).truncate(5), (y2 + y1 * y2).truncate(5)]
    for args in ((H[:1], x_vars, y_vars, ("a1", "a2")),
                 (H, x_vars, y_vars, ("a1",)),
                 (H, x_vars, y_vars[:1], ("a1", "a2"))):
        with pytest.raises(SeriesError, match="one equation and one input"):
            solve_implicit(*args)
    with pytest.raises(SeriesError, match="not among the x-variables"):
        solve_implicit(H, ("z", "a1"), y_vars, ("a1", "a2"))
    for G in ([H[0] - a1, H[1]], [H[0], H[1] + a2 * a2 * z]):
        with pytest.raises(SeriesError, match="reads the input"):
            solve_implicit(G, x_vars, y_vars, ("a1", "a2"))
    with pytest.raises(SeriesError, match=r"F\(0,0\)"):
        solve_implicit([(y1 + ONE).truncate(5)], ("z", "a1"), ("y1",),
                       ("a1",))
    with pytest.raises(SingularJacobianError) as err:
        solve_implicit([(y1 * y1 + z * y1).truncate(5)], ("z", "a1"),
                       ("y1",), ("a1",))
    assert err.value.determinant == ZERO
    # Jacobian [[1, 2], [2, 4]] at the origin, inputs (a2, a1)
    H = [(y1 + y2.scale(2) + z * z).truncate(5),
         (y1.scale(2) + y2.scale(4)).truncate(5)]
    with pytest.raises(SingularJacobianError) as err:
        solve_implicit(H, x_vars, y_vars, ("a2", "a1"))
    assert err.value.determinant == ZERO
    with pytest.raises(SingularJacobianError) as err:
        solve_by_degree(minus_inputs(H, ("a2", "a1")), x_vars, y_vars)
    assert err.value.determinant == ZERO
