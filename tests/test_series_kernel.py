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

from segrefuchs import linalg
from segrefuchs.errors import SegrefuchsError
from segrefuchs.qfield import GaussianRational, ZERO, ONE, qi
from segrefuchs.series import (MultiSeries, EXACT, SeriesError,
                               SingularJacobianError, divide, exp_series,
                               log_series, solve_implicit, _linear_inputs)
from reference import identical, of_sqrt2, solve_by_degree, spy_compose

VARS = ("z", "w", "t")


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
    """The same random series as (packed, reference)."""
    vars = VARS[:nvars]
    top = min(order, 6)
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
    """Exact agreement, and the packed data in lowest terms."""
    assert packed.vars == ref.vars
    assert packed.order == ref.order
    assert dict(packed.terms) == ref.terms
    assert packed.den == lcm(*(c.q for c in ref.terms.values()))


CASES = [(nvars, dense, kind, order)
         for nvars in (1, 2, 3)
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
                         [(n, d, k) for n in (2, 3) for d in (False, True)
                          for k in ("gauss", "sqrt2", "mixed")])
def test_compose_matches_reference(nvars, dense, kind):
    rng = random.Random(repr((nvars, dense, kind)))
    for _ in range(2):
        f, rf = rnd_pair(rng, nvars, rng.choice((5, EXACT)), dense, kind)
        v = f.vars[-1]
        g, rg = rnd_pair(rng, nvars, 5, False, kind, zero_constant=True)
        same(f.compose({v: g}), rf.compose({v: rg}))


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
        solve_implicit([w - z - w * w], ("z",), ("w",))


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
    """Inversions with F exact, trusted past, at and below the solve's
    order; truncated to order 1, where z too enters only linearly, so the
    solve takes n of the n + 1 linear inputs; and truncated to order 0,
    where F has lost its Jacobian and both refuse."""
    rng = random.Random(repr(("solve", n, kind)))
    for F_order, order in ((EXACT, 6), (8, 6), (4, 6), (5, 1), (5, 0)):
        F, x_vars, y_vars = rnd_inversion(rng, n, kind, True, F_order)
        F = [f.truncate(order) for f in F]
        try:
            ref = solve_by_degree(F, x_vars, y_vars)
        except SingularJacobianError as err:
            assert order == 0
            with pytest.raises(SingularJacobianError) as got:
                solve_implicit(F, x_vars, y_vars)
            assert got.value.determinant == err.determinant
            continue
        for got, r in zip(solve_implicit(F, x_vars, y_vars), ref):
            identical(got, r)


def test_singular_jacobian_carries_the_determinant():
    x, y1, y2 = (MultiSeries.variable(v, ("x", "y1", "y2"))
                 for v in ("x", "y1", "y2"))
    # Jacobian [[1, 2], [2, 4]] at the origin: determinant 0
    F = [(y1 + y2.scale(2) - x).truncate(4),
         (y1.scale(2) + y2.scale(4) + x * x).truncate(4)]
    for solve in (solve_implicit, solve_by_degree):
        with pytest.raises(SingularJacobianError) as err:
            solve(F, ("x",), ("y1", "y2"))
        assert err.value.determinant == ZERO


# ---------- inversions: the reversion step ----------

def rnd_inversion(rng, n, kind, dense, order, nonlinear=False):
    """F(x, y) = C a + H(z, y) in n unknowns y1..yn.  The x-variables
    a1..an enter only through C, invertible and dense or a scaled
    permutation; z enters H through z**2 and its terms of degree 2 and 3
    in (z, y), present with probability 1/2 (dense) or 1/6; b enters
    nowhere, so the solve must pass over it.  With `nonlinear`, every a_k
    also enters the first equation through a_k**2, so F is no inversion.
    The equations
    after the first are trusted one degree further than it.  Returns
    (F, x_vars, y_vars), x_vars in random order."""
    a_vars = tuple("a%d" % k for k in range(1, n + 1))
    y_vars = tuple("y%d" % k for k in range(1, n + 1))
    vars = ("z", "b") + a_vars + y_vars
    perm = rng.sample(range(n), n)

    def invertible(entry):
        while True:
            M = [[entry(i, k) for k in range(n)] for i in range(n)]
            try:
                linalg.inverse(M)
                return M
            except SegrefuchsError:
                pass

    def at(pos, k=1):
        return tuple(k if j == pos else 0 for j in range(len(vars)))

    C = invertible(lambda i, k: rnd_coeff(rng, kind)
                   if dense or perm[i] == k else ZERO)
    J0 = invertible(lambda i, k: rnd_coeff(rng, kind))
    F = []
    for i in range(n):
        terms = {at(0): rnd_coeff(rng, kind)}
        for k in range(n):
            terms[at(2 + k)] = C[i][k]
            terms[at(2 + n + k)] = J0[i][k]
        for e in _exponents(n + 1, 3):
            if sum(e) >= 2 and rng.random() < (0.5 if dense else 1 / 6):
                terms[(e[0], 0) + (0,) * n + e[1:]] = rnd_coeff(rng, kind)
        terms[at(0, 2)] = ONE
        if nonlinear and i == 0:
            for k in range(n):
                terms[at(2 + k, 2)] = ONE
        F.append(MultiSeries(vars, order + (i > 0), terms))
    x_vars = list(vars[:2 + n])
    rng.shuffle(x_vars)
    return F, tuple(x_vars), y_vars


INVERSION_CASES = [(n, kind, dense) for n in (1, 2, 3)
                   for kind in ("gauss", "sqrt2") for dense in (False, True)]


@pytest.mark.parametrize("n,kind,dense", INVERSION_CASES)
def test_inversion_matches_the_degree_by_degree_solve(n, kind, dense):
    """The reversion step's solution equals the oracle's, in every
    coefficient and in the trusted order."""
    rng = random.Random(repr(("inversion", n, kind, dense)))
    for order in (2, 3, 4, 7):
        F, x_vars, y_vars = rnd_inversion(rng, n, kind, dense, order)
        xt, _ = _linear_inputs(F, x_vars)
        assert sorted(xt) == ["a%d" % k for k in range(1, n + 1)]
        for got, ref in zip(solve_implicit(F, x_vars, y_vars),
                            solve_by_degree(F, x_vars, y_vars)):
            identical(got, ref)
            assert got.order == order


@pytest.mark.parametrize("n,kind", [(n, kind) for n in (1, 2, 3)
                                    for kind in ("gauss", "sqrt2")])
def test_nonlinear_inputs_match_the_degree_by_degree_solve(n, kind):
    """With every a_k also entering nonlinearly, F is no inversion, and
    solve_implicit refuses it with SeriesError.  With one new input t_i
    per equation, F - t is an inversion again, and its solution at t = 0
    equals the oracle's solution of F; its packed parts meet sqrt2
    coefficients and denominators other than 1."""
    rng = random.Random(repr(("nonlinear", n, kind)))
    t_vars = tuple("t%d" % k for k in range(1, n + 1))
    for order in (2, 3, 6):
        F, x_vars, y_vars = rnd_inversion(rng, n, kind, True, order,
                                          nonlinear=True)
        assert any(f.den != 1 for f in F)
        assert (kind == "sqrt2") == any(t[2] or t[3] for f in F
                                        for t in f.num.values())
        with pytest.raises(SeriesError, match="needs an inversion"):
            solve_implicit(F, x_vars, y_vars)
        vars = F[0].vars + t_vars
        G = [f.embed(vars) - MultiSeries.variable(t, vars)
             for f, t in zip(F, t_vars)]
        at_zero = {t: MultiSeries.zero(x_vars) for t in t_vars}
        for got, ref in zip(solve_implicit(G, x_vars + t_vars, y_vars),
                            solve_by_degree(F, x_vars, y_vars)):
            identical(got.compose(at_zero), ref)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inversion_composes_F_alone(monkeypatch, n):
    """A step of an inversion composes each equation once and no Jacobian
    entry.  At order 9 the precisions are 1, 2, 3, 5 and 9: q <= 2p after
    the first step, so five steps and 5n compositions."""
    F, x_vars, y_vars = rnd_inversion(random.Random(n), n, "gauss", True, 9)
    composed = spy_compose(monkeypatch)
    solve_implicit(F, x_vars, y_vars)
    assert len(composed) == 5 * n
    for s in composed:
        assert any(dict(s.terms) == {e: c for e, c in f.terms.items()
                                     if sum(e) <= s.order} for f in F)


def test_inversion_refusals():
    """The solve's refusals: a nonzero F(0, 0), a singular Jacobian at the
    origin, reported with its determinant, and linear inputs whose C is
    singular."""
    v = ("z", "a1", "a2", "y1", "y2")
    z, a1, a2, y1, y2 = (MultiSeries.variable(x, v) for x in v)
    with pytest.raises(SeriesError, match=r"F\(0,0\)"):
        solve_implicit([(y1 - a1 + ONE).truncate(5)], ("z", "a1"), ("y1",))
    with pytest.raises(SingularJacobianError) as err:
        solve_implicit([(y1 * y1 + z * y1 - a1).truncate(5)], ("z", "a1"),
                       ("y1",))
    assert err.value.determinant == ZERO
    # a1 and a2 enter linearly, but through dependent columns of C
    with pytest.raises(SeriesError, match="needs an inversion"):
        solve_implicit([(y1 - a1 - a2).truncate(5),
                        (y2 - (a1 + a2).scale(2)).truncate(5)],
                       ("z", "a1", "a2"), ("y1", "y2"))
    # Jacobian [[1, 2], [2, 4]] at the origin, C = [[0, -1], [-1, 0]]
    F = [(y1 + y2.scale(2) - a2 + z * z).truncate(5),
         (y1.scale(2) + y2.scale(4) - a1).truncate(5)]
    for solve in (solve_implicit, solve_by_degree):
        with pytest.raises(SingularJacobianError) as err:
            solve(F, ("z", "a1", "a2"), ("y1", "y2"))
        assert err.value.determinant == ZERO
