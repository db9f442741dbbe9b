"""Truncated multivariate formal power series over exact coefficients.

A MultiSeries stores a map from exponent vectors to GaussianRational
coefficients together with a truncation order: the series is trusted modulo
total degree order+1.  Exact polynomials (monomials, finite substitution
data) carry the sentinel order EXACT.  Arithmetic propagates trust orders
through valuations, so e.g. multiplying a degree-shifted slice back by its
monomial does not lose precision.

LaurentInW wraps a MultiSeries with a declared pole order in one
distinguished variable, normalized so the body is not divisible by that
variable while the pole is positive.
"""

from fractions import Fraction
from math import factorial

from .qfield import GaussianRational, ZERO, ONE, _coerce
from .errors import SegrefuchsError

EXACT = 10 ** 6


class SeriesError(SegrefuchsError, ValueError):
    """Invalid series operation; a domain error, and a ValueError for
    parsers that catch those."""


def _merge_vars(v1, v2):
    if v1 == v2:
        return v1
    out = list(v1)
    for v in v2:
        if v not in out:
            out.append(v)
    return tuple(out)


def _remap(exps, src, dst):
    pos = {v: i for i, v in enumerate(dst)}
    out = [0] * len(dst)
    for v, e in zip(src, exps):
        if e:
            out[pos[v]] = e
    return tuple(out)


class MultiSeries:
    __slots__ = ("vars", "order", "terms")

    def __init__(self, vars, order, terms=None, _clean=True):
        self.vars = tuple(vars)
        self.order = order
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = {e: c for e, c in terms.items()
                          if sum(e) <= order and not c.is_zero()}
        else:
            self.terms = terms

    # ---------- constructors ----------

    @staticmethod
    def zero(vars, order=EXACT):
        return MultiSeries(vars, order, {}, _clean=False)

    @staticmethod
    def const(c, vars=(), order=EXACT):
        c = _as_coeff(c)
        t = {} if c.is_zero() else {(0,) * len(vars): c}
        return MultiSeries(vars, order, t, _clean=False)

    @staticmethod
    def variable(name, vars, order=EXACT):
        vars = tuple(vars)
        e = tuple(1 if v == name else 0 for v in vars)
        if sum(e) != 1:
            raise SeriesError("variable %r not among %r" % (name, vars))
        return MultiSeries(vars, order, {e: ONE}, _clean=False)

    @staticmethod
    def monomial(c, exps, vars, order=EXACT):
        c = _as_coeff(c)
        t = {} if c.is_zero() else {tuple(exps): c}
        return MultiSeries(vars, order, t)

    # ---------- structure ----------

    def is_zero(self):
        return not self.terms

    def valuation(self):
        """Smallest total degree present; order+1 for the zero series."""
        if not self.terms:
            return min(self.order + 1, EXACT)
        return min(sum(e) for e in self.terms)

    def var_valuation(self, var):
        i = self.vars.index(var)
        if not self.terms:
            return min(self.order + 1, EXACT)
        return min(e[i] for e in self.terms)

    def max_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), ZERO)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), ZERO)

    def truncate(self, order):
        if order >= self.order:
            return self
        return MultiSeries(self.vars, order,
                           {e: c for e, c in self.terms.items()
                            if sum(e) <= order}, _clean=False)

    def rename(self, mapping):
        return MultiSeries(tuple(mapping.get(v, v) for v in self.vars),
                           self.order, self.terms, _clean=False)

    def embed(self, vars):
        """View in a larger variable set (by name)."""
        vars = tuple(vars)
        if vars == self.vars:
            return self
        for v in self.vars:
            if v not in vars:
                raise SeriesError("cannot drop variable %r" % v)
        terms = {_remap(e, self.vars, vars): c for e, c in self.terms.items()}
        return MultiSeries(vars, self.order, terms, _clean=False)

    def map_coefficients(self, fn):
        return MultiSeries(self.vars, self.order,
                           {e: fn(c) for e, c in self.terms.items()})

    def project(self, vars):
        """Restrict to a sub-variable set; dropped vars must not occur."""
        vars = tuple(vars)
        keep = [self.vars.index(v) for v in vars]
        drop = [i for i, v in enumerate(self.vars) if v not in vars]
        terms = {}
        for e, c in self.terms.items():
            if any(e[i] for i in drop):
                raise SeriesError("projection drops an occurring variable")
            terms[tuple(e[i] for i in keep)] = c
        return MultiSeries(vars, self.order, terms, _clean=False)

    # ---------- ring operations ----------

    def _aligned(self, other):
        if self.vars == other.vars:
            return self, other
        vars = _merge_vars(self.vars, other.vars)
        return self.embed(vars), other.embed(vars)

    def __add__(self, other):
        if not isinstance(other, MultiSeries):
            other = MultiSeries.const(other, self.vars)
        a, b = self._aligned(other)
        order = min(a.order, b.order)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            s = terms.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(e, None)
            else:
                terms[e] = s
        if order < max(a.order, b.order):
            terms = {e: c for e, c in terms.items() if sum(e) <= order}
        return MultiSeries(a.vars, order, terms, _clean=False)

    __radd__ = __add__

    def __neg__(self):
        return MultiSeries(self.vars, self.order,
                           {e: -c for e, c in self.terms.items()},
                           _clean=False)

    def __sub__(self, other):
        if not isinstance(other, MultiSeries):
            other = MultiSeries.const(other, self.vars)
        return self + (-other)

    def __rsub__(self, other):
        return MultiSeries.const(other, self.vars) + (-self)

    def scale(self, c):
        c = _as_coeff(c)
        if c.is_zero():
            return MultiSeries.zero(self.vars, self.order)
        return MultiSeries(self.vars, self.order,
                           {e: c * x for e, x in self.terms.items()},
                           _clean=False)

    def __mul__(self, other):
        if not isinstance(other, MultiSeries):
            return self.scale(other)
        a, b = self._aligned(other)
        order = min(min(a.order + b.valuation(), b.order + a.valuation()),
                    EXACT)
        if a.is_zero() or b.is_zero():
            return MultiSeries.zero(a.vars, order)
        # iterate the smaller operand outside; skip degree overflow early
        if len(a.terms) > len(b.terms):
            a, b = b, a
        bt = sorted(((sum(e), e, c) for e, c in b.terms.items()))
        acc = {}
        for ea, ca in a.terms.items():
            da = sum(ea)
            room = order - da
            for db, eb, cb in bt:
                if db > room:
                    break
                e = tuple(x + y for x, y in zip(ea, eb))
                p = ca * cb
                s = acc.get(e)
                acc[e] = p if s is None else s + p
        acc = {e: c for e, c in acc.items() if not c.is_zero()}
        return MultiSeries(a.vars, order, acc, _clean=False)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise SeriesError("powers must be nonnegative integers")
        if n == 0:
            return MultiSeries.const(ONE, self.vars, EXACT)
        acc = self
        for _ in range(n - 1):
            acc = acc * self
        return acc

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        a, b = self._aligned(other)
        return a.order == b.order and a.terms == b.terms

    def equal_mod(self, other, order):
        """Exact equality of all coefficients through total degree `order`."""
        a, b = self._aligned(other if isinstance(other, MultiSeries)
                             else MultiSeries.const(other, self.vars))
        if min(a.order, b.order) < order:
            raise SeriesError("comparison order exceeds trusted order")
        d = a - b
        return all(sum(e) > order for e in d.terms)

    # ---------- calculus ----------

    def diff(self, var):
        i = self.vars.index(var)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            terms[tuple(ne)] = c * GaussianRational.from_int(e[i])
        order = EXACT if self.order >= EXACT else max(self.order - 1, 0)
        return MultiSeries(self.vars, order, terms, _clean=False)

    def integrate(self, var):
        """Antiderivative in `var` with zero constant slice."""
        i = self.vars.index(var)
        terms = {}
        for e, c in self.terms.items():
            ne = list(e)
            ne[i] += 1
            terms[tuple(ne)] = c / GaussianRational.from_int(ne[i])
        return MultiSeries(self.vars, min(self.order + 1, EXACT), terms,
                           _clean=False)

    # ---------- slicing ----------

    def coeff_of_var_power(self, var, k):
        """Coefficient series of var**k, over the remaining variables."""
        i = self.vars.index(var)
        rest = tuple(v for j, v in enumerate(self.vars) if j != i)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == k:
                terms[tuple(x for j, x in enumerate(e) if j != i)] = c
        order = self.order if self.order >= EXACT else self.order - k
        return MultiSeries(rest, order, terms, _clean=False)

    def coeff_of(self, powers):
        """Coefficient series for a dict var->power, remaining vars kept."""
        s = self
        for v, k in powers.items():
            s = s.coeff_of_var_power(v, k)
        return s

    def var_degree(self, var):
        i = self.vars.index(var)
        return max((e[i] for e in self.terms), default=0)

    def monomial_mul(self, var, k):
        i = self.vars.index(var)
        terms = {}
        for e, c in self.terms.items():
            ne = list(e)
            ne[i] += k
            terms[tuple(ne)] = c
        return MultiSeries(self.vars, min(self.order + k, EXACT), terms,
                           _clean=False)

    def monomial_div(self, var, k):
        """Exact division by var**k; raises if any term is not divisible."""
        i = self.vars.index(var)
        terms = {}
        for e, c in self.terms.items():
            if e[i] < k:
                raise SeriesError("series not divisible by %s**%d" % (var, k))
            ne = list(e)
            ne[i] -= k
            terms[tuple(ne)] = c
        order = self.order if self.order >= EXACT else self.order - k
        return MultiSeries(self.vars, order, terms, _clean=False)

    # ---------- composition ----------

    def compose(self, subs, polynomial_vars=()):
        """Substitute series for variables.

        Every substituted series must have zero constant term unless the
        variable is listed in polynomial_vars (caller asserts the dependence
        on that variable is genuinely polynomial, not a truncated tail).
        """
        subs = {v: s for v, s in subs.items() if v in self.vars}
        if not subs:
            return self
        for v, s in subs.items():
            if not s.constant_term().is_zero() and v not in polynomial_vars:
                raise SeriesError(
                    "substitution for %r has a constant term; composing it "
                    "into a truncated series is unsound" % v)
        kept = tuple(v for v in self.vars if v not in subs)
        out_vars = kept
        for s in subs.values():
            out_vars = _merge_vars(out_vars, s.vars)
        order = self.order
        for s in subs.values():
            order = min(order, s.order)
        return _compose_rec(self, subs, out_vars, order)

    # ---------- numerics / io ----------

    def eval_complex(self, point):
        idx = [point[v] for v in self.vars]
        total = 0j
        for e, c in self.terms.items():
            z = c.to_complex()
            for x, k in zip(idx, e):
                if k:
                    z *= x ** k
            total += z
        return total

    def __repr__(self):
        if not self.terms:
            return "<0 (order %s)>" % self.order
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            mono = "*".join("%s^%d" % (v, k)
                            for v, k in zip(self.vars, e) if k)
            c = repr(self.terms[e])
            bits.append(c if not mono else "%s %s" % (c, mono))
        tail = "" if self.order >= EXACT else " + O(deg %d)" % (self.order + 1)
        return "<" + " + ".join(bits[:12]) + ("..." if len(bits) > 12 else "") + tail + ">"


def _as_coeff(c):
    if isinstance(c, GaussianRational):
        return c
    g = _coerce(c)
    if g is NotImplemented:
        raise SeriesError("cannot coerce %r to a coefficient" % (c,))
    return g


def _compose_rec(f, subs, out_vars, order):
    sub_here = [v for v in f.vars if v in subs]
    if not sub_here:
        return f.embed(out_vars).truncate(order)
    v = sub_here[0]
    s = subs[v].embed(out_vars).truncate(order)
    rest = {u: t for u, t in subs.items() if u != v}
    d = f.var_degree(v)
    acc = _compose_rec(f.coeff_of_var_power(v, d), rest, out_vars, order)
    for j in range(d - 1, -1, -1):
        cj = _compose_rec(f.coeff_of_var_power(v, j), rest, out_vars, order)
        acc = acc * s + cj
    return acc.truncate(order)


# ---------- transcendental-free series functions ----------

def exp_series(x, order=None):
    """exp of a series with zero constant term, truncated."""
    if not x.constant_term().is_zero():
        raise SeriesError("exp needs a zero constant term")
    return _power_sum(x, order, ONE, lambda k: Fraction(1, factorial(k)))


def log_series(x, order=None):
    """log of a series with constant term exactly 1, truncated."""
    if not (x.constant_term() == ONE):
        raise SeriesError("log needs constant term 1")
    return _power_sum(x - MultiSeries.const(ONE, x.vars, EXACT), order, ZERO,
                      lambda k: Fraction((-1) ** (k + 1), k))


def _power_sum(x, order, c0, coeff):
    """c0 + sum_{k>=1} coeff(k) x**k through total degree order; x(0) = 0.

    order defaults to the trusted order of x, which must then be finite.
    """
    if order is None:
        order = x.order
        if order >= EXACT:
            raise SeriesError("series function of an exact polynomial needs "
                              "an explicit order")
    x = x.truncate(order)
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


# ---------- implicit solve ----------

def solve_implicit(F, x_vars, y_vars, order):
    """Solve F(x, y(x)) = 0 for y with y(0) = 0, degree by degree.

    F is a list of series over x_vars + y_vars, one per unknown.  Requires
    F(0,0) = 0 and an invertible Jacobian dF/dy at the origin; the returned
    series satisfy the system modulo total degree order+1.  The error on a
    singular Jacobian carries the exact Jacobian determinant.
    """
    from . import linalg

    n = len(y_vars)
    if len(F) != n:
        raise SeriesError("need as many equations as unknowns")
    all_vars = tuple(x_vars) + tuple(y_vars)
    F = [f.embed(_merge_vars(f.vars, all_vars)) for f in F]
    for f in F:
        if not f.constant_term().is_zero():
            raise SeriesError("F(0,0) != 0")
    J = [[f.diff(yv).constant_term() for yv in y_vars] for f in F]
    d = linalg.det(J)
    if d.is_zero():
        raise SingularJacobianError(d)
    Jinv = linalg.inverse(J)

    # The constant-Jacobian iteration y <- y - Jinv F(x, y) gains one trusted
    # degree per pass; truncation is managed by hand (exact-branded
    # intermediates), since the generic trust propagation cannot see the
    # contraction.
    def cap(s, d):
        return MultiSeries(tuple(x_vars), EXACT,
                           {e: c for e, c in s.terms.items() if sum(e) <= d},
                           _clean=False)

    xv = tuple(x_vars)
    ys = [MultiSeries.zero(xv, EXACT) for _ in range(n)]
    for level in range(1, order + 1):
        Flev = [f.truncate(level) for f in F]
        subs = {yv: ys[i] for i, yv in enumerate(y_vars)}
        vals = [cap(f.compose(subs), level) for f in Flev]
        new = []
        for i in range(n):
            corr = MultiSeries.zero(xv, EXACT)
            for j in range(n):
                if not Jinv[i][j].is_zero():
                    corr = corr + vals[j].scale(Jinv[i][j])
            new.append(cap(ys[i] - corr, level))
        ys = new
    order = min(order, min(f.order for f in F))
    ys = [MultiSeries(xv, order, y.terms) for y in ys]
    return ys


class SingularJacobianError(SeriesError):
    """Raised when the implicit solve degenerates.

    The determinant attribute holds the exact Jacobian determinant at 0,
    which for defining-equation eliminations is the Levi determinant.
    """

    def __init__(self, determinant):
        super().__init__("singular Jacobian (determinant %r)" % determinant)
        self.determinant = determinant


# ---------- Laurent series in one distinguished variable ----------

class LaurentInW:
    """w**(-pole) * body, body a MultiSeries with w among its variables.

    Normalized so the body is not divisible by w while pole > 0.
    """

    __slots__ = ("pole", "body", "wvar")

    def __init__(self, body, pole=0, wvar="w"):
        if wvar not in body.vars:
            body = body.embed(_merge_vars(body.vars, (wvar,)))
        if pole > 0 and not body.is_zero():
            strip = min(pole, body.var_valuation(wvar))
            if strip > 0:
                body = body.monomial_div(wvar, strip)
                pole -= strip
        if body.is_zero():
            pole = 0
        self.pole = pole
        self.body = body
        self.wvar = wvar

    def is_zero(self):
        return self.body.is_zero()

    def pole_order(self):
        """Actual pole order of the w-expansion (<= declared pole)."""
        if self.body.is_zero():
            return 0
        return self.pole - self.body.var_valuation(self.wvar)

    def __add__(self, other):
        other = self._co(other)
        p = max(self.pole, other.pole)
        b1 = self.body.monomial_mul(self.wvar, p - self.pole)
        b2 = other.body.monomial_mul(other.wvar, p - other.pole)
        return LaurentInW(b1 + b2, p, self.wvar)

    def __sub__(self, other):
        return self + (-self._co(other))

    def __neg__(self):
        return LaurentInW(-self.body, self.pole, self.wvar)

    def __mul__(self, other):
        other = self._co(other)
        return LaurentInW(self.body * other.body, self.pole + other.pole,
                          self.wvar)

    __rmul__ = __mul__

    def scale(self, c):
        return LaurentInW(self.body.scale(c), self.pole, self.wvar)

    def _co(self, other):
        if isinstance(other, LaurentInW):
            if other.wvar != self.wvar:
                raise SeriesError("mismatched Laurent variables")
            return other
        if isinstance(other, MultiSeries):
            return LaurentInW(other, 0, self.wvar)
        return LaurentInW(MultiSeries.const(other, (self.wvar,)), 0,
                          self.wvar)

    def div_w(self, k):
        return LaurentInW(self.body, self.pole + k, self.wvar)

    def mul_w(self, k):
        return LaurentInW(self.body.monomial_mul(self.wvar, k), self.pole,
                          self.wvar)

    def diff(self, var):
        if var != self.wvar:
            return LaurentInW(self.body.diff(var), self.pole, self.wvar)
        # d/dw [w^-p b] = w^-(p+1) (w b_w - p b)
        b = self.body
        t = b.diff(self.wvar).monomial_mul(self.wvar, 1) - \
            b.scale(GaussianRational.from_int(self.pole))
        return LaurentInW(t, self.pole + 1, self.wvar)

    def as_series(self):
        """Convert to a plain series; requires nonnegative w-valuation."""
        if self.pole == 0:
            return self.body
        if self.body.var_valuation(self.wvar) < self.pole:
            raise SeriesError("Laurent value has a genuine pole")
        return self.body.monomial_div(self.wvar, self.pole)

    def __eq__(self, other):
        if not isinstance(other, LaurentInW):
            return NotImplemented
        d = self - other
        return d.body.is_zero()

    def eval_complex(self, point):
        w = point[self.wvar]
        return self.body.eval_complex(point) / w ** self.pole

    def __repr__(self):
        if self.pole:
            return "<w^-%d * %r>" % (self.pole, self.body)
        return repr(self.body)
