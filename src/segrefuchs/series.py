"""Truncated multivariate formal power series over exact coefficients.

A MultiSeries is a map from exponent vectors to coefficients in Q(i, s),
s**2 = 2, together with a truncation order: the series is trusted modulo
total degree order+1.  Exact polynomials (monomials, finite substitution
data) carry the order EXACT = math.inf, trusted in every degree; orders are
plain arithmetic on it, so exactness survives every ring, calculus and
slicing operation.  Arithmetic propagates trust orders through valuations,
so e.g. multiplying a degree-shifted slice back by its monomial does not
lose precision.

A series function takes the order of its arguments: `exp_series`,
`log_series` and `solve_implicit` are trusted exactly as far as their
arguments are and refuse an exact argument, whose result would be an
infinite series.  `truncate` is the one way to lower an order.  `compose`
allows a substitution with a constant term only into an exact series: in a
truncated one the unknown tail would feed every lower degree.

The coefficients are packed: one common denominator `den` > 0 for the whole
series and, per exponent, a tuple (a, b, c, d) of integers standing for
(a + b*i + c*s + d*i*s) / den.  Zero tuples are never stored, and `den` is
the least common denominator of the coefficients, so equal series have
equal packed data.  Every ring, calculus and slicing operation works on
these integers alone and divides out the common content at its end;
GaussianRational values are built only where a caller reads a coefficient
(`terms`, `coefficient`, `constant_term`).

The three series functions each do their work about once.  `compose`
evaluates the first substituted variable by Horner and every other one
through a list of its powers, computed once per call and shared by all
slices of the outer variables.  `exp_series` and `log_series` compute one
homogeneous degree at a time from the Euler-operator identities
theta E = theta X * E and theta L * T = theta T (theta = sum x_i d/dx_i
multiplies total degree d by d), about one truncated product in all
(van der Hoeven, "Relax, but don't be too lazy", JSC 34 (2002)).
`solve_implicit` lifts its solution by Newton's method, precision
p -> q <= 2p+1, composing the Jacobian only to the precision the correction
needs (Brent and Kung, J. ACM 25 (1978)).

LaurentInW wraps a MultiSeries with a declared pole order in one
distinguished variable, normalized so the body is not divisible by that
variable while the pole is positive.
"""

from bisect import bisect_right
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain, pairwise
from math import gcd, inf, lcm
from operator import add

from .qfield import GaussianRational, ZERO, ONE, _coerce, mul_parts
from .errors import SegrefuchsError

EXACT = inf


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


def _packed(vars, order, den, num):
    """Series from packed data that is already in lowest terms."""
    s = object.__new__(MultiSeries)
    s.vars = vars
    s.order = order
    s.den = den
    s.num = num
    s._by_degree = None
    return s


def _reduced(vars, order, den, num):
    """Series from packed data, dividing den and every component by their
    common content."""
    if not num:
        den = 1
    elif den != 1:
        # one term usually settles it; otherwise one gcd over everything
        g = gcd(den, *next(iter(num.values())))
        if g != 1:
            g = gcd(g, *chain.from_iterable(num.values()))
        if g != 1:
            den //= g
            num = {e: (a // g, b // g, c // g, d // g)
                   for e, (a, b, c, d) in num.items()}
    return _packed(vars, order, den, num)


class Terms(Mapping):
    """Read-only view of a series' coefficients as GaussianRationals,
    keyed by exponent vector; a value is built on each read."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den):
        self._num = num
        self._den = den

    def __getitem__(self, e):
        a, b, c, d = self._num[e]
        return GaussianRational(a, b, c, d, self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self):
        return len(self._num)

    def __contains__(self, e):
        return e in self._num


class MultiSeries:
    __slots__ = ("vars", "order", "den", "num", "_by_degree")

    def __init__(self, vars, order, terms=None):
        """Series from a map exponent vector -> coefficient; zero
        coefficients and terms above `order` are dropped."""
        self.vars = tuple(vars)
        self.order = order
        self._by_degree = None
        coeffs = {}
        for e, c in (terms or {}).items():
            c = _as_coeff(c)
            if sum(e) <= order and not c.is_zero():
                coeffs[tuple(e)] = c
        den = lcm(*(c.q for c in coeffs.values()))
        self.den = den
        self.num = {e: (c.a * (den // c.q), c.b * (den // c.q),
                        c.c * (den // c.q), c.d * (den // c.q))
                    for e, c in coeffs.items()}

    # ---------- constructors ----------

    @staticmethod
    def zero(vars, order=EXACT):
        return _packed(tuple(vars), order, 1, {})

    @staticmethod
    def const(c, vars=(), order=EXACT):
        c = _as_coeff(c)
        if c.is_zero():
            return MultiSeries.zero(vars, order)
        return _packed(tuple(vars), order, c.q,
                       {(0,) * len(vars): (c.a, c.b, c.c, c.d)})

    @staticmethod
    def variable(name, vars, order=EXACT):
        vars = tuple(vars)
        e = tuple(1 if v == name else 0 for v in vars)
        if sum(e) != 1:
            raise SeriesError("variable %r not among %r" % (name, vars))
        return _packed(vars, order, 1, {e: (1, 0, 0, 0)})

    @staticmethod
    def monomial(c, exps, vars, order=EXACT):
        return MultiSeries(vars, order, {tuple(exps): c})

    # ---------- structure ----------

    @property
    def terms(self):
        return Terms(self.num, self.den)

    def is_zero(self):
        return not self.num

    def valuation(self):
        """Smallest total degree present; order+1 for the zero series."""
        if not self.num:
            return self.order + 1
        return min(map(sum, self.num))

    def var_valuation(self, var):
        i = self.vars.index(var)
        if not self.num:
            return self.order + 1
        return min(e[i] for e in self.num)

    def max_degree(self):
        return max(map(sum, self.num), default=0)

    def constant_term(self):
        return self.coefficient((0,) * len(self.vars))

    def coefficient(self, exps):
        t = self.num.get(tuple(exps))
        return ZERO if t is None else GaussianRational(*t, self.den)

    def _degree_sorted(self):
        """(total degrees ascending, matching (exponent, packed) pairs);
        computed once per series, since series are never mutated."""
        if self._by_degree is None:
            items = sorted(self.num.items(), key=lambda it: sum(it[0]))
            self._by_degree = ([sum(e) for e, _ in items], items)
        return self._by_degree

    def truncate(self, order):
        if order >= self.order:
            return self
        return _reduced(self.vars, order, self.den,
                        {e: t for e, t in self.num.items() if sum(e) <= order})

    def rename(self, mapping):
        return _packed(tuple(mapping.get(v, v) for v in self.vars),
                       self.order, self.den, self.num)

    def embed(self, vars):
        """View in a larger variable set (by name)."""
        vars = tuple(vars)
        if vars == self.vars:
            return self
        for v in self.vars:
            if v not in vars:
                raise SeriesError("cannot drop variable %r" % v)
        num = {_remap(e, self.vars, vars): t for e, t in self.num.items()}
        return _packed(vars, self.order, self.den, num)

    def project(self, vars):
        """Restrict to a sub-variable set; dropped vars must not occur."""
        vars = tuple(vars)
        keep = [self.vars.index(v) for v in vars]
        drop = [i for i, v in enumerate(self.vars) if v not in vars]
        num = {}
        for e, t in self.num.items():
            if any(e[i] for i in drop):
                raise SeriesError("projection drops an occurring variable")
            num[tuple(e[i] for i in keep)] = t
        return _packed(vars, self.order, self.den, num)

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
        den = a.den if a.den == b.den else lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        if fa == 1:
            num = dict(a.num)
        else:
            num = {e: (x * fa, y * fa, z * fa, w * fa)
                   for e, (x, y, z, w) in a.num.items()}
        for e, (x, y, z, w) in b.num.items():
            if fb != 1:
                x, y, z, w = x * fb, y * fb, z * fb, w * fb
            s = num.get(e)
            if s is not None:
                x, y, z, w = s[0] + x, s[1] + y, s[2] + z, s[3] + w
                if not (x or y or z or w):
                    del num[e]
                    continue
            num[e] = (x, y, z, w)
        if order < max(a.order, b.order):
            num = {e: t for e, t in num.items() if sum(e) <= order}
        return _reduced(a.vars, order, den, num)

    __radd__ = __add__

    def __neg__(self):
        return _packed(self.vars, self.order, self.den,
                       {e: (-a, -b, -c, -d)
                        for e, (a, b, c, d) in self.num.items()})

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
        x = (c.a, c.b, c.c, c.d)
        return _reduced(self.vars, self.order, self.den * c.q,
                        {e: mul_parts(t, x) for e, t in self.num.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiSeries):
            return self.scale(other)
        a, b = self._aligned(other)
        if not a.num or not b.num:
            return MultiSeries.zero(a.vars, min(a.order + b.valuation(),
                                                b.order + a.valuation()))
        adeg, aitems = a._degree_sorted()
        bdeg, bitems = b._degree_sorted()
        order = min(a.order + bdeg[0], b.order + adeg[0])
        # iterate the smaller operand outside; each inner loop stops at the
        # last term of b that fits under the order.  The multiply-adds are
        # mul_parts inlined, accumulated in place.
        if len(aitems) > len(bitems):
            a, b = b, a
            adeg, aitems, bdeg, bitems = bdeg, bitems, adeg, aitems
        room0 = order - bdeg[0]
        acc = {}
        for da, (ea, (a1, b1, c1, d1)) in zip(adeg, aitems):
            if da > room0:
                break
            for eb, (a2, b2, c2, d2) in bitems[:bisect_right(bdeg,
                                                             order - da)]:
                e = tuple(map(add, ea, eb))
                x = a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2)
                y = a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2)
                z = a1 * c2 + c1 * a2 - (b1 * d2 + d1 * b2)
                w = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
                s = acc.get(e)
                if s is None:
                    acc[e] = [x, y, z, w]
                else:
                    s[0] += x
                    s[1] += y
                    s[2] += z
                    s[3] += w
        num = {e: tuple(t) for e, t in acc.items()
               if t[0] or t[1] or t[2] or t[3]}
        return _reduced(a.vars, order, a.den * b.den, num)

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
        return a.order == b.order and a.den == b.den and a.num == b.num

    def equal_mod(self, other, order):
        """Exact equality of all coefficients through total degree `order`."""
        a, b = self._aligned(other if isinstance(other, MultiSeries)
                             else MultiSeries.const(other, self.vars))
        if min(a.order, b.order) < order:
            raise SeriesError("comparison order exceeds trusted order")
        d = a - b
        return all(sum(e) > order for e in d.num)

    # ---------- calculus ----------

    def diff(self, var):
        i = self.vars.index(var)
        num = {}
        for e, (a, b, c, d) in self.num.items():
            k = e[i]
            if k:
                num[e[:i] + (k - 1,) + e[i + 1:]] = (a * k, b * k, c * k,
                                                     d * k)
        return _reduced(self.vars, max(self.order - 1, 0), self.den, num)

    def integrate(self, var):
        """Antiderivative in `var` with zero constant slice."""
        i = self.vars.index(var)
        m = lcm(*(e[i] + 1 for e in self.num))
        num = {}
        for e, (a, b, c, d) in self.num.items():
            k = e[i] + 1
            f = m // k
            num[e[:i] + (k,) + e[i + 1:]] = (a * f, b * f, c * f, d * f)
        return _reduced(self.vars, self.order + 1, self.den * m, num)

    # ---------- slicing ----------

    def coeff_of_var_power(self, var, k):
        """Coefficient series of var**k, over the remaining variables."""
        return self._var_slices(var, k, k)[0]

    def _var_slices(self, var, lo, hi):
        """[coeff_of_var_power(var, k) for k in lo..hi], in one pass."""
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        parts = [{} for _ in range(lo, hi + 1)]
        for e, t in self.num.items():
            k = e[i]
            if lo <= k <= hi:
                parts[k - lo][e[:i] + e[i + 1:]] = t
        return [_reduced(rest, self.order - k, self.den, part)
                for k, part in enumerate(parts, lo)]

    def coeff_of(self, powers):
        """Coefficient series for a dict var->power, remaining vars kept."""
        s = self
        for v, k in powers.items():
            s = s.coeff_of_var_power(v, k)
        return s

    def var_degree(self, var):
        i = self.vars.index(var)
        return max((e[i] for e in self.num), default=0)

    def monomial_mul(self, var, k):
        i = self.vars.index(var)
        num = {e[:i] + (e[i] + k,) + e[i + 1:]: t
               for e, t in self.num.items()}
        return _packed(self.vars, self.order + k, self.den, num)

    def monomial_div(self, var, k):
        """Exact division by var**k; raises if any term is not divisible."""
        i = self.vars.index(var)
        num = {}
        for e, t in self.num.items():
            if e[i] < k:
                raise SeriesError("series not divisible by %s**%d" % (var, k))
            num[e[:i] + (e[i] - k,) + e[i + 1:]] = t
        return _packed(self.vars, self.order - k, self.den, num)

    # ---------- composition ----------

    def compose(self, subs):
        """Substitute series for variables, trusted through the lowest order
        among self and the substituted series.

        A substituted series with a constant term is allowed only when self
        is exact: the unknown tail of a truncated series would feed every
        lower degree.
        """
        subs = {v: s for v, s in subs.items() if v in self.vars}
        if not subs:
            return self
        for v, s in subs.items():
            if not s.constant_term().is_zero() and self.order != EXACT:
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
        subs = {v: s.embed(out_vars).truncate(order) for v, s in subs.items()}
        # every substituted variable but the first keeps one list of powers
        # [s, s**2, ...] for all slices of the outer ones
        inner = [v for v in self.vars if v in subs][1:]
        powers = {v: [subs[v]] for v in inner}
        return _compose_rec(self, subs, out_vars, order, powers)

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
        if not self.num:
            return "<0 (order %s)>" % self.order
        bits = []
        for e in sorted(self.num, key=lambda t: (sum(t), t)):
            mono = "*".join("%s^%d" % (v, k)
                            for v, k in zip(self.vars, e) if k)
            c = repr(self.coefficient(e))
            bits.append(c if not mono else "%s %s" % (c, mono))
        tail = "" if self.order == EXACT else " + O(deg %d)" % (self.order + 1)
        return "<" + " + ".join(bits[:12]) + ("..." if len(bits) > 12 else "") + tail + ">"


def _as_coeff(c):
    if isinstance(c, GaussianRational):
        return c
    g = _coerce(c)
    if g is NotImplemented:
        raise SeriesError("cannot coerce %r to a coefficient" % (c,))
    return g


def _compose_rec(f, subs, out_vars, order, powers):
    """f with subs substituted.  A variable with a list in `powers` sums its
    slices against those shared powers; the outermost one goes by Horner."""
    sub_here = [v for v in f.vars if v in subs]
    if not sub_here:
        return f.embed(out_vars).truncate(order)
    v = sub_here[0]
    slices = [_compose_rec(c, subs, out_vars, order, powers)
              for c in f._var_slices(v, 0, f.var_degree(v))]
    pw = powers.get(v)
    if pw is None:
        acc = slices.pop()
        while slices:
            acc = acc * subs[v] + slices.pop()
    else:
        while len(pw) < len(slices) - 1:
            pw.append((pw[-1] * subs[v]).truncate(order))
        acc = slices[0]
        for c, p in zip(slices[1:], pw):
            acc = acc + c * p
    return acc.truncate(order)


# ---------- homogeneous parts ----------

def _graded(s, top):
    """[homogeneous part of s of total degree d for d = 0..top], exact."""
    parts = [{} for _ in range(top + 1)]
    for e, t in s.num.items():
        d = sum(e)
        if d <= top:
            parts[d][e] = t
    return [_reduced(s.vars, EXACT, s.den, p) for p in parts]


def _ungraded(parts, vars, order):
    """The series of the given order whose homogeneous parts are `parts`."""
    den = lcm(*(p.den for p in parts))
    num = {}
    for p in parts:
        f = den // p.den
        num.update(p.num if f == 1 else
                   {e: (a * f, b * f, c * f, d * f)
                    for e, (a, b, c, d) in p.num.items()})
    return _reduced(vars, order, den, num)


def _convolution(a, b, d, lo, hi):
    """sum_{lo <= j <= hi} a[j] * b[d - j] over homogeneous parts (zero for
    an empty range); pairs with a zero factor are skipped, as sparse series
    have many."""
    acc = MultiSeries.zero(a[0].vars)
    for j in range(lo, hi + 1):
        if a[j].num and b[d - j].num:
            acc = acc + a[j] * b[d - j]
    return acc


# ---------- transcendental-free series functions ----------

def _finite_order(x, what):
    """The trusted order of x, which a series function of x inherits; an
    exact x is refused, since its function is an infinite series."""
    if x.order == EXACT:
        raise SeriesError("%s of an exact series has no finite order; "
                          "truncate the argument" % what)
    return x.order


def exp_series(x):
    """exp of a series with zero constant term, trusted as far as x.

    The homogeneous parts come from the Euler-operator identity
    theta E = theta X * E, theta multiplying degree d by d:
    d E_d = sum_j j X_j E_{d-j}, one truncated product in all.
    """
    if not x.constant_term().is_zero():
        raise SeriesError("exp needs a zero constant term")
    top = _finite_order(x, "exp")
    tx = [p.scale(j) for j, p in enumerate(_graded(x, top))]
    E = [MultiSeries.const(ONE, x.vars)]
    for d in range(1, top + 1):
        E.append(_convolution(tx, E, d, 1, d).scale(Fraction(1, d)))
    return _ungraded(E, x.vars, top)


def log_series(x):
    """log of a series with constant term exactly 1, trusted as far as x.

    The homogeneous parts come from theta L * T = theta T (theta as in
    exp_series, T_0 = 1): L_d = T_d - (1/d) sum_{0<j<d} j L_j T_{d-j}.
    """
    if not (x.constant_term() == ONE):
        raise SeriesError("log needs constant term 1")
    top = _finite_order(x, "log")
    T = _graded(x, top)
    L = [MultiSeries.zero(x.vars)]
    tl = [L[0]]
    for d in range(1, top + 1):
        Ld = T[d] - _convolution(tl, T, d, 1, d - 1).scale(Fraction(1, d))
        L.append(Ld)
        tl.append(Ld.scale(d))
    return _ungraded(L, x.vars, top)


# ---------- implicit solve ----------

def solve_implicit(F, x_vars, y_vars):
    """Solve F(x, y(x)) = 0 for y with y(0) = 0 by Newton lifting.

    F is a list of series over x_vars + y_vars, one per unknown.  Requires
    F(0,0) = 0 and an invertible Jacobian dF/dy at the origin; the returned
    series satisfy the system modulo total degree order+1, order the lowest
    trusted order among F, which must be finite.  The error on a singular
    Jacobian carries the exact Jacobian determinant.

    A Newton step lifts y from precision p to q <= 2p+1: it composes F at
    precision q and the Jacobian J = dF/dy only at precision q-p-1, then
    solves J delta = -F(x, y) for the parts of degree p+1..q of the
    correction, one degree at a time through the constant Jacobian.  The
    precisions halve back from the target, so F is composed once at full
    precision.  The solution truncated to an order is unique, hence equal
    to any other method's.
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
    dF = [[f.diff(yv) for yv in y_vars] for f in F]
    J0 = [[g.constant_term() for g in row] for row in dF]
    d = linalg.det(J0)
    if d.is_zero():
        raise SingularJacobianError(d)
    J0inv = linalg.inverse(J0)

    order = _finite_order(min(F, key=lambda f: f.order), "solve_implicit")
    steps = [order]
    while steps[-1] > 0:
        steps.append(steps[-1] // 2)
    ys = [MultiSeries.zero(tuple(x_vars), EXACT)] * n
    for p, q in pairwise(reversed(steps)):
        subs = dict(zip(y_vars, ys))
        r = [_graded(f.truncate(q).compose(subs), q) for f in F]
        k = q - p - 1
        J = [[_graded(g.truncate(k).compose(subs), k) for g in row]
             for row in dF]
        # delta[j][deg]: the degree-deg part of the correction to y_j
        delta = [[None] * (p + 1) for _ in range(n)]
        for deg in range(p + 1, q + 1):
            rhs = [r[i][deg] for i in range(n)]
            for i in range(n):
                for j in range(n):
                    rhs[i] = rhs[i] + _convolution(J[i][j], delta[j], deg, 1,
                                                   deg - p - 1)
            for i in range(n):
                acc = MultiSeries.zero(rhs[0].vars)
                for j in range(n):
                    if not J0inv[i][j].is_zero():
                        acc = acc - rhs[j].scale(J0inv[i][j])
                delta[i].append(acc)
        ys = [y + _ungraded(dl[p + 1:], dl[p + 1].vars, EXACT)
              for y, dl in zip(ys, delta)]
    return [y.truncate(order) for y in ys]


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
