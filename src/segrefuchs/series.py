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
`log_series`, `divide` and `solve_implicit` are trusted exactly as far as
their arguments are and refuse an exact argument, whose result would be
an infinite series.  `truncate` is the one way to lower an order.  `compose`
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

The exponents are packed too: `num` is keyed by one integer per exponent
vector, a W-bit field per variable in `vars` order, the first variable
highest, with the total degree in the field above them (packed exponent
vectors, Monagan and Pearce, CASC 2007).  A product of monomials adds keys,
integer order on keys is total degree first and then the exponent tuple,
and a truncation compares a key with one bound; slicing and embedding
shift and mask fields.  A total degree at or above 2**W would carry into
the next field, so it is refused with a SeriesError.  Exponent tuples stay
the interface: the constructor, `monomial`, `coefficient` and the `terms`
view take and yield them.

Products go through one driver, `_mul_into`, which adds f * a * b into
a dict of packed sums: the kernel's one order rule for products, its cuts
at the order and its refusal of degrees the fields cannot hold.  A
one-term operand shifts the other's keys and scales its terms, with no
sort.  `__mul__`, the Horner steps of `compose` and the Newton correction
of `solve_implicit` each build one series per call.

The series functions each do their work about once.  `compose`
evaluates every substituted variable v by Horner in s = subs[v], and
composes the slice of v**k only through degree order - k*val(s): it meets
s**k, of valuation k*val(s), so its terms past that land above the order;
the Horner accumulator, trusted only as far as the last slice added to it,
is then cut the same way (truncated composition, Brent and Kung, J. ACM 25
(1978)).  The chain runs on packed (order, den, num) triples, sliced in
one pass per level; a step acc * s + slice is one driver call into the
slice's terms over the common denominator, divided by its content.
`exp_series` and `log_series` compute one homogeneous degree at a time
from the Euler-operator identities theta E = theta X * E and theta L * T =
theta T (theta = sum x_i d/dx_i multiplies total degree d by d), about one
truncated product in all (van der Hoeven, "Relax, but don't be too lazy",
JSC 34 (2002)).  A degree is a packed part over its own reduced
denominator, not a MultiSeries: its coefficient pairs are summed over one
common denominator by the kernel's one multiply-add loop `_mac`, then
reduced by one gcd, and the parts become a series once, at the end.
`divide` runs the same scheme on b q = a, q_d = (a_d - sum_{t>0} b_t
q_{d-t}) / b_0, the kernel's one packed-part solve loop.  `solve_implicit`
solves inversions H(x, y) = t alone, the caller naming the inputs t among
the x-variables, as in the elimination and the real-complex transfers.  It
lifts its solution by Newton's method, doubling the precision per step,
and the solution's own derivative in t is the inverse Jacobian, so a step
composes H alone (Newton reversion, Brent and Kung, again); the correction
sum_t dy/dt r_t accumulates into y's terms, one dict per unknown.
`linalg.det` of the Jacobian at the origin decides solvability first: a
zero one is refused.

LaurentInW wraps a MultiSeries with a declared pole order in one
distinguished variable, normalized so the body is not divisible by that
variable while the pole is positive.
"""

from bisect import bisect_right
from collections.abc import Mapping
from functools import cache, partial
from itertools import chain, pairwise
from math import gcd, inf, lcm

from .qfield import GaussianRational, ZERO, ONE, _coerce, mul_parts
from .errors import SegrefuchsError
from . import linalg

EXACT = inf
# bits per exponent field of a key; a total degree must stay below 2**W
W = 20
_MASK = (1 << W) - 1


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


def _room(degree):
    """Refuse a total degree that the exponent fields cannot hold."""
    if degree >= 1 << W:
        raise SeriesError("total degree %d is 2**%d or more and does not "
                          "fit the exponent fields" % (degree, W))


def _nonnegative(k):
    """Refuse a negative power of a monomial factor: a key step of -k would
    borrow across the fields."""
    if k < 0:
        raise SeriesError("monomial power %d is negative" % k)


def _pack(e, n):
    """The key of the exponent vector e over n variables."""
    e = tuple(e)
    if len(e) != n or min(e, default=0) < 0:
        raise SeriesError("exponents %r are not %d nonnegative integers"
                          % (e, n))
    k = sum(e)
    _room(k)
    for x in e:
        k = k << W | x
    return k


def _exps(k, n):
    """The exponent vector of the key k over n variables."""
    return tuple([k >> s & _MASK for s in range(W * (n - 1), -1, -W)])


def _slot(vars, v):
    """The bit offset of v's exponent field in a key over vars."""
    return W * (len(vars) - 1 - vars.index(v))


def _exp_items(s):
    """The (exponent vector, packed coefficient) pairs of s."""
    n = len(s.vars)
    return ((_exps(k, n), t) for k, t in s.num.items())


def _degrees_in(s, vs):
    """{key: the total exponent of the variables vs} over the keys of s."""
    degs = dict.fromkeys(s.num, 0)
    for v in vs:
        o = _slot(s.vars, v)
        degs = {k: d + (k >> o & _MASK) for k, d in degs.items()}
    return degs


@cache
def _blocks(src, dst):
    """(offset, mask, new offset) per run of fields, the degree's included,
    that stay adjacent when keys over src are rewritten over dst; cached,
    since the pipeline embeds between a few variable sets only."""
    n, m = len(src), len(dst)
    moves = [(W * n, W * m)] + [(W * (n - 1 - i), W * (m - 1 - dst.index(v)))
                                for i, v in enumerate(src)]
    blocks = []
    for s, d in moves:
        # the source offsets fall by W from one move to the next
        if blocks and blocks[-1][2] - W == d:
            blocks[-1] = (s, blocks[-1][1] + W, d)
        else:
            blocks.append((s, W, d))
    return tuple((s, (1 << width) - 1, d) for s, width, d in blocks)


def _packed(vars, order, den, num):
    """Series from packed data that is already in lowest terms."""
    s = object.__new__(MultiSeries)
    s.vars = vars
    s.order = order
    s.den = den
    s.num = num
    s._by_degree = None
    return s


def _lowest(den, num):
    """(den, num) divided by their common content; no terms get den 1."""
    if not num:
        return 1, num
    if den != 1:
        # one term usually settles it; otherwise one gcd over everything
        g = gcd(den, *next(iter(num.values())))
        if g != 1:
            g = gcd(g, *chain.from_iterable(num.values()))
        if g != 1:
            den //= g
            num = {e: (a // g, b // g, c // g, d // g)
                   for e, (a, b, c, d) in num.items()}
    return den, num


def _reduced(vars, order, den, num):
    """Series from packed data, dividing den and every component by their
    common content."""
    return _packed(vars, order, *_lowest(den, num))


def _lim(order, shift):
    """The least key of total degree above order, the degree field at bit
    shift; EXACT for an exact order, which every key is below."""
    return EXACT if order == EXACT else (order + 1) << shift


def _sorted(num, shift):
    """(total degrees ascending, matching (key, packed) pairs in key order)
    of the packed terms num, the degree field at bit shift."""
    items = sorted(num.items())
    return [k >> shift for k, _ in items], items


def _moved(num, src, dst):
    """The packed terms num over the variables src, keyed over dst, which
    holds them all."""
    if src == dst:
        return num
    blocks = _blocks(src, dst)
    out = {}
    for k, t in num.items():
        e = 0
        for s, mask, d in blocks:
            e |= (k >> s & mask) << d
        out[e] = t
    return out


def _without(vars, v):
    """(vars without v, the offset of v's field, the mask of the fields
    below it, the offset of the degree field over the rest).  A key e over
    vars whose v-exponent is k has the key (e >> at + W << at | e & below)
    - (k << shift) over the rest: v's field goes, the fields above it move
    down into its place and the degree drops by k."""
    i = vars.index(v)
    rest = vars[:i] + vars[i + 1:]
    at = W * (len(rest) - i)
    return rest, at, (1 << at) - 1, W * len(rest)


class Terms(Mapping):
    """Read-only view of a series' coefficients as GaussianRationals,
    keyed by exponent vector; a value is built on each read."""

    __slots__ = ("_num", "_den", "_n")

    def __init__(self, num, den, n):
        self._num = num
        self._den = den
        self._n = n

    def __getitem__(self, e):
        try:
            a, b, c, d = self._num[_pack(e, self._n)]
        except (SeriesError, KeyError, TypeError):
            raise KeyError(e) from None
        return GaussianRational(a, b, c, d, self._den)

    def __iter__(self):
        n = self._n
        return (_exps(k, n) for k in self._num)

    def __len__(self):
        return len(self._num)


class MultiSeries:
    __slots__ = ("vars", "order", "den", "num", "_by_degree")

    def __init__(self, vars, order, terms=None):
        """Series from a map exponent vector -> coefficient; zero
        coefficients and terms above `order` are dropped.  An exponent
        vector of another length than vars, with a negative exponent or
        of total degree 2**W or more is refused."""
        self.vars = tuple(vars)
        self.order = order
        self._by_degree = None
        lim = _lim(order, W * len(self.vars))
        coeffs = {}
        for e, c in (terms or {}).items():
            c = _as_coeff(c)
            k = _pack(e, len(self.vars))
            if k < lim and not c.is_zero():
                coeffs[k] = c
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
        return _packed(tuple(vars), order, c.q, {0: (c.a, c.b, c.c, c.d)})

    @staticmethod
    def variable(name, vars, order=EXACT):
        vars = tuple(vars)
        if name not in vars:
            raise SeriesError("variable %r not among %r" % (name, vars))
        return _packed(vars, order, 1, {_pack(_unit(vars, name), len(vars)):
                                        (1, 0, 0, 0)})

    @staticmethod
    def monomial(c, exps, vars, order=EXACT):
        return MultiSeries(vars, order, {tuple(exps): c})

    # ---------- structure ----------

    @property
    def terms(self):
        return Terms(self.num, self.den, len(self.vars))

    def is_zero(self):
        return not self.num

    def valuation(self):
        """Smallest total degree present; order+1 for the zero series."""
        if not self.num:
            return self.order + 1
        return min(self.num) >> W * len(self.vars)

    def var_valuation(self, var):
        s = _slot(self.vars, var)
        if not self.num:
            return self.order + 1
        m = _MASK << s
        return min(k & m for k in self.num) >> s

    def max_degree(self):
        return max(self.num, default=0) >> W * len(self.vars)

    def constant_term(self):
        t = self.num.get(0)
        return ZERO if t is None else GaussianRational(*t, self.den)

    def coefficient(self, exps):
        """The coefficient of the exponent vector exps, one exponent per
        variable; another length is refused."""
        t = self.num.get(_pack(exps, len(self.vars)))
        return ZERO if t is None else GaussianRational(*t, self.den)

    def _degree_sorted(self):
        """(total degrees ascending, matching (key, packed) pairs in key
        order); computed once per series, since series are never mutated."""
        if self._by_degree is None:
            self._by_degree = _sorted(self.num, W * len(self.vars))
        return self._by_degree

    def _operand(self):
        """The operand (order, num, by_degree) of the product driver."""
        return self.order, self.num, self._degree_sorted

    def truncate(self, order):
        if order >= self.order:
            return self
        lim = _lim(order, W * len(self.vars))
        return _reduced(self.vars, order, self.den,
                        {k: t for k, t in self.num.items() if k < lim})

    def within(self, top):
        """The terms within the powers in top (var -> highest power), and
        the lowest-degree term first in exponent order, so that the
        valuation, and with it the order of every product with the result,
        stays that of self."""
        box = [(_slot(self.vars, v), k) for v, k in top.items()]
        num = {e: t for e, t in self.num.items()
               if all(e >> s & _MASK <= k for s, k in box)}
        if self.num:
            low = min(self.num)
            num[low] = self.num[low]
        return _reduced(self.vars, self.order, self.den, num)

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
        return _packed(vars, self.order, self.den,
                       _moved(self.num, self.vars, vars))

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
            lim = _lim(order, W * len(a.vars))
            num = {e: t for e, t in num.items() if e < lim}
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
        """Off the CLI path: ring protocol, c - s."""
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
        shift = W * len(a.vars)
        acc = {}
        order = _mul_into(acc, 1, a._operand(), b._operand(), shift, EXACT)
        return _packed(a.vars, order, *_settled(acc, a.den * b.den, order,
                                                shift))

    __rmul__ = __mul__

    def __pow__(self, n):
        """Off the CLI path: ring protocol, repeated products."""
        if not isinstance(n, int) or n < 0:
            raise SeriesError("powers must be nonnegative integers")
        if n == 0:
            return MultiSeries.const(ONE, self.vars, EXACT)
        acc = self
        for _ in range(n - 1):
            acc = acc * self
        return acc

    def __eq__(self, other):
        """Value equality of series: the same order and packed data."""
        if not isinstance(other, MultiSeries):
            return NotImplemented
        a, b = self._aligned(other)
        return a.order == b.order and a.den == b.den and a.num == b.num

    # ---------- calculus ----------

    def diff(self, var):
        s = _slot(self.vars, var)
        step = (1 << s) + (1 << W * len(self.vars))
        num = {}
        for e, (a, b, c, d) in self.num.items():
            k = e >> s & _MASK
            if k:
                num[e - step] = (a * k, b * k, c * k, d * k)
        return _reduced(self.vars, self.order - 1, self.den, num)

    def integrate(self, var):
        """Antiderivative in `var` with zero constant slice."""
        s = _slot(self.vars, var)
        step = (1 << s) + (1 << W * len(self.vars))
        if self.order + 1 >= 1 << W:
            _room(self.max_degree() + 1)
        m = lcm(*((e >> s & _MASK) + 1 for e in self.num))
        num = {}
        for e, (a, b, c, d) in self.num.items():
            f = m // ((e >> s & _MASK) + 1)
            num[e + step] = (a * f, b * f, c * f, d * f)
        return _reduced(self.vars, self.order + 1, self.den * m, num)

    # ---------- slicing ----------

    def coeff_of_var_power(self, var, k):
        """Coefficient series of var**k, over the remaining variables."""
        rest, at, below, shift = _without(self.vars, var)
        up, drop = at + W, k << shift
        return _reduced(rest, self.order - k, self.den,
                        {(e >> up << at | e & below) - drop: t
                         for e, t in self.num.items()
                         if e >> at & _MASK == k})

    def coeff_of(self, powers):
        """Coefficient series for a dict var->power, remaining vars kept."""
        s = self
        for v, k in powers.items():
            s = s.coeff_of_var_power(v, k)
        return s

    def var_degree(self, var):
        s = _slot(self.vars, var)
        m = _MASK << s
        return max((e & m for e in self.num), default=0) >> s

    def monomial_mul(self, var, k):
        """self * var**k, for k >= 0; self itself for k = 0."""
        _nonnegative(k)
        step = k * ((1 << _slot(self.vars, var)) + (1 << W * len(self.vars)))
        if not step:
            return self
        if self.order + k >= 1 << W:
            _room(self.max_degree() + k)
        return _packed(self.vars, self.order + k, self.den,
                       {e + step: t for e, t in self.num.items()})

    def monomial_div(self, var, k):
        """Exact division by var**k, k >= 0; raises if any term is not
        divisible."""
        _nonnegative(k)
        s = _slot(self.vars, var)
        step = k * ((1 << s) + (1 << W * len(self.vars)))
        num = {}
        for e, t in self.num.items():
            if e >> s & _MASK < k:
                raise SeriesError("series not divisible by %s**%d" % (var, k))
            num[e - step] = t
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
            if 0 in s.num and self.order != EXACT:
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
        # one Horner level per substituted variable, in the order of vars
        levels, vars = [], self.vars
        for v in self.vars:
            if v in subs:
                vars, at, below, shift = _without(vars, v)
                s = subs[v].embed(out_vars).truncate(order)
                levels.append((s._operand(), s.den, s.valuation(), at, below,
                               shift))
        return _reduced(out_vars, *_compose_rec(
            (levels, kept, out_vars), 0, self.order, self.den, self.num,
            order))

    # ---------- text ----------

    def __repr__(self):
        """Off the CLI path: series in error messages."""
        if not self.num:
            return "<0 (order %s)>" % self.order
        bits = []
        for key in sorted(self.num):
            mono = "*".join("%s^%d" % (v, k) for v, k in
                            zip(self.vars, _exps(key, len(self.vars))) if k)
            c = repr(GaussianRational(*self.num[key], self.den))
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


def _compose_rec(plan, i, f_order, den, num, order):
    """The packed (order, den, num) of the terms num over den, trusted
    through f_order, with plan's levels i, i+1, ... substituted, trusted
    through order.  plan is (levels, the variables left after the last
    level, the output variables); a level substitutes s for one variable v
    by Horner in v, on the slices of the terms by their power of v, made in
    one pass.

    The slice of v**k meets s**k, of valuation k*val(s), so it is composed
    only through order - k*val(s); a zero exact s has valuation inf, and an
    exact order cuts nothing.  A Horner step acc * s + slice is one call of
    the product driver into the slice's terms over the common denominator,
    cut at the product's order, and divided by its content.  That order is
    the slice's: order <= f_order at every call, since a truncated f takes
    no s with a constant term, so each slice comes back trusted exactly
    through order - k*val(s), and acc, entering step k, through
    order - (k+1)*val(s); as s.order >= order, acc * s is trusted through
    min(acc.order + val(s), s.order + val(acc)) = order - k*val(s), for an
    empty acc or slice (valuation order + 1) and a zero s too.
    """
    if not num:
        return min(f_order, order), 1, num
    levels, kept, out_vars = plan
    if i == len(levels):
        if order < f_order:
            f_order = order
            lim = _lim(order, W * len(kept))
            num = {k: t for k, t in num.items() if k < lim}
        return f_order, den if num else 1, _moved(num, kept, out_vars)
    s, s_den, val, at, below, shift = levels[i]
    up = at + W
    parts = {}
    for e, t in num.items():
        k = e >> at & _MASK
        part = parts.get(k)
        if part is None:
            part = parts[k] = {}
        part[(e >> up << at | e & below) - (k << shift)] = t
    out = W * len(out_vars)
    acc = None
    for k in range(max(parts), -1, -1):
        c_order, c_den, c_num = _compose_rec(
            plan, i + 1, f_order - k, den, parts.get(k, {}),
            order - k * val if order != EXACT else order)
        if acc is None:
            acc = c_order, c_den, c_num
            continue
        a_order, a_den, a_num = acc
        p_den = a_den * s_den
        step_den = lcm(p_den, c_den)
        g = step_den // c_den
        step = dict(c_num) if g == 1 else {
            e: (x * g, y * g, z * g, w * g)
            for e, (x, y, z, w) in c_num.items()}
        step_order = _mul_into(step, step_den // p_den,
                               (a_order, a_num, partial(_sorted, a_num, out)),
                               s, out, EXACT)
        acc = step_order, *_settled(step, step_den, step_order, out)
    return acc


# ---------- the product driver ----------
#
# Products accumulate into a dict from keys to packed sums (a, b, c, d)
# over one denominator the caller chose; a dict becomes packed terms in
# lowest terms once, in `_settled`.

def _mul_into(acc, f, a, b, shift, cap):
    """Add f * a * b to acc through total degree min(cap, the product's
    order) and return that order.

    a and b are operands (order, num, by_degree): packed terms keyed with
    the degree field at bit `shift`, their trusted order, and a function
    giving their (degrees, items) in key order, called only where a cut
    needs it.  f takes a * b to the denominator of acc's sums.  The
    product's order is min(a.order + val b, b.order + val a), an operand
    without terms having valuation order + 1.  A one-term operand shifts
    the keys of the other and scales it; otherwise the smaller operand
    runs outside, one degree of it at a time, and its inner loop stops at
    the last term of the other that fits under the order.  A pair formed
    under the order whose degree the exponent fields cannot hold is
    refused.
    """
    if len(a[1]) > len(b[1]):
        a, b = b, a
    a_order, anum, a_sorted = a
    b_order, bnum, b_sorted = b
    if not anum:
        vb = min(bnum) >> shift if bnum else b_order + 1
        return min(cap, a_order + vb, b_order + a_order + 1)
    if len(anum) == 1:
        (k0, t0), = anum.items()
        d0 = k0 >> shift
        order = min(cap, a_order + (min(bnum) >> shift), b_order + d0)
        lim = _lim(order - d0, shift)
        _mac(acc, f, [(k0, t0)], [(k, t) for k, t in bnum.items() if k < lim])
    else:
        adeg, aitems = a_sorted()
        bdeg, bitems = b_sorted()
        order = min(cap, a_order + bdeg[0], b_order + adeg[0])
        room0 = order - bdeg[0]
        lo, n = 0, len(adeg)
        while lo < n and adeg[lo] <= room0:
            da = adeg[lo]
            mid = bisect_right(adeg, da, lo)
            _mac(acc, f, aitems[lo:mid],
                 bitems[:bisect_right(bdeg, order - da)])
            lo = mid
    # a pair's key carries into the degree field only past 2**W, and acc's
    # own terms fit, so its highest key tells
    if order >= 1 << W and acc:
        _room(max(acc) >> shift)
    return order


def _settled(acc, den, order, shift):
    """(den, the nonzero sums of acc of total degree at most order) in
    lowest terms."""
    if acc:
        lim = _lim(order, shift)
        acc = {e: t for e, t in acc.items()
               if e < lim and (t[0] or t[1] or t[2] or t[3])}
    return _lowest(den, acc)


def _mac(acc, f, rows, cols):
    """acc[ea + eb] += f * ta * tb for every (ea, ta) in rows and (eb, tb)
    in cols, acc mapping keys to packed sums, each replaced by a new tuple:
    mul_parts inlined.  The kernel's one multiply-add, under the product
    driver and the packed parts of exp, log and divide.

    The rows are the smaller operand, each checked once: a row with no
    sqrt2 part, as most rows of the pipeline's products are, meets every
    column in 8 products instead of 16."""
    if len(rows) > len(cols):
        rows, cols = cols, rows
    for ea, (a1, b1, c1, d1) in rows:
        if f != 1:
            a1, b1, c1, d1 = a1 * f, b1 * f, c1 * f, d1 * f
        if not (c1 or d1):
            for eb, (a2, b2, c2, d2) in cols:
                e = ea + eb
                x = a1 * a2 - b1 * b2
                y = a1 * b2 + b1 * a2
                z = a1 * c2 - b1 * d2
                w = a1 * d2 + b1 * c2
                s = acc.get(e)
                acc[e] = (x, y, z, w) if s is None else \
                    (s[0] + x, s[1] + y, s[2] + z, s[3] + w)
        else:
            for eb, (a2, b2, c2, d2) in cols:
                e = ea + eb
                x = a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2)
                y = a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2)
                z = a1 * c2 + c1 * a2 - (b1 * d2 + d1 * b2)
                w = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
                s = acc.get(e)
                acc[e] = (x, y, z, w) if s is None else \
                    (s[0] + x, s[1] + y, s[2] + z, s[3] + w)


# ---------- homogeneous parts ----------
#
# exp, log and divide work one total degree at a time on packed parts: a
# part is a pair (den, items), items a list of (exponent, (a, b, c, d))
# pairs standing for the terms (a, b, c, d) / den.

def _parts(s, top):
    """[the homogeneous part of s of total degree d for d = 0..top], each
    over s.den."""
    items = [[] for _ in range(top + 1)]
    shift = W * len(s.vars)
    for e, t in s.num.items():
        d = e >> shift
        if d <= top:
            items[d].append((e, t))
    return [(s.den, p) for p in items]


def _constant(c):
    """The part of the constant c."""
    if c.is_zero():
        return 1, []
    return c.q, [(0, (c.a, c.b, c.c, c.d))]


def _dot(terms, m):
    """The part sum(f * A * B for f, A, B in terms) / m in lowest terms.
    The products are accumulated over the lcm of their denominators, so a
    term costs its coefficient pairs, and one with an empty factor
    nothing."""
    terms = [t for t in terms if t[1][1] and t[2][1]]
    if not terms:
        return 1, []
    den = lcm(*(da * db for _, (da, _), (db, _) in terms))
    acc = {}
    for f, (da, ra), (db, rb) in terms:
        _mac(acc, f * (den // (da * db)), ra, rb)
    items = [(e, t) for e, t in acc.items()
             if t[0] or t[1] or t[2] or t[3]]
    den *= m
    # no items leave g = den, so an empty part gets den 1
    g = gcd(den, *chain.from_iterable(t for _, t in items))
    if g != 1:
        den //= g
        items = [(e, (a // g, b // g, c // g, d // g))
                 for e, (a, b, c, d) in items]
    return den, items


def _series(parts, vars, order):
    """The series of the given order whose homogeneous parts are `parts`;
    a part of degree 2**W or more is refused, its keys having carried."""
    _room(max((d for d, (_, items) in enumerate(parts) if items), default=0))
    den = lcm(*(pden for pden, _ in parts))
    num = {}
    for pden, items in parts:
        f = den // pden
        num.update(items if f == 1 else
                   ((e, (a * f, b * f, c * f, d * f))
                    for e, (a, b, c, d) in items))
    return _reduced(vars, order, den, num)


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
    d E_d = sum_j j X_j E_{d-j}.  Each E_d is one packed part, accumulated
    over one common denominator and reduced by one gcd; the parts become
    a series once, at the end.
    """
    if not x.constant_term().is_zero():
        raise SeriesError("exp needs a zero constant term")
    top = _finite_order(x, "exp")
    X = _parts(x, top)
    js = [j for j in range(1, top + 1) if X[j][1]]
    E = [_constant(ONE)]
    for d in range(1, top + 1):
        E.append(_dot([(j, X[j], E[d - j]) for j in js if j <= d], d))
    return _series(E, x.vars, top)


def log_series(x):
    """log of a series with constant term exactly 1, trusted as far as x.

    The homogeneous parts come from theta L * T = theta T (theta as in
    exp_series, T_0 = 1): d L_d = d T_d - sum_{0<j<d} j T_{d-j} L_j, one
    packed part per degree as in exp_series.
    """
    if not (x.constant_term() == ONE):
        raise SeriesError("log needs constant term 1")
    top = _finite_order(x, "log")
    T = _parts(x, top)
    js = [j for j in range(1, top + 1) if T[j][1]]
    one = _constant(ONE)
    L = [(1, [])]
    for d in range(1, top + 1):
        L.append(_dot([(d, T[d], one)] +
                      [(j - d, T[j], L[d - j]) for j in js if j < d], d))
    return _series(L, x.vars, top)


def divide(a, b):
    """a / b for b with a nonzero constant term, trusted as far as both
    are: b q = a solved one degree at a time, q_d = (a_d - sum_{t>0} b_t
    q_{d-t}) / b_0, one packed part per degree and one series at the end.
    The kernel's one packed-part solve loop."""
    c = b.constant_term()
    if c.is_zero():
        raise SeriesError("division needs a divisor with a nonzero "
                          "constant term")
    a, b = a._aligned(b)
    top = _finite_order(min(a, b, key=lambda s: s.order), "divide")
    A, B = _parts(a, top), _parts(b, top)
    one, inv = _constant(ONE), _constant(c.inverse())
    q = []
    for d in range(top + 1):
        rhs = _dot([(1, A[d], one)] +
                   [(-1, B[t], q[d - t]) for t in range(1, d + 1)], 1)
        q.append(_dot([(1, inv, rhs)], 1))
    return _series(q, a.vars, top)


# ---------- implicit solve ----------

def solve_implicit(H, x_vars, y_vars, t_vars):
    """Solve H(x, y(x)) = t for y with y(0) = 0 by Newton reversion.

    H is a list of series over x_vars + y_vars, one per unknown, and t_vars
    names the input t_i of each equation: n of the x-variables, which H
    does not read.  Any other call is refused with SeriesError.  Requires
    H(0,0) = 0 and an invertible Jacobian J = dH/dy at the origin, refused
    with SingularJacobianError when its determinant is 0; the returned
    series, over x_vars, satisfy the system modulo total degree order+1,
    order the lowest trusted order among H, which must be finite.

    The solver works on F = H - t.  Differentiating H(x, y) = t in t gives
    J(y) dy/dt = I, so the solution's own derivative is the inverse
    Jacobian, and a step is y <- y - (dy/dt) (H(x, y) - t) (Newton
    reversion, Brent and Kung, J. ACM 25 (1978)).  A step lifts y from
    precision p to q: it composes F alone at precision q.  From y trusted
    through degree p, dy/dt is trusted through p-1, so the steps keep
    q <= 2p, the precisions halving back from the target and rounding up;
    the first step, from y = 0, uses J(0)^-1.  So F is composed once at
    full precision.

    The solution truncated to an order is unique, hence equal to any other
    method's.
    """
    n = len(y_vars)
    if not len(H) == len(t_vars) == n:
        raise SeriesError("need one equation and one input per unknown")
    for t in t_vars:
        if t not in x_vars:
            raise SeriesError("input %r is not among the x-variables" % t)
        if any(t in h.vars and h.var_degree(t) for h in H):
            raise SeriesError("H reads the input %r" % t)
    all_vars = tuple(x_vars) + tuple(y_vars)
    F = []
    for h, t in zip(H, t_vars):
        h = h.embed(_merge_vars(h.vars, all_vars))
        F.append(h - MultiSeries.variable(t, h.vars))
    for f in F:
        if not f.constant_term().is_zero():
            raise SeriesError("F(0,0) != 0")
    J0 = [[f.coefficient(_unit(f.vars, yv)) for yv in y_vars] for f in F]
    d = linalg.det(J0)
    if d.is_zero():
        raise SingularJacobianError(d)
    J0inv = linalg.inverse(J0)

    order = _finite_order(min(F, key=lambda f: f.order), "solve_implicit")
    steps = [order]
    while steps[-1] > 1:
        steps.append((steps[-1] + 1) // 2)
    steps.append(0)
    x_vars = tuple(x_vars)
    ys = [MultiSeries.zero(x_vars, EXACT)] * n
    # from y = 0, dy/dt is J(0)^-1
    dydt = [[MultiSeries.const(c, x_vars) for c in row] for row in J0inv]
    for p, q in pairwise(reversed(steps)):
        r = [f.truncate(q).compose(dict(zip(y_vars, ys))) for f in F]
        if p:
            dydt = [[y.diff(t).truncate(q - p - 1) for t in t_vars]
                    for y in ys]
        ys = [_corrected(y, row, r, q) for y, row in zip(ys, dydt)]
    return [y.truncate(order) for y in ys]


def _unit(vars, v):
    return tuple(int(u == v) for u in vars)


def _corrected(y, dydt, r, q):
    """The Newton step y - sum_t dydt_t r_t through degree q, an exact
    polynomial: the products of every input accumulate into y's terms over
    one common denominator."""
    vars = y.vars
    for s in r:
        vars = _merge_vars(vars, s.vars)
    y = y.embed(vars)
    pairs = [(d.embed(vars), s.embed(vars)) for d, s in zip(dydt, r)]
    shift = W * len(vars)
    den = lcm(y.den, *(d.den * s.den for d, s in pairs))
    g = den // y.den
    acc = {e: (a * g, b * g, c * g, d * g)
           for e, (a, b, c, d) in y.num.items()}
    order = q
    for d, s in pairs:
        order = _mul_into(acc, -(den // (d.den * s.den)), d._operand(),
                          s._operand(), shift, order)
    return _packed(vars, EXACT, *_settled(acc, den, order, shift))


class SingularJacobianError(SeriesError):
    """Raised when the implicit solve degenerates.

    It is raised only when the Jacobian at the origin is singular, so its
    determinant attribute is always the exact zero of the field.
    """

    def __init__(self, determinant):
        """Off the CLI path: raised by solve_implicit."""
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
        """Convert to a plain series.  The constructor strips w while the
        pole is positive, so a positive pole is a genuine one."""
        if self.pole > 0:
            raise SeriesError("Laurent value has a genuine pole")
        return self.body.monomial_mul(self.wvar, -self.pole) if self.pole \
            else self.body

    def __repr__(self):
        """Off the CLI path: Laurent values in error messages."""
        if self.pole:
            return "<w^-%d * %r>" % (self.pole, self.body)
        return repr(self.body)
