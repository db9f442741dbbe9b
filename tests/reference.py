"""Per-coefficient reference versions of the packed edges of the package.

The package reads and writes series files, conjugates a series and
rescales z on the packed integer tuples of a series (one common
denominator, a tuple (a, b, c, d) per term).  The versions here build one
GaussianRational per term instead, as the package did before; the tests
hold the packed versions to them.  The field helpers that only these
references and the tests use live here too.
"""

from fractions import Fraction
from math import isqrt

from segrefuchs.errors import FormatError, NotNormalizableError
from segrefuchs.qfield import GaussianRational, ONE
from segrefuchs.series import MultiSeries
from segrefuchs.surfaces import Z, ZB


def conj(x):
    """Complex conjugate; sqrt2 stays real."""
    return GaussianRational(x.a, -x.b, x.c, -x.d, x.q)


def of_sqrt2(re2, im2=0):
    """re2*sqrt2 + im2*i*sqrt2 from rational parts."""
    re2, im2 = Fraction(re2), Fraction(im2)
    return GaussianRational(0, 0, re2.numerator * im2.denominator,
                            im2.numerator * re2.denominator,
                            re2.denominator * im2.denominator)


def power(x, n):
    """x**n by repeated squaring; a negative n inverts."""
    if n < 0:
        return power(x.inverse(), -n)
    r = ONE
    while n:
        if n & 1:
            r = r * x
        x = x * x
        n >>= 1
    return r


def is_gaussian(x):
    return x.c == 0 and x.d == 0


# ---------- the series file format, one coefficient at a time ----------

def _rat(f):
    f = Fraction(f)
    return "%d/%d" % (f.numerator, f.denominator)


def _unrat(s):
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def coeff_to_json(c):
    parts = [Fraction(c.a, c.q), Fraction(c.b, c.q)]
    if not is_gaussian(c):
        parts += [Fraction(c.c, c.q), Fraction(c.d, c.q)]
    return [_rat(p) for p in parts]


def coeff_from_json(parts):
    if len(parts) == 2:
        return GaussianRational.of(*(_unrat(p) for p in parts))
    if len(parts) == 4:
        r, i, r2, i2 = (_unrat(p) for p in parts)
        return GaussianRational.of(r, i) + of_sqrt2(r2, i2)
    raise FormatError("coefficient needs 2 or 4 rational strings")


def series_to_json(s, order):
    """The payload of s with its order already in file form."""
    return {"vars": list(s.vars), "order": order,
            "terms": [[list(e)] + coeff_to_json(s.terms[e])
                      for e in sorted(s.terms)]}


def series_from_json(d, order):
    """The series of a well-formed payload, its order read as `order`."""
    return MultiSeries(tuple(d["vars"]), order,
                       {tuple(entry[0]): coeff_from_json(entry[1:])
                        for entry in d["terms"]})


# ---------- conjugation and the z-rescale ----------

def bar_series(s):
    i1, i2 = s.vars.index(Z), s.vars.index(ZB)
    terms = {}
    for e, c in s.terms.items():
        ne = list(e)
        ne[i1], ne[i2] = ne[i2], ne[i1]
        terms[tuple(ne)] = conj(c)
    return MultiSeries(s.vars, s.order, terms)


def _sqrt_in_field(f):
    for r, embed in ((f, GaussianRational.of), (f / 2, of_sqrt2)):
        n, d = isqrt(r.numerator), isqrt(r.denominator)
        if n * n == r.numerator and d * d == r.denominator:
            return embed(Fraction(n, d))
    return None


def normalize_lead(series):
    c = series.coefficient((1, 1, 0))
    if c.is_zero() or not c.is_rational():
        raise NotNormalizableError("leading coefficient %r" % c)
    lam_sq = Fraction(1) / abs(c.re)
    lam = _sqrt_in_field(lam_sq)
    if lam is None:
        raise NotNormalizableError("no square root of %s" % lam_sq)
    lam2 = GaussianRational.of(lam_sq)
    terms = {}
    for e, x in series.terms.items():
        deg = e[0] + e[1]
        f = power(lam2, deg // 2)
        terms[e] = x * (f if deg % 2 == 0 else lam * f)
    eps = 1 if c.re > 0 else -1
    return eps, MultiSeries(series.vars, series.order, terms), lam_sq
