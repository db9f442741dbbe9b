"""Exact coefficient arithmetic for all symbolic computation in this package.

Coefficients live in the field Q(i, s) where s**2 = 2.  The sqrt-2 component
exists so that the real z-rescaling that normalizes a defining function (the
squared scale is rational, the scale itself generally is not) can be folded
into series coefficients exactly.  That rescale puts the sqrt-2 part into
ordinary pipeline data: on a dense real m=2 surface of order 17, 172 of the
346 coefficients of the complex form are pure sqrt-2 multiples, and in one
pass of the dense benchmark ladder 71% of the series products have an
operand with a sqrt-2 part.  So the four-component product is the common
case, not an exception.

A value is stored as (a + b*i + c*s + d*i*s) / q with integer components,
q > 0 and gcd(a, b, c, d, q) = 1.  Equality is exact.  Series keep their
coefficients packed as integer tuples (a, b, c, d) over one common
denominator (series.py) and multiply them with `mul_parts`; the file edge
(serialize.py), the conjugation and the z-rescale (surfaces.py) work on
those tuples too.  A GaussianRational is the form a single coefficient is
read and computed in: a pivot, a determinant, a leading coefficient.
"""

from fractions import Fraction
from math import gcd


def mul_parts(x, y):
    """Product of two integer tuples (a, b, c, d) of Z[i, s]."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 - (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)


class GaussianRational:
    """Exact number a + b*i + c*sqrt2 + d*i*sqrt2, all parts rational."""

    __slots__ = ("a", "b", "c", "d", "q")

    def __init__(self, a, b, c, d, q):
        if q == 0:
            raise ZeroDivisionError("zero denominator")
        if q < 0:
            a, b, c, d, q = -a, -b, -c, -d, -q
        g = gcd(a, b, c, d, q)
        if g > 1:
            a //= g
            b //= g
            c //= g
            d //= g
            q //= g
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.q = q

    @staticmethod
    def from_int(n):
        return GaussianRational(n, 0, 0, 0, 1)

    @staticmethod
    def from_fraction(f):
        """Off the CLI path: the benchmark's constructor."""
        f = Fraction(f)
        return GaussianRational(f.numerator, 0, 0, 0, f.denominator)

    @staticmethod
    def of(re, im=0):
        """Build from rational real/imaginary parts (ints or Fractions)."""
        re = Fraction(re)
        im = Fraction(im)
        q = re.denominator * im.denominator
        return GaussianRational(re.numerator * im.denominator,
                                im.numerator * re.denominator, 0, 0, q)

    def is_zero(self):
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def is_rational(self):
        return self.b == 0 and self.c == 0 and self.d == 0

    @property
    def re(self):
        """Rational real part (sqrt2 component excluded)."""
        return Fraction(self.a, self.q)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q1, q2 = self.q, other.q
        if q1 == q2:
            return GaussianRational(self.a + other.a, self.b + other.b,
                                    self.c + other.c, self.d + other.d, q1)
        return GaussianRational(self.a * q2 + other.a * q1,
                                self.b * q2 + other.b * q1,
                                self.c * q2 + other.c * q1,
                                self.d * q2 + other.d * q1, q1 * q2)

    __radd__ = __add__

    def __neg__(self):
        r = object.__new__(GaussianRational)
        r.a, r.b, r.c, r.d, r.q = -self.a, -self.b, -self.c, -self.d, self.q
        return r

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = mul_parts((self.a, self.b, self.c, self.d),
                               (other.a, other.b, other.c, other.d))
        return GaussianRational(a, b, c, d, self.q * other.q)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # x = A + B*s with A, B Gaussian: 1/x = conj_s(x) / (A^2 - 2 B^2),
        # then invert the Gaussian denominator by its complex conjugate.
        a, b, c, d, q = self.a, self.b, self.c, self.d, self.q
        # u = x * conj_s(x), Gaussian by construction
        ua = a * a - b * b - 2 * (c * c - d * d)
        ub = 2 * (a * b - 2 * c * d)
        # v = u * conj(u) = |u|^2, plain rational and nonzero for x != 0
        v = ua * ua + ub * ub
        # 1/x = conj_s(x) * conj(u) * q / v   (q restores the denominator)
        xs = GaussianRational(a, b, -c, -d, 1)
        uc = GaussianRational(ua, -ub, 0, 0, 1)
        w = xs * uc
        return GaussianRational(w.a * q, w.b * q, w.c * q, w.d * q, w.q * v)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.a == other.a and self.b == other.b and
                self.c == other.c and self.d == other.d and self.q == other.q)

    def to_complex(self):
        s = 2 ** 0.5
        return complex((self.a + self.c * s) / self.q,
                       (self.b + self.d * s) / self.q)

    def magnitude(self):
        return abs(self.to_complex())

    def __repr__(self):
        """Off the CLI path: coefficients in error messages."""
        parts = []
        if self.a:
            parts.append(str(Fraction(self.a, self.q)))
        if self.b:
            parts.append("%s*i" % Fraction(self.b, self.q))
        if self.c:
            parts.append("%s*s2" % Fraction(self.c, self.q))
        if self.d:
            parts.append("%s*i*s2" % Fraction(self.d, self.q))
        return "(" + " + ".join(parts) + ")" if parts else "0"


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, int):
        return GaussianRational(x, 0, 0, 0, 1)
    if isinstance(x, Fraction):
        return GaussianRational(x.numerator, 0, 0, 0, x.denominator)
    return NotImplemented


ZERO = GaussianRational.from_int(0)
ONE = GaussianRational.from_int(1)
I = GaussianRational(0, 1, 0, 0, 1)
SQRT2 = GaussianRational(0, 0, 1, 0, 1)


def qi(re, im=0):
    """Shorthand constructor from rational parts."""
    return GaussianRational.of(re, im)
