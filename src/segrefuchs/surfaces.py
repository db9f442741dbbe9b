"""Hypersurface models: real and complex defining forms and their transfer.

A surface is carried either as
  real form      v = u**m ( eps*|z|^2 + sum_{k,l>=2} h_kl(u) z^k zb^l )
or as the complex exponential form
  w = wb * exp( eps*i * wb**(m-1) * phi(z, zb, wb) ),
  phi = z*zb + sum_{k,l>=2} phi_kl(wb) z^k zb^l.

Each transfer makes one implicit solve of the relation between u and wb
(w = u + iv, so wb = u - i*v), reads the other side off linearly, and
renormalizes the leading coefficient by a real rescaling z -> lambda*z
with rational lambda**2; the rescale factor is recorded on the result.
All data is exact.

A complex surface's order is the order of its phi series; a real surface's
order is that of its psi series plus m, the order its defining series
v = u**m psi is trusted through.  Either way a table entry, h_kl(u) or
phi_kl(wb), is trusted through the surface's series order minus k+l.
`truncate` is the one way to lower either: every transfer and construction
downstream works at the order the surface carries.
"""

from fractions import Fraction
from math import isqrt, lcm

from .qfield import ONE, I
from .series import (MultiSeries, EXACT, SeriesError, exp_series, log_series,
                     solve_implicit, _packed, _reduced)
from .errors import (OrderTooLowError, RealityViolation, NotNormalizableError,
                     SegrefuchsError)

Z, ZB, WB, U, W = "z", "zb", "wb", "u", "w"


def require_min_order(M):
    """Refuse a surface below the 3m+2 order that the transfers, the
    elimination and the Fuchsian ledger demand."""
    need = 3 * M.m + 2
    if M.order < need:
        raise OrderTooLowError(M.order, need)


def admissible_series(lead, table, vars):
    """lead*z*zb + sum_{k,l>=2} table[k,l](t) z^k zb^l over vars (z, zb, t).

    The one builder of the admissible normal form, for the real psi (t = u)
    and the complex phi (t = wb) alike.
    """
    z, zb, _ = vars
    psi = MultiSeries.monomial(lead, (1, 1, 0), vars, EXACT)
    for (k, l), s in sorted(table.items()):
        if k < 2 or l < 2:
            raise SegrefuchsError("table indices must satisfy k,l >= 2")
        psi = psi + s.embed(vars).monomial_mul(z, k).monomial_mul(zb, l)
    return psi


def split_admissible(psi):
    """Judge psi over (z, zb, t) against the admissible normal form.

    Returns (lead, defects): lead is the z*zb*t^0 coefficient, and defects
    names every other term with k < 2 or l < 2, z*zb*t^j with j >= 1
    included, in exponent order; none is dropped.  The terms with k, l >= 2
    are the table entries, read through coeff_of (h_kl, phi_kl).
    """
    z, zb, t = psi.vars
    defects = ["term %s^%d %s^%d %s^%d outside admissible shape"
               % (z, k, zb, l, t, j) for k, l, j in sorted(psi.terms)
               if (k < 2 or l < 2) and (k, l, j) != (1, 1, 0)]
    return psi.coefficient((1, 1, 0)), defects


class RealDefining:
    """Real m-admissible data: m, sign and psi(z, zb, u) of v = u^m psi.

    psi = eps*z*zb + sum_{k,l>=2} h_kl(u) z^k zb^l.  Its order is psi's
    order plus m, since v = u^m psi is trusted m orders past psi.
    """

    def __init__(self, m, eps, psi):
        if m < 1:
            raise SegrefuchsError("nonminimality order m must be >= 1")
        if eps not in (1, -1):
            raise SegrefuchsError("sign must be +1 or -1")
        if psi.order >= EXACT:
            raise SegrefuchsError("psi needs a finite working order")
        self.m = m
        self.eps = eps
        self.psi = psi.embed((Z, ZB, U))

    @property
    def order(self):
        """The trusted order of v = u^m psi: that of psi plus m."""
        return self.psi.order + self.m

    def truncate(self, order):
        """The surface trusted through `order`; itself at its order or more."""
        if order >= self.order:
            return self
        return RealDefining(self.m, self.eps,
                            self.psi.truncate(order - self.m))

    def h_kl(self, k, l):
        """Coefficient series of z^k zb^l in psi, as a series in u."""
        return self.psi.coeff_of({Z: k, ZB: l})

    def reality_defect(self):
        """The first (k, l) with h_kl != conj(h_lk), or None if psi is real."""
        bad = self.psi - bar_series(self.psi)
        return min((e[:2] for e in bad.terms), default=None)

    def defining_series(self):
        """v = F(z, zb, u) as a series over (z, zb, u)."""
        return self.psi.monomial_mul(U, self.m)


class ComplexDefining:
    """Complex exponential form: m, sign and phi(z, zb, wb)."""

    def __init__(self, m, eps, phi, scale_sq=None):
        if m < 1:
            raise SegrefuchsError("nonminimality order m must be >= 1")
        if eps not in (1, -1):
            raise SegrefuchsError("sign must be +1 or -1")
        if phi.order >= EXACT:
            raise SegrefuchsError("phi needs a finite working order")
        self.m = m
        self.eps = eps
        self.phi = phi.embed((Z, ZB, WB))
        self.scale_sq = scale_sq  # squared z-rescale applied on construction
        self._reality = None

    @property
    def order(self):
        """The trusted order: that of phi."""
        return self.phi.order

    def truncate(self, order):
        """The surface trusted through `order`; itself at its order or more."""
        if order >= self.order:
            return self
        return ComplexDefining(self.m, self.eps, self.phi.truncate(order),
                               self.scale_sq)

    def phi_kl(self, k, l):
        """Coefficient series of z^k zb^l in phi, as a series in wb."""
        return self.phi.coeff_of({Z: k, ZB: l})

    def exponent(self):
        """The full exponent  eps*i * wb^(m-1) * phi."""
        return self.phi.monomial_mul(WB, self.m - 1).scale(
            I if self.eps == 1 else -I)

    def defining_series(self):
        """R(z, zb, wb) with the surface given by w = R."""
        ex = exp_series(self.exponent().truncate(self.order))
        return ex.monomial_mul(WB, 1).truncate(self.order)

    @property
    def reality_residual(self):
        """check_reality(self), computed once and shared by its readers."""
        if self._reality is None:
            self._reality = check_reality(self)
        return self._reality

    def admissibility_defects(self):
        lead, defects = split_admissible(self.phi)
        if not (lead == ONE):
            defects.insert(0, "zzb coefficient of phi is not 1")
        return defects


class ValidationReport:
    """The structural flags of a complex surface."""

    def __init__(self, normal, admissible, reality_ok, levi_ok):
        self.normal = normal
        self.admissible = admissible
        self.reality_ok = reality_ok
        self.levi_ok = levi_ok

    def ok(self):
        """Off the CLI path: the tests' one-flag summary."""
        return (self.normal and self.admissible and self.reality_ok
                and self.levi_ok)

    def as_dict(self):
        return {
            "normal_coordinates": self.normal,
            "m_admissible": self.admissible,
            "reality_ok": self.reality_ok,
            "levi_nondegenerate_off_X": self.levi_ok,
        }


def bar_series(s):
    """Coefficient conjugate with the z and zb slots swapped.

    For f(z, zb, wb) this realizes bar(f)(zb, z, w) as a series over the
    ambient commuting variables.
    """
    i1, i2 = s.vars.index(Z), s.vars.index(ZB)
    num = {}
    for e, (a, b, c, d) in s.num.items():
        ne = list(e)
        ne[i1], ne[i2] = ne[i2], ne[i1]
        num[tuple(ne)] = (a, -b, c, -d)
    return _packed(s.vars, s.order, s.den, num)


def check_reality(M):
    """Residual of the reality condition for a ComplexDefining surface.

    Zero modulo the working order iff the exponential form defines a real
    hypersurface.  With Psi = eps * wb^(m-1) * phi, the exponent over i,
    the residual  Psi(z, zb, w e^{-i bar(Psi)}) - bar(Psi)  is returned
    over (z, zb, w).
    """
    psi = M.exponent().scale(-I).truncate(M.order)
    psibar = bar_series(psi).rename({WB: W})
    arg = exp_series(psibar.scale(-I)).monomial_mul(W, 1)
    return psi.compose({WB: arg}) - psibar


def require_reality(M):
    """Raise RealityViolation unless M is real.

    The real form must satisfy h_kl = conj(h_lk), i.e. psi = bar(psi); the
    complex form must have a zero check_reality residual.
    """
    if isinstance(M, RealDefining):
        bad = M.reality_defect()
        if bad:
            raise RealityViolation("real data violates h_kl = conj(h_lk) "
                                   "at (k, l) = %s" % (bad,))
        return
    res = M.reality_residual
    if not res.is_zero():
        e = min(res.terms, key=lambda t: (sum(t), t))
        raise RealityViolation("reality condition violated; leading "
                               "residual term %r"
                               % {tuple(zip(res.vars, e)): res.terms[e]})


def validate_complex(M):
    defects = M.admissibility_defects()
    pure = [e for e in M.phi.terms
            if (e[0] == 0 and (e[1] or e[2])) or (e[1] == 0 and (e[0] or e[2]))]
    levi = not M.phi.coeff_of({Z: 1, ZB: 1}).is_zero()
    return ValidationReport(normal=not pure, admissible=not defects,
                            reality_ok=M.reality_residual.is_zero(),
                            levi_ok=levi)


def nonminimality_order(F):
    """Largest m with u^m dividing the normal defining series v = F(z,zb,u).

    F must be in normal coordinates (no pure-z or pure-zb slices).  Raises
    when F vanishes identically at this truncation (order undetermined) or
    when the quotient still vanishes on u = 0 (not Levi-nonflat to order N).

    Off the CLI path: paper content, m of a defining series.
    """
    F = F.embed((Z, ZB, U))
    for e in F.terms:
        if e[0] == 0 or e[1] == 0:
            raise SegrefuchsError("defining series is not in normal "
                                  "coordinates: term %s" % (e,))
    if F.is_zero():
        raise SegrefuchsError("order undetermined at this truncation: "
                              "series is identically zero")
    m = F.var_valuation(U)
    if m < 1:
        raise SegrefuchsError("surface is minimal at this truncation "
                              "(no u factor); nonminimality needs m >= 1")
    psi = F.monomial_div(U, m)
    if psi.coeff_of({U: 0}).is_zero():
        raise SegrefuchsError("not Levi-nonflat to this order")
    return m


def _sqrt_in_field(f):
    """sqrt of a positive Fraction inside Q(sqrt2) as (r, k), the root being
    r * sqrt2**k with r rational and k 0 or 1; None if there is none."""
    for k, x in enumerate((f, f / 2)):
        n, d = isqrt(x.numerator), isqrt(x.denominator)
        if n * n == x.numerator and d * d == x.denominator:
            return Fraction(n, d), k
    return None


def normalize_lead(series):
    """Rescale z -> lambda z, zb -> lambda zb so that the leading z*zb
    coefficient c of series becomes eps = +-1.

    Returns (eps, rescaled series, lambda**2); raises NotNormalizableError
    when c is not a nonzero rational or lambda is not in Q(sqrt2).
    """
    c = series.coefficient((1, 1, 0))
    if c.is_zero() or not c.is_rational():
        raise NotNormalizableError("leading z*zb coefficient %r is not a "
                                   "nonzero rational" % c)
    lam_sq = Fraction(1) / abs(c.re)
    lam = _sqrt_in_field(lam_sq)
    if lam is None:
        raise NotNormalizableError(
            "scale lambda^2 = %s has no square root in Q(sqrt2)" % lam_sq)
    # lambda**deg = f[deg] * sqrt2**(k * (deg % 2)), f[deg] rational
    r, k = lam
    f = {deg: lam_sq ** (deg // 2) * r ** (deg % 2)
         for deg in {e[0] + e[1] for e in series.num}}
    den = lcm(*(x.denominator for x in f.values()))
    num = {}
    for e, t in series.num.items():
        deg = e[0] + e[1]
        if k and deg % 2:
            t = (2 * t[2], 2 * t[3], t[0], t[1])
        g = f[deg].numerator * (den // f[deg].denominator)
        num[e] = tuple(y * g for y in t)
    eps = 1 if c.re > 0 else -1
    return eps, _reduced(series.vars, series.order, series.den * den,
                         num), lam_sq


def real_to_complex(Mr):
    """Transfer real m-admissible data to the complex exponential form.

    On v = F(z, zb, u), wb = u - i*F is explicit in wb: one implicit solve
    (Jacobian -1) inverts it for u = U(z, zb, wb), and w = u + i*F = 2U - wb.
    The exponential shape is then factored out and z rescaled so the z*zb
    coefficient of phi is exactly 1; the squared rescale is recorded on the
    result.
    """
    require_min_order(Mr)
    require_reality(Mr)
    vars4 = (Z, ZB, U, WB)
    F = Mr.defining_series().embed(vars4)
    G = (MultiSeries.variable(WB, vars4) - MultiSeries.variable(U, vars4)
         + F.scale(I))
    u = solve_implicit([G], (Z, ZB, WB), (U,))[0]
    R = u.scale(2) - MultiSeries.variable(WB, u.vars)
    theta = R.monomial_div(WB, 1)
    if not (theta.constant_term() == ONE):
        raise NotNormalizableError("defining series lacks the w = wb + ... "
                                   "normal shape")
    lg = log_series(theta)
    sgn = I if Mr.eps == 1 else -I
    phi_raw = lg.scale(sgn.inverse())
    try:
        phi_raw = phi_raw.monomial_div(WB, Mr.m - 1)
    except SeriesError:
        raise SegrefuchsError("declared nonminimality order %d inconsistent "
                              "with the defining series" % Mr.m)
    eps, phi, lam_sq = normalize_lead(phi_raw)
    if eps != 1:
        raise NotNormalizableError("leading z*zb coefficient of phi is "
                                   "negative")
    Mc = ComplexDefining(Mr.m, Mr.eps, phi, scale_sq=lam_sq)
    require_reality(Mc)
    return Mc


def complex_to_real(Mc):
    """Transfer an admissible complex form back to real m-admissible data.

    Inverse of real_to_complex up to the recorded z-rescaling.  The surface
    w = R(z, zb, wb) has u = (R + wb)/2, solved for wb = B(z, zb, u); on it
    R(B) = 2u - B, so v = (R(B) - B)/2i = -i*(u - B).

    Off the CLI path: paper content, the inverse transfer.
    """
    require_min_order(Mc)
    R = Mc.defining_series()
    # solve (R(z,zb,wb) + wb)/2 = u for wb(z, zb, u)
    vars4 = (Z, ZB, U, WB)
    G = (R.embed(vars4) + MultiSeries.variable(WB, vars4)).scale(
        Fraction(1, 2)) - MultiSeries.variable(U, vars4)
    wb = solve_implicit([G], (Z, ZB, U), (WB,))[0]
    F = (MultiSeries.variable(U, wb.vars) - wb).scale(-I)
    m = nonminimality_order(F)
    if m != Mc.m:
        raise SegrefuchsError("transfer changed the nonminimality order: "
                              "%d vs %d" % (m, Mc.m))
    psi = F.monomial_div(U, m)
    eps, psi, _ = normalize_lead(psi)
    _, defects = split_admissible(psi)
    if defects:
        raise NotNormalizableError("real form is not m-admissible: %s"
                                   % "; ".join(defects))
    Mr = RealDefining(m, eps, psi)
    require_reality(Mr)
    return Mr


def build_complex(m, eps, phi_kl, order):
    """Assemble an admissible ComplexDefining from a phi_kl table.

    phi_kl maps (k, l) with k, l >= 2 to series in wb; the z*zb term is
    added automatically.
    """
    phi = admissible_series(ONE, phi_kl, (Z, ZB, WB))
    return ComplexDefining(m, eps, phi.truncate(order))


def build_real(m, eps, h_kl, order):
    """Assemble an admissible RealDefining trusted through order.

    h_kl maps (k, l) with k, l >= 2 to series in u, or to their term
    dicts; the eps*z*zb term is added automatically.

    Off the CLI path: the constructor of real inputs.
    """
    table = {kl: s if isinstance(s, MultiSeries) else
             MultiSeries((U,), EXACT, s) for kl, s in h_kl.items()}
    psi = admissible_series(eps, table, (Z, ZB, U))
    return RealDefining(m, eps, psi.truncate(order - m))
