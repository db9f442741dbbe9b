"""Segre families and the associated singular second-order ODE.

The Segre varieties of an admissible surface are graphs
    w_p(z) = etab * exp( eps*i * etab^(m-1) * phi(z, xib, etab) )
parametrized by the conjugated point coordinates (xib, etab).  Eliminating
(xib, etab) between w_p, w_p'/w_p^m and w_p'' produces the unique singular
ODE  w'' = Phi(z, w, w'/w^m)  with Phi = O(w^m zeta^2).

The jet variable zeta stays a first-class series variable; the substitution
zeta = w'/w^m is never performed symbolically.  Closed-form expressions for
the low-order coefficient family double as an independent oracle for the
elimination route; both are exposed and cross-checked in the test suite.

Every construction works at the order its surface carries, which is the
order of phi, and an ODE's order is the order of its Phi.  The surface's
`truncate` is the one way to work at a lower order.
"""

from fractions import Fraction

from .qfield import GaussianRational, ONE, I
from .series import MultiSeries, LaurentInW, EXACT, exp_series, \
    solve_implicit
from .surfaces import Z, ZB, WB, W as WV, require_min_order

XIB, ETAB, ZETA = "xib", "etab", "zeta"

COEFF_KEYS = ("a0", "a1", "a2", "b0", "b1", "b2", "c0", "c1")
_COEFF_SLOT = {"a0": (2, 0), "a1": (2, 1), "a2": (2, 2),
               "b0": (3, 0), "b1": (3, 1), "b2": (3, 2),
               "c0": (4, 0), "c1": (4, 1)}


class SegreGraph:
    """Graph series w_p(z) over (z, xib, etab), plus its jet data."""

    def __init__(self, w, wz, zeta):
        self.w = w          # the graph series
        self.wz = wz        # dw/dz
        self.zeta = zeta    # w'/w^m, computed without division
        self.wzz = wz.diff(Z)


class AssociatedODE:
    """w'' = Phi(z, w, w'/w^m) together with its coefficient family.

    coeffs holds the eight holomorphic series a0..c1 (in w); a, b, c are the
    meromorphic coefficients of (w')^2, (w')^3, (w')^4 as Laurent values in
    w with bodies over (z, w).
    """

    def __init__(self, m, eps, Phi):
        self.m = m
        self.eps = eps
        self.Phi = Phi
        self._family = None

    @property
    def order(self):
        """The trusted order: that of Phi."""
        return self.Phi.order

    @staticmethod
    def from_phi(m, eps, Phi):
        E = AssociatedODE(m, eps, Phi)
        E.check_shape()
        return E

    def check_shape(self):
        """Assert Phi = O(w^m zeta^2); exact divisibility in both factors."""
        self.Phi.monomial_div(WV, self.m)
        self.Phi.monomial_div(ZETA, 2)

    @property
    def coeffs(self):
        if self._family is None:
            fam = {}
            for key, (j, k) in _COEFF_SLOT.items():
                s = self.Phi.coeff_of({ZETA: j, Z: k})
                fam[key] = s.monomial_div(WV, self.m)
            self._family = fam
        return self._family

    def mero(self, which):
        """Meromorphic a, b or c: Phi's zeta^j slice over w^(j*m)."""
        j = {"a": 2, "b": 3, "c": 4}[which]
        return LaurentInW(self.Phi.coeff_of({ZETA: j}), j * self.m, wvar=WV)

    def a_tilde(self):
        """Double z-antiderivative of a with vanishing z^0, z^1 slices."""
        a = self.mero("a")
        return LaurentInW(a.body.integrate(Z).integrate(Z), a.pole, wvar=WV)


def segre_graph(M):
    """Segre-variety graphs of M as a series in (z, xib, etab)."""
    X = M.exponent().rename({ZB: XIB, WB: ETAB})
    E1 = exp_series(X)
    w = E1.monomial_mul(ETAB, 1)
    Xz = X.diff(Z)
    wz = Xz * w
    # w'/w^m = eps*i * phi_z * exp((1-m) X): exact, no series division
    zeta = Xz.monomial_div(ETAB, M.m - 1) * \
        exp_series(X.scale(Fraction(1 - M.m)))
    return SegreGraph(w, wz, zeta)


def eliminate(M, order=None):
    """Eliminate the Segre parameters to get the associated ODE.

    Solves w_p = w, w_p'/w_p^m = zeta for (xib, etab) as series in
    (z, w, zeta) and substitutes into w_p''.  The Jacobian of the solve is
    the Levi unit of an admissible surface, so the implicit step cannot
    degenerate for valid input.  An `order` works on M.truncate(order).
    """
    if order is not None:
        M = M.truncate(order)
    require_min_order(M)
    g = segre_graph(M)
    vars5 = (Z, WV, ZETA, XIB, ETAB)
    F1 = g.zeta.embed(vars5) - MultiSeries.variable(ZETA, vars5)
    F2 = g.w.embed(vars5) - MultiSeries.variable(WV, vars5)
    lam, om = solve_implicit([F1, F2], (Z, WV, ZETA), (XIB, ETAB))
    return AssociatedODE.from_phi(M.m, M.eps,
                                  g.wzz.compose({XIB: lam, ETAB: om}))


def closed_form_coeffs(M):
    """The eight coefficient series from the defining data directly.

    Independent of the elimination route: these come from matching powers
    in the identity satisfied along Segre graphs, with the sign mirrored
    through eps.  Each value is a series in w.
    """
    m, eps = M.m, M.eps
    ei = I if eps == 1 else -I

    def pkl(k, l):
        return M.phi_kl(k, l).rename({WB: WV})

    def wpow(k):
        return MultiSeries.monomial(ONE, (k,), (WV,), EXACT)

    p22, p23, p24 = pkl(2, 2), pkl(2, 3), pkl(2, 4)
    p32, p33, p34 = pkl(3, 2), pkl(3, 3), pkl(3, 4)
    p42, p43 = pkl(4, 2), pkl(4, 3)
    mm = GaussianRational.from_int(m - 1)

    a0 = wpow(m - 1) - p22.scale(2 * ei)
    a1 = -p32.scale(6 * ei)
    a2 = -p42.scale(12 * ei)
    b0 = -p23.scale(2)
    b1 = (-p33.scale(6) + (p22 * p22).scale(8)
          - (wpow(m - 1) * p22).scale(2 * ei * mm)
          + (wpow(m) * p22.diff(WV)).scale(2 * ei))
    b2 = (-p43.scale(12) + (p22 * p32).scale(36)
          - (wpow(m - 1) * p32).scale(6 * ei * mm)
          + (wpow(m) * p32.diff(WV)).scale(6 * ei))
    c0 = p24.scale(2 * ei)
    c1 = (p34.scale(6 * ei) - (p22 * p23).scale(20 * ei)
          + (wpow(m - 1) * p23).scale(4 - 4 * m)
          + (wpow(m) * p23.diff(WV)).scale(2))
    return {"a0": a0, "a1": a1, "a2": a2, "b0": b0, "b1": b1, "b2": b2,
            "c0": c0, "c1": c1}


def families_agree(f1, f2):
    """Exact coefficient-family equality on the common trusted window.

    Returns (ok, report) where report maps keys to the compared order or to
    the disagreeing difference.
    """
    ok = True
    report = {}
    for key in COEFF_KEYS:
        s1, s2 = f1[key], f2[key]
        k = min(s1.order, s2.order)
        d = s1.truncate(k) - s2.truncate(k)
        if d.is_zero():
            report[key] = ("agree", k)
        else:
            ok = False
            report[key] = ("differ", d)
    return ok, report
