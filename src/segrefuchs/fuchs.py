"""Fuchsian-type classification in all three equivalent forms.

The condition is a family of vanishing-order lower bounds: on the real
coefficient table h_kl, on the complex table phi_kl (same bounds), and on
the associated-ODE family a0..c1.  Each check produces a ledger of rows;
the verdict is non-fuchsian as soon as one row is violated, fuchsian when
every row is satisfied at the working order.

Each row states the order its series is trusted through.  h_kl and phi_kl
are read off the surface's one series, psi or phi, so both forms of a
surface of order N taken from the real form report N-m-k-l.  A coefficient
that vanishes identically to its available order satisfies any bound and
is marked vacuous: the order of a truncated series is only a lower bound,
so fuchsian verdicts are order-N-sound while non-fuchsian verdicts are
sound outright.  No row is ever marked undecidable; the
undecidable-at-order verdict (exit 2) is reserved.
"""

from .surfaces import Z, U, W, WB, require_min_order

REAL_BOUNDS = [((2, 2), "m-1"), ((2, 3), "2m-2"), ((3, 2), "2m-2"),
               ((3, 3), "2m-2"), ((2, 4), "3m-3"), ((4, 2), "3m-3"),
               ((3, 4), "3m-3"), ((4, 3), "3m-3")]

ODE_BOUNDS = [("a0", "m-1"), ("a1", "m-1"), ("a2", "m-1"),
              ("b0", "2m-2"), ("b1", "2m-2"), ("b2", "2m-2"),
              ("c0", "3m-3"), ("c1", "3m-3")]

FUCHSIAN, NON_FUCHSIAN, UNDECIDABLE = ("fuchsian", "non-fuchsian",
                                       "undecidable-at-order")


def _bound(expr, m):
    k = {"m-1": m - 1, "2m-2": 2 * m - 2, "3m-3": 3 * m - 3}[expr]
    return max(k, 0)


class FuchsRow:
    """One required inequality: measured vanishing order vs its bound.

    A series that vanishes identically to its available order satisfies any
    bound and is marked vacuous: the vanishing order of a truncated series
    is a lower bound only, so fuchsian verdicts are order-N-sound while
    non-fuchsian ones are sound outright.
    """

    def __init__(self, name, bound_expr, bound, measured, available):
        self.name = name
        self.bound_expr = bound_expr
        self.bound = bound
        self.measured = measured      # int, or None when zero-to-available
        self.available = available    # trusted order of the series
        if measured is not None:
            self.status = "satisfied" if measured >= bound else "violated"
        else:
            self.status = "vacuous"

    def as_dict(self):
        return {"name": self.name, "bound": self.bound,
                "bound_expr": self.bound_expr,
                "measured_order": self.measured,
                "available_order": self.available, "status": self.status}


class FuchsReport:
    def __init__(self, m, rows, form):
        self.m = m
        self.rows = rows
        self.form = form
        if any(r.status == "violated" for r in rows):
            self.verdict = NON_FUCHSIAN
        elif any(r.status == "undecidable" for r in rows):
            self.verdict = UNDECIDABLE
        else:
            self.verdict = FUCHSIAN

    def witnesses(self):
        return [r for r in self.rows if r.status == "violated"]

    def as_dict(self):
        return {"form": self.form, "m": self.m, "verdict": self.verdict,
                "rows": [r.as_dict() for r in self.rows]}


def _series_order_row(name, expr, series, var, m):
    measured = None if series.is_zero() else series.var_valuation(var)
    return FuchsRow(name, expr, _bound(expr, m), measured, series.order)


def _table_ledger(M, prefix, kl_series, var, form):
    """Ledger of the REAL_BOUNDS rows over a coefficient table in var."""
    require_min_order(M)
    rows = [_series_order_row("%s%d%d" % (prefix, k, l), expr,
                              kl_series(k, l), var, M.m)
            for (k, l), expr in REAL_BOUNDS]
    return FuchsReport(M.m, rows, form=form)


def check_fuchsian_real(M):
    """Ledger over the h_kl table of a RealDefining surface."""
    return _table_ledger(M, "h", M.h_kl, U, "real")


def check_fuchsian_complex(M):
    """Ledger over the phi_kl table of a ComplexDefining surface."""
    return _table_ledger(M, "phi", M.phi_kl, WB, "complex")


def check_fuchsian_ode(E):
    """Ledger over the coefficient family of an AssociatedODE.

    Equivalent to pole bounds (-1, -2, -3) on the meromorphic a, b, c and
    their z-derivative rows; those are reported alongside.
    """
    rows = []
    fam = E.coeffs
    for key, expr in ODE_BOUNDS:
        rows.append(_series_order_row(key, expr, fam[key], W, E.m))
    return FuchsReport(E.m, rows, form="ode")


def mero_pole_rows(E):
    """Pole-order view: ord a(0,w) >= -1, b >= -2, c >= -3 with z-rows.

    Off the CLI path: oracle of the ODE ledger.
    """
    out = []
    for which, bound in (("a", 1), ("b", 2), ("c", 3)):
        mero = E.mero(which)
        nder = 2 if which in ("a", "b") else 1
        cur = mero
        for d in range(nder + 1):
            slice0 = cur.body.coeff_of({Z: 0})
            if slice0.is_zero():
                pole = None
            else:
                pole = cur.pole - slice0.var_valuation(W)
            out.append({"name": "%s%s(0,w)" % (which, "_z" * d),
                        "pole": pole, "bound": bound,
                        "ok": pole is None or pole <= bound})
            cur = cur.diff(Z)
    return out
