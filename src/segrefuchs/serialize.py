"""JSON interchange for all artifact values.

One format rule everywhere: exact rationals as "num/den" strings, never
floats, so symbolic payloads are byte-reproducible and round-trip to equal
in-memory values.  A term is [[e1,...,ek], re, im] with two extra strings
appended when the coefficient has sqrt2 components.  Numeric (monodromy)
payloads are the only place floats appear.

An exact order (EXACT, unbounded in memory) is written as EXACT_IN_FILE,
and any order of EXACT_IN_FILE or more is read back as exact.
"""

import functools
import json
from fractions import Fraction

from .qfield import GaussianRational
from .series import MultiSeries, LaurentInW, EXACT
from .surfaces import (RealDefining, ComplexDefining, split_admissible,
                       require_reality, Z, ZB, WB, U, W)
from .errors import FormatError

EXACT_IN_FILE = 10 ** 6  # the file encoding of an exact order


def _rat(f):
    f = Fraction(f)
    return "%d/%d" % (f.numerator, f.denominator)


def _reader(what):
    """The one parse guard: a payload leaf of the wrong type or value is a
    FormatError naming the payload."""
    def wrap(read):
        @functools.wraps(read)
        def guarded(d):
            try:
                return read(d)
            except (ArithmeticError, AttributeError, IndexError, KeyError,
                    TypeError, ValueError) as exc:
                raise FormatError("malformed %s payload: %s"
                                  % (what, exc)) from exc
        return guarded
    return wrap


def _unrat(s):
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def _order_from_json(x):
    order = int(x)
    return EXACT if order >= EXACT_IN_FILE else order


def coeff_to_json(c):
    if c.is_gaussian():
        return [_rat(c.re), _rat(c.im)]
    return [_rat(c.re), _rat(c.im), _rat(c.re_sqrt2), _rat(c.im_sqrt2)]


def coeff_from_json(parts):
    if len(parts) == 2:
        return GaussianRational.of(*(_unrat(p) for p in parts))
    if len(parts) == 4:
        r, i, r2, i2 = (_unrat(p) for p in parts)
        return (GaussianRational.of(r, i) +
                GaussianRational.of_sqrt2(r2, i2))
    raise FormatError("coefficient needs 2 or 4 rational strings")


def series_to_json(s):
    terms = []
    for e in sorted(s.terms):
        terms.append([list(e)] + coeff_to_json(s.terms[e]))
    order = EXACT_IN_FILE if s.order == EXACT else s.order
    return {"vars": list(s.vars), "order": order, "terms": terms}


@_reader("series")
def series_from_json(d):
    vars = tuple(d["vars"])
    order = _order_from_json(d["order"])
    terms = {}
    for entry in d["terms"]:
        exps = tuple(int(x) for x in entry[0])
        if len(exps) != len(vars) or min(exps, default=0) < 0:
            raise FormatError("exponents %r do not match the variables %r"
                              % (exps, vars))
        if exps in terms or sum(exps) > order:
            raise FormatError("term %r is repeated or above the order %s"
                              % (exps, order))
        terms[exps] = coeff_from_json(entry[1:])
    return MultiSeries(vars, order, terms)


def laurent_to_json(L):
    return {"pole": L.pole, "wvar": L.wvar, "body": series_to_json(L.body)}


def laurent_from_json(d):
    return LaurentInW(series_from_json(d["body"]), int(d["pole"]),
                      d.get("wvar", W))


def surface_to_json(M):
    if isinstance(M, ComplexDefining):
        out = {"form": "complex", "m": M.m, "sign": M.eps,
               "order": M.order, "series": series_to_json(M.phi)}
        if M.scale_sq is not None:
            out["scale_sq"] = _rat(M.scale_sq)
        return out
    if isinstance(M, RealDefining):
        return {"form": "real", "m": M.m, "sign": M.eps, "order": M.order,
                "series": series_to_json(M.psi)}
    raise FormatError("not a surface value: %r" % (M,))


@_reader("surface")
def surface_from_json(d):
    form, m, sign, order = (d["form"], int(d["m"]), int(d["sign"]),
                            _order_from_json(d["order"]))
    if sign not in (1, -1) or form not in ("complex", "real"):
        raise FormatError("need sign 1 or -1 and form complex or real")
    if order == EXACT:
        raise FormatError("declared order %s means exact; a surface needs a "
                          "finite working order" % d["order"])
    real = form == "real"
    series = series_from_json(d["series"]).embed((Z, ZB, U if real else WB))
    # v = u^m psi is trusted m orders past psi
    shift = m if real else 0
    if order > series.order + shift:
        raise FormatError("declared order %d is above the order %d the %s "
                          "series holds" % (order, series.order + shift, form))
    lead, _, defects = split_admissible(series)
    if not lead == GaussianRational.from_int(sign if real else 1):
        defects.insert(0, "z*zb coefficient %r" % (lead,))
    if defects:
        raise FormatError("%s form is not admissible: %s"
                          % (form, "; ".join(defects)))
    series = series.truncate(order - shift)
    if real:
        M = RealDefining(m, sign, series)
    else:
        scale_sq = _unrat(d["scale_sq"]) if "scale_sq" in d else None
        M = ComplexDefining(m, sign, series, scale_sq)
    require_reality(M)
    return M


def ode_to_json(E):
    return {"m": E.m, "sign": E.eps, "order": E.order,
            "Phi": series_to_json(E.Phi),
            "coeffs": {k: series_to_json(v) for k, v in E.coeffs.items()}}


@_reader("ODE")
def ode_from_json(d):
    from .segre import AssociatedODE
    Phi, order = series_from_json(d["Phi"]), _order_from_json(d["order"])
    if order > Phi.order:
        raise FormatError("declared order %s is above Phi's order %s"
                          % (order, Phi.order))
    return AssociatedODE.from_phi(int(d["m"]), int(d["sign"]),
                                  Phi.truncate(order))


def system_to_json(S):
    return {"n": S.n, "pole_order": S.pole_order, "unknown": S.unknown,
            "entries": [[laurent_to_json(e) for e in row]
                        for row in S.entries]}


@_reader("system")
def system_from_json(d):
    from .prolongation import LinearODESystem
    entries = [[laurent_from_json(e) for e in row] for row in d["entries"]]
    if not entries or any(len(row) != len(entries) for row in entries):
        raise FormatError("system entries are not a nonempty square matrix")
    return LinearODESystem(entries, unknown=d.get("unknown", "y"))


def basis_to_json(basis, real_fields=None):
    out = {
        "dimension": basis.dimension,
        "order": basis.order,
        "fields": [{"P": series_to_json(L.P), "Q": series_to_json(L.Q),
                    "residual_zero": cert.is_zero(),
                    "diagnostic": diag.as_dict()}
                   for L, cert, diag in zip(basis.fields, basis.certificates,
                                            basis.diagnostics)],
        "log_obstructions": [list(x) for x in basis.log_obstructions],
        "dropped_candidates": len(basis.dropped),
        "bracket_closure_defect": basis.bracket_closure_defect(),
    }
    if real_fields is not None:
        out["real_form"] = [{"P": series_to_json(L.P),
                             "Q": series_to_json(L.Q)}
                            for L in real_fields]
    return out


def dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def loads(text):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError("invalid JSON: %s" % exc) from exc
