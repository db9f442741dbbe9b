"""JSON interchange for all artifact values.

One format rule everywhere: exact rationals as "num/den" strings, never
floats, so symbolic payloads are byte-reproducible and round-trip to equal
in-memory values.  A term is [[e1,...,ek], re, im] with two extra strings
appended when the coefficient has sqrt2 components.  Numeric (monodromy)
payloads are the only place floats appear.
"""

import json
from fractions import Fraction

from .qfield import GaussianRational
from .series import MultiSeries, LaurentInW
from .surfaces import (RealDefining, ComplexDefining, split_admissible, Z, ZB,
                       WB, U, W)
from .errors import FormatError


def _rat(f):
    f = Fraction(f)
    return "%d/%d" % (f.numerator, f.denominator)


def _unrat(s):
    try:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError("bad rational %r" % (s,)) from exc


def coeff_to_json(c):
    if c.is_gaussian():
        return [_rat(c.re), _rat(c.im)]
    return [_rat(c.re), _rat(c.im), _rat(c.re_sqrt2), _rat(c.im_sqrt2)]


def coeff_from_json(parts):
    if len(parts) == 2:
        re, im = parts
        r, i = _unrat(re), _unrat(im)
        return GaussianRational.of(r, i)
    if len(parts) == 4:
        r, i, r2, i2 = (_unrat(p) for p in parts)
        return (GaussianRational.of(r, i) +
                GaussianRational.of_sqrt2(r2, i2))
    raise FormatError("coefficient needs 2 or 4 rational strings")


def series_to_json(s):
    terms = []
    for e in sorted(s.terms):
        terms.append([list(e)] + coeff_to_json(s.terms[e]))
    return {"vars": list(s.vars), "order": s.order, "terms": terms}


def series_from_json(d):
    try:
        vars = tuple(d["vars"])
        order = int(d["order"])
        terms = {}
        for entry in d["terms"]:
            exps = tuple(int(x) for x in entry[0])
            if len(exps) != len(vars):
                raise FormatError("exponent length mismatch")
            terms[exps] = coeff_from_json(entry[1:])
        return MultiSeries(vars, order, terms)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("malformed series payload: %s" % exc) from exc


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
                "series": series_to_json(M.psi())}
    raise FormatError("not a surface value: %r" % (M,))


def surface_from_json(d):
    try:
        form = d["form"]
        m = int(d["m"])
        sign = int(d["sign"])
        order = int(d["order"])
        series = series_from_json(d["series"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("malformed surface payload: %s" % exc) from exc
    if sign not in (1, -1):
        raise FormatError("sign must be 1 or -1")
    if form == "complex":
        return ComplexDefining(m, sign, series.embed((Z, ZB, WB)), order,
                               scale_sq=(_unrat(d["scale_sq"])
                                         if "scale_sq" in d else None))
    if form == "real":
        lead, h, defects = split_admissible(series.embed((Z, ZB, U)))
        if not (lead == GaussianRational.from_int(sign)):
            raise FormatError("real form needs sign*z*zb leading term")
        if defects:
            raise FormatError("real form is not admissible: %s"
                              % "; ".join(defects))
        return RealDefining(m, sign, h, order)
    raise FormatError("unknown surface form %r" % (form,))


def ode_to_json(E):
    return {"m": E.m, "sign": E.eps, "order": E.order,
            "Phi": series_to_json(E.Phi),
            "coeffs": {k: series_to_json(v) for k, v in E.coeffs.items()}}


def ode_from_json(d):
    from .segre import AssociatedODE
    try:
        return AssociatedODE.from_phi(int(d["m"]), int(d["sign"]),
                                      series_from_json(d["Phi"]),
                                      int(d["order"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("malformed ODE payload: %s" % exc) from exc


def system_to_json(S):
    return {"n": S.n, "pole_order": S.pole_order, "unknown": S.unknown,
            "entries": [[laurent_to_json(e) for e in row]
                        for row in S.entries]}


def system_from_json(d):
    from .prolongation import LinearODESystem
    try:
        entries = [[laurent_from_json(e) for e in row]
                   for row in d["entries"]]
        return LinearODESystem(entries, unknown=d.get("unknown", "y"))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("malformed system payload: %s" % exc) from exc


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
    except json.JSONDecodeError as exc:
        raise FormatError("invalid JSON: %s" % exc) from exc
