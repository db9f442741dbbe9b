"""JSON interchange for all artifact values.

One format rule everywhere: exact rationals as "num/den" strings, never
floats, so symbolic payloads are byte-reproducible and round-trip to equal
in-memory values.  A term is [[e1,...,ek], re, im] with two extra strings
appended when the coefficient has sqrt2 components.  Numeric (monodromy)
payloads are the only place floats appear.

A series is read and written in its packed form (series.py): the reader
parses every string into integers over one common denominator, and the
writer reduces each packed component over the series' denominator by one
gcd, so no coefficient object is built at the file edge.  Terms are
written in exponent-tuple order, and a term of total degree 2**20 or more,
which the kernel's exponent fields cannot hold, is refused by the packing
itself, its SeriesError raised as a FormatError.

Every integer field (an m, sign, order, exponent or pole) is read by one
reader that takes a JSON integer only: a float, a bool or a numeric string
is refused with FormatError, never truncated.  A surface's m must be >= 1,
and a series' variables must be a list of distinct names.  A complex
surface's scale_sq, the squared rescale 1/|c|, must be positive, and a
system entry's wvar must be a string.

An exact order (EXACT, unbounded in memory) is written as EXACT_IN_FILE,
and any order of EXACT_IN_FILE or more is read back as exact.  So a writer
refuses a finite order of EXACT_IN_FILE or more with FormatError rather
than write a file its reader would take for exact.  A surface file may
declare no order above MAX_ORDER, an exact one included: the work of
every command grows with the order.  Nor may a system entry have a pole
or a term degree above MAX_ORDER in absolute value: the coefficient
tensor of `monodromy` grows with both.
"""

import functools
import json
from fractions import Fraction
from math import gcd, lcm

from .qfield import GaussianRational
from .series import (LaurentInW, EXACT, SeriesError, _exp_items, _pack,
                     _reduced)
from .surfaces import (RealDefining, ComplexDefining, split_admissible,
                       require_reality, Z, ZB, WB, U, W)
from .segre import AssociatedODE
from .prolongation import LinearODESystem
from .errors import FormatError

EXACT_IN_FILE = 10 ** 6  # the file encoding of an exact order
MAX_ORDER = 1000  # the highest surface order, |pole| or entry degree


def _rat(num, den):
    """num/den in lowest terms as a "num/den" string, den > 0."""
    g = gcd(num, den)
    return "%d/%d" % (num // g, den // g)


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
    """A "num/den" string as its integer pair; a zero den is refused."""
    num, den = s.split("/")
    num, den = int(num), int(den)
    if den == 0:
        raise ZeroDivisionError("zero denominator in %r" % s)
    return num, den


def _int(x):
    """A JSON integer; a float, bool or string is refused, not truncated."""
    if type(x) is not int:
        raise FormatError("expected an integer, got %r" % (x,))
    return x


def _order_from_json(x):
    order = _int(x)
    return EXACT if order >= EXACT_IN_FILE else order


def _order_to_json(order):
    if order == EXACT:
        return EXACT_IN_FILE
    if order >= EXACT_IN_FILE:
        raise FormatError("finite order %d has no file encoding: an order "
                          "of %d or more reads back as exact"
                          % (order, EXACT_IN_FILE))
    return order


def series_to_json(s):
    """Each coefficient as its re, im (and, when nonzero, re and im sqrt2)
    parts, each written from its packed integer over the series' den."""
    terms = []
    for e, t in sorted(_exp_items(s)):
        terms.append([list(e)] + [_rat(x, s.den)
                                  for x in (t if t[2] or t[3] else t[:2])])
    return {"vars": list(s.vars), "order": _order_to_json(s.order),
            "terms": terms}


@_reader("series")
def series_from_json(d):
    """Parsed straight into packed integers over one common denominator."""
    vars = d["vars"]
    if type(vars) is not list or not all(type(v) is str for v in vars) \
            or len(set(vars)) < len(vars):
        raise FormatError("variables %r are not a list of distinct names"
                          % (vars,))
    vars = tuple(vars)
    order = _order_from_json(d["order"])
    parts = {}
    for entry in d["terms"]:
        exps = tuple(_int(x) for x in entry[0])
        try:
            key = _pack(exps, len(vars))
        except SeriesError as err:
            raise FormatError("term %r: %s" % (exps, err)) from None
        if key in parts or sum(exps) > order:
            raise FormatError("term %r is repeated or above the order %s"
                              % (exps, order))
        if len(entry) not in (3, 5):
            raise FormatError("coefficient needs 2 or 4 rational strings")
        ps = [_unrat(p) for p in entry[1:]]
        parts[key] = ps + [(0, 1)] * (4 - len(ps))
    den = lcm(*(q for ps in parts.values() for _, q in ps))
    num = {}
    for e, ps in parts.items():
        t = tuple(n * (den // q) for n, q in ps)
        if any(t):
            num[e] = t
    return _reduced(vars, order, den, num)


def laurent_to_json(L):
    """Off the CLI path: the entries of system_to_json."""
    return {"pole": L.pole, "wvar": L.wvar, "body": series_to_json(L.body)}


def laurent_from_json(d):
    body, pole = series_from_json(d["body"]), _int(d["pole"])
    if max(abs(pole), body.max_degree()) > MAX_ORDER:
        raise FormatError("a system entry's pole or term degree is above "
                          "%d in absolute value" % MAX_ORDER)
    wvar = d.get("wvar", W)
    if type(wvar) is not str:
        raise FormatError("a system entry's wvar %r is not a variable name"
                          % (wvar,))
    return LaurentInW(body, pole, wvar)


def surface_to_json(M):
    if isinstance(M, ComplexDefining):
        out = {"form": "complex", "m": M.m, "sign": M.eps,
               "order": _order_to_json(M.order),
               "series": series_to_json(M.phi)}
        if M.scale_sq is not None:
            out["scale_sq"] = _rat(*M.scale_sq.as_integer_ratio())
        return out
    if isinstance(M, RealDefining):
        return {"form": "real", "m": M.m, "sign": M.eps,
                "order": _order_to_json(M.order),
                "series": series_to_json(M.psi)}
    raise FormatError("not a surface value: %r" % (M,))


@_reader("surface")
def surface_from_json(d):
    form, m, sign, order = (d["form"], _int(d["m"]), _int(d["sign"]),
                            _order_from_json(d["order"]))
    if m < 1 or sign not in (1, -1) or form not in ("complex", "real"):
        raise FormatError("need m >= 1, sign 1 or -1 and form complex or "
                          "real")
    if order > MAX_ORDER:
        raise FormatError("declared order %s is above the cap %d on a "
                          "surface's working order" % (d["order"], MAX_ORDER))
    real = form == "real"
    series = series_from_json(d["series"]).embed((Z, ZB, U if real else WB))
    # v = u^m psi is trusted m orders past psi
    shift = m if real else 0
    if order > series.order + shift:
        raise FormatError("declared order %d is above the order %d the %s "
                          "series holds" % (order, series.order + shift, form))
    lead, defects = split_admissible(series)
    if not lead == GaussianRational.from_int(sign if real else 1):
        defects.insert(0, "z*zb coefficient %r" % (lead,))
    if defects:
        raise FormatError("%s form is not admissible: %s"
                          % (form, "; ".join(defects)))
    series = series.truncate(order - shift)
    if real:
        return RealDefining(m, sign, series)
    scale_sq = Fraction(*_unrat(d["scale_sq"])) if "scale_sq" in d else None
    if scale_sq is not None and scale_sq <= 0:
        raise FormatError("scale_sq %s is not positive: it is the squared "
                          "rescale 1/|c|" % scale_sq)
    M = ComplexDefining(m, sign, series, scale_sq)
    require_reality(M)
    return M


def ode_to_json(E):
    return {"m": E.m, "sign": E.eps, "order": E.order,
            "Phi": series_to_json(E.Phi),
            "coeffs": {k: series_to_json(v) for k, v in E.coeffs.items()}}


@_reader("ODE")
def ode_from_json(d):
    """Off the CLI path: the benchmark's ODE reader."""
    Phi, order = series_from_json(d["Phi"]), _order_from_json(d["order"])
    if order > Phi.order:
        raise FormatError("declared order %s is above Phi's order %s"
                          % (order, Phi.order))
    return AssociatedODE.from_phi(_int(d["m"]), _int(d["sign"]),
                                  Phi.truncate(order))


def system_to_json(S):
    """Off the CLI path: writes the benchmark's monodromy inputs."""
    return {"n": S.n, "pole_order": S.pole_order, "unknown": S.unknown,
            "entries": [[laurent_to_json(e) for e in row]
                        for row in S.entries]}


@_reader("system")
def system_from_json(d):
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
