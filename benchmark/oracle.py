"""Untimed checks of the program's payloads, and the coefficient-size ledger.

Each check reads only files: the generated input, the payload under test
and, for symmetries, the ODE payload the same sample emitted.  The exact
checks reuse segrefuchs' parsers and its tangency residual, but across
commands (the fields of `symmetries` against the ODE of `derive-ode`); the
numeric checks use oracles computed here with numpy.
"""

import json
from fractions import Fraction

import numpy as np

EXPM_TOL = 1e-8
LIOUVILLE_TOL = 1e-6


def expm(A):
    """Matrix exponential by scaling and squaring of the Taylor series."""
    A = np.asarray(A, dtype=complex)
    k = max(int(np.ceil(np.log2(max(1.0, np.linalg.norm(A, np.inf))))) + 4,
            0)
    B = A / 2 ** k
    E = np.eye(len(A), dtype=complex)
    term = np.eye(len(A), dtype=complex)
    for j in range(1, 25):
        term = term @ B / j
        E = E + term
    for _ in range(k):
        E = E @ E
    return E


def _matrix(payload):
    return np.array([[complex(re, im) for re, im in row]
                     for row in payload["matrix"]])


def _coefficient(parts):
    """Complex value of a serialized coefficient (2 or 4 rational strings)."""
    x = [float(Fraction(p)) for p in parts]
    value = complex(x[0], x[1])
    if len(x) == 4:
        value += 2 ** 0.5 * complex(x[2], x[3])
    return value


def _residue_trace(system):
    """Coefficient of 1/w in the trace of C(w), from the exact entries."""
    return sum(_coefficient(term[1:])
               for i, row in enumerate(system["entries"])
               for term in row[i]["body"]["terms"]
               if term[0] == [row[i]["pole"] - 1])


def check_monodromy(sample, payload):
    M = _matrix(payload)
    sign = -1 if sample["reverse"] else 1
    if sample["oracle"] == "expm":
        A = np.array([[float(Fraction(x)) for x in row]
                      for row in sample["A"]])
        err = float(np.max(np.abs(M - expm(sign * 2j * np.pi * A))))
        return err < EXPM_TOL, "|M - exp(2 pi i A)| = %.2e" % err
    # Liouville: det M = exp(2 pi i Res_0 tr C) for a loop around w = 0
    with open(sample["input"]) as f:
        res = _residue_trace(json.load(f))
    want = np.exp(sign * 2j * np.pi * res)
    err = abs(np.linalg.det(M) - want) / max(1.0, abs(want))
    return err < LIOUVILLE_TOL, "det M vs Liouville: rel err %.2e" % err


def _residual_zero(field, E):
    from segrefuchs import serialize
    from segrefuchs.prolongation import VectorField, tangency_residual
    L = VectorField(serialize.series_from_json(field["P"]),
                    serialize.series_from_json(field["Q"]))
    return tangency_residual(L, E).is_zero()


def check_surface_op(sample, command, payload, ode_payload):
    """(ok, note) for one surface command's payload."""
    if command == "verify":
        rep = payload["report"]
        ok = all(rep[k] for k in ("normal_coordinates", "m_admissible",
                                  "reality_ok", "levi_nondegenerate_off_X"))
        return ok, "validation flags %s" % sorted(rep.items())
    if command == "derive-ode":
        return payload["oracle_agreement"] is True, "oracle_agreement"
    if command == "check-fuchsian":
        want = "fuchsian" if sample["fuchsian"] else "non-fuchsian"
        ok = payload["verdict"] == want
        if not sample["fuchsian"]:
            ok = ok and any(r["name"] == "h22" and r["status"] == "violated"
                            for r in payload["rows"])
        return ok, "verdict %s" % payload["verdict"]
    if command == "symmetries":
        if not sample["fuchsian"]:
            return ("refused" in payload and
                    payload["ledger_row"]["status"] == "violated"), "refusal"
        if ode_payload is None:
            return False, "no ODE payload to check the fields against"
        from segrefuchs import serialize
        E = serialize.ode_from_json(ode_payload)
        fields = payload["fields"] + payload.get("real_form", [])
        ok = (payload["dimension"] == len(payload["fields"]) and
              all(f.get("residual_zero", True) for f in payload["fields"]) and
              all(_residual_zero(f, E) for f in fields))
        # model and h22 surfaces have symmetries; the sqrt2 surface must
        # reach the dropped-candidate path
        if sample["symmetric"]:
            ok = ok and payload["dimension"] >= 1 and \
                len(payload["real_form"]) >= 1
        elif sample["label"].startswith("sqrt2"):
            ok = ok and payload["dropped_candidates"] >= 1
        return ok, "%d fields with zero tangency residual" % len(fields)
    if command == "blowup":
        ok = (2 <= payload["s"] <= 4 and payload["m_star"] >= 1 and
              len(payload["defining"]["terms"]) > 0)
        return ok, "s = %s, m* = %s" % (payload["s"], payload["m_star"])
    return False, "unknown command %s" % command


def coefficient_sizes(payloads):
    """Largest numerator and denominator bit sizes over every exact
    coefficient of the payloads, and the share of coefficients with a
    sqrt2 component."""
    num_bits = den_bits = 0
    total = with_sqrt2 = 0

    def walk(obj):
        nonlocal num_bits, den_bits, total, with_sqrt2
        if isinstance(obj, dict):
            if "terms" in obj and "vars" in obj:
                for term in obj["terms"]:
                    parts = term[1:]
                    total += 1
                    with_sqrt2 += len(parts) == 4
                    for p in parts:
                        num, den = p.split("/")
                        num_bits = max(num_bits, abs(int(num)).bit_length())
                        den_bits = max(den_bits, int(den).bit_length())
            else:
                for v in obj.values():
                    walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)

    for p in payloads:
        walk(p)
    return {"qfield.num_bits.max": num_bits,
            "qfield.den_bits.max": den_bits,
            "qfield.sqrt2_share": with_sqrt2 / total if total else 0.0}
