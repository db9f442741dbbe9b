import copy
import json
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from segrefuchs import cli, serialize
from segrefuchs.cli import main, build_parser, EXIT_OK, EXIT_NON_FUCHSIAN, \
    EXIT_REFUSED, EXIT_ORDER, EXIT_REALITY, EXIT_NUMERIC, EXIT_FORMAT, \
    EXIT_DOMAIN
from segrefuchs.monodromy import LoopSpec
from segrefuchs.qfield import GaussianRational, ONE, I, qi
from segrefuchs.series import MultiSeries, LaurentInW, EXACT
from segrefuchs.prolongation import LinearODESystem
from segrefuchs.segre import eliminate
from segrefuchs.errors import FormatError
from segrefuchs import surfaces
from segrefuchs.surfaces import (build_real, build_complex, real_to_complex,
                                 ComplexDefining, RealDefining,
                                 admissible_series, check_reality,
                                 split_admissible, Z, ZB, WB)
from reference import (SQRT2_TABLE, const_system, dense_surface,
                       expm_oracle, kl_table)


@pytest.fixture
def model_file(tmp_path):
    M = build_complex(1, 1, {}, 12)
    p = tmp_path / "model.json"
    p.write_text(serialize.dumps(serialize.surface_to_json(M)))
    return str(p)


@pytest.fixture
def nonfuchs_file(tmp_path):
    B = build_real(2, 1, {(2, 2): MultiSeries.const(1, ("u",))}, 12)
    p = tmp_path / "nf.json"
    p.write_text(serialize.dumps(serialize.surface_to_json(B)))
    return str(p)


# ---- serialization round trips ----------------------------------------------

def test_series_roundtrip_bit_exact():
    rng = random.Random(11)
    terms = {}
    for _ in range(8):
        e = (rng.randint(0, 4), rng.randint(0, 4))
        terms[e] = GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9),
                                    rng.randint(-9, 9), rng.randint(-9, 9),
                                    rng.randint(1, 9))
    s = MultiSeries(("z", "w"), 9, terms)
    j = serialize.series_to_json(s)
    s2 = serialize.series_from_json(json.loads(json.dumps(j)))
    assert s2 == s
    # byte-identical re-serialization
    assert serialize.dumps(j) == serialize.dumps(serialize.series_to_json(s2))


def test_exact_series_roundtrip_as_order_1000000():
    s = MultiSeries.monomial(qi(1, 2), (1, 1), ("z", "w"))
    j = serialize.series_to_json(s)
    assert j["order"] == 1000000
    text = serialize.dumps(j)
    s2 = serialize.series_from_json(json.loads(text))
    assert s2.order == EXACT and s2 == s
    assert serialize.dumps(serialize.series_to_json(s2)) == text
    # any order of 1000000 or more in a file is exact, and only those
    assert serialize.series_from_json(dict(j, order=10 ** 7)).order == EXACT
    assert serialize.series_from_json(dict(j, order=999999)).order == 999999


def test_writers_refuse_an_order_their_reader_takes_for_exact():
    """psi = z*zb trusted through 999999 gives a real m=1 surface of order
    1000000, which a file can only spell as exact."""
    psi = MultiSeries.monomial(ONE, (1, 1, 0), ("z", "zb", "u"), 999999)
    assert serialize.series_to_json(psi)["order"] == 999999
    M = RealDefining(1, 1, psi)
    assert M.order == 1000000
    with pytest.raises(FormatError):
        serialize.surface_to_json(M)
    with pytest.raises(FormatError):
        serialize.series_to_json(psi.monomial_mul("z", 1))


def test_a_surface_file_declares_at_most_max_order():
    """A declared order above MAX_ORDER is refused at load, before the
    series is read; MAX_ORDER itself loads."""
    for form, v, shift in (("complex", "wb", 0), ("real", "u", 1)):
        d = {"form": form, "m": 1, "sign": 1, "order": serialize.MAX_ORDER,
             "series": serialize.series_to_json(MultiSeries.monomial(
                 ONE, (1, 1, 0), ("z", "zb", v), serialize.MAX_ORDER - shift))}
        assert serialize.surface_from_json(d).order == serialize.MAX_ORDER
        d["order"] += 1
        d["series"] = None
        with pytest.raises(FormatError, match="above the cap 1000"):
            serialize.surface_from_json(d)


def test_surface_roundtrip_both_forms():
    u = MultiSeries.variable("u", ("u",))
    for Mr in (build_real(2, -1, {(2, 2): u}, 12), build_real(1, 1, {}, 12),
               dense_surface()):
        d = serialize.surface_to_json(Mr)
        # psi is written at the order it holds: the surface's order less m
        assert d["order"] == 12 and d["series"]["order"] == 12 - Mr.m
        Mr2 = serialize.surface_from_json(d)
        assert (Mr2.m, Mr2.eps, Mr2.order) == (Mr.m, Mr.eps, 12)
        assert Mr2.psi == Mr.psi and Mr2.h_kl(2, 2) == Mr.h_kl(2, 2)
        assert serialize.dumps(serialize.surface_to_json(Mr2)) == \
            serialize.dumps(d)
        Mc = real_to_complex(Mr)
        d2 = serialize.surface_to_json(Mc)
        Mc2 = serialize.surface_from_json(d2)
        assert Mc2.phi == Mc.phi and Mc2.scale_sq == Mc.scale_sq


def test_system_roundtrip(tmp_path):
    d = serialize.system_to_json(const_system([[qi(Fraction(1, 2))]], 10))
    S2 = serialize.system_from_json(d)
    assert S2.pole_order == 1
    assert serialize.dumps(serialize.system_to_json(S2)) == serialize.dumps(d)


# ---- commands ------------------------------------------------------------------

def test_derive_ode_model(model_file, tmp_path, capsys):
    out = str(tmp_path / "ode.json")
    rc = main(["derive-ode", model_file, "-o", out])
    assert rc == EXIT_OK
    d = json.loads(Path(out).read_text())
    assert d["oracle_agreement"] is True
    assert d["Phi"]["terms"] == [[[0, 1, 2], "1/1", "0/1"]]
    # emitted ODE re-parses to an equal value
    E2 = serialize.ode_from_json(d)
    assert serialize.dumps(serialize.ode_to_json(E2)) == \
        serialize.dumps({k: v for k, v in d.items()
                         if k not in ("oracle_agreement", "oracle_report")})


def test_check_fuchsian_exit_codes(model_file, nonfuchs_file, capsys):
    assert main(["check-fuchsian", model_file]) == EXIT_OK
    capsys.readouterr()
    assert main(["check-fuchsian", nonfuchs_file]) == EXIT_NON_FUCHSIAN
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "non-fuchsian"
    assert any(r["status"] == "violated" for r in rep["rows"])


def test_check_fuchsian_vacuous_rows(tmp_path, capsys):
    M = build_real(2, 1, {}, 8)
    p = tmp_path / "zero.json"
    p.write_text(serialize.dumps(serialize.surface_to_json(M)))
    assert main(["check-fuchsian", str(p)]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert all(r["status"] == "vacuous" for r in rep["rows"])


def test_symmetries_refusal_and_success(model_file, nonfuchs_file, tmp_path,
                                        capsys):
    assert main(["symmetries", nonfuchs_file]) == EXIT_REFUSED
    refusal = json.loads(capsys.readouterr().out)
    assert refusal["ledger_row"]["name"] in ("phi22", "h22")
    out = str(tmp_path / "sym.json")
    assert main(["symmetries", model_file, "--real-form", "-o", out]) == \
        EXIT_OK
    d = json.loads(Path(out).read_text())
    assert d["dimension"] >= 2
    assert all(f["residual_zero"] for f in d["fields"])
    assert all(f["diagnostic"]["verdict"] != "growth-unbounded"
               for f in d["fields"])
    assert len(d["real_form"]) == 2


def test_blowup_commands(model_file, tmp_path, capsys):
    out = str(tmp_path / "star.json")
    assert main(["blowup", model_file, "--blowup", "s=2,l=2", "-o", out]) == \
        EXIT_OK
    d = json.loads(Path(out).read_text())
    assert d["m_star"] == 5
    assert main(["blowup", model_file, "--auto", "5", "-o", out]) == EXIT_OK
    assert json.loads(Path(out).read_text())["s"] == 2
    # empty search range: structured none-branch with a domain exit code
    from segrefuchs.cli import EXIT_DOMAIN
    for auto in ("1", "0"):
        capsys.readouterr()
        assert main(["blowup", model_file, "--auto", auto, "-o", out]) == \
            EXIT_DOMAIN
        assert json.loads(Path(out).read_text()) == \
            {"found": None, "diagnostics": []}
        assert capsys.readouterr().err == \
            "blowup: --auto %s leaves the search empty; it starts at " \
            "s = 2\n" % auto


@pytest.mark.parametrize("form,N,held", [
    ("complex", 5, 5), ("complex", 6, None), ("real", 5, 4),
    ("real", 6, 5), ("real", 7, None)])
def test_m1_blowup_needs_complex_order_6(form, N, held, tmp_path, capsys):
    """At m = 1 the pullback degenerates below complex order 6, one above
    the 3m+2 floor, so real inputs need order 7; the refusal (exit 11)
    names the complex order it holds."""
    build = build_real if form == "real" else build_complex
    p = tmp_path / "m1.json"
    p.write_text(serialize.dumps(serialize.surface_to_json(
        build(1, 1, {}, N))))
    for option in (["--auto", "4"], ["--blowup", "s=2"]):
        capsys.readouterr()
        code = main(["blowup", str(p), "-o", str(tmp_path / "out.json")]
                    + option)
        if held is None:
            assert code == EXIT_OK
        else:
            assert code == EXIT_ORDER
            assert capsys.readouterr().err == "OrderTooLowError: pullback " \
                "degenerated: every substituted term vanishes at complex " \
                "order %d\n" % held


def test_blowup_above_max_order_is_refused(tmp_path, capsys):
    """The pullback exponent of the sqrt2 rung has order 18 + l at m = 2:
    l = 983 puts it past MAX_ORDER, and l = 10**9 is refused as fast, with
    exit 14 and an empty output; l = 982 runs."""
    p = tmp_path / "sqrt2.json"
    p.write_text(serialize.dumps(serialize.surface_to_json(
        build_real(2, 1, SQRT2_TABLE, 20))))
    out = tmp_path / "out.json"
    for l in (983, 10 ** 9):
        capsys.readouterr()
        assert main(["blowup", str(p), "--blowup", "s=1,l=%d" % l,
                     "-o", str(out)]) == EXIT_DOMAIN
        assert capsys.readouterr().err == "SegrefuchsError: the pullback " \
            "exponent would have order %d; the highest supported order is " \
            "1000\n" % (18 + l)
        assert not out.exists()
    assert main(["blowup", str(p), "--blowup", "s=1,l=982",
                 "-o", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["defining"]["order"] == 1001


def test_blowup_s_above_max_order_is_refused(tmp_path, capsys):
    """The pulled-back leading term xi xib eta^s etab^s has degree 2s + 2,
    which no surface file reaches past MAX_ORDER: s = 500 and s = 2**20 - 1,
    whose degree the exponent fields could not hold, are refused with
    exit 14 and an empty output before any series work, while s = 499
    degenerates at the sqrt2 rung's complex order 18 (exit 11)."""
    p = tmp_path / "sqrt2.json"
    p.write_text(serialize.dumps(serialize.surface_to_json(
        build_real(2, 1, SQRT2_TABLE, 20))))
    out = tmp_path / "out.json"
    assert main(["blowup", str(p), "--blowup", "s=499",
                 "-o", str(out)]) == EXIT_ORDER
    assert capsys.readouterr().err == "OrderTooLowError: pullback " \
        "degenerated: every substituted term vanishes at complex order 18\n"
    for s in (500, 2 ** 20 - 1):
        assert main(["blowup", str(p), "--blowup", "s=%d" % s,
                     "-o", str(out)]) == EXIT_DOMAIN
        assert capsys.readouterr().err == "SegrefuchsError: the pulled-back " \
            "leading term would have degree %d; the highest supported order " \
            "is 1000\n" % (2 * s + 2)
        assert not out.exists()


def test_blowup_l_above_max_order_is_refused(model_file, tmp_path, capsys):
    """At m = 1 the pullback exponent's order N + l(m-1) does not involve
    l, so the substitution w = eta^l, of degree l, is capped on its own:
    l = 1001 and l = 2**20, whose degree the exponent fields could not
    hold, exit 14 with an empty output before any series work; l = 1000
    runs."""
    out = tmp_path / "out.json"
    for l in (1001, 2 ** 20):
        capsys.readouterr()
        assert main(["blowup", model_file, "--blowup", "s=1,l=%d" % l,
                     "-o", str(out)]) == EXIT_DOMAIN
        assert capsys.readouterr().err == "SegrefuchsError: the " \
            "substitution w = eta^l would have degree %d; the highest " \
            "supported order is 1000\n" % l
        assert not out.exists()
    assert main(["blowup", model_file, "--blowup", "s=1,l=1000",
                 "-o", str(out)]) == EXIT_OK
    d = json.loads(out.read_text())
    assert (d["m_star"], d["defining"]["order"]) == (3, 13)


def test_monodromy_command_and_reverse(tmp_path, capsys):
    S = const_system([[qi(Fraction(1, 2))]], 10)
    p = tmp_path / "sys.json"
    p.write_text(serialize.dumps(serialize.system_to_json(S)))
    assert main(["monodromy", str(p), "--tol", "1e-9"]) == EXIT_OK
    fwd = json.loads(capsys.readouterr().out)
    assert main(["monodromy", str(p), "--tol", "1e-9", "--reverse"]) == \
        EXIT_OK
    rev = json.loads(capsys.readouterr().out)
    mf = complex(*fwd["matrix"][0][0])
    mr = complex(*rev["matrix"][0][0])
    assert abs(mf * mr - 1.0) < 1e-7
    assert abs(mf + 1.0) < 1e-7


def _refused_as_not_finite(S, options, tmp_path, capsys):
    """monodromy on S exits 14 naming a run that is not finite, with no
    numpy warning and no output."""
    p, out = tmp_path / "sys.json", tmp_path / "out.json"
    p.write_text(serialize.dumps(serialize.system_to_json(S)))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["monodromy", str(p), "-o", str(out)] + options) == \
            EXIT_DOMAIN
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()
    cap = capsys.readouterr()
    assert cap.out == ""
    assert "run of 256 steps" in cap.err and "not finite" in cap.err
    assert "RuntimeWarning" not in cap.err


def test_monodromy_refuses_a_loop_whose_coefficients_are_not_finite(
        tmp_path, capsys):
    """At |w| = 1e-200, w**2 underflows to 0, so C(w) / w^2 is not finite:
    inf and NaN survive every product, so the first run's result is not
    finite either, and that run's check refuses the loop, with no numpy
    warning."""
    ent = [[LaurentInW(MultiSeries.const(qi(Fraction(1, 2)), ("w",), 10),
                       2, "w")]]
    _refused_as_not_finite(LinearODESystem(ent, unknown="y"),
                           ["--radius", "1e-200"], tmp_path, capsys)


def test_monodromy_refuses_a_run_whose_result_is_not_finite(tmp_path,
                                                            capsys):
    """C = 10^200 / w is finite on the loop, but the RK4 products of its
    first run overflow: refused at once, not run to the step budget, with
    no numpy warning."""
    _refused_as_not_finite(const_system([[qi(10 ** 200)]], 10), [],
                           tmp_path, capsys)


def test_monodromy_option_defaults_are_those_of_loop_spec():
    args = build_parser().parse_args(["monodromy", "system.json"])
    loop = LoopSpec()
    assert (args.radius, args.trusted_radius, args.steps, args.tol) == \
        (loop.radius, loop.trusted_radius, loop.steps, loop.tol)
    assert (-1 if args.reverse else 1) == loop.direction


def _refuse_constant(name):
    raise ValueError("not RFC 8259 JSON: %s" % name)


def test_monodromy_payload_is_strict_json(tmp_path, capsys):
    """A loop radius >= 1 has no finite tail bound: null, not Infinity."""
    p = tmp_path / "sys.json"
    p.write_text(serialize.dumps(serialize.system_to_json(
        const_system([[qi(Fraction(1, 2))]], 10))))
    assert main(["monodromy", str(p), "--radius", "1.5",
                 "--trusted-radius", "2"]) == EXIT_OK
    d = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert d["tail_estimate"] is None
    assert abs(complex(*d["matrix"][0][0]) + 1.0) < 1e-7


def test_error_exit_codes(model_file, tmp_path, capsys):
    assert main(["derive-ode", model_file, "--order", "3"]) == EXIT_ORDER
    assert main(["verify", str(tmp_path / "missing.json")]) == EXIT_FORMAT
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == EXIT_FORMAT
    # perturbed non-real surface: distinct reality-violation code
    M = build_complex(2, 1, {}, 12)
    pert = ComplexDefining(
        2, 1, M.phi + MultiSeries.monomial(I, (2, 2, 1), (Z, ZB, WB)))
    p = tmp_path / "pert.json"
    p.write_text(serialize.dumps(serialize.surface_to_json(pert)))
    assert main(["derive-ode", str(p)]) == EXIT_REALITY
    assert main(["verify", str(p)]) == EXIT_REALITY
    # no z*zb term: not admissible, refused at load
    flat = ComplexDefining(1, 1, MultiSeries.monomial(ONE, (2, 2, 0),
                                                      (Z, ZB, WB), 8))
    p = tmp_path / "flat.json"
    p.write_text(serialize.dumps(serialize.surface_to_json(flat)))
    assert main(["derive-ode", str(p)]) == EXIT_FORMAT


def test_order_can_only_lower_the_input(model_file, tmp_path, capsys):
    # an order-4 table below the 3m+2 = 5 floor: asking for more order
    # than the file holds must not skip the floor
    M = build_real(1, 1, {(2, 2): {(0,): qi(1)}}, 4)
    p = tmp_path / "low.json"
    p.write_text(serialize.dumps(serialize.surface_to_json(M)))
    assert main(["derive-ode", str(p)]) == EXIT_ORDER
    for command in ("derive-ode", "verify", "symmetries"):
        assert main([command, str(p), "--order", "9"]) == EXIT_ORDER
    assert main(["verify", model_file, "--order", "13"]) == EXIT_ORDER
    # a real m=2 file at order 8 = 3m+2 has a complex form trusted through
    # order 6 only: naming the file's own order must not skip the floor
    M = build_real(2, 1, {}, 8)
    p = tmp_path / "floor.json"
    p.write_text(serialize.dumps(serialize.surface_to_json(M)))
    for extra in ([], ["--order", "8"], ["--order", "0"]):
        assert main(["derive-ode", str(p)] + extra) == EXIT_ORDER
    # a lower order still truncates
    out = tmp_path / "v.json"
    assert main(["verify", model_file, "--order", "8", "-o", str(out)]) == \
        EXIT_OK
    assert json.loads(out.read_text())["surface"]["order"] == 8


@pytest.mark.parametrize("m", (1, 2, 3))
def test_a_real_input_needs_4m_plus_2_to_be_eliminated(m, tmp_path, capsys):
    """A real surface of order N transfers to a complex one of order N - m,
    so derive-ode and symmetries need N >= 4m + 2, while verify and
    check-fuchsian take N >= 3m + 2.  The refusal names the complex form
    and its order, not the order of the file."""
    commands = ("verify", "derive-ode", "check-fuchsian", "symmetries")
    out = str(tmp_path / "out.json")
    for N, codes in ((3 * m + 2, [0, 11, 0, 11]), (4 * m + 1, [0, 11, 0, 11]),
                     (4 * m + 2, [0, 0, 0, 0])):
        p = tmp_path / ("real-%d.json" % N)
        p.write_text(serialize.dumps(serialize.surface_to_json(
            build_real(m, 1, {}, N))))
        exits = []
        for command in commands:
            capsys.readouterr()
            exits.append(main([command, str(p), "-o", out]))
            err = capsys.readouterr().err
            if exits[-1] == EXIT_ORDER:
                assert "complex surface of order %d is below the 3m+2 = %d " \
                    "floor" % (N - m, 3 * m + 2) in err
        assert exits == codes, N


def test_declared_order_is_the_series_order(tmp_path, capsys):
    # the order-4 model declared 12: refused by every surface command
    p = tmp_path / "low.json"
    p.write_bytes(_with(COMPLEX4, _declared_12))
    for argv in (["verify"], ["check-fuchsian"], ["derive-ode"],
                 ["symmetries"], ["blowup", "--blowup", "s=2"]):
        assert main([argv[0], str(p)] + argv[1:]) == EXIT_FORMAT
        assert "above the order 4" in capsys.readouterr().err
    # the same file declaring its own order is below the 3m+2 floor
    p.write_bytes(_doc(COMPLEX4))
    assert main(["derive-ode", str(p)]) == EXIT_ORDER
    # a real m=2 psi trusted through 7 holds v through 9, not 12
    p.write_bytes(_with(REAL_PSI7, _declared_12))
    assert main(["check-fuchsian", str(p)]) == EXIT_FORMAT
    p.write_bytes(_doc(REAL_PSI7))
    assert main(["check-fuchsian", str(p)]) == EXIT_OK
    # a declared order below the series' order truncates the series
    d = serialize.surface_to_json(build_complex(1, 1, {}, 12))
    d["order"] = 8
    p.write_text(serialize.dumps(d))
    out = tmp_path / "v.json"
    assert main(["verify", str(p), "-o", str(out)]) == EXIT_OK
    got = json.loads(out.read_text())["surface"]
    assert got["order"] == got["series"]["order"] == 8
    M = serialize.surface_from_json(d)
    assert M.order == M.phi.order == 8


def test_series_reader_refuses_what_it_would_drop():
    s = serialize.series_to_json(MultiSeries(("z",), 3, {(1,): ONE}))
    assert serialize.series_from_json(s).order == 3
    for extra in ([[5], "1/1", "0/1"], [[1], "2/1", "0/1"]):
        with pytest.raises(FormatError):
            serialize.series_from_json(dict(s, terms=s["terms"] + [extra]))


def test_ode_reader_holds_the_declared_order_to_phi():
    d = serialize.ode_to_json(eliminate(build_complex(1, 1, {}, 12)))
    E = serialize.ode_from_json(d)
    assert E.order == E.Phi.order == d["Phi"]["order"]
    with pytest.raises(FormatError):
        serialize.ode_from_json(dict(d, order=d["Phi"]["order"] + 1))
    low = serialize.ode_from_json(dict(d, order=5))
    assert low.order == low.Phi.order == 5


def test_ode_reader_takes_integer_fields_as_json_integers():
    d = serialize.ode_to_json(eliminate(build_complex(1, 1, {}, 12)))
    for field in ("m", "sign", "order"):
        for value in (d[field] + 0.5, True, str(d[field])):
            with pytest.raises(FormatError):
                serialize.ode_from_json(dict(d, **{field: value}))


def test_only_verify_computes_a_reality_residual(tmp_path, monkeypatch):
    """A RealDefining is real by construction: loading a real file checks
    h_kl = conj(h_lk) once, and no transfer or command checks it again.
    The transfer is exact, so no command re-derives the reality of its
    complex form either: verify reports it through validate_complex, once,
    and the other surface commands compute none."""
    seen, defects = [], []
    defect = RealDefining.reality_defect

    def counted(M):
        seen.append(M)
        return check_reality(M)

    def counted_defect(M):
        defects.append(M)
        return defect(M)

    p = tmp_path / "real.json"
    p.write_text(serialize.dumps(serialize.surface_to_json(
        build_real(1, 1, {}, 8))))
    monkeypatch.setattr(surfaces, "check_reality", counted)
    monkeypatch.setattr(RealDefining, "reality_defect", counted_defect)
    for argv, calls in ((["verify"], 1), (["derive-ode"], 0),
                        (["check-fuchsian"], 0), (["symmetries"], 0),
                        (["blowup", "--blowup", "s=2"], 0)):
        seen.clear()
        defects.clear()
        assert main([argv[0], str(p), "-o", str(tmp_path / "out.json")]
                    + argv[1:]) == EXIT_OK
        assert (len(seen), len(defects)) == (calls, 1), argv[0]


@pytest.mark.parametrize("case", ["dense", "model", "zzb-u", "zzb-wb",
                                  "non-real", "non-real-complex"])
def test_admissible_codec(case, tmp_path, capsys):
    if case in ("non-real", "non-real-complex"):
        # h23 = (1+i) u^2 with h32 = 0, and phi22 = i: both admissible,
        # neither real; every surface command refuses them at load
        if case == "non-real":
            form, t, term, msg = ("real", "u", {(2, 3, 2): qi(1, 1)},
                                  "at (k, l) = (2, 3)")
        else:
            form, t, term, msg = ("complex", "wb", {(2, 2, 0): I},
                                  "reality condition violated")
        psi = MultiSeries(("z", "zb", t), 8, {(1, 1, 0): ONE, **term})
        d = {"form": form, "m": 1, "sign": 1, "order": 8,
             "series": serialize.series_to_json(psi)}
        p = tmp_path / "nonreal.json"
        p.write_text(serialize.dumps(d))
        for argv in (["verify"], ["check-fuchsian"], ["derive-ode"],
                     ["symmetries"], ["blowup", "--blowup", "s=2"]):
            assert main([argv[0], str(p)] + argv[1:]) == EXIT_REALITY
            assert msg in capsys.readouterr().err
        return
    if case in ("zzb-u", "zzb-wb"):
        # v = u (|z|^2 + 5 u |z|^2), and phi = z zb + 5 z zb wb in the
        # complex form: a z*zb*t term is not admissible in either form
        form, t = ("real", "u") if case == "zzb-u" else ("complex", "wb")
        psi = MultiSeries(("z", "zb", t), 8,
                          {(1, 1, 0): ONE, (1, 1, 1): qi(5)})
        d = {"form": form, "m": 1, "sign": 1, "order": 8,
             "series": serialize.series_to_json(psi)}
        p = tmp_path / "zzbt.json"
        p.write_text(serialize.dumps(d))
        for command in ("verify", "check-fuchsian", "derive-ode",
                        "symmetries"):
            assert main([command, str(p)]) == EXIT_FORMAT
        lead, defects = split_admissible(psi)
        assert lead == ONE and kl_table(psi) == {}
        assert defects == ["term z^1 zb^1 %s^1 outside admissible shape" % t]
        return
    table, vars = ((kl_table(dense_surface().psi), ("z", "zb", "u"))
                   if case == "dense" else ({}, (Z, ZB, WB)))
    psi = admissible_series(ONE, table, vars)
    lead, defects = split_admissible(psi)
    got_table = kl_table(psi)
    assert lead == ONE and defects == []
    # one series carries one trust order, so compare the coefficients
    assert {kl: s.terms for kl, s in got_table.items()} == \
        {kl: s.terms for kl, s in table.items()}


def test_usage_errors_exit_format(model_file, capsys):
    # --format belongs to check-fuchsian only
    assert main(["verify", model_file, "--format", "table"]) == EXIT_FORMAT
    assert main(["no-such-command", model_file]) == EXIT_FORMAT
    assert main(["selftest", "--seed", "x"]) == EXIT_FORMAT
    # check-fuchsian reads the ledger at the input's order only
    assert main(["check-fuchsian", model_file, "--order", "3"]) == \
        EXIT_FORMAT
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()
    assert main(["check-fuchsian", model_file, "--format", "table"]) == \
        EXIT_OK
    assert capsys.readouterr().out.startswith("verdict: fuchsian")


def _parsed_by_the_full_parser(argv, capsys):
    """(exit code, stdout, stderr) of the parser of every command on argv,
    a help request or a usage error."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    out, err = capsys.readouterr()
    return EXIT_OK if exc.value.code == 0 else EXIT_FORMAT, out, err


@pytest.mark.parametrize("command", list(cli.COMMANDS) + [None])
def test_a_call_builds_the_parser_of_its_command_alone(command, monkeypatch,
                                                       capsys):
    """main builds only the subparser its first token names (all of them
    for no command or an unknown one), and its help and usage-error texts
    are the full parser's, byte for byte."""
    if command is None:
        calls = [[], ["--help"], ["no-such-command"],
                 ["--no-such-option", "verify"]]
    else:
        calls = [[command, "--help"], [command, "--no-such-option"],
                 [command, "in.json", "extra"], [command, "--seed", "x"],
                 [command, "in.json", "--auto", "3", "extra"]]
    expected = [_parsed_by_the_full_parser(argv, capsys) for argv in calls]
    built = []
    real = cli.build_parser

    def recorded(name=None):
        built.append(name)
        return real(name)
    monkeypatch.setattr(cli, "build_parser", recorded)
    for argv, (code, out, err) in zip(calls, expected):
        assert main(argv) == code
        assert capsys.readouterr() == (out, err)
    assert built == [command] * len(calls)
    if command is None:
        assert all(name in expected[1][1] for name in cli.COMMANDS)


def test_determinism_byte_identical(model_file, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["symmetries", model_file, "-o", a]) == EXIT_OK
    assert main(["symmetries", model_file, "-o", b]) == EXIT_OK
    assert Path(a).read_text() == Path(b).read_text()


# a real file, and the complex form that `verify` writes of it: every
# command works on the complex form, so the two files answer alike.  The
# real file runs the transfer's inversion, both run the elimination's, and
# the complex file runs the loader's complex branch with its recorded scale
REAL_AND_COMPLEX = {
    "model-m1-N24": lambda: build_real(1, 1, {}, 24),
    "dense-m2-N17": lambda: dense_surface(17, 2, True),
    "sqrt2-m2-N20": lambda: build_real(2, 1, SQRT2_TABLE, 20),
}


@pytest.mark.parametrize("label", list(REAL_AND_COMPLEX))
def test_a_real_file_and_its_complex_form_give_the_same_payloads(label,
                                                                 tmp_path):
    real, verified, complex_, out = (tmp_path / name for name in (
        "real.json", "verified.json", "complex.json", "out.json"))
    real.write_text(serialize.dumps(serialize.surface_to_json(
        REAL_AND_COMPLEX[label]())))
    assert main(["verify", str(real), "-o", str(verified)]) == EXIT_OK
    surface = json.loads(verified.read_text())["surface"]
    assert surface["form"] == "complex"
    complex_.write_text(serialize.dumps(surface))
    for argv in (["derive-ode"], ["symmetries", "--real-form"]):
        payloads = []
        for path in (real, complex_):
            assert main([argv[0], str(path), *argv[1:], "-o", str(out)]) \
                == EXIT_OK
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]


def test_selftest(capsys):
    assert main(["selftest"]) == EXIT_OK
    assert main(["selftest", "--seed", "7"]) == EXIT_OK


def test_the_module_entry_point_runs_a_command(tmp_path):
    """python -m segrefuchs.cli reaches main through the module's
    __main__ line, under -W error, and writes nothing where it runs."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    run = subprocess.run([sys.executable, "-W", "error", "-m",
                          "segrefuchs.cli", "selftest", "--seed", "7"],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=600)
    assert (run.returncode, run.stdout, run.stderr) == \
        (EXIT_OK, "selftest: oracle equivalence holds\n", "")
    assert list(tmp_path.iterdir()) == []


# ---- one failure path: every input ends in a documented exit code -----------

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")
with open(README) as f:
    DOCUMENTED_EXITS = {int(c) for c in re.findall(r"^\| (\d+) +\|", f.read(),
                                                   re.M)}


def _doc(payload):
    return serialize.dumps(payload).encode()


COMPLEX5 = serialize.surface_to_json(build_complex(1, 1, {}, 5))
REAL5 = serialize.surface_to_json(build_real(1, 1, {}, 5))
DENSE6 = serialize.surface_to_json(dense_surface(6))
COMPLEX4 = serialize.surface_to_json(build_complex(1, 1, {}, 4))
REAL4 = serialize.surface_to_json(build_real(1, 1, {}, 4))
# a real m=2 file whose psi is trusted through order 7, so v = u^2 psi
# through order 9 only
REAL_PSI7 = {"form": "real", "m": 2, "sign": 1, "order": 9,
             "series": serialize.series_to_json(MultiSeries(
                 ("z", "zb", "u"), 7, {(1, 1, 0): ONE}))}
# psi = z*zb and phi = z*zb, each declaring the order 999999 of its m=1
# surface: far above MAX_ORDER, yet below the exact order 1000000
REAL_999999 = {"form": "real", "m": 1, "sign": 1, "order": 999999,
               "series": serialize.series_to_json(MultiSeries.monomial(
                   ONE, (1, 1, 0), ("z", "zb", "u"), 999998))}
COMPLEX_999999 = {"form": "complex", "m": 1, "sign": 1, "order": 999999,
                  "series": serialize.series_to_json(MultiSeries.monomial(
                      ONE, (1, 1, 0), ("z", "zb", "wb"), 999999))}
SYSTEM2 = serialize.system_to_json(const_system(
    [[qi(Fraction(i + j, 4)) for j in range(2)] for i in range(2)], 4))
# dy/dw = diag(1, -1) y / w, whose coefficients are the same on every
# circle, however small
DIAG_PM1 = serialize.system_to_json(const_system(
    [[qi(1), qi(0)], [qi(0), qi(-1)]], 4))


def _with(payload, edit):
    doc = copy.deepcopy(payload)
    edit(doc)
    return _doc(doc)


def _number_coefficient(d):
    d["series"]["terms"][0][1] = 1


def _infinite_order(d):
    d["order"] = float("inf")


def _negative_exponent(d):
    d["series"]["terms"].append([[2, 2, -1], "1/1", "0/1"])


def _declared_12(d):
    d["order"] = 12


def _exact_order(d):
    d["order"] = d["series"]["order"] = 1000000


def _short_exponent(d):
    d["series"]["terms"].append([[2, 2], "1/1", "0/1"])


def _repeated_exponent(d):
    # an order-8 phi with phi22 given as 1 and then as -1
    d["order"] = d["series"]["order"] = 8
    d["series"]["terms"] += [[[2, 2, 0], "1/1", "0/1"],
                             [[2, 2, 0], "-1/1", "0/1"]]


def _term_above_order(d):
    d["series"]["terms"].append([[3, 3, 0], "1/1", "0/1"])


def _wide_exponent(d):
    # z^(2^20) zb^2 and its conjugate in an exact series, above the
    # declared order 5: the kernel's 20-bit exponent fields cannot hold
    # them, so the file is refused rather than cut to its order
    d["series"]["order"] = 1000000
    d["series"]["terms"] += [[[2 ** 20, 2, 0], "1/1", "0/1"],
                             [[2, 2 ** 20, 0], "1/1", "0/1"]]


def _retyped(path, kind):
    """An edit that rewrites the integer at path, a tuple of keys and
    indices, as a float, a bool or a numeric string: each of them int()
    would read as an integer."""
    def edit(d):
        *parents, last = path
        for key in parents:
            d = d[key]
        d[last] = {"float": d[last] + 0.5, "bool": True,
                   "string": str(d[last])}[kind]
    return edit


def _m(value):
    """An edit that sets m, keeping a real file's order at psi's plus m."""
    def edit(d):
        if d["form"] == "real":
            d["order"] += value - d["m"]
        d["m"] = value
    return edit


def _set(path, value):
    """An edit that sets the field at path, a tuple of keys and indices."""
    def edit(d):
        *parents, last = path
        for key in parents:
            d = d[key]
        d[last] = value
    return edit


def _ragged(d):
    d["entries"][1].pop()


def _empty(d):
    d["entries"] = []


def _one_by_two(d):
    d["entries"].pop()


def _z_term(d):
    d["entries"][0][0]["body"] = serialize.series_to_json(
        MultiSeries.variable("z", ("z", "w"), 4))


def _entry(pole, degree):
    """An edit that leaves one entry, w^degree / w^pole with an exact body;
    the body is written as JSON, since a degree of 2**20 or more has no
    in-memory series."""
    def edit(d):
        d["entries"] = [[{"pole": pole, "wvar": "w",
                          "body": {"vars": ["w"],
                                   "order": serialize.EXACT_IN_FILE,
                                   "terms": [[[degree], "1/1", "0/1"]]}}]]
    return edit


def _repeated_w(d):
    # w^-1 (1/2 + w/4) over the variables (w, w): a reader that kept it
    # would see only its first w slot, and the pole term alone
    d["entries"] = [[{"pole": 1, "wvar": "w", "body": {
        "vars": ["w", "w"], "order": 4,
        "terms": [[[0, 0], "1/2", "0/1"], [[0, 1], "1/4", "0/1"]]}}]]


def _repeated_z(d):
    d["series"]["vars"] = ["z", "z", "wb"]


def _vars_string(d):
    # "w" is no list of names, though tuple("w") would read as one
    for row in d["entries"]:
        for e in row:
            e["body"]["vars"] = "w"


def _pole_gap(d):
    for i, row in enumerate(d["entries"]):
        for j, e in enumerate(row):
            e["pole"] = 10 ** 5 if i == j == 0 else 0


# a name, argv with {in} for the input file and {dir} for a directory, the
# input file's bytes, and the code the case must end in
PINNED = [
    ("directory-input", ["verify", "{dir}"], _doc(COMPLEX5), EXIT_FORMAT),
    ("binary-input", ["verify", "{in}"], b"\xff\xfe\x00\x81", EXIT_FORMAT),
    ("directory-output", ["verify", "{in}", "-o", "{dir}"], _doc(COMPLEX5),
     EXIT_FORMAT),
    ("blowup-foo", ["blowup", "{in}", "--blowup", "foo"], _doc(COMPLEX5),
     EXIT_FORMAT),
    ("blowup-s=x", ["blowup", "{in}", "--blowup", "s=x"], _doc(COMPLEX5),
     EXIT_FORMAT),
    ("blowup-l=2", ["blowup", "{in}", "--blowup", "l=2"], _doc(COMPLEX5),
     EXIT_FORMAT),
    ("blowup-s=0", ["blowup", "{in}", "--blowup", "s=0"], _doc(COMPLEX5),
     EXIT_DOMAIN),
    ("auto-0", ["blowup", "{in}", "--auto", "0"], _doc(COMPLEX5),
     EXIT_DOMAIN),
    ("number-coefficient", ["verify", "{in}"],
     _with(COMPLEX5, _number_coefficient), EXIT_FORMAT),
    ("infinite-order", ["verify", "{in}"], _with(COMPLEX5, _infinite_order),
     EXIT_FORMAT),
    ("deep-json", ["verify", "{in}"], b"[" * 10 ** 5 + b"]" * 10 ** 5,
     EXIT_FORMAT),
    ("negative-exponent", ["verify", "{in}"],
     _with(REAL5, _negative_exponent), EXIT_FORMAT),
    ("short-exponent", ["verify", "{in}"],
     _with(REAL5, _short_exponent), EXIT_FORMAT),
    ("ragged-system", ["monodromy", "{in}"], _with(SYSTEM2, _ragged),
     EXIT_FORMAT),
    ("empty-system", ["monodromy", "{in}"], _with(SYSTEM2, _empty),
     EXIT_FORMAT),
    ("1x2-system", ["monodromy", "{in}"], _with(SYSTEM2, _one_by_two),
     EXIT_FORMAT),
    ("z-term-system", ["monodromy", "{in}"], _with(SYSTEM2, _z_term),
     EXIT_DOMAIN),
    ("declared-above-phi", ["derive-ode", "{in}"],
     _with(COMPLEX4, _declared_12), EXIT_FORMAT),
    ("declared-above-psi", ["check-fuchsian", "{in}"],
     _with(REAL_PSI7, _declared_12), EXIT_FORMAT),
    ("repeated-exponent", ["verify", "{in}"],
     _with(COMPLEX5, _repeated_exponent), EXIT_FORMAT),
    ("term-above-order", ["verify", "{in}"],
     _with(COMPLEX5, _term_above_order), EXIT_FORMAT),
    ("loop--steps=64", ["monodromy", "{in}", "--steps", "64"], _doc(SYSTEM2),
     EXIT_OK),
    ("loop--radius=1e-320", ["monodromy", "{in}", "--radius", "1e-320"],
     _doc(DIAG_PM1), EXIT_OK),
    ("loop--radius=5e-324", ["monodromy", "{in}", "--radius", "5e-324"],
     _doc(DIAG_PM1), EXIT_OK),
    ("repeated-vars-system", ["monodromy", "{in}"],
     _with(SYSTEM2, _repeated_w), EXIT_FORMAT),
    ("repeated-vars-surface", ["verify", "{in}"],
     _with(COMPLEX5, _repeated_z), EXIT_FORMAT),
    ("vars-string-system", ["monodromy", "{in}"],
     _with(SYSTEM2, _vars_string), EXIT_FORMAT),
    # scale_sq is the squared rescale 1/|c|, so it is positive
    ("scale-sq-negative", ["verify", "{in}"],
     _with(COMPLEX5, _set(("scale_sq",), "-1/2")), EXIT_FORMAT),
    ("scale-sq-zero", ["verify", "{in}"],
     _with(COMPLEX5, _set(("scale_sq",), "0/1")), EXIT_FORMAT),
    # an entry's wvar names its variable
    ("wvar-null", ["monodromy", "{in}"],
     _with(SYSTEM2, _set(("entries", 0, 0, "wvar"), None)), EXIT_FORMAT),
    ("wvar-int", ["monodromy", "{in}"],
     _with(SYSTEM2, _set(("entries", 0, 0, "wvar"), 5)), EXIT_FORMAT),
] + [
    # below the 3m+2 floor, whether the file or --order says so, a surface
    # is refused in either form by every command that takes --order
    ("floor-%s-%s" % (name, argv[0]), argv + extra, content, EXIT_ORDER)
    for name, content, extra in (
        ("declared-4-complex", _doc(COMPLEX4), []),
        ("declared-4-real", _doc(REAL4), []),
        ("order=4-complex", _doc(COMPLEX5), ["--order", "4"]),
        ("order=-5-complex", _doc(COMPLEX5), ["--order", "-5"]),
        ("order=4-real", _doc(REAL5), ["--order", "4"]),
        ("order=-5-real", _doc(REAL5), ["--order", "-5"]))
    for argv in (["verify", "{in}"], ["derive-ode", "{in}"],
                 ["symmetries", "{in}"],
                 ["blowup", "{in}", "--blowup", "s=2"])
] + [
    # a declared order above MAX_ORDER, an order of 1000000 (which in a
    # file means exact) included: refused at load, not worked at
    ("%s-%s-%s" % (name, form, argv[0]), argv, content, EXIT_FORMAT)
    for name, form, content in (
        ("exact-order", "real", _with(REAL5, _exact_order)),
        ("exact-order", "complex", _with(COMPLEX5, _exact_order)),
        ("order-999999", "real", _doc(REAL_999999)),
        ("order-999999", "complex", _doc(COMPLEX_999999)))
    for argv in (["verify", "{in}"], ["derive-ode", "{in}"],
                 ["check-fuchsian", "{in}"], ["symmetries", "{in}"],
                 ["blowup", "{in}", "--blowup", "s=2"])
] + [
    ("wide-exponent-%s-%s" % (form, argv[0]), argv,
     _with(surface, _wide_exponent), EXIT_FORMAT)
    for form, surface in (("real", REAL5), ("complex", COMPLEX5))
    for argv in (["check-fuchsian", "{in}"], ["verify", "{in}"])
] + [
    # an integer field is a JSON integer; nothing else is truncated to one
    ("%s-%s-%s" % (kind, form, "-".join(map(str, path))), ["verify", "{in}"],
     _with(surface, _retyped(path, kind)), EXIT_FORMAT)
    for form, surface in (("real", REAL5), ("complex", COMPLEX5))
    for path in (("m",), ("sign",), ("order",), ("series", "order"),
                 ("series", "terms", 0, 0, 0))
    for kind in ("float", "bool", "string")
] + [
    # a system entry's |pole| or term degree above MAX_ORDER is refused at
    # load: the coefficient tensor of monodromy grows with both
    ("system-%s" % name, ["monodromy", "{in}"], _with(SYSTEM2, edit),
     EXIT_FORMAT)
    for name, edit in (("pole=10^400", _entry(10 ** 400, 0)),
                       ("pole=-10^400", _entry(-10 ** 400, 0)),
                       ("degree=10^7", _entry(1, 10 ** 7)),
                       ("poles=10^5,0", _pole_gap),
                       ("pole=1001", _entry(1001, 0)),
                       ("degree=1001", _entry(0, 1001)))
] + [
    ("%s-pole" % kind, ["monodromy", "{in}"],
     _with(SYSTEM2, _retyped(("entries", 0, 0, "pole"), kind)), EXIT_FORMAT)
    for kind in ("float", "bool", "string")
] + [
    ("m=%d-%s" % (m, form), ["verify", "{in}"], _with(surface, _m(m)),
     EXIT_FORMAT)
    for form, surface, m in (("real", REAL5, 0), ("complex", COMPLEX5, 0),
                             ("complex", COMPLEX5, -2))
] + [
    ("loop%s=%s" % (flag, value), ["monodromy", "{in}", flag, value],
     _doc(SYSTEM2), EXIT_DOMAIN)
    for flag, value in (("--radius", "nan"), ("--radius", "inf"),
                        ("--trusted-radius", "nan"), ("--tol", "0"),
                        ("--tol", "nan"), ("--steps", "-5"),
                        ("--steps", "63"), ("--steps", "65537"))
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-cases")


def _run(workdir, argv, content):
    """main on argv with the placeholders filled in; -o goes to a file."""
    path, out = workdir / "input.json", workdir / "out.json"
    path.write_bytes(content)
    out.unlink(missing_ok=True)
    argv = [a.format(**{"in": path, "dir": workdir}) for a in argv]
    if "-o" not in argv:
        argv += ["-o", str(out)]
    return main(argv)


@pytest.mark.parametrize("argv,content,code", [p[1:] for p in PINNED],
                         ids=[p[0] for p in PINNED])
def test_pinned_cases_exit_with_their_code(argv, content, code, workdir,
                                           capsys):
    assert _run(workdir, argv, content) == code
    assert "Traceback" not in capsys.readouterr().err
    if code in (EXIT_FORMAT, EXIT_ORDER):
        # a refused input writes no payload
        assert not (workdir / "out.json").exists()


# ---- end-to-end pins: one command on one input, and what its output holds --
#
# A pin of what a command answers on a ladder surface is a row here: the
# input's label, the command's argv and a reader of its output text, with
# the value the reader must give.

END_TO_END_INPUTS = dict(REAL_AND_COMPLEX, **{
    "model-m3-N28": lambda: build_real(3, 1, {}, 28),
    "const-2x2": lambda: const_system(
        [[qi(Fraction(1, 2)), qi(Fraction(1, 3))],
         [qi(0), qi(Fraction(-1, 4))]], 10),
})


def _fields(*keys):
    return lambda text: tuple(json.loads(text)[k] for k in keys)


def _pullback(text):
    d = json.loads(text)
    return (d["m_star"], d["defining"]["order"], len(d["defining"]["terms"]),
            "surface" in d)


def _is_exp_2_pi_i_a(text):
    """The monodromy of dy/dw = A y / w for a constant A is exp(2 pi i A)."""
    M = np.array([[complex(*v) for v in row]
                  for row in json.loads(text)["matrix"]])
    A = np.array([[1 / 2, 1 / 3], [0, -1 / 4]])
    return bool(np.max(np.abs(M - expm_oracle(2j * np.pi * A))) < 1e-8)


END_TO_END = [
    # the real m=1 model's Y-systems skip every degree past 0 that has
    # nothing to solve
    ("model-m1-N24", ["symmetries", "--real-form"],
     _fields("dimension", "order"), (2, 17)),
    # the sqrt2 rung's jet filter drops both Frobenius candidates
    ("sqrt2-m2-N20", ["symmetries", "--real-form"],
     _fields("dimension", "order", "dropped_candidates"), (0, 7, 2)),
    # the elimination's two-unknown inversion, with sqrt2 coefficients
    ("sqrt2-m2-N20", ["derive-ode"], _fields("oracle_agreement", "order"),
     (True, 17)),
    # the pullback composes three substituted variables at once
    ("sqrt2-m2-N20", ["blowup", "--blowup", "s=1,l=2"], _pullback,
     (5, 21, 6, True)),
    # the m=3 model: Phi's quotient along the first integral, shifted by w^3
    ("model-m3-N28", ["derive-ode"], _fields("oracle_agreement", "order"),
     (True, 24)),
    # a dense m=2 surface: products over five variables, every h_kl
    # coefficient nonzero
    ("dense-m2-N17", ["derive-ode"], _fields("oracle_agreement", "order"),
     (True, 14)),
    ("dense-m2-N17", ["symmetries", "--real-form"],
     _fields("dimension", "order"), (0, 4)),
    # the blow-up search answers s = 2 with a single pullback
    ("model-m1-N24", ["blowup", "--auto", "6"], _fields("s", "m_star"),
     (2, 5)),
    # the pullback's fixed-point iteration at s = 1, its smallest gain per
    # step; l = 3 leaves the xi-rescale out of the field
    ("model-m1-N24", ["blowup", "--blowup", "s=1,l=3"], _pullback,
     (3, 24, 6, False)),
    # check-fuchsian's table: the verdict line comes first
    ("model-m1-N24", ["check-fuchsian", "--format", "table"],
     lambda text: text.splitlines()[0],
     "verdict: fuchsian (m = 1, real form)"),
    ("const-2x2", ["monodromy"], _is_exp_2_pi_i_a, True),
]


@pytest.mark.parametrize(
    "label,argv,read,expected", END_TO_END,
    ids=["%s-%s" % (row[0], "-".join(row[1])) for row in END_TO_END])
def test_end_to_end_pins(label, argv, read, expected, tmp_path):
    x = END_TO_END_INPUTS[label]()
    doc = (serialize.system_to_json(x) if isinstance(x, LinearODESystem)
           else serialize.surface_to_json(x))
    path, out = tmp_path / "in.json", tmp_path / "out"
    path.write_text(serialize.dumps(doc))
    assert main([argv[0], str(path), *argv[1:], "-o", str(out)]) == EXIT_OK
    assert read(out.read_text()) == expected


def test_system_entries_at_the_cap_load():
    cap = serialize.MAX_ORDER
    for pole, degree in ((cap, 0), (-cap, cap)):
        doc = json.loads(_with(SYSTEM2, _entry(pole, degree)))
        assert serialize.system_from_json(doc).entries[0][0].pole == pole


def test_documented_exit_codes_match_the_error_classes():
    assert DOCUMENTED_EXITS == {0, 1, 2, 3, 4, EXIT_FORMAT, EXIT_ORDER,
                                EXIT_REALITY, EXIT_NUMERIC, EXIT_DOMAIN}


def _paths(node, path=()):
    yield path
    items = (sorted(node.items()) if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


# leaves a mutation may write; the system ones cannot raise a pole or a
# coefficient, so a mutated system that passes the reader stays cheap
SURFACE_LEAVES = [None, "", "x", "1/0", "1/2", "-1/1", "real", "complex",
                  [], {}, -1, 0, 1, 2, 5, 9, 1.5, True, float("inf")]
SYSTEM_LEAVES = [None, "", "x", "1/0", "a/b", [], {}, -1, 0, float("inf")]


@st.composite
def mutated(draw, payload, leaves):
    doc = copy.deepcopy(payload)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(st.sampled_from(leaves))
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "copy"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "copy" and isinstance(parent, list):
            parent.append(copy.deepcopy(parent[path[-1]]))
        else:
            parent[path[-1]] = draw(st.sampled_from(leaves))
    return _doc(doc)


SURFACE_OPTIONS = {
    "verify": [[], ["--order", "3"], ["--order", "x"]],
    "derive-ode": [[], ["--order", "5"], ["--order", "-1"]],
    "check-fuchsian": [[], ["--format", "table"], ["--format", "x"]],
    "symmetries": [[], ["--real-form"], ["--order", "0"]],
    "blowup": [["--auto", a] for a in ("-1", "0", "3", "x")] +
              [["--blowup", b] for b in ("foo", "s=x", "l=2", "s=0", "s=2",
                                         "s=2,l=3", "s=2,s=3", "s=", "")],
}
MONODROMY_OPTIONS = [[], ["--reverse"]] + [
    [flag, v] for flag, values in (
        ("--radius", ("nan", "inf", "-0.1", "0", "0.1", "0.3", "x")),
        ("--trusted-radius", ("nan", "0.1", "inf", "x")),
        ("--steps", ("-5", "0", "63", "64", "65537", "1e9")),
        ("--tol", ("0", "-1", "nan", "inf", "1e-3", "x")))
    for v in values]


@st.composite
def cli_cases(draw):
    if draw(st.booleans()):
        command = draw(st.sampled_from(sorted(SURFACE_OPTIONS)))
        argv = [command, "{in}"] + draw(
            st.sampled_from(SURFACE_OPTIONS[command]))
        content = draw(st.one_of(mutated(COMPLEX5, SURFACE_LEAVES),
                                 mutated(REAL5, SURFACE_LEAVES),
                                 mutated(DENSE6, SURFACE_LEAVES),
                                 st.binary(max_size=8)))
    else:
        argv = ["monodromy", "{in}", "--tol", "1e-6"] + draw(
            st.sampled_from(MONODROMY_OPTIONS))
        content = draw(mutated(SYSTEM2, SYSTEM_LEAVES))
    return argv, content


def _pinned_examples(test):
    for _, argv, content, _ in PINNED:
        test = example(case=(argv, content))(test)
    return test


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@_pinned_examples
@given(case=cli_cases())
def test_fuzz_cli_exits_with_a_documented_code(case, workdir):
    argv, content = case
    assert _run(workdir, argv, content) in DOCUMENTED_EXITS
