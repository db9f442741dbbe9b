import json
import random
from fractions import Fraction

import pytest

from segrefuchs import serialize
from segrefuchs.cli import main, EXIT_OK, EXIT_NON_FUCHSIAN, EXIT_REFUSED, \
    EXIT_ORDER, EXIT_REALITY, EXIT_FORMAT, EXIT_DOMAIN
from segrefuchs.qfield import GaussianRational, ONE, I, qi, SQRT2
from segrefuchs.series import MultiSeries, LaurentInW
from segrefuchs.surfaces import (build_real, build_complex, real_to_complex,
                                 ComplexDefining, admissible_series,
                                 split_admissible, Z, ZB, WB)
from test_golden import dense_surface


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


def test_surface_roundtrip_both_forms():
    u = MultiSeries.variable("u", ("u",))
    Mr = build_real(2, -1, {(2, 2): u}, 12)
    d = serialize.surface_to_json(Mr)
    Mr2 = serialize.surface_from_json(d)
    assert Mr2.m == 2 and Mr2.eps == -1
    assert Mr2.h[(2, 2)] == Mr.h[(2, 2)].embed(("u",))
    Mc = real_to_complex(Mr)
    d2 = serialize.surface_to_json(Mc)
    Mc2 = serialize.surface_from_json(d2)
    assert Mc2.phi == Mc.phi and Mc2.scale_sq == Mc.scale_sq


def test_system_roundtrip(tmp_path):
    ent = [[LaurentInW(MultiSeries.const(qi(Fraction(1, 2)), ("w",), 10),
                       1, "w")]]
    from segrefuchs.prolongation import LinearODESystem
    S = LinearODESystem(ent, unknown="y")
    d = serialize.system_to_json(S)
    S2 = serialize.system_from_json(d)
    assert S2.pole_order == 1
    assert serialize.dumps(serialize.system_to_json(S2)) == serialize.dumps(d)


# ---- commands ------------------------------------------------------------------

def test_derive_ode_model(model_file, tmp_path, capsys):
    out = str(tmp_path / "ode.json")
    rc = main(["derive-ode", model_file, "-o", out])
    assert rc == EXIT_OK
    d = json.loads(open(out).read())
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
    d = json.loads(open(out).read())
    assert d["dimension"] >= 2
    assert all(f["residual_zero"] for f in d["fields"])
    assert all(f["diagnostic"]["verdict"] != "growth-unbounded"
               for f in d["fields"])
    assert len(d["real_form"]) == 2


def test_blowup_commands(model_file, tmp_path):
    out = str(tmp_path / "star.json")
    assert main(["blowup", model_file, "--blowup", "s=2,l=2", "-o", out]) == \
        EXIT_OK
    d = json.loads(open(out).read())
    assert d["m_star"] == 5
    assert main(["blowup", model_file, "--auto", "5", "-o", out]) == EXIT_OK
    assert json.loads(open(out).read())["s"] == 2
    # empty search range: structured none-branch with a domain exit code
    from segrefuchs.cli import EXIT_DOMAIN
    assert main(["blowup", model_file, "--auto", "1", "-o", out]) == \
        EXIT_DOMAIN
    assert json.loads(open(out).read())["found"] is None


def test_monodromy_command_and_reverse(tmp_path, capsys):
    from segrefuchs.prolongation import LinearODESystem
    import numpy as np
    ent = [[LaurentInW(MultiSeries.const(qi(Fraction(1, 2)), ("w",), 10),
                       1, "w")]]
    S = LinearODESystem(ent, unknown="y")
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


def test_error_exit_codes(model_file, tmp_path, capsys):
    assert main(["derive-ode", model_file, "--order", "3"]) == EXIT_ORDER
    assert main(["verify", str(tmp_path / "missing.json")]) == EXIT_FORMAT
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == EXIT_FORMAT
    # perturbed non-real surface: distinct reality-violation code
    M = build_complex(2, 1, {}, 12)
    pert = ComplexDefining(
        2, 1, M.phi + MultiSeries.monomial(I, (2, 2, 1), (Z, ZB, WB)), 12)
    p = tmp_path / "pert.json"
    p.write_text(serialize.dumps(serialize.surface_to_json(pert)))
    assert main(["derive-ode", str(p)]) == EXIT_REALITY
    assert main(["verify", str(p)]) == EXIT_REALITY
    # no z*zb term: the elimination Jacobian is singular, a domain error
    flat = ComplexDefining(1, 1, MultiSeries.monomial(ONE, (2, 2, 0),
                                                      (Z, ZB, WB)), 8)
    p = tmp_path / "flat.json"
    p.write_text(serialize.dumps(serialize.surface_to_json(flat)))
    assert main(["derive-ode", str(p)]) == EXIT_DOMAIN


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


@pytest.mark.parametrize("case", ["dense", "model", "zzb-u"])
def test_admissible_codec(case, tmp_path, capsys):
    if case == "zzb-u":
        # v = u (|z|^2 + 5 u |z|^2): a z*zb*u term is not admissible
        psi = MultiSeries(("z", "zb", "u"), 8,
                          {(1, 1, 0): ONE, (1, 1, 1): qi(5)})
        d = {"form": "real", "m": 1, "sign": 1, "order": 8,
             "series": serialize.series_to_json(psi)}
        p = tmp_path / "zzbu.json"
        p.write_text(serialize.dumps(d))
        for command in ("verify", "check-fuchsian", "derive-ode"):
            assert main([command, str(p)]) == EXIT_FORMAT
        lead, table, defects = split_admissible(psi)
        assert lead == ONE and table == {}
        assert defects == ["term z^1 zb^1 u^1 outside admissible shape"]
        return
    table, vars = ((dense_surface().h, ("z", "zb", "u")) if case == "dense"
                   else ({}, (Z, ZB, WB)))
    lead, got_table, defects = split_admissible(
        admissible_series(ONE, table, vars))
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


def test_determinism_byte_identical(model_file, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["symmetries", model_file, "-o", a]) == EXIT_OK
    assert main(["symmetries", model_file, "-o", b]) == EXIT_OK
    assert open(a).read() == open(b).read()


def test_selftest(capsys):
    assert main(["selftest"]) == EXIT_OK
    assert main(["selftest", "--seed", "7"]) == EXIT_OK
