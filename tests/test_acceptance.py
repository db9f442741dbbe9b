"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with -s (or see the captured
output) for the ledger view.  Budgets are enforced, not just reported.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from segrefuchs import serialize
from segrefuchs.qfield import ONE, I, qi
from segrefuchs.series import MultiSeries, EXACT
from segrefuchs.surfaces import (build_real, build_complex, real_to_complex,
                                 check_reality, ComplexDefining, Z, ZB, WB)
from segrefuchs.segre import eliminate, closed_form_coeffs, families_agree
from segrefuchs.fuchs import (check_fuchsian_real, check_fuchsian_complex,
                              check_fuchsian_ode, FUCHSIAN, NON_FUCHSIAN)
from segrefuchs.prolongation import (VectorField, assemble_u_system,
                                     assemble_Y_system, tangency_residual)
from segrefuchs.frobenius import (formal_symmetries, convergence_diagnostic,
                                  in_span)
from segrefuchs.blowup import BlowupMap
from segrefuchs.monodromy import LoopSpec, monodromy_matrix
from segrefuchs.errors import NonFuchsianError
from segrefuchs.cli import main as cli_main, EXIT_REFUSED
from reference import (collect_initial_system, conj, const_system,
                       expm_oracle, field_u_vector, infinitesimal_monodromy,
                       pullback_field, pushforward_field, rnd_pullback_field,
                       verify_ode, zero_zw, zw)


def report(num, ok, text):
    print("ACCEPTANCE %2d: %s - %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, text


def random_phi_table(rng, m, order, fuchsian):
    keys = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3)]
    bounds = {(2, 2): m - 1, (2, 3): 2 * m - 2, (3, 2): 2 * m - 2,
              (3, 3): 2 * m - 2, (2, 4): 3 * m - 3, (4, 2): 3 * m - 3,
              (3, 4): 3 * m - 3, (4, 3): 3 * m - 3}
    tbl = {}
    for kl in keys:
        cap = order - sum(kl)
        if cap < 0 or rng.random() < 0.3:
            continue
        lo = max(bounds[kl], 0) if fuchsian else 0
        if lo > cap:
            continue
        terms = {}
        for _ in range(2):
            deg = rng.randint(lo, cap)
            c = qi(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                   Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
            if not c.is_zero():
                terms[(deg,)] = c
        if terms:
            tbl[kl] = MultiSeries(("wb",), cap, terms)
    return tbl


def test_criterion_1_coefficient_oracle_equivalence():
    rng = random.Random(20260808)
    t0 = time.monotonic()
    count = 0
    for m in (1, 2, 3):
        for trial in range(7):
            order = 3 * m + 4
            eps = rng.choice((1, -1))
            fuchsian = trial % 2 == 0
            M = build_complex(m, eps,
                              random_phi_table(rng, m, order, fuchsian),
                              order)
            E = eliminate(M)
            ok, rep = families_agree(E.coeffs, closed_form_coeffs(M))
            assert ok, (m, eps, rep)
            count += 1
    dt = time.monotonic() - t0
    report(1, count >= 20 and dt < 60.0,
           "eliminate == closed forms exactly on %d randomized surfaces "
           "(m in {1,2,3}, order 3m+4) in %.1fs (< 60s)" % (count, dt))


def test_criterion_2_four_equation_regression():
    oriented, fixture, diffs = collect_initial_system()
    bad = [(j, d) for j, d in enumerate(diffs) if not d.is_zero()]
    if bad:
        for j, d in bad:
            print("  line %d differs from the fixture: %r" % (j, d))
    report(2, not bad,
           "mechanical zeta^0..zeta^3 collection reproduces the four "
           "fixture lines (first line Q_zz = 0) with zero diff")


def test_criterion_3_model_ode():
    M = build_complex(1, 1, {}, 14)
    E = eliminate(M)
    expected = MultiSeries.monomial(ONE, (0, 1, 2), ("z", "w", "zeta"),
                                    E.Phi.order)
    exact = E.Phi == expected
    res = verify_ode(M, E)
    res_ok = res.order >= 12 and res.truncate(12).is_zero()
    report(3, exact and res_ok,
           "phi = z zb, m=1 gives Phi = w zeta^2 exactly; verify_ode "
           "residual vanishes through order 12")


def test_criterion_4_fuchsian_classifier():
    rng = random.Random(4)
    ok_m1 = True
    for _ in range(10):
        tbl = random_phi_table(rng, 1, 7, fuchsian=False)
        M = build_complex(1, 1, tbl, 7)
        ok_m1 &= check_fuchsian_complex(M).verdict == FUCHSIAN
    u = MultiSeries.variable("u", ("u",))
    A = build_real(2, 1, {(2, 2): u}, 12)
    B = build_real(2, 1, {(2, 2): MultiSeries.const(1, ("u",))}, 12)
    ok_ex = (check_fuchsian_real(A).verdict == FUCHSIAN and
             check_fuchsian_real(B).verdict == NON_FUCHSIAN)
    ok_consist = True
    for Mr in (A, B, build_real(3, 1, {(2, 2): u * u}, 15),
               build_real(1, -1, {(2, 2): MultiSeries.const(1, ("u",))}, 10)):
        Mc = real_to_complex(Mr)
        v = {check_fuchsian_real(Mr).verdict,
             check_fuchsian_complex(Mc).verdict,
             check_fuchsian_ode(eliminate(Mc)).verdict}
        ok_consist &= len(v) == 1
    report(4, ok_m1 and ok_ex and ok_consist,
           "m=1 always fuchsian (10 random); (m=2, h22=u) fuchsian; "
           "(m=2, h22=1) non-fuchsian; real/complex/ODE verdicts coincide")


def test_criterion_5_known_symmetries():
    t0 = time.monotonic()
    M = build_complex(1, 1, {}, 12)
    basis = formal_symmetries(M.truncate(12))
    z, w = zw("z"), zw("w")
    iz = VectorField(z.scale(I), zero_zw())
    wdw = VectorField(zero_zw(), w)
    ok1 = in_span(basis.fields, [iz, wdw], 6)
    ok1 &= tangency_residual(iz, basis.ode).is_zero()
    ok1 &= tangency_residual(wdw, basis.ode).is_zero()
    ok1 &= all(c.is_zero() for c in basis.certificates)
    dt1 = time.monotonic() - t0
    t0 = time.monotonic()
    Mr = build_real(2, 1, {}, 13)
    Mc = real_to_complex(Mr)
    basis2 = formal_symmetries(Mc)
    ok2 = in_span(basis2.fields, [iz], 6)
    dt2 = time.monotonic() - t0
    report(5, ok1 and ok2 and dt1 < 30 and dt2 < 30,
           "m=1 model basis contains iz d/dz and w d/dw with zero residual "
           "at order 10+ (%.1fs); m=2 example contains iz d/dz (%.1fs); "
           "both < 30s" % (dt1, dt2))


def test_criterion_6_convergence_property():
    M = build_complex(1, 1, {}, 12)
    basis = formal_symmetries(M.truncate(12))
    wb = MultiSeries.variable("wb", ("wb",))
    M2 = build_complex(2, 1, {(2, 2): wb}, 13)
    basis2 = formal_symmetries(M2)
    ok = True
    for b in (basis, basis2):
        for L in b.fields:
            d = convergence_diagnostic(L)
            ok &= d.verdict != "growth-unbounded"
            ok &= all(v <= 10.0 for v in d.ratios.values())
    fac = MultiSeries(("w",), 14,
                      {(k,): qi(math.factorial(k)) for k in range(15)})
    trip = convergence_diagnostic([fac])
    ok &= trip.verdict == "growth-unbounded"
    report(6, ok,
           "symmetry ratio profiles bounded by 10 over k in [5, N-1]; "
           "injected factorial series reports growth-unbounded")


def test_criterion_7_non_fuchsian_refusal(tmp_path):
    M = build_real(2, 1, {(2, 2): {(0,): qi(1)}}, 12)
    E = eliminate(real_to_complex(M))
    rep = check_fuchsian_ode(E)
    entry = None
    try:
        assemble_Y_system(E, rep)
        ok_err = False
    except NonFuchsianError as exc:
        entry = exc.entry
        ok_err = exc.entry is not None and exc.pole >= 1 and \
            exc.ledger_row is not None
    p = tmp_path / "nf.json"
    p.write_text(serialize.dumps(serialize.surface_to_json(M)))
    rc = cli_main(["symmetries", str(p)])
    report(7, ok_err and rc == EXIT_REFUSED,
           "(real m=2, h22=1): Y-assembly fails naming entry %s with its "
           "ledger row; cmd_symmetries exits %d (refusal)" % (entry, rc))


def test_criterion_8_blowup_roundtrip():
    rng = random.Random(8)
    ok = True
    for trial in range(10):
        B = BlowupMap(rng.choice((2, 3)), 2)
        L = rnd_pullback_field(rng)
        L2 = pushforward_field(*pullback_field(L, B), B)
        ok &= (L2.P - L.P).is_zero() and (L2.Q - L.Q).is_zero()
    w = zw("w")
    P, Q = pullback_field(VectorField(zero_zw(), w), BlowupMap(2, 2))
    ok &= P.body == MultiSeries.monomial(-ONE, (1, 0), ("xi", "eta"))
    ok &= P.pole == 0
    ok &= Q.body == MultiSeries.monomial(qi(Fraction(1, 2)), (0, 1),
                                         ("xi", "eta"))
    report(8, ok,
           "pushforward o pullback = identity exactly on 10 random fields "
           "(s in {2,3}); pullback(w dw, s=2) = -xi dxi + (eta/2) deta")


def test_criterion_9_numeric_monodromy():
    rng = random.Random(9)
    ok = True
    worst = 0.0
    for trial in range(10):
        n = rng.choice((2, 3, 4, 6, 8))
        A = [[qi(Fraction(rng.randint(-8, 8), 8)) for _ in range(n)]
             for _ in range(n)]
        for i in range(n):
            row_sum = sum(abs(c.to_complex()) for c in A[i])
            if row_sum > 2.0:
                scl = qi(Fraction(2)) * qi(Fraction(1, int(row_sum) + 1))
                A[i] = [c * scl for c in A[i]]
        S = const_system(A, order=10)
        t0 = time.monotonic()
        res = monodromy_matrix(S, LoopSpec(tol=1e-9))
        dt = time.monotonic() - t0
        Af = np.array([[c.to_complex() for c in row] for row in A])
        expect = expm_oracle(2j * np.pi * Af)
        err = float(np.max(np.abs(res.matrix - expect)))
        worst = max(worst, err)
        ok &= err < 1e-8 and dt < 10.0
    M = build_complex(1, 1, {}, 12)
    basis = formal_symmetries(M.truncate(12))
    U = assemble_u_system(basis.ode)
    uvecs = [field_u_vector(L) for L in basis.fields]
    psi, off = infinitesimal_monodromy(uvecs, U, LoopSpec(tol=1e-9))
    id_err = float(np.max(np.abs(psi - np.eye(len(uvecs)))))
    ok &= id_err < 1e-6
    report(9, ok,
           "10 random Fuchsian systems: |M - exp(2 pi i A)| < 1e-8 "
           "(worst %.2e), each < 10s; model holomorphic-basis monodromy "
           "= identity within 1e-6 (err %.2e)" % (worst, id_err))


def test_criterion_10_reality_validation():
    rng = random.Random(10)
    ok = True
    for m in (1, 2):
        tbl = {}
        for kl in ((2, 2), (3, 3)):
            deg = rng.randint(0, 2)
            tbl[kl] = MultiSeries(("u",), EXACT,
                                  {(deg,): qi(rng.randint(1, 3))})
        c = qi(rng.randint(1, 2), rng.randint(1, 2))
        tbl[(2, 3)] = MultiSeries(("u",), EXACT, {(1,): c})
        tbl[(3, 2)] = MultiSeries(("u",), EXACT, {(1,): conj(c)})
        Mr = build_real(m, 1, tbl, 3 * m + 6)
        Mc = real_to_complex(Mr)
        ok &= check_reality(Mc).is_zero()
        pert = ComplexDefining(
            Mc.m, Mc.eps,
            Mc.phi + MultiSeries.monomial(I, (2, 2, m), (Z, ZB, WB)))
        ok &= not check_reality(pert).is_zero()
    report(10, ok,
           "check_reality vanishes for surfaces from real h-data "
           "(sqrt2-exact transfer included); a single i*wb^k perturbation "
           "of phi22 is detected")
