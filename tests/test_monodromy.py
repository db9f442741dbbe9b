import random
from fractions import Fraction

import numpy as np
import pytest

from segrefuchs import monodromy
from segrefuchs.qfield import GaussianRational, ONE, qi
from segrefuchs.series import MultiSeries, LaurentInW
from segrefuchs.surfaces import build_complex, build_real, real_to_complex
from segrefuchs.segre import eliminate
from segrefuchs.prolongation import (LinearODESystem, assemble_u_system,
                                     assemble_Y_system, VectorField)
from segrefuchs.frobenius import formal_symmetries, field_u_vector
from segrefuchs.monodromy import (LoopSpec, MonodromyResult, STEP_BUDGET,
                                  TRUSTED_RADIUS, continue_system,
                                  monodromy_matrix, infinitesimal_monodromy,
                                  tail_estimate, _dense_matrix_data,
                                  _rk4_loop)
from segrefuchs.errors import NonConvergenceError, SegrefuchsError


def const_system(rows, order=14):
    n = len(rows)
    ent = [[LaurentInW(MultiSeries.const(rows[i][j], ("w",), order), 1, "w")
            for j in range(n)] for i in range(n)]
    return LinearODESystem(ent, unknown="y")


def expm_oracle(A):
    """Independent matrix exponential: scaling and squaring on the series."""
    A = np.array(A, dtype=complex)
    k = max(int(np.ceil(np.log2(max(1.0, np.linalg.norm(A, np.inf))))) + 4, 0)
    B = A / 2 ** k
    E = np.eye(len(A), dtype=complex)
    term = np.eye(len(A), dtype=complex)
    for j in range(1, 25):
        term = term @ B / j
        E = E + term
    for _ in range(k):
        E = E @ E
    return E


def test_half_exponent_loop():
    S = const_system([[qi(Fraction(1, 2))]])
    y, err, steps = continue_system(S, LoopSpec(tol=1e-9), [1.0])
    assert abs(y[0] + 1.0) < 1e-8
    assert steps >= 128


def test_integer_exponent_trivial():
    for k in (1, 2, 3):
        S = const_system([[qi(k)]])
        y, _, _ = continue_system(S, LoopSpec(tol=1e-9), [1.0])
        assert abs(y[0] - 1.0) < 1e-8


def test_pole_free_identity():
    ent = [[LaurentInW(MultiSeries.variable("w", ("w",), 12), 0, "w")]]
    S = LinearODESystem(ent, unknown="y")
    y, _, _ = continue_system(S, LoopSpec(tol=1e-9), [1.0])
    assert abs(y[0] - 1.0) < 1e-9


def test_monodromy_diag_half():
    S = const_system([[qi(Fraction(1, 2)), qi(0)], [qi(0), qi(0)]])
    res = monodromy_matrix(S, LoopSpec(tol=1e-9))
    expect = np.diag([-1.0 + 0j, 1.0 + 0j])
    assert np.max(np.abs(res.matrix - expect)) < 1e-8
    assert res.invertible()
    assert res.tail_estimate == 0.0  # constant matrix has no tail


def random_bounded_matrix(rng, n, radius=2):
    """Rational matrix with Gershgorin discs inside |z| <= radius."""
    A = [[qi(Fraction(rng.randint(-8, 8), 8)) for _ in range(n)]
         for _ in range(n)]
    for i in range(n):
        row_sum = sum(abs(c.to_complex()) for c in A[i])
        if row_sum > radius:
            scl = qi(Fraction(radius, 1)) * qi(
                Fraction(1, int(np.ceil(row_sum))))
            A[i] = [c * scl for c in A[i]]
    return A


def test_monodromy_matches_expm_randomized():
    rng = random.Random(99)
    for trial in range(4):
        n = rng.choice((2, 3, 4))
        A = random_bounded_matrix(rng, n)
        S = const_system(A)
        res = monodromy_matrix(S, LoopSpec(tol=1e-9))
        Af = [[c.to_complex() for c in row] for row in A]
        expect = expm_oracle(2j * np.pi * np.array(Af))
        assert np.max(np.abs(res.matrix - expect)) < 1e-8


def test_loop_radius_independence():
    S = const_system([[qi(Fraction(1, 3)), qi(1)], [qi(0), qi(Fraction(1, 2))]])
    r1 = monodromy_matrix(S, LoopSpec(radius=0.2, tol=1e-9))
    r2 = monodromy_matrix(S, LoopSpec(radius=0.35, tol=1e-9,
                                      trusted_radius=0.5))
    assert np.max(np.abs(r1.matrix - r2.matrix)) < 1e-8


def test_orientation_inverse():
    S = const_system([[qi(Fraction(1, 2)), qi(1)], [qi(0), qi(Fraction(1, 4))]])
    fwd = monodromy_matrix(S, LoopSpec(tol=1e-9))
    rev = monodromy_matrix(S, LoopSpec(tol=1e-9, direction=-1))
    assert np.max(np.abs(fwd.matrix @ rev.matrix - np.eye(2))) < 1e-8


def test_radius_guard():
    """LoopSpec refuses, when built, a radius at or past its trusted radius
    (default TRUSTED_RADIUS) and a NaN trusted radius; an infinite one
    admits any finite radius."""
    for kw in ({"radius": 0.25}, {"radius": 0.3},
               {"radius": 0.5, "trusted_radius": 0.5},
               {"trusted_radius": float("nan")}):
        with pytest.raises(SegrefuchsError, match="trusted evaluation"):
            LoopSpec(**kw)
    loop = LoopSpec(radius=1e6, trusted_radius=float("inf"))
    assert (loop.radius, loop.trusted_radius) == (1e6, float("inf"))
    assert LoopSpec().trusted_radius == TRUSTED_RADIUS


def test_model_u_system_monodromy_fixes_symmetries():
    M = build_complex(1, 1, {}, 12)
    basis = formal_symmetries(M.truncate(12))
    U = assemble_u_system(basis.ode)
    uvecs = [field_u_vector(L) for L in basis.fields]
    psi, off = infinitesimal_monodromy(uvecs, U, LoopSpec(tol=1e-9))
    assert off < 1e-8
    assert np.max(np.abs(psi - np.eye(len(uvecs)))) < 1e-6
    # psi is linear and injective: invertible within tolerance
    assert abs(np.linalg.det(psi)) > 1e-6


def test_infinitesimal_monodromy_bracket_compatibility():
    """psi[L1,L2] = [psi L1, psi L2] within tolerance on the test algebra.

    For the model the action is the identity, so compatibility is the
    statement that brackets of basis fields continue to themselves.
    """
    from segrefuchs.frobenius import lie_bracket
    M = build_complex(1, 1, {}, 12)
    basis = formal_symmetries(M.truncate(12))
    U = assemble_u_system(basis.ode)
    br = None
    for i in range(basis.dimension):
        for j in range(i + 1, basis.dimension):
            cand = lie_bracket(basis.fields[i], basis.fields[j])
            if not cand.is_zero():
                br = cand
                break
        if br is not None:
            break
    assert br is not None
    # psi is the identity on this basis, so compatibility
    # psi[L1,L2] = [psi L1, psi L2] reduces to the bracket's u-vector
    # continuing to itself around the loop
    loop = LoopSpec(tol=1e-9)
    uvec = [s.eval_complex({"w": loop.radius})
            for s in field_u_vector(br)]
    out, err, _ = continue_system(U, loop, uvec)
    assert np.max(np.abs(np.array(out) - np.array(uvec))) < 1e-6


def test_tail_estimate_reported():
    # a term at the truncation boundary signals an unknown tail
    body = MultiSeries(("w",), 6, {(1,): ONE, (6,): qi(3)})
    S = LinearODESystem([[LaurentInW(body, 1, "w")]], unknown="y")
    t = tail_estimate(S, 0.25)
    assert t > 0.0
    # a short exact polynomial reports no tail
    body2 = MultiSeries(("w",), 6, {(1,): ONE})
    S2 = LinearODESystem([[LaurentInW(body2, 1, "w")]], unknown="y")
    assert tail_estimate(S2, 0.25) == 0.0


def reference_rk4_loop(S, loop, Y0):
    """The per-step RK4 loop: four right-hand sides per step, each from a
    scalar Horner evaluation of C(w), under the same doubling schedule."""
    C, pole, _, _ = _dense_matrix_data(S)
    r = loop.radius
    two_pi_i = 2j * np.pi * loop.direction

    def rhs(t, Y):
        w = r * np.exp(two_pi_i * t)
        M = C[-1].copy()
        for d in range(len(C) - 2, -1, -1):
            M = M * w + C[d]
        return two_pi_i * w * (M / w ** pole) @ Y

    def run(nsteps):
        h = 1.0 / nsteps
        Y = np.array(Y0, dtype=complex)
        t = 0.0
        for _ in range(nsteps):
            k1 = rhs(t, Y)
            k2 = rhs(t + h / 2, Y + h / 2 * k1)
            k3 = rhs(t + h / 2, Y + h / 2 * k2)
            k4 = rhs(t + h, Y + h * k3)
            Y = Y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        return Y

    n = loop.steps
    prev = run(n)
    while n < STEP_BUDGET:
        n *= 2
        cur = run(n)
        if float(np.max(np.abs(cur - prev))) < loop.tol:
            return cur, n
        prev = cur
    raise AssertionError("reference loop did not converge")


def assert_matches_reference(Y, Y_ref):
    scale = max(1.0, float(np.max(np.abs(Y_ref))))
    assert np.max(np.abs(np.asarray(Y) - Y_ref)) <= 1e-10 * scale


@pytest.fixture(scope="module")
def model_m1():
    M = build_complex(1, 1, {}, 12)
    basis = formal_symmetries(M.truncate(12))
    E = eliminate(M, 12)
    return {"basis": basis, "usys": assemble_u_system(E),
            "ysys": assemble_Y_system(E)}


@pytest.mark.parametrize("direction", (1, -1))
def test_transfer_loop_matches_per_step_loop_on_a_constant_system(direction):
    S = const_system(random_bounded_matrix(random.Random(7), 4))
    loop = LoopSpec(steps=100, direction=direction, tol=1e-9)
    res = monodromy_matrix(S, loop)
    Y_ref, steps = reference_rk4_loop(S, loop, np.eye(4))
    assert res.steps == steps
    assert_matches_reference(res.matrix, Y_ref)


@pytest.mark.parametrize("system", ("usys", "ysys"))
@pytest.mark.parametrize("steps", (64, 100, 333))
def test_transfer_loop_matches_per_step_loop_on_the_model(model_m1, system,
                                                          steps):
    """A w-dependent system: its step matrices do not commute, so the
    order of the chunk products shows."""
    S = model_m1[system]
    loop = LoopSpec(steps=steps, tol=1e-9)
    res = monodromy_matrix(S, loop)
    Y_ref, ref_steps = reference_rk4_loop(S, loop, np.eye(S.n))
    assert res.steps == ref_steps
    assert_matches_reference(res.matrix, Y_ref)


def test_transfer_loop_matches_per_step_loop_on_one_and_d_columns(model_m1):
    U = model_m1["usys"]
    loop = LoopSpec(steps=100, tol=1e-9)
    y0 = np.arange(1, U.n + 1) / U.n
    y, _, steps = continue_system(U, loop, y0)
    y_ref, ref_steps = reference_rk4_loop(U, loop, y0.reshape(-1, 1))
    assert steps == ref_steps
    assert_matches_reference(y, y_ref[:, 0])
    uvecs = [field_u_vector(L) for L in model_m1["basis"].fields]
    B = np.array([[c.eval_complex({"w": loop.radius}) for c in v]
                  for v in uvecs]).T
    psi, _ = infinitesimal_monodromy(uvecs, U, loop)
    Y_ref, ref_steps = reference_rk4_loop(U, loop, B)
    Y, _, steps = _rk4_loop(_dense_matrix_data(U), loop, B)
    assert steps == ref_steps
    assert_matches_reference(Y, Y_ref)
    psi_ref = np.linalg.lstsq(B, Y_ref, rcond=None)[0]
    assert_matches_reference(psi, psi_ref)


def test_invertible_is_relative_to_the_hadamard_bound():
    small = MonodromyResult(1e-3 * np.eye(8), 0.0, 0.0, 1.0, 64)
    assert small.invertible()  # det 1e-24, yet well conditioned
    # rank 7 with entries ~1e6: rounding leaves |det| ~ 1e32, far above
    # any absolute threshold but ~1e-18 of the Hadamard bound
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 7)) @ rng.standard_normal((7, 8)) * 4e5
    assert abs(np.linalg.det(A)) > 1.0
    big = MonodromyResult(A, 0.0, 0.0, 1.0, 64)
    assert not big.invertible()


def test_as_dict_writes_null_for_non_finite_diagnostics():
    res = MonodromyResult(np.eye(2), 1e-12, float("inf"), float("inf"), 64)
    d = res.as_dict()
    assert d["tail_estimate"] is None and d["condition"] is None
    assert d["residual"] == 1e-12


def _steps_evaluated(monkeypatch):
    """Count the RK4 steps whose nodes _eval_poly_matrix is asked for."""
    seen = []
    real = monodromy._eval_poly_matrix

    def counted(C, w):
        seen.append((len(w) - 1) // 2)
        return real(C, w)
    monkeypatch.setattr(monodromy, "_eval_poly_matrix", counted)
    return seen


def test_a_loop_at_its_rounding_floor_stops_after_the_stalled_doubling(
        monkeypatch):
    """The real m=2 model Y-system has entries ~8.5e5, so runs of 2^14 and
    2^15 steps differ by more (3.1e-6) than runs of 2^13 and 2^14 (1.1e-6),
    within eps * 2^15 * max|M| ~ 6.2e-6: the 2^16 and 2^17 runs cannot
    reach the absolute tol."""
    S = assemble_Y_system(eliminate(real_to_complex(build_real(2, 1, {}, 12)),
                                    12))
    seen = _steps_evaluated(monkeypatch)
    with pytest.raises(NonConvergenceError,
                       match="runs of 16384 and 32768 steps differ by "
                             ".* not below 1e-10"):
        monodromy_matrix(S, LoopSpec())
    # runs of 256, 512, ..., 2^15 steps
    assert sum(seen) == sum(256 << k for k in range(8))


def test_a_loop_whose_differences_still_shrink_exhausts_the_budget(
        monkeypatch):
    monkeypatch.setattr(monodromy, "STEP_BUDGET", 256)
    S = const_system([[qi(Fraction(1, 2))]])
    seen = _steps_evaluated(monkeypatch)
    with pytest.raises(NonConvergenceError,
                       match="not converge below 1e-12 within 256 steps"):
        continue_system(S, LoopSpec(steps=64, tol=1e-12), [1.0])
    # three runs
    assert sum(seen) == 64 + 128 + 256


CONVERGING_LOOPS = [
    # name, system rows, LoopSpec keywords, trusted radius, steps
    ("half", [[Fraction(1, 2)]], {}, TRUSTED_RADIUS, 512),
    ("integer-1", [[1]], {}, TRUSTED_RADIUS, 2048),
    ("integer-3", [[3]], {}, TRUSTED_RADIUS, 8192),
    ("diag-half", [[Fraction(1, 2), 0], [0, 0]], {}, TRUSTED_RADIUS, 512),
    ("radius-0.35", [[Fraction(1, 3), 1], [0, Fraction(1, 2)]],
     {"radius": 0.35}, 0.5, 1024),
    ("reverse", [[Fraction(1, 2), 1], [0, Fraction(1, 4)]],
     {"direction": -1}, TRUSTED_RADIUS, 1024),
]


@pytest.mark.parametrize("rows,spec,trusted,steps",
                         [c[1:] for c in CONVERGING_LOOPS],
                         ids=[c[0] for c in CONVERGING_LOOPS])
def test_converging_loops_keep_their_step_counts(rows, spec, trusted, steps):
    S = const_system([[qi(x) for x in row] for row in rows])
    res = monodromy_matrix(S, LoopSpec(tol=1e-9, trusted_radius=trusted,
                                       **spec))
    assert res.steps == steps


@pytest.mark.parametrize("system,steps", (("usys", 4096), ("ysys", 512)))
def test_converging_model_loops_keep_their_step_counts(model_m1, system,
                                                       steps):
    assert monodromy_matrix(model_m1[system], LoopSpec(tol=1e-9)).steps == \
        steps
