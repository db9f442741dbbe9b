"""The Y-system A against two independent checks.

`assemble_Y_system` reads A off the u-system's solved second derivatives
through the gauge Y = G(w) u.  The reference below solves the structural
tangency a second time, directly in the Y unknowns (P0, P1, R0, R1) with
Q = w R substituted before the solve, and assembles A from that solve.
The truncation oracles rebuild A, and the u-system's C that the solve
yields directly, from the surface truncated a few orders lower and check
every entry, zero entries included, through the order the lower build
claims for it.
"""

import functools

import pytest

from segrefuchs.frobenius import holomorphic_solutions
from segrefuchs.fuchs import check_fuchsian_ode
from segrefuchs.prolongation import (LinForm, LinearODESystem, STRUCT_ALG,
                                     _solve_tags, assemble_Y_system,
                                     assemble_u_system,
                                     structural_field, tangency_forms)
from segrefuchs.qfield import ONE
from segrefuchs.segre import WV, ZETA, eliminate
from segrefuchs.series import LaurentInW, MultiSeries
from segrefuchs.surfaces import Z, build_complex, build_real, real_to_complex
from reference import dense_surface, equal_mod


def reference_A(E):
    """A of dY/dw = A Y / w from the structural solve in the Y unknowns.

    Row 4 + i holds w^2 times the solved second derivative of the i-th
    unknown, its first-derivative tags times w, plus 1 on the diagonal.
    """
    V3 = (Z, WV, ZETA)
    names = ("P0", "P1", "R0", "R1")
    P0, P1, R0, R1 = (LinForm.unknown((n, 0), STRUCT_ALG) for n in names)
    w = MultiSeries.variable(WV, V3)
    at = E.a_tilde()
    Pf, Qf = structural_field(LaurentInW(at.body.embed(V3), at.pole, WV),
                              MultiSeries.variable(Z, V3), P0, P1,
                              R0 * w, R1 * w)
    T = tangency_forms(Pf, Qf, E)
    # each slot over its pivot's power of w: w^(j*m), times w for R = Q/w
    slots = [T.slice({ZETA: jz, Z: kz}).div_w(jz * E.m + (n[0] == "R"))
             for n, (jz, kz) in zip(names, ((3, 0), (3, 1), (2, 0), (2, 1)))]
    solved = _solve_tags(slots, [(n, 2) for n in names],
                         {(n, d) for n in names for d in (0, 1)})
    A = [[MultiSeries.zero((WV,)) for _ in range(8)] for _ in range(8)]
    for i in range(4):
        A[i][4 + i] = MultiSeries.const(ONE, (WV,))
    for i, n in enumerate(names, 4):
        A[i][i] = A[i][i] + MultiSeries.const(ONE, (WV,))
        for (base, d), c in solved[(n, 2)].coef.items():
            j = names.index(base) + 4 * d
            A[i][j] = A[i][j] + c.mul_w(2 - d).as_series()
    return A


def real_model(m):
    return build_real(m, 1, {}, 3 * m + 8)


def complex_model(m):
    return build_complex(m, 1, {}, 3 * m + 8)


SURFACES = {
    "real-model-m1": lambda: real_model(1),
    "real-model-m2": lambda: real_model(2),
    "real-model-m3": lambda: real_model(3),
    "complex-model-m1": lambda: complex_model(1),
    "complex-model-m2": lambda: complex_model(2),
    "complex-model-m3": lambda: complex_model(3),
    "dense-m1-N14": lambda: dense_surface(14),
    "dense-m2-N17": lambda: dense_surface(17, 2, fuchsian=True),
    "dense-m3-N19": lambda: dense_surface(19, 3, fuchsian=True),
}


def _ode(M):
    return eliminate(real_to_complex(M) if hasattr(M, "psi") else M)


@functools.lru_cache(maxsize=None)
def _build(name, k=0):
    """(E, Y-system) of the named surface truncated k orders lower."""
    M = SURFACES[name]()
    E = _ode(M.truncate(M.order - k))
    return E, assemble_Y_system(E, check_fuchsian_ode(E))


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_gauge_matches_two_shape_reference(name):
    """Coefficient for coefficient through the lower of the two orders; the
    Frobenius window is the same either way."""
    E, Y = _build(name)
    A, ref = Y.fuchsian_A(), reference_A(E)
    for i in range(8):
        for j in range(8):
            order = min(A[i][j].order, ref[i][j].order)
            assert equal_mod(A[i][j], ref[i][j], order), (i, j)
    ref_sys = LinearODESystem([[LaurentInW(a, 1, WV) for a in row]
                               for row in ref], Y.unknown)
    assert holomorphic_solutions(Y).order == \
        holomorphic_solutions(ref_sys).order


# LinForm drops a coefficient that is zero only through a finite order, so
# an entry the lower surface does not determine can come out as an exact
# zero, or with an order it does not have.
OVERCLAIMS = {
    ("real-model-m3", 3): "at N = 14, A[4][0] and A[5][6] claim an exact "
                          "zero and A[7][3] = 3 + ... claims order 3; from "
                          "N = 15 on A[7][3] = -3 + O(w)",
    ("dense-m3-N19", 2): "at N = 17, A[5][0] and A[5][3] claim an exact "
                         "zero that N = 19 contradicts",
    ("dense-m3-N19", 3): "at N = 16, A[4][3], A[5][0], A[5][3] and A[7][0] "
                         "claim an exact zero that N = 19 contradicts",
}
# the same in the u-system's C, whose rows 2, 3, 6, 7 A is read off
U_OVERCLAIMS = {
    ("real-model-m3", 3): "at N = 14, C[2][0], C[3][4], C[3][6] and C[7][5] "
                          "claim an exact zero that N = 17 contradicts",
    ("dense-m3-N19", 2): "at N = 17, C[3][0] and C[3][5] claim an exact "
                         "zero that N = 19 contradicts",
    ("dense-m3-N19", 3): "at N = 16, C[2][5], C[3][0], C[3][5] and C[7][0] "
                         "claim an exact zero that N = 19 contradicts",
}


def _truncations(overclaims):
    """(name, k) for every surface and k = 1, 2, 3; a strict xfail where
    overclaims gives the reason."""
    return [pytest.param(name, k, marks=pytest.mark.xfail(
        strict=True, reason=overclaims[name, k])
        if (name, k) in overclaims else ())
        for name in sorted(SURFACES) for k in (1, 2, 3)]


@pytest.mark.parametrize("name,k", _truncations(OVERCLAIMS))
def test_truncation_oracle(name, k):
    """Every entry of A from the surface truncated k orders lower, zero
    entries included, agrees with A from the full surface through the
    order the lower build claims (or the full build's, if lower)."""
    full = _build(name)[1].fuchsian_A()
    low = _build(name, k)[1].fuchsian_A()
    assert [(i, j) for i in range(8) for j in range(8)
            if not equal_mod(low[i][j], full[i][j],
                             min(low[i][j].order, full[i][j].order))] == []


@functools.lru_cache(maxsize=None)
def _u_entries(name, k=0):
    return assemble_u_system(_build(name, k)[0]).entries


@pytest.mark.parametrize("name,k", _truncations(U_OVERCLAIMS))
def test_u_system_truncation_oracle(name, k):
    """Every entry C[i][j] of the u-system from the surface truncated k
    orders lower, zero entries included, agrees with C from the full
    surface: their difference, taken over the larger of the two poles,
    vanishes through the lower of the two orders."""
    full, low = _u_entries(name), _u_entries(name, k)
    assert [(i, j) for i in range(8) for j in range(8)
            if not (low[i][j] - full[i][j]).is_zero()] == []
