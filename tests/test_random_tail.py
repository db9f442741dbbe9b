"""The random-tail oracle: each stage is trusted through its stated order.

A real table through N is given two different seeded random tails above N
(`reference.random_tail`).  phi, Phi and every entry of the Y-system's A
computed from the table must agree with those computed from each tail
through their own stated orders.  The truncation oracles compare a surface
with a higher build of the same data, whose true tail is often zero on a
structured surface; a random tail is not.  Only stated <= certified is
asserted, so a deeper stated order that the tails certify passes too.

The same surface at two input orders must agree too: the symmetries of the
real m-model state one dimension per stated order, and an order that never
falls as the input order rises.
"""

from functools import cache
from itertools import product

import pytest

from segrefuchs.frobenius import formal_symmetries
from segrefuchs.prolongation import assemble_Y_system
from segrefuchs.segre import eliminate
from segrefuchs.series import EXACT
from segrefuchs.surfaces import build_real, real_to_complex
from reference import (H22_U, H22_U2, SQRT2_TABLE, dense_surface, equal_mod,
                       random_tail)

# dense tables at m = 1, 2, 3 and the model-sparse ladder of the benchmark
RUNGS = {
    "dense-m1-N13": lambda: dense_surface(13, 1),
    "dense-m2-N17": lambda: dense_surface(17, 2),
    "dense-m3-N19": lambda: dense_surface(19, 3),
    "model-m1-N24": lambda: build_real(1, 1, {}, 24),
    "model-m1-N32": lambda: build_real(1, 1, {}, 32),
    "model-m1-N40": lambda: build_real(1, 1, {}, 40),
    "model-m2-N24": lambda: build_real(2, 1, {}, 24),
    "model-m3-N28": lambda: build_real(3, 1, {}, 28),
    "h22u-m2-N20": lambda: build_real(2, 1, H22_U, 20),
    "h22u2-m3-N24": lambda: build_real(3, 1, H22_U2, 24),
    "sqrt2-m2-N20": lambda: build_real(2, 1, SQRT2_TABLE, 20),
}


@pytest.mark.parametrize("label", list(RUNGS))
def test_phi_and_Phi_agree_with_random_tails(label):
    M = RUNGS[label]()
    Mc = real_to_complex(M)
    phi, Phi = Mc.phi, eliminate(Mc).Phi
    tails = [real_to_complex(random_tail(M, 3, seed)) for seed in (1, 2)]
    # the tails differ, so agreeing with both is not vacuous
    assert not equal_mod(tails[0].phi, tails[1].phi, phi.order + 3)
    for T in tails:
        assert T.phi.order == phi.order + 3
        assert equal_mod(phi, T.phi, phi.order)
        assert equal_mod(Phi, eliminate(T).Phi, Phi.order)


# the Y-system needs a Fuchsian surface: the dense tables with Fuchsian
# bounds at m = 2, 3 (at m = 1 every dense table is) and the structured
# rungs
A_RUNGS = {
    "dense-m1-N13": RUNGS["dense-m1-N13"],
    "dense-fuchsian-m2-N17": lambda: dense_surface(17, 2, fuchsian=True),
    "dense-fuchsian-m3-N19": lambda: dense_surface(19, 3, fuchsian=True),
    **{label: build for label, build in RUNGS.items()
       if not label.startswith("dense")},
}
# two of the entries each structured rung claims as exact that a random
# tail contradicts
A_OVERCLAIMS = {label: "A[4][1] and A[5][0]" for label in A_RUNGS
                if not label.startswith("dense")}
A_OVERCLAIMS["sqrt2-m2-N20"] = "A[4][3] and A[7][0]"


def _A(M):
    return assemble_Y_system(eliminate(real_to_complex(M))).fuchsian_A()


@pytest.mark.parametrize("label", [
    pytest.param(label, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="%s claim an exact zero that a random tail contradicts; "
        "ROADMAP item 2" % A_OVERCLAIMS[label])
        if label in A_OVERCLAIMS else ())
    for label in A_RUNGS])
def test_A_entries_agree_with_random_tails(label):
    """Every entry of A, zero and constant entries included, agrees with
    A from both tails through its stated order; an entry claimed exact is
    exact and equal on both tails."""
    M = A_RUNGS[label]()
    A = _A(M)
    tails = [_A(random_tail(M, 3, seed)) for seed in (1, 2)]
    bad = []
    for (i, j), T in product(product(range(8), repeat=2), tails):
        a, b = A[i][j], T[i][j]
        if not (a == b if a.order == EXACT else
                b.order >= a.order and equal_mod(a, b, a.order)):
            bad.append((i, j))
    assert bad == []


# ---------- order consistency: the m-model from its floor 4m+2 to 4m+8 ----

@cache
def _symmetries(m, N):
    """(dimension, stated order) of the symmetries of the real m-model
    given through order N."""
    basis = formal_symmetries(real_to_complex(build_real(m, 1, {}, N)))
    return basis.dimension, basis.order


# the floor N = 4m+2 states dimension 4 or 5, where the true algebra has
# dimension 2, and an order that N = 4m+3 lowers
FLOOR_DEFECT = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the floor N = 4m+2 over-claims its zeros and states too deep an "
    "order; ROADMAP items 2 and 17")


@pytest.mark.parametrize("m", [pytest.param(m, marks=FLOOR_DEFECT)
                               for m in (1, 2, 3)])
def test_equal_stated_orders_give_equal_dimensions(m):
    dimensions = {}
    for N in range(4 * m + 2, 4 * m + 9):
        dimension, order = _symmetries(m, N)
        dimensions.setdefault(order, set()).add(dimension)
    assert all(len(d) == 1 for d in dimensions.values()), dimensions


@pytest.mark.parametrize("m,N", [
    pytest.param(m, N, marks=FLOOR_DEFECT if N == 4 * m + 3 else ())
    for m in (1, 2, 3) for N in range(4 * m + 3, 4 * m + 9)])
def test_the_stated_order_never_falls_as_the_input_order_rises(m, N):
    assert _symmetries(m, N)[1] >= _symmetries(m, N - 1)[1]
