"""The random-tail oracle: each stage is trusted through its stated order.

A real table through N is given two different seeded random tails above N
(`reference.random_tail`).  phi and Phi computed from the table must agree
with those computed from each tail through their own stated orders.  The
truncation oracles compare a surface with a higher build of the same data,
whose true tail is often zero on a structured surface; a random tail is
not.  Only stated <= certified is asserted, so a deeper stated order that
the tails certify passes too.
"""

import pytest

from segrefuchs.segre import eliminate
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
