import random
from fractions import Fraction

import pytest

from segrefuchs.qfield import ONE, qi
from segrefuchs.series import MultiSeries
from segrefuchs.surfaces import (build_real, build_complex, real_to_complex,
                                 complex_to_real)
from segrefuchs.segre import eliminate
from segrefuchs.fuchs import (check_fuchsian_real, check_fuchsian_complex,
                              check_fuchsian_ode,
                              FUCHSIAN, NON_FUCHSIAN)
from segrefuchs.errors import OrderTooLowError
from segrefuchs import serialize
from reference import (conj, dense_surface, mero_pole_rows, u_series,
                       wb_series)


def random_real_table(rng, order, fuchsian, m):
    tbl = {}
    bounds = {(2, 2): m - 1, (2, 3): 2 * m - 2, (3, 3): 2 * m - 2,
              (2, 4): 3 * m - 3, (3, 4): 3 * m - 3}
    for (k, l), bound in bounds.items():
        if rng.random() < 0.4:
            continue
        lo = bound if fuchsian else rng.choice([0, bound])
        deg = rng.randint(max(lo, 0), max(lo, 0) + 2)
        c = qi(Fraction(rng.randint(1, 4), rng.randint(1, 3)),
               rng.randint(-2, 2))
        if k == l:
            # h_kk = conj(h_kk) is real
            c = qi(c.re)
        tbl[(k, l)] = u_series({deg: c})
        if k != l:
            tbl[(l, k)] = u_series({deg: conj(c)})
    return tbl


def test_m1_always_fuchsian():
    rng = random.Random(42)
    for _ in range(10):
        tbl = random_real_table(rng, 7, fuchsian=False, m=1)
        M = build_real(1, 1, tbl, 7)
        assert check_fuchsian_real(M).verdict == FUCHSIAN


def test_m2_bound_examples():
    u = MultiSeries.variable("u", ("u",))
    A = build_real(2, 1, {(2, 2): u}, 8)
    assert check_fuchsian_real(A).verdict == FUCHSIAN
    B = build_real(2, 1, {(2, 2): MultiSeries.const(1, ("u",))}, 8)
    rep = check_fuchsian_real(B)
    assert rep.verdict == NON_FUCHSIAN
    assert rep.witnesses()[0].name == "h22"


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", ["model", "dense"])
def test_one_surface_one_ledger(kind, m):
    """Both forms of one surface, built or loaded, trust h_kl and phi_kl
    through the same order N - m - k - l."""
    N = 3 * m + 8
    M = build_real(m, 1, {}, N) if kind == "model" else dense_surface(N, m)
    loaded = serialize.surface_from_json(serialize.surface_to_json(M))
    for rep in (check_fuchsian_real(M), check_fuchsian_real(loaded),
                check_fuchsian_complex(real_to_complex(M))):
        assert [r.available for r in rep.rows] == \
            [N - m - int(r.name[-2]) - int(r.name[-1]) for r in rep.rows]


def test_complex_bounds():
    wb = MultiSeries.variable("wb", ("wb",))
    A = build_complex(2, 1, {(2, 2): wb}, 8)
    assert check_fuchsian_complex(A).verdict == FUCHSIAN
    # m=3: ord phi23 = 3 < 2m-2 = 4 fails
    B = build_complex(3, 1, {(2, 3): wb_series({3: ONE})}, 11)
    rep = check_fuchsian_complex(B)
    assert rep.verdict == NON_FUCHSIAN
    assert any(r.name == "phi23" for r in rep.witnesses())
    C = build_complex(1, 1, {(2, 2): wb_series({0: qi(5)})}, 7)
    assert check_fuchsian_complex(C).verdict == FUCHSIAN


def test_ode_side_and_pole_view():
    M = build_complex(2, 1,
                      {(2, 2): MultiSeries.const(1, ("wb",))}, 12)
    E = eliminate(M)
    rep = check_fuchsian_ode(E)
    assert rep.verdict == NON_FUCHSIAN
    names = {r.name for r in rep.witnesses()}
    assert "a0" in names
    rows = mero_pole_rows(E)
    arow = [r for r in rows if r["name"] == "a(0,w)"][0]
    assert arow["pole"] == 2 and not arow["ok"]


@pytest.mark.parametrize("m,table", [
    (1, {}),
    (2, {(2, 2): {1: qi(1)}}),
    (2, {(2, 2): {0: qi(3)}}),
    (3, {(2, 2): {2: qi(1)},
         (2, 3): {4: qi(1, 1)}, (3, 2): {4: qi(1, -1)}}),
    (3, {(2, 2): {0: qi(1)}}),
])
def test_three_way_consistency(m, table):
    tbl = {kl: u_series(t) for kl, t in table.items()}
    Mr = build_real(m, 1, tbl, 3 * m + 6)
    rep_r = check_fuchsian_real(Mr)
    Mc = real_to_complex(Mr)
    rep_c = check_fuchsian_complex(Mc)
    E = eliminate(Mc)
    rep_o = check_fuchsian_ode(E)
    assert rep_r.verdict == rep_c.verdict == rep_o.verdict
    Mr2 = complex_to_real(Mc)
    assert check_fuchsian_real(Mr2).verdict == rep_r.verdict


def test_monotone_in_order():
    """Raising the truncation never flips fuchsian to non-fuchsian."""
    u = MultiSeries.variable("u", ("u",))
    for order in (8, 10, 12, 14):
        M = build_real(2, 1, {(2, 2): u}, order)
        assert check_fuchsian_real(M).verdict == FUCHSIAN
    for order in (8, 10, 12, 14):
        B = build_real(2, 1, {(2, 2): MultiSeries.const(1, ("u",))}, order)
        assert check_fuchsian_real(B).verdict == NON_FUCHSIAN


def test_vacuous_rows_annotated():
    M = build_real(2, 1, {}, 8)
    rep = check_fuchsian_real(M)
    assert rep.verdict == FUCHSIAN
    assert all(r.status == "vacuous" for r in rep.rows)
    d = rep.as_dict()
    assert d["rows"][0]["status"] == "vacuous"


def test_order_guard():
    M = build_real(2, 1, {}, 6)
    with pytest.raises(OrderTooLowError):
        check_fuchsian_real(M)
