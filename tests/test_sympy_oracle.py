"""Differential tests of the exact kernel against sympy.

sympy is an independent implementation of the same arithmetic.  Its sparse
polynomial rings over Q carry i and s = sqrt2 as two more generators,
reduced by i**2 = -1 and s**2 = 2 after each product; in them the tests
check the field operations, truncated exp and log, substitution and the
residual of an implicit solve.  The exact linear algebra is checked in
sympy's algebraic field Q<sqrt2 + i>, whose arithmetic goes through a
primitive element instead.  Skipped when sympy is not installed.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from segrefuchs import linalg
from segrefuchs.frobenius import in_span
from segrefuchs.prolongation import VectorField
from segrefuchs.qfield import GaussianRational, ZERO, ONE
from segrefuchs.series import (MultiSeries, EXACT, exp_series, log_series,
                               solve_implicit)
from reference import conj, equal_mod, of_sqrt2

sp = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402


def field_ring(vars):
    """Q[vars, i, s] and its generators."""
    return ring(",".join(vars + ("i", "s")), sp.QQ)


def reduced(p):
    """p modulo i**2 + 1 and s**2 - 2 (i, s are the last two generators)."""
    out = p.ring.zero
    for e, c in p.terms():
        ei, es = e[-2], e[-1]
        factor = (-1) ** (ei // 2) * 2 ** (es // 2)
        out += p.ring({e[:-2] + (ei % 2, es % 2): c * factor})
    return out


def to_ring(s, R):
    """A series (or one coefficient) as an element of R = field_ring."""
    if isinstance(s, GaussianRational):
        s = MultiSeries.const(s, ())
    out = {}
    for e, c in s.terms.items():
        pad = (0,) * (R.ngens - 2 - len(e))
        for part, key in ((c.a, (0, 0)), (c.b, (1, 0)), (c.c, (0, 1)),
                          (c.d, (1, 1))):
            if part:
                out[e + pad + key] = sp.QQ(part, c.q)
    return R.from_dict(out) if out else R.zero


def truncated(p, order):
    """The terms of total degree <= order in the series variables."""
    return p.ring.from_dict({e: c for e, c in p.terms()
                             if sum(e[:-2]) <= order}) if p else p


def rnd_coeff(rng):
    q = rng.choice((1, 2, 3, 5))
    return (GaussianRational.of(Fraction(rng.randint(-4, 4), q),
                                Fraction(rng.randint(-4, 4), q)) +
            of_sqrt2(Fraction(rng.randint(-3, 3), q),
                     Fraction(rng.randint(-3, 3), q)))


def rnd_series(rng, vars, order, nterms, zero_constant=True):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, 2) for _ in vars)
        if 0 < sum(e) <= order or (sum(e) == 0 and not zero_constant):
            terms[e] = rnd_coeff(rng)
    return MultiSeries(vars, order, terms)


def test_field_axioms_and_inverse():
    R = field_ring(())[0]
    rng = random.Random(11)
    for _ in range(200):
        x, y, z = rnd_coeff(rng), rnd_coeff(rng), rnd_coeff(rng)
        X, Y, Z = to_ring(x, R), to_ring(y, R), to_ring(z, R)
        assert to_ring(x * y, R) == reduced(X * Y)
        assert to_ring(x + y, R) == X + Y
        assert to_ring(x - y, R) == X - Y
        assert to_ring(x * (y + z), R) == reduced(X * Y + X * Z)
        # complex conjugation negates the odd powers of i
        assert to_ring(conj(x), R) == X.compose(R.gens[0],
                                                      -R.gens[0])
        if not x.is_zero():
            assert reduced(to_ring(x.inverse(), R) * X) == R.one
            assert reduced(to_ring(y / x, R) * X) == Y


def test_exp_log_against_sympy():
    R = field_ring(("z", "w"))[0]
    rng = random.Random(12)
    order = 6
    for _ in range(8):
        x = rnd_series(rng, ("z", "w"), order, 5)
        X = to_ring(x, R)
        # Taylor sums in sympy's arithmetic; X has no constant term, so
        # X**k starts at total degree k
        ref_exp, ref_log, power = R.one, R.zero, R.one
        for k in range(1, order + 1):
            power = reduced(truncated(power * X, order))
            ref_exp += power * sp.QQ(1, factorial(k))
            ref_log += power * sp.QQ((-1) ** (k + 1), k)
        e = exp_series(x)
        assert to_ring(e, R) == ref_exp
        one_plus = x + MultiSeries.const(ONE, x.vars)
        assert to_ring(log_series(one_plus), R) == ref_log
        # the round trips
        assert equal_mod(log_series(e), x, order)
        assert equal_mod(exp_series(log_series(one_plus)), one_plus, order)


def test_compose_against_sympy():
    R, z, w, _, _ = field_ring(("z", "w"))
    rng = random.Random(13)
    for order in (5, EXACT) * 4:
        f = rnd_series(rng, ("z", "w"), order, 8, zero_constant=False)
        g = rnd_series(rng, ("z", "w"), 5, 5)
        got = f.compose({"w": g})
        assert got.order == min(order, 5)
        ref = reduced(to_ring(f, R).compose(w, to_ring(g, R)))
        assert to_ring(got, R) == truncated(ref, got.order)


def test_solve_implicit_residual_against_sympy():
    vars = ("x1", "x2", "y1", "y2")
    R, _, _, y1, y2, _, _ = field_ring(vars)
    order = 6
    rng = random.Random(14)
    # H = A y + (terms of degree >= 2 in y), A invertible, solved for
    # H = x: H(0, 0) = 0, and H does not read x, as an inversion needs
    H = []
    for i in range(2):
        lin = {(0, 0, 1, 0): GaussianRational.from_int(2 if i == 0 else 1),
               (0, 0, 0, 1): GaussianRational.from_int(1 if i == 0 else 3)}
        expos = [(0, 0) + tuple(rng.randint(0, 2) for _ in range(2))
                 for _ in range(5)]
        nonlin = {e: rnd_coeff(rng) for e in expos if sum(e) >= 2}
        H.append(MultiSeries(vars, EXACT, {**nonlin, **lin}))
    ys = solve_implicit([h.truncate(order) for h in H], ("x1", "x2"),
                        ("y1", "y2"), ("x1", "x2"))
    F = [h - MultiSeries.variable(x, vars) for h, x in zip(H, ("x1", "x2"))]
    assert [y.order for y in ys] == [order, order]
    Y = [to_ring(y, R) for y in ys]
    for f in F:
        residual = to_ring(f, R).compose([(y1, Y[0]), (y2, Y[1])])
        assert truncated(reduced(residual), order) == R.zero


# ---------- exact linear algebra in Q<sqrt2 + i> ----------

K = sp.QQ.algebraic_field(sp.I, sp.sqrt(2))
K_I, K_S = K.from_sympy(sp.I), K.from_sympy(sp.sqrt(2))


def to_field(x):
    """A coefficient a + b i + (c + d i) sqrt2, all over q, as an element
    of K."""
    a, b, c, d = (K.convert_from(sp.QQ(t, x.q), sp.QQ)
                  for t in (x.a, x.b, x.c, x.d))
    return a + b * K_I + (c + d * K_I) * K_S


def to_domain_matrix(M, cols):
    return DomainMatrix([[to_field(x) for x in row] for row in M],
                        (len(M), cols), K)


def rnd_matrix(rng, n, m, rank, zero_share):
    """An n x m matrix of rank at most `rank`: a product n x rank by
    rank x m of random coefficients, each factor entry zero with
    probability `zero_share`."""
    if rank == 0:
        return linalg.zeros(n, m)

    def factor(r, c):
        return [[rnd_coeff(rng) if rng.random() < 1 - zero_share else ZERO
                 for _ in range(c)] for _ in range(r)]
    return linalg.mat_mul(factor(n, rank), factor(rank, m))


# a sparse setting gives zero rows, zero columns and late pivots, where rref
# skips zero entries
DENSE, SPARSE = 0.2, 0.7


def with_sparse(cases):
    """Each case at DENSE under its plain id, and at SPARSE with "-sparse"
    appended unless its rank is 0."""
    return [pytest.param(*case, share,
                         id="-".join(map(str, case)) + suffix)
            for case in cases
            for share, suffix in ((DENSE, ""), (SPARSE, "-sparse"))
            if share == DENSE or case[-1] > 0]


MATRIX_SHAPES = [(n, m, r) for n, m in ((1, 1), (2, 2), (3, 3), (4, 4),
                                        (3, 5), (5, 3), (4, 6))
                 for r in sorted({min(n, m), min(n, m) - 1, 1, 0})]


@pytest.mark.parametrize("n,m,rank,zero_share", with_sparse(MATRIX_SHAPES))
def test_rref_and_kernel_against_sympy(n, m, rank, zero_share):
    rng = random.Random(repr(("rref", n, m, rank)))
    for _ in range(3):
        M = rnd_matrix(rng, n, m, rank, zero_share)
        D = to_domain_matrix(M, m)
        ref, ref_pivots = D.rref()
        R, pivots = linalg.rref(M)
        # the reduced row echelon form is unique
        assert pivots == list(ref_pivots)
        assert to_domain_matrix(R, m) == ref
        kernel = linalg.kernel_basis(M)
        assert len(kernel) == m - D.rank()
        if kernel:
            Kmat = to_domain_matrix(kernel, m)
            assert Kmat.rank() == len(kernel)
            assert (D * Kmat.transpose()).is_zero_matrix


@pytest.mark.parametrize("n,rank,zero_share", with_sparse(
    [(n, r) for n in (1, 2, 3, 4, 5) for r in sorted({n, n - 1, 1, 0})]))
def test_charpoly_and_det_against_sympy(n, rank, zero_share):
    rng = random.Random(repr(("charpoly", n, rank)))
    for _ in range(3):
        A = rnd_matrix(rng, n, n, rank, zero_share)
        D = to_domain_matrix(A, n)
        # sympy lists the coefficients highest degree first
        assert [to_field(c) for c in reversed(linalg.charpoly(A))] == \
            D.charpoly()
        assert to_field(linalg.det(A)) == D.det()
        assert linalg.det(A).is_zero() == (D.rank() < n)


def rnd_field(rng, nterms):
    """P d/dz + Q d/dw with up to `nterms` random terms per component, of
    total degree up to 5."""
    def component():
        return MultiSeries(("z", "w"), EXACT,
                           {(rng.randint(0, 3), rng.randint(0, 2)):
                            rnd_coeff(rng) for _ in range(nterms)})
    return VectorField(component(), component())


def field_rank(fields, order):
    """sympy's rank of the dense coefficient rows, one per field over every
    (component, z-power, w-power) of total degree <= order."""
    if not fields:
        return 0
    rows = [[to_field(s.coefficient((kz, kw))) for s in (L.P, L.Q)
             for kz in range(order + 1) for kw in range(order + 1 - kz)]
            for L in fields]
    return DomainMatrix(rows, (len(rows), len(rows[0])), K).rank()


@pytest.mark.parametrize("nfields,nothers",
                         [(0, 0), (0, 2), (2, 0), (1, 1), (2, 2), (3, 2)])
def test_in_span_against_sympy(nfields, nothers):
    rng = random.Random(repr(("in_span", nfields, nothers)))
    seen = set()
    for order in range(4):
        for _ in range(4):
            fields = [rnd_field(rng, 2) for _ in range(nfields)]
            # a combination of the fields plus a random part, which may be
            # empty or lie above the order
            others = []
            for _ in range(nothers):
                L = rnd_field(rng, rng.randint(0, 2))
                for F in fields:
                    c = rnd_coeff(rng)
                    L = L + VectorField(F.P.scale(c), F.Q.scale(c))
                others.append(L)
            expect = (field_rank(fields + others, order) ==
                      field_rank(fields, order))
            # callers pass lists and generators alike
            assert in_span(iter(fields), (L for L in others), order) == \
                expect
            seen.add(expect)
    assert seen == ({True, False} if nothers else {True})
