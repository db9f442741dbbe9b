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
from segrefuchs.qfield import GaussianRational, ZERO, ONE
from segrefuchs.series import (MultiSeries, EXACT, exp_series, log_series,
                               solve_implicit)

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
            GaussianRational.of_sqrt2(Fraction(rng.randint(-3, 3), q),
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
        assert to_ring(x.conjugate(), R) == X.compose(R.gens[0],
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
        assert log_series(e).equal_mod(x, order)
        assert exp_series(log_series(one_plus)).equal_mod(one_plus, order)


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
    vars = ("x", "y1", "y2")
    R, x, y1, y2, _, _ = field_ring(vars)
    order = 6
    rng = random.Random(14)
    # F = A y + c x + (terms of degree >= 2), A invertible: F(0, 0) = 0
    F = []
    for i in range(2):
        lin = {(0, 1, 0): GaussianRational.from_int(2 if i == 0 else 1),
               (0, 0, 1): GaussianRational.from_int(1 if i == 0 else 3),
               (1, 0, 0): rnd_coeff(rng)}
        expos = [tuple(rng.randint(0, 2) for _ in vars) for _ in range(5)]
        nonlin = {e: rnd_coeff(rng) for e in expos if sum(e) >= 2}
        F.append(MultiSeries(vars, EXACT, {**nonlin, **lin}))
    ys = solve_implicit([f.truncate(order) for f in F], ("x",), ("y1", "y2"))
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


def rnd_matrix(rng, n, m, rank):
    """An n x m matrix of rank at most `rank`: a product n x rank by
    rank x m of random coefficients, some of them zero."""
    if rank == 0:
        return linalg.zeros(n, m)

    def factor(r, c):
        return [[rnd_coeff(rng) if rng.random() < 0.8 else ZERO
                 for _ in range(c)] for _ in range(r)]
    return linalg.mat_mul(factor(n, rank), factor(rank, m))


MATRIX_SHAPES = [(n, m, r) for n, m in ((1, 1), (2, 2), (3, 3), (4, 4),
                                        (3, 5), (5, 3), (4, 6))
                 for r in sorted({min(n, m), min(n, m) - 1, 1, 0})]


@pytest.mark.parametrize("n,m,rank", MATRIX_SHAPES)
def test_rref_and_kernel_against_sympy(n, m, rank):
    rng = random.Random(repr(("rref", n, m, rank)))
    for _ in range(3):
        M = rnd_matrix(rng, n, m, rank)
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


@pytest.mark.parametrize("n,rank", [(n, r) for n in (1, 2, 3, 4, 5)
                                    for r in sorted({n, n - 1, 1, 0})])
def test_charpoly_and_det_against_sympy(n, rank):
    rng = random.Random(repr(("charpoly", n, rank)))
    for _ in range(3):
        A = rnd_matrix(rng, n, n, rank)
        D = to_domain_matrix(A, n)
        # sympy lists the coefficients highest degree first
        assert [to_field(c) for c in reversed(linalg.charpoly(A))] == \
            D.charpoly()
        assert to_field(linalg.det(A)) == D.det()
        assert linalg.det(A).is_zero() == (D.rank() < n)
