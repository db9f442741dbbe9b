"""The one home of the helpers that several test modules share.

Besides the shared builders (the first section), the oracles the tests
hold the package's layers to (the second) and the paper content that no
command runs, kept as second routes (the third), it holds
per-coefficient reference versions of the packed edges of the package.
The package reads and writes series files, conjugates a series and
rescales z on the packed integer tuples of a series (one common
denominator, a tuple (a, b, c, d) per term).  The versions here build one
GaussianRational per term instead, as the package did before; the tests
hold the packed versions to them.  The field helpers that only these
references and the tests use live here too.
"""

import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np

from segrefuchs import linalg
from segrefuchs.blowup import ETA, XI
from segrefuchs.errors import FormatError, NotNormalizableError
from segrefuchs.frobenius import _jet, _matrix_coeffs, _surface_parts
from segrefuchs.fuchs import REAL_BOUNDS, _bound
from segrefuchs.monodromy import _dense_matrix_data, _rk4_loop
from segrefuchs.prolongation import (LinearODESystem, VectorField,
                                     Y12_COMPONENTS, _jet_dw, _jet_dz,
                                     _system_matrix)
from segrefuchs.qfield import GaussianRational, I, ONE, ZERO, qi
from segrefuchs.segre import (AssociatedODE, ETAB, WV, XIB, ZETA,
                             segre_graph)
from segrefuchs.series import (MultiSeries, LaurentInW, EXACT, SeriesError,
                               SingularJacobianError, exp_series,
                               solve_implicit)
from segrefuchs.surfaces import (RealDefining, WB, Z, ZB, build_real,
                                 require_min_order)


# ---------- shared builders ----------

def zw(name):
    return MultiSeries.variable(name, ("z", "w"))


def zero_zw():
    return MultiSeries.zero(("z", "w"))


def u_series(terms, order=EXACT):
    return MultiSeries(("u",), order, {(k,): c for k, c in terms.items()})


def wb_series(terms, order=EXACT):
    return MultiSeries(("wb",), order, {(k,): c for k, c in terms.items()})


def identical(got, ref):
    """The same series, down to its packed data."""
    assert got.vars == ref.vars and got.order == ref.order
    assert got.den == ref.den and got.num == ref.num


def const_system(rows, order=14):
    """dy/dw = A y / w for the constant matrix A = rows, each entry trusted
    through `order`."""
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


def rnd_pullback_field(rng):
    """A random polynomial field whose Q vanishes on w = 0, so that its
    pullback by a blow-up clears the poles."""
    t1, t2 = {}, {}
    for _ in range(3):
        t1[(rng.randint(0, 2), rng.randint(0, 2))] = qi(
            rng.randint(-3, 3), rng.randint(-3, 3))
        t2[(rng.randint(0, 2), rng.randint(1, 2))] = qi(
            rng.randint(-3, 3), rng.randint(-3, 3))
    return VectorField(MultiSeries(("z", "w"), EXACT, t1),
                       MultiSeries(("z", "w"), EXACT, t2))


def dense_surface(N=12, m=1, fuchsian=False):
    """Real surface with every admissible h_kl coefficient nonzero.

    The coefficients are small Gaussian integers fixed by (k, l, j), with
    h_lk = conj(h_kl), so the surface is the same on every platform.  With
    `fuchsian`, each h_kl starts at its REAL_BOUNDS valuation, so the
    surface is Fuchsian at every m (without it, only at m = 1).
    """
    floor = {kl: _bound(expr, m) for kl, expr in REAL_BOUNDS} \
        if fuchsian else {}
    top = N - m
    h = {}
    for k in range(2, top):
        for l in range(k, top - k + 1):
            terms, conj = {}, {}
            for j in range(floor.get((k, l), 0), top - k - l + 1):
                re = (k + 2 * l + 3 * j) % 5 - 2 or 3
                im = 0 if k == l else (2 * k + l + j) % 5 - 2 or -1
                terms[(j,)] = qi(re, im)
                conj[(j,)] = qi(re, -im)
            if terms:
                h[(k, l)] = terms
                if k != l:
                    h[(l, k)] = conj
    return build_real(m, 1, h, N)


def random_tail(M, K, seed):
    """The real surface M of order N with a seeded random tail: M's table
    through N plus every admissible term z^k zb^l u^j (k, l >= 2) of degree
    k + l + j + m = N+1..N+K, with small Gaussian-integer coefficients and
    h_lk = conj(h_kl).  The result has order N + K."""
    rng = random.Random(seed)
    psi = M.psi
    terms = dict(psi.terms)
    for d in range(psi.order + 1, psi.order + K + 1):
        for k in range(2, d - 1):
            for l in range(k, d - k + 1):
                c = qi(rng.choice((-2, -1, 1, 2)),
                       0 if k == l else rng.randint(-2, 2))
                terms[(k, l, d - k - l)] = c
                terms[(l, k, d - k - l)] = conj(c)
    return RealDefining(M.m, M.eps,
                        MultiSeries(psi.vars, psi.order + K, terms))


# the structured h tables of the benchmark's model-sparse ladder
H22_U = {(2, 2): {(1,): ONE}}
H22_U2 = {(2, 2): {(2,): ONE}}
SQRT2_TABLE = {(2, 2): {(1,): ONE}, (2, 3): {(2,): qi(1, 2)},
               (3, 2): {(2,): qi(1, -2)}}


def kl_table(psi):
    """{(k, l): coefficient series of z^k zb^l} of psi over (z, zb, t), for
    each k, l >= 2 that carries a term, read through coeff_of."""
    z, zb, _ = psi.vars
    return {(k, l): psi.coeff_of({z: k, zb: l})
            for k, l, _ in psi.terms if k >= 2 and l >= 2}


GEN_VARS = ("P", "Q", "Pz", "Pw", "Qz", "Qw", "Pzz", "Pzw", "Pww",
            "Qzz", "Qzw", "Qww", "a", "az", "aw", "b", "bz", "bw",
            "c", "cz", "cw", "w1")


def collect_initial_system():
    """Mechanical w1^0..w1^3 collection of the tangency condition.

    Uses opaque symbols for the meromorphic coefficients a, b, c and their
    composite derivatives.  Returns (computed, fixture, diffs): computed[j]
    is the collected equation at w1^j in the canonical orientation
    lhs - rhs = 0; fixture holds the classical four-line form; diffs
    lists the per-line difference (all zero: the fixture is reproduced).
    """
    (P, Q, Pz, Pw, Qz, Qw, Pzz, Pzw, Pww, Qzz, Qzw, Qww, a, az, aw, b, bz, bw,
     c, cz, cw, w1) = (MultiSeries.variable(v, GEN_VARS) for v in GEN_VARS)

    Phi = a * w1 ** 2 + b * w1 ** 3 + c * w1 ** 4
    Phiz = az * w1 ** 2 + bz * w1 ** 3 + cz * w1 ** 4
    Phiw = aw * w1 ** 2 + bw * w1 ** 3 + cw * w1 ** 4
    Phiw1 = a.scale(2) * w1 + b.scale(3) * w1 ** 2 + c.scale(4) * w1 ** 3
    Q1 = Qz + (Qw - Pz) * w1 - Pw * w1 ** 2
    Q2 = (Qzz + (Qzw.scale(2) - Pzz) * w1 + (Qww - Pzw.scale(2)) * w1 ** 2
          - Pww * w1 ** 3 + (Qw - Pz.scale(2)) * Phi - Pw.scale(3) * w1 * Phi)
    T = Q2 - P * Phiz - Q * Phiw - Q1 * Phiw1

    computed = [T.coeff_of({"w1": j}) for j in range(4)]
    # fixture lines, lhs - rhs; the third keeps its split a-terms
    fixture = [
        Qzz,
        Qzw.scale(2) - Pzz - a.scale(2) * Qz,
        (Qww - Pzw.scale(2))
        - (a * (-Qw + Pz.scale(2)) + az * P + aw * Q + b.scale(3) * Qz
           + a.scale(2) * (Qw - Pz)),
        Pww - (b * (Qw - Pz.scale(2)) - a * Pw - bz * P - bw * Q
               - c.scale(4) * Qz + b.scale(3) * (Pz - Qw)),
    ]
    # orientation of the mechanical collection: w1^3 slice is -(line 4)
    oriented = [computed[0], computed[1], computed[2], -computed[3]]
    diffs = [o - f for o, f in zip(oriented, fixture)]
    return oriented, fixture, diffs


def conj(x):
    """Complex conjugate; sqrt2 stays real."""
    return GaussianRational(x.a, -x.b, x.c, -x.d, x.q)


def of_sqrt2(re2, im2=0):
    """re2*sqrt2 + im2*i*sqrt2 from rational parts."""
    re2, im2 = Fraction(re2), Fraction(im2)
    return GaussianRational(0, 0, re2.numerator * im2.denominator,
                            im2.numerator * re2.denominator,
                            re2.denominator * im2.denominator)


def power(x, n):
    """x**n by repeated squaring; a negative n inverts."""
    if n < 0:
        return power(x.inverse(), -n)
    r = ONE
    while n:
        if n & 1:
            r = r * x
        x = x * x
        n >>= 1
    return r


def is_gaussian(x):
    return x.c == 0 and x.d == 0


# ---------- oracles of the package's layers ----------

def equal_mod(a, b, order):
    """Exact equality of all coefficients of two series through total
    degree `order`, which both must be trusted through."""
    a, b = a._aligned(b)
    if min(a.order, b.order) < order:
        raise SeriesError("comparison order exceeds trusted order")
    return all(sum(e) > order for e in (a - b).terms)


def solve_by_degree(F, x_vars, y_vars):
    """The oracle of solve_implicit: y one homogeneous degree at a time,
    y_d = -J0^-1 [F(x, y_<d)]_d, with J0 = dF/dy at the origin.  It composes
    F once per degree and reads no Jacobian past J0; it refuses as
    solve_implicit does, with the same determinant."""
    n = len(y_vars)
    order = min(f.order for f in F)
    all_vars = tuple(x_vars) + tuple(y_vars)
    F = [f.embed(tuple(f.vars) + tuple(v for v in all_vars
                                       if v not in f.vars)) for f in F]
    J = [[f.diff(yv).constant_term() for yv in y_vars] for f in F]
    d = linalg.det(J)
    if d.is_zero():
        raise SingularJacobianError(d)
    Jinv = linalg.inverse(J)

    def cap(s, deg):
        return MultiSeries(s.vars, EXACT, {e: c for e, c in s.terms.items()
                                           if sum(e) <= deg})

    ys = [MultiSeries.zero(tuple(x_vars)) for _ in range(n)]
    for level in range(1, order + 1):
        subs = dict(zip(y_vars, ys))
        vals = [cap(f.truncate(level).compose(subs), level) for f in F]
        ys = [cap(ys[i] - sum((vals[j].scale(Jinv[i][j])
                               for j in range(n)),
                              MultiSeries.zero(tuple(x_vars))), level)
              for i in range(n)]
    return [y.truncate(order) for y in ys]


def verify_ode(M, E):
    """Residual of w'' - Phi(z, w, w'/w^m) along the Segre graphs of M.

    Zero modulo the trusted order iff E is the associated ODE of M (the
    oracle of eliminate).  The residual comes back in the graph variables
    (z, xib, etab); w_p'' is the second z-derivative of the graph series.
    """
    order = min(M.order, E.order)
    g = segre_graph(M.truncate(order))
    sub = E.Phi.compose({WV: g.w.truncate(order),
                         ZETA: g.zeta.truncate(order)})
    return (g.w.diff(Z).diff(Z) - sub).truncate(order)


def segre_system(g):
    """The arguments of eliminate's solve for the graph g: F = (w_p'/w_p^m
    - zeta, w_p - w), solved for (xib, etab) over (z, w, zeta)."""
    vars5 = (Z, WV, ZETA, XIB, ETAB)
    return ([g.zeta.embed(vars5) - MultiSeries.variable(ZETA, vars5),
             g.w.embed(vars5) - MultiSeries.variable(WV, vars5)],
            (Z, WV, ZETA), (XIB, ETAB))


def eliminate_by_composition(M):
    """The associated ODE by substitution into w_p'': the solve of
    eliminate for (xib, etab) as series in (z, w, zeta), then w_p'' (the
    second z-derivative of the graph series) composed with that solution.
    The oracle of eliminate's division along the first integral xib."""
    require_min_order(M)
    g = segre_graph(M)
    lam, om = solve_implicit(*segre_system(g))
    wzz = g.w.diff(Z).diff(Z)
    return AssociatedODE.from_phi(M.m, M.eps,
                                  wzz.compose({XIB: lam, ETAB: om}))


def pullback_relation(M, B):
    """G = eta - etab exp(E) over (xi, xib, etab, eta), the relation that
    pullback_surface solves for eta: E = (eps i / l) etab^(l(m-1))
    phi(xi eta^s, xib etab^s, etab^l), the l-th root of the pulled-back
    defining relation on the branch fixing eta = etab.  The oracle of
    pullback_surface through solve_by_degree."""
    s, l = B.s, B.l
    amb = (XI, XIB, ETAB, ETA)
    phi = M.phi.compose({Z: MultiSeries.monomial(ONE, (1, 0, 0, s), amb),
                         ZB: MultiSeries.monomial(ONE, (0, 1, s, 0), amb),
                         WB: MultiSeries.monomial(ONE, (0, 0, l, 0), amb)})
    E = phi.monomial_mul(ETAB, l * (M.m - 1)).scale(
        (I if M.eps == 1 else -I) * GaussianRational.of(Fraction(1, l)))
    return MultiSeries.variable(ETA, amb) - \
        exp_series(E).monomial_mul(ETAB, 1)


def spy_compose(monkeypatch):
    """The list that every MultiSeries.compose call appends its series to."""
    composed = []
    compose = MultiSeries.compose

    def spy(self, subs):
        composed.append(self)
        return compose(self, subs)
    monkeypatch.setattr(MultiSeries, "compose", spy)
    return composed


def mero_pole_rows(E):
    """Pole-order view of the ODE ledger: ord a(0,w) >= -1, b >= -2,
    c >= -3, with their z-derivative rows."""
    out = []
    for which, bound in (("a", 1), ("b", 2), ("c", 3)):
        cur = E.mero(which)
        nder = 2 if which in ("a", "b") else 1
        for d in range(nder + 1):
            slice0 = cur.body.coeff_of({Z: 0})
            if slice0.is_zero():
                pole = None
            else:
                pole = cur.pole - slice0.var_valuation(WV)
            out.append({"name": "%s%s(0,w)" % (which, "_z" * d),
                        "pole": pole, "bound": bound,
                        "ok": pole is None or pole <= bound})
            cur = cur.diff(Z)
    return out


def real_tangency_residual(L, M):
    """Residual of Q = rho_z P + rho_zb bar(P) + rho_wb bar(Q) on w = rho.

    Zero iff the real flow of L preserves the surface (L lies in the real
    automorphism algebra, not merely its complexification); the oracle of
    real_form_basis.  It is taken at the lower of the two trusted orders.
    """
    order = min(M.order, L.P.order, L.Q.order)
    A, B = _surface_parts(L, M.truncate(order).defining_series(), order)
    return (A + B).truncate(order)


def _residual(entries, y, var):
    """d/d(var) y - M y for the Laurent matrix M = entries."""
    y = [s if isinstance(s, LaurentInW) else LaurentInW(s, 0, WV) for s in y]
    out = []
    for row, yi in zip(entries, y):
        acc = yi.diff(var)
        for e, yj in zip(row, y):
            if not e.is_zero():
                acc = acc - e * yj
        out.append(acc)
    return out


def system_residual(S, u):
    """du/dw - C u for a candidate vector u of w-series (Laurent ok) of
    the system S; zero entries mean u solves S through their orders."""
    return _residual(S.entries, u, WV)


def twelve_system(third):
    """The Laurent matrices (A, B) of the complete first-order system
    dy/dz = A y, dy/dw = B y over the jet vector y of Y12_COMPONENTS, read
    off the solved third-order forms of assemble_twelve_system: row t holds
    a unit entry where the derivative of t is itself a component, else the
    solved form of that third-order derivative."""
    return tuple(_system_matrix(Y12_COMPONENTS, step, third, (Z, WV))
                 for step in (_jet_dz, _jet_dw))


def jet_vector(L):
    """The 12 jet components of a concrete field, as (z,w)-series."""
    return [_jet(L, t) for t in Y12_COMPONENTS]


def twelve_residuals(A, B, y):
    """The 24 rows (d/dz y - A y, d/dw y - B y) for a 12-vector y of
    (z,w)-series; the jet filter's oracle."""
    return _residual(A, y, Z), _residual(B, y, WV)


# |det| over the Hadamard bound above which a monodromy matrix is invertible
INVERTIBLE_TOL = 1e-8


def invertible(M):
    """|det M| relative to the Hadamard bound, the product of the row
    norms, exceeds INVERTIBLE_TOL."""
    bound = float(np.prod(np.linalg.norm(M, axis=1)))
    return abs(np.linalg.det(M)) > INVERTIBLE_TOL * bound


def continue_system(S, loop, y0):
    """Solution vectors continued once around the loop by the package's
    RK4 schedule: (y, last difference, steps); y0 is one vector, or a
    matrix whose columns are vectors."""
    y0 = np.array(y0, dtype=complex)
    Y, diff, steps = _rk4_loop(_dense_matrix_data(S), loop,
                               y0.reshape(len(y0), -1))
    return Y.reshape(y0.shape), diff, steps


# ---------- the residue spectrum, the loop action, field transport ----------

class ResidueSpectrum:
    """Exact spectral data of the residue matrix A(0): the rational
    eigenvalues with their multiplicities, the factor of the characteristic
    polynomial left unfactored (or None), whether a divisor search was cut
    short, and the pairs of rational eigenvalues an integer apart."""

    def __init__(self, rational, residual_factor, truncated_search):
        self.rational = rational
        self.residual_factor = residual_factor
        self.truncated_search = truncated_search
        eigs = sorted(rational)
        self.resonances = [(x, y) for i, x in enumerate(eigs)
                           for y in eigs[i + 1:] if (y - x).denominator == 1]


DIVISOR_CAP = 10 ** 12  # largest integer whose divisors are all searched


def _divisors(n):
    """(the divisors of |n|, or past DIVISOR_CAP those below 1000 only,
    whether the list was cut short)."""
    n = abs(n)
    if n > DIVISOR_CAP:
        return [d for d in range(1, 1000) if n % d == 0], True
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(low + [n // d for d in low])), False


def _rational_root(work):
    """(a rational root of the polynomial `work` or None, whether the
    divisor search was cut short); a linear factor's is read off exactly."""
    if len(work) == 2:
        r = -work[0] / work[1]
        return (r.re if r.is_rational() else None), False
    den = 1
    for c in work:
        den = lcm(den, c.q)
    lo, hi = (c * GaussianRational.from_int(den) for c in (work[0], work[-1]))
    p_div, t1 = _divisors(gcd(lo.a, lo.b, lo.c, lo.d))
    q_div, t2 = _divisors(gcd(hi.a, hi.b, hi.c, hi.d))
    for q in q_div:
        for p in p_div:
            for r in (Fraction(p, q), Fraction(-p, q)):
                if gcd(p, q) == 1 and linalg.poly_eval(
                        work, GaussianRational.of(r)).is_zero():
                    return r, t1 or t2
    return None, t1 or t2


def residue_spectrum(S):
    """The characteristic polynomial of A(0) with its exact rational roots,
    each divided out by synthetic division as it is found."""
    work = linalg.charpoly(_matrix_coeffs(S.fuchsian_A(), 0)[0])
    rational = {}
    truncated = False
    while len(work) > 1:
        if work[0].is_zero():
            found, cut = Fraction(0), False
        else:
            found, cut = _rational_root(work)
        truncated = truncated or cut
        if found is None:
            break
        rational[found] = rational.get(found, 0) + 1
        r, acc, quotient = GaussianRational.of(found), ZERO, []
        for c in reversed(work):
            acc = c + acc * r
            quotient.append(acc)
        assert quotient.pop().is_zero()     # the remainder
        work = quotient[::-1]
    residual = work if len(work) > 1 else None
    # a search cut short can only have missed a root of what is left
    return ResidueSpectrum(rational, residual,
                           truncated and residual is not None)


def eval_complex(s, w):
    """The w-series s at the complex point w."""
    return sum((c.to_complex() * w ** k for (k,), c in s.terms.items()), 0j)


def field_u_vector(L):
    """(P0, P1, P0', P1', Q0, Q1, Q0', Q1') of a field, as w-series: the
    unknowns of the u-system, read off the z^0 and z^1 slices."""
    P0, P1 = L.P.coeff_of({Z: 0}), L.P.coeff_of({Z: 1})
    Q0, Q1 = L.Q.coeff_of({Z: 0}), L.Q.coeff_of({Z: 1})
    return [P0, P1, P0.diff(WV), P1.diff(WV),
            Q0, Q1, Q0.diff(WV), Q1.diff(WV)]


def infinitesimal_monodromy(basis_vectors, S, loop):
    """The loop action on vectors of w-series that solve S: (psi, offspan).
    The vectors at |w| = r are continued once around the loop, psi is the
    least-squares change of basis onto the continuations and offspan the
    largest residual of that fit (large when the basis does not span its
    continuation at this truncation)."""
    B = np.array([[eval_complex(s, loop.radius) for s in vec]
                  for vec in basis_vectors]).T
    Y = continue_system(S, loop, B)[0]
    psi = np.linalg.lstsq(B, Y, rcond=None)[0]
    return psi, float(np.max(np.abs(B @ psi - Y)))


class DivisibilityError(Exception):
    """A pushforward component misses its required eta-divisibility."""

    def __init__(self, j, needed, found):
        super().__init__("component j=%d needs eta^%d with an even-power "
                         "quotient, found valuation %d" % (j, needed, found))
        self.j = j


def pullback_field(L, B):
    """The components (P*, Q*) of L transported through the blow-down
    F(xi, eta) = (xi eta^s, eta^2), Laurent in eta:
        P* = eta^-s P(xi eta^s, eta^2) - (s xi / 2 eta^2) Q(xi eta^s, eta^2)
        Q* = (1 / 2 eta) Q(xi eta^s, eta^2)."""
    assert B.l == 2, "field transport has explicit formulas for l = 2 only"
    s = B.s
    amb = (XI, ETA)
    subs = {Z: MultiSeries.monomial(ONE, (1, s), amb),
            WV: MultiSeries.monomial(ONE, (0, 2), amb)}
    P, Q = L.P.compose(subs), L.Q.compose(subs)
    xi = MultiSeries.variable(XI, amb)
    half_s = GaussianRational.of(Fraction(s, 2))
    return (LaurentInW(P, s, ETA) - LaurentInW((xi * Q).scale(half_s), 2, ETA),
            LaurentInW(Q.scale(Fraction(1, 2)), 1, ETA))


def pushforward_field(f, g, B):
    """The field (P, Q) in (z, w) whose pullback_field is (f, g), from
    P o F = eta^s f + s xi eta^(s-1) g and Q o F = 2 eta g; a component
    whose xi^j-coefficient is not eta^(j s) times an even power of eta
    raises DivisibilityError.  f and g may be series or Laurent values."""
    s = B.s
    f, g = (h if isinstance(h, LaurentInW) else LaurentInW(h, 0, ETA)
            for h in (f, g))
    xi = LaurentInW(MultiSeries.variable(XI, (XI, ETA)), 0, ETA)
    return VectorField(
        _invert_substitution(f.mul_w(s) + (xi * g).scale(s).mul_w(s - 1), s),
        _invert_substitution(g.mul_w(1).scale(2), s))


def _invert_substitution(hhat, s):
    """H(z, w) with H(xi eta^s, eta^2) = hhat.  z^a w^b sits at
    (xi, eta)-degree a(1+s) + 2b, up to (a+b)(s+1), so hhat known through
    degree D gives H through D // (s+1) only."""
    if hhat.pole_order() > 0:
        raise DivisibilityError(0, hhat.pole, -hhat.pole_order())
    h = hhat.as_series().embed((XI, ETA))
    terms = {}
    for (j, k), c in h.terms.items():
        if k < j * s or (k - j * s) % 2:
            raise DivisibilityError(j, j * s, k)
        terms[(j, (k - j * s) // 2)] = c
    order = h.order if h.order == EXACT else h.order // (s + 1)
    return MultiSeries((Z, WV), order, terms)


# ---------- the series file format, one coefficient at a time ----------

def _rat(f):
    f = Fraction(f)
    return "%d/%d" % (f.numerator, f.denominator)


def _unrat(s):
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def coeff_to_json(c):
    parts = [Fraction(c.a, c.q), Fraction(c.b, c.q)]
    if not is_gaussian(c):
        parts += [Fraction(c.c, c.q), Fraction(c.d, c.q)]
    return [_rat(p) for p in parts]


def coeff_from_json(parts):
    if len(parts) == 2:
        return GaussianRational.of(*(_unrat(p) for p in parts))
    if len(parts) == 4:
        r, i, r2, i2 = (_unrat(p) for p in parts)
        return GaussianRational.of(r, i) + of_sqrt2(r2, i2)
    raise FormatError("coefficient needs 2 or 4 rational strings")


def series_to_json(s, order):
    """The payload of s with its order already in file form."""
    return {"vars": list(s.vars), "order": order,
            "terms": [[list(e)] + coeff_to_json(s.terms[e])
                      for e in sorted(s.terms)]}


def series_from_json(d, order):
    """The series of a well-formed payload, its order read as `order`."""
    return MultiSeries(tuple(d["vars"]), order,
                       {tuple(entry[0]): coeff_from_json(entry[1:])
                        for entry in d["terms"]})


# ---------- conjugation and the z-rescale ----------

def bar_series(s):
    i1, i2 = s.vars.index(Z), s.vars.index(ZB)
    terms = {}
    for e, c in s.terms.items():
        ne = list(e)
        ne[i1], ne[i2] = ne[i2], ne[i1]
        terms[tuple(ne)] = conj(c)
    return MultiSeries(s.vars, s.order, terms)


def _sqrt_in_field(f):
    for r, embed in ((f, GaussianRational.of), (f / 2, of_sqrt2)):
        n, d = isqrt(r.numerator), isqrt(r.denominator)
        if n * n == r.numerator and d * d == r.denominator:
            return embed(Fraction(n, d))
    return None


def normalize_lead(series):
    c = series.coefficient((1, 1, 0))
    if c.is_zero() or not c.is_rational():
        raise NotNormalizableError("leading coefficient %r" % c)
    lam_sq = Fraction(1) / abs(c.re)
    lam = _sqrt_in_field(lam_sq)
    if lam is None:
        raise NotNormalizableError("no square root of %s" % lam_sq)
    lam2 = GaussianRational.of(lam_sq)
    terms = {}
    for e, x in series.terms.items():
        deg = e[0] + e[1]
        f = power(lam2, deg // 2)
        terms[e] = x * (f if deg % 2 == 0 else lam * f)
    eps = 1 if c.re > 0 else -1
    return eps, MultiSeries(series.vars, series.order, terms), lam_sq
