"""Frobenius-type solving of Fuchsian systems and the symmetry pipeline.

holomorphic_solutions runs the power-series recurrence
    (k I - A0) y_k = sum_{j>=1} A_j y_{k-j}
with each degree one exact kernel solve in y_k and the symbolic parameters
carried so far, resonances included: a resonant degree's free directions
become new parameters, and the parameters an inconsistent one excludes are
cut in the same solve (those branches would need a log term and are
reported, never materialized).  A degree k >= 1 whose right-hand side has no
live term, a nonzero A_j against a nonzero y_{k-j}, at a k that is not an
eigenvalue of A0, has the unique solution y_k = 0 and takes no solve.
formal_symmetries feeds the holomorphic basis of the Fuchsian Y-system
through the structural reconstruction and keeps exactly the fields whose
full tangency residual vanishes; the filter, not the recurrence, is the
source of truth.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from .qfield import GaussianRational, ZERO, I
from .series import MultiSeries, EXACT, SeriesError
from .segre import WV, eliminate
from .surfaces import Z, ZB, WB, bar_series
from .errors import NonFuchsianError, SegrefuchsError, OrderTooLowError
from .prolongation import (VectorField, assemble_Y_system,
                           reconstruct_field, tangency_residual)
from .fuchs import check_fuchsian_complex, check_fuchsian_ode, FUCHSIAN
from . import linalg


class ResidueSpectrum:
    """Exact spectral data of the residue matrix A(0)."""

    def __init__(self, rational, residual_factor, truncated_search):
        """Off the CLI path: the result of residue_spectrum."""
        self.rational = rational            # dict Fraction -> multiplicity
        self.residual_factor = residual_factor  # unfactored part or None
        self.truncated_search = truncated_search
        self.resonances = []
        eigs = sorted(self.rational)
        for i, x in enumerate(eigs):
            for y in eigs[i + 1:]:
                d = y - x
                if d != 0 and d.denominator == 1:
                    self.resonances.append((x, y))


DIVISOR_CAP = 10 ** 12  # largest integer whose divisors are all searched


def _divisors(n):
    """(the divisors of |n|, or past DIVISOR_CAP those below 1000 only,
    whether the list was cut short).

    Off the CLI path: residue_spectrum's rational root search.
    """
    n = abs(n)
    if n > DIVISOR_CAP:
        return [d for d in range(1, 1000) if n % d == 0], True
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(low + [n // d for d in low])), False


def _rational_root(work):
    """(a rational root of the polynomial `work` or None, whether the
    divisor search was cut short); a linear factor's is read off exactly.

    Off the CLI path: residue_spectrum's rational root search.
    """
    if len(work) == 2:
        r = -work[0] / work[1]
        return (r.re if r.is_rational() else None), False
    den = 1
    for c in work:
        den = lcm(den, c.q)
    cleared = [c * GaussianRational.from_int(den) for c in work]
    lo, hi = cleared[0], cleared[-1]
    p_div, t1 = _divisors(gcd(lo.a, lo.b, lo.c, lo.d))
    q_div, t2 = _divisors(gcd(hi.a, hi.b, hi.c, hi.d))
    for q in q_div:
        for p in p_div:
            if gcd(p, q) != 1:
                continue
            for sign in (1, -1):
                r = Fraction(sign * p, q)
                if linalg.poly_eval(work, GaussianRational.of(r)).is_zero():
                    return r, t1 or t2
    return None, t1 or t2


def residue_spectrum(S):
    """Characteristic polynomial of A(0) with exact rational-root data.

    Off the CLI path: paper content, the exact spectrum of A(0).
    """
    cp = linalg.charpoly(_matrix_coeffs(S.fuchsian_A(), 0)[0])
    rational = {}
    # peel zero roots
    work = cp[:]
    while len(work) > 1 and work[0].is_zero():
        rational[Fraction(0)] = rational.get(Fraction(0), 0) + 1
        work = work[1:]
    truncated = False
    while len(work) > 1:
        found, cut = _rational_root(work)
        truncated = truncated or cut
        if found is None:
            break
        rational[found] = rational.get(found, 0) + 1
        work, rem = linalg.poly_divmod_linear(work, GaussianRational.of(found))
        if not rem.is_zero():
            raise SegrefuchsError("deflation left a remainder")
    residual = work if len(work) > 1 else None
    # a search cut short can only have missed a root of what is left
    return ResidueSpectrum(rational, residual,
                           truncated and residual is not None)


class FrobeniusBasis:
    """Holomorphic solution family plus non-integer exponent branches."""

    def __init__(self, solutions, dimension, log_obstructions, order,
                 branches=()):
        self.solutions = solutions          # list of vectors of w-series
        self.dimension = dimension
        self.log_obstructions = log_obstructions
        self.order = order
        self.branches = list(branches)      # (lambda0, solutions) pairs


def _matrix_coeffs(A, order):
    """w-coefficient matrices A_0..A_order of a holomorphic matrix; its
    entries depend on w alone, so a term's total degree is its w-power."""
    by_degree = [[{sum(e): c for e, c in s.terms.items()} for s in row]
                 for row in A]
    return [[[d.get(k, ZERO) for d in row] for row in by_degree]
            for k in range(order + 1)]


def _param_recurrence(A_mats, n, order):
    """Run the Frobenius recurrence with exact symbolic parameters.

    Degree k solves (k I - A0) Y_k = R_k p, R_k = sum_{j>=1} A_j M_{k-j},
    as one kernel of [A0 - k I | R_k] in (Y_k, p).  A vector from a free
    p-column keeps old parameters, listed first; one from a free column of
    A0 - k I has p = 0 and is a new parameter (a resonance).  When fewer
    than `params` survive, the earlier degrees are cut to the kept p-parts
    and (k, params - kept) is a log obstruction.  R_k sums only the live
    terms, a nonzero A_j against a nonzero M_{k-j}; a degree k >= 1 with
    none, where k is not a root of the characteristic polynomial of A0, has
    Y_k = 0 and keeps every parameter, so it is appended with no solve.
    Returns (M_list, params, obstructions): M_list holds n x params
    coefficient matrices per degree.
    """
    def nonzero(M):
        return any(not x.is_zero() for row in M for x in row)

    live_A = [j for j in range(1, len(A_mats)) if nonzero(A_mats[j])]
    Ms = []
    chi = None  # characteristic polynomial of A0, formed on first use
    params = 0
    obstructions = []
    for k in range(order + 1):
        lam = GaussianRational.from_int(k)
        J = [j for j in live_A if j <= k and nonzero(Ms[k - j])]
        if not J and k:
            if chi is None:
                chi = linalg.charpoly(A_mats[0])
            if not linalg.poly_eval(chi, lam).is_zero():
                Ms.append(linalg.zeros(n, params))
                continue
        # sum_{j in J} A_j M_{k-j}: the row-stacked [A_j ...] times the
        # column-stacked [M_{k-j}; ...]
        if J:
            R = linalg.mat_mul([[a for j in J for a in A_mats[j][i]]
                                for i in range(n)],
                               [row for j in J for row in Ms[k - j]])
        else:
            R = linalg.zeros(n, params)
        kern = linalg.kernel_basis(
            [[a - lam if i == j else a for j, a in enumerate(row)] + R[i]
             for i, row in enumerate(A_mats[0])])
        # a row pivoting in a p-column is zero on the Y-columns, so the
        # vectors of the free Y-columns, which come first, have p = 0
        new = [v for v in kern if all(x.is_zero() for x in v[n:])]
        kept = kern[len(new):]
        if len(kept) < params:
            obstructions.append((k, params - len(kept)))
            # the params x kept matrix whose columns are the kept p-parts
            Kt = [[v[n + p] for v in kept] for p in range(params)]
            Ms = [linalg.mat_mul(M, Kt) for M in Ms]
        if new:
            Ms = [[row + [ZERO] * len(new) for row in M] for M in Ms]
        params = len(kept) + len(new)
        Ms.append([[v[i] for v in kept + new] for i in range(n)])
    return Ms, params, obstructions


def _solution_vectors(Ms, n, params, order):
    """One vector of n w-series per parameter of the recurrence output."""
    return [[MultiSeries((WV,), order,
                         {(k,): Ms[k][i][p] for k in range(order + 1)
                          if not Ms[k][i][p].is_zero()})
             for i in range(n)] for p in range(params)]


def holomorphic_solutions(S, order=None):
    """Basis of power-series solutions of a Fuchsian system.

    Resonant steps keep their free parameters symbolic; steps with no
    consistent choice are excluded from the holomorphic family and recorded
    as log obstructions.  The returned dimension is the number of exact
    power-series solutions at the working order, which is the lowest trusted
    order of the entries, or `order` if that is lower; an all-exact system
    needs an explicit order.  Independence is checked on the recurrence's
    coefficient matrices, before the series are built from them.
    """
    A = S.fuchsian_A()
    avail = min((s.order for row in A for s in row if not s.is_zero()),
                default=EXACT)
    order = avail if order is None else min(order, avail)
    if order >= EXACT:
        raise SeriesError("the holomorphic solutions of an exact system need "
                          "an explicit order")
    A_mats = _matrix_coeffs(A, order)
    Ms, params, obstructions = _param_recurrence(A_mats, S.n, order)
    if linalg.rank([[M[i][p] for M in Ms for i in range(S.n)]
                    for p in range(params)]) != params:
        raise SegrefuchsError("holomorphic solutions are linearly dependent "
                              "at the working order")
    return FrobeniusBasis(_solution_vectors(Ms, S.n, params, order),
                          params, obstructions, order)


def frobenius_basis(S, order=None):
    """Holomorphic family plus materialized non-integer rational branches.

    For every congruence class (mod 1) of rational eigenvalues other than
    the integers, the recurrence is run from the smallest class member
    lambda0, producing formal solutions H(w) w^lambda0 per the Fuchsian
    fundamental-system shape.  H solves the shifted system
    (A - lambda0 I) / w, so its recurrence is the holomorphic one with
    A0 - lambda0 I as its constant term, run through the holomorphic
    family's order.

    Off the CLI path: paper content, the non-integer branches.
    """
    hol = holomorphic_solutions(S, order)
    spec = residue_spectrum(S)
    classes = {}
    for lam in spec.rational:
        if lam.denominator == 1:
            continue
        frac = lam - int(lam // 1)
        classes.setdefault(frac, []).append(lam)
    branches = []
    A = S.fuchsian_A()
    A_mats = _matrix_coeffs(A, hol.order)
    for frac, lams in sorted(classes.items()):
        lam0 = min(lams)
        shift = GaussianRational.of(lam0)
        A0 = [[a - shift if i == j else a for j, a in enumerate(row)]
              for i, row in enumerate(A_mats[0])]
        Ms, params, _ = _param_recurrence([A0] + A_mats[1:], S.n, hol.order)
        sols = _solution_vectors(Ms, S.n, params, hol.order)
        if sols:
            branches.append((lam0, sols))
    return FrobeniusBasis(hol.solutions, hol.dimension,
                          hol.log_obstructions, hol.order, branches)


# ---------------------------------------------------------------------------
# symmetry pipeline
# ---------------------------------------------------------------------------

class SymmetryBasis:
    """Exact basis of the complex Lie-symmetry space with certificates."""

    def __init__(self, fields, certificates, diagnostics, E, dropped,
                 log_obstructions, order):
        self.fields = fields
        self.certificates = certificates
        self.diagnostics = diagnostics
        self.ode = E
        self.dropped = dropped            # candidates failing the filter
        self.log_obstructions = log_obstructions
        self.order = order

    @property
    def dimension(self):
        return len(self.fields)

    def bracket_closure_defect(self):
        """1 if the bracket of some pair of basis fields leaves their span
        through order - 1 (at least 1), else 0."""
        brackets = [lie_bracket(L1, L2)
                    for i, L1 in enumerate(self.fields)
                    for L2 in self.fields[i + 1:]]
        return int(not in_span(self.fields, brackets,
                               max(self.order - 1, 1)))


def in_span(fields, others, order):
    """Every field of `others` lies in the span of `fields`, coefficient
    for coefficient through total degree `order`; each field is one row
    over the (component, exponent) pairs that some field holds."""
    fields = list(fields)
    terms = [{(c, e): x for c, s in enumerate((L.P, L.Q))
              for e, x in s.truncate(order).terms.items()}
             for L in fields + list(others)]
    cols = sorted(set().union(*terms))
    rows = [[t.get(k, ZERO) for k in cols] for t in terms]
    return linalg.rank(rows) == linalg.rank(rows[:len(fields)])


def lie_bracket(L1, L2):
    """[L1, L2] with components truncated to the shared order minus one."""
    def apply(L, f):
        return L.P * f.diff(Z) + L.Q * f.diff(WV)

    P = apply(L1, L2.P) - apply(L2, L1.P)
    Q = apply(L1, L2.Q) - apply(L2, L1.Q)
    return VectorField(P, Q)


def formal_symmetries(M):
    """Exact basis of formal infinitesimal symmetries of a Fuchsian surface.

    Pipeline: classifier gate, elimination (the two enforce the 3m+2 order
    floor), Fuchsian Y-system, holomorphic Frobenius solutions, structural
    reconstruction, then the exact filters:
    a candidate stays only if its P-component is pole-free, its full
    tangency residual vanishes, and its 12-component jet vector satisfies
    the complete first-order system.  The jet filter probes the collected
    equations several w-degrees deeper than the direct residual (through
    the high-pole matrix entries), so shallow truncation windows cannot
    smuggle spurious candidates through.  Returns the complex symmetry
    space.
    """
    from .prolongation import assemble_twelve_system
    rep = check_fuchsian_complex(M)
    if rep.verdict != FUCHSIAN:
        w = rep.witnesses()
        raise NonFuchsianError(
            "surface is %s; symmetry solving needs the Fuchsian bounds"
            % rep.verdict,
            ledger_row=w[0].as_dict() if w else None)
    E = eliminate(M)
    ode_rep = check_fuchsian_ode(E)
    Y = assemble_Y_system(E, ode_rep)
    basis = holomorphic_solutions(Y)
    T12 = assemble_twelve_system(E)
    fields, certs, dropped = [], [], []
    for vec in basis.solutions:
        P0, P1, R0, R1 = vec[0], vec[1], vec[2], vec[3]
        Q0 = R0.monomial_mul(WV, 1)
        Q1 = R1.monomial_mul(WV, 1)
        Pl, Ql = reconstruct_field(E, P0, P1, Q0, Q1)
        if Pl.pole_order() > 0:
            dropped.append(("pole", Pl))
            continue
        L = VectorField(Pl.as_series(), Ql.as_series())
        res = tangency_residual(L, E)
        if not res.is_zero():
            dropped.append(("residual", res))
            continue
        rz, rw = T12.residuals(T12.vector_of(L))
        if any(not r.body.is_zero() for r in rz + rw):
            dropped.append(("jet-system", L))
            continue
        fields.append(L)
        certs.append(res)
    diags = [convergence_diagnostic(L) for L in fields]
    return SymmetryBasis(fields, certs, diags, E, dropped,
                         basis.log_obstructions, basis.order)


# ---------------------------------------------------------------------------
# convergence diagnostics
# ---------------------------------------------------------------------------

class ConvergenceReport:
    def __init__(self, ratios, verdict, bound, window):
        self.ratios = ratios
        self.verdict = verdict
        self.bound = bound
        self.window = window

    def as_dict(self):
        return {"verdict": self.verdict, "bound": self.bound,
                "window": list(self.window),
                "ratios": {k: v for k, v in self.ratios.items()}}


GROWTH_BOUND = 10.0  # largest coefficient-norm ratio counted as bounded


def convergence_diagnostic(y):
    """Per-degree coefficient-norm ratio profile with a growth verdict.

    y is a vector of w-series or a VectorField; norms are exact
    coefficients compared through float magnitudes (report only).  Ratios
    are taken over degrees 5 .. order-1.  Fuchsian theory promises
    growth-bounded profiles for genuine symmetry series; a factorial-type
    series trips GROWTH_BOUND.
    """
    series = [y.P, y.Q] if isinstance(y, VectorField) else list(y)
    order = min(s.order for s in series)
    if order >= EXACT:
        order = max(max(s.max_degree() for s in series), 8)
    window = (5, order - 1)
    norms = dict.fromkeys(range(order + 1), 0.0)
    for s in series:
        for e, c in s.terms.items():
            k = sum(e)
            if k <= order:
                norms[k] = max(norms[k], c.magnitude())
    nonzero = [k for k, v in norms.items() if v > 0.0]
    lo, hi = window
    ratios = {k: norms[k + 1] / norms[k] for k in range(lo, hi + 1)
              if norms[k] > 0.0 and norms[k + 1] > 0.0}
    if len(nonzero) < 2 or (not ratios and max(nonzero) >= lo):
        verdict = "inconclusive"
    elif not ratios or max(ratios.values()) <= GROWTH_BOUND:
        verdict = "growth-bounded"
    else:
        verdict = "growth-unbounded"
    return ConvergenceReport(ratios, verdict, GROWTH_BOUND, window)


def field_u_vector(L):
    """(P0, P1, P0', P1', Q0, Q1, Q0', Q1') of a field, as w-series.

    Off the CLI path: the input of infinitesimal_monodromy.
    """
    P, Q = L.P, L.Q
    P0 = P.coeff_of({Z: 0})
    P1 = P.coeff_of({Z: 1})
    Q0 = Q.coeff_of({Z: 0})
    Q1 = Q.coeff_of({Z: 1})
    return [P0, P1, P0.diff(WV), P1.diff(WV),
            Q0, Q1, Q0.diff(WV), Q1.diff(WV)]


# ---------------------------------------------------------------------------
# optional real-form post-step
# ---------------------------------------------------------------------------

def _surface_parts(L, rho, order):
    """The real tangency residual of L on w = rho, split as A + B.

    A = Q - rho_z P with P, Q evaluated on the surface and
    B = -(rho_zb bar(P) + rho_wb bar(Q)); A is linear in the field and B in
    its conjugate.
    """
    amb = (Z, ZB, WB)
    on, bar = [], []
    for s in (L.P, L.Q):
        s = s.rename({WV: WB}).truncate(order)
        on.append(s.compose({WB: rho}))
        bar.append(bar_series(s.embed(amb)))
    A = on[1] - rho.diff(Z) * on[0]
    B = -(rho.diff(ZB) * bar[0]) - (rho.diff(WB) * bar[1])
    return A, B


def real_form_basis(basis, M):
    """Real combinations of the complex basis tangent to the surface itself.

    Imposes Q = rho_z P + rho_zb bar(P) + rho_wb bar(Q) on w = rho as exact
    linear constraints over the real and imaginary parts of the basis
    coordinates; returns the real fields sum (a_j + i b_j) L_j spanning the
    kernel.
    """
    order = min(M.order, basis.order)
    # below total degree m+2 the defining function cannot distinguish a
    # field from its complex rotation; constraints would be vacuous
    if order < M.m + 2:
        raise OrderTooLowError(order, M.m + 2,
                               "real-form extraction needs the basis "
                               "trusted through degree m+2 = %d, have %d; "
                               "raise the input truncation order"
                               % (M.m + 2, order))
    rho = M.truncate(order).defining_series()
    cols = []  # the coefficients of a_j and of b_j, per field
    for L in basis.fields:
        A, B = _surface_parts(L, rho, order)
        cols += [dict((A + B).terms), dict((A - B).scale(I).terms)]
    # one row per monomial and per rational component that is not all zero
    rows = []
    for key in sorted(set().union(*cols)):
        xs = [col.get(key, ZERO) for col in cols]
        for parts in zip(*((x.a, x.b, x.c, x.d) for x in xs)):
            if any(parts):
                rows.append([GaussianRational(p, 0, 0, 0, x.q)
                             for p, x in zip(parts, xs)])
    kern = (linalg.kernel_basis(rows) if rows
            else linalg.identity(len(cols)))
    fields = []
    for v in kern:
        P = MultiSeries.zero((Z, WV))
        Q = MultiSeries.zero((Z, WV))
        for j, L in enumerate(basis.fields):
            coeff = v[2 * j] + v[2 * j + 1] * I
            if not coeff.is_zero():
                P = P + L.P.scale(coeff)
                Q = Q + L.Q.scale(coeff)
        f = VectorField(P, Q)
        if not f.is_zero():
            fields.append(f)
    return fields
