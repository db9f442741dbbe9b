"""Frobenius-type solving of Fuchsian systems and the symmetry pipeline.

holomorphic_solutions runs the power-series recurrence
    (k I - A0) y_k = sum_{j>=1} A_j y_{k-j}
keeping every resonant degree of freedom as an exact symbolic parameter;
inconsistent resonant steps cut the parameter space (those branches would
need a log term and are reported, never materialized).  formal_symmetries
feeds the holomorphic basis of the Fuchsian Y-system through the structural
reconstruction and keeps exactly the fields whose full tangency residual
vanishes; the filter, not the recurrence, is the source of truth.
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

    def __init__(self, charpoly, rational, residual_factor, truncated_search):
        """Off the CLI path: the result of residue_spectrum."""
        self.charpoly = charpoly            # coefficients, low degree first
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

    def as_dict(self):
        """Off the CLI path: the result of residue_spectrum."""
        return {
            "rational_eigenvalues": {str(k): v
                                     for k, v in sorted(self.rational.items())},
            "resonance_pairs": [[str(a), str(b)] for a, b in self.resonances],
            "non_rational_factor_degree":
                (len(self.residual_factor) - 1 if self.residual_factor
                 else 0),
            "root_search_truncated": self.truncated_search,
        }


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
    A = S.fuchsian_A()
    A0 = [[s.coefficient((0,) * len(s.vars)) for s in row] for row in A]
    cp = linalg.charpoly(A0)
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
    return ResidueSpectrum(cp, rational, residual,
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


def _param_recurrence(A_mats, n, order, base_shift=None):
    """Run the Frobenius recurrence with exact symbolic parameters.

    base_shift: optional rational lambda0; the step matrix becomes
    ((lambda0 + k) I - A0).  Returns (M_list, params, obstructions): M_list
    holds n x params coefficient matrices per degree.
    """
    A0 = A_mats[0]
    Ms = []
    params = 0
    obstructions = []
    for k in range(order + 1):
        lam = GaussianRational.of(Fraction(k) + (base_shift or 0))
        L = [[(lam if i == j else ZERO) - A0[i][j] for j in range(n)]
             for i in range(n)]
        rhs = [[ZERO] * params for _ in range(n)]
        for j in range(1, min(k, len(A_mats) - 1) + 1):
            Aj = A_mats[j]
            Mk = Ms[k - j]
            for i in range(n):
                for t in range(n):
                    a = Aj[i][t]
                    if a.is_zero():
                        continue
                    row = Mk[t]
                    for p in range(params):
                        if not row[p].is_zero():
                            rhs[i][p] = rhs[i][p] + a * row[p]
        X, kern, constraints = linalg.solve_with_rhs_matrix(L, rhs)
        if constraints:
            # cut to the parameters K on which the constraints vanish; X is
            # linear in rhs and the reduction only subtracted constraint
            # rows from it, so X K solves L Y = rhs K
            K = linalg.kernel_basis(constraints)
            obstructions.append((k, params - len(K)))
            # the params x r matrix whose columns are K's vectors
            Kt = [[v[p] for v in K] for p in range(params)]
            Ms = [linalg.mat_mul(M, Kt) for M in Ms]
            X = linalg.mat_mul(X, Kt)
            params = len(K)
        if kern:
            X = [X[i] + [v[i] for v in kern] for i in range(n)]
            Ms = [[row + [ZERO] * len(kern) for row in M] for M in Ms]
            params += len(kern)
        Ms.append(X)
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
    needs an explicit order.
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
    basis = FrobeniusBasis(_solution_vectors(Ms, S.n, params, order),
                           params, obstructions, order)
    _assert_independent(basis, S.n)
    return basis


def frobenius_basis(S, order=None):
    """Holomorphic family plus materialized non-integer rational branches.

    For every congruence class (mod 1) of rational eigenvalues other than
    the integers, the recurrence is run from the smallest class member
    lambda0, producing formal solutions H(w) w^lambda0 per the Fuchsian
    fundamental-system shape.

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
        Ms, params, _ = _param_recurrence(A_mats, S.n, hol.order,
                                          base_shift=lam0)
        sols = _solution_vectors(Ms, S.n, params, hol.order)
        if sols:
            branches.append((lam0, sols))
    return FrobeniusBasis(hol.solutions, hol.dimension,
                          hol.log_obstructions, hol.order, branches)


def _assert_independent(basis, n):
    if basis.dimension == 0:
        return
    rows = []
    for vec in basis.solutions:
        row = []
        for s in vec:
            for k in range(basis.order + 1):
                row.append(s.coefficient((k,)))
        rows.append(row)
    if linalg.rank(rows) != basis.dimension:
        raise SegrefuchsError("holomorphic solutions are linearly dependent "
                              "at the working order")


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
        """Max off-span rank increase over all basis pairs (0 = closed)."""
        if not self.fields:
            return 0
        order = max(self.order - 1, 1)
        span = [_field_row(f, order) for f in self.fields]
        base_rank = linalg.rank(span)
        worst = 0
        for i in range(len(self.fields)):
            for j in range(i + 1, len(self.fields)):
                br = lie_bracket(self.fields[i], self.fields[j])
                rows = span + [_field_row(br, order)]
                worst = max(worst, linalg.rank(rows) - base_rank)
        return worst


def _field_row(L, order):
    row = []
    for s in (L.P.truncate(order), L.Q.truncate(order)):
        for kz in range(order + 1):
            for kw in range(order + 1 - kz):
                row.append(s.coefficient(
                    tuple(kz if v == Z else kw for v in s.vars)))
    return row


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
    def __init__(self, norms, ratios, verdict, bound, window):
        self.norms = norms
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
    norms = {}
    for k in range(order + 1):
        m = 0.0
        for s in series:
            for e, c in s.terms.items():
                if sum(e) == k:
                    m = max(m, c.magnitude())
        norms[k] = m
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
    return ConvergenceReport(norms, ratios, verdict, GROWTH_BOUND, window)


def field_u_vector(L):
    """(P0, P1, P0', P1', Q0, Q1, Q0', Q1') of a field, as w-series.

    Off the CLI path: oracle of the u-system.
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


def real_tangency_residual(L, M):
    """Residual of Q = rho_z P + rho_zb bar(P) + rho_wb bar(Q) on w = rho.

    Zero iff the real flow of L preserves the surface (L lies in the real
    automorphism algebra, not merely its complexification).  It is taken
    at the lower of the two trusted orders.

    Off the CLI path: oracle of real_form_basis.
    """
    order = min(M.order, L.order())
    A, B = _surface_parts(L, M.truncate(order).defining_series(), order)
    return (A + B).truncate(order)


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
    cols = []
    for L in basis.fields:
        A, B = _surface_parts(L, rho, order)
        col_a = A + B                 # coefficient of a_j
        col_b = (A - B).scale(I)      # coefficient of b_j
        cols.append((dict(col_a.terms), dict(col_b.terms)))
    nvar = 2 * len(basis.fields)
    keys = set()
    for col_a, col_b in cols:
        keys.update(col_a)
        keys.update(col_b)
    rows = []
    for key in sorted(keys):
        for part in ("a", "b", "c", "d"):
            row = []
            for col_a, col_b in cols:
                for col in (col_a, col_b):
                    coeff = col.get(key, ZERO)
                    row.append(GaussianRational.of(
                        Fraction(getattr(coeff, part), coeff.q)))
            if any(not x.is_zero() for x in row):
                rows.append(row)
    if not rows:
        kern = linalg.identity(nvar)
    else:
        kern = linalg.kernel_basis(rows)
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
