"""Second prolongation, tangency residuals, and the derived linear systems.

Everything here exploits one fact: the tangency condition of a prolonged
field with the associated ODE is linear in the field.  A LinForm is a
formal sum  sum_tag  coefficient(z, w, zeta) * tag  where the tags name the
unknown functions (structural components P0, P1, Q0, Q1 and their
w-derivatives, or full jet derivatives of P and Q), and the coefficients
are Laurent-in-w series.  The tangency residual is computed once,
generically, and every linear system is read off mechanically from its
slices; none of the four-equation reductions is hard-coded.

Both derived systems come from the four collected equations: line j is
the zeta^j slot of the residual divided by its weight w^(j*m), which
leaves every pivot constant, so one exact constant-matrix solve,
_solve_tags, serves both.  Under the structural ansatz, lines 3 and 2 at
z^0 and z^1 give P0'', P1'', Q0'', Q1'', and with them the 8x8 u-system
du/dw = C(w) u for u = (P0, P1, P0', P1', Q0, Q1, Q0', Q1').  The Fuchsian
Y-system dY/dw = A(w) Y / w, Y = (P0, P1, R0, R1, wP0', wP1', wR0', wR1')
with Q = w R, is its exact gauge Y = G(w) u for one fixed Laurent matrix G
(Balser, Formal Power Series and Linear Systems of Meromorphic Ordinary
Differential Equations, 2000).  G writes each u-tag in Y:

    P0 -> Y0    P0' -> Y4 / w    Q0 -> w Y2    Q0' -> Y6 + Y2

and likewise for P1, Q1 with Y1, Y5, Y3, Y7.  So A[i][4+i] = 1 for i < 4,
rows 4-5 are e_i + w^2 P'' and rows 6-7 are -e_i + w Q''.  The 12x12
complete system differentiates the collected equations over jet tags once
and solves them for the eight third-order derivatives.  _system_matrix
reads the u-system and the 12x12 system off their solved forms.
"""

from .qfield import ZERO, ONE
from .series import MultiSeries, LaurentInW
from .segre import WV, ZETA
from .surfaces import Z
from .errors import NonFuchsianError, SegrefuchsError
from . import linalg


class VectorField:
    """Candidate infinitesimal automorphism P d/dz + Q d/dw."""

    __slots__ = ("P", "Q")

    def __init__(self, P, Q):
        self.P = P.embed((Z, WV))
        self.Q = Q.embed((Z, WV))

    def __add__(self, other):
        """Off the CLI path: operator protocol, the sum of two fields."""
        return VectorField(self.P + other.P, self.Q + other.Q)

    def is_zero(self):
        return self.P.is_zero() and self.Q.is_zero()


class ProlongedField:
    """Second jet prolongation: coefficients of d/dw1 and d/dw2.

    q1 maps powers of w1 to the coefficients of Q^(1); q2 and q2_w2 hold
    the w2-free and w2-linear parts of Q^(2) the same way.  P and Q may be
    concrete series or LinForms over tagged unknowns.
    """

    def __init__(self, P, Q):
        Pz, Pw = P.diff(Z), P.diff(WV)
        Qz, Qw = Q.diff(Z), Q.diff(WV)
        self.q1 = {0: Qz, 1: Qw - Pz, 2: -Pw}
        self.q2 = {0: Qz.diff(Z),
                   1: Qz.diff(WV).scale(2) - Pz.diff(Z),
                   2: Qw.diff(WV) - Pz.diff(WV).scale(2),
                   3: -Pw.diff(WV)}
        self.q2_w2 = {0: Qw - Pz.scale(2), 1: -Pw.scale(3)}


# ---------------------------------------------------------------------------
# linear forms over named unknowns
# ---------------------------------------------------------------------------

# A tag algebra maps each variable to the derivative rule of the tags: the
# tag of the differentiated unknown, or None for a constant tag.
STRUCT_ALG = {Z: lambda t: None, WV: lambda t: (t[0], t[1] + 1)}


def _jet_dz(t):
    return (t[0], t[1] + 1, t[2])


def _jet_dw(t):
    return (t[0], t[1], t[2] + 1)


JET_ALG = {Z: _jet_dz, WV: _jet_dw}


class LinForm:
    """sum over tags of LaurentInW coefficients times the tagged unknown."""

    __slots__ = ("coef", "alg")

    def __init__(self, coef, alg):
        self.coef = {t: c for t, c in coef.items() if not c.is_zero()}
        self.alg = alg

    @staticmethod
    def unknown(tag, alg):
        """The tagged unknown itself, coefficient 1 over (z, w, zeta)."""
        one = MultiSeries.const(ONE, (Z, WV, ZETA))
        return LinForm({tag: LaurentInW(one, 0, WV)}, alg)

    def __add__(self, other):
        coef = dict(self.coef)
        for t, c in other.coef.items():
            coef[t] = coef[t] + c if t in coef else c
        return LinForm(coef, self.alg)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LinForm({t: -c for t, c in self.coef.items()}, self.alg)

    def scale(self, c):
        return LinForm({t: v.scale(c) for t, v in self.coef.items()},
                       self.alg)

    def __mul__(self, x):
        """Multiply every coefficient by a concrete series or Laurent value."""
        return LinForm({t: c * x for t, c in self.coef.items()}, self.alg)

    def diff(self, var):
        step = self.alg[var]
        coef = {}
        for t, c in self.coef.items():
            _acc(coef, t, c.diff(var))
            dt = step(t)
            if dt is not None:
                _acc(coef, dt, c)
        return LinForm(coef, self.alg)

    def slice(self, powers):
        """Per-tag coefficient extraction (e.g. the zeta^2 z^1 slot)."""
        out = {}
        for t, c in self.coef.items():
            body = c.body.coeff_of(powers)
            out[t] = LaurentInW(body, c.pole, WV)
        return LinForm(out, self.alg)

    def div_w(self, k):
        return LinForm({t: c.div_w(k) for t, c in self.coef.items()},
                       self.alg)

    def get(self, t):
        return self.coef.get(t)


def _acc(coef, t, c):
    if c.is_zero():
        return
    coef[t] = coef[t] + c if t in coef else c


# ---------------------------------------------------------------------------
# the generic tangency residual
# ---------------------------------------------------------------------------

def _phi_data(E, top):
    m = E.m
    Phi = E.Phi
    J = MultiSeries.monomial(ONE, (0, m, 1), (Z, WV, ZETA))
    Phz = Phi.diff(Z)
    Phw = Phi.diff(WV)
    Phzeta = Phi.diff(ZETA)
    G = Phzeta.monomial_div(WV, m)
    # d/dw of Phi(z, w, w1/w^m) at fixed w1, i.e. the composite derivative
    H = Phw - Phzeta.monomial_div(WV, 1).monomial_mul(ZETA, 1).scale(m)
    if top:
        Phi, Phz, G, H = (s.within(top) for s in (Phi, Phz, G, H))
    return J, Phi, Phz, G, H


def tangency_forms(Pf, Qf, E, top=None):
    """Tangency residual of the prolonged field, linear in the unknowns.

    Evaluates the prolongation of (Pf, Qf) at w1 = J = zeta * w^m and
    w2 = Phi, so coefficients live in (z, w, zeta).  Pf and Qf are LinForms
    over any tag algebra or concrete Laurent values.  The result is
    polynomial: the zeta^j coefficient carries the weight w^(j*m) relative
    to the four collected equations.

    With top (var -> highest power read, over zeta and z), the result is
    exact only in the slots within those powers.  Every factor is a power
    series in zeta and z, so such a slot reads only the factors' terms
    within them, and the Phi-derived factors drop the rest.  Each keeps
    its valuation, so every coefficient's order is that of the full
    residual.
    """
    J, Phi, Phz, G, H = _phi_data(E, top)
    J2 = J * J
    pf = ProlongedField(Pf, Qf)
    q1, q2, q2_w2 = pf.q1, pf.q2, pf.q2_w2
    lhs = (q2[0] + q2[1] * J + q2[2] * J2 + q2[3] * (J2 * J)
           + q2_w2[0] * Phi + q2_w2[1] * (J * Phi))
    Q1 = q1[0] + q1[1] * J + q1[2] * J2
    rhs = Pf * Phz + Qf * H + Q1 * G
    return lhs - rhs


def tangency_residual(L, E):
    """Tangency residual of a concrete field against the associated ODE.

    A series over (z, w, zeta), zero modulo the shared truncation iff L is
    a Lie point symmetry of the ODE (equivalently, lies in the complexified
    symmetry algebra).  Its zeta^j slice, coeff_of({ZETA: j}), equals
    w^(j*m) times the j-th collected equation, so the residual is
    polynomial.
    """
    Pf, Qf = (LaurentInW(s.embed((Z, WV, ZETA)), 0, WV) for s in (L.P, L.Q))
    T = tangency_forms(Pf, Qf, E)
    if T.pole_order() > 0:
        raise SegrefuchsError("tangency residual of a holomorphic field "
                              "acquired a pole; ODE data is inconsistent")
    return T.as_series()


# ---------------------------------------------------------------------------
# structural reduction and the 8x8 systems
# ---------------------------------------------------------------------------

def structural_field(at, z, P0, P1, Q0, Q1):
    """The structural ansatz P = P0 + P1 z + Q1' z^2 - 2 a~ Q1, Q = Q0 + Q1 z.

    The components are Laurent values or LinForms alike; z is the z
    variable over their ambient variables and at is a~.
    """
    P = P0 + P1 * z + Q1.diff(WV) * z * z - Q1 * at.scale(2)
    return P, Q0 + Q1 * z


def reconstruct_field(E, P0, P1, Q0, Q1):
    """Build (P, Q) from structural components (series in w).

    P may acquire a pole through a_tilde when the surface is not Fuchsian
    enough; the caller receives Laurent values and decides.
    """
    return structural_field(E.a_tilde(), MultiSeries.variable(Z, (Z, WV)),
                            *(LaurentInW(s.embed((Z, WV)), 0, WV)
                              for s in (P0, P1, Q0, Q1)))


class LinearODESystem:
    """n x n system du/dw = C(w) u; each entry is Laurent in its wvar alone."""

    def __init__(self, entries, unknown):
        for e in (e for row in entries for e in row):
            for v in e.body.vars:
                if v != e.wvar and e.body.var_degree(v) > 0:
                    raise SegrefuchsError("matrix entry depends on %r; a "
                                          "system needs w-only data" % v)
        self.n = len(entries)
        self.entries = entries
        self.unknown = unknown
        self.pole_order = max((e.pole_order() for row in entries
                               for e in row), default=0)

    def fuchsian_A(self):
        """For pole order <= 1: the holomorphic matrix A with C = A/w."""
        if self.pole_order > 1:
            raise NonFuchsianError("system has pole order %d > 1"
                                   % self.pole_order)
        return [[e.mul_w(1).as_series() for e in row] for row in self.entries]


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


def _const(c, vars):
    return LaurentInW(MultiSeries.const(c, vars), 0, WV)


def _collected(Pf, Qf, E, top):
    """The four collected equations of the field (Pf, Qf): line j is the
    zeta^j slot of the tangency residual divided by its weight w^(j*m)."""
    T = tangency_forms(Pf, Qf, E, top)
    return [T.slice({ZETA: j}).div_w(j * E.m) for j in range(4)]


def _system_matrix(tags, step, solved, vars):
    """The matrix M of d/dv y = M y for y over the tags, where step is the
    derivative rule of v: row t holds step(t), a unit entry when that tag
    is itself a column, else its solved form over the columns."""
    col = {t: i for i, t in enumerate(tags)}
    rows = []
    for t in tags:
        dt = step(t)
        row = [_const(ZERO, vars) for _ in tags]
        if dt in col:
            row[col[dt]] = _const(ONE, vars)
        else:
            for u, c in solved[dt].coef.items():
                row[col[u]] = row[col[u]] + c
        rows.append(row)
    return rows


def _constant_of(L):
    """The value of a constant target coefficient; ZERO for None."""
    if L is None:
        return ZERO
    if L.pole_order() > 0 or L.body.max_degree() > 0:
        raise SegrefuchsError("target coefficient is not constant: %r"
                              % (L,))
    return L.body.constant_term()


def _solve_tags(eqs, targets, allowed):
    """Solve the linear forms eqs = 0 for the target tags.

    The targets' coefficients must form a constant invertible matrix, so
    the solve is one exact inverse.  Returns {target: LinForm} over the
    other tags, each of which must be in allowed.
    """
    Minv = linalg.inverse([[_constant_of(eq.get(t)) for t in targets]
                           for eq in eqs])
    rests = [LinForm({t: c for t, c in eq.coef.items() if t not in targets},
                     eq.alg) for eq in eqs]
    solved = {}
    for t, row in zip(targets, Minv):
        expr = LinForm({}, eqs[0].alg)
        for x, rest in zip(row, rests):
            if not x.is_zero():
                expr = expr - rest.scale(x)
        bad = sorted(u for u in expr.coef if u not in allowed)
        if bad:
            raise SegrefuchsError("the solve for %s left tags %s"
                                  % (t, bad))
        solved[t] = expr
    return solved


U_NAMES = ("P0", "P1", "Q0", "Q1")
U_TAGS = [("P0", 0), ("P1", 0), ("P0", 1), ("P1", 1),
          ("Q0", 0), ("Q1", 0), ("Q0", 1), ("Q1", 1)]


def _second_derivative_exprs(E):
    """Solve the structural tangency for P0'', P1'', Q0'', Q1''.

    Collected lines 3 and 2 at z^0 and z^1 hold them with the constant
    pivots -1, -1, 1 and -3.  Returns {(name, 2): LinForm} over the u-tags
    (name, 0), (name, 1), in the order of U_NAMES.
    """
    V3 = (Z, WV, ZETA)
    P0, P1, Q0, Q1 = (LinForm.unknown((n, 0), STRUCT_ALG) for n in U_NAMES)
    at = E.a_tilde()
    Pf, Qf = structural_field(LaurentInW(at.body.embed(V3), at.pole, WV),
                              MultiSeries.variable(Z, V3), P0, P1, Q0, Q1)
    lines = _collected(Pf, Qf, E, {ZETA: 3, Z: 1})
    return _solve_tags([lines[j].slice({Z: k})
                        for j, k in ((3, 0), (3, 1), (2, 0), (2, 1))],
                       [(n, 2) for n in U_NAMES], set(U_TAGS))


def assemble_u_system(E):
    """The 8x8 system du/dw = C(w) u for u = (P0,P1,P0',P1',Q0,Q1,Q0',Q1').

    Mechanically derived: rows 3-4 of the collected system at z-degrees 0
    and 1 under the structural substitution.  Pole order is at most 3m.
    """
    C = _system_matrix(U_TAGS, STRUCT_ALG[WV], _second_derivative_exprs(E),
                       (WV,))
    sys = LinearODESystem(C, unknown="(P0,P1,P0',P1',Q0,Q1,Q0',Q1')")
    if sys.pole_order > 3 * E.m:
        raise SegrefuchsError("u-system pole order %d exceeds 3m = %d"
                              % (sys.pole_order, 3 * E.m))
    return sys


# Y = G(w) u: each u-tag as its (w-power, Y-column) terms, with Q = w R.
Y_OF_U = {("P0", 0): ((0, 0),), ("P1", 0): ((0, 1),),
          ("P0", 1): ((-1, 4),), ("P1", 1): ((-1, 5),),
          ("Q0", 0): ((1, 2),), ("Q1", 0): ((1, 3),),
          ("Q0", 1): ((0, 6), (0, 2)), ("Q1", 1): ((0, 7), (0, 3))}
# the row of A that holds each second derivative: (row, w-power, diagonal)
Y_ROW = {"P0": (4, 2, ONE), "P1": (5, 2, ONE),
         "Q0": (6, 1, -ONE), "Q1": (7, 1, -ONE)}


def assemble_Y_system(E, report=None):
    """The Fuchsian 8x8 system dY/dw = (1/w) A(w) Y, A holomorphic.

    Y = (P0, P1, R0, R1, wP0', wP1', wR0', wR1') with Q = w R is the gauge
    Y = G(w) u of the u-system, and A is read off its solved second
    derivatives through Y_OF_U: rows 0-3 are the unit A[i][4+i] = 1, rows
    4-5 are e_i + w^2 P'' and rows 6-7 are -e_i + w Q''.  On a non-Fuchsian
    surface some entry of A acquires a pole; the structured error then
    names that entry and, when a classifier report is supplied, its first
    violated ledger row.
    """
    from .fuchs import NON_FUCHSIAN
    C = assemble_u_system(E).entries
    A = [[_const(ZERO, (WV,)) for _ in range(8)] for _ in range(8)]
    for i in range(4):
        A[i][4 + i] = _const(ONE, (WV,))
    for n, (i, k, diag) in Y_ROW.items():
        A[i][i] = _const(diag, (WV,))
        # the row of n' in C holds n''
        for t, c in zip(U_TAGS, C[U_TAGS.index((n, 1))]):
            for p, j in Y_OF_U[t]:
                A[i][j] = A[i][j] + c.mul_w(k + p)
        for j, e in enumerate(A[i]):
            if e.pole_order() > 0:
                w = report.witnesses() if report is not None and \
                    report.verdict == NON_FUCHSIAN else None
                raise NonFuchsianError(
                    "Y-system entry A[%d][%d] has pole order %d; the "
                    "Fuchsian grouping fails" % (i, j, e.pole_order()),
                    ledger_row=w[0].as_dict() if w else None, entry=(i, j),
                    pole=e.pole_order())
    return LinearODESystem([[LaurentInW(e.as_series(), 1, WV) for e in row]
                            for row in A],
                           unknown="(P0,P1,R0,R1,wP0',wP1',wR0',wR1')")


# ---------------------------------------------------------------------------
# the complete 12x12 system
# ---------------------------------------------------------------------------

Y12_COMPONENTS = [("P", 0, 0), ("Q", 0, 0), ("P", 1, 0), ("P", 0, 1),
                  ("Q", 1, 0), ("Q", 0, 1), ("P", 2, 0), ("P", 1, 1),
                  ("P", 0, 2), ("Q", 2, 0), ("Q", 1, 1), ("Q", 0, 2)]

_THIRD = [("P", 3, 0), ("P", 2, 1), ("P", 1, 2), ("P", 0, 3),
          ("Q", 3, 0), ("Q", 2, 1), ("Q", 1, 2), ("Q", 0, 3)]


class TwelveSystem:
    """dy/dz = A y, dy/dw = B y for the full second-jet vector y."""

    def __init__(self, A, B):
        self.A = A
        self.B = B
        self.pole_order = max(e.pole_order() for M in (A, B)
                              for row in M for e in row)

    def vector_of(self, L):
        """The 12 jet components of a concrete field, as (z,w)-series."""
        P, Q = L.P, L.Q
        out = []
        for name, i, j in Y12_COMPONENTS:
            s = P if name == "P" else Q
            for _ in range(i):
                s = s.diff(Z)
            for _ in range(j):
                s = s.diff(WV)
            out.append(s)
        return out

    def residuals(self, y):
        """(d/dz y - A y, d/dw y - B y) for a 12-vector of (z,w)-series."""
        return _residual(self.A, y, Z), _residual(self.B, y, WV)


def initial_system(E):
    """The four collected equations of E as linear forms over jet tags.

    Coefficients are Laurent in w, built from the meromorphic a, b, c data
    of E.  Line 0 is Q_zz = 0.
    """
    return _collected(LinForm.unknown(("P", 0, 0), JET_ALG),
                      LinForm.unknown(("Q", 0, 0), JET_ALG), E, {ZETA: 3})


def assemble_twelve_system(E):
    """Differentiate the four collected equations once in z and w and solve
    for the complete set of third-order derivatives; read off A and B.

    Every entry stays meromorphic with pole order at most 3m+1.
    """
    eqs = [ln.diff(v) for ln in initial_system(E) for v in (Z, WV)]
    solved = _solve_tags(eqs, _THIRD, set(Y12_COMPONENTS))
    A, B = (_system_matrix(Y12_COMPONENTS, step, solved, (Z, WV))
            for step in (_jet_dz, _jet_dw))
    sys = TwelveSystem(A, B)
    if sys.pole_order > 3 * E.m + 1:
        raise SegrefuchsError("12x12 entries reach pole order %d > 3m+1"
                              % sys.pole_order)
    return sys
