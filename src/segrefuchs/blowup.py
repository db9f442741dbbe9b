"""Monomial blow-ups of surfaces and transport of vector fields.

The blow-down map is F(xi, eta) = (xi eta^s, eta^l).  Surfaces pull back for
any s, l >= 1 by substituting into the defining relation, taking the l-th
root and re-solving the implicit shape; vector fields transport only for
l = 2, where the explicit formulas
    P* = eta^-s P(xi eta^s, eta^2) - (s xi / 2 eta^2) Q(xi eta^s, eta^2)
    Q* = (1 / 2 eta) Q(xi eta^s, eta^2)
apply.  Pushing forward requires each xi^j-coefficient of the transported
components to be divisible by eta^(j s) with an even-power quotient; the
failure is reported with the offending index.
"""

from fractions import Fraction

from .qfield import GaussianRational, ONE, I
from .series import (MultiSeries, LaurentInW, exp_series, log_series,
                     solve_implicit)
from .surfaces import ComplexDefining, Z, ZB, WB, W, normalize_lead
from .segre import XIB, ETAB
from .prolongation import VectorField
from .errors import (DivisibilityError, SegrefuchsError, OrderTooLowError,
                     NotNormalizableError)

XI, ETA = "xi", "eta"


class BlowupMap:
    """F(xi, eta) = (xi eta^s, eta^l)."""

    def __init__(self, s, l=2):
        if s < 1 or l < 1:
            raise SegrefuchsError("blow-up exponents must satisfy s, l >= 1")
        self.s = s
        self.l = l


class PulledBackSurface:
    """Defining data of M* containing {eta = 0}.

    psi is the full exponent of  eta = etab * exp(i psi(xi, xib, etab));
    m_star describes its leading eta-power; surface holds the admissible
    ComplexDefining when the xi-rescale lands in the field (always for
    l = 2).
    """

    def __init__(self, s, l, m_star, psi, defining, surface):
        self.s = s
        self.l = l
        self.m_star = m_star
        self.psi = psi
        self.defining = defining
        self.surface = surface


def pullback_surface(M, B):
    """Pull back a surface along the blow-down map.

    Substitutes z -> xi eta^s, w -> eta^l into the complex defining
    relation, extracts the l-th root branch fixing {eta = etab} and solves
    the resulting implicit relation for eta.  The result is validated to
    keep normal coordinates and is renormalized to the admissible form when
    possible.
    """
    order = M.order
    if order < 2:
        raise OrderTooLowError(order, 2, "pullback needs at least the "
                               "leading defining terms; order %d given"
                               % order)
    s, l = B.s, B.l
    # pulled-back relation before solving:
    #   eta^l = etab^l exp( eps i etab^(l(m-1)) phi(xi eta^s, xib etab^s,
    #                                               etab^l) );
    # the branch of the l-th root fixing eta = etab divides the exponent
    # by l.
    amb = (XI, XIB, ETAB, ETA)
    zsub = MultiSeries.monomial(ONE, (1, 0, 0, s), amb)
    zbsub = MultiSeries.monomial(ONE, (0, 1, s, 0), amb)
    wbsub = MultiSeries.monomial(ONE, (0, 0, l, 0), amb)
    phisub = M.phi.compose({Z: zsub, ZB: zbsub, WB: wbsub})
    sgn = I if M.eps == 1 else -I
    expo = phisub.monomial_mul(ETAB, l * (M.m - 1)) \
        .scale(sgn * GaussianRational.of(Fraction(1, l)))
    G = MultiSeries.variable(ETA, amb) - exp_series(expo).monomial_mul(ETAB, 1)
    R = solve_implicit([G], (XI, XIB, ETAB), (ETA,))[0]
    # normal-coordinates validation: no pure-xi or pure-xib terms
    # besides the etab-axis
    for e in R.terms:
        if (e[0] == 0) != (e[1] == 0):
            raise SegrefuchsError("pullback lost normal coordinates: "
                                  "term %s" % (e,))
    theta = R.monomial_div(ETAB, 1)
    psi = log_series(theta).scale(-I)
    if psi.is_zero():
        raise OrderTooLowError(order, order + 2 * s,
                               "pullback degenerated: every substituted "
                               "term vanishes at complex order %d" % order)
    mv = psi.var_valuation(ETAB)
    m_star = mv + 1
    phi_star = psi.monomial_div(ETAB, mv).rename({XI: Z, XIB: ZB, ETAB: WB})
    surface = None
    try:
        eps_star, phin, lam_sq = normalize_lead(phi_star)
        cand = ComplexDefining(m_star, eps_star, phin.scale(eps_star),
                               scale_sq=lam_sq)
        if not cand.admissibility_defects():
            surface = cand
    except NotNormalizableError:
        pass
    return PulledBackSurface(s, l, m_star, psi, R, surface)


def levi_unit_off_locus(P):
    """The xi*xib coefficient of the pulled-back exponent, in etab.

    M* is Levi-nondegenerate off {eta=0} to the working order iff this is
    a unit times a power of etab, i.e. nonzero at this truncation.
    """
    return P.psi.coeff_of({XI: 1, XIB: 1})


def find_blowup_exponent(M, s_max):
    """The exponent s = 2, when s_max >= 2 and its pullback is
    Levi-nondegenerate off X.

    s = 2 is the only exponent worth trying: the xi*xib coefficient of the
    pulled-back exponent comes from phi's z*zb slice alone, at etab-degree
    2s + 2m - 2, and every other slice lies deeper and grows with s, so no
    s >= 3 certifies what s = 2 does not.  Returns (2, PulledBackSurface),
    (None, [(2, reason)]) when that coefficient vanishes at this
    truncation, or (None, []) when s_max < 2.
    """
    if s_max < 2:
        return None, []
    P = pullback_surface(M, BlowupMap(2, 2))
    c = levi_unit_off_locus(P)
    if c.is_zero():
        return None, [(2, "xi*xib coefficient vanishes to order %d"
                       % c.order)]
    return 2, P


class BlownField:
    """Vector field in (xi, eta) with Laurent-in-eta components."""

    def __init__(self, Pstar, Qstar):
        """Off the CLI path: the result of pullback_field."""
        self.P = Pstar
        self.Q = Qstar


def pullback_field(L, B):
    """Transport a field through the blow-down (l = 2 only).

    Components may acquire finite eta-poles; they are tracked exactly.

    Off the CLI path: paper content, field transport into a blow-up.
    """
    if B.l != 2:
        raise SegrefuchsError("field transport is implemented for l = 2 "
                              "only; explicit formulas exist just there")
    s = B.s
    amb = (XI, ETA)
    zsub = MultiSeries.monomial(ONE, (1, s), amb)
    wsub = MultiSeries.monomial(ONE, (0, 2), amb)
    Psub = L.P.compose({Z: zsub, W: wsub})
    Qsub = L.Q.compose({Z: zsub, W: wsub})
    xi = MultiSeries.variable(XI, amb)
    half_s = GaussianRational.of(Fraction(s, 2))
    Pstar = LaurentInW(Psub, s, ETA) - \
        LaurentInW((xi * Qsub).scale(half_s), 2, ETA)
    Qstar = LaurentInW(Qsub.scale(Fraction(1, 2)), 1, ETA)
    return BlownField(Pstar, Qstar)


def pushforward_field(f, g, B):
    """Reconstruct (P, Q) in (z, w) from transported components.

    f and g are the (xi, eta)-components of the transported field (Laurent
    values allowed).  Checks the eta^(j s) divisibility with even-power
    quotients and inverts the substitution; inverse of pullback_field on
    its image.

    Off the CLI path: paper content, transport out of a blow-up.
    """
    if B.l != 2:
        raise SegrefuchsError("field transport is implemented for l = 2 "
                              "only")
    s = B.s
    f = f if isinstance(f, LaurentInW) else LaurentInW(f, 0, ETA)
    g = g if isinstance(g, LaurentInW) else LaurentInW(g, 0, ETA)
    amb = (XI, ETA)
    xi = LaurentInW(MultiSeries.variable(XI, amb), 0, ETA)
    # P o F = eta^s f + s xi eta^(s-1) g ;  Q o F = 2 eta g
    phat = f.mul_w(s) + (xi * g).scale(s).mul_w(s - 1)
    qhat = g.mul_w(1).scale(2)
    P = _invert_substitution(phat, s, "P")
    Q = _invert_substitution(qhat, s, "Q")
    return VectorField(P, Q)


def _invert_substitution(hhat, s, label):
    """Solve H(xi eta^s, eta^2) = hhat for H(z, w).

    Off the CLI path: pushforward_field's inverse substitution.
    """
    if hhat.pole_order() > 0:
        raise DivisibilityError(0, hhat.pole, -hhat.pole_order())
    h = hhat.as_series()
    terms = {}
    order = h.order
    for e, c in h.terms.items():
        j = e[h.vars.index(XI)]
        k = e[h.vars.index(ETA)]
        if k < j * s:
            raise DivisibilityError(j, j * s, k)
        r = k - j * s
        if r % 2:
            raise DivisibilityError(j, j * s, k)
        terms[(j, r // 2)] = c
    return MultiSeries((Z, W), order, terms)
