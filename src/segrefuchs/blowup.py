"""Monomial blow-ups of surfaces.

The blow-down map is F(xi, eta) = (xi eta^s, eta^l).  Surfaces pull back for
any s, l >= 1 by substituting into the defining relation and taking the
l-th root; the pulled-back relation eta = etab exp(E) is then solved for eta
by fixed-point iteration, each step of which fixes 2s + 2 + l(m-1) more
degrees (see pullback_surface).
"""

from fractions import Fraction

from .qfield import GaussianRational, ONE, I
from .series import MultiSeries, exp_series, log_series
from .serialize import MAX_ORDER
from .surfaces import ComplexDefining, Z, ZB, WB, normalize_lead
from .segre import XIB, ETAB
from .errors import SegrefuchsError, OrderTooLowError, NotNormalizableError

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
    the resulting relation eta = etab exp(E(xi, xib, etab, eta)) for eta.
    The result is validated to keep normal coordinates and is renormalized
    to the admissible form when possible.

    E has the order N + l(m-1) of phi's order N shifted by etab^(l(m-1)),
    so a pullback past MAX_ORDER is refused before any series work.  The
    solve is the fixed-point iteration R <- etab exp(E(R)) from R = 0,
    until two iterates are equal.  E reads eta only through z = xi eta^s
    inside phi, and phi_z carries zb = xib etab^s, since phi has no pure-z
    terms; so the right side's eta-derivative has valuation at least
    g = 2s + 2 + l(m-1).  An iterate that agrees with the solution through
    degree d maps to one that agrees through d + g, so the iterates agree
    with it through R's order within ceil(R.order / g) + 2 steps, and a
    repeated iterate is the solution.
    """
    order = M.order
    if order < 2:
        raise OrderTooLowError(order, 2, "pullback needs at least the "
                               "leading defining terms; order %d given"
                               % order)
    s, l = B.s, B.l
    top = order + l * (M.m - 1)
    if top > MAX_ORDER:
        raise SegrefuchsError("the pullback exponent would have order %d; "
                              "the highest supported order is %d"
                              % (top, MAX_ORDER))
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
    R, prev = MultiSeries.zero(amb[:3]), None
    while R != prev:
        R, prev = exp_series(expo.compose({ETA: R})).monomial_mul(ETAB, 1), R
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
