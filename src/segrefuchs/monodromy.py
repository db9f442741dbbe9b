"""Floating-point analytic continuation of the derived linear systems.

Truncated series entries are evaluated as polynomials inside the loop's
trusted radius, a LoopSpec field; every numeric result reports the
ignored-tail magnitude estimated from the last retained degree.
Continuation runs classical fourth-order steps of fixed size over the
whole loop, then reruns it from the start with twice as many steps until
two consecutive runs agree to tolerance; the last run is the result (no
extrapolation).  Loops at |w| = r never meet the singularity, so no stiff
machinery is needed.  The doubling fails (NonConvergenceError) when the
step budget runs out, or earlier, when a doubling shows that the runs'
difference has reached the rounding floor eps * steps * max|M| above
tolerance.  A run whose result is not finite is refused at once: that
covers a loop whose coefficients are not finite, since inf and NaN
survive every product.

The system is linear, so one RK4 step is multiplication by its transfer
matrix P_k, the step applied to the identity (a matrix polynomial in h*F).
When the coefficient tensor shows that F is constant on the loop, as for
A0 / w with A0 constant, every step has the same P and a run of n steps
is P^n, formed by binary powering.  Otherwise a run forms the P_k of
CHUNK steps at a time as stacked arrays, from one batched evaluation of
the coefficients at the chunk's nodes, multiplies them in step order
(later steps on the left) by pairwise products, and applies the chunk's
product to the solution once.  Either way the step counts, the doubling
schedule and its stopping rules are those of a step-by-step loop.
"""

import numpy as np

from .errors import NonConvergenceError, SegrefuchsError

TRUSTED_RADIUS = 0.25
STEP_BUDGET = 1 << 17
# RK4 steps whose transfer matrices are stacked at once; bounds the memory
# of a chunk (a few (2*CHUNK+1) x n x n complex arrays)
CHUNK = 128


class LoopSpec:
    """Circle |w| = r traversed once; direction +1 is counterclockwise.

    The radius must stay strictly inside the trusted evaluation radius of
    the truncated entries (default 1/4; a NaN one admits no radius).  The
    first run's steps must leave room to double within STEP_BUDGET.
    """

    def __init__(self, radius=0.2, steps=256, direction=1, tol=1e-10,
                 trusted_radius=TRUSTED_RADIUS):
        if not (0 < radius < np.inf and 0 < tol < np.inf):
            raise SegrefuchsError("radius and tol must be finite and > 0")
        if not radius < trusted_radius:
            raise SegrefuchsError("loop radius %g is not strictly inside the "
                                  "trusted evaluation radius %g"
                                  % (radius, trusted_radius))
        if not 64 <= steps <= STEP_BUDGET // 2:
            raise SegrefuchsError("steps must lie in [64, %d]"
                                  % (STEP_BUDGET // 2))
        if direction not in (1, -1):
            raise SegrefuchsError("direction must be +1 or -1")
        self.radius = radius
        self.steps = steps
        self.direction = direction
        self.tol = tol
        self.trusted_radius = trusted_radius


class MonodromyResult:
    def __init__(self, matrix, residual, tail_estimate, condition, steps):
        self.matrix = matrix
        self.residual = residual
        self.tail_estimate = tail_estimate
        self.condition = condition
        self.steps = steps

    def as_dict(self):
        """JSON payload; a non-finite diagnostic (no finite bound) is None."""
        return {
            "matrix": [[[v.real, v.imag] for v in row]
                       for row in self.matrix.tolist()],
            "residual": _finite_or_none(self.residual),
            "tail_estimate": _finite_or_none(self.tail_estimate),
            "condition": _finite_or_none(self.condition),
            "steps": self.steps,
        }


def _finite_or_none(x):
    return x if np.isfinite(x) else None


def _dense_matrix_data(S):
    """Common-pole polynomial tensor for fast evaluation of C(w).

    Returns (coeffs[d, i, j], pole, tail_degree, tail_coeff_max).  Only
    nonzero entries set the pole and size the tensor, so a constant A0 / w
    has one plane and w A0, pole -1, has one too.
    """
    n = S.n
    pole = max((e.pole for row in S.entries for e in row if not e.is_zero()),
               default=0)
    D = max((e.body.var_degree(e.wvar) + pole - e.pole
             for row in S.entries for e in row if not e.is_zero()),
            default=0)
    C = np.zeros((D + 1, n, n), dtype=complex)
    tail_deg = 0
    tail_max = 0.0
    for i, row in enumerate(S.entries):
        for j, e in enumerate(row):
            shift = pole - e.pole
            if e.is_zero():
                continue
            body = e.body
            iw = body.vars.index(e.wvar)
            for exp, c in body.terms.items():
                d = exp[iw] + shift
                C[d, i, j] += c.to_complex()
                if exp[iw] >= body.order - 1:
                    tail_deg = max(tail_deg, d)
                    tail_max = max(tail_max, abs(c.to_complex()))
    return C, pole, tail_deg, tail_max


def _eval_poly_matrix(C, w):
    """C(w) at each node of the 1-d array w by one batched Horner scheme;
    returns the stack of shape (len(w), n, n)."""
    w = w[:, None, None]
    M = np.broadcast_to(C[-1], w.shape[:1] + C.shape[1:]).copy()
    for d in range(len(C) - 2, -1, -1):
        M *= w
        M += C[d]
    return M


def _tail_bound(data, radius):
    """Crude bound on the ignored series tail of the entries at |w| = r.

    Uses the magnitude of the last retained degree with a geometric factor;
    the artifact cannot know true convergence radii, so this is reported,
    not enforced.
    """
    _, pole, tail_deg, tail_max = data
    if radius >= 1.0:
        return float("inf")
    geo = radius ** max(tail_deg + 1 - pole, 0) / (1.0 - radius)
    return tail_max * geo


def _rk4_loop(data, loop, Y0):
    """Continue the columns of Y0 once around the loop.

    data is _dense_matrix_data of the system; LoopSpec has already held
    the loop inside its trusted radius.  Runs n fixed RK4 steps, then 2n,
    4n, ... until two consecutive runs agree to loop.tol.

    A run of n steps carries a rounding error of about eps n max|Y|, which
    grows with n while the truncation error falls.  So once a doubling
    fails to shrink the difference of two runs, and that difference is
    within this rounding floor, more steps cannot reach loop.tol: the
    schedule stops there with NonConvergenceError, as it does when the
    step budget runs out.  Both tests come after the tol test, so a run
    that converges is untouched by them.  The floor holds for a powered
    run too: P^n carries the rounding error of P amplified n-fold.
    """
    n = loop.steps
    eps = np.finfo(float).eps
    prev = _run(data, loop, Y0, n)
    prev_diff = np.inf
    while n < STEP_BUDGET:
        n *= 2
        cur = _run(data, loop, Y0, n)
        diff = float(np.max(np.abs(cur - prev)))
        if diff < loop.tol:
            return cur, diff, n
        if prev_diff <= diff <= eps * n * float(np.max(np.abs(cur))):
            raise NonConvergenceError(
                "continuation stalled at its rounding floor: runs of %d and "
                "%d steps differ by %.3g after %.3g, not below %g"
                % (n // 2, n, diff, prev_diff, loop.tol))
        prev, prev_diff = cur, diff
    raise NonConvergenceError("continuation did not converge below %g "
                              "within %d steps" % (loop.tol, STEP_BUDGET))


def _run(data, loop, Y0, nsteps):
    """Y0 after one run of nsteps RK4 steps of size h = 1 / nsteps.

    With F(t) = 2 pi i dir w C(w) / w^pole at w = r exp(2 pi i dir t), the
    step from t_k is Y -> P_k Y (_step_matrices).  When the only nonzero
    plane of C is d = pole - 1, which after LaurentInW's normalization
    means pole == 1 and one plane, F = 2 pi i dir C_0 on the whole loop:
    every step has the same P, and the run is P^n Y0 by binary powering,
    with no evaluation at w.  Otherwise each chunk of at most CHUNK steps
    evaluates F at its 2B + 1 nodes at once, forms its P_k as stacked
    arrays and applies their ordered product P_{B-1} ... P_0.

    A run whose result is not finite is refused at once.  That covers a
    loop on which F is not finite: inf and NaN survive every product, even
    one by 0.
    """
    C, pole, _, _ = data
    r = loop.radius
    two_pi_i = 2j * np.pi * loop.direction
    h = 1.0 / nsteps
    with np.errstate(all="ignore"):
        if pole == 1 and len(C) == 1:
            F = two_pi_i * C
            P = _step_matrices(F, F, F, h)[0]
            Y = np.linalg.matrix_power(P, nsteps) @ Y0
        else:
            Y = Y0.astype(complex)
            for start in range(0, nsteps, CHUNK):
                B = min(CHUNK, nsteps - start)
                w = r * np.exp(two_pi_i * h *
                               (start + np.arange(2 * B + 1) / 2))
                dw = two_pi_i * w / w ** pole
                F = _eval_poly_matrix(C, w) * dw[:, None, None]
                P = _step_matrices(F[0:-1:2], F[1::2], F[2::2], h)
                Y = _ordered_product(P) @ Y
    if not np.isfinite(Y).all():
        raise SegrefuchsError("a run of %d steps around |w| = %g is not "
                              "finite: the system's coefficients are not "
                              "finite on the loop, or its RK4 products "
                              "overflow" % (nsteps, r))
    return Y


def _step_matrices(F0, Fh, F1, h):
    """The RK4 step matrices P_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4) from the
    stacks F0, Fh, F1 of F at t_k, t_k + h/2 and t_k + h, with K1 = F0,
    K2 = Fh (I + h/2 K1), K3 = Fh (I + h/2 K2), K4 = F1 (I + h K3): the
    classical RK4 step applied to the identity."""
    eye = np.eye(F0.shape[-1], dtype=complex)
    K2 = Fh @ (eye + h / 2 * F0)
    K3 = Fh @ (eye + h / 2 * K2)
    K4 = F1 @ (eye + h * K3)
    return eye + (h / 6) * (F0 + 2 * K2 + 2 * K3 + K4)


def _ordered_product(P):
    """P[-1] @ ... @ P[1] @ P[0] by rounds of stacked pairwise products."""
    while len(P) > 1:
        k = len(P) // 2 * 2
        P = np.concatenate((P[1:k:2] @ P[0:k:2], P[k:]))
    return P[0]


def monodromy_matrix(S, loop):
    """Monodromy of the identity frame at the base point w = r."""
    data = _dense_matrix_data(S)
    Y, diff, steps = _rk4_loop(data, loop, np.eye(S.n, dtype=complex))
    cond = float(np.linalg.cond(Y))
    return MonodromyResult(Y, diff, _tail_bound(data, loop.radius), cond,
                           steps)
