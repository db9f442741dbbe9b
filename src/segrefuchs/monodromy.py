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
A run forms the P_k of CHUNK steps at a time as stacked arrays, from one
batched evaluation of the coefficients at the chunk's nodes, multiplies
them in step order (later steps on the left) by pairwise products, and
applies the chunk's product to the solution once.
"""

import numpy as np

from .errors import NonConvergenceError, SegrefuchsError
from .surfaces import W

TRUSTED_RADIUS = 0.25
# |det| over the Hadamard bound above which a monodromy matrix is invertible
INVERTIBLE_TOL = 1e-8
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

    def invertible(self):
        """|det M| relative to the Hadamard bound, the product of the row
        norms, exceeds INVERTIBLE_TOL.

        Off the CLI path: the tests' invertibility check.
        """
        bound = float(np.prod(np.linalg.norm(self.matrix, axis=1)))
        return abs(np.linalg.det(self.matrix)) > INVERTIBLE_TOL * bound

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

    Returns (coeffs[d, i, j], pole, tail_degree, tail_coeff_max).
    """
    n = S.n
    pole = max(e.pole for row in S.entries for e in row)
    degs = []
    for row in S.entries:
        for e in row:
            shift = pole - e.pole
            degs.append(e.body.var_degree(e.wvar) + shift)
    D = max(degs, default=0)
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


def tail_estimate(S, radius):
    """Crude bound on the ignored series tail of the entries at |w| = r.

    Uses the magnitude of the last retained degree with a geometric factor;
    the artifact cannot know true convergence radii, so this is reported,
    not enforced.

    Off the CLI path: the tests' view of the tail bound.
    """
    return _tail_bound(_dense_matrix_data(S), radius)


def _tail_bound(data, radius):
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

    With F(t) = 2 pi i dir w C(w) / w^pole at w = r exp(2 pi i dir t), the
    step from t_k is Y -> P_k Y with P_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4),
    K1 = F(t_k), K2 = F(t_k + h/2) (I + h/2 K1),
    K3 = F(t_k + h/2) (I + h/2 K2), K4 = F(t_k + h) (I + h K3): the
    classical RK4 step applied to the identity.  Each chunk of at most
    CHUNK steps evaluates F at its 2B + 1 nodes at once, forms its P_k as
    stacked arrays and applies their ordered product P_{B-1} ... P_0.

    A run whose result is not finite is refused at once.  That covers a
    loop on which F is not finite: inf and NaN survive every product, even
    one by 0.  A run of n steps carries a rounding error of about
    eps n max|Y|, which grows with n while the truncation error falls.  So
    once a doubling fails to shrink the difference of two runs, and that
    difference is within this rounding floor, more steps cannot reach
    loop.tol: the schedule stops there with NonConvergenceError, as it
    does when the step budget runs out.  Both tests come after the tol
    test, so a run that converges is untouched by them.
    """
    C, pole, _, _ = data
    r = loop.radius
    two_pi_i = 2j * np.pi * loop.direction
    eye = np.eye(C.shape[1], dtype=complex)

    def chunks(nsteps):
        """F at the 2B + 1 nodes of each chunk of B steps of a run."""
        h = 1.0 / nsteps
        for start in range(0, nsteps, CHUNK):
            B = min(CHUNK, nsteps - start)
            w = r * np.exp(two_pi_i * h * (start + np.arange(2 * B + 1) / 2))
            dw = two_pi_i * w / w ** pole
            yield _eval_poly_matrix(C, w) * dw[:, None, None]

    def run(nsteps):
        h = 1.0 / nsteps
        Y = Y0.astype(complex)
        with np.errstate(all="ignore"):
            for F in chunks(nsteps):
                F0, Fh, F1 = F[0:-1:2], F[1::2], F[2::2]
                K2 = Fh @ (eye + h / 2 * F0)
                K3 = Fh @ (eye + h / 2 * K2)
                K4 = F1 @ (eye + h * K3)
                P = eye + (h / 6) * (F0 + 2 * K2 + 2 * K3 + K4)
                Y = _ordered_product(P) @ Y
        if not np.isfinite(Y).all():
            raise SegrefuchsError("a run of %d steps around |w| = %g is not "
                                  "finite: the system's coefficients are not "
                                  "finite on the loop, or its RK4 products "
                                  "overflow" % (nsteps, r))
        return Y

    n = loop.steps
    eps = np.finfo(float).eps
    prev = run(n)
    prev_diff = np.inf
    while n < STEP_BUDGET:
        n *= 2
        cur = run(n)
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


def _ordered_product(P):
    """P[-1] @ ... @ P[1] @ P[0] by rounds of stacked pairwise products."""
    while len(P) > 1:
        k = len(P) // 2 * 2
        P = np.concatenate((P[1:k:2] @ P[0:k:2], P[k:]))
    return P[0]


def continue_system(S, loop, y0):
    """Analytic continuation of one solution vector around the loop.

    Off the CLI path: oracle of the RK4 loop.
    """
    Y0 = np.array(y0, dtype=complex).reshape(-1, 1)
    Y, diff, steps = _rk4_loop(_dense_matrix_data(S), loop, Y0)
    return Y[:, 0], diff, steps


def monodromy_matrix(S, loop):
    """Monodromy of the identity frame at the base point w = r."""
    data = _dense_matrix_data(S)
    Y, diff, steps = _rk4_loop(data, loop, np.eye(S.n, dtype=complex))
    cond = float(np.linalg.cond(Y))
    return MonodromyResult(Y, diff, _tail_bound(data, loop.radius), cond,
                           steps)


def infinitesimal_monodromy(basis_vectors, S, loop):
    """Continue basis solution vectors and re-express them in the basis.

    basis_vectors: list of vectors of w-series (field_u_vector's output)
    that solve S at |w| = r.  Returns (psi, offspan): psi is the
    change-of-basis matrix of the loop action, offspan the largest
    least-squares residual (a large value signals the basis does not span
    its continuation at this truncation; reported, not fatal).

    Off the CLI path: paper content, the loop action on a basis.
    """
    r = loop.radius
    cols = [[comp.eval_complex({W: r}) for comp in vec]
            for vec in basis_vectors]
    B = np.array(cols, dtype=complex).T          # n x d
    Y, diff, steps = _rk4_loop(_dense_matrix_data(S), loop, B)
    sol, res, rank, _ = np.linalg.lstsq(B, Y, rcond=None)
    offspan = float(np.max(np.abs(B @ sol - Y)))
    return sol, offspan
