"""Floating-point analytic continuation of the derived linear systems.

Truncated series entries are evaluated as polynomials inside a configured
trusted radius; every numeric result reports the ignored-tail magnitude
estimated from the last retained degree.  Continuation runs classical
fourth-order steps of fixed size over the whole loop, then reruns it from
the start with twice as many steps until two consecutive runs agree to
tolerance; the last run is the result (no extrapolation).  Loops at
|w| = r never meet the singularity, so no stiff machinery is needed.
"""

import numpy as np

from .errors import NonConvergenceError, SegrefuchsError
from .surfaces import W

TRUSTED_RADIUS = 0.25
INVERTIBLE_TOL = 1e-8  # |det| above which a monodromy matrix is invertible
STEP_BUDGET = 1 << 17


class LoopSpec:
    """Circle |w| = r traversed once; direction +1 is counterclockwise.

    The radius must stay strictly inside the trusted evaluation radius of
    the truncated entries (configured per call, default 1/4).  The first
    run's steps must leave room to double within STEP_BUDGET.
    """

    def __init__(self, radius=0.2, steps=256, direction=1, tol=1e-10):
        if not (0 < radius < np.inf and 0 < tol < np.inf):
            raise SegrefuchsError("radius and tol must be finite and > 0")
        if not 64 <= steps <= STEP_BUDGET // 2:
            raise SegrefuchsError("steps must lie in [64, %d]"
                                  % (STEP_BUDGET // 2))
        if direction not in (1, -1):
            raise SegrefuchsError("direction must be +1 or -1")
        self.radius = radius
        self.steps = steps
        self.direction = direction
        self.tol = tol


class MonodromyResult:
    def __init__(self, matrix, residual, tail_estimate, condition, steps):
        self.matrix = matrix
        self.residual = residual
        self.tail_estimate = tail_estimate
        self.condition = condition
        self.steps = steps

    def invertible(self):
        """Off the CLI path: the tests' invertibility check."""
        return abs(np.linalg.det(self.matrix)) > INVERTIBLE_TOL

    def as_dict(self):
        return {
            "matrix": [[[v.real, v.imag] for v in row]
                       for row in self.matrix.tolist()],
            "residual": self.residual,
            "tail_estimate": self.tail_estimate,
            "condition": self.condition,
            "steps": self.steps,
        }


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
                if any(x and k != iw for k, x in enumerate(exp)):
                    raise SegrefuchsError("matrix entry depends on more "
                                          "than w; cannot evaluate")
                d = exp[iw] + shift
                C[d, i, j] += c.to_complex()
                if exp[iw] >= body.order - 1:
                    tail_deg = max(tail_deg, d)
                    tail_max = max(tail_max, abs(c.to_complex()))
    return C, pole, tail_deg, tail_max


def _eval_poly_matrix(C, w):
    M = C[-1].copy()
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


def _rk4_loop(data, loop, Y0, trusted_radius):
    """Continue the columns of Y0 once around the loop.

    data is _dense_matrix_data of the system.  Runs n fixed RK4 steps, then
    2n, 4n, ... until two consecutive runs agree to loop.tol.
    """
    if not loop.radius < trusted_radius:
        raise SegrefuchsError("loop radius %g is not strictly inside the "
                              "trusted evaluation radius %g"
                              % (loop.radius, trusted_radius))
    C, pole, _, _ = data
    r = loop.radius
    two_pi_i = 2j * np.pi * loop.direction

    def rhs(t, Y):
        w = r * np.exp(two_pi_i * t)
        dw = two_pi_i * w
        M = _eval_poly_matrix(C, w) / w ** pole
        return dw * (M @ Y)

    def run(nsteps):
        h = 1.0 / nsteps
        Y = Y0.astype(complex).copy()
        t = 0.0
        for _ in range(nsteps):
            k1 = rhs(t, Y)
            k2 = rhs(t + h / 2, Y + h / 2 * k1)
            k3 = rhs(t + h / 2, Y + h / 2 * k2)
            k4 = rhs(t + h, Y + h * k3)
            Y = Y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        return Y

    n = loop.steps
    prev = run(n)
    while n < STEP_BUDGET:
        n *= 2
        cur = run(n)
        diff = float(np.max(np.abs(cur - prev)))
        if diff < loop.tol:
            return cur, diff, n
        prev = cur
    raise NonConvergenceError("continuation did not converge below %g "
                              "within %d steps" % (loop.tol, STEP_BUDGET))


def continue_system(S, loop, y0):
    """Analytic continuation of one solution vector around the loop.

    Off the CLI path: oracle of the RK4 loop.
    """
    Y0 = np.array(y0, dtype=complex).reshape(-1, 1)
    Y, diff, steps = _rk4_loop(_dense_matrix_data(S), loop, Y0,
                               TRUSTED_RADIUS)
    return Y[:, 0], diff, steps


def monodromy_matrix(S, loop, trusted_radius=TRUSTED_RADIUS):
    """Monodromy of the identity frame at the base point w = r."""
    data = _dense_matrix_data(S)
    Y, diff, steps = _rk4_loop(data, loop, np.eye(S.n, dtype=complex),
                               trusted_radius)
    cond = float(np.linalg.cond(Y))
    return MonodromyResult(Y, diff, _tail_bound(data, loop.radius), cond,
                           steps)


def infinitesimal_monodromy(basis_vectors, S, loop):
    """Continue basis solution vectors and re-express them in the basis.

    basis_vectors: list of vectors of w-series (or already-numeric complex
    vectors) that solve S at |w| = r.  Returns (psi, offspan): psi is the
    change-of-basis matrix of the loop action, offspan the largest
    least-squares residual (a large value signals the basis does not span
    its continuation at this truncation; reported, not fatal).

    Off the CLI path: paper content, the loop action on a basis.
    """
    r = loop.radius
    cols = []
    for vec in basis_vectors:
        if hasattr(vec[0], "eval_complex"):
            cols.append([comp.eval_complex({_wvar(comp): r})
                         for comp in vec])
        else:
            cols.append([complex(x) for x in vec])
    B = np.array(cols, dtype=complex).T          # n x d
    Y, diff, steps = _rk4_loop(_dense_matrix_data(S), loop, B,
                               TRUSTED_RADIUS)
    sol, res, rank, _ = np.linalg.lstsq(B, Y, rcond=None)
    offspan = float(np.max(np.abs(B @ sol - Y)))
    return sol, offspan


def _wvar(series):
    """Off the CLI path: infinitesimal_monodromy's evaluation variable."""
    return series.vars[0] if len(series.vars) == 1 else W
