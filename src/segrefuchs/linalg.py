"""Exact dense linear algebra over the coefficient field.

Matrices are lists of lists of GaussianRational.  Sizes in this package stay
small (n <= 12), so plain Gaussian elimination with exact division is used
throughout; no fraction-free tricks are needed.  rref leaves zero entries
alone, so a sparse row costs only its nonzeros.  Solving is reading a kernel
off one rref: each degree of the Frobenius recurrence that has something to
solve, resonant or not, is one kernel_basis of [A0 - kI | R_k] in the
unknowns and the old parameters.  A degree k >= 1 with no live term in R_k,
at a k that is not an eigenvalue of A0, is zero with no solve: charpoly and
poly_eval tell the two apart.  charpoly forms one matrix product per step.
"""

from .qfield import GaussianRational, ZERO, ONE
from .errors import SegrefuchsError


def zeros(n, m):
    return [[ZERO for _ in range(m)] for _ in range(n)]


def identity(n):
    M = zeros(n, n)
    for i in range(n):
        M[i][i] = ONE
    return M


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    C = zeros(n, m)
    for i in range(n):
        Ai = A[i]
        Ci = C[i]
        for t in range(k):
            a = Ai[t]
            if a.is_zero():
                continue
            Bt = B[t]
            for j in range(m):
                if not Bt[j].is_zero():
                    Ci[j] = Ci[j] + a * Bt[j]
    return C


def rref(M):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = [row[:] for row in M]
    n = len(R)
    m = len(R[0]) if n else 0
    pivots = []
    r = 0
    for c in range(m):
        pr = None
        for i in range(r, n):
            if not R[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        # inv * 0 and x - f * 0 are no-ops: touch only the pivot row's
        # nonzero entries, all at columns >= c
        Rr = R[r]
        inv = Rr[c].inverse()
        live = [j for j in range(c, m) if not Rr[j].is_zero()]
        for j in live:
            Rr[j] = inv * Rr[j]
        for i in range(n):
            Ri = R[i]
            f = Ri[c]
            if i != r and not f.is_zero():
                for j in live:
                    Ri[j] = Ri[j] - f * Rr[j]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return R, pivots


def rank(M):
    _, pivots = rref(M)
    return len(pivots)


def inverse(M):
    """Inverse of a square matrix; raises SegrefuchsError when singular."""
    n = len(M)
    I = identity(n)
    R, piv = rref([row[:] + I[i] for i, row in enumerate(M)])
    if piv != list(range(n)):
        raise SegrefuchsError("matrix is singular")
    return [row[n:] for row in R]


def kernel_basis(M):
    """Basis of the right kernel, as column vectors: one per free column of
    rref(M), in order, with 1 there and 0 at the other free columns."""
    R, pivots = rref(M)
    m = len(M[0]) if M else 0
    basis = []
    for fc in [c for c in range(m) if c not in pivots]:
        v = [ZERO] * m
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def charpoly(A):
    """Characteristic polynomial det(tI - A), exact Faddeev-LeVerrier.

    Returns coefficients [c_0, ..., c_n] with c_n = 1, lowest degree first.
    Step k forms one product, A M_k, read for c_(n-k) and kept for M_(k+1).
    """
    n = len(A)
    AM = zeros(n, n)    # A M_0, with M_0 = 0
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    c = ONE
    for k in range(1, n + 1):
        # M_k = A M_(k-1) + c I ; c <- -tr(A M_k)/k
        for i in range(n):
            AM[i][i] = AM[i][i] + c
        AM = mat_mul(A, AM)
        tr = ZERO
        for i in range(n):
            tr = tr + AM[i][i]
        c = -(tr / GaussianRational.from_int(k))
        coeffs[n - k] = c
    return coeffs


def det(A):
    cp = charpoly(A)
    d = cp[0]
    if len(A) % 2 == 1:
        d = -d
    return d


def poly_eval(coeffs, x):
    """Evaluate a coefficient list (lowest degree first) at x."""
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc
