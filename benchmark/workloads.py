"""Seeded workload inputs and their correct-outcome tables.

Each workload is a list of samples.  A sample is what one fresh child
interpreter runs: either one surface file through its command sequence, or
one monodromy call on a linear-system file.  Every op carries the exit code
a correct program returns; the two defects the benchmark was calibrated
against also carry the exit code the program gives today (`seed_exit`), so
the run reports them as failures without calling the benchmark broken.

Only the generated JSON files reach the program.  Generation imports
segrefuchs from the checkout's `src/` (the caller puts it on sys.path).
"""

import os
import random
from fractions import Fraction

SURFACE_COMMANDS = (
    ("verify", []),
    ("derive-ode", []),
    ("check-fuchsian", []),
    ("symmetries", ["--real-form"]),
    ("blowup", ["--auto", "4"]),
)

# Dense rungs: (label, m, N, fuchsian, seed exit of `symmetries`).  The
# ladder is sized so that one pass fits several times into a run; see
# rationale.json.  At m=3 the Frobenius window is N - 18 < m+2 for N < 23,
# and real_form_basis then refuses with exit 11 even when the complex basis
# is empty and nothing needs a real form.
DENSE_LADDER = [
    ("dense-m1-N13", 1, 13, True, None),
    ("dense-m1-N14", 1, 14, True, None),
    ("dense-m2-N17", 2, 17, True, None),
    ("dense-m3-N19", 3, 19, True, 11),
    ("dense-nonfuchsian-m2-N14", 2, 14, False, None),
]
SMOKE_DENSE_LADDER = [
    ("dense-m1-N12", 1, 12, True, None),
    ("dense-m3-N16", 3, 16, True, 11),
    ("dense-nonfuchsian-m2-N10", 2, 10, False, None),
]

# Structured rungs: (label, m, N, h table as {(k, l): {(j,): (re, im)}}).
H22_U = {(2, 2): {(1,): (1, 0)}}
H22_U2 = {(2, 2): {(2,): (1, 0)}}
SQRT2 = {(2, 2): {(1,): (1, 0)}, (2, 3): {(2,): (1, 2)},
         (3, 2): {(2,): (1, -2)}}
MODEL_LADDER = [
    ("model-m1-N24", 1, 24, {}),
    ("model-m1-N32", 1, 32, {}),
    ("model-m1-N40", 1, 40, {}),
    ("model-m2-N24", 2, 24, {}),
    ("model-m3-N28", 3, 28, {}),
    ("h22u-m2-N20", 2, 20, H22_U),
    ("h22u2-m3-N24", 3, 24, H22_U2),
    ("sqrt2-m2-N20", 2, 20, SQRT2),
]
SMOKE_MODEL_LADDER = [
    ("model-m1-N12", 1, 12, {}),
    ("sqrt2-m2-N18", 2, 18, SQRT2),
]

# Constant 4x4 systems A = Q diag(spectrum) Q^T with a seeded rational
# orthogonal Q.  A is normal, so the RK4 step count depends only on the
# spectrum and the work per call is the same for every seed: 8192, 16384
# and 32768 steps for a, b and c, 8192 for the reversed loop.
CONST_SPECTRA = [
    ("const-a", (Fraction(5, 2), Fraction(-3, 2), Fraction(1, 2),
                 Fraction(1, 3)), False),
    ("const-b", (Fraction(9, 2), Fraction(-5, 2), Fraction(3, 4),
                 Fraction(-1, 5)), False),
    ("const-c", (Fraction(15, 2), Fraction(-4), Fraction(5, 2),
                 Fraction(1, 7)), False),
    ("const-rev", (Fraction(5, 2), Fraction(-2), Fraction(1, 4),
                   Fraction(2, 3)), True),
]
SMOKE_CONST_SPECTRA = [
    ("const-a", (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4),
                 Fraction(1, 5)), False),
    ("const-rev", (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4),
                   Fraction(1, 5)), True),
]

PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25))

WORKLOADS = ("dense-real", "model-sparse", "monodromy-loop")


def _op(command, argv, expect, seed_exit=None):
    return {"command": command, "argv": argv, "expect": expect,
            "seed_exit": seed_exit}


def _surface_sample(label, path, fuchsian, m, N, symmetries_seed_exit=None,
                    symmetric=False):
    ops = []
    for command, extra in SURFACE_COMMANDS:
        expect, seed_exit = 0, None
        if not fuchsian and command == "check-fuchsian":
            expect = 1
        if not fuchsian and command == "symmetries":
            expect = 3
        if command == "symmetries":
            seed_exit = symmetries_seed_exit
        ops.append(_op(command, [command, path] + extra, expect, seed_exit))
    return {"label": label, "kind": "surface", "input": path, "m": m,
            "order": N, "fuchsian": fuchsian, "symmetric": symmetric,
            "ops": ops}


def _write(path, payload):
    from segrefuchs import serialize
    with open(path, "w") as f:
        f.write(serialize.dumps(payload))


def dense_h_table(rng, m, N, fuchsian):
    """Every admissible h_kl coefficient nonzero through order N.

    A Fuchsian table starts h_kl at its vanishing bound; the non-Fuchsian
    one puts a u^0 term into h22.  Coefficients are small Gaussian integers
    with h_lk = conj(h_kl), so every seed costs the same term structure.
    """
    from segrefuchs.fuchs import REAL_BOUNDS, _bound
    bounds = {kl: _bound(expr, m) for kl, expr in REAL_BOUNDS}
    nonzero = (-3, -2, -1, 1, 2, 3)
    top = N - m
    h = {}
    for k in range(2, top):
        for l in range(k, top - k + 1):
            lo = bounds.get((k, l), 0)
            if not fuchsian and (k, l) == (2, 2):
                lo = 0
            terms, conj = {}, {}
            for j in range(lo, top - k - l + 1):
                re = rng.choice(nonzero)
                im = 0 if k == l else rng.choice(nonzero)
                terms[(j,)] = (re, im)
                conj[(j,)] = (re, -im)
            if terms:
                h[(k, l)] = terms
                if k != l:
                    h[(l, k)] = conj
    return h


def _real_surface(m, N, table):
    from segrefuchs import serialize
    from segrefuchs.qfield import qi
    from segrefuchs.surfaces import build_real
    h = {kl: {e: qi(re, im) for e, (re, im) in terms.items()}
         for kl, terms in table.items()}
    return serialize.surface_to_json(build_real(m, 1, h, N))


def dense_real(rng, workdir, smoke=False):
    samples = []
    for label, m, N, fuchsian, seed_exit in (SMOKE_DENSE_LADDER if smoke
                                             else DENSE_LADDER):
        path = os.path.join(workdir, label + ".json")
        _write(path, _real_surface(m, N, dense_h_table(rng, m, N, fuchsian)))
        samples.append(_surface_sample(label, path, fuchsian, m, N,
                                       seed_exit))
    return samples


def model_sparse(rng, workdir, smoke=False):
    """Structured surfaces; the seed only orders them.

    Their structure (model, h22 = u, the sqrt2 table) is what the workload
    tests, so the seed does not perturb it: a seeded sign or scale would
    change the cost by up to a third per surface.
    """
    samples = []
    for label, m, N, table in (SMOKE_MODEL_LADDER if smoke
                               else MODEL_LADDER):
        path = os.path.join(workdir, label + ".json")
        _write(path, _real_surface(m, N, table))
        samples.append(_surface_sample(label, path, True, m, N,
                                       symmetric=table is not SQRT2))
    rng.shuffle(samples)
    return samples


def rational_orthogonal(rng, n):
    """Seeded exact orthogonal matrix: Givens rotations by Pythagorean
    angles, then a signed permutation."""
    Q = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        a, b, c = rng.choice(PYTHAGOREAN)
        cs, sn = Fraction(a, c), Fraction(b, c)
        for row in Q:
            row[i], row[j] = cs * row[i] - sn * row[j], sn * row[i] + cs * row[j]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[Q[perm[i]][j] * signs[i] for j in range(n)] for i in range(n)]


def conjugated_diagonal(rng, spectrum):
    n = len(spectrum)
    Q = rational_orthogonal(rng, n)
    return [[sum(Q[i][k] * spectrum[k] * Q[j][k] for k in range(n))
             for j in range(n)] for i in range(n)]


def const_system_json(A, order=10):
    from segrefuchs import serialize
    from segrefuchs.prolongation import LinearODESystem
    from segrefuchs.qfield import GaussianRational
    from segrefuchs.series import MultiSeries, LaurentInW
    n = len(A)
    ent = [[LaurentInW(MultiSeries.const(GaussianRational.from_fraction(
        A[i][j]), ("w",), order), 1, "w") for j in range(n)]
        for i in range(n)]
    return serialize.system_to_json(LinearODESystem(ent, unknown="y"))


def _model_systems(workdir):
    """u- and Y-systems of the m=1 model, Y-system of the real m=2 model."""
    from segrefuchs import serialize
    from segrefuchs.prolongation import assemble_u_system, assemble_Y_system
    from segrefuchs.segre import eliminate
    from segrefuchs.surfaces import build_complex, build_real, real_to_complex
    E1 = eliminate(build_complex(1, 1, {}, 12), 12)
    E2 = eliminate(real_to_complex(build_real(2, 1, {}, 12)), 12)
    out = {}
    for name, S in (("usys-model-m1", assemble_u_system(E1)),
                    ("ysys-model-m1", assemble_Y_system(E1)),
                    ("ysys-real-model-m2", assemble_Y_system(E2))):
        path = os.path.join(workdir, name + ".json")
        _write(path, serialize.system_to_json(S))
        out[name] = path
    return out


def _mono_sample(label, path, extra, oracle, seed_exit=None, A=None):
    argv = ["monodromy", path] + extra
    return {"label": label, "kind": "monodromy", "input": path,
            "oracle": oracle,
            "A": None if A is None else [[str(x) for x in row] for row in A],
            "reverse": "--reverse" in extra,
            "ops": [_op("monodromy", argv, 0, seed_exit)]}


def monodromy_loop(rng, workdir, smoke=False):
    paths = _model_systems(workdir)
    samples = [
        _mono_sample("usys-model-m1", paths["usys-model-m1"],
                     ["--steps", "4096"], "liouville"),
        _mono_sample("ysys-model-m1", paths["ysys-model-m1"],
                     ["--steps", "512"], "liouville"),
    ]
    for label, spectrum, reverse in (SMOKE_CONST_SPECTRA if smoke
                                     else CONST_SPECTRA):
        A = conjugated_diagonal(rng, spectrum)
        path = os.path.join(workdir, label + ".json")
        _write(path, const_system_json(A))
        samples.append(_mono_sample(label, path,
                                    ["--reverse"] if reverse else [],
                                    "expm", A=A))
    # the tolerance is absolute while the monodromy entries are ~1e6, so
    # the doubling schedule burns the whole 2^17-step budget and exits 13
    samples.append(_mono_sample("ysys-real-model-m2",
                                paths["ysys-real-model-m2"], [], "liouville",
                                seed_exit=13))
    return samples


GENERATORS = {"dense-real": dense_real, "model-sparse": model_sparse,
              "monodromy-loop": monodromy_loop}


def generate(workload, seed, workdir, smoke=False):
    """Write the workload's input files into workdir; return its samples."""
    rng = random.Random("%s:%d" % (workload, seed))
    return GENERATORS[workload](rng, workdir, smoke)
