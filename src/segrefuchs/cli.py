"""Command-line surface for the full pipeline.

Machine consumption first: every command reads and writes the JSON formats
of serialize.py deterministically, and failures map to a fixed exit-code
taxonomy so drivers never parse error text.  The verdicts are the EXIT_*
codes 0-4 below; every failure ends in the exit_code of its error class
in errors.py, a command-line usage error in that of FormatError.
"""

import argparse
import contextlib
import random
import sys
from fractions import Fraction

from . import serialize
from .qfield import qi
from .series import MultiSeries
from .errors import (FormatError, OrderTooLowError, RealityViolation,
                     NonFuchsianError, NonConvergenceError, SegrefuchsError)
from .surfaces import (RealDefining, real_to_complex, require_min_order,
                       validate_complex, build_complex, WB)
from .segre import eliminate, closed_form_coeffs, families_agree
from .fuchs import (check_fuchsian_real, check_fuchsian_complex,
                    FUCHSIAN, NON_FUCHSIAN, UNDECIDABLE)
from .frobenius import formal_symmetries, real_form_basis
from .blowup import BlowupMap, pullback_surface, find_blowup_exponent
from .monodromy import LoopSpec, monodromy_matrix

EXIT_OK = 0
EXIT_NON_FUCHSIAN = 1
EXIT_UNDECIDABLE = 2
EXIT_REFUSED = 3
EXIT_ORACLE_DISAGREE = 4
EXIT_FORMAT = FormatError.exit_code
EXIT_ORDER = OrderTooLowError.exit_code
EXIT_REALITY = RealityViolation.exit_code
EXIT_NUMERIC = NonConvergenceError.exit_code
EXIT_DOMAIN = SegrefuchsError.exit_code


@contextlib.contextmanager
def _io_edge(path):
    """The one file edge: an unreadable or unwritable path is a FormatError."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError("%s: %s" % (path, getattr(exc, "strerror", None)
                                      or exc)) from exc


def _load(path):
    with _io_edge(path), open(path) as f:
        return serialize.loads(f.read())


def _read_surface(path):
    return serialize.surface_from_json(_load(path))


def _as_complex(M, order):
    """The complex form of M, truncated to order; order can only lower,
    and never below the 3m+2 floor."""
    if order is not None:
        if order > M.order:
            raise OrderTooLowError(M.order, order, "input is trusted through "
                                   "order %d only; --order %d asks for more"
                                   % (M.order, order))
        M = M.truncate(order)
    require_min_order(M)
    return real_to_complex(M) if isinstance(M, RealDefining) else M


def _emit(payload, out):
    text = payload if isinstance(payload, str) else serialize.dumps(payload)
    if out:
        with _io_edge(out), open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args):
    M = _read_surface(args.surface)
    Mc = _as_complex(M, args.order)
    rep = validate_complex(Mc)
    _emit({"surface": serialize.surface_to_json(Mc),
           "report": rep.as_dict()}, args.output)
    return EXIT_OK if rep.reality_ok else EXIT_REALITY


def cmd_derive_ode(args):
    M = _read_surface(args.surface)
    Mc = _as_complex(M, args.order)
    E = eliminate(Mc)
    ok, report = families_agree(E.coeffs, closed_form_coeffs(Mc))
    payload = serialize.ode_to_json(E)
    payload["oracle_agreement"] = ok
    payload["oracle_report"] = {k: v[0] if v[0] == "agree" else "differ"
                                for k, v in report.items()}
    _emit(payload, args.output)
    return EXIT_OK if ok else EXIT_ORACLE_DISAGREE


def cmd_check_fuchsian(args):
    M = _read_surface(args.surface)
    if isinstance(M, RealDefining):
        rep = check_fuchsian_real(M)
    else:
        rep = check_fuchsian_complex(M)
    if args.format == "table":
        lines = ["verdict: %s (m = %d, %s form)" % (rep.verdict, rep.m,
                                                    rep.form)]
        lines.append("%-8s %-10s %-10s %s" % ("row", "measured", "bound",
                                              "status"))
        for r in rep.rows:
            meas = r.measured if r.measured is not None else \
                ">=%d" % (r.available + 1)
            lines.append("%-8s %-10s >=%-8d %s" % (r.name, meas, r.bound,
                                                   r.status))
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(rep.as_dict(), args.output)
    return {FUCHSIAN: EXIT_OK, NON_FUCHSIAN: EXIT_NON_FUCHSIAN,
            UNDECIDABLE: EXIT_UNDECIDABLE}[rep.verdict]


def cmd_symmetries(args):
    M = _read_surface(args.surface)
    Mc = _as_complex(M, args.order)
    try:
        basis = formal_symmetries(Mc)
    except NonFuchsianError as exc:
        _emit({"refused": str(exc), "ledger_row": exc.ledger_row},
              args.output)
        return EXIT_REFUSED
    real = real_form_basis(basis, Mc) if args.real_form else None
    _emit(serialize.basis_to_json(basis, real), args.output)
    return EXIT_OK


def _blowup_spec(spec):
    """argparse type of --blowup: "s=K" or "s=K,l=L" as (K,) or (K, L)."""
    pairs = [p.split("=") for p in spec.split(",")]
    if [p[0] for p in pairs] not in (["s"], ["s", "l"]):
        raise ValueError("expected s=K or s=K,l=L, got %r" % spec)
    return tuple(int(v) for _, v in pairs)


def cmd_blowup(args):
    M = _read_surface(args.surface)
    Mc = _as_complex(M, args.order)
    if args.auto is not None:
        s, P = find_blowup_exponent(Mc, args.auto)
        if s is None:
            _emit({"found": None, "diagnostics": P}, args.output)
            if args.auto < 2:
                sys.stderr.write("blowup: --auto %d leaves the search empty; "
                                 "it starts at s = 2\n" % args.auto)
            else:
                sys.stderr.write("blowup: no exponent s in [2, %d] makes the "
                                 "pullback Levi-nondegenerate at complex "
                                 "order %d\n" % (args.auto, Mc.order))
            return EXIT_DOMAIN
    else:
        P = pullback_surface(Mc, BlowupMap(*args.blowup))
        s = P.s
    payload = {"s": s, "l": P.l, "m_star": P.m_star,
               "defining": serialize.series_to_json(P.defining)}
    if P.surface is not None:
        payload["surface"] = serialize.surface_to_json(P.surface)
    _emit(payload, args.output)
    return EXIT_OK


def cmd_monodromy(args):
    S = serialize.system_from_json(_load(args.system))
    loop = LoopSpec(radius=args.radius, steps=args.steps,
                    direction=-1 if args.reverse else 1, tol=args.tol,
                    trusted_radius=args.trusted_radius)
    res = monodromy_matrix(S, loop)
    _emit(res.as_dict(), args.output)
    return EXIT_OK


def cmd_selftest(args):
    """Randomized oracle equivalence at desk scale (seeded)."""
    rng = random.Random(args.seed)
    for m in (1, 2):
        order = 3 * m + 4
        tbl = {}
        for (k, l) in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            terms = {}
            for _ in range(2):
                terms[(rng.randint(0, max(order - k - l, 0)),)] = qi(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            s = MultiSeries((WB,), order - k - l, terms)
            if not s.is_zero():
                tbl[(k, l)] = s
        M = build_complex(m, rng.choice((1, -1)), tbl, order)
        ok, _ = families_agree(eliminate(M).coeffs, closed_form_coeffs(M))
        if not ok:
            sys.stderr.write("selftest: oracle disagreement at m=%d\n" % m)
            return EXIT_ORACLE_DISAGREE
    sys.stdout.write("selftest: oracle equivalence holds\n")
    return EXIT_OK


def _surface_args(sp, order=True):
    sp.add_argument("surface", help="surface JSON file")
    if order:
        sp.add_argument("--order", type=int, default=None,
                        help="truncate the input to this lower order")
    sp.add_argument("-o", "--output", default=None)


def _check_fuchsian_args(sp):
    _surface_args(sp, order=False)
    sp.add_argument("--format", choices=["json", "table"], default="json")


def _symmetries_args(sp):
    _surface_args(sp)
    sp.add_argument("--real-form", action="store_true")


def _blowup_args(sp):
    _surface_args(sp)
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--blowup", type=_blowup_spec, help="s=K,l=2")
    g.add_argument("--auto", type=int, help="search s in [2, S_MAX]")


def _monodromy_args(sp):
    sp.add_argument("system", help="linear system JSON file")
    loop = LoopSpec()
    sp.add_argument("--radius", type=float, default=loop.radius)
    sp.add_argument("--trusted-radius", type=float,
                    default=loop.trusted_radius)
    sp.add_argument("--steps", type=int, default=loop.steps)
    sp.add_argument("--tol", type=float, default=loop.tol)
    sp.add_argument("--reverse", action="store_true")
    sp.add_argument("-o", "--output", default=None)


def _selftest_args(sp):
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for the randomized surfaces")


# name: (help, function, the function adding its arguments)
COMMANDS = {
    "verify": ("reality/normality validation", cmd_verify, _surface_args),
    "derive-ode": ("eliminate to the associated ODE", cmd_derive_ode,
                   _surface_args),
    "check-fuchsian": ("Fuchsian-type classification", cmd_check_fuchsian,
                       _check_fuchsian_args),
    "symmetries": ("formal infinitesimal automorphisms", cmd_symmetries,
                   _symmetries_args),
    "blowup": ("monomial blow-up of the surface", cmd_blowup, _blowup_args),
    "monodromy": ("numeric monodromy of a system", cmd_monodromy,
                  _monodromy_args),
    "selftest": ("seeded randomized oracle check", cmd_selftest,
                 _selftest_args),
}


def build_parser(command=None):
    """The parser of every command, or of the named one alone: a call
    parses with the subparser of its first token only, so that is all
    main builds when that token names a command."""
    p = argparse.ArgumentParser(
        prog="segrefuchs",
        description="Exact workbench for nonminimal hypersurfaces in C^2: "
                    "associated singular ODEs, Fuchsian classification, "
                    "infinitesimal automorphisms, blow-ups and numeric "
                    "monodromy.")
    # a one-command parser's usage line lists every command, as the full
    # parser's default metavar does; the full parser keeps that default,
    # since its errors name the argument "command" only without a metavar
    listed = None if command is None else "{%s}" % ",".join(COMMANDS)
    sub = p.add_subparsers(dest="command", required=True, metavar=listed)
    for name in COMMANDS if command is None else (command,):
        help_, fn, add_args = COMMANDS[name]
        sp = sub.add_parser(name, help=help_)
        add_args(sp)
        sp.set_defaults(fn=fn)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_FORMAT
    try:
        return args.fn(args)
    except SegrefuchsError as exc:
        sys.stderr.write("%s: %s\n" % (type(exc).__name__, exc))
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
