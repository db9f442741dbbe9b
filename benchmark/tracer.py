"""Outside-in layer tracing of segrefuchs, installed from the benchmark.

`install()` replaces the public functions listed in LAYERS with wrappers
that record a span per call.  A function's self time is its span minus the
spans of wrapped functions it called.  Names that other modules bound with
`from .x import f` are rebound too, so `segre.solve_implicit` and
`frobenius.eliminate` reach the wrappers.  The program itself is not
changed and its payloads must not change either; the benchmark checks that
by comparing digests of traced and untraced runs.

The field layer gets bare counters, since a timer around every coefficient
operation would swamp the operation.
"""

import sys
import time

# metric prefix -> (module, attribute path) of each wrapped function
LAYERS = {
    "series.mul": ("series", "MultiSeries.__mul__"),
    "series.compose": ("series", "MultiSeries.compose"),
    "series.solve_implicit": ("series", "solve_implicit"),
    "series.exp_series": ("series", "exp_series"),
    "series.log_series": ("series", "log_series"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.charpoly": ("linalg", "charpoly"),
    "linalg.kernel_basis": ("linalg", "kernel_basis"),
    "surfaces.real_to_complex": ("surfaces", "real_to_complex"),
    "surfaces.complex_to_real": ("surfaces", "complex_to_real"),
    "surfaces.check_reality": ("surfaces", "check_reality"),
    "surfaces.validate_complex": ("surfaces", "validate_complex"),
    "segre.eliminate": ("segre", "eliminate"),
    "segre.closed_form_coeffs": ("segre", "closed_form_coeffs"),
    "fuchs.check_fuchsian_real": ("fuchs", "check_fuchsian_real"),
    "fuchs.check_fuchsian_complex": ("fuchs", "check_fuchsian_complex"),
    "fuchs.check_fuchsian_ode": ("fuchs", "check_fuchsian_ode"),
    "prolongation.assemble_Y_system": ("prolongation", "assemble_Y_system"),
    "prolongation.assemble_twelve_system": ("prolongation",
                                            "assemble_twelve_system"),
    "prolongation.tangency_residual": ("prolongation", "tangency_residual"),
    "prolongation.reconstruct_field": ("prolongation", "reconstruct_field"),
    "frobenius.holomorphic_solutions": ("frobenius", "holomorphic_solutions"),
    "frobenius.formal_symmetries": ("frobenius", "formal_symmetries"),
    "frobenius.real_form_basis": ("frobenius", "real_form_basis"),
    "blowup.pullback_surface": ("blowup", "pullback_surface"),
    "blowup.find_blowup_exponent": ("blowup", "find_blowup_exponent"),
    "monodromy.monodromy_matrix": ("monodromy", "monodromy_matrix"),
    "serialize.loads": ("serialize", "loads"),
    "serialize.dumps": ("serialize", "dumps"),
    "cli.main": ("cli", "main"),
}

# The workload each wrapped function is meant to be exercised on; None
# marks a function no CLI command reaches (complex_to_real has no caller
# outside the test suite).
EXERCISED_ON = {name: "dense-real" for name in LAYERS}
EXERCISED_ON.update({
    "linalg.kernel_basis": "model-sparse",
    "surfaces.complex_to_real": None,
    "prolongation.tangency_residual": "model-sparse",
    "prolongation.reconstruct_field": "model-sparse",
    "frobenius.real_form_basis": "model-sparse",
    "monodromy.monodromy_matrix": "monodromy-loop",
})

COUNTERS = ("qfield.new.calls", "qfield.mul.calls", "qfield.add.calls",
            "series.mul.terms_out", "frobenius.candidates", "frobenius.kept",
            "blowup.hits", "monodromy.rk4_evals", "monodromy.useful_steps",
            "serialize.bytes_out")


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name in LAYERS}
        self.self_s = {name: 0.0 for name in LAYERS}
        self.counts = {name: 0 for name in COUNTERS}
        self.op_trust = {}
        self._stack = []

    def span(self, name, fn, after=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[name] += dur - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dur
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    # hooks that read return values: counts and the trust ledger

    def _after_mul(self, result):
        self.counts["series.mul.terms_out"] += len(result.terms)

    def _after_eliminate(self, E):
        self.op_trust["ode_order"] = E.order

    def _after_formal_symmetries(self, basis):
        self.counts["frobenius.kept"] += len(basis.fields)
        self.counts["frobenius.candidates"] += (len(basis.fields) +
                                                len(basis.dropped))
        self.op_trust["window"] = basis.order

    def _after_find_blowup(self, result):
        s, P = result
        if s is not None:
            self.counts["blowup.hits"] += 1
            self.op_trust["pullback_terms"] = len(P.defining.terms)

    def _after_monodromy(self, res):
        self.counts["monodromy.useful_steps"] += res.steps

    def _after_dumps(self, text):
        self.counts["serialize.bytes_out"] += len(text.encode())

    def snapshot(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "segrefuchs" or
                                  name.startswith("segrefuchs."))]


def _rebind(original, replacement):
    """Point every module-level name bound to `original` at `replacement`."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _replace_method(cls, original, replacement):
    for attr, value in list(vars(cls).items()):
        if value is original:
            setattr(cls, attr, replacement)


def install():
    """Wrap every function in LAYERS and the field counters; return the
    Tracer that collects them."""
    import importlib
    pkg = "segrefuchs"
    importlib.import_module(pkg + ".cli")
    t = Tracer()
    hooks = {
        "series.mul": t._after_mul,
        "segre.eliminate": t._after_eliminate,
        "frobenius.formal_symmetries": t._after_formal_symmetries,
        "blowup.find_blowup_exponent": t._after_find_blowup,
        "monodromy.monodromy_matrix": t._after_monodromy,
        "serialize.dumps": t._after_dumps,
    }
    for name, (modname, path) in LAYERS.items():
        mod = importlib.import_module(pkg + "." + modname)
        if "." in path:
            clsname, meth = path.split(".")
            cls = getattr(mod, clsname)
            original = vars(cls)[meth]
            _replace_method(cls, original,
                            t.span(name, original, hooks.get(name)))
        else:
            original = getattr(mod, path)
            _rebind(original, t.span(name, original, hooks.get(name)))

    qfield = importlib.import_module(pkg + ".qfield")
    GR = qfield.GaussianRational
    for counter, meth in (("qfield.new.calls", "__init__"),
                          ("qfield.mul.calls", "__mul__"),
                          ("qfield.add.calls", "__add__")):
        original = vars(GR)[meth]
        _replace_method(GR, original, t.counter(counter, original))
    # four right-hand-side evaluations per classical RK4 step
    monodromy = importlib.import_module(pkg + ".monodromy")
    monodromy._eval_poly_matrix = t.counter(
        "monodromy.rk4_evals", monodromy._eval_poly_matrix)
    return t
