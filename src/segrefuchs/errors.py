"""Exception taxonomy shared across the package.

Each error class carries the CLI exit code it ends in (a subclass without
one inherits it); the verdict codes 0-4 live in cli.py.
"""


class SegrefuchsError(Exception):
    """Base class for all package-specific failures."""
    exit_code = 14


class FormatError(SegrefuchsError):
    """Malformed, unreadable or unwritable file, JSON payload or usage."""
    exit_code = 10


class OrderTooLowError(SegrefuchsError):
    """Truncation order below the 3m+2 floor required downstream."""
    exit_code = 11

    def __init__(self, order, required, msg):
        super().__init__(msg)
        self.order = order
        self.required = required


class RealityViolation(SegrefuchsError):
    """Surface data is not real: h_kl != conj(h_lk) in the real form, or a
    nonzero reality residual of the complex form."""
    exit_code = 12


class NotNormalizableError(SegrefuchsError):
    """Leading defining coefficient cannot be scaled to 1 inside Q(i,sqrt2)."""


class NonFuchsianError(SegrefuchsError):
    """Fuchsian-only construction applied to a non-Fuchsian surface."""

    def __init__(self, msg, ledger_row=None, entry=None, pole=None):
        super().__init__(msg)
        self.ledger_row = ledger_row
        self.entry = entry
        self.pole = pole


class NonConvergenceError(SegrefuchsError):
    """Numeric continuation failed to converge within the step budget."""
    exit_code = 13
