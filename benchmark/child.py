"""Run one benchmark sample in a fresh interpreter.

    python3 child.py SPEC.json RESULT.json

SPEC names the checkout's `src/` directory, whether to install the tracer,
and the ops: CLI argument lists that go through `segrefuchs.cli.main`, each
with the file its payload is written to.  RESULT receives the monotonic time
at which imports finished and the calibration loop time right after them,
each op's exit code, seconds and calibration loop time (see Calibrator),
the peak RSS of this process, and the trace when one was installed.
"""

import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import traceback


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def calibration_loop(n=2000):
    """Seconds taken by a fixed pure-Python loop of the kind of work the
    exact kernel does (small-int gcds and products, object construction,
    tuple-keyed dict updates); about 2 ms.

    It never touches segrefuchs, so no change to the program can move it.
    """
    t0 = time.perf_counter()
    acc = {}
    x = 1
    for i in range(n):
        a, b = (i * 7919) % 1009 + 1, (i * 104729) % 997 + 1
        g = math.gcd(a * x, b)
        p = _Pair(a * b // g, x)
        key = (i % 61, i % 17)
        acc[key] = acc.get(key, 0) + p.a
        x = (x * 31 + g) % 1000003
    return time.perf_counter() - t0


class Calibrator:
    """Samples the calibration loop around and during each op.

    The CPU speed of the machine the benchmark was built on drifts by about
    a fifth over tens of seconds.  Timing the loop next to each op, and every
    SAMPLE_EVERY_S seconds while a long op runs (from a SIGALRM handler),
    lets the benchmark express op times in loop units, which cancels the
    drift.  Time spent in the handler is taken out of the op's seconds.
    """

    SAMPLE_EVERY_S = 0.25
    AROUND = 3

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        self.samples.append(calibration_loop())

    def measure(self, fn):
        """(result, own seconds of fn, median loop time around and during
        fn)."""
        self.samples = [calibration_loop() for _ in range(self.AROUND)]
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S,
                         self.SAMPLE_EVERY_S)
        during = len(self.samples)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - t0
        seconds -= sum(self.samples[during:])
        self.samples += [calibration_loop() for _ in range(self.AROUND)]
        return result, seconds, statistics.median(self.samples)


def run_op(argv):
    """Exit code and exception name of one CLI call, as the entry point
    would end it; an escaped exception is exit 1 with a traceback."""
    import segrefuchs.cli
    try:
        return segrefuchs.cli.main(argv), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), None
    except Exception as exc:  # a traceback the CLI lets escape
        traceback.print_exc()
        return 1, type(exc).__name__


def main():
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    import segrefuchs.cli  # noqa: F401  (imports numpy as well)
    ready = time.monotonic()
    ready_loop_s = statistics.median([calibration_loop() for _ in range(3)])

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing
        tracer = tracing.install()

    ops, calibrator = [], Calibrator()
    for op in spec["ops"]:
        if os.path.exists(op["output"]):
            os.remove(op["output"])
        if tracer is not None:
            tracer.op_trust = {}
        (code, exc), seconds, loop_s = calibrator.measure(
            lambda: run_op(op["argv"] + ["-o", op["output"]]))
        ops.append({"exit": code, "exception": exc, "seconds": seconds,
                    "calibration_s": loop_s,
                    "trust": tracer.op_trust if tracer else None})
    result = {
        "ready": ready,
        "ready_calibration_s": ready_loop_s,
        "ops": ops,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.snapshot() if tracer else None,
    }
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
