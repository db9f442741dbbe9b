"""The segrefuchs benchmark: the CLI pipeline on seeded workloads.

    python3 benchmark/run.py --workload dense-real --seed 1 --seconds 30 \\
        --trace 0

Run it from the root of a checkout; it imports the package from `src/`.
Workloads: dense-real, model-sparse, monodromy-loop (see rationale.json).

A pass runs every sample of the workload once.  Each sample runs in a fresh
child interpreter (child.py) that calls `segrefuchs.cli.main`; children run
one at a time with BLAS pinned to one thread, so no in-process cache
carries from one sample or pass to the next.  Passes repeat until the next
one would end after `--seconds`.  Payloads are then checked against oracles
(oracle.py), untimed, and their sha256 digests must repeat in every pass.

Every op time is reported in seconds and in calibration units (`_cal`):
the op's seconds divided by the time of a fixed pure-Python loop that the
child samples just before, during and just after it (child.py).  The
machine's CPU speed drifts by about a fifth over tens of seconds, which the
ratio cancels; `wall_cal` is therefore the end-to-end time on the last
line, and `wall_s` is in the report.  For the same reason `setup_s`, the
child's start-up time, is rescaled by the loop time measured right after
its imports (see CAL_REFERENCE_S); `setup_raw_s` is in the report.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced passes (tracer.py) and prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Everything above it is the full report: every metric with unit, quartiles
and sample count, the outcome table, the trust ledger and the digests.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 165  # hard stop for a whole run, below the 180 s allowance
# setup_s is the child's start-up time rescaled to the machine speed at which
# child.calibration_loop takes this long, using the loop time the child
# measures right after its imports; setup_raw_s is the unscaled time
CAL_REFERENCE_S = 0.002
COMMAND_METRICS = {"verify": "verify", "derive-ode": "derive_ode",
                   "check-fuchsian": "check_fuchsian",
                   "symmetries": "symmetries", "blowup": "blowup",
                   "monodromy": "monodromy"}
# printed on the last line with --trace 0
END_TO_END = (("wall_cal", "cal"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny ladder, for the benchmark's own tests")
    return p.parse_args(argv)


def spread(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def src_loc(src):
    total = 0
    for dirpath, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as f:
                    total += sum(1 for _ in f)
    return total


def digest(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Runner:
    def __init__(self, src, work, deadline):
        self.src = src
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, **CHILD_ENV)
        self.spawned = 0

    def output_path(self, sample, op):
        return os.path.join(self.work, "out",
                            "%s.%s.json" % (sample["label"], op["command"]))

    def run_child(self, ops, trace):
        """Run ops in a fresh interpreter; the child's result, or None."""
        self.spawned += 1
        base = os.path.join(self.work, "child-%d" % self.spawned)
        with open(base + ".spec.json", "w") as f:
            json.dump({"src": self.src, "trace": trace, "ops": ops}, f)
        with open(base + ".log", "w") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"),
                 base + ".spec.json", base + ".result.json"],
                stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                env=self.env)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return None
        if proc.returncode != 0:
            return None
        with open(base + ".result.json") as f:
            result = json.load(f)
        result["setup_raw_s"] = result["ready"] - t_spawn
        result["setup_s"] = (result["setup_raw_s"] * CAL_REFERENCE_S /
                             result["ready_calibration_s"])
        return result

    def run_sample(self, sample, trace):
        ops = [{"argv": op["argv"], "output": self.output_path(sample, op)}
               for op in sample["ops"]]
        result = self.run_child(ops, trace)
        if result is not None:
            for op, spec in zip(result["ops"], ops):
                op["digest"] = digest(spec["output"])
        return result

    def run_passes(self, samples, seconds, trace):
        """Passes until the next would end after `seconds`; with trace,
        untraced and traced passes alternate, at least one of each."""
        self.run_child([], trace)  # warm-up: bytecode and file cache
        start = time.monotonic()
        passes, longest = [], 0.0
        while True:
            traced = trace and len(passes) % 2 == 1
            t0 = time.monotonic()
            passes.append({"traced": traced,
                           "samples": [self.run_sample(s, traced)
                                       for s in samples]})
            longest = max(longest, time.monotonic() - t0)
            now = time.monotonic()
            if now + longest > self.deadline:
                break
            if len(passes) >= (2 if trace else 1) and \
                    now - start + longest > seconds:
                break
        return passes


def outcome(op_spec, op_result):
    """'ok', 'known-defect' (the recorded seed exit) or 'unexpected'."""
    if op_result is None or op_result["exception"] is not None:
        return "unexpected"
    if op_result["exit"] == op_spec["expect"]:
        return "ok"
    if op_result["exit"] == op_spec["seed_exit"]:
        return "known-defect"
    return "unexpected"


def load(path):
    with open(path) as f:
        return json.load(f)


def verify_payloads(runner, samples, last_pass):
    """Oracle check of every payload the last pass left; (checks, payloads).

    Every correct outcome leaves a payload, so an op that exited as
    expected without one fails its check.
    """
    import oracle
    checks, payloads = [], []
    for sample, res in zip(samples, last_pass["samples"]):
        paths = {op["command"]: runner.output_path(sample, op)
                 for op in sample["ops"]}
        ode = load(paths["derive-ode"]) if os.path.exists(
            paths.get("derive-ode", "")) else None
        for j, op in enumerate(sample["ops"]):
            path = paths[op["command"]]
            if not os.path.exists(path):
                if res is not None and outcome(op, res["ops"][j]) == "ok":
                    checks.append({"sample": sample["label"],
                                   "command": op["command"], "ok": False,
                                   "note": "exit %d without a payload"
                                   % op["expect"]})
                continue
            payload = load(path)
            payloads.append(payload)
            try:
                if sample["kind"] == "monodromy":
                    ok, note = oracle.check_monodromy(sample, payload)
                else:
                    ok, note = oracle.check_surface_op(
                        sample, op["command"], payload, ode)
            except Exception as exc:  # a malformed payload fails its check
                ok, note = False, "%s: %s" % (type(exc).__name__, exc)
            checks.append({"sample": sample["label"],
                           "command": op["command"], "ok": bool(ok),
                           "note": note})
    return checks, payloads


def evaluate(samples, passes, checks):
    """Outcome table, digest table and the correct/attempted/failed tally."""
    table, digests = [], {}
    attempted = failed = 0
    correct = all(c["ok"] for c in checks)
    for i, sample in enumerate(samples):
        for j, op in enumerate(sample["ops"]):
            seen, outs = set(), []
            for p in passes:
                res = p["samples"][i]
                r = res["ops"][j] if res is not None else None
                o = outcome(op, r)
                outs.append(o)
                attempted += 1
                failed += o != "ok"
                correct = correct and o != "unexpected"
                seen.add(r["digest"] if r else None)
            key = "%s.%s" % (sample["label"], op["command"])
            first = passes[0]["samples"][i]
            got = first["ops"][j]["exit"] if first is not None else None
            table.append({"op": key, "expect": op["expect"], "exit": got,
                          "seed_exit": op["seed_exit"],
                          "outcome": max(outs, key=["ok", "known-defect",
                                                    "unexpected"].index)})
            digests[key] = next(iter(seen)) if len(seen) == 1 else None
            # payloads must repeat byte for byte, traced or not
            correct = correct and len(seen) == 1
    return table, digests, correct, attempted, failed


def pass_metrics(samples, p, windows):
    """End-to-end figures of one pass (None if a child failed).

    Every time appears twice: in seconds (`_s`) and in calibration-loop
    units (`_cal`): each op's seconds divided by the median loop time the
    child sampled around and during it.
    """
    if any(r is None for r in p["samples"]):
        return None
    m = {}
    for sample, res in zip(samples, p["samples"]):
        for op, r in zip(sample["ops"], res["ops"]):
            units = r["seconds"] / r["calibration_s"]
            for name in ("wall", COMMAND_METRICS[op["command"]]):
                m[name + "_s"] = m.get(name + "_s", 0.0) + r["seconds"]
                m[name + "_cal"] = m.get(name + "_cal", 0.0) + units
    m["peak_rss_mb"] = max(r["maxrss_kb"] for r in p["samples"]) / 1024.0
    if windows:
        m["window_per_s"] = windows / m["wall_s"]
    return m


def certified_window(runner, samples, passes):
    """w-degrees certified by successful symmetries payloads (order + 1)."""
    total = 0
    for i, sample in enumerate(samples):
        for j, op in enumerate(sample["ops"]):
            r = passes[0]["samples"][i]
            if op["command"] != "symmetries" or r is None or \
                    outcome(op, r["ops"][j]) != "ok" or \
                    r["ops"][j]["exit"] != 0:
                continue
            total += load(runner.output_path(sample, op))["order"] + 1
    return total


def summarize(values_by_name, units, counts_label):
    out = {}
    for name, values in values_by_name.items():
        med, q1, q3 = spread(values)
        out[name] = {"value": med, "unit": units[name], "q1": q1, "q3": q3,
                     "n": len(values), "samples": counts_label[name]}
    return out


def end_to_end(samples, passes, windows, attempted, failed):
    per_pass = [pass_metrics(samples, p, windows) for p in passes
                if not p["traced"]]
    per_pass = [m for m in per_pass if m is not None]
    names = {}
    for m in per_pass:
        for k in m:
            names.setdefault(k, []).append(m[k])
    units = {k: "cal" if k.endswith("_cal") else "s" for k in names}
    units.update(peak_rss_mb="MB", window_per_s="1/s")
    labels = {k: "passes" for k in names}
    for name in ("setup_s", "setup_raw_s"):
        names[name] = [r[name] for p in passes for r in p["samples"]
                       if r is not None]
        units[name] = "s"
        labels[name] = "child interpreters"
    report = summarize(names, units, labels)
    report["fail_ratio"] = {"value": failed / attempted, "unit": "ratio",
                            "n": attempted, "samples": "ops attempted"}
    return report


def trust_ledger(samples, traced_pass):
    """Per-surface trust orders from the traced hooks (exact counts)."""
    rows = []
    for sample, res in zip(samples, traced_pass["samples"]):
        if sample["kind"] != "surface" or res is None:
            continue
        trust = {op["command"]: r["trust"] or {}
                 for op, r in zip(sample["ops"], res["ops"])}
        row = {"sample": sample["label"], "N": sample["order"],
               "ode_order": trust["derive-ode"].get("ode_order", 0),
               "window": trust["symmetries"].get("window"),
               "pullback_terms": trust["blowup"].get("pullback_terms", 0)}
        row["loss"] = (sample["order"] - row["window"]
                       if row["window"] is not None else None)
        rows.append(row)
    return rows


def per_layer(samples, passes, payloads):
    traced = [p for p in passes if p["traced"]
              and all(r is not None for r in p["samples"])]
    plain = [p for p in passes if not p["traced"]
             and all(r is not None for r in p["samples"])]
    if not traced or not plain:
        return None, None, False

    def total(p, part, name):
        return sum(r["trace"][part][name] for r in p["samples"])

    first = traced[0]
    repeat = all(total(p, part, name) == total(first, part, name)
                 for p in traced for part, names in
                 (("calls", tracing.LAYERS), ("counts", tracing.COUNTERS))
                 for name in names)
    m = {}
    for name in tracing.LAYERS:
        m[name + ".calls"] = (total(first, "calls", name), "count")
        m[name + ".self_s"] = (spread([total(p, "self_s", name)
                                       for p in traced])[0], "s")
    c = {name: total(first, "counts", name) for name in tracing.COUNTERS}
    for name in ("qfield.new.calls", "qfield.mul.calls", "qfield.add.calls",
                 "series.mul.terms_out", "serialize.bytes_out"):
        m[name] = (c[name], "bytes" if name.endswith("bytes_out")
                   else "count")
    steps = c["monodromy.rk4_evals"] // 4
    m["frobenius.kept_ratio"] = (
        c["frobenius.kept"] / c["frobenius.candidates"]
        if c["frobenius.candidates"] else 0.0, "ratio")
    trials = m["blowup.pullback_surface.calls"][0]
    m["blowup.trials_per_hit"] = (
        trials / c["blowup.hits"] if c["blowup.hits"] else 0.0, "ratio")
    m["monodromy.rk4_steps"] = (steps, "count")
    m["monodromy.useful_step_ratio"] = (
        c["monodromy.useful_steps"] / steps if steps else 0.0, "ratio")
    ledger = trust_ledger(samples, first)
    m["trust.ode_order"] = (sum(r["ode_order"] for r in ledger), "order")
    m["trust.window"] = (sum(r["window"] or 0 for r in ledger), "order")
    m["trust.loss"] = (sum(r["loss"] or 0 for r in ledger), "order")
    m["trust.pullback_terms"] = (sum(r["pullback_terms"] for r in ledger),
                                 "count")
    import oracle
    sizes = oracle.coefficient_sizes(payloads)
    for name, value in sizes.items():
        m[name] = (value, "ratio" if name.endswith("share") else "bits")

    def wall(p):
        return sum(r["seconds"] for res in p["samples"] for r in res["ops"])
    m["trace.overhead_s"] = (spread([wall(p) for p in traced])[0] -
                             spread([wall(p) for p in plain])[0], "s")
    bases = {"frobenius.kept_ratio": (c["frobenius.kept"],
                                      c["frobenius.candidates"]),
             "blowup.trials_per_hit": (trials, c["blowup.hits"]),
             "monodromy.useful_step_ratio": (c["monodromy.useful_steps"],
                                             steps),
             "traced_passes": len(traced), "untraced_passes": len(plain)}
    return m, {"bases": bases, "ledger": ledger}, repeat


def print_report(args, loc, e2e, table, checks, digests, layer, extra):
    w = sys.stdout.write
    w("segrefuchs benchmark: workload %s, seed %d, %s\n"
      % (args.workload, args.seed, "traced" if args.trace else "untraced"))
    w("src_loc %d lines\n" % loc)
    if e2e:
        w("end-to-end (median [q1, q3], n samples):\n")
        for name, v in sorted(e2e.items()):
            if "q1" in v:
                w("  %-16s %12.6g %-5s [%.6g, %.6g]  n=%d %s\n"
                  % (name, v["value"], v["unit"], v["q1"], v["q3"], v["n"],
                     v["samples"]))
            else:
                w("  %-16s %12.6g %-5s  n=%d %s\n" % (
                    name, v["value"], v["unit"], v["n"], v["samples"]))
    w("outcomes (expected exit / exit / seed exit):\n")
    for row in table:
        w("  %-40s %s / %s / %s  %s\n" % (row["op"], row["expect"],
                                           row["exit"], row["seed_exit"],
                                           row["outcome"]))
    w("oracle checks:\n")
    for c in checks:
        w("  %-40s %s  %s\n" % ("%s.%s" % (c["sample"], c["command"]),
                                "ok" if c["ok"] else "FAIL", c["note"]))
    if layer:
        w("per-layer (traced passes):\n")
        for name, (value, unit) in sorted(layer.items()):
            w("  %-40s %14.6g %s\n" % (name, value, unit))
        w("ratio bases: %s\n" % json.dumps(extra["bases"], sort_keys=True))
        w("trust ledger (N, ODE order, Frobenius window, N - window, "
          "pullback terms):\n")
        for r in extra["ledger"]:
            w("  %-28s N=%-3d ode=%-3d window=%-4s loss=%-4s terms=%d\n"
              % (r["sample"], r["N"], r["ode_order"], r["window"],
                 r["loss"], r["pullback_terms"]))
    w("payload sha256:\n")
    for key, d in sorted(digests.items()):
        w("  %-40s %s\n" % (key, d or "-"))


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "segrefuchs", "cli.py")):
        sys.stderr.write("benchmark: no segrefuchs sources under %s; run "
                         "from the root of a checkout\n" % src)
        return 2
    sys.path.insert(0, src)
    started = time.monotonic()
    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "out"))
    samples = workloads.generate(args.workload, args.seed, work, args.smoke)
    runner = Runner(src, work, started + RUN_LIMIT_S)
    passes = runner.run_passes(samples, args.seconds, bool(args.trace))
    checks, payloads = verify_payloads(runner, samples, passes[-1])
    table, digests, correct, attempted, failed = evaluate(samples, passes,
                                                          checks)
    windows = certified_window(runner, samples, passes)
    e2e = end_to_end(samples, passes, windows, attempted, failed)
    layer, extra, repeat = (per_layer(samples, passes, payloads)
                            if args.trace else (None, None, True))
    correct = correct and repeat and (layer is not None or not args.trace)
    loc = src_loc(src)
    print_report(args, loc, e2e, table, checks, digests, layer, extra)
    if args.trace:
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in (layer or {}).items()}
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": unit}
                   for name, unit in END_TO_END if name in e2e}
    timings = [{"traced": p["traced"],
                "op_seconds": [[r["seconds"] for r in res["ops"]]
                               if res else None for res in p["samples"]]}
               for p in passes]
    report = {"workload": args.workload, "seed": args.seed,
              "passes": timings,
              "trace": args.trace, "src_loc": loc, "end_to_end": e2e,
              "per_layer": layer, "extra": extra, "outcomes": table,
              "checks": checks, "digests": digests}
    with open(os.path.join(work, "report.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    sys.stdout.write(json.dumps({"correct": correct, "attempted": attempted,
                                 "failed": failed, "metrics": metrics})
                     + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
