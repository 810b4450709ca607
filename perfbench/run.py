"""Benchmark runner for the novikov package.

    python3 perfbench/run.py --workload refute-n2c4 --seed 1 --seconds 20 --trace 0

Runs one workload in this process: one closed-loop client, one op at a
time, no threads. Set-up (import, fixture building, corpus generation,
warm-up) is repeated SETUP_REPEATS times and reported as its median. The
measured loop makes whole passes over the workload's items until --seconds
have passed and at least two ops are done, and checks every output. With
--trace 0 it reports the end-to-end metrics, with op and set-up times in
reference seconds (speed.py); with --trace 1 it runs every item twice,
untraced and traced in alternating order, and reports the per-layer
metrics of the traced ops in wall seconds. Metric names and units come
from BENCHMARK.json. The last line of standard output is the JSON result;
the line before it holds sample counts, the wall-clock times, the corpus
mix and the condition-system fingerprints.
"""

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3


def _fresh_package():
    """Import novikov from the checkout, dropping any earlier import so each
    set-up repetition pays the import again."""
    for name in [n for n in sys.modules if n == "novikov" or n.startswith("novikov.")]:
        del sys.modules[name]
    nv = importlib.import_module("novikov")
    if not os.path.abspath(nv.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise ImportError("novikov was imported from %s, not from this checkout" % nv.__file__)
    importlib.import_module("novikov.laf")
    importlib.import_module("novikov.cli")
    return nv


def _setup(name, seed, workdir):
    from perfbench import tracing, workloads

    nv = _fresh_package()
    probe = workloads.Probe()
    workload = workloads.WORKLOADS[name](nv, workdir, seed, probe)
    hooks = tracing.build_patch(nv, hooks=probe.hooks())
    with hooks:
        warm_up = workload.warm_up()
    return nv, probe, workload, hooks, warm_up


def _wall_clock():
    return time.perf_counter(), 0.0


def _run_op(item, patch, clock, tracer=None):
    """Run and check one op; returns its (begin, end) clock readings."""
    with patch:
        begin = clock()
        try:
            outcome = tracer.op(item.run) if tracer else item.run()
            error = None
        except Exception as exc:  # an op that raises counts as failed
            outcome, error = None, "%s: %s" % (type(exc).__name__, exc)
        end = clock()
    if error is None:
        error = item.check(outcome)
    return (begin, end), error


def _seconds(interval):
    """Wall seconds of an op, less the time the speed meter took from it."""
    (t0, p0), (t1, p1) = interval
    return t1 - t0 - (p1 - p0)


def _measure(items, seconds, hooks, clock, traced_patch=None, tracer=None):
    """Whole passes until `seconds` have passed and two ops are done; a
    median needs two samples even when one op outlasts `seconds`. Returns
    the clock intervals of the untraced and of the traced ops."""
    untraced, traced, errors = [], [], []
    start = time.perf_counter()
    passes = 0
    while time.perf_counter() - start < seconds or len(untraced) + len(traced) < 2:
        for item in items:
            modes = [False, True] if tracer else [False]
            if passes % 2:
                modes.reverse()
            for traced_mode in modes:
                if traced_mode:
                    interval, error = _run_op(item, traced_patch, clock, tracer)
                    traced.append(interval)
                else:
                    interval, error = _run_op(item, hooks, clock)
                    untraced.append(interval)
                if error:
                    errors.append("%s: %s" % (item.label, error))
        passes += 1
    return untraced, traced, errors, passes


def _layer_metrics(tracer, untraced, workload, wanted):
    """Per-layer values per traced op; spans never entered count as 0."""
    from perfbench import tracing

    calls, incl, self_s = tracer.aggregate()
    ops, counts = tracer.ops, tracer.counts
    out = {m["name"]: 0.0 for m in wanted if m["name"].endswith((".calls", ".s", ".self_s"))}
    for name in calls:
        out[name + ".calls"] = calls[name] / ops
        out[name + ".s"] = incl[name] / ops
        out[name + ".self_s"] = self_s[name] / ops
    for module in tracing.LAYERS + ("bench",):
        out[module + ".self_s"] = sum(
            value for name, value in self_s.items() if name.startswith(module + ".")
        ) / ops
    for name in tracing.COUNTED:
        out[name + ".calls"] = counts[name] / ops
    terms = counts["linalg.vdot.terms"]
    out["linalg.vdot.nonzero_frac"] = counts["linalg.vdot.nonzero_terms"] / terms if terms else 0.0
    fp = workload.fingerprint if calls["certificate.build_system"] else None
    for key in ("linear_rows", "quadratics", "free_params", "residuals"):
        out["certificate." + key] = fp[key] if fp else 0
    out["laf.bytes"] = counts["laf.bytes"] / ops
    out["trace.op_s"] = incl[tracing.ROOT_SPAN] / ops
    out["trace.untraced_op_s"] = sum(untraced) / len(untraced)
    out["trace.overhead_frac"] = out["trace.op_s"] / out["trace.untraced_op_s"] - 1
    return out


def _laf_hooks(tracer):
    def parsed(args, result):
        tracer.counts["laf.bytes"] += len(args[0])

    def emitted(args, result):
        tracer.counts["laf.bytes"] += len(result)

    return {"laf.parse": parsed, "laf.emit": emitted}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error("unknown workload %r" % args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import speed, tracing

    out_dir = os.path.join(ROOT, ".perfbench_out")
    workdir = os.path.join(out_dir, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    # per-layer times are wall times; the speed meter would land in the
    # spans it interrupts
    if args.trace:
        meter, clock = contextlib.nullcontext(), _wall_clock
    else:
        meter = speed.Meter()
        clock = meter.op_clock
    try:
        with meter:
            setups = []
            for _ in range(SETUP_REPEATS):
                begin = clock()
                nv, probe, workload, hooks, warm_up = _setup(args.workload, args.seed, workdir)
                setups.append((begin, clock()))
            # failures outside the measured ops: they make the run incorrect
            problems = [p for p in (warm_up and "warm-up op failed: " + warm_up,
                                    workload.self_test()) if p]
            tracer = traced_patch = None
            if args.trace:
                tracer = tracing.Tracer()
                traced_patch = tracing.build_patch(
                    nv, tracer, {**probe.hooks(), **_laf_hooks(tracer)}
                )
            untraced, traced, errors, passes = _measure(
                workload.items(), args.seconds, hooks, clock, traced_patch, tracer
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(untraced) + len(traced)
    fail_frac = len(errors) / attempted
    decided_frac = workload.decided / workload.decide_ops if workload.decide_ops else 0.0
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "samples_untraced": len(untraced),
        "samples_traced": len(traced),
        "fail_frac": fail_frac,
        "decided_frac": decided_frac,
        "decide_ops": workload.decide_ops,
        "wall_setup_s_samples": [_seconds(i) for i in setups],
        "problems": problems,
        "errors": errors[:5],
        **workload.info(),
    }
    if tracer:
        metrics = _layer_metrics(tracer, [_seconds(i) for i in untraced], workload, wanted)
        info["layer_self_sum_s"] = sum(metrics[m + ".self_s"] for m in tracing.LAYERS + ("bench",))
        with open(os.path.join(out_dir, "trace-%s-%d.json" % (args.workload, args.seed)), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "spans": tracer.dump()}, fh)
    else:
        wall = [_seconds(i) for i in untraced]
        ref = [meter.ref_seconds(*i) for i in untraced]
        info.update(
            wall_ops_per_s=len(wall) / sum(wall),
            wall_op_p50_s=statistics.median(wall),
            speed_samples=len(meter.times),
        )
        metrics = {
            "ops_per_ref_s": len(ref) / sum(ref),
            "op_p50_ref_s": statistics.median(ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(meter.ref_seconds(*i) for i in setups),
        }
    metrics.update(fail_frac=fail_frac, decided_frac=decided_frac)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError("metrics not produced: %s" % ", ".join(missing))

    for line in errors[:5]:
        print("failed op: " + line, file=sys.stderr)
    for line in problems:
        print(line, file=sys.stderr)
    if info.get("fingerprint_changed"):
        print("condition system counts changed: %s, recorded %s"
              % (info["fingerprint"], info["fingerprint_recorded"]), file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not errors and not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
