"""latecut benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload stream-burst --seed 3 --seconds 50 --trace 0

Builds the workload's inputs from the seed (untimed), drives latecut's
public API from outside the package for about ``--seconds`` seconds, checks
every output, prints each metric by name with its unit, and ends with one
JSON object.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced sessions and reports per-layer metrics from
the traced ones, plus the tracing overhead between the two.  The metrics,
workloads and the layer each metric depends on are described in
bench/README.md.

The package is imported from ``src/`` next to this directory; without it
the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext

import numpy as np


HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPS = 25  # per session, besides the session's own set-up
MIN_SESSIONS = 2

END_TO_END = (
    ("setup_s", "s"),
    ("adapt_p50_ms", "ms"),
    ("adapt_p99_ms", "ms"),
    ("steady_p50_ms", "ms"),
    ("steady_p99_ms", "ms"),
    ("switchover_s", "s"),
    ("steady_capacity_per_s", "req/s"),
    ("pf_s", "s"),
    ("accuracy_pct", "%"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("serving", "network", "distill", "pruning", "formats", "profiling", "data")

PER_LAYER = (
    ("serving.ticks", "count"),
    ("serving.tick_ms_p50", "ms"),
    ("serving.tick_ms_max", "ms"),
    ("serving.wait_ms_p50", "ms"),
    ("serving.wait_ms_p99", "ms"),
    ("serving.arrivals_per_tick_mean", "count"),
    ("serving.background_units", "count"),
    ("network.forward_b1_us_p50", "us"),
    ("network.forward_b1_calls", "count"),
    ("network.forward_b64_ms_p50", "ms"),
    ("network.trace_ms_p50", "ms"),
    ("network.backprop_ms_p50", "ms"),
    ("network.sgd_step_ms_p50", "ms"),
    ("distill.step_ms_p50", "ms"),
    ("distill.steps", "count"),
    ("distill.label_ms", "ms"),
    ("distill.teacher_queries_during_steps", "count"),
    ("pruning.score_ms", "ms"),
    ("pruning.forward_passes", "count"),
    ("formats.fingerprint_ms", "ms"),
    ("formats.fingerprint_calls", "count"),
    ("formats.load_checkpoint_ms", "ms"),
    ("profiling.profile_ms", "ms"),
    ("data.evaluate_ms", "ms"),
    *((f"{layer}.self_ms", "ms") for layer in LAYERS),
    ("trace.overhead_pct", "%"),
    ("trace.accounted_pct", "%"),
    ("trace.spans", "count"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("stream-burst", "offline-pf"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package() -> bool:
    """Put the checkout's ``src/`` first on the path and import latecut
    from it; refuse any other copy of the package."""
    if not os.path.isfile(os.path.join(SRC, "latecut", "__init__.py")):
        print(f"bench: no latecut package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    import latecut

    if os.path.dirname(os.path.dirname(os.path.abspath(latecut.__file__))) != SRC:
        print(f"bench: imported latecut from {latecut.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def blas_threads() -> str:
    """Thread count of numpy's OpenBLAS, asked of the library itself."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_package():
        return 2

    from checks import Tally
    from inputs import StreamShape, WORKLOADS, make_inputs
    from latecut.formats import save_checkpoint
    from loops import offline_setup, run_offline_rep, run_stream_session, stream_setup
    from spans import NullTracer, Tracer, traced, write_spans

    shape = WORKLOADS[args.workload]
    stream = isinstance(shape, StreamShape)
    origin = time.perf_counter()
    inputs = make_inputs(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}, "
          f"width {shape.width} x {shape.n_blocks} blocks, BLAS threads {blas_threads()}, "
          f"inputs built in {time.perf_counter() - origin:.2f} s")

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    null = NullTracer()
    tracer = Tracer() if args.trace else None
    tally = Tally()
    results, setups = [], []
    try:
        ckpt = os.path.join(workdir, "model.ckpt")
        save_checkpoint(inputs.pretrained, ckpt)

        def set_up():
            if stream:
                return stream_setup(ckpt, shape, inputs.samples[:1], null)[0]
            return offline_setup(ckpt, shape, null)[0]

        set_up()  # the first set-up warms the interpreter's lazy paths; untimed
        run_one = run_stream_session if stream else run_offline_rep
        start = time.perf_counter()
        session = 0
        while True:
            # Set-ups are spread over the run, so their median does not
            # hinge on how busy the machine was at one moment.
            setups.extend(set_up() for _ in range(SETUP_REPS))
            is_traced = bool(args.trace) and session % 2 == 1
            lo = len(tracer.spans) if tracer else 0
            try:
                with traced(tracer) if is_traced else nullcontext():
                    result = run_one(shape, inputs, ckpt, tracer if is_traced else null, tally,
                                     session)
            except Exception:  # a failed session is counted and the run goes on
                traceback.print_exc()
                tally.add(1, 1, f"session {session} raised")
            else:
                result.traced = is_traced
                result.span_range = (lo, len(tracer.spans) if tracer else 0)
                results.append(result)
            session += 1
            elapsed = time.perf_counter() - start
            if session >= MIN_SESSIONS and elapsed * (session + 1) / session > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in results if not r.traced]
    if not plain or (args.trace and len(plain) == len(results)):
        print("bench: no session completed; no result", file=sys.stderr)
        return 1
    for r in results[1:]:
        tally.check(r.final.same_as(results[0].final),
                    "sessions on identical inputs produced different fine-tuned models")

    if not all(len(r.steady_ms) for r in plain):
        print("bench: a session ended before the pruned model served; no result", file=sys.stderr)
        return 1
    e2e = end_to_end(plain, setups)
    unit = "requests" if stream else f"batches of {shape.answer_batch}"
    print(f"sessions {len(results)} ({len(plain)} untraced), latency samples: "
          f"{sum(len(r.adapt_ms) for r in plain)} {unit} answered by M, "
          f"{sum(len(r.steady_ms) for r in plain)} by Mbar")
    if args.trace:
        metrics = per_layer(tracer, results, shape)
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv")
        write_spans(path, tracer.spans, origin)
        print(f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
        units = dict(PER_LAYER)
    else:
        metrics = e2e
        units = dict(END_TO_END)
    if args.trace:
        for name, value in e2e.items():
            print(f"  untraced {name} = {value:.6g} {dict(END_TO_END)[name]}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  failed_share = {tally.failed}/{tally.attempted} = "
          f"{tally.failed / max(tally.attempted, 1):.6g} ratio")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def trimmed_mean(values) -> float:
    """Mean without the highest and the lowest tenth (at least one of each
    from five values up)."""
    v = np.sort(values)
    k = max(len(v) // 10, 1 if len(v) >= 5 else 0)
    return float(v[k : len(v) - k].mean())


def end_to_end(results, setups) -> dict:
    """Each session's figures, then their trimmed mean over sessions.  The
    host's speed switches between two levels about 1.8x apart for seconds
    at a time, so a median over sessions jumps from one level to the other
    when about half of a run's sessions were slow; the mean moves with the
    share of slow time, and trimming keeps one disturbed session from
    setting it.  Set-up time is the median of all set-ups."""
    def per_session(field, q):
        return trimmed_mean([np.percentile(getattr(r, field), q) for r in results])

    return {
        "setup_s": float(np.median(setups + [r.setup_s for r in results])),
        "adapt_p50_ms": per_session("adapt_ms", 50),
        "adapt_p99_ms": per_session("adapt_ms", 99),
        "steady_p50_ms": per_session("steady_ms", 50),
        "steady_p99_ms": per_session("steady_ms", 99),
        "switchover_s": trimmed_mean([r.switchover_s for r in results]),
        "steady_capacity_per_s": trimmed_mean([r.capacity_per_s for r in results]),
        "pf_s": trimmed_mean([r.pf_s for r in results]),
        "accuracy_pct": results[0].accuracy_pct,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, results, shape) -> dict:
    from spans import BATCH, END, NAME, PARENT, REQUEST, START, self_times

    spans = tracer.spans
    traced_runs = [r for r in results if r.traced]
    plain = [r for r in results if not r.traced]
    k = len(traced_runs)
    indices = [i for r in traced_runs for i in range(*r.span_range)]

    def durations(pick):
        return [(spans[i][END] - spans[i][START]) * 1e3 for i in indices if pick(spans[i])]

    def named(name):
        return lambda s: s[NAME] == name

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""

    def p50(values, scale=1.0):
        return float(np.median(values)) * scale if values else 0.0

    ticks = durations(named("serving.tick"))
    waits = np.concatenate([r.wait_ms for r in traced_runs])
    b1 = durations(lambda s: s[NAME] == "network.forward" and s[BATCH] == 1)
    labels = durations(lambda s: s[NAME] == "network.forward" and (
        parent_name(s) == "distill.build_cache"
        or (parent_name(s) == "serving.tick" and s[BATCH] == 1 and s[REQUEST] is None)))
    scoring = durations(lambda s: s[NAME] in ("pruning.rank_and_prune", "pruning.initial_noise")
                        or (s[NAME] == "network.forward" and parent_name(s) == "serving.tick"
                            and s[BATCH] == shape.prune_batch))
    fingerprints = durations(named("formats.network_fingerprint"))
    arrival_ticks = sum(r.arrival_ticks for r in traced_runs)
    selfs = self_times(spans, indices)

    accounted = []
    for r in traced_runs:
        inside = [i for i in range(*r.span_range)
                  if spans[i][START] >= r.window[0] and spans[i][END] <= r.window[1]]
        accounted.append(100.0 * sum(self_times(spans, inside).values())
                         / (r.window[1] - r.window[0]))
    busy_plain = float(np.median([r.busy_s for r in plain]))

    metrics = {
        "serving.ticks": len(ticks) / k,
        "serving.tick_ms_p50": p50(ticks),
        "serving.tick_ms_max": max(ticks, default=0.0),
        "serving.wait_ms_p50": float(np.percentile(waits, 50)) if len(waits) else 0.0,
        "serving.wait_ms_p99": float(np.percentile(waits, 99)) if len(waits) else 0.0,
        "serving.arrivals_per_tick_mean":
            sum(r.arrivals for r in traced_runs) / arrival_ticks if arrival_ticks else 0.0,
        "serving.background_units": float(np.median([r.background_units for r in traced_runs])),
        "network.forward_b1_us_p50": p50(b1, 1e3),
        "network.forward_b1_calls": len(b1) / k,
        "network.forward_b64_ms_p50":
            p50(durations(lambda s: s[NAME] == "network.forward" and s[BATCH] == 64)),
        "network.trace_ms_p50": p50(durations(named("network.forward_trace"))),
        "network.backprop_ms_p50": p50(durations(named("network.backprop"))),
        "network.sgd_step_ms_p50": p50(durations(named("network.sgd_step"))),
        "distill.step_ms_p50": p50(durations(named("distill.step"))),
        "distill.steps": len(durations(named("distill.step"))) / k,
        "distill.label_ms": sum(labels) / k,
        "distill.teacher_queries_during_steps": float(tracer.teacher_queries_during_steps),
        "pruning.score_ms": sum(scoring) / k,
        "pruning.forward_passes": float(np.median([r.prune_passes for r in traced_runs])),
        "formats.fingerprint_ms": sum(fingerprints) / k,
        "formats.fingerprint_calls": len(fingerprints) / k,
        "formats.load_checkpoint_ms": p50(durations(named("formats.load_checkpoint"))),
        "profiling.profile_ms": p50(durations(named("profiling.profile"))),
        "data.evaluate_ms": p50(durations(named("data.evaluate_accuracy"))),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = selfs.get(layer, 0.0) * 1e3 / k
    metrics["trace.overhead_pct"] = (
        100.0 * (float(np.median([r.busy_s for r in traced_runs])) - busy_plain) / busy_plain)
    metrics["trace.accounted_pct"] = float(np.median(accounted))
    metrics["trace.spans"] = len(indices) / k
    return metrics


if __name__ == "__main__":
    sys.exit(main())
