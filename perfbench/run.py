"""Benchmark of cgoplane: three workloads timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload interior-jump --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports ``cgoplane`` from
``src/`` there and from nowhere else.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (setup_s, ops_per_s,
op_p50_ms, peak_rss_mb); with ``--trace 1`` they are the per-layer ones of
one round, and the spans go to ``perfbench-out/traces/``.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench-out")
WORKLOADS = ("interior-jump", "dtn-stability", "far-field")


class SetupError(Exception):
    """The checkout holds no cgoplane sources to benchmark."""


def import_cgoplane():
    """Import cgoplane from the checkout's src/, refusing any installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cgoplane", "__init__.py")):
        raise SetupError(f"no cgoplane sources under {src}")
    sys.path.insert(0, src)
    import cgoplane
    if os.path.dirname(os.path.dirname(os.path.abspath(cgoplane.__file__))) != src:
        raise SetupError(f"imported cgoplane from {cgoplane.__file__}, not from {src}")
    return cgoplane


def median(values):
    s = sorted(values)
    if not s:
        raise ValueError("median of no values")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


def peak_rss_mb():
    """Peak resident set size of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Clock:
    """Times operations; ``outside`` brackets work kept out of the measured phase."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.durations = []
        self.kinds = []
        self.outside_s = 0.0

    @contextlib.contextmanager
    def op(self, kind):
        if self.tracer is not None:
            self.tracer.op = f"{len(self.durations)}:{kind}"
        t0 = time.perf_counter()
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.op = None
        self.durations.append(time.perf_counter() - t0)
        self.kinds.append(kind)

    @contextlib.contextmanager
    def outside(self):
        t0 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.paused = False
            self.outside_s += time.perf_counter() - t0


def setup_workload(name, seed, tracer=None):
    """Import cgoplane and build the workload's inputs; returns (cg, workload, state, s)."""
    t0 = time.perf_counter()
    cg = import_cgoplane()
    if tracer is not None:
        tracer.install(cg)
    import workloads
    wl = workloads.make(name, OUT_DIR)
    state = wl.setup(cg, seed)
    return cg, wl, state, time.perf_counter() - t0


def measure(cg, wl, state, seconds, clock):
    """Whole rounds until the measured phase reaches ``seconds``; one round if it is None.

    Returns (phase seconds, check figures of the last round).
    """
    t0 = time.perf_counter()
    while True:
        figures = wl.run_round(cg, state, clock)
        phase_s = time.perf_counter() - t0 - clock.outside_s
        if seconds is None or phase_s >= seconds:
            return phase_s, figures


def run(args):
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    cg, wl, state, setup_s = setup_workload(args.workload, args.seed, tracer)
    import checks

    clock = Clock(tracer)
    correct, failed = True, 0
    # A traced run does exactly one round, whatever --seconds says, so its
    # counts and summed times do not depend on how many rounds fit in the
    # time at the current speed of the machine and of the program.
    seconds = None if args.trace else args.seconds
    try:
        phase_s, figures = measure(cg, wl, state, seconds, clock)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct, phase_s, figures = False, 0.0, {}
    except cg.CgoplaneError as exc:
        # The rest of the round and its checks did not run, so the run cannot
        # vouch for its outputs.
        print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        correct, failed, phase_s, figures = False, 1, 0.0, {}
    finally:
        if tracer is not None:
            tracer.uninstall()

    completed = len(clock.durations)
    result = {"correct": correct, "attempted": completed + failed, "failed": failed}
    if args.trace:
        result["metrics"] = tracing.layer_metrics(tracer.spans)
    else:
        result["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": completed / phase_s if phase_s else 0.0, "unit": "op/s"},
            "op_p50_ms": {"value": 1e3 * median(clock.durations) if completed else 0.0,
                          "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }

    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    record = {**result, "seconds": args.seconds,
              "op_kinds": clock.kinds, "op_ms": [1e3 * d for d in clock.durations],
              "phase_s": phase_s, "figures": figures}
    with open(os.path.join(OUT_DIR, "results", stem + ".json"), "w") as fh:
        json.dump(record, fh)
    if tracer is not None:
        os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, "traces", stem + ".json"),
                    {"workload": args.workload, "seed": args.seed,
                     "ops_per_s_traced": completed / phase_s if phase_s else 0.0,
                     "op_kinds": clock.kinds})
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
