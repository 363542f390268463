"""Summarise the runs kept under perfbench-out/: end-to-end spread, tracing cost, layers.

    python3 perfbench/report.py

For each workload: the median and quartile spread (as a share of the median)
of every end-to-end metric over the untraced runs; the traced run's
ops_per_s against the untraced median (the tracing overhead); and, from each
trace, every span name with its calls, self time and mean time per call.
"""

import glob
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402


def _load(pattern):
    out = {}
    for path in sorted(glob.glob(os.path.join(run.OUT_DIR, pattern))):
        with open(path) as fh:
            doc = json.load(fh)
        out.setdefault(os.path.basename(path).split("-seed")[0], []).append(doc)
    return out


def main():
    untraced = _load("results/*-trace0.json")
    for wl, docs in untraced.items():
        print(f"{wl}: {len(docs)} untraced runs")
        for name in docs[0]["metrics"]:
            vals = [d["metrics"][name]["value"] for d in docs]
            med = statistics.median(vals)
            spread = ""
            if len(vals) >= 2:
                q = statistics.quantiles(vals, n=4)
                spread = f"  IQR/median {(q[2] - q[0]) / med:.4f}"
            print(f"  {name:12s} median {med:.6g} {docs[0]['metrics'][name]['unit']}{spread}")
    for wl, docs in _load("traces/*.json").items():
        base = statistics.median(d["metrics"]["ops_per_s"]["value"] for d in untraced[wl]) \
            if wl in untraced else None
        for doc in docs:
            traced = doc["ops_per_s_traced"]
            cost = f", {100 * (base / traced - 1):+.1f} % time vs untraced" if base else ""
            print(f"{wl} seed {doc['seed']} traced: ops_per_s {traced:.6g}{cost}")
            spans = []
            for d in doc["spans"]:
                s = tracer.Span(d["id"], d["name"], d["start"], d["parent"], d["op"])
                s.end = d["end"]
                spans.append(s)
            selfs = tracer.self_times(spans)
            for name in sorted({s.name for s in spans}):
                mine = [s for s in spans if s.name == name]
                total = sum(s.end - s.start for s in mine)
                self_s = sum(selfs[s.sid] for s in mine)
                print(f"  {name:40s} calls {len(mine):6d}  self {1e3 * self_s:10.1f} ms"
                      f"  per call {1e3 * total / len(mine):9.3f} ms")


if __name__ == "__main__":
    main()
