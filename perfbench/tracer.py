"""Spans around the public functions of cgoplane, recorded from outside the package.

A wrapper replaces each measured function under every name it is looked up
by: ``cgo`` imports ``fft2`` and ``ifft2`` from ``grid`` by name, ``reconstruct``
imports ``solve_w`` from ``cgo``, and ``scattering`` calls ``green0`` through
its module global, so patching only the defining module would miss the calls
that matter.  Spans stay in memory; ``Tracer.dump`` writes them once at the
end of a run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "count", "error")

    def __init__(self, sid, name, start, parent, op):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.count = 0
        self.error = None

    def as_dict(self):
        return {"id": self.sid, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "count": self.count,
                "error": self.error}


def _fft_bytes(args, kwargs, result):
    # computed: one complex128 array read and one written per transform
    return int(args[0].size) * 16 * 2


def _green0_evals(args, kwargs, result):
    return int(getattr(args[0], "size", 1))


def _saved_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _dense_system_bytes(args, kwargs, result):
    # computed: the N x N complex system matrix and its LU factors, N = grid nodes
    n_nodes = int(args[0].values.size)
    return 2 * n_nodes * n_nodes * 16


# (module, attribute, span name, count of the call).  A dotted attribute is a
# method patched on its class.
TARGETS = [
    ("grid", "fft2", "grid.fft", _fft_bytes),
    ("grid", "ifft2", "grid.fft", _fft_bytes),
    ("cgo", "solve_w", "cgo.solve_w", None),
    ("cgo", "s1_apply", "cgo.s1_apply", None),
    ("cgo", "phase_mul", "cgo.phase_mul", None),
    ("cgo", "dz_inv", "cgo.inverse", None),
    ("cgo", "dzbar_inv", "cgo.inverse", None),
    ("potentials", "rasterize", "potentials.rasterize", None),
    ("potentials", "PiecewisePotential.__call__", "potentials.evaluate", None),
    ("dtn", "assemble_polar_operator", "dtn.assemble_polar_operator", None),
    ("dtn", "dtn_matrix", "dtn.dtn_matrix", None),
    ("dtn", "dtn_matrix_cached", "dtn.dtn_matrix_cached", None),
    ("dtn", "dtn_opnorm_diff", "dtn.dtn_opnorm_diff", None),
    ("dtn", "save_dtn", "dtn.save_dtn", _saved_bytes),
    ("dtn", "load_dtn", "dtn.load_dtn", None),
    ("reconstruct", "reconstruct_interior", "reconstruct.reconstruct_interior", None),
    ("reconstruct", "reconstruct_boundary", "reconstruct.reconstruct_boundary", None),
    ("reconstruct", "bukhgeim_trace", "reconstruct.bukhgeim_trace", None),
    ("reconstruct", "build_error_weight_map", "reconstruct.build_error_weight_map", None),
    ("stationary", "find_stationary", "stationary.find_stationary", None),
    ("scattering", "green0", "scattering.green0", _green0_evals),
    ("scattering", "compute_far_field_data", "scattering.compute_far_field_data",
     _dense_system_bytes),
    ("scattering", "k_norm", "scattering.k_norm", None),
]

# Per-layer metrics in the order they are reported, with their units.
LAYER_METRICS = [
    ("grid.fft.calls", "count"),
    ("grid.fft.self_ms", "ms"),
    ("grid.fft.bytes", "B"),
    ("cgo.solve_w.calls", "count"),
    ("cgo.solve_w.self_ms", "ms"),
    ("cgo.picard_iters", "count"),
    ("cgo.s1_apply.self_ms", "ms"),
    ("cgo.phase_mul.calls", "count"),
    ("cgo.phase_mul.self_ms", "ms"),
    ("cgo.inverse.self_ms", "ms"),
    ("potentials.rasterize.self_ms", "ms"),
    ("potentials.evaluate.calls", "count"),
    ("potentials.evaluate.self_ms", "ms"),
    ("dtn.assemble_polar_operator.calls", "count"),
    ("dtn.assemble_polar_operator.self_ms", "ms"),
    ("dtn.dtn_matrix.self_ms", "ms"),
    ("dtn.dtn_opnorm_diff.self_ms", "ms"),
    ("dtn.cache_hits", "count"),
    ("dtn.cache_misses", "count"),
    ("dtn.save_dtn.self_ms", "ms"),
    ("dtn.load_dtn.self_ms", "ms"),
    ("dtn.blob_bytes", "B"),
    ("reconstruct.reconstruct_interior.self_ms", "ms"),
    ("reconstruct.bukhgeim_trace.self_ms", "ms"),
    ("reconstruct.reconstruct_boundary.self_ms", "ms"),
    ("reconstruct.refused", "count"),
    ("reconstruct.build_error_weight_map.self_ms", "ms"),
    ("stationary.find_stationary.calls", "count"),
    ("scattering.green0.evals", "count"),
    ("scattering.green0.self_ms", "ms"),
    ("scattering.compute_far_field_data.self_ms", "ms"),
    ("scattering.k_norm.self_ms", "ms"),
    ("scattering.system_bytes", "B"),
]

# Metrics derived from array sizes rather than observed; the trace file says so.
COMPUTED_METRICS = ("grid.fft.bytes", "scattering.system_bytes")


class Tracer:
    """Records nested spans; ``op`` tags every span with the current operation."""

    def __init__(self):
        self.spans = []
        self.op = "setup"
        self.paused = False
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name, count_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1].sid if tracer._stack else None
            span = Span(len(tracer.spans), name, time.perf_counter(), parent, tracer.op)
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if count_fn is not None:
                span.count = count_fn(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap every target under each name it is bound to in ``package``'s modules."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for mod_name, attr, span_name, count_fn in TARGETS:
            home = sys.modules[f"{package.__name__}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self.wrap(original, span_name, count_fn))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(original, span_name, count_fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def dump(self, path, extra):
        doc = {"computed_metrics": list(COMPUTED_METRICS), **extra,
               "spans": [s.as_dict() for s in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(spans):
    """Span id -> duration minus the part of it covered by its child spans."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


def layer_metrics(spans):
    """Every per-layer metric of LAYER_METRICS from the recorded spans."""
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}

    def named(name):
        return [s for s in spans if s.name == name]

    def self_ms(name):
        return 1e3 * sum(selfs[s.sid] for s in named(name))

    def ancestors(span):
        while span.parent is not None:
            span = by_id[span.parent]
            yield span

    def callers(name, caller):
        """Ids of the ``caller`` spans that have a ``name`` span below them."""
        return {a.sid for s in named(name) for a in ancestors(s) if a.name == caller}

    values = {
        "grid.fft.calls": len(named("grid.fft")),
        "grid.fft.self_ms": self_ms("grid.fft"),
        "grid.fft.bytes": sum(s.count for s in named("grid.fft")),
        "cgo.solve_w.calls": len(named("cgo.solve_w")),
        "cgo.solve_w.self_ms": self_ms("cgo.solve_w"),
        "cgo.picard_iters": sum(1 for s in named("cgo.s1_apply")
                                if any(a.name == "cgo.solve_w" for a in ancestors(s))),
        "cgo.s1_apply.self_ms": self_ms("cgo.s1_apply"),
        "cgo.phase_mul.calls": len(named("cgo.phase_mul")),
        "cgo.phase_mul.self_ms": self_ms("cgo.phase_mul"),
        "cgo.inverse.self_ms": self_ms("cgo.inverse"),
        "potentials.rasterize.self_ms": self_ms("potentials.rasterize"),
        "potentials.evaluate.calls": len(named("potentials.evaluate")),
        "potentials.evaluate.self_ms": self_ms("potentials.evaluate"),
        "dtn.assemble_polar_operator.calls": len(named("dtn.assemble_polar_operator")),
        "dtn.assemble_polar_operator.self_ms": self_ms("dtn.assemble_polar_operator"),
        "dtn.dtn_matrix.self_ms": self_ms("dtn.dtn_matrix"),
        "dtn.dtn_opnorm_diff.self_ms": self_ms("dtn.dtn_opnorm_diff"),
        "dtn.cache_hits": len(callers("dtn.load_dtn", "dtn.dtn_matrix_cached")),
        "dtn.cache_misses": len(callers("dtn.dtn_matrix", "dtn.dtn_matrix_cached")),
        "dtn.save_dtn.self_ms": self_ms("dtn.save_dtn"),
        "dtn.load_dtn.self_ms": self_ms("dtn.load_dtn"),
        "dtn.blob_bytes": sum(s.count for s in named("dtn.save_dtn")),
        "reconstruct.reconstruct_interior.self_ms": self_ms("reconstruct.reconstruct_interior"),
        "reconstruct.bukhgeim_trace.self_ms": self_ms("reconstruct.bukhgeim_trace"),
        "reconstruct.reconstruct_boundary.self_ms": self_ms("reconstruct.reconstruct_boundary"),
        "reconstruct.refused": sum(1 for s in named("reconstruct.reconstruct_boundary")
                                   if s.error == "AmplificationExceeded"),
        "reconstruct.build_error_weight_map.self_ms":
            self_ms("reconstruct.build_error_weight_map"),
        "stationary.find_stationary.calls": len(named("stationary.find_stationary")),
        "scattering.green0.evals": sum(s.count for s in named("scattering.green0")),
        "scattering.green0.self_ms": self_ms("scattering.green0"),
        "scattering.compute_far_field_data.self_ms":
            self_ms("scattering.compute_far_field_data"),
        "scattering.k_norm.self_ms": self_ms("scattering.k_norm"),
        "scattering.system_bytes": max(
            [s.count for s in named("scattering.compute_far_field_data")], default=0),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}

