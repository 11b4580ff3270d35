"""Spans around calls into slicelab's layers, recorded from outside.

A :class:`Tracer` replaces selected functions by timing wrappers in every
``slicelab.*`` module namespace that holds them (a module that did
``from .grid import to_modes`` holds its own reference, so each one is
patched).  Each call becomes a span ``(layer, start, end, parent)`` kept in
memory; :meth:`Tracer.dump` writes them out once the run is over and
:func:`layer_metrics` reduces a dump to the per-layer numbers.

The program itself is not changed: the wrappers sit in this file and are
only installed in the child process of a traced run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import zlib

import numpy as np

# span name -> [(module that defines it, attribute), ...]; every module
# namespace holding the same function object gets the wrapper
LAYERS = {
    "grid.transform": [("grid", "to_modes"), ("grid", "from_modes")],
    "dynamics.rhs": [("dynamics", "rhs_deterministic"),
                     ("dynamics", "rhs_truncated"),
                     ("dynamics", "_rhs_arrays")],
    "dynamics.step": [("dynamics", "step_rk4")],
    "dynamics.core": [("dynamics", "_rk4_arrays"),
                      ("dynamics", "_finish_step")],
    "dynamics.cutoff": [("dynamics", "cutoff_factors")],
    "incompressible.project": [("incompressible", "project_values")],
    "state.make_state": [("state", "make_state")],
    "stochastic.step": [("stochastic", "step_em"),
                        ("stochastic", "step_transformed")],
    "stochastic.noise": [("stochastic", "noise_eval"),
                         ("stochastic", "transform_forward"),
                         ("stochastic", "transform_backward")],
    "norms.field_norm": [("norms", "_field_norm")],
    "diagnostics": [("diagnostics", "energy"),
                    ("diagnostics", "generalized_enstrophy"),
                    ("diagnostics", "potential_vorticity"),
                    ("diagnostics", "circulation"),
                    ("diagnostics", "advect_loop"),
                    ("diagnostics", "bkm_bound")],
    "runio.append": [("runio", "append_diagnostics")],
    "runio.write": [("runio", "write_key_values"),
                    ("runio", "write_stopping_record")],
    "checkpoint.write": [("checkpoint", "write_checkpoint")],
    "config.parse": [("config", "parse_config")],
    "runner.run": [("runner", "run")],
    "experiments.run": [("experiments", "mc_hitting"),
                        ("experiments", "mc_global_regularity")],
    "experiments.path": [("experiments", "_path_rng")],
}
STEP_LAYERS = ("dynamics.step", "stochastic.step")


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "slicelab"
                                  or name.startswith("slicelab."))]


def patch_everywhere(module: str, attr: str, make):
    """Replace ``slicelab.<module>.<attr>`` by ``make(original)`` in every
    slicelab module namespace that holds it; returns an undo callable."""
    orig = getattr(sys.modules[f"slicelab.{module}"], attr)
    new = make(orig)
    holders = [m for m in _modules() if vars(m).get(attr) is orig]
    for m in holders:
        setattr(m, attr, new)

    def undo():
        for m in holders:
            if vars(m).get(attr) is new:
                setattr(m, attr, orig)
    return undo


def _fingerprint(components, spec):
    # content key of one W^{k,p} computation: equal arrays and spec give the
    # same key whichever objects carry them (crc32 + adler32, 64 bits)
    parts = [spec.k, spec.p]
    for f in components:
        buf = memoryview(np.ascontiguousarray(f.values)).cast("B")
        parts.append((f.basis, zlib.crc32(buf), zlib.adler32(buf)))
    return tuple(parts)


class Tracer:
    """Records nested spans for the functions listed in LAYERS and for
    ``OnlineMonitor.update`` (layer ``stochastic.monitor``)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.nested: list[bool] = []
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.norm_keys: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        clock = time.perf_counter
        stack, depth = self._stack, self._depth
        span_name, parent, start, end, nested = (
            self.span_name, self.parent, self.start, self.end, self.nested)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            nested.append(depth[nid] > 0)
            end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth[nid] -= 1
                stack.pop()
        return wrapper

    def install(self):
        for name, targets in LAYERS.items():
            for module, attr in targets:
                patch_everywhere(module, attr,
                                 functools.partial(self.wrap, name))
        patch_everywhere("norms", "_field_norm", self._keyed)
        # a method is patched on its class, which every instance shares
        cls = sys.modules["slicelab.stochastic"].OnlineMonitor
        cls.update = self.wrap("stochastic.monitor", cls.update)

    def _keyed(self, fn):
        # records the content key of each field norm, outside its span
        keys = self.norm_keys

        def keyed(components, spec):
            keys.append(_fingerprint(components, spec))
            return fn(components, spec)
        return keyed

    def dump(self, path: str):
        """Write ``path.npz`` (the spans) and ``path.json`` (names, norm
        keys)."""
        np.savez(path + ".npz",
                 span_name=np.asarray(self.span_name, dtype=np.int32),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 nested=np.asarray(self.nested, dtype=bool))
        with open(path + ".json", "w", encoding="ascii") as fh:
            json.dump({"names": self.names,
                       "norm_calls": len(self.norm_keys),
                       "norm_distinct": len(set(self.norm_keys))}, fh)


# ---------------------------------------------------------------------------
# reduction of one dump to per-layer metrics
# ---------------------------------------------------------------------------

def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _diverged(out_dir) -> int:
    # mc-global reports its diverged paths in summary.txt
    from workloads import read_summary
    path = os.path.join(out_dir, "summary.txt")
    if not os.path.exists(path):
        return 0
    return int(read_summary(path).get("n_diverged", 0))


def layer_metrics(dump_path: str, out_dir: str, import_s: float) -> dict:
    """Per-layer numbers of one traced CLI run (see README for meanings)."""
    with np.load(dump_path + ".npz") as z:
        sid, parent = z["span_name"], z["parent"]
        start, end, nested = z["start"], z["end"], z["nested"]
    with open(dump_path + ".json", encoding="ascii") as fh:
        meta = json.load(fh)
    names = meta["names"]
    dur = end - start
    n = len(sid)

    # self time: duration minus the time covered by direct children (spans
    # of one thread nest properly, so direct children never overlap)
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def ids(*layer_names):
        return [names.index(x) for x in layer_names if x in names]

    def mask(*layer_names, outer=True):
        m = np.isin(sid, ids(*layer_names))
        return m & ~nested if outer else m

    # which spans run inside an outermost step / rhs span; parents always
    # precede their children in recording order
    step_ids, rhs_ids = set(ids(*STEP_LAYERS)), set(ids("dynamics.rhs"))
    in_step = np.zeros(n, dtype=bool)
    in_rhs = np.zeros(n, dtype=bool)
    for i in range(n):
        p = parent[i]
        if p >= 0:
            in_step[i] = in_step[p] or sid[p] in step_ids
            in_rhs[i] = in_rhs[p] or sid[p] in rhs_ids

    def count(*layer_names):
        return int(mask(*layer_names).sum())

    def total(*layer_names):
        return float(dur[mask(*layer_names)].sum())

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    transforms = mask("grid.transform", outer=False)
    steps = count(*STEP_LAYERS)
    rhs = count("dynamics.rhs")
    paths = count("experiments.path")
    files = ("diagnostics.csv", "summary.txt", "stopping.txt")
    norm_calls = meta["norm_calls"]
    return {
        "grid.transforms_per_step": per(int((transforms & in_step).sum()),
                                        steps),
        "grid.transforms_per_rhs": per(int((transforms & in_rhs).sum()), rhs),
        "grid.transform_s": float(dur[transforms].sum()),
        "grid.transform_us": per(float(dur[transforms].sum()),
                                 int(transforms.sum()), 1e6),
        "dynamics.rhs_calls": rhs,
        "dynamics.rhs_ms": per(total("dynamics.rhs"), rhs, 1e3),
        "dynamics.step_ms": per(total("dynamics.core"), steps, 1e3),
        "dynamics.cutoff_calls": count("dynamics.cutoff"),
        "dynamics.cutoff_s": total("dynamics.cutoff"),
        "incompressible.project_calls": count("incompressible.project"),
        "incompressible.project_s": total("incompressible.project"),
        "state.make_state_calls": count("state.make_state"),
        "state.make_state_s": total("state.make_state"),
        "stochastic.step_ms": per(total("stochastic.step"),
                                  count("stochastic.step"), 1e3),
        "stochastic.noise_eval_s": total("stochastic.noise"),
        "stochastic.monitor_updates": count("stochastic.monitor"),
        "norms.norm_calls": norm_calls,
        "norms.norm_s": total("norms.field_norm"),
        "norms.distinct_ratio": per(meta["norm_distinct"], norm_calls),
        "diagnostics.calls": count("diagnostics"),
        "diagnostics.s": total("diagnostics"),
        "runio.rows": count("runio.append"),
        "runio.append_s": total("runio.append"),
        "runio.bytes": sum(_file_size(os.path.join(out_dir, f))
                           for f in files),
        "checkpoint.write_s": total("checkpoint.write"),
        "checkpoint.bytes": _file_size(os.path.join(out_dir,
                                                    "checkpoint.bin")),
        "cli.import_s": import_s,
        "config.parse_s": total("config.parse"),
        "experiments.paths": paths,
        "experiments.path_ms": per(total("experiments.run"), paths, 1e3),
        "experiments.diverged": _diverged(out_dir),
        "runner.self_s": float(self_time[mask("runner.run")].sum()),
    }
