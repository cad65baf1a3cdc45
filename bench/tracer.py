"""Span tracing of the spheriq layers, installed from outside the library.

`Tracer.install()` wraps the public functions and methods of every layer
module (plus each class's `__init__`) and rebinds the wrappers in every
`spheriq.*` namespace that holds the original, because the modules import
names from each other directly.  `Tracer.uninstall()` restores the originals.

Each wrapped call opens a span (name, layer, parent, op id, start, end).
Per-point helpers, listed in LEAVES or methods of the momentum-profile
classes, are not spans: each call adds to a count, a summed time and a
point count kept per parent span, and everything such a leaf calls is
folded into it.  A layer's self time is the time of its spans and leaves
minus the time covered by their children.
"""

from __future__ import annotations

import argparse
import enum
import gzip
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("sphere", "conics", "momentum", "surfaces", "weingarten", "projection", "cli")

LEAVES = {
    "conics.locus_residual",
    "conics.canonical_residual",
    "conics.FocalConic.foci",
    "sphere.cartesian_to_geo",
    "sphere.geodesic_distance",
    "sphere.check_unit",
    "sphere.geo_to_cartesian",
    "sphere.GeoCoord.__init__",
    "momentum.ReconstructionMap.z_of_u",
}

# spans whose calls also count the points they evaluate
COUNT_POINTS = {"momentum.ReconstructionMap.point"}


def npoints(args) -> int:
    """Points one call evaluates: leading size of its first array argument."""
    if not args:
        return 1
    x = args[0]
    if hasattr(x, "lam") and not isinstance(x, np.ndarray):
        x = x.lam
    shape = np.shape(x)
    if len(shape) >= 2:
        return int(np.prod(shape[:-1]))
    if len(shape) == 1 and shape[0] != 3:
        return int(shape[0])
    return 1


def _targets():
    """(owner, attribute, name, layer, is_leaf, wrap_kind) for every traced callable."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"spheriq.{layer}")
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                out.append((mod, attr, name, layer, name in LEAVES, "function"))
            elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                profile = obj.__name__.endswith("Momentum") or obj.__name__ == "MomentumProfile"
                for mattr, m in vars(obj).items():
                    if mattr.startswith("_") and mattr != "__init__":
                        continue
                    name = f"{layer}.{obj.__name__}.{mattr}"
                    leaf = profile or name in LEAVES
                    if inspect.isfunction(m):
                        out.append((obj, mattr, name, layer, leaf, "method"))
                    elif isinstance(m, staticmethod):
                        out.append((obj, mattr, name, layer, leaf, "static"))
    # argument parsing belongs to the cli layer's cost
    out.append((argparse.ArgumentParser, "parse_args", "cli.parse_args", "cli", False, "method"))
    return out


class Tracer:
    """In-memory span store plus per-name aggregates for one traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._index: dict[str, int] = {}
        # span columns: op, id, parent, name, start, end, self, error flag
        self.sp_op = array("i")
        self.sp_parent = array("i")
        self.sp_name = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_self = array("d")
        self.sp_err = array("b")
        # leaf aggregates per (span id, leaf name): [count, time, points]
        self.leaves: dict[tuple[int, int], list] = {}
        self.leaf_errors: dict[int, int] = {}
        self.span_points: dict[int, int] = {}
        self.op_id = -1
        self._stack: list[list] = []  # open spans: [id, time covered by children]
        self._in_leaf = False
        self._last_exc = None
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def _idx(self, name: str, layer: str) -> int:
        i = self._index.get(name)
        if i is None:
            i = self._index[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return i

    def install(self) -> None:
        wrappers = {}
        for owner, attr, name, layer, leaf, kind in _targets():
            raw = vars(owner)[attr]
            fn = raw.__func__ if kind == "static" else raw
            skip = 1 if kind == "method" else 0  # points follow `self`
            wrapped = (self._leaf if leaf else self._span)(fn, self._idx(name, layer), skip)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(wrapped) if kind == "static" else wrapped)
            if kind == "function":
                wrappers[id(fn)] = (fn, wrapped)
        # modules bind each other's functions directly: rebind those names too
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("spheriq") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj and mod.__name__ != obj.__module__:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, idx, skip):
        tracer = self
        count_points = self.names[idx] in COUNT_POINTS

        def span(*args, **kwargs):
            if tracer._in_leaf or tracer.op_id < 0:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = len(tracer.sp_op)
            tracer.sp_op.append(tracer.op_id)
            tracer.sp_parent.append(stack[-1][0] if stack else -1)
            tracer.sp_name.append(idx)
            tracer.sp_start.append(0.0)
            tracer.sp_end.append(0.0)
            tracer.sp_self.append(0.0)
            tracer.sp_err.append(0)
            if count_points:
                tracer.span_points[sid] = npoints(args[skip:])
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not tracer._last_exc:
                    tracer.sp_err[sid] = 1
                    tracer._last_exc = exc
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.sp_start[sid] = t0
                tracer.sp_end[sid] = t1
                tracer.sp_self[sid] = dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        span.__wrapped__ = fn
        return span

    def _leaf(self, fn, idx, skip):
        tracer = self

        def leaf(*args, **kwargs):
            if tracer._in_leaf or tracer.op_id < 0 or not tracer._stack:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not tracer._last_exc:
                    tracer.leaf_errors[idx] = tracer.leaf_errors.get(idx, 0) + 1
                    tracer._last_exc = exc
                raise
            finally:
                dur = perf_counter() - t0
                tracer._in_leaf = False
                parent = tracer._stack[-1]
                parent[1] += dur
                key = (parent[0], idx)
                agg = tracer.leaves.get(key)
                if agg is None:
                    agg = tracer.leaves[key] = [0, 0.0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += npoints(args[skip:])

        leaf.__wrapped__ = fn
        return leaf

    # -- reading -----------------------------------------------------------

    def op_self_sums(self) -> dict[int, float]:
        """Summed self time of every span and leaf of each op, in seconds."""
        sums: dict[int, float] = {}
        for op, s in zip(self.sp_op, self.sp_self):
            sums[op] = sums.get(op, 0.0) + s
        for (sid, _), (_, t, _) in self.leaves.items():
            op = self.sp_op[sid]
            sums[op] = sums.get(op, 0.0) + t
        return sums

    def totals(self) -> dict[str, dict]:
        """Per traced name: calls, inclusive and self seconds, errors, points."""
        out = {n: {"calls": 0, "time": 0.0, "self": 0.0, "errors": 0, "points": 0}
               for n in self.names}
        for i, idx in enumerate(self.sp_name):
            t = out[self.names[idx]]
            t["calls"] += 1
            t["time"] += self.sp_end[i] - self.sp_start[i]
            t["self"] += self.sp_self[i]
            t["errors"] += self.sp_err[i]
        for (_, idx), (count, dur, pts) in self.leaves.items():
            t = out[self.names[idx]]
            t["calls"] += count
            t["time"] += dur
            t["self"] += dur
            t["points"] += pts
        for idx, n in self.leaf_errors.items():
            out[self.names[idx]]["errors"] += n
        for sid, pts in self.span_points.items():
            out[self.names[self.sp_name[sid]]]["points"] += pts
        return out

    def write(self, path) -> None:
        """Spans and leaf aggregates as gzip'd tab-separated rows, times in us."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("kind\top\tid\tparent\tname\tstart_us\tend_us\tself_us\terror\n")
            base = self.sp_start[0] if len(self.sp_start) else 0.0
            for i in range(len(self.sp_op)):
                fh.write(
                    f"span\t{self.sp_op[i]}\t{i}\t{self.sp_parent[i]}\t"
                    f"{self.names[self.sp_name[i]]}\t{(self.sp_start[i] - base) * 1e6:.1f}\t"
                    f"{(self.sp_end[i] - base) * 1e6:.1f}\t{self.sp_self[i] * 1e6:.1f}\t"
                    f"{self.sp_err[i]}\n"
                )
            fh.write("kind\top\tparent\tname\tcount\ttime_us\tpoints\n")
            for (sid, idx), (count, dur, pts) in self.leaves.items():
                fh.write(
                    f"leaf\t{self.sp_op[sid]}\t{sid}\t{self.names[idx]}\t{count}\t"
                    f"{dur * 1e6:.1f}\t{pts}\n"
                )
