"""Spans around calls into the library's layers, recorded from outside.

``install`` replaces every module binding of each public function listed in
``layers.json`` (modules bind them with ``from .x import f``, so wrapping
only the defining module would miss calls from ``verify``, ``action`` and
``classify``) and the ``__post_init__`` hook of each listed class.  A span
is (name, start, end, parent span, raised); spans stay in memory until the
run ends.  Self time is a span's duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS: dict = json.loads((Path(__file__).with_name("layers.json")).read_text())

#: name of the benchmark's own root span around one workload operation
OP = "op"


def function_labels() -> list[str]:
    """``<module>.<name>`` for every traced function, in layers.json order."""
    return [f"{layer}.{fn}" for layer, spec in LAYERS.items() for fn in spec["functions"]]


class Tracer:
    """In-memory span store with a stack for the parent of the next span."""

    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack = [-1]

    def _name_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, label: str, fn):
        nid = self._name_id(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.raised.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()

        return traced

    def add(self, spans: dict) -> None:
        """Append spans recorded by another process under the open span."""
        offset = len(self.start)
        top = self._stack[-1]
        remap = [self._name_id(label) for label in spans["names"]]
        for nid, par, s, e, r in zip(
            spans["name"], spans["parent"], spans["start"], spans["end"], spans["raised"]
        ):
            self.name.append(remap[nid])
            self.parent.append(top if par < 0 else offset + par)
            self.start.append(s)
            self.end.append(e)
            self.raised.append(r)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "raised": self.raised.tolist(),
        }


def install(tracer: Tracer, package: str = "filiform_ce"):
    """Wrap every traced function and constructor; returns an undo callable."""
    homes = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    undo = []
    for layer, spec in LAYERS.items():
        home = homes[layer]
        for fn_name in spec["functions"]:
            label = f"{layer}.{fn_name}"
            obj = getattr(home, fn_name)
            if isinstance(obj, type):
                undo.append((obj, "__post_init__", obj.__post_init__))
                obj.__post_init__ = tracer.wrap(label, obj.__post_init__)
                continue
            traced = tracer.wrap(label, obj)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is obj:
                        undo.append((m, attr, value))
                        setattr(m, attr, traced)

    def restore():
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)

    return restore


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the part of it its children cover.

    Children are clipped to their parent's interval; children of one span
    never overlap each other, because one client runs one call at a time.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    has = parent >= 0
    par = parent[has]
    covered = np.clip(
        np.minimum(end[has], end[par]) - np.maximum(start[has], start[par]), 0.0, None
    )
    return (end - start) - np.bincount(par, weights=covered, minlength=len(start))


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation calls, self time and raised calls of each traced function,
    plus each layer's total self time."""
    names = np.asarray(tracer.name, dtype=np.int64)
    raised = np.asarray(tracer.raised, dtype=bool)
    selft = self_times(tracer.start, tracer.end, tracer.parent)
    ids = {label: i for i, label in enumerate(tracer.names)}
    per = max(ops, 1)
    out: dict[str, tuple[float, str]] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for label in function_labels():
        mask = names == ids.get(label, -1)
        s = float(selft[mask].sum())
        layer_self[label.split(".")[0]] += s
        out[f"{label}.calls"] = (int(mask.sum()) / per, "1/op")
        out[f"{label}.self_s"] = (s / per, "s/op")
        out[f"{label}.raised"] = (int((mask & raised).sum()) / per, "1/op")
    for layer, s in layer_self.items():
        out[f"{layer}.self_s"] = (s / per, "s/op")
    return out
