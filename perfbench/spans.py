"""In-memory span recorder that wraps layer functions at run time.

A span is one call into a layer's public function: its name, start, end
and the span that was open when it began (its parent).  Spans are kept
in memory, grouped by the cell that issued them, in compact columns, and
written out once at the end of the traced pass.  A span's self time is
its duration minus the time its child spans cover; because spans come
from nested calls on one thread, children never overlap each other and
always lie inside their parent, so that is the duration minus the sum of
the children's durations.

``install`` replaces every listed function with a timing wrapper and
``restore`` puts the originals back; outside an open cell the wrappers
call straight through.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


class Spans:
    """The spans of one cell, as columns indexed by span number."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(self) -> None:
        self.name = array("i")  # index into SpanRecorder.names
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")  # span number of the parent, -1 for a root

    def __len__(self) -> int:
        return len(self.start)

    def add(self, name: int, start: float, end: float, parent: int) -> int:
        """Append a finished span (used by tests and by hand-made traces)."""
        self.name.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.start) - 1


def self_times(spans: Spans) -> array:
    """Per-span self time: duration minus the time its children cover."""
    own = array("d", (end - start for start, end in zip(spans.start, spans.end)))
    for idx, parent in enumerate(spans.parent):
        if parent >= 0:
            own[parent] -= spans.end[idx] - spans.start[idx]
    return own


def _resolve(target: str) -> Tuple[object, str, object]:
    """``module:attr``, ``module:Class.method`` or ``module:TABLE[key]``
    -> (owner, attr, raw); the owner of a table entry is the dict."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    path, _, key = path.partition("[")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if key:
        owner, attr = owner.__dict__[attr], key.rstrip("]")
        raw = owner[attr]
    else:
        raw = owner.__dict__[attr]
    if not callable(raw):
        raise TypeError(f"span target {target} is not a plain function")
    return owner, attr, raw


def _bind(holder: object, name: str, value: object) -> None:
    if isinstance(holder, dict):
        holder[name] = value
    else:
        setattr(holder, name, value)


class SpanRecorder:
    """Wraps layer functions and records their spans per cell."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: Span name table; a span's ``name`` column indexes it.
        self.names: List[str] = []
        #: Layer of each name, parallel to ``names``.
        self.layer_of: List[str] = []
        #: Finished cells in the order they closed.
        self.cells: Dict[str, Spans] = {}
        self._open: Optional[Spans] = None
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ----------------------------------------------------------- patching

    def name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def wrap(self, fn: Callable, name: int) -> Callable:
        """A wrapper that records one span per call while a cell is open."""
        clock = self._clock
        recorder = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            spans = recorder._open
            if spans is None:
                return fn(*args, **kwargs)
            stack = recorder._stack
            idx = len(spans.start)
            spans.name.append(name)
            spans.parent.append(stack[-1] if stack else -1)
            spans.end.append(0.0)
            stack.append(idx)
            spans.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                spans.end[idx] = clock()
                stack.pop()

        return spanned

    def install(self, layers: Mapping[str, Sequence[str]]) -> None:
        """Wrap every target of ``layers`` (layer -> ``module:path``)."""
        if self._patches:
            raise RuntimeError("span recorder already installed")
        try:
            for layer, targets in layers.items():
                for target in targets:
                    owner, attr, raw = _resolve(target)
                    wrapped = self.wrap(raw, self.name_id(target, layer))
                    for holder, name in self._holders(owner, attr, raw):
                        self._patches.append((holder, name, raw))
                        _bind(holder, name, wrapped)
        except BaseException:
            self.restore()
            raise

    @staticmethod
    def _holders(owner: object, attr: str, raw: object) -> Iterable[Tuple[object, str]]:
        """Every place the target is bound: its owner, plus any repro
        module that imported a module-level function by name."""
        yield owner, attr
        if isinstance(owner, (type, dict)):
            return
        for module_name, module in list(sys.modules.items()):
            if (module is owner or module is None
                    or not module_name.startswith("repro")):
                continue
            if module.__dict__.get(attr) is raw:
                yield module, attr

    def restore(self) -> None:
        """Put back every original function, newest patch first."""
        while self._patches:
            holder, name, raw = self._patches.pop()
            _bind(holder, name, raw)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -------------------------------------------------------------- cells

    def open_cell(self) -> None:
        """Start collecting spans for the next cell."""
        self._open = Spans()
        self._stack.clear()

    def close_cell(self, key: str) -> None:
        """File the open cell's spans under ``key`` and stop collecting."""
        if self._open is None:
            raise RuntimeError("no open cell")
        if self._stack:
            raise RuntimeError(f"cell {key} closed with {len(self._stack)} open spans")
        self.cells[key] = self._open
        self._open = None

    # ------------------------------------------------------------ reports

    def layer_totals(self) -> Dict[str, Tuple[float, int]]:
        """Layer -> (self seconds, calls) over every closed cell."""
        totals = {layer: [0.0, 0] for layer in dict.fromkeys(self.layer_of)}
        for spans in self.cells.values():
            for name, own in zip(spans.name, self_times(spans)):
                entry = totals[self.layer_of[name]]
                entry[0] += own
                entry[1] += 1
        return {layer: (own, calls) for layer, (own, calls) in totals.items()}

    def span_count(self) -> int:
        return sum(len(spans) for spans in self.cells.values())

    def write(self, stem: str) -> None:
        """Write every span to ``stem.bin`` with its index in ``stem.json``.

        The index holds the name table, each name's layer, and each cell's
        key and span count in file order.  The binary file holds, for each
        cell in that order, its four columns back to back: name ids
        (int32), start and end (float64 seconds of ``time.perf_counter``)
        and parent span numbers (int32, -1 for a root), in native byte
        order.
        """
        index = {
            "columns": ["name:int32", "start:float64", "end:float64", "parent:int32"],
            "byteorder": sys.byteorder,
            "names": self.names,
            "layers": self.layer_of,
            "cells": [{"cell": key, "spans": len(spans)}
                      for key, spans in self.cells.items()],
        }
        with open(stem + ".bin", "wb") as out:
            for spans in self.cells.values():
                for column in (spans.name, spans.start, spans.end, spans.parent):
                    column.tofile(out)
        with open(stem + ".json", "w", encoding="utf-8") as out:
            json.dump(index, out, indent=1)
