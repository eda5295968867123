"""In-memory span tracer that wraps atlas functions from the outside.

A wrapper is installed on the name a caller actually looks up (a module
global such as ``atlas.locsim.uniform01`` or a class attribute such as
``MultiSessionMap.copy``), records one span per call and optional counts
taken at the same boundary, and is removed again by ``restore``.  Nothing
here is imported by atlas itself; an untraced run never constructs a
Tracer, so it installs no wrapper.

Spans are kept in flat typed arrays (which the garbage collector never
has to walk, unlike millions of small lists) and written out only when
the benchmark ends; ``spans`` gives them as ``[name_id, start, end,
parent, request]`` rows.  ``parent`` is the index of the
enclosing span on the same thread (-1 for none); every span below the same
outermost non-harness span shares that span's index as its request id.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
from array import array
from itertools import count as _counter
from time import perf_counter
from typing import Any, Callable, Iterable

CountFn = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._cols = (array("l"), array("d"), array("d"), array("l"), array("l"))
        self.counters: dict[str, float] = {}
        self.last: dict[str, Any] = {}
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []
        self._request_ids = _counter(1)
        self._lock = threading.Lock()

    # -- spans --

    def _stack(self) -> list[tuple[int, int, bool]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, harness: bool = False) -> int:
        """Start a span; harness spans (a whole pass) never share a request id."""
        stack = self._stack()
        if stack:
            parent, parent_req, parent_harness = stack[-1]
        else:
            parent, parent_req, parent_harness = -1, 0, True
        request = next(self._request_ids) if parent_harness else parent_req
        nid, start, end, parents, requests = self._cols
        with self._lock:
            idx = len(nid)
            nid.append(self._name_id(name))
            end.append(0.0)
            parents.append(parent)
            requests.append(request)
            start.append(perf_counter())
        stack.append((idx, request, harness))
        return idx

    def close(self, idx: int) -> None:
        self._cols[2][idx] = perf_counter()
        stack = self._stack()
        if not stack or stack[-1][0] != idx:
            raise RuntimeError("spans closed out of order")
        stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    # -- wrappers --

    def wrap(self, owner: Any, attr: str, name: str | Callable[[tuple], str],
             count: CountFn | None = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper until restore()."""
        original = vars(owner)[attr]  # only names defined on owner itself
        span_name = name if callable(name) else (lambda args, _n=name: _n)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer.open(span_name(args))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def restore(self) -> list[str]:
        """Put every original back; return the names that are not the original object."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        wrong = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._installed
            if vars(owner)[attr] is not original
        ]
        self._installed.clear()
        return wrong

    @property
    def spans(self) -> list[list]:
        return [list(row) for row in zip(*self._cols)]

    # -- output --

    def to_doc(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counters": self.counters}

    def write(self, path, extra: dict | None = None) -> None:
        doc = self.to_doc() | {"extra": extra or {}}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def read_trace(path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def aggregate(names: list[str], spans: Iterable[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds ``s`` and ``self_s``.

    Self time is a span's duration minus the durations of its direct
    children.  Spans on one thread nest strictly, so children never
    overlap and their sum is the part of the parent they cover.
    """
    spans = list(spans)
    child = [0.0] * len(spans)
    for _nid, start, end, parent, _req in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (nid, start, end, _parent, _req) in enumerate(spans):
        row = out.setdefault(names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += (end - start) - child[i]
    return out


def merge(*aggs: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for agg in aggs:
        for name, row in agg.items():
            acc = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    return out
