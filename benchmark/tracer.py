"""In-memory span tracing of convexcount's layers, applied from outside.

The tracer replaces module attributes that the CLI and the annealer call
with wrappers that record one span per call: (id, name, start, end, parent,
request, work).  Nothing under ``src/`` changes.  Spans stay in a list until
the run ends; ``write`` then dumps them as JSON lines.

Parenting uses a per-thread stack.  Region-aggregation chunks run on pool
threads whose stack is empty, so a span opened there is parented to the
innermost open ``counting.aggregate_regions`` span.  ``work`` is an optional
integer computed from the call's arguments: rows times points for the gather
kernel, 4-subsets for the pentagon kernel, 1 per annealer recount.  Spans
are the only shared state and ``list.append`` is atomic, so pool threads
need no lock.
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

AGGREGATE = "counting.aggregate_regions"


class Tracer:
    """Collects spans; one instance per traced phase."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parents = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, work=None):
        """Return fn wrapped so that every call records a span `name`."""
        tracer = self
        pool_parent = name == AGGREGATE

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._pool_parents[-1] if tracer._pool_parents else None
            sid = next(tracer._ids)
            stack.append(sid)
            if pool_parent:
                tracer._pool_parents.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if pool_parent:
                    tracer._pool_parents.pop()
                amount = work(args) if work is not None else 0
                tracer.spans.append((sid, name, start, end, parent, tracer.request, amount))

        return traced

    def run(self, name, request, fn):
        """Call fn() as the top-level span of one operation."""
        self.request = request
        try:
            return self.wrap(name, fn)()
        finally:
            self.request = None

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, name, start, end, parent, request, work in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "work": work,
                }) + "\n")


def _rows_times_points(args):
    coords, ti = args[0], args[1]
    return len(ti) * len(coords)


def _quads(args):
    return len(args[-1])


def _one(args):
    return 1


def _targets(package):
    """(module, attribute, span names outermost first, work) for every layer
    boundary.  Bindings imported into cli/search are wrapped where they are
    looked up; the kernels are wrapped on their module, which every caller
    (including the thread-pool lambda) reads at call time."""
    cli, search, kernels, geometry = (
        package.cli, package.search, package._kernels, package.geometry)
    return [
        (cli, "load_placement", ("geometry.load_placement",), None),
        (geometry, "find_violation", ("geometry.find_violation",), None),
        (search, "find_violation", ("geometry.find_violation",), None),
        (cli, "aggregate_regions", (AGGREGATE,), None),
        (cli, "count4_from_regions", ("counting.count_from_regions",), None),
        (cli, "count5_from_regions", ("counting.count_from_regions",), None),
        (cli, "count4_naive", ("counting.naive",), None),
        (cli, "count5_naive", ("counting.naive",), None),
        (cli, "verify_identities", ("identities.verify_identities",), None),
        (cli, "stats", ("identities.stats",), None),
        (cli, "bound_report", ("identities.bound_report",), None),
        (search, "aggregate_regions", ("search.recount", AGGREGATE), _one),
        (search, "count5_from_regions",
         ("search.recount", "counting.count_from_regions"), None),
        (search, "generate", ("search.generate",), None),
        (kernels, "aggregate_chunk", ("kernels.aggregate_chunk",), _rows_times_points),
        (kernels, "pentagon_pair_delta", ("kernels.pentagon_pair_delta",), None),
        (kernels, "_pentagon_count", ("kernels.pentagon_count",), _quads),
        (kernels, "pair_sign_matrix", ("kernels.pair_sign_matrix",), None),
    ]


@contextmanager
def installed(tracer, package):
    """Wrap every layer boundary that exists; restore them on exit.

    A boundary missing from the package (a later version may drop it) is
    skipped, and its metrics read 0.
    """
    saved = []
    try:
        for module, attr, names, work in _targets(package):
            original = getattr(module, attr, None)
            if original is None:
                continue
            fn = original
            for i, name in enumerate(reversed(names)):
                # the work counter rides on the outermost span only
                fn = tracer.wrap(name, fn, work if i == len(names) - 1 else None)
            saved.append((module, attr, original))
            setattr(module, attr, fn)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_totals(spans):
    """Per span name: summed duration, span count, summed work, and self
    time (duration minus the union of its direct children's intervals,
    clipped to the parent)."""
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        if s[4] is not None and s[4] in by_id:
            children.setdefault(s[4], []).append(s)
    totals = {}
    for sid, name, start, end, parent, _request, work in spans:
        entry = totals.setdefault(name, {"s": 0.0, "calls": 0, "work": 0, "self_s": 0.0})
        entry["s"] += end - start
        entry["calls"] += 1
        entry["work"] += work
        kids = [(max(c[2], start), min(c[3], end)) for c in children.get(sid, ())]
        covered = _union_length([k for k in kids if k[1] > k[0]])
        entry["self_s"] += (end - start) - covered
    return totals
