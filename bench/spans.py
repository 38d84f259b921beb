"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end and the index of the span that was
open when it began.  Spans are kept in a list and written out once, at
the end of the run.  The recorder wraps functions of the ``pvar``
modules from outside: every module attribute that *is* a target
function is replaced for the duration of the traced operations, so a
call is recorded the way its calling module sees it.
"""

from contextlib import contextmanager
import functools
import importlib
import json
import sys
import time


class Tracer:
    """Spans of one traced run, plus counters tied to a parent span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []       # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = self.clock()

    def current(self):
        """Name of the innermost open span, or None."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def count_under(self, fn, counter, parent, amount=None):
        """Tally calls of fn made while span ``parent`` is innermost.

        Each call adds amount(result), or 1 when amount is None.
        """
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.current() == parent:
                step = 1 if amount is None else amount(result)
                self.counts[counter] = self.counts.get(counter, 0) + step
            return result
        return counted

    @contextmanager
    def installed(self, package, spans, counters=()):
        """Patch the package's modules while the block runs.

        spans is a list of (span name, module, attribute); counters a
        list of (counter, module, attribute, parent span, amount) for
        count_under.  Counters go on top of spans, so one function can
        be both.  A target that does not exist is skipped, and its layer
        then reads 0.
        """
        saved = []
        try:
            for name, modname, attr in spans:
                self._replace(package, modname, attr,
                              functools.partial(self.wrap, name=name), saved)
            for counter, modname, attr, parent, amount in counters:
                self._replace(package, modname, attr,
                              functools.partial(self.count_under, counter=counter,
                                                parent=parent, amount=amount),
                              saved)
            yield
        finally:
            for mod, key, value in reversed(saved):
                setattr(mod, key, value)

    @staticmethod
    def _replace(package, modname, attr, make, saved):
        """Point every reference to modname.attr in the package at make(fn)."""
        fn = getattr(importlib.import_module(modname), attr, None)
        if fn is None:
            return
        replacement = make(fn)
        for mod in _loaded(package):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    saved.append((mod, key, value))
                    setattr(mod, key, replacement)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _loaded(package):
    prefix = package + "."
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package or name.startswith(prefix))]


def self_times(spans):
    """Total self time per span name.

    A span's self time is its duration less the part of its interval
    that its children cover; children are clipped to the parent and
    overlaps between them are counted once.
    """
    children = {}
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    totals = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children.get(i, ())):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def call_counts(spans):
    out = {}
    for name, _, _, _ in spans:
        out[name] = out.get(name, 0) + 1
    return out
