"""Span tracing of opnlab's layers from outside the package.

``instrument`` wraps every public function each layer module defines, and
rebinds the wrapper in every opnlab namespace that holds the function (so
``screener.sigma`` and ``bound_tables.certified_compare`` are traced too,
not just the defining module).  Spans (name, start, end, parent) are kept in
memory; ``summarize`` turns them into per-function call counts and self
times, where self time is a span's duration minus its child spans'.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time

LAYERS = ("primes", "abundancy", "screener", "constants", "bound_tables", "exact_arith", "cli")
ROOT = "op"  # the runner's span around one whole operation


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent index]
        self.endpoint_bits_max = 0
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, on_return=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def note_endpoints(self, result) -> None:
        """Track the bit length of the largest enclosure endpoint returned."""
        for item in result if isinstance(result, tuple) else (result,):
            interval = getattr(item, "enclosure", item)
            if not (hasattr(interval, "lo") and hasattr(interval, "hi")):
                continue
            for q in (interval.lo, interval.hi):
                bits = max(q.numerator.bit_length(), q.denominator.bit_length())
                self.endpoint_bits_max = max(self.endpoint_bits_max, bits)

    def summarize(self) -> dict:
        """Per span name: call count and self time in ns; plus total root time."""
        child = [0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        for (nid, start, end, _), inner in zip(self.spans, child):
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (end - start - inner)
        root = self.names.index(ROOT) if ROOT in self.names else -1
        root_ns = sum(end - start for nid, start, end, parent in self.spans if nid == root)
        return {"calls": calls, "self_ns": self_ns, "root_ns": root_ns}

    def write(self, path) -> None:
        """All spans as gzip'd tab-separated lines: index, name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (nid, start, end, parent) in enumerate(self.spans):
                out.write(f"{i}\t{self.names[nid]}\t{start}\t{end}\t{parent}\n")


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public functions wherever opnlab binds them."""
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"opnlab.{layer}")
        hook = tracer.note_endpoints if layer == "constants" else None
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == module.__name__:
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj, hook)
    namespaces = [
        module for name, module in sys.modules.items() if name.split(".")[0] == "opnlab"
    ]
    for namespace in namespaces:
        for attr, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(namespace, attr, wrapped[obj])
