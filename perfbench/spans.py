"""Run-time span tracing of the filtcoh layers, from outside the package.

``Tracer.install`` wraps the functions of each filtcoh module and a fixed
list of methods, and patches every module namespace that holds one of the
wrapped functions (``spectral.preimage`` is ``gf2.preimage`` imported), so
each call records one span: name, start, end and parent. Spans stay in a
flat in-memory array until the run writes them out. ``uninstall`` restores
every original.

A layer is a module; a span's self time is its duration minus that of its
child spans. ``Subspace.reduce``, ``contains`` and ``_lsb`` run far too often
to wrap cheaply, so their cost lands in their callers' self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter

LAYERS = ("gf2", "complexes", "cohomology", "spectral", "chain_maps", "maslov", "obstruction", "morse", "cli")

# Methods wrapped besides the module-level functions; each is work of the
# class's module that other layers call into.
METHODS = {
    "gf2": {
        "Subspace": ("__init__", "from_vectors", "add_vector", "intersection", "__add__", "contains_subspace"),
        "BitMatrix": ("from_entries", "from_columns", "transpose", "__matmul__", "rank", "kernel_basis"),
    },
    "complexes": {"FilteredComplex": ("delta_columns", "shift0_columns", "grade_members", "occupied_grades")},
    "maslov": {"LagrangianPath": ("from_samples", "check_frames", "check_sampling")},
    "obstruction": {
        "LaurentPoly": ("binomial_power", "__mul__"),
        "DecompositionResult": ("verify",),
        "AudinReport": ("as_dict", "table"),
    },
}

# Calls that ask the spectral layer for pages, with how many each asks for.
_PAGE_REQUESTS = {
    "spectral.page": lambda args, bound: args[1],
    "spectral.differential": lambda args, bound: args[1],
    "spectral.pages_tsv": lambda args, bound: args[1],
    "spectral._states_up_to": lambda args, bound: args[1],
    "spectral.k_stable": lambda args, bound: bound(args[0]),
    "spectral.einfty": lambda args, bound: bound(args[0]),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")  # per span: name id, start ns, end ns, parent span (-1 at a root)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stabilization_bound = self.modules["spectral"].stabilization_bound

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        after = self._after(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans) >> 2
            spans.extend((nid, clock(), 0, stack[-1] if stack else -1))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[4 * idx + 2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after(self, name: str):
        """Counter update run after a call returns, outside its span."""
        counts = self.counts
        if name == "gf2.Subspace.add_vector":
            def grew(args, result):
                counts["gf2.add_vector.grew"] += result.dim > args[0].dim
            return grew
        if name == "obstruction.decomposition_search":
            def nodes(args, result):
                counts["obstruction.decomposition_search.nodes"] += result.nodes
            return nodes
        if name in _PAGE_REQUESTS:
            pages, bound = _PAGE_REQUESTS[name], self._stabilization_bound
            spans, stack, names = self.spans, self._stack, self.names

            def requested(args, result):
                # count only requests entering the layer, not its own recursion
                if not stack or not names[spans[4 * stack[-1]]].startswith("spectral."):
                    counts["spectral.pages_requested"] += pages(args, bound)
            return requested
        return None

    def _holders(self):
        return [self.package, *self.modules.values()]

    def install(self) -> None:
        holders = self._holders()
        for layer, mod in self.modules.items():
            for attr, fn in list(vars(mod).items()):
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                imported = any(vars(h).get(a) is fn for h in holders if h is not mod for a in vars(h))
                if attr.startswith("_") and not imported:
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, name, value))
                            setattr(holder, name, traced)
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(self.modules[layer], cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    self._patches.append((cls, meth, raw))
                    setattr(cls, meth, new)

    def uninstall(self) -> None:
        while self._patches:
            holder, name, value = self._patches.pop()
            setattr(holder, name, value)

    def root(self, name: str):
        """Open a root span by hand (one per benchmark job); returns its closer."""
        nid, spans, clock = self._name_id(name), self.spans, time.perf_counter_ns
        idx = len(spans) >> 2
        spans.extend((nid, clock(), 0, -1))
        self._stack.append(idx)

        def close():
            spans[4 * idx + 2] = clock()
            self._stack.pop()

        return close

    def span_count(self) -> int:
        return len(self.spans) >> 2

    def per_name(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds), from the recorded spans."""
        s = self.spans
        n = len(s) >> 2
        self_ns = [s[4 * i + 2] - s[4 * i + 1] for i in range(n)]
        for i in range(n):
            parent = s[4 * i + 3]
            if parent >= 0:
                self_ns[parent] -= s[4 * i + 2] - s[4 * i + 1]
        calls: Counter = Counter()
        own: Counter = Counter()
        for i in range(n):
            name = self.names[s[4 * i]]
            calls[name] += 1
            own[name] += self_ns[i]
        return {name: (calls[name], own[name] / 1e9) for name in calls}

    def dump(self, path: str, **meta) -> None:
        """Write the spans as JSON: ``spans`` is flat, four numbers per span
        (index into ``names``, start ns, end ns, parent span or -1)."""
        header = {**meta, "names": self.names, "span_fields": ["name", "start_ns", "end_ns", "parent"]}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header)[:-1] + ', "spans": [')
            chunk = 1 << 16
            for i in range(0, len(self.spans), chunk):
                fh.write(("," if i else "") + ",".join(map(str, self.spans[i:i + chunk])))
            fh.write("]}\n")
