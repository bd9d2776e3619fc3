"""Spans around the public functions of ruinwalk, installed from outside.

``Tracer.install`` wraps every public function a ruinwalk module defines
and rebinds the wrapper in every ruinwalk namespace that holds the
original (``survival_ultimate`` lives in ``ultimate``, ``cli`` and
``reference_tables``; ``build_sequences`` in ``ultimate`` and
``conjectures``), so calls between modules and within one module are
both seen. Spans stay in memory with their parent links and are written
out when the run ends. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import time
import tracemalloc

# Modules whose public functions are layer boundaries, in import order.
MODULES = ("pmf", "model", "finite", "ultimate", "conjectures", "reference_tables", "cli")


def _probe(name, result) -> dict:
    """Work counts read off a call's result."""
    if name == "ultimate.build_sequences":
        seqs = [s for s in (result.coeff_phi0, result.coeff_phi1, result.coeff_phi2,
                            result.coeff_margin) if s is not None]
        return {"bits": result.precision_bits, "terms": sum(len(s) for s in seqs)}
    if name == "ultimate.solve_initials":
        return {"bits": result.precision_bits, "n_solve": result.n_solve}
    if name == "finite.survival_finite":
        return {"cells": int(result.values.size)}
    return {}


class Tracer:
    """Records spans ``[id, parent, name, op, start, end, info]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        # The Monte Carlo layer also reports its trial count and the peak
        # of what it allocates, traced only while it runs.
        mc_sig = inspect.signature(fn) if name == "finite.mc_estimate" else None

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else None, name, self.op, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            if mc_sig:
                tracemalloc.start()
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
                if mc_sig:
                    alloc_peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            info = _probe(name, result)
            if mc_sig:
                info["alloc_peak_bytes"] = alloc_peak
                bound = mc_sig.bind(*args, **kwargs).arguments
                info["trial_periods"] = int(bound["trials"]) * int(bound["t"])
            span[6] = info or None
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap the package's public functions everywhere they are bound."""
        modules = {m: getattr(package, m) for m in MODULES}
        originals = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    originals[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for ns in (package, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    setattr(ns, attr, wrapper)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[5] - s[4] - child[s[0]] for s in self.spans]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, op, start, end, info in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "op": op,
                                     "start": start, "end": end, "info": info}) + "\n")


def wrapper_cost(samples: int = 20000) -> float:
    """Seconds a span adds to one call, measured on a no-op function."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrap("bench.noop", noop)
    best = []
    for fn in (noop, traced):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(samples):
            fn()
        best.append((time.perf_counter() - t0) / samples)
    return max(0.0, best[1] - best[0])
