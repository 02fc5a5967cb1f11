"""Spans around the package's public functions, kept in memory.

A span is (name, start, end, parent index, counts).  ``Tracer.install``
swaps each traced function for a timing wrapper in *every* ``syncqubits``
namespace that holds it: ``cli`` and ``entanglement`` import several of
them by name, ``verify`` reaches them through their modules and ``evolve``
finds ``lindblad_rhs`` as a module global, so patching only the defining
module would lose calls.  ``uninstall`` puts the originals back, so traced
and untraced passes can alternate in one process.
"""

from __future__ import annotations

import inspect
import sys
import time


def _steps(fn):
    """Counter for the fixed-step integrators: round(t_final / dt) steps."""
    sig = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        return {"steps": int(round(bound["t_final"] / bound["dt"]))}

    return count


def _sweep_counts(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs, result):
        grid_n = sig.bind(*args, **kwargs).arguments["grid_n"]
        return {"points": grid_n * grid_n, "rows": len(result)}

    return count


def _checks_passed(fn):
    return lambda args, kwargs, result: {"passed": sum(bool(r.passed) for r in result)}


#: span name -> (defining module, attribute, counter factory or None)
TARGETS = {
    "linalg.hermitian_eigensystem": ("syncqubits.linalg", "hermitian_eigensystem", None),
    "linalg.null_space": ("syncqubits.linalg", "null_space", None),
    "linalg.principal_angles": ("syncqubits.linalg", "principal_angles", None),
    "classical.integrate": ("syncqubits.classical", "integrate", _steps),
    "quantum.evolve": ("syncqubits.quantum", "evolve", _steps),
    "quantum.lindblad_rhs": ("syncqubits.quantum", "lindblad_rhs", None),
    "quantum.stationary_state": ("syncqubits.quantum", "stationary_state", None),
    "quantum.project_to_stationary": ("syncqubits.quantum", "project_to_stationary", None),
    "entanglement.ppt_analyze": ("syncqubits.entanglement", "ppt_analyze", None),
    "entanglement.cubic_roots": ("syncqubits.entanglement", "cubic_roots", None),
    "entanglement.sweep": ("syncqubits.entanglement", "sweep", _sweep_counts),
    "verify.run_all": ("syncqubits.verify", "run_all", _checks_passed),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, name: str, fn, counter=None):
        """``fn`` recording one span per call; ``counter(args, kwargs, result)``
        runs after the span has ended and returns the span's counts."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if counter is not None:
                spans[index] = (name, start, end, parent, counter(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "syncqubits"]
        for name, (module, attr, factory) in TARGETS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original, factory(original) if factory else None)
            for ns in namespaces:
                for key in [k for k, v in vars(ns).items() if v is original]:
                    setattr(ns, key, wrapper)
                    self._patched.append((ns, key, original))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Spans as CSV rows: id, parent, name, start, end, counts."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s,counts\n")
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                extra = ";".join(f"{k}={v}" for k, v in counts.items()) if counts else ""
                fh.write(f"{i},{parent},{name},{start!r},{end!r},{extra}\n")


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and summed counts;
    per layer (the name's first part): self seconds.  Self time is a span's
    duration minus that of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    names: dict = {}
    layers: dict = {}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        entry = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        own = end - start - child[i]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own
    return {"names": names, "layers": layers}


def time_under(spans, ancestor: str, names: tuple) -> float:
    """Seconds spent in spans called ``names`` that run inside an ``ancestor`` span."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        if parent >= 0:
            total += end - start
    return total
