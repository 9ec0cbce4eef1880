"""Outside-in tracer for the mapping benchmark.

Spans and counters are recorded around the public entry point of each
mapper layer by replacing that entry point, for the duration of a traced
run, at the attribute its caller actually resolves.  Functions the mapper
imports by name (``allocate_registers``, ``effective_minimum_ii``) are
patched in ``repro.core.mapper``'s namespace; methods are patched on their
class.  Nothing under ``src/`` is edited, and :meth:`Tracer.uninstall`
puts every original back.

Spans stay in memory (``[name, start, end, parent, request]`` lists) and are
written out once, by :meth:`Tracer.write`, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Marker attribute set on every wrapper, so a clean run can prove that no
#: wrapper is left installed.
WRAPPED = "__perfbench_wrapped__"


def _on_compile(tracer, dfg, _seconds) -> None:
    tracer.counters["frontend.nodes"] += dfg.num_nodes


def _on_mii(tracer, mii, _seconds) -> None:
    tracer.counters["cgra.mii_sum"] += mii


def _on_encode(tracer, encoding, _seconds) -> None:
    tracer.counters["core.encoder.vars"] += encoding.stats.num_variables
    tracer.counters["core.encoder.clauses"] += encoding.stats.num_clauses


def _on_solve(tracer, result, seconds) -> None:
    tracer.counters["sat.conflicts"] += result.stats.conflicts
    tracer.counters["sat.propagations"] += result.stats.propagations
    tracer.counters[f"sat.{result.status.lower()}_s"] += seconds


def _on_regalloc(tracer, allocation, _seconds) -> None:
    tracer.counters["core.regalloc.ok"] += bool(allocation.success)


def _targets():
    """``(owner, attribute, span name, observer)`` for every traced layer.

    The owner is the object the caller looks the name up on; patching the
    defining module instead would miss ``from ... import`` call sites.
    """
    from repro import frontend
    from repro.core import mapper
    from repro.core.encoder import MappingEncoder
    from repro.core.mapping import Mapping
    from repro.core.mobility import KernelMobilitySchedule, MobilitySchedule
    from repro.sat.backend import CDCLBackend

    return [
        (frontend, "compile_loop", "frontend.compile", _on_compile),
        (mapper, "effective_minimum_ii", "cgra.mii", _on_mii),
        (MobilitySchedule, "build", "core.mobility.build", None),
        (KernelMobilitySchedule, "build", "core.mobility.build", None),
        (MappingEncoder, "encode", "core.encoder.encode", _on_encode),
        (CDCLBackend, "solve", "sat.solve", _on_solve),
        (mapper, "allocate_registers", "core.regalloc", _on_regalloc),
        (Mapping, "violations", "core.mapping.violations", None),
    ]


def installed_wrappers() -> list[str]:
    """Names of traced attributes that currently hold a wrapper."""
    found = []
    for owner, attr, _name, _observe in _targets():
        raw = inspect.getattr_static(owner, attr)
        func = getattr(raw, "__func__", raw)
        if getattr(func, WRAPPED, False):
            found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found


class Tracer:
    """In-memory spans and counters, plus the patching that feeds them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Identifier shared by the spans of one mapping problem.
        self.request: str = ""
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._paused = False

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """Record ``name`` around the body, nested under the open span.

        Yields the span's ``[name, start, end, parent, request]`` record
        (``None`` while paused); ``end`` is filled in when the body exits.
        """
        if self._paused:
            yield None
            return
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, self.request]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Run the body without recording (the benchmark's own checks)."""
        previous, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = previous

    def calls(self) -> Counter:
        """Recorded spans per name."""
        return Counter(span[0] for span in self.spans)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _request in self.spans:
            totals[name] += end - start
        for _name, start, end, parent, _request in self.spans:
            if parent >= 0:
                totals[self.spans[parent][0]] -= end - start
        return totals

    # -- patching ------------------------------------------------------
    def _wrap(self, func, name, observe):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return func(*args, **kwargs)
            with tracer.span(name) as record:
                result = func(*args, **kwargs)
            if observe is not None:
                observe(tracer, result, record[2] - record[1])
            return result

        setattr(wrapper, WRAPPED, True)
        return wrapper

    def install(self) -> None:
        """Replace every traced entry point with a recording wrapper."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, observe in _targets():
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name, observe))
            else:
                patched = self._wrap(raw, name, observe)
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Put every original entry point back."""
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    # -- output --------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write the recorded spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as sink:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                sink.write(json.dumps({
                    "id": index, "parent": parent, "request": request,
                    "name": name, "start": start, "end": end,
                }) + "\n")
