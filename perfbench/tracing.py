"""Outside-in layer spans for the benchmark's traced run.

Every span is recorded by wrapping a public call of one ``repro`` layer,
from the benchmark's side: nothing under ``src/`` is edited.  Calls made
inside ``parallel_solve`` are reached by rebinding, for the duration of
the traced run only, the names that ``repro.solvers.driver`` and
``repro.decomp.decomposition`` imported, and the methods of the classes
the Krylov loop calls into.  ``instrument`` restores every binding when
it exits.

A span's layer is the part of its name before the first dot.  A layer's
self time is its spans' durations minus the time their child spans
cover, so the self times of all layers plus the root span's own self
time add up to the root span's duration.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import repro.decomp.decomposition as decomposition
import repro.solvers.driver as driver
from repro.ilu.apply import LevelScheduledApplier
from repro.solvers import ILUPreconditioner
from repro.sparse import CSRMatrix

ROOT = "run"

# Layers a span name may start with; the benchmark reports each one's
# self time as ``self.<layer>_s``.
LAYERS = ("partition", "decomp", "ilu", "solvers", "kernels", "sparse", "yardstick")

# (span name, owner, attribute): the public calls rebound while tracing.
# The driver-module names are the ones ``parallel_solve`` calls; the
# benchmark's own set-up and solves call the same bound names.
PATCHES: tuple[tuple[str, Any, str], ...] = (
    ("solvers.parallel_solve", driver, "parallel_solve"),
    ("decomp.decompose", driver, "decompose"),
    ("partition.kway", decomposition, "partition_matrix_kway"),
    ("ilu.factor", driver, "parallel_ilut_star"),
    ("solvers.matvec_probe", driver, "parallel_matvec"),
    ("solvers.trisolve_probe", driver, "parallel_triangular_solve"),
    ("solvers.gmres", driver, "gmres"),
    ("solvers.precond_apply", ILUPreconditioner, "apply"),
    ("kernels.apply_build", LevelScheduledApplier, "__init__"),
    ("kernels.apply", LevelScheduledApplier, "apply"),
    ("sparse.matvec", CSRMatrix, "matvec"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Spans kept in memory, recorded on the thread that made the tracer.

    Calls that transport worker threads make into a rebound function run
    untraced, so spans nest strictly and self times never overlap.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._owner = threading.get_ident()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if threading.get_ident() != self._owner:
            yield
            return
        rec = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                   time.perf_counter())
        self.spans.append(rec)
        self._stack.append(rec.id)
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        with self.span(name):
            return fn(*args, **kwargs)

    # -- analysis --------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def median(self, name: str) -> float:
        return statistics.median(s.duration for s in self.named(name))

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def layer_self_times(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for s, own in zip(self.spans, self.self_times()):
            if s.name != ROOT:
                out[s.layer] += own
        return out

    # -- export ----------------------------------------------------------

    def to_json(self) -> list[dict[str, Any]]:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end}
            for s in self.spans
        ]

    def to_chrome(self) -> dict[str, Any]:
        """Chrome trace-event JSON (complete events), for Perfetto or chrome://tracing."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": s.id, "parent": s.parent},
            }
            for s in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Rebind every call in :data:`PATCHES` to a span-recording wrapper."""
    saved = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in PATCHES]
    try:
        for name, owner, attr in PATCHES:
            setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr]))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
