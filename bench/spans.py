"""In-memory spans around the calls the CLI makes into each package module.

The package itself is not edited: `Tracer.install` swaps wrappers in for the
module attributes the CLI looks up at call time and puts the originals back
on exit. A span records name, start, end, parent span, run id and thread;
counts ride on the span that did the work. Times are `time.perf_counter`,
the system-wide monotonic clock on Linux, so spans written by a traced child
process nest inside the wall time its parent measured.
"""

from __future__ import annotations

import importlib
import itertools
import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _load_counts(args, kwargs, game) -> dict:
    return {"model.decision_floats": game.N * game.n}


def _solve_counts(args, kwargs, res) -> dict:
    return {"equilibrium.iterations": res.iterations}


def _integrate_counts(args, kwargs, traj) -> dict:
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {
        "flow.steps": math.ceil(cfg.T / cfg.h),
        "flow.samples": len(traj),
        "flow.history_bytes": traj.x.nbytes,  # samples * N * n * 8
    }


def _certificate_counts(args, kwargs, report) -> dict:
    game = args[0] if args else kwargs["game"]
    side = game.n * game.N + game.n
    return {"lyapunov.dense_bytes": 2 * side * side * 8}  # two dense variants of M


def _csv_counts(args, kwargs, result) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"cli.csv_bytes": os.path.getsize(path)}


# (module, attribute, span name, counter). The CLI imports these names into
# aggseek.cli, so that is where they are swapped; vi_gap is looked up inside
# aggseek.equilibrium by solve_equilibrium and becomes its child span.
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("aggseek.cli", "load_scenario", "model.load_scenario", _load_counts),
    ("aggseek.cli", "solve_equilibrium", "equilibrium.solve_equilibrium", _solve_counts),
    ("aggseek.equilibrium", "vi_gap", "equilibrium.vi_gap", None),
    ("aggseek.cli", "compare_conditions", "lyapunov.compare_conditions", _certificate_counts),
    ("aggseek.cli", "integrate", "flow.integrate", _integrate_counts),
    ("aggseek.cli", "decay_report", "lyapunov.decay_report", None),
    ("aggseek.cli", "write_csv", "cli.write_csv", _csv_counts),
    ("aggseek.cli", "write_svg", "cli.write_svg", None),
)
ROOT = "cli.main"  # the whole invocation, timed by the parent process


class Tracer:
    """Collects the spans of one traced process; write them out with `records`."""

    def __init__(self, run_id: str = "") -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self.run_id = run_id

    @contextmanager
    def span(self, name: str):
        """Time the body; the parent is the enclosing span of this thread.
        Spans with no parent (main thread or pool thread) are top level."""
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        record = Span(sid, name, 0.0, 0.0, stack[-1] if stack else None, self.run_id,
                      threading.get_ident())
        stack.append(sid)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def _wrap(self, fn: Callable, name: str, counter: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                record.counts.update(counter(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def install(self):
        """Swap the traced wrappers in for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, counter in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, []), s.start, s.end) for s in spans}
