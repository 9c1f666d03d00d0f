"""In-memory spans recorded around calls into the simulator's layers.

The benchmark never edits the program under test.  A traced run instead
replaces chosen functions, where their callers look them up, with thin
wrappers that open a span on entry and close it on exit.  Spans are kept in
flat arrays (name id, start, end, parent) so a 30-minute worksite run with
hundreds of thousands of calls stays small in memory; they are written out
once, at the end of the run.

A layer's *self time* is the duration of its spans minus the part of each
span that its child spans cover, so nested and re-entrant calls (a
``sight_line`` calling ``canopy_blockage``, a ``seal_batch`` falling back to
``seal``) are never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple


class SpanRecorder:
    """Spans and exact work counts of one traced phase."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.name_ids)

    def open(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name_ids)
        stack = self._stack
        self.name_ids.append(sid)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(index)
        # read last, so the bookkeeping above is not inside the span
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()

    def innermost(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        if not self._stack:
            return None
        return self.names[self.name_ids[self._stack[-1]]]

    def add(self, counter: str, n: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """``with recorder.span(name):`` around a block of the benchmark."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- analysis ----------------------------------------------------------
    def wall(self, name: str) -> float:
        """Total duration of every span called ``name``."""
        sid = self._ids.get(name)
        return sum(
            self.ends[i] - self.starts[i]
            for i, s in enumerate(self.name_ids) if s == sid
        )

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """``name -> (self seconds, calls)`` over every closed span."""
        n = len(self.name_ids)
        covered = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        totals: Dict[str, List[float]] = {}
        for i in range(n):
            name = self.names[self.name_ids[i]]
            entry = totals.setdefault(name, [0.0, 0])
            entry[0] += ends[i] - starts[i] - covered[i]
            entry[1] += 1
        return {name: (s, int(c)) for name, (s, c) in totals.items()}

    def write(self, path) -> None:
        """Dump every span as ``name,start_s,end_s,parent`` CSV lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            names = self.names
            for sid, start, end, parent in zip(
                self.name_ids, self.starts, self.ends, self.parents
            ):
                fh.write(f"{names[sid]},{start:.9f},{end:.9f},{parent}\n")


@dataclass(frozen=True)
class Probe:
    """One function replaced by a wrapper during a traced phase.

    ``target`` is ``"module:Owner.attr"`` or ``"module:attr"`` and names the
    place the *caller* looks the function up: the class attribute for a
    method, the importing module for a function imported by name.
    ``span`` opens a span per call (``None`` only counts).  ``delta`` is
    ``(counter, read)``: ``read(self)`` before and after the outermost call
    of this span name, the difference added to ``counter``.  ``tally`` is
    ``(counter, fn)``: ``fn(*args, **kwargs)`` added to ``counter`` per call.
    """

    target: str
    span: Optional[str] = None
    delta: Optional[Tuple[str, Callable]] = None
    tally: Optional[Tuple[str, Callable]] = None


def resolve(target: str) -> Tuple[object, str]:
    """The owner object and attribute name a probe target refers to."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


def make_wrapper(fn: Callable, probe: Probe, recorder: SpanRecorder) -> Callable:
    name = probe.span
    delta = probe.delta
    tally = probe.tally
    rec = recorder

    if name is None:
        counter, count = tally

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            rec.add(counter, count(*args, **kwargs))
            return fn(*args, **kwargs)

        return counted

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # a re-entrant call into the same layer is timed (self time keeps
        # it apart) but its work is already counted by the outer call
        outer = delta is not None and rec.innermost() != name
        if outer:
            before = delta[1](args[0])
        if tally is not None:
            rec.add(tally[0], tally[1](*args, **kwargs))
        index = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)
            if outer:
                rec.add(delta[0], delta[1](args[0]) - before)

    return wrapper


class Patched:
    """Context manager installing probes and restoring the originals.

    Originals are read from the owner's own ``__dict__`` so a restored
    class is byte-for-byte the object it was before, and they are put back
    in reverse order even when the traced phase raises.
    """

    def __init__(self, probes: Iterable[Probe], recorder: SpanRecorder) -> None:
        self.probes = list(probes)
        self.recorder = recorder
        self.saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Patched":
        try:
            for probe in self.probes:
                owner, attr = resolve(probe.target)
                original = vars(owner)[attr]
                self.saved.append((owner, attr, original))
                setattr(owner, attr, make_wrapper(original, probe, self.recorder))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)


def public_methods(target: str) -> List[str]:
    """``module:Class.method`` targets for every public plain method."""
    owner, attr = resolve(target)
    cls = getattr(owner, attr)
    return [
        f"{target}.{name}"
        for name, value in sorted(vars(cls).items())
        if not name.startswith("_") and callable(value)
        and not isinstance(value, (staticmethod, classmethod, type))
    ]
