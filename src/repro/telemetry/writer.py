"""Streaming JSONL trace writer with a canonical, deterministic encoding.

One record per line, encoded with sorted keys and no whitespace, so the
bytes on disk are a pure function of the record stream: the same scenario
and seed write byte-identical files on every run (and ``allow_nan=False``
turns any non-finite value — which would also break equality checks — into
an immediate error rather than a silent ``NaN`` token).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator, List, Optional

from repro.telemetry.schema import validate_trace


def canonical_line(record: dict) -> str:
    """The canonical single-line JSON encoding of one record."""
    return json.dumps(
        record, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


class TraceWriter:
    """Append trace records to a JSONL file, one canonical line each.

    The file is opened lazily on the first write (so constructing a writer
    for a run that emits nothing leaves no empty file behind) and must be
    closed — directly or via the context-manager protocol — before the
    bytes are compared or parsed.
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self._fh = None
        self.lines_written = 0

    def write(self, record: dict) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w", encoding="utf-8", newline="\n")
        self._fh.write(canonical_line(record))
        self._fh.write("\n")
        self.lines_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path: os.PathLike) -> List[dict]:
    """All records of a trace file, in file order (ValueError if empty)."""
    records = list(iter_trace(path))
    if not records:
        raise ValueError(f"{path}: {validate_trace(records)[0]}")
    return records


def iter_trace(path: os.PathLike) -> Iterator[dict]:
    """Yield records from a JSONL trace file one at a time.

    A line that is not a JSON object (a torn tail, a corrupted byte)
    raises :class:`ValueError` naming the file and line.
    """
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not a JSON record ({exc})"
                ) from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
            yield record
