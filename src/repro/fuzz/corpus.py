"""On-disk corpus for the coverage-guided fuzzer.

A corpus directory is the fuzzer's entire state, laid out so that every
file is a pure function of the master seed and the iteration count:

``corpus.jsonl``
    One canonical-JSON line per coverage-increasing spec, in discovery
    order: ``{"schema", "key", "origin", "new_signatures", "spec"}``.
``coverage.json``
    The persisted :class:`~repro.fuzz.coverage.CoverageMap`.
``state.json``
    Resume bookkeeping: master seed, iterations done, failure counters
    and the accumulated risk-heatmap cells.
``failures/<origin>-<key>.json``
    One shrink report per failing spec
    (see :func:`repro.fuzz.shrink.shrink_report`).
``report.json``
    The risk-heatmap report over the explored space, rewritten at the
    end of every session (see :func:`repro.telemetry.analysis.fuzz_report`).

All JSON is written with sorted keys and a trailing newline, so two
sessions with the same seed and budget produce byte-identical trees —
the property the CI smoke job and the acceptance check both diff.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.fuzz.coverage import CoverageMap
from repro.runner.spec import RunSpec
from repro.telemetry.writer import canonical_line, iter_trace

STATE_SCHEMA = 1


def _dump(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def _load_object(path: Path) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not a JSON object")
    return data


class Corpus:
    """Load, append to, and persist one corpus directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.entries: List[dict] = []
        self.coverage = CoverageMap()
        self.state: dict = {
            "schema": STATE_SCHEMA,
            "seed": None,
            "iterations_done": 0,
            "failures": 0,
            "unshrinkable": 0,
            "seed_signatures": 0,
            "heatmap": {},
        }

    # -- paths --------------------------------------------------------------
    @property
    def corpus_path(self) -> Path:
        return self.root / "corpus.jsonl"

    @property
    def coverage_path(self) -> Path:
        return self.root / "coverage.json"

    @property
    def state_path(self) -> Path:
        return self.root / "state.json"

    @property
    def failures_dir(self) -> Path:
        return self.root / "failures"

    @property
    def report_path(self) -> Path:
        return self.root / "report.json"

    # -- lifecycle ----------------------------------------------------------
    def exists(self) -> bool:
        return self.state_path.exists()

    def load(self) -> "Corpus":
        """Load a previously persisted corpus for ``--resume``.

        A damaged file raises :class:`ValueError` naming it (``FILE: …``,
        or ``FILE:LINE: …`` for a bad ``corpus.jsonl`` line).
        """
        state = _load_object(self.state_path)
        if state.get("schema") != STATE_SCHEMA:
            raise ValueError(
                f"unsupported corpus state schema in {self.state_path}: "
                f"{state.get('schema')!r}"
            )
        for key, default in self.state.items():  # fresh defaults give the types
            if key != "seed" and type(state.get(key)) is not type(default):
                raise ValueError(
                    f"{self.state_path}: {key!r} must be {type(default).__name__}"
                )
        self.state = state
        if self.coverage_path.exists():
            data = _load_object(self.coverage_path)
            try:
                self.coverage = CoverageMap.from_dict(data)
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{self.coverage_path}: not a coverage map ({exc})"
                ) from None
        self.entries = (
            list(iter_trace(self.corpus_path)) if self.corpus_path.exists() else []
        )
        for number, entry in enumerate(self.entries, 1):
            try:
                RunSpec.from_dict(entry["spec"])
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{self.corpus_path}: entry {number}: not a corpus "
                    f"entry ({type(exc).__name__}: {exc})"
                ) from None
        return self

    def save(self) -> None:
        """Persist coverage and state (corpus/failures are append-on-add)."""
        self.root.mkdir(parents=True, exist_ok=True)
        _dump(self.coverage_path, self.coverage.to_dict())
        _dump(self.state_path, self.state)

    # -- content ------------------------------------------------------------
    def specs(self) -> List[RunSpec]:
        """The corpus entries rehydrated as run specs, discovery order."""
        return [RunSpec.from_dict(entry["spec"]) for entry in self.entries]

    def add_entry(
        self, spec: RunSpec, origin: str, new_signatures: List[str]
    ) -> dict:
        """Append one coverage-increasing spec to ``corpus.jsonl``."""
        entry = {
            "schema": STATE_SCHEMA,
            "key": spec.key,
            "origin": origin,
            "new_signatures": list(new_signatures),
            "spec": spec.to_dict(),
        }
        self.entries.append(entry)
        self.root.mkdir(parents=True, exist_ok=True)
        with self.corpus_path.open("a", encoding="utf-8") as handle:
            handle.write(canonical_line(entry) + "\n")
        return entry

    def add_failure(self, origin: str, key: str, report: dict) -> Path:
        """Persist one shrink report under ``failures/``."""
        self.failures_dir.mkdir(parents=True, exist_ok=True)
        path = self.failures_dir / f"{origin.replace(':', '-')}-{key}.json"
        _dump(path, report)
        return path

    def write_report(self, report: dict) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        _dump(self.report_path, report)
        return self.report_path

    # -- heatmap accumulation ----------------------------------------------
    def record_cell(
        self,
        spec: RunSpec,
        *,
        new_signatures: int,
        violations: int,
        failed: bool,
    ) -> None:
        """Fold one evaluated run into its risk-heatmap cell.

        Cells are keyed ``<campaign-label>|<sorted fault kinds>`` — the
        two axes the paper's risk argument slices on (what attack was
        composed, what faults were concurrently injected).
        """
        kinds = sorted({fault[0] for fault in spec.faults}) or ["none"]
        cell_key = f"{spec.campaign}|{'+'.join(kinds)}"
        cell = self.state["heatmap"].setdefault(
            cell_key,
            {"runs": 0, "new_signatures": 0, "violations": 0, "failures": 0},
        )
        cell["runs"] += 1
        cell["new_signatures"] += int(new_signatures)
        cell["violations"] += int(violations)
        cell["failures"] += int(bool(failed))
