"""Durable campaign store: SQLite (WAL) with campaigns / cells / attempts.

The JSONL :class:`~repro.runner.store.ResultStore` keeps a sweep's results
alive across restarts, but only as a flat cache — nothing records *how*
each cell got its result, and nothing survives being queried across runs.
This module promotes that cache into a proper store:

* ``campaigns`` — one row per named campaign (grid), with JSON metadata;
* ``cells`` — one row per unique run spec in a campaign: canonical spec
  JSON, lifecycle status (``pending → running → ok | failed``), attempt
  count, and the full final record once one exists;
* ``attempts`` — one row per execution attempt, successful or not: the
  attempt-status taxonomy from :mod:`repro.runner.dispatch` (``ok`` /
  ``failed`` / ``lost`` / ``timeout`` / ``error``), the error text, wall
  time and worker pid.  Crash forensics are a ``SELECT``, not a log dig.

The database is opened in WAL mode, so a concurrently-running
``repro-worksite campaign show`` (or the chaos tests' poll loop) reads a
consistent snapshot while the sweep writes.  Timestamps are wall-clock
and live outside every ``result`` payload — the determinism contract
("``result`` is a pure function of the spec") is untouched, which is what
makes the kill-and-resume acceptance test's byte-identical comparison
meaningful.

:meth:`CampaignStore.import_jsonl` is the one-way migration path from the
legacy JSONL stores; :meth:`CampaignStore.bind` returns the per-campaign
adapter the sweep engine drives through the same duck-typed protocol as
:class:`~repro.runner.store.ResultStore` (``completed_keys`` / ``append``
/ ``mark_running`` / ``record_attempt``).
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from contextlib import closing
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.runner.spec import RunSpec

#: campaign database layout version (stored in ``PRAGMA user_version``)
CAMPAIGN_SCHEMA = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    id         INTEGER PRIMARY KEY,
    name       TEXT NOT NULL UNIQUE,
    created_s  REAL NOT NULL,
    meta       TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS cells (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    key         TEXT NOT NULL,
    ord         INTEGER NOT NULL,
    spec        TEXT NOT NULL,
    status      TEXT NOT NULL DEFAULT 'pending',
    attempts    INTEGER NOT NULL DEFAULT 0,
    record      TEXT,
    PRIMARY KEY (campaign_id, key)
);
CREATE TABLE IF NOT EXISTS attempts (
    id          INTEGER PRIMARY KEY,
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    key         TEXT NOT NULL,
    attempt     INTEGER NOT NULL,
    status      TEXT NOT NULL,
    error       TEXT,
    wall_s      REAL,
    pid         INTEGER,
    recorded_s  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_attempts_cell
    ON attempts (campaign_id, key, attempt);
"""


class CampaignStore:
    """SQLite-backed store for durable, resumable sweep campaigns.

    Opening a path that is not a SQLite database (or cannot be opened as
    one) raises :class:`ValueError` naming the file.
    """

    def __init__(self, path: os.PathLike, *,
                 clock: Optional[callable] = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._clock = clock if clock is not None else time.time
        try:
            # SQLite adopts (and overwrites) some short non-database files
            # instead of refusing them, so check the header ourselves
            if self.path.is_file() and self.path.stat().st_size:
                with self.path.open("rb") as fh:
                    if fh.read(16) != b"SQLite format 3\x00":
                        raise sqlite3.DatabaseError("file is not a database")
            with closing(self._connect()) as conn, conn:
                conn.executescript(_SCHEMA)
                conn.execute(f"PRAGMA user_version = {CAMPAIGN_SCHEMA}")
        except sqlite3.DatabaseError as exc:
            raise ValueError(
                f"{self.path}: not a campaign database ({exc})"
            ) from None

    def _connect(self) -> sqlite3.Connection:
        # one short-lived connection per operation: nothing to invalidate
        # across the pool workers' forks, and WAL readers never block us
        conn = sqlite3.connect(self.path, timeout=30.0)
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA foreign_keys=ON")
        return conn

    # -- campaigns ----------------------------------------------------------

    def campaign_id(self, name: str) -> Optional[int]:
        with closing(self._connect()) as conn:
            row = conn.execute(
                "SELECT id FROM campaigns WHERE name = ?", (name,)
            ).fetchone()
        return None if row is None else int(row["id"])

    def ensure_campaign(
        self,
        name: str,
        specs: Sequence[RunSpec] = (),
        meta: Optional[dict] = None,
    ) -> int:
        """Create ``name`` if needed and make sure every spec has a cell.

        Idempotent: re-ensuring an existing campaign only adds the cells
        it is missing (a grown grid extends the campaign in place).
        """
        with closing(self._connect()) as conn, conn:
            row = conn.execute(
                "SELECT id FROM campaigns WHERE name = ?", (name,)
            ).fetchone()
            if row is None:
                cursor = conn.execute(
                    "INSERT INTO campaigns (name, created_s, meta) "
                    "VALUES (?, ?, ?)",
                    (name, self._clock(),
                     json.dumps(meta or {}, sort_keys=True)),
                )
                campaign = int(cursor.lastrowid)
            else:
                campaign = int(row["id"])
            self._add_cells(conn, campaign, specs)
        return campaign

    def _add_cells(self, conn, campaign: int,
                   specs: Sequence[RunSpec]) -> None:
        row = conn.execute(
            "SELECT COALESCE(MAX(ord) + 1, 0) AS nxt FROM cells "
            "WHERE campaign_id = ?", (campaign,)
        ).fetchone()
        nxt = int(row["nxt"])
        for spec in specs:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO cells "
                "(campaign_id, key, ord, spec) VALUES (?, ?, ?, ?)",
                (campaign, spec.key, nxt,
                 json.dumps(spec.to_dict(), sort_keys=True)),
            )
            if cursor.rowcount:
                nxt += 1

    def list_campaigns(self) -> List[dict]:
        """Per-campaign summary rows: cell status counts, total attempts."""
        with closing(self._connect()) as conn:
            rows = conn.execute(
                "SELECT c.id, c.name, c.created_s, c.meta,"
                " COUNT(l.key) AS cells,"
                " SUM(l.status = 'ok') AS ok,"
                " SUM(l.status = 'failed') AS failed,"
                " SUM(l.status IN ('pending', 'running')) AS pending,"
                " COALESCE(SUM(l.attempts), 0) AS attempts"
                " FROM campaigns c LEFT JOIN cells l"
                " ON l.campaign_id = c.id"
                " GROUP BY c.id ORDER BY c.id",
            ).fetchall()
        return [
            {
                "name": row["name"],
                "created_s": row["created_s"],
                "meta": json.loads(row["meta"]),
                "cells": int(row["cells"] or 0),
                "ok": int(row["ok"] or 0),
                "failed": int(row["failed"] or 0),
                "pending": int(row["pending"] or 0),
                "attempts": int(row["attempts"] or 0),
            }
            for row in rows
        ]

    def show(self, name: str) -> dict:
        """One campaign's full picture: summary plus per-cell lifecycle."""
        campaign = self._require(name)
        with closing(self._connect()) as conn:
            rows = conn.execute(
                "SELECT key, ord, spec, status, attempts, record FROM cells"
                " WHERE campaign_id = ? ORDER BY ord", (campaign,)
            ).fetchall()
            errors = {
                row["key"]: row["error"]
                for row in conn.execute(
                    "SELECT key, error FROM attempts"
                    " WHERE campaign_id = ? AND error IS NOT NULL"
                    " ORDER BY id", (campaign,)
                )
            }
        cells = []
        for row in rows:
            spec = json.loads(row["spec"])
            cells.append({
                "key": row["key"],
                "label": RunSpec.from_dict(spec).label,
                "spec": spec,
                "status": row["status"],
                "attempts": int(row["attempts"]),
                "last_error": errors.get(row["key"]),
            })
        summary = next(
            (c for c in self.list_campaigns() if c["name"] == name), {}
        )
        summary["cells_detail"] = cells
        return summary

    def specs(self, name: str) -> List[RunSpec]:
        """The campaign's grid, in original declaration order."""
        campaign = self._require(name)
        with closing(self._connect()) as conn:
            rows = conn.execute(
                "SELECT spec FROM cells WHERE campaign_id = ?"
                " ORDER BY ord", (campaign,)
            ).fetchall()
        return [RunSpec.from_dict(json.loads(row["spec"])) for row in rows]

    def attempts(self, name: str, key: Optional[str] = None) -> List[dict]:
        """Every recorded execution attempt, oldest first."""
        campaign = self._require(name)
        query = ("SELECT key, attempt, status, error, wall_s, pid,"
                 " recorded_s FROM attempts WHERE campaign_id = ?")
        params: tuple = (campaign,)
        if key is not None:
            query += " AND key = ?"
            params += (key,)
        with closing(self._connect()) as conn:
            rows = conn.execute(query + " ORDER BY id", params).fetchall()
        return [dict(row) for row in rows]

    def _require(self, name: str) -> int:
        campaign = self.campaign_id(name)
        if campaign is None:
            raise ValueError(f"no campaign named {name!r} in {self.path}")
        return campaign

    # -- migration ----------------------------------------------------------

    def import_jsonl(self, jsonl_path: os.PathLike, name: str) -> dict:
        """One-way promotion of a legacy JSONL result store into a campaign.

        Every record becomes a cell carrying its final record verbatim,
        plus one synthetic attempt row reconstructed from the record's
        status / error / wall time / pid.  Torn tail lines are tolerated
        exactly as :meth:`ResultStore.load` tolerates them.
        """
        from repro.runner.store import ResultStore

        records = ResultStore(jsonl_path).load()
        specs = [RunSpec.from_dict(r["spec"]) for r in records.values()]
        campaign = self.ensure_campaign(
            name, specs, meta={"imported_from": str(jsonl_path)},
        )
        binding = CampaignBinding(self, campaign)
        imported = {"ok": 0, "failed": 0}
        for record in records.values():
            status = "ok" if record.get("status") == "ok" else "failed"
            imported[status] += 1
            binding.record_attempt(
                record["key"], int(record.get("attempt", 1)),
                status=status, error=record.get("error"),
                wall_s=record.get("wall_s"), pid=record.get("pid"),
            )
            binding.append(record)
        return {"campaign": name, "cells": len(records), **imported}

    # -- engine adapter -----------------------------------------------------

    def bind(self, name: str) -> "CampaignBinding":
        """The per-campaign store adapter the sweep engine writes through."""
        return CampaignBinding(self, self._require(name))


class CampaignBinding:
    """One campaign's view of the store, speaking the engine's store
    protocol (drop-in for :class:`~repro.runner.store.ResultStore`)."""

    def __init__(self, store: CampaignStore, campaign_id: int) -> None:
        self.store = store
        self.campaign_id = campaign_id

    def completed_keys(self) -> Dict[str, dict]:
        """Successfully completed records by key (what ``resume`` skips)."""
        with closing(self.store._connect()) as conn:
            rows = conn.execute(
                "SELECT key, record FROM cells"
                " WHERE campaign_id = ? AND status = 'ok'"
                " AND record IS NOT NULL",
                (self.campaign_id,),
            ).fetchall()
        return {row["key"]: json.loads(row["record"]) for row in rows}

    def load(self) -> Dict[str, dict]:
        """All final records by key (parity with ``ResultStore.load``)."""
        with closing(self.store._connect()) as conn:
            rows = conn.execute(
                "SELECT key, record FROM cells"
                " WHERE campaign_id = ? AND record IS NOT NULL",
                (self.campaign_id,),
            ).fetchall()
        return {row["key"]: json.loads(row["record"]) for row in rows}

    def append(self, record: dict) -> None:
        """Finalise a cell with its record (last write wins, as in JSONL)."""
        status = "ok" if record.get("status") == "ok" else "failed"
        payload = json.dumps(record, sort_keys=True)
        attempts = int(record.get("attempts", 1))
        with closing(self.store._connect()) as conn, conn:
            cursor = conn.execute(
                "UPDATE cells SET status = ?, record = ?,"
                " attempts = MAX(attempts, ?)"
                " WHERE campaign_id = ? AND key = ?",
                (status, payload, attempts, self.campaign_id, record["key"]),
            )
            if cursor.rowcount == 0:
                # a record for a cell the grid never declared (e.g. JSONL
                # import of an ad-hoc run): adopt it at the end of the order
                row = conn.execute(
                    "SELECT COALESCE(MAX(ord) + 1, 0) AS nxt FROM cells"
                    " WHERE campaign_id = ?", (self.campaign_id,)
                ).fetchone()
                conn.execute(
                    "INSERT INTO cells (campaign_id, key, ord, spec,"
                    " status, attempts, record) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (self.campaign_id, record["key"], int(row["nxt"]),
                     json.dumps(record.get("spec", {}), sort_keys=True),
                     status, attempts, payload),
                )

    def append_many(self, records: Iterable[dict]) -> None:
        for record in records:
            self.append(record)

    def mark_running(self, key: str, attempt: int) -> None:
        with closing(self.store._connect()) as conn, conn:
            conn.execute(
                "UPDATE cells SET status = 'running'"
                " WHERE campaign_id = ? AND key = ? AND status != 'ok'",
                (self.campaign_id, key),
            )

    def record_attempt(
        self,
        key: str,
        attempt: int,
        *,
        status: str,
        error: Optional[str] = None,
        wall_s: Optional[float] = None,
        pid: Optional[int] = None,
    ) -> None:
        """Record one finished execution attempt (any outcome kind)."""
        with closing(self.store._connect()) as conn, conn:
            conn.execute(
                "INSERT INTO attempts (campaign_id, key, attempt, status,"
                " error, wall_s, pid, recorded_s)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (self.campaign_id, key, int(attempt), status, error,
                 wall_s, pid, self.store._clock()),
            )
            conn.execute(
                "UPDATE cells SET attempts = MAX(attempts, ?)"
                " WHERE campaign_id = ? AND key = ?",
                (int(attempt), self.campaign_id, key),
            )


def open_campaign_store(path: Optional[os.PathLike]) -> Optional[CampaignStore]:
    """A campaign store for ``path``, or ``None`` when not requested."""
    return None if path is None else CampaignStore(path)
