"""SQLite-backed campaign result store: one atomic transaction per cell.

Why SQLite and not a JSON file per campaign: a campaign is written
*while it runs*, cell by cell, possibly from a process that gets killed
mid-grid.  SQLite's journal gives every ``put_cell`` all-or-nothing
semantics with no fsync-and-rename choreography of our own — after a
kill the store holds exactly the cells whose transactions committed,
which is precisely the resume point.

Keying: rows are addressed by ``(spec_hash, git_sha, mode, cell_key)``.

* ``spec_hash`` — :meth:`CampaignSpec.content_hash`; edit the spec and
  you get a fresh namespace, never a stale mix;
* ``git_sha`` — the code that produced the numbers (``-dirty`` marks
  uncommitted trees; ``unstamped`` under ``--no-stamp`` for
  deterministic/CI runs);
* ``mode`` — a free-form label (``full``, ``smoke``, …) so CI-scale
  runs never shadow real ones;
* ``cell_key`` — ``engine/workload/seed=N/fault`` within the grid.

``payload`` holds the cell's result document as canonical JSON (sorted
keys), so :meth:`ResultStore.dump` is byte-deterministic and two stores
holding the same campaign compare equal as strings — the property the
resume test pins bit-for-bit.
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConfigError
from repro.experiments.spec import CampaignSpec

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    spec_hash  TEXT PRIMARY KEY,
    name       TEXT NOT NULL,
    spec_json  TEXT NOT NULL,
    created_at TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS cells (
    spec_hash  TEXT NOT NULL,
    git_sha    TEXT NOT NULL,
    mode       TEXT NOT NULL,
    cell_key   TEXT NOT NULL,
    engine     TEXT NOT NULL,
    workload   TEXT NOT NULL,
    seed       INTEGER NOT NULL,
    fault      TEXT NOT NULL,
    status     TEXT NOT NULL CHECK (status IN ('ok', 'error')),
    payload    TEXT NOT NULL,
    created_at TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (spec_hash, git_sha, mode, cell_key)
);
"""

#: The store's on-disk schema version (PRAGMA user_version).
STORE_VERSION = 1


class ResultStore:
    """A campaign result store over one SQLite file.

    Usable as a context manager; every write is one transaction, so a
    killed writer leaves a store containing exactly its committed cells.
    """

    def __init__(self, path: str):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            raise ConfigError(f"store directory does not exist: {directory}")
        self._con = sqlite3.connect(path)
        self._con.row_factory = sqlite3.Row
        # Full synchronous: a committed cell survives power loss, which
        # is what makes "resume where it stopped" a guarantee rather
        # than a likelihood.
        self._con.execute("PRAGMA synchronous=FULL")
        version = self._con.execute("PRAGMA user_version").fetchone()[0]
        if version not in (0, STORE_VERSION):
            self._con.close()
            raise ConfigError(
                f"{path} has store version {version}, this build reads "
                f"{STORE_VERSION}"
            )
        with self._con:
            self._con.executescript(_SCHEMA)
            self._con.execute(f"PRAGMA user_version={STORE_VERSION}")

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        self._con.close()

    # -- campaigns ------------------------------------------------------

    def register_campaign(
        self, spec: CampaignSpec, created_at: str = ""
    ) -> str:
        """Record the spec under its hash (idempotent); returns the hash.

        A hash collision with *different* content would mean two specs
        silently sharing cells, so re-registration verifies the stored
        spec JSON matches.
        """
        spec_hash = spec.content_hash()
        spec_json = json.dumps(
            spec.to_dict(), sort_keys=True, separators=(",", ":")
        )
        existing = self._con.execute(
            "SELECT spec_json FROM campaigns WHERE spec_hash=?",
            (spec_hash,),
        ).fetchone()
        if existing is not None:
            if existing["spec_json"] != spec_json:
                raise ConfigError(
                    f"spec hash {spec_hash} already registered with "
                    f"different content (hash collision or tampered store)"
                )
            return spec_hash
        with self._con:
            self._con.execute(
                "INSERT INTO campaigns (spec_hash, name, spec_json, "
                "created_at) VALUES (?, ?, ?, ?)",
                (spec_hash, spec.name, spec_json, created_at),
            )
        return spec_hash

    def campaigns(self) -> List[Tuple[str, str, str]]:
        """Every registered campaign as ``(hash, name, created_at)``."""
        rows = self._con.execute(
            "SELECT spec_hash, name, created_at FROM campaigns "
            "ORDER BY spec_hash"
        ).fetchall()
        return [
            (row["spec_hash"], row["name"], row["created_at"])
            for row in rows
        ]

    # -- cells ----------------------------------------------------------

    def put_cell(
        self,
        spec_hash: str,
        git_sha: str,
        mode: str,
        cell_key: str,
        engine: str,
        workload: str,
        seed: int,
        fault: str,
        status: str,
        payload: Dict[str, object],
        created_at: str = "",
    ) -> None:
        """Insert or replace one cell's result in its own transaction."""
        if status not in ("ok", "error"):
            raise ConfigError(f"cell status must be ok/error: {status!r}")
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with self._con:
            self._con.execute(
                "INSERT OR REPLACE INTO cells (spec_hash, git_sha, mode, "
                "cell_key, engine, workload, seed, fault, status, payload, "
                "created_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    spec_hash, git_sha, mode, cell_key, engine, workload,
                    seed, fault, status, text, created_at,
                ),
            )

    def completed_keys(
        self, spec_hash: str, git_sha: str, mode: str
    ) -> Set[str]:
        """Cell keys already finished OK under this (hash, SHA, mode).

        Error cells are deliberately *not* completed: a resumed campaign
        retries them (they may have died to a transient — the parallel
        runner's crashed-worker path already retried once, but a second
        campaign run deserves a fresh attempt).
        """
        rows = self._con.execute(
            "SELECT cell_key FROM cells WHERE spec_hash=? AND git_sha=? "
            "AND mode=? AND status='ok'",
            (spec_hash, git_sha, mode),
        ).fetchall()
        return {row["cell_key"] for row in rows}

    def get_cells(
        self, spec_hash: str, git_sha: str, mode: str
    ) -> Dict[str, Dict[str, object]]:
        """All stored cells for a campaign, keyed and ordered by cell_key."""
        rows = self._con.execute(
            "SELECT cell_key, engine, workload, seed, fault, status, "
            "payload, created_at FROM cells WHERE spec_hash=? AND "
            "git_sha=? AND mode=? ORDER BY cell_key",
            (spec_hash, git_sha, mode),
        ).fetchall()
        out: Dict[str, Dict[str, object]] = {}
        for row in rows:
            try:
                payload = json.loads(row["payload"])
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"store cell {row['cell_key']!r} holds corrupt JSON: "
                    f"{exc}"
                ) from exc
            out[row["cell_key"]] = {
                "cell_key": row["cell_key"],
                "engine": row["engine"],
                "workload": row["workload"],
                "seed": row["seed"],
                "fault": row["fault"],
                "status": row["status"],
                "payload": payload,
                "created_at": row["created_at"],
            }
        return out

    def counts(
        self, spec_hash: str, git_sha: str, mode: str
    ) -> Dict[str, int]:
        """``{"ok": n, "error": n}`` for a campaign namespace."""
        rows = self._con.execute(
            "SELECT status, COUNT(*) AS n FROM cells WHERE spec_hash=? "
            "AND git_sha=? AND mode=? GROUP BY status",
            (spec_hash, git_sha, mode),
        ).fetchall()
        out = {"ok": 0, "error": 0}
        for row in rows:
            out[row["status"]] = row["n"]
        return out

    def dump(
        self, spec_hash: str, git_sha: str, mode: str
    ) -> str:
        """Canonical JSON of every cell — byte-deterministic.

        Two campaigns that produced identical results dump to identical
        strings, which is how the resume test proves a killed-and-
        resumed campaign equals an uninterrupted one bit-for-bit.
        """
        cells = self.get_cells(spec_hash, git_sha, mode)
        return json.dumps(
            [cells[key] for key in sorted(cells)],
            sort_keys=True,
            separators=(",", ":"),
        )


def default_store_path(base_dir: Optional[str] = None) -> str:
    """The conventional store location: ``campaigns.db`` in ``base_dir``."""
    return os.path.join(base_dir or os.getcwd(), "campaigns.db")
