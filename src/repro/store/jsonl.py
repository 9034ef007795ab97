"""JSONL result store: the single-driver default, one shard file per sweep.

Each store opens one shard ``<dir>/<name>.jsonl`` in the line format of
:mod:`repro.harness.cache`: every finished trial is one strict-JSON line
``{"key": ..., "record": ...}``, appended through
:func:`~repro.harness.cache.append_jsonl_line` (a single ``O_APPEND`` write
under an advisory lock), and the whole shard is loaded into memory on open.
A torn final line (the process died mid-write) is skipped on load.

Leases are tracked *in process only*: JSONL files have no atomic
compare-and-claim primitive, so this store is correct for any number of
worker processes under **one** driver (the driver serialises claims) but does
not coordinate multiple concurrent drivers — two drivers pointed at the same
directory would duplicate work, not corrupt it (appends themselves are
atomic; last-writer-wins on identical records).  Multi-driver sweeps should
use ``sqlite:`` or ``http:`` stores.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness.cache import append_jsonl_line, record_from_dict, record_to_dict
from repro.harness.results import RunRecord
from repro.obs.recorder import RECORDER as _REC
from repro.store.base import (
    CLAIM_ACQUIRED,
    CLAIM_DONE,
    CLAIM_LEASED,
    Claim,
    DEFAULT_LEASE_SECONDS,
    LeaseReport,
    ResultStore,
    StoreError,
    StoreStatus,
    default_owner,
    workload_label,
)

__all__ = ["JsonlStore"]


def _load_shard(path: Path) -> dict[str, RunRecord]:
    """Every (key, record) of one shard file, skipping torn lines."""
    records: dict[str, RunRecord] = {}
    if not path.exists():
        return records
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                record = record_from_dict(payload["record"])
                key = payload["key"]
            except (json.JSONDecodeError, KeyError, TypeError):
                # Torn write from a killed sweep: ignore the partial line.
                continue
            records[key] = record
    return records


class JsonlStore(ResultStore):
    """Single-driver store over one JSONL shard file.

    Parameters
    ----------
    directory:
        Store directory (created if missing); an existing *file* at this
        location is a :class:`StoreError`.  Several sweeps share one
        directory, each in its own shard.
    name:
        Stem of this store's shard file (``<name>.jsonl``).
    lease_seconds:
        Nominal lease duration; in-process leases never expire (the holder
        is this very process — if it died, the leases died with it), so the
        value is informational only.
    """

    def __init__(
        self,
        directory: str | Path,
        name: str = "sweep",
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ) -> None:
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise StoreError(
                f"jsonl store location {str(directory)!r} is a file; "
                f"pass its directory (jsonl:DIR)"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / f"{name}.jsonl"
        self.lease_seconds = float(lease_seconds)
        self._records = _load_shard(self.path)
        self._leases: dict[str, str] = {}

    def describe(self) -> str:
        return f"jsonl:{self.directory}"

    def get(self, key: str) -> RunRecord | None:
        return self._records.get(key)

    def append(
        self, key: str, record: RunRecord, wall_seconds: float | None = None
    ) -> None:
        if _REC.enabled:
            _REC.count("store.jsonl.appends")
        self._records[key] = record
        # record_to_dict canonicalised every value; allow_nan=False turns any
        # remaining non-finite float into a hard error rather than silently
        # writing an invalid-JSON Infinity/NaN token.
        line = json.dumps(
            {"key": key, "record": record_to_dict(record)},
            sort_keys=True,
            allow_nan=False,
        )
        append_jsonl_line(self.path, line)
        self._leases.pop(key, None)

    def claim(
        self, key: str, lease: float | None = None, owner: str | None = None
    ) -> Claim:
        if _REC.enabled:
            _REC.count("store.jsonl.claims")
        record = self._records.get(key)
        if record is not None:
            return Claim(status=CLAIM_DONE, record=record)
        owner = owner or default_owner()
        holder = self._leases.get(key)
        if holder is not None and holder != owner:
            return Claim(status=CLAIM_LEASED, owner=holder)
        self._leases[key] = owner
        return Claim(status=CLAIM_ACQUIRED, owner=owner)

    def release(self, key: str, owner: str | None = None) -> None:
        holder = self._leases.get(key)
        if holder is None:
            return
        if owner is None or holder == owner:
            del self._leases[key]

    def status(self) -> StoreStatus:
        """Completion over *every* shard in the directory, not just this one."""
        records: dict[str, RunRecord] = {}
        for path in sorted(self.directory.glob("*.jsonl")):
            if path != self.path:
                records.update(_load_shard(path))
        records.update(self._records)
        leases = tuple(
            LeaseReport(key=key, owner=owner, expires=None, stale=False)
            for key, owner in sorted(self._leases.items())
        )
        rows = (
            (
                workload_label(record),
                int((record.extra or {}).get("interactions", 0) or 0),
                0.0,
            )
            for record in records.values()
        )
        return StoreStatus(
            completed=len(records),
            leased=len(leases),
            stale=0,
            leases=leases,
            workloads=self._aggregate_workloads(rows),
        )
