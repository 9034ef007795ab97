"""JSON-lines record format of the ``jsonl:`` result store.

A sweep is a list of :class:`~repro.harness.parallel.TrialSpec` objects, each
with a stable content hash (:meth:`TrialSpec.cache_key`).  The JSONL store
(:class:`~repro.store.jsonl.JsonlStore`) keeps one line per finished trial::

    {"key": "<sha256 of the spec>", "record": {<RunRecord fields>}}

Records are appended as each trial finishes, so a sweep killed half-way
leaves a valid prefix on disk; re-running the same sweep against the store
replays the finished trials and executes only the missing ones.  A torn final
line (the process died mid-write) is skipped on load.

Because the key hashes every field of the spec — protocol, population size,
run index, base seed, engine, budget, engine options — changing *any* of them
changes the key, so a store directory can safely accumulate results from many
different sweeps without false hits.

Format note: every line is *strict* JSON.  Non-finite floats (the ``inf``
``max_additive_error`` of a non-converged estimation trial, the ``NaN``
``final_estimate_mean`` of a run with no estimates) are canonicalised to
``null`` on write — the ``Infinity`` / ``NaN`` token extensions Python's
``json`` would otherwise emit are not JSON and break strict parsers (``jq``,
other languages).  On load a ``null`` ``max_additive_error`` is rebuilt as
``NaN`` ("not applicable"); ``null``\\ s nested in ``extra`` stay ``None``.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

try:  # advisory file locks: POSIX only, and the writes are atomic anyway
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.harness.results import RunRecord

__all__ = ["append_jsonl_line", "record_to_dict", "record_from_dict"]


def append_jsonl_line(path: str | Path, line: str) -> None:
    """Append one line to a JSONL file safely under concurrent writers.

    Two layers of protection against interleaved appends from multiple
    processes sharing one shard file:

    * the file is opened with ``O_APPEND`` and the whole line leaves in a
      *single* ``os.write`` call — POSIX guarantees the seek-to-end and the
      write are atomic with respect to other ``O_APPEND`` writers, so lines
      cannot interleave even without a lock;
    * an advisory ``flock`` around the write (where available) additionally
      serialises writers, covering filesystems with weaker append semantics
      (and any future multi-``write`` record format).

    A torn *final* line (the process died mid-write) remains possible and is
    skipped on load, exactly as before.
    """
    data = (line + "\n").encode("utf-8")
    descriptor = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(descriptor, fcntl.LOCK_EX)
        try:
            os.write(descriptor, data)
        finally:
            if fcntl is not None:
                fcntl.flock(descriptor, fcntl.LOCK_UN)
    finally:
        os.close(descriptor)


def _canonicalise(value):
    """Make ``value`` strict-JSON-able: non-finite floats become ``None``.

    Numpy scalars are unwrapped first (``.item()``), containers are walked
    recursively, and anything else non-JSON-native is stringified.
    """
    item = getattr(value, "item", None)
    if callable(item) and not isinstance(value, (int, float, str, bool)):
        value = item()
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _canonicalise(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonicalise(entry) for entry in value]
    if value is None or isinstance(value, (int, str, bool)):
        return value
    return str(value)


def record_to_dict(record: RunRecord) -> dict:
    """Serialise a :class:`RunRecord` to plain, strict-JSON-able data.

    Non-finite floats anywhere in the record — the top-level
    ``max_additive_error`` (``NaN`` where not applicable, ``inf`` for a
    non-converged trial with no estimates) as well as values nested inside
    ``extra`` — are mapped to ``None`` so the shard file stays valid JSON
    (see the module note).
    """
    return {
        "population_size": int(record.population_size),
        "seed": int(record.seed),
        "converged": bool(record.converged),
        "convergence_time": _canonicalise(
            None if record.convergence_time is None else float(record.convergence_time)
        ),
        "max_additive_error": _canonicalise(record.max_additive_error),
        "extra": _canonicalise(record.extra),
    }


def record_from_dict(payload: dict) -> RunRecord:
    """Rebuild a :class:`RunRecord` from :func:`record_to_dict` output.

    A ``null`` ``max_additive_error`` loads as ``NaN`` — that covers both
    sources of a ``null`` on disk (a ``NaN`` "not applicable" and the ``inf``
    of a non-converged trial; the distinction is recoverable from
    ``converged``).
    """
    error = payload.get("max_additive_error")
    return RunRecord(
        population_size=payload["population_size"],
        seed=payload["seed"],
        converged=payload["converged"],
        convergence_time=payload["convergence_time"],
        max_additive_error=math.nan if error is None else error,
        extra=payload.get("extra", {}),
    )
