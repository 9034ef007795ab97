"""Concurrent-append safety of the JSONL store (O_APPEND + advisory lock).

The historical JSONL append buffered through a ``open(..., "a")``
file object, so two processes appending simultaneously could interleave
partial lines and corrupt *other* writers' records.  The rewritten append
path emits each line in a single ``O_APPEND`` ``os.write`` under an
advisory lock; this test hammers one shard file from many processes and
requires every record to survive byte-exact.
"""

from __future__ import annotations

import json
import multiprocessing

from repro.harness.cache import append_jsonl_line
from repro.harness.results import RunRecord
from repro.store.jsonl import JsonlStore

WRITERS = 8
RECORDS_PER_WRITER = 200


def _hammer(directory: str, writer: int) -> None:
    store = JsonlStore(directory, name="hammer")
    for index in range(RECORDS_PER_WRITER):
        # A long-ish extra payload makes torn interleaved writes (the old
        # failure mode) overwhelmingly likely to corrupt JSON if the append
        # path is not atomic.
        record = RunRecord(
            population_size=1000 + writer,
            seed=writer * RECORDS_PER_WRITER + index,
            converged=True,
            convergence_time=float(index),
            extra={"writer": writer, "blob": "x" * 500, "index": index},
        )
        store.append(f"w{writer}-r{index}", record)


class TestConcurrentAppends:
    def test_multiprocess_hammer_leaves_every_line_parseable(self, tmp_path):
        context = multiprocessing.get_context()
        processes = [
            context.Process(target=_hammer, args=(str(tmp_path), writer))
            for writer in range(WRITERS)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0

        path = tmp_path / "hammer.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == WRITERS * RECORDS_PER_WRITER
        keys = set()
        for line in lines:
            payload = json.loads(line)  # any torn/interleaved line raises
            keys.add(payload["key"])
            assert payload["record"]["extra"]["blob"] == "x" * 500
        assert len(keys) == WRITERS * RECORDS_PER_WRITER

        # And the store loads every record back (no skipped torn lines).
        reloaded = JsonlStore(tmp_path, name="hammer")
        assert reloaded.status().completed == WRITERS * RECORDS_PER_WRITER

    def test_append_jsonl_line_appends_exactly_one_line(self, tmp_path):
        path = tmp_path / "lines.jsonl"
        append_jsonl_line(path, '{"a": 1}')
        append_jsonl_line(path, '{"b": 2}')
        assert path.read_text(encoding="utf-8") == '{"a": 1}\n{"b": 2}\n'
