"""Unit tests for the result-store layer (URL parsing, JSONL, SQLite)."""

from __future__ import annotations

import math

import pytest

from repro.harness.parallel import build_finite_state_trials, run_trials
from repro.harness.results import RunRecord, records_equal
from repro.store import (
    CLAIM_ACQUIRED,
    CLAIM_DONE,
    CLAIM_LEASED,
    STORE_KEY_EXCLUDED_FIELDS,
    StoreError,
    StoreSpec,
    open_store,
    parse_store_url,
)
from repro.store.jsonl import JsonlStore
from repro.store.sqlite import SqliteStore


#: One shard line exactly as the JSONL format has always written it: the
#: registered epidemic workload, count engine, n=64, base seed 5.  Shards on
#: disk must keep loading and replaying, so these bytes are pinned.
PINNED_LINE = (
    b'{"key": "58003890dad5fb73e500f66e19fde5ca031d3e597975b8e7c66f845e4a02f096",'
    b' "record": {"converged": true, "convergence_time": 6.0, "extra":'
    b' {"engine": "count", "interactions": 384, "outputs": {"True": 64}},'
    b' "max_additive_error": null, "population_size": 64,'
    b' "seed": 7267653224340447987}}\n'
)


def pinned_trials():
    return build_finite_state_trials(
        [64], 1, base_seed=5, engine="count", max_parallel_time=200.0,
        protocol="epidemic",
    )


def make_record(seed: int = 7, interactions: int = 120) -> RunRecord:
    return RunRecord(
        population_size=64,
        seed=seed,
        converged=True,
        convergence_time=4.5,
        extra={"engine": "count", "interactions": interactions},
    )


class TestStoreUrls:
    def test_jsonl_and_sqlite_split_on_first_colon(self):
        spec = parse_store_url("jsonl:/data/cache:dir")
        assert (spec.scheme, spec.location) == ("jsonl", "/data/cache:dir")
        spec = parse_store_url("sqlite:results.sqlite")
        assert (spec.scheme, spec.location) == ("sqlite", "results.sqlite")

    def test_http_keeps_the_whole_url(self):
        spec = parse_store_url("http://host:8512")
        assert spec.scheme == "http"
        assert spec.location == "http://host:8512"
        assert spec.url() == "http://host:8512"

    @pytest.mark.parametrize("url", ["", "no-scheme", "ftp:/x", "jsonl:"])
    def test_malformed_urls_are_rejected(self, url):
        with pytest.raises(StoreError):
            parse_store_url(url)

    def test_non_positive_lease_is_rejected(self):
        with pytest.raises(StoreError):
            StoreSpec(scheme="sqlite", location="x", lease_seconds=0.0)

    def test_open_store_dispatches_by_scheme(self, tmp_path):
        jsonl = open_store(f"jsonl:{tmp_path / 'cache'}")
        sqlite = open_store(f"sqlite:{tmp_path / 'db.sqlite'}")
        assert isinstance(jsonl, JsonlStore)
        assert isinstance(sqlite, SqliteStore)
        # An already-open store passes through untouched.
        assert open_store(sqlite) is sqlite
        sqlite.close()

    def test_store_spec_fields_match_the_audit_list(self):
        import dataclasses

        assert {f.name for f in dataclasses.fields(StoreSpec)} == set(
            STORE_KEY_EXCLUDED_FIELDS
        )


class TestJsonlStore:
    def test_wraps_existing_cache_files(self, tmp_path):
        # Records appended by one store are visible to a store reopened on
        # the same shard — same file, same format.
        JsonlStore(tmp_path, name="sweep").append("k1", make_record(seed=1))
        store = JsonlStore(tmp_path, name="sweep")
        assert records_equal(store.get("k1"), make_record(seed=1))
        store.append("k2", make_record(seed=2))
        reloaded = JsonlStore(tmp_path, name="sweep")
        assert records_equal(reloaded.get("k1"), make_record(seed=1))
        assert records_equal(reloaded.get("k2"), make_record(seed=2))

    def test_pinned_shard_line_replays_without_executing(self, tmp_path):
        (tmp_path / "sweep.jsonl").write_bytes(PINNED_LINE)
        specs = pinned_trials()
        outcome = run_trials(specs, store=JsonlStore(tmp_path))
        assert (outcome.executed, outcome.from_cache) == (0, 1)
        record = outcome.records[0]
        assert (record.seed, record.convergence_time) == (7267653224340447987, 6.0)
        assert math.isnan(record.max_additive_error)

    def test_append_writes_the_pinned_bytes(self, tmp_path):
        record = RunRecord(
            population_size=64,
            seed=7267653224340447987,
            converged=True,
            convergence_time=6.0,
            max_additive_error=math.nan,
            extra={"engine": "count", "interactions": 384, "outputs": {"True": 64}},
        )
        store = JsonlStore(tmp_path)
        store.append(pinned_trials()[0].cache_key(), record)
        assert store.path.read_bytes() == PINNED_LINE

    def test_describe_names_the_directory(self, tmp_path):
        # The URL printed after a sweep must open the same store again.
        store = JsonlStore(tmp_path, name="epidemic-count")
        assert store.describe() == f"jsonl:{tmp_path}"
        store.append("k", make_record())
        assert open_store(store.describe()).status().completed == 1

    def test_status_covers_every_shard_in_the_directory(self, tmp_path):
        JsonlStore(tmp_path, name="epidemic-count").append("k1", make_record(1))
        JsonlStore(tmp_path, name="majority-batched").append("k2", make_record(2))
        status = open_store(f"jsonl:{tmp_path}").status()
        assert status.completed == 2
        assert status.workloads[0].trials == 2

    def test_status_of_a_directory_without_shards_is_empty(self, tmp_path):
        status = open_store(f"jsonl:{tmp_path / 'fresh'}").status()
        assert (status.completed, status.leased) == (0, 0)
        assert list((tmp_path / "fresh").iterdir()) == []

    def test_status_ignores_files_that_are_not_shards(self, tmp_path):
        JsonlStore(tmp_path, name="epidemic-count").append("k1", make_record(1))
        (tmp_path / "notes.txt").write_text('{"key": "k2"}\n')
        (tmp_path / "old.jsonl.bak").write_bytes(
            (tmp_path / "epidemic-count.jsonl").read_bytes()
        )
        assert open_store(f"jsonl:{tmp_path}").status().completed == 1

    def test_file_location_is_a_store_error(self, tmp_path):
        shard = tmp_path / "epidemic-count.jsonl"
        JsonlStore(tmp_path, name="epidemic-count").append("k", make_record())
        with pytest.raises(StoreError, match="is a file"):
            open_store(f"jsonl:{shard}")

    def test_claim_cycle(self, tmp_path):
        store = JsonlStore(tmp_path)
        claim = store.claim("k", owner="a")
        assert claim.status == CLAIM_ACQUIRED
        assert store.claim("k", owner="b").status == CLAIM_LEASED
        store.append("k", make_record())
        done = store.claim("k", owner="b")
        assert done.status == CLAIM_DONE
        assert records_equal(done.record, make_record())

    def test_release_frees_the_key(self, tmp_path):
        store = JsonlStore(tmp_path)
        store.claim("k", owner="a")
        store.release("k", owner="a")
        assert store.claim("k", owner="b").status == CLAIM_ACQUIRED

    def test_status_counts(self, tmp_path):
        store = JsonlStore(tmp_path)
        store.append("k1", make_record(seed=1))
        store.claim("k2", owner="a")
        status = store.status()
        assert (status.completed, status.leased, status.stale) == (1, 1, 0)
        assert status.workloads[0].workload == "count"
        assert status.workloads[0].interactions == 120


class TestSqliteStore:
    def test_round_trip_preserves_records_exactly(self, tmp_path):
        store = SqliteStore(tmp_path / "db.sqlite")
        record = RunRecord(
            population_size=10,
            seed=3,
            converged=False,
            convergence_time=None,
            max_additive_error=math.inf,
            extra={"engine": "vector", "final_estimate_mean": math.nan},
        )
        store.append("k", record)
        loaded = store.get("k")
        # Same canonicalisation as the JSONL cache: non-finite floats load
        # as NaN (max_additive_error) / None (inside extra).
        assert math.isnan(loaded.max_additive_error)
        assert loaded.extra["final_estimate_mean"] is None
        assert loaded.converged is False and loaded.convergence_time is None
        store.close()

    def test_atomic_claim_done_leased(self, tmp_path):
        store = SqliteStore(tmp_path / "db.sqlite")
        first = store.claim("k", lease=60.0, owner="a")
        assert first.status == CLAIM_ACQUIRED and first.expires is not None
        second = store.claim("k", lease=60.0, owner="b")
        assert second.status == CLAIM_LEASED and second.owner == "a"
        # The holder may re-claim (refresh) its own lease.
        assert store.claim("k", lease=60.0, owner="a").status == CLAIM_ACQUIRED
        store.append("k", make_record())
        assert store.claim("k", owner="b").status == CLAIM_DONE
        store.close()

    def test_expired_lease_is_reclaimed(self, tmp_path):
        import time

        store = SqliteStore(tmp_path / "db.sqlite")
        store.claim("k", lease=0.05, owner="crashed-worker")
        time.sleep(0.1)
        reclaim = store.claim("k", lease=60.0, owner="b")
        assert reclaim.status == CLAIM_ACQUIRED and reclaim.owner == "b"
        store.close()

    def test_release_respects_ownership(self, tmp_path):
        store = SqliteStore(tmp_path / "db.sqlite")
        store.claim("k", lease=60.0, owner="a")
        store.release("k", owner="b")  # not the holder: no-op
        assert store.claim("k", lease=60.0, owner="c").status == CLAIM_LEASED
        store.release("k", owner="a")
        assert store.claim("k", lease=60.0, owner="c").status == CLAIM_ACQUIRED
        store.close()

    def test_pending_batches_and_preserves_order(self, tmp_path):
        store = SqliteStore(tmp_path / "db.sqlite")
        store.append("k2", make_record())
        keys = [f"k{i}" for i in range(600)]  # crosses the chunk boundary
        pending = store.pending(keys)
        assert "k2" not in pending
        assert pending == [k for k in keys if k != "k2"]
        store.close()

    def test_status_reports_stale_leases_and_throughput(self, tmp_path):
        import time

        store = SqliteStore(tmp_path / "db.sqlite")
        claim = store.claim("done-key", lease=60.0, owner="a")
        assert claim.status == CLAIM_ACQUIRED
        store.append("done-key", make_record(interactions=500))
        store.claim("stale-key", lease=0.01, owner="dead")
        store.claim("live-key", lease=60.0, owner="alive")
        time.sleep(0.05)
        status = store.status()
        assert (status.completed, status.leased, status.stale) == (1, 1, 1)
        by_key = {entry.key: entry for entry in status.leases}
        assert by_key["stale-key"].stale and not by_key["live-key"].stale
        (workload,) = status.workloads
        # Wall time is derived from the claim that started the trial, so
        # throughput reporting needs no driver-side clock.
        assert workload.interactions == 500 and workload.wall_seconds > 0
        store.close()

    def test_append_is_write_once(self, tmp_path):
        store = SqliteStore(tmp_path / "db.sqlite")
        store.append("k", make_record(seed=1))
        store.append("k", make_record(seed=2))  # late duplicate: ignored
        assert store.get("k").seed == 1
        assert store.status().completed == 1
        store.close()
