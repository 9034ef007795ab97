"""Tests for the parallel sweep driver, seed spawning and the JSONL store."""

from __future__ import annotations

import dataclasses
import inspect
import json
import math

import pytest

from repro.core.parameters import ProtocolParameters
from repro.exceptions import SimulationError
from repro.harness.cache import record_from_dict, record_to_dict
from repro.harness.experiment import (
    ExperimentSpec,
    run_array_experiment,
    run_finite_state_experiment,
    run_sequential_experiment,
)
from repro.harness.parallel import (
    KIND_FINITE_STATE,
    TrialSpec,
    build_finite_state_trials,
    build_vector_trials,
    get_workload,
    run_trial,
    run_trials,
)
from repro.harness.results import RunRecord, records_equal
from repro.obs.recorder import RECORDER, recording
from repro.protocols.epidemic import EpidemicProtocol, epidemic_completion_predicate
from repro.store.jsonl import JsonlStore
from repro.rng import spawn_seed
from repro.staticcheck.contracts import trial_spec_perturbations

FAST = ProtocolParameters.fast_test()


def epidemic_trials(sizes=(64, 128), runs=2, **overrides):
    options = dict(
        population_sizes=list(sizes),
        runs_per_size=runs,
        base_seed=5,
        engine="count",
        max_parallel_time=200.0,
        protocol_factory=EpidemicProtocol,
        predicate=epidemic_completion_predicate,
    )
    options.update(overrides)
    return build_finite_state_trials(**options)


class TestSpawnSeed:
    def test_deterministic(self):
        assert spawn_seed(7, 1, 2) == spawn_seed(7, 1, 2)

    def test_no_collisions_on_large_run_grid(self):
        # The old scheme (base + 1000 i + j) collides at runs_per_size >= 1000.
        seeds = {spawn_seed(0, i, j) for i in range(3) for j in range(1500)}
        assert len(seeds) == 3 * 1500

    def test_old_scheme_collision_pairs_are_distinct(self):
        assert spawn_seed(0, 1, 0) != spawn_seed(0, 0, 1000)
        # Sweeps whose base seeds differ by 1000 no longer overlap either.
        assert spawn_seed(1000, 0, 0) != spawn_seed(0, 1, 0)

    def test_key_length_separates_domains(self):
        assert spawn_seed(3, 1, 2) != spawn_seed(3, 1, 2, 0)

    def test_negative_base_seed_allowed(self):
        assert spawn_seed(-4, 0, 0) != spawn_seed(4, 0, 0)

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            spawn_seed(0, -1)


class TestExperimentSpecValidation:
    def test_empty_sizes_rejected(self):
        with pytest.raises(SimulationError):
            ExperimentSpec(population_sizes=[])

    def test_tiny_population_rejected(self):
        with pytest.raises(SimulationError):
            ExperimentSpec(population_sizes=[64, 1])

    def test_nonpositive_runs_rejected(self):
        with pytest.raises(SimulationError):
            ExperimentSpec(population_sizes=[64], runs_per_size=0)

    def test_nonpositive_budget_factor_rejected(self):
        with pytest.raises(SimulationError):
            ExperimentSpec(population_sizes=[64], time_budget_factor=0.0)

    def test_valid_spec_accepted(self):
        spec = ExperimentSpec(population_sizes=[64], runs_per_size=2, params=FAST)
        assert spec.seed_for(0, 0) != spec.seed_for(0, 1)


class TestTrialSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            TrialSpec(kind="warp", population_size=64, size_index=0, run_index=0)

    def test_small_population_rejected(self):
        with pytest.raises(SimulationError):
            epidemic_trials(sizes=[1])

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError):
            epidemic_trials(engine="warp")

    def test_missing_workload_rejected(self):
        with pytest.raises(SimulationError):
            TrialSpec(
                kind=KIND_FINITE_STATE,
                population_size=64,
                size_index=0,
                run_index=0,
            )

    def test_unknown_workload_name_raises_on_run(self):
        spec = TrialSpec(
            kind=KIND_FINITE_STATE,
            population_size=64,
            size_index=0,
            run_index=0,
            protocol="no-such-workload",
        )
        with pytest.raises(SimulationError):
            run_trial(spec)

    def test_empty_sweep_rejected(self):
        with pytest.raises(SimulationError):
            epidemic_trials(sizes=[])
        with pytest.raises(SimulationError):
            epidemic_trials(runs=0)

    def test_registered_workload_resolves(self):
        workload = get_workload("epidemic")
        assert workload.factory is EpidemicProtocol

    def test_explicit_predicate_overrides_workload(self):
        # A workload name fills in missing callables but never shadows
        # explicitly supplied ones.
        def never_converges(simulator) -> bool:
            return False

        spec = TrialSpec(
            kind=KIND_FINITE_STATE,
            population_size=64,
            size_index=0,
            run_index=0,
            protocol="epidemic",
            predicate=never_converges,
            max_parallel_time=5.0,
        )
        factory, predicate = spec.resolve_workload()
        assert factory is EpidemicProtocol
        assert predicate is never_converges
        assert not run_trial(spec).converged


class TestParallelMatchesSerial:
    def test_record_for_record_identical(self):
        specs = epidemic_trials()
        serial = run_trials(specs, workers=1)
        parallel = run_trials(specs, workers=4)
        assert serial.executed == parallel.executed == len(specs)
        assert len(parallel.records) == len(specs)
        for spec, left, right in zip(specs, serial.records, parallel.records):
            assert left.population_size == spec.population_size
            assert left.seed == spec.seed
            assert records_equal(left, right)

    @pytest.mark.parametrize("engine", ["agent", "count", "batched"])
    def test_runner_parallel_equals_serial_per_engine(self, engine):
        common = dict(
            protocol_factory=EpidemicProtocol,
            predicate=epidemic_completion_predicate,
            population_sizes=[64, 128],
            runs_per_size=2,
            max_parallel_time=200.0,
            engine=engine,
            base_seed=9,
        )
        serial = run_finite_state_experiment(**common, workers=1)
        parallel = run_finite_state_experiment(**common, workers=2)
        assert all(
            records_equal(left, right)
            for left, right in zip(serial.records, parallel.records)
        )

    def test_workload_by_name(self):
        sweep = run_finite_state_experiment(
            "epidemic",
            population_sizes=[64],
            runs_per_size=2,
            max_parallel_time=200.0,
            engine="count",
            workers=2,
        )
        assert len(sweep.records) == 2
        assert all(record.converged for record in sweep.records)

    def test_array_experiment_parallel(self):
        spec = ExperimentSpec(
            population_sizes=[48, 64], runs_per_size=2, params=FAST, base_seed=1
        )
        serial = run_array_experiment(spec)
        parallel = run_array_experiment(spec, workers=3)
        assert all(
            records_equal(left, right)
            for left, right in zip(serial.records, parallel.records)
        )

    def test_sequential_experiment_parallel(self):
        spec = ExperimentSpec(
            population_sizes=[48], runs_per_size=2, params=FAST, base_seed=2
        )
        serial = run_sequential_experiment(spec)
        parallel = run_sequential_experiment(spec, workers=2)
        assert all(
            records_equal(left, right)
            for left, right in zip(serial.records, parallel.records)
        )

    def test_invalid_worker_count(self):
        with pytest.raises(SimulationError):
            run_trials(epidemic_trials(), workers=0)


class TestResultCache:
    """Sweeps persisted and resumed through the JSONL result store."""

    def test_round_trip_preserves_records(self, tmp_path):
        specs = epidemic_trials()
        store = JsonlStore(tmp_path)
        first = run_trials(specs, store=store)
        assert first.executed == len(specs)
        assert first.from_cache == 0

        reloaded = JsonlStore(tmp_path)
        second = run_trials(specs, store=reloaded)
        assert second.executed == 0
        assert second.from_cache == len(specs)
        assert all(
            records_equal(left, right)
            for left, right in zip(first.records, second.records)
        )

    def test_killed_sweep_resumes_from_cache(self, tmp_path):
        specs = epidemic_trials()
        store = JsonlStore(tmp_path)
        full = run_trials(specs, store=store)

        # Simulate a sweep killed after two finished trials: keep only the
        # first two shard lines (plus a torn partial third line).
        lines = store.path.read_text(encoding="utf-8").splitlines()
        store.path.write_text(
            "\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2],
            encoding="utf-8",
        )

        resumed_store = JsonlStore(tmp_path)
        assert resumed_store.status().completed == 2
        resumed = run_trials(specs, store=resumed_store)
        assert resumed.from_cache == 2
        assert resumed.executed == len(specs) - 2
        assert all(
            records_equal(left, right)
            for left, right in zip(full.records, resumed.records)
        )

    def test_parallel_resume_matches_serial(self, tmp_path):
        specs = epidemic_trials()
        run_trials(specs[:1], store=JsonlStore(tmp_path))
        outcome = run_trials(specs, workers=4, store=JsonlStore(tmp_path))
        assert outcome.from_cache == 1
        assert outcome.executed == len(specs) - 1
        baseline = run_trials(specs)
        assert all(
            records_equal(left, right)
            for left, right in zip(baseline.records, outcome.records)
        )

    def test_record_serialisation_round_trip(self):
        import math

        record = RunRecord(
            population_size=64,
            seed=12,
            converged=False,
            convergence_time=None,
            max_additive_error=math.nan,
            extra={"engine": "count", "outputs": {"True": 64}},
        )
        clone = record_from_dict(json.loads(json.dumps(record_to_dict(record))))
        assert records_equal(record, clone)

    def test_caches_are_shareable_across_sweeps(self, tmp_path):
        store = JsonlStore(tmp_path)
        run_trials(epidemic_trials(sizes=[64], runs=1), store=store)
        other = run_trials(
            epidemic_trials(sizes=[64], runs=1, engine="batched"), store=store
        )
        assert other.executed == 1  # different engine -> different key


class _CountingStore(JsonlStore):
    """A JSONL store that counts the driver's claim and append calls."""

    def __init__(self, directory):
        super().__init__(directory)
        self.calls = {"claim": 0, "append": 0}

    def claim(self, key, lease=None, owner=None):
        self.calls["claim"] += 1
        return super().claim(key, lease=lease, owner=owner)

    def append(self, key, record, wall_seconds=None):
        self.calls["append"] += 1
        super().append(key, record, wall_seconds=wall_seconds)


class TestPersistenceApi:
    @pytest.mark.parametrize(
        "function",
        [
            run_trials,
            run_finite_state_experiment,
            run_array_experiment,
            run_sequential_experiment,
            JsonlStore,
        ],
        ids=lambda function: function.__name__,
    )
    def test_no_cache_parameter(self, function):
        # Persistence goes through store= (or a JsonlStore) only.
        assert "cache" not in inspect.signature(function).parameters

    @pytest.mark.parametrize("telemetry", [False, True], ids=["off", "on"])
    def test_one_claim_and_append_per_trial(self, tmp_path, telemetry):
        specs = epidemic_trials()
        store = _CountingStore(tmp_path)
        RECORDER.reset()
        try:
            if telemetry:
                with recording():
                    outcome = run_trials(specs, store=store)
            else:
                outcome = run_trials(specs, store=store)
            counters = dict(RECORDER.counters)
        finally:
            RECORDER.reset()
        assert outcome.executed == len(specs)
        assert store.calls == {"claim": len(specs), "append": len(specs)}
        if telemetry:
            assert counters["store.claims"] == len(specs)
            assert counters["store.claims_acquired"] == len(specs)
            assert counters["store.appends"] == len(specs)
        else:
            assert "store.claims" not in counters
            assert "store.appends" not in counters
        replay = run_trials(specs, store=JsonlStore(tmp_path))
        assert (replay.executed, replay.from_cache) == (0, len(specs))


class TestCacheKeys:
    def test_key_is_stable(self):
        spec = epidemic_trials()[0]
        assert spec.cache_key() == spec.cache_key()
        assert spec.cache_key() == epidemic_trials()[0].cache_key()

    @pytest.mark.parametrize(
        "change",
        [
            {"population_size": 256},
            {"size_index": 7},
            {"run_index": 7},
            {"base_seed": 99},
            {"engine": "batched"},
            {"max_parallel_time": 123.0},
            {"check_interval": 32},
            {"protocol": "epidemic", "protocol_factory": None, "predicate": None},
            {"engine_options": (("batch_size", 16),)},
        ],
    )
    def test_key_changes_when_any_field_changes(self, change):
        base = epidemic_trials()[0]
        changed = dataclasses.replace(base, **change)
        assert changed.cache_key() != base.cache_key()

    def test_params_and_kind_affect_key(self):
        spec = ExperimentSpec(
            population_sizes=[48], runs_per_size=1, params=FAST, base_seed=3
        )
        array_trial = spec.trials("array", "array")[0]
        sequential_trial = spec.trials("sequential", "sequential")[0]
        assert array_trial.cache_key() != sequential_trial.cache_key()
        moderate = ExperimentSpec(
            population_sizes=[48],
            runs_per_size=1,
            params=ProtocolParameters.moderate(),
            base_seed=3,
        )
        assert (
            moderate.trials("array", "array")[0].cache_key()
            != array_trial.cache_key()
        )


def _reject_constant(text):
    raise AssertionError(f"non-strict JSON token in cache line: {text}")


class TestNonFiniteSerialisation:
    """Non-finite floats must never reach the persisted JSON (as the invalid
    literals ``Infinity`` / ``NaN``); they are canonicalised to ``null``."""

    def test_record_to_dict_canonicalises_nested_non_finites(self):
        record = RunRecord(
            population_size=8,
            seed=1,
            converged=False,
            convergence_time=None,
            max_additive_error=math.inf,
            extra={
                "a": math.nan,
                "b": [math.inf, 2.0],
                "c": {"d": -math.inf},
                "ok": 3,
            },
        )
        payload = record_to_dict(record)
        assert payload["max_additive_error"] is None
        assert payload["extra"]["a"] is None
        assert payload["extra"]["b"] == [None, 2.0]
        assert payload["extra"]["c"]["d"] is None
        assert payload["extra"]["ok"] == 3
        json.dumps(payload, allow_nan=False)  # must not raise

    def test_non_converged_array_trial_round_trips_strict_json(self, tmp_path):
        spec = TrialSpec(
            kind="array",
            population_size=64,
            size_index=0,
            run_index=0,
            base_seed=1,
            engine="array",
            max_parallel_time=0.5,  # far too small: the trial cannot converge
            params=FAST,
        )
        record = run_trial(spec)
        assert not record.converged
        # No agent reports an estimate: the in-memory error is +infinity and
        # the mean estimate is NaN — exactly the values that used to leak
        # into the cache file as invalid JSON.
        assert math.isinf(record.max_additive_error)
        assert math.isnan(record.extra["final_estimate_mean"])

        store = JsonlStore(tmp_path, name="nonfinite")
        store.append(spec.cache_key(), record)
        text = store.path.read_text(encoding="utf-8")
        assert "Infinity" not in text
        assert "NaN" not in text
        for line in text.splitlines():
            json.loads(line, parse_constant=_reject_constant)  # strict parse

        reloaded = JsonlStore(tmp_path, name="nonfinite").get(spec.cache_key())
        assert reloaded is not None
        assert reloaded.converged is False
        assert math.isnan(reloaded.max_additive_error)
        assert reloaded.extra["final_estimate_mean"] is None


class TestVectorSweeps:
    def test_vector_trials_cache_and_resume(self, tmp_path):
        specs = build_vector_trials(
            [64], 2, protocol="figure2", params=FAST, base_seed=9
        )
        first = run_trials(specs, store=JsonlStore(tmp_path, name="vec"))
        assert first.executed == 2
        assert all(record.converged for record in first.records)
        second = run_trials(specs, store=JsonlStore(tmp_path, name="vec"))
        assert second.executed == 0
        assert second.from_cache == 2
        for live, cached in zip(first.records, second.records):
            assert records_equal(live, cached)

    def test_vector_parallel_matches_serial(self):
        specs = build_vector_trials(
            [64, 96], 1, protocol="figure2", params=FAST, base_seed=4
        )
        serial = run_trials(specs, workers=1)
        parallel = run_trials(specs, workers=2)
        for one, other in zip(serial.records, parallel.records):
            assert records_equal(one, other)

    def test_vector_spec_requires_workload_name(self):
        with pytest.raises(SimulationError):
            TrialSpec(
                kind="vector",
                population_size=64,
                size_index=0,
                run_index=0,
                params=FAST,
            )

    def test_vector_spec_requires_params(self):
        with pytest.raises(SimulationError):
            TrialSpec(
                kind="vector",
                population_size=64,
                size_index=0,
                run_index=0,
                protocol="figure2",
            )

    def test_unknown_vector_workload_raises_on_run(self):
        spec = TrialSpec(
            kind="vector",
            population_size=64,
            size_index=0,
            run_index=0,
            protocol="no-such-workload",
            params=FAST,
        )
        with pytest.raises(SimulationError):
            run_trial(spec)

    def test_unsupported_engine_options_rejected_at_build_time(self):
        # figure2's kernel takes no options: the sweep must fail up front
        # with a SimulationError, not a TypeError inside a worker mid-sweep.
        with pytest.raises(SimulationError, match="phase_count"):
            build_vector_trials(
                [64], 1, protocol="figure2", params=FAST, phase_count=8
            )

    def test_invalid_option_values_surface_as_protocol_errors(self):
        from repro.exceptions import ProtocolError

        with pytest.raises(ProtocolError):
            build_vector_trials(
                [64],
                1,
                protocol="leader-terminating",
                params=FAST,
                phase_count=2,  # below the clock's minimum of 3
            )

    def test_engine_options_reach_the_kernel_and_the_key(self):
        base = build_vector_trials(
            [64], 1, protocol="leader-terminating", params=FAST, phase_count=8
        )[0]
        other = build_vector_trials(
            [64], 1, protocol="leader-terminating", params=FAST, phase_count=16
        )[0]
        assert base.engine_options == (("phase_count", 8),)
        assert base.cache_key() != other.cache_key()


class TestSchedulerInSpecsAndCacheKeys:
    """TrialSpec.scheduler participates in validation and the cache key."""

    @pytest.mark.parametrize(
        "change",
        [
            {"scheduler": "matching"},
            {"scheduler": "quiescing"},
            {
                "scheduler": "weighted",
                "scheduler_options": (("lazy_rate", 0.5),),
            },
        ],
    )
    def test_key_changes_with_scheduler_fields(self, change):
        base = epidemic_trials(engine="agent")[0]
        changed = dataclasses.replace(base, **change)
        assert changed.cache_key() != base.cache_key()

    def test_scheduler_options_alone_change_the_key(self):
        mild = dataclasses.replace(
            epidemic_trials(engine="agent")[0],
            scheduler="weighted",
            scheduler_options=(("lazy_rate", 0.5),),
        )
        harsh = dataclasses.replace(mild, scheduler_options=(("lazy_rate", 0.1),))
        assert mild.cache_key() != harsh.cache_key()

    def test_cached_uniform_trial_not_served_for_nonuniform_sweep(self, tmp_path):
        """A cache warmed by a uniform-scheduler sweep must execute (not
        replay) every trial of the same sweep under a non-uniform scheduler."""
        uniform = epidemic_trials(sizes=[64], runs=2, engine="agent")
        first = run_trials(uniform, store=JsonlStore(tmp_path))
        assert first.executed == 2

        weighted = build_finite_state_trials(
            population_sizes=[64],
            runs_per_size=2,
            base_seed=5,
            engine="agent",
            max_parallel_time=200.0,
            protocol_factory=EpidemicProtocol,
            predicate=epidemic_completion_predicate,
            scheduler="weighted",
            scheduler_options={"lazy_fraction": 0.5, "lazy_rate": 0.2},
        )
        outcome = run_trials(weighted, store=JsonlStore(tmp_path))
        assert outcome.from_cache == 0
        assert outcome.executed == 2
        # And the non-uniform results themselves replay on a second pass.
        replay = run_trials(weighted, store=JsonlStore(tmp_path))
        assert replay.from_cache == 2
        for live, cached in zip(outcome.records, replay.records):
            assert records_equal(live, cached)

    def test_incompatible_scheduler_rejected_at_build_time(self):
        with pytest.raises(SimulationError):
            epidemic_trials(scheduler="weighted")  # count engine cannot run it
        with pytest.raises(SimulationError):
            build_vector_trials(
                [64], 1, protocol="figure2", params=FAST, scheduler="sequential"
            )

    def test_malformed_scheduler_options_rejected_at_build_time(self):
        with pytest.raises(SimulationError):
            epidemic_trials(
                engine="agent",
                scheduler="weighted",
                scheduler_options={"lazy_rate": 0.0},
            )

    def test_vector_trials_accept_round_schedulers(self):
        specs = build_vector_trials(
            [64],
            1,
            protocol="figure2",
            params=FAST,
            scheduler="two-block",
            scheduler_options={"intra": 0.8},
        )
        assert specs[0].scheduler == "two-block"
        record = run_trial(specs[0])
        assert record.converged

    def test_workload_registry_accepts_scheduler_variants(self):
        from repro.harness.parallel import (
            FiniteStateWorkload,
            WORKLOADS,
            register_workload,
        )
        from repro.protocols.epidemic import EpidemicProtocol as Epidemic

        variant = FiniteStateWorkload(
            name="epidemic-two-block",
            factory=Epidemic,
            predicate=epidemic_completion_predicate,
            description="epidemic inside a nearly-partitioned population",
            default_population=1_000,
            default_budget=lambda n: 400.0,
            scheduler="two-block",
            scheduler_options=(("intra", 0.95),),
        )
        register_workload(variant)
        try:
            specs = build_finite_state_trials(
                population_sizes=[64],
                runs_per_size=1,
                engine="agent",
                max_parallel_time=400.0,
                protocol="epidemic-two-block",
            )
            assert specs[0].scheduler == "two-block"
            assert specs[0].scheduler_options == (("intra", 0.95),)
            assert run_trial(specs[0]).converged
        finally:
            del WORKLOADS["epidemic-two-block"]


class TestSchedulerOptionPlumbing:
    """Regressions: workload-baked options and dangling scheduler options."""

    def test_workload_baked_options_survive_empty_cli_options(self):
        # The CLI always passes {} when no --scheduler-opt flag is given; a
        # workload's baked options must still apply.
        from repro.harness.parallel import (
            FiniteStateWorkload,
            WORKLOADS,
            register_workload,
        )

        register_workload(
            FiniteStateWorkload(
                name="epidemic-two-block-opts",
                factory=EpidemicProtocol,
                predicate=epidemic_completion_predicate,
                description="variant with baked scheduler options",
                default_population=1_000,
                default_budget=lambda n: 400.0,
                scheduler="two-block",
                scheduler_options=(("intra", 0.95),),
            )
        )
        try:
            specs = build_finite_state_trials(
                population_sizes=[64],
                runs_per_size=1,
                engine="agent",
                max_parallel_time=400.0,
                protocol="epidemic-two-block-opts",
                scheduler_options={},  # what the CLI passes
            )
            assert specs[0].scheduler == "two-block"
            assert specs[0].scheduler_options == (("intra", 0.95),)
        finally:
            del WORKLOADS["epidemic-two-block-opts"]

    def test_dangling_scheduler_options_rejected(self):
        with pytest.raises(SimulationError, match="without a scheduler"):
            TrialSpec(
                kind=KIND_FINITE_STATE,
                population_size=64,
                size_index=0,
                run_index=0,
                engine="agent",
                protocol="epidemic",
                scheduler_options=(("intra", 0.95),),
            )


class TestCacheKeyBackwardCompatibility:
    def test_default_scheduler_specs_hash_like_pre_scheduler_releases(self):
        """Regression: adding the scheduler fields must not invalidate caches
        written before schedulers became pluggable — a default-scheduler spec
        hashes over exactly the historical field set."""
        import hashlib

        spec = epidemic_trials()[0]
        legacy_payload = {
            "kind": spec.kind,
            "population_size": spec.population_size,
            "size_index": spec.size_index,
            "run_index": spec.run_index,
            "base_seed": spec.base_seed,
            "engine": spec.engine,
            "max_parallel_time": spec.max_parallel_time,
            "check_interval": spec.check_interval,
            "protocol": None,
            "protocol_factory": "repro.protocols.epidemic:EpidemicProtocol",
            "predicate": "repro.protocols.epidemic:epidemic_completion_predicate",
            "engine_options": [],
            "params": None,
            "track_states": False,
        }
        legacy_key = hashlib.sha256(
            json.dumps(legacy_payload, sort_keys=True).encode("utf-8")
        ).hexdigest()
        assert spec.cache_key() == legacy_key


class TestCRNCacheKeys:
    """Key sensitivity of the ``kind="crn"`` spec fields (the CRN travels in
    the spec precisely so that a cached trial is never replayed for a
    modified network — in particular a different rate constant)."""

    @staticmethod
    def _leader_spec(rate=1.0, mode="uniform", engine="count", **overrides):
        from repro.crn import CRN
        from repro.crn.library import single_leader_predicate
        from repro.harness.parallel import KIND_CRN

        options = dict(
            kind=KIND_CRN,
            population_size=60,
            size_index=0,
            run_index=0,
            base_seed=7,
            engine=engine,
            max_parallel_time=500.0,
            crn=CRN.from_spec(
                [f"L + L -> L + F @ {rate}"], name="leader", fractions={"L": 1.0}
            ),
            crn_mode=mode,
            predicate=single_leader_predicate,
        )
        options.update(overrides)
        return TrialSpec(**options)

    def test_key_is_stable_across_identical_specs(self):
        assert self._leader_spec().cache_key() == self._leader_spec().cache_key()

    def test_rate_constant_changes_the_key(self):
        assert (
            self._leader_spec(rate=1.0).cache_key()
            != self._leader_spec(rate=2.0).cache_key()
        )

    def test_lowering_mode_changes_the_key(self):
        assert (
            self._leader_spec(mode="uniform").cache_key()
            != self._leader_spec(mode="thinned").cache_key()
        )

    def test_initial_condition_changes_the_key(self):
        from repro.crn import CRN

        seeded = CRN.from_spec(
            ["L + L -> L + F @ 1.0"],
            name="leader",
            seeds={"F": 1},
            fractions={"L": 1.0},
        )
        assert (
            self._leader_spec().cache_key()
            != self._leader_spec(crn=seeded).cache_key()
        )

    def test_network_structure_changes_the_key(self):
        from repro.crn import CRN

        reversed_products = CRN.from_spec(
            ["L + L -> F + L @ 1.0"], name="leader", fractions={"L": 1.0}
        )
        assert (
            self._leader_spec().cache_key()
            != self._leader_spec(crn=reversed_products).cache_key()
        )

    def test_cached_crn_trial_not_served_for_different_rate(self, tmp_path):
        """End to end through the JSONL store: a cached slow-network trial
        must be re-executed, not replayed, when the rate constant changes."""
        from repro.harness.parallel import build_crn_trials
        from repro.crn import CRN
        from repro.crn.library import single_leader_predicate

        def trials(rate):
            crn = CRN.from_spec(
                [f"L + L -> L + F @ {rate}"], name="leader", fractions={"L": 1.0}
            )
            return build_crn_trials(
                [60],
                2,
                crn,
                engine="count",
                predicate=single_leader_predicate,
                max_chemical_time=500.0,
            )

        store = JsonlStore(tmp_path, name="crn-rates")
        first = run_trials(trials(1.0), store=store)
        assert (first.executed, first.from_cache) == (2, 0)
        replay = run_trials(trials(1.0), store=store)
        assert (replay.executed, replay.from_cache) == (0, 2)
        changed = run_trials(trials(2.0), store=store)
        assert (changed.executed, changed.from_cache) == (2, 0)
        # The single duel reaction normalises to per-interaction probability
        # 1 under either rate constant, so the parallel-time trajectory is
        # seed-identical — but the rate scale doubles, so chemical time
        # halves.  A replayed stale record would report the old value.
        for slow, fast in zip(replay.records, changed.records):
            assert fast.extra["chemical_time"] == pytest.approx(
                slow.extra["chemical_time"] / 2.0
            )

    def test_crn_records_round_trip_through_the_cache_file(self, tmp_path):
        store = JsonlStore(tmp_path, name="crn-roundtrip")
        spec = self._leader_spec()
        record = run_trial(spec)
        store.append(spec.cache_key(), record)
        reloaded = JsonlStore(tmp_path, name="crn-roundtrip")
        cached = reloaded.get(spec.cache_key())
        assert records_equal(cached, record)
        assert cached.extra["counts"] == {"F": 59, "L": 1}


class TestCacheKeySensitivity:
    """Every TrialSpec field must flip the cache key when it changes.

    Parametrized from the staticcheck audit table so the regression test and
    `repro check --only contracts` can never drift apart: a new field added
    to TrialSpec without a perturbation fails the contract check, and a
    perturbation that stops changing the key fails here.
    """

    @pytest.mark.parametrize(
        "perturbation",
        [
            pytest.param(p, id=p.field)
            for p in trial_spec_perturbations()[1]
        ],
    )
    def test_field_participates_in_cache_key(self, perturbation):
        baseline, _ = trial_spec_perturbations()
        kwargs = dict(baseline)
        kwargs.update(perturbation.base)
        base_spec = TrialSpec(**kwargs)
        variant_kwargs = dict(kwargs)
        variant_kwargs[perturbation.field] = perturbation.variant
        variant_spec = TrialSpec(**variant_kwargs)
        assert base_spec.cache_key() != variant_spec.cache_key(), (
            f"field {perturbation.field!r} does not affect the cache key"
        )

    def test_audit_table_covers_every_field(self):
        _, perturbations = trial_spec_perturbations()
        audited = {p.field for p in perturbations}
        declared = {f.name for f in dataclasses.fields(TrialSpec) if f.init}
        assert audited == declared
