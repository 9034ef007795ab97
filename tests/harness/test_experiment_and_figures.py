"""Tests for the experiment runners, the Figure 2 builder and the tables."""

from __future__ import annotations

import math

import pytest

from repro.core.parameters import ProtocolParameters
from repro.harness.experiment import (
    ExperimentSpec,
    run_finite_state_experiment,
    run_sequential_experiment,
)
from repro.harness.parallel import build_vector_trials, run_trials
from repro.harness.results import SweepResult
from repro.protocols.epidemic import EpidemicProtocol, epidemic_completion_predicate
from repro.harness.figures import figure2_from_sweep, reproduce_figure2
from repro.harness.tables import (
    accuracy_table,
    baseline_comparison_table,
    state_complexity_table,
)


FAST = ProtocolParameters.fast_test()


def figure2_sweep(sizes, runs, base_seed=0):
    """Protocol 1 on the vector engine: the ``figure2`` workload's records."""
    specs = build_vector_trials(sizes, runs, "figure2", FAST, base_seed=base_seed)
    return SweepResult(name="figure2", records=run_trials(specs).records)


class TestExperimentSpec:
    def test_seed_derivation_is_distinct(self):
        spec = ExperimentSpec(population_sizes=[16, 32], runs_per_size=3, base_seed=5)
        seeds = {
            spec.seed_for(size_index, run_index)
            for size_index in range(2)
            for run_index in range(3)
        }
        assert len(seeds) == 6

    def test_budget_grows_with_population(self):
        spec = ExperimentSpec(population_sizes=[16], params=FAST)
        assert spec.budget_for(4_096) > spec.budget_for(64)


class TestRunners:
    def test_figure2_vector_trials_produce_records(self):
        sweep = figure2_sweep([64, 128], 2, base_seed=1)
        assert len(sweep.records) == 4
        assert sweep.population_sizes() == [64, 128]
        assert all(record.converged for record in sweep.records)
        assert all(record.extra["engine"] == "vector" for record in sweep.records)
        assert all(record.extra["protocol"] == "figure2" for record in sweep.records)

    def test_sequential_experiment_produces_records(self):
        spec = ExperimentSpec(
            population_sizes=[48], runs_per_size=2, params=FAST, base_seed=2
        )
        sweep = run_sequential_experiment(spec)
        assert len(sweep.records) == 2
        assert all(record.converged for record in sweep.records)
        assert all(record.max_additive_error < 5.7 for record in sweep.records)


class TestFiniteStateExperiment:
    @pytest.mark.parametrize("engine", ["agent", "count", "batched"])
    def test_runs_on_every_engine(self, engine):
        sweep = run_finite_state_experiment(
            protocol_factory=EpidemicProtocol,
            predicate=epidemic_completion_predicate,
            population_sizes=[64, 128],
            runs_per_size=2,
            max_parallel_time=200.0,
            engine=engine,
            base_seed=9,
        )
        assert len(sweep.records) == 4
        assert all(record.converged for record in sweep.records)
        assert all(record.extra["engine"] == engine for record in sweep.records)
        assert all(record.extra["outputs"] == {"True": record.population_size}
                   for record in sweep.records)

    def test_engine_options_forwarded_to_batched(self):
        sweep = run_finite_state_experiment(
            protocol_factory=EpidemicProtocol,
            predicate=epidemic_completion_predicate,
            population_sizes=[100],
            runs_per_size=1,
            engine="batched",
            batch_size=5,
        )
        assert sweep.records[0].converged

    def test_unknown_engine_raises(self):
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError):
            run_finite_state_experiment(
                protocol_factory=EpidemicProtocol,
                predicate=epidemic_completion_predicate,
                population_sizes=[32],
                engine="warp",
            )


class TestFigure2:
    @pytest.fixture(scope="class")
    def figure(self):
        return reproduce_figure2(
            population_sizes=[64, 128, 256],
            runs_per_size=2,
            params=FAST,
            base_seed=3,
        )

    def test_all_runs_converged(self, figure):
        assert figure.non_converged_runs == 0
        assert len(figure.points) == 6

    def test_sizes_and_mean_times(self, figure):
        assert figure.sizes() == [64, 128, 256]
        means = figure.mean_times()
        assert len(means) == 3
        assert means[-1] > means[0]  # convergence time grows with n

    def test_errors_bounded(self, figure):
        assert figure.max_error_observed() < 5.0

    def test_table_and_plot_render(self, figure):
        assert "mean time" in figure.table()
        assert "*" in figure.ascii_plot()

    def test_csv_export(self, figure):
        csv = figure.to_csv()
        lines = csv.splitlines()
        assert lines[0].startswith("population_size,")
        assert len(lines) == 1 + len(figure.points)

    def test_growth_exponent_positive(self, figure):
        slope = figure.growth_exponent()
        assert slope is not None
        assert slope > 0

    def test_figure2_from_sweep_counts_failures(self):
        sweep = figure2_sweep([64], 1)
        sweep.records[0] = type(sweep.records[0])(
            population_size=64,
            seed=0,
            converged=False,
            convergence_time=None,
        )
        result = figure2_from_sweep(sweep, FAST)
        assert result.non_converged_runs == 1

    def test_non_converged_runs_reported_per_size_not_dropped(self):
        """Regression: non-converged runs used to silently shrink the table's
        ``runs`` column below the requested runs_per_size."""
        sweep = figure2_sweep([64, 96], 2)
        # Mark one of the two n=96 runs as budget-exhausted.
        failed_index = next(
            index
            for index, record in enumerate(sweep.records)
            if record.population_size == 96
        )
        sweep.records[failed_index] = type(sweep.records[failed_index])(
            population_size=96,
            seed=sweep.records[failed_index].seed,
            converged=False,
            convergence_time=None,
            max_additive_error=float("inf"),
        )
        result = figure2_from_sweep(sweep, FAST)
        assert result.non_converged_by_size() == {64: 0, 96: 1}
        assert len(result.non_converged_points) == 1
        assert result.sizes() == [64, 96]
        table = result.table()
        assert "non-conv" in table
        csv_lines = result.to_csv().splitlines()
        assert csv_lines[0] == (
            "population_size,seed,converged,convergence_time,max_additive_error"
        )
        # Every requested run appears in the export, converged or not.
        assert len(csv_lines) == 1 + 4
        failed_rows = [line for line in csv_lines[1:] if ",False," in line]
        assert len(failed_rows) == 1
        assert failed_rows[0].startswith("96,")
        # The inf error is exported as an empty cell, not a bare "inf".
        assert failed_rows[0].endswith(",")

    def test_all_runs_failed_at_a_size_keeps_the_size_visible(self):
        sweep = figure2_sweep([64], 1)
        sweep.records[0] = type(sweep.records[0])(
            population_size=64,
            seed=0,
            converged=False,
            convergence_time=None,
        )
        result = figure2_from_sweep(sweep, FAST)
        assert result.sizes() == [64]
        assert math.isnan(result.mean_times()[0])
        assert "non-conv" in result.table()
        assert "no converged runs" in result.ascii_plot()

    def test_growth_exponent_skips_sizes_with_no_converged_runs(self):
        sweep = figure2_sweep([64, 96], 1)
        failed_index = next(
            index
            for index, record in enumerate(sweep.records)
            if record.population_size == 96
        )
        sweep.records[failed_index] = type(sweep.records[failed_index])(
            population_size=96,
            seed=sweep.records[failed_index].seed,
            converged=False,
            convergence_time=None,
        )
        result = figure2_from_sweep(sweep, FAST)
        # Only one size has converged runs: no slope, but no crash either.
        assert result.growth_exponent() is None


class TestTables:
    def test_accuracy_table(self):
        table = accuracy_table([64, 128], runs_per_size=1, params=FAST, base_seed=4)
        assert table.headers[0] == "n"
        assert len(table.rows) == 2
        assert all(row[3] < 5.7 for row in table.rows)  # max |err| below the claim
        assert "claimed bound" in table.text

    def test_state_complexity_table(self):
        table = state_complexity_table([64, 128], params=FAST, base_seed=5)
        assert len(table.rows) == 2
        # The realised state bound should be monotone-ish and positive.
        assert all(row[5] > 0 for row in table.rows)

    def test_baseline_comparison_table(self):
        table = baseline_comparison_table(
            [64], runs_per_size=1, params=FAST, base_seed=6, baseline_budget=100.0
        )
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row[0] == 64
        assert row[4] == 5.7


class TestGoldenTableRows:
    """Rows pinned from the tables' earlier per-run engine facade.

    The accuracy table now runs ``figure2`` vector trials and the other two
    tables drive ``VectorSimulator(LogSizeVectorProtocol(...))`` directly;
    the seeds and budgets are unchanged, so every row must be too.
    """

    def test_accuracy_rows(self):
        table = accuracy_table([64, 256], runs_per_size=3, params=FAST, base_seed=7)
        assert [row[:4] for row in table.rows] == [
            (64, 3, pytest.approx(1.2761904761904763, rel=1e-12),
             pytest.approx(1.7857142857142856, rel=1e-12)),
            (256, 3, pytest.approx(1.203846153846154, rel=1e-12),
             pytest.approx(1.9615384615384617, rel=1e-12)),
        ]

    def test_state_complexity_rows(self):
        table = state_complexity_table([64, 256], params=FAST, base_seed=11)
        assert [row[:6] for row in table.rows] == [
            (64, 8, 16, 64, 9, 99450),
            (256, 13, 26, 107, 15, 653184),
        ]

    def test_baseline_comparison_row(self):
        table = baseline_comparison_table(
            [64], runs_per_size=2, params=FAST, base_seed=6, baseline_budget=100.0
        )
        assert table.rows == (
            (64, 1.0, 6.0, pytest.approx(1.8076923076923075, rel=1e-12), 5.7),
        )


class TestTimingBreakdown:
    """Satellite of the telemetry PR: per-phase time in tables and CSV."""

    def _points(self):
        from repro.harness.figures import Figure2Point

        timing = {
            "scheduler.draw_round": 0.4,
            "engine.apply_round": 0.3,
            "engine.convergence_check": 0.1,
            "total": 0.9,
        }
        return [
            Figure2Point(64, 1, 5.0, 0.5, timing=timing),
            Figure2Point(64, 2, 6.0, 0.4),  # telemetry-less run in same sweep
        ]

    def test_phase_breakdown_maps_recorder_timers(self):
        from repro.harness.reporting import mean_phase_breakdown, phase_breakdown

        assert phase_breakdown(
            {"scheduler.draw_round": 0.4, "engine.convergence_check": 0.1, "total": 1.0}
        ) == {"draw": 0.4, "check": 0.1, "total": 1.0}
        # Count engines report one fused engine.step: it feeds "apply".
        assert phase_breakdown({"engine.step": 0.7, "total": 0.8}) == {
            "apply": 0.7,
            "total": 0.8,
        }
        assert phase_breakdown(None) == {}
        means = mean_phase_breakdown(
            [{"engine.step": 0.6, "total": 1.0}, {"engine.step": 0.2, "total": 2.0}]
        )
        assert means == {"apply": 0.4, "total": 1.5}

    def test_csv_without_telemetry_keeps_the_historical_header(self):
        from repro.harness.figures import Figure2Point, Figure2Result

        result = Figure2Result(
            points=[Figure2Point(64, 2, 6.0, 0.4)],
            summaries={},
            params=FAST,
            non_converged_runs=0,
        )
        header = result.to_csv().splitlines()[0]
        assert header == (
            "population_size,seed,converged,convergence_time,max_additive_error"
        )

    def test_csv_with_telemetry_appends_phase_columns(self):
        from repro.harness.figures import Figure2Result

        result = Figure2Result(
            points=self._points(), summaries={}, params=FAST, non_converged_runs=0
        )
        lines = result.to_csv().splitlines()
        assert lines[0].endswith(
            ",draw_seconds,apply_seconds,check_seconds,total_seconds"
        )
        assert lines[1].endswith(",0.400000000,0.300000000,0.100000000,0.900000000")
        assert lines[2].endswith(",0.4,,,,")  # no telemetry: empty phase cells

    def test_table_with_telemetry_gains_mean_phase_columns(self):
        from repro.harness.figures import Figure2Result
        from repro.harness.results import SeriesSummary

        summary = SeriesSummary.from_values([5.0, 6.0])
        result = Figure2Result(
            points=self._points(),
            summaries={64: summary},
            params=FAST,
            non_converged_runs=0,
        )
        table = result.table()
        assert "mean draw s" in table
        assert "mean check s" in table

    def test_figure2_from_sweep_extracts_manifest_timing(self):
        from repro.harness.figures import figure2_from_sweep
        from repro.harness.results import RunRecord, SweepResult

        record = RunRecord(
            population_size=64,
            seed=3,
            converged=True,
            convergence_time=4.0,
            max_additive_error=0.3,
            extra={"telemetry": {"timing": {"engine.step": 0.5, "total": 0.6}}},
        )
        sweep = SweepResult(name="t", records=[record])
        result = figure2_from_sweep(sweep, FAST)
        assert result.points[0].timing == {"engine.step": 0.5, "total": 0.6}
        assert result.timing_phases() == ["apply", "total"]
