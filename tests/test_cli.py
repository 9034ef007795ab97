"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in (
            "estimate",
            "figure2",
            "accuracy",
            "states",
            "termination",
            "bounds",
            "simulate",
            "sweep",
            "engines",
            "protocols",
        ):
            args = parser.parse_args([command] if command != "bounds" else ["bounds"])
            assert args.command == command

    def test_simulate_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--engine", "warp"])

    @pytest.mark.parametrize(
        "command", [["sweep"], ["crn", "sweep"]], ids=["sweep", "crn-sweep"]
    )
    def test_sweeps_reject_the_removed_resume_flag(self, command, tmp_path):
        # Every store resumes, so --resume no longer exists.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                command + ["--cache-dir", str(tmp_path), "--resume"]
            )
        assert excinfo.value.code == 2


class TestCommands:
    def test_bounds_text(self, capsys):
        assert main(["bounds", "--n", "1024"]) == 0
        output = capsys.readouterr().out
        assert "Theorem 3.1" in output
        assert "1024" in output

    def test_bounds_json(self, capsys):
        assert main(["bounds", "--n", "512", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["population"] == 512
        assert payload["additive_error_claim"] == 5.7

    def test_estimate_fast(self, capsys):
        assert main(["estimate", "--n", "96", "--fast", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "converged" in output
        assert "max_additive_error" in output

    def test_figure2_fast(self, capsys, tmp_path):
        csv_path = tmp_path / "fig2.csv"
        code = main(
            [
                "figure2",
                "--fast",
                "--sizes",
                "64,128",
                "--runs",
                "1",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Figure 2 reproduction" in output
        assert "max additive error" in output
        assert csv_path.exists()
        assert csv_path.read_text().startswith("population_size,")

    def test_accuracy_fast(self, capsys):
        assert main(["accuracy", "--fast", "--sizes", "64", "--runs", "1"]) == 0
        assert "Theorem 3.1 accuracy" in capsys.readouterr().out

    def test_states_fast(self, capsys):
        assert main(["states", "--fast", "--sizes", "64"]) == 0
        assert "state complexity" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["agent", "count", "batched", "vector"])
    def test_simulate_epidemic_all_engines(self, capsys, engine):
        code = main(
            [
                "simulate",
                "--protocol",
                "epidemic",
                "--n",
                "300",
                "--engine",
                engine,
                "--seed",
                "4",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert f"engine                    : {engine}" in output
        assert "converged                 : True" in output
        assert "output[True]              : 300" in output

    def test_simulate_majority_batched(self, capsys):
        code = main(
            ["simulate", "--protocol", "majority", "--n", "2000", "--engine", "batched"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "ApproximateMajority" in output
        assert "converged                 : True" in output

    def test_simulate_termination_signal(self, capsys):
        code = main(
            [
                "simulate",
                "--protocol",
                "termination",
                "--n",
                "5000",
                "--engine",
                "batched",
                "--batch-size",
                "64",
            ]
        )
        assert code == 0
        assert "FiniteStateCounterTermination" in capsys.readouterr().out

    def test_simulate_non_convergence_exit_code(self, capsys):
        # Leader election needs Theta(n) time; a tiny budget cannot finish.
        code = main(
            [
                "simulate",
                "--protocol",
                "leader",
                "--n",
                "5000",
                "--engine",
                "count",
                "--max-time",
                "1",
            ]
        )
        assert code == 1
        assert "converged                 : False" in capsys.readouterr().out

    def test_sweep_serial(self, capsys):
        code = main(
            [
                "sweep",
                "--protocol",
                "epidemic",
                "--sizes",
                "64,128",
                "--runs",
                "2",
                "--engine",
                "count",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "4 total, 4 executed, 0 from cache" in output
        assert "P(converged)" in output

    def test_sweep_parallel_with_resume(self, capsys, tmp_path):
        args = [
            "sweep",
            "--protocol",
            "epidemic",
            "--sizes",
            "64,128",
            "--runs",
            "2",
            "--engine",
            "count",
            "--workers",
            "2",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "4 executed, 0 from cache" in first
        # Re-running the identical sweep executes zero trials.
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 executed, 4 from cache" in second
        assert (tmp_path / "epidemic-count.jsonl").exists()

    def test_sweep_non_convergence_exit_code(self, capsys):
        code = main(
            [
                "sweep",
                "--protocol",
                "leader",
                "--sizes",
                "2000",
                "--runs",
                "1",
                "--engine",
                "count",
                "--max-time",
                "1",
            ]
        )
        assert code == 1

    def test_sweep_vector_figure2(self, capsys, tmp_path):
        args = [
            "sweep",
            "--engine",
            "vector",
            "--protocol",
            "figure2",
            "--fast",
            "--sizes",
            "64,128",
            "--runs",
            "2",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(args) == 0
        output = capsys.readouterr().out
        assert "'figure2' on the vector engine" in output
        assert "4 total, 4 executed, 0 from cache" in output
        assert "non-conv" in output
        assert (tmp_path / "figure2-vector.jsonl").exists()
        # Re-running the identical sweep replays every trial from the cache.
        assert main(args) == 0
        assert "0 executed, 4 from cache" in capsys.readouterr().out

    def test_sweep_vector_leader_terminating(self, capsys):
        code = main(
            [
                "sweep",
                "--engine",
                "vector",
                "--protocol",
                "leader-terminating",
                "--fast",
                "--phase-count",
                "8",
                "--sizes",
                "64",
                "--runs",
                "1",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "'leader-terminating' on the vector engine" in output
        assert "1 total, 1 executed" in output

    def test_sweep_vector_workload_requires_vector_engine(self, capsys):
        code = main(
            ["sweep", "--protocol", "figure2", "--engine", "batched", "--sizes", "64"]
        )
        assert code == 2
        assert "pass --engine vector" in capsys.readouterr().err

    def test_sweep_vector_rejects_inapplicable_engine_flags(self, capsys):
        code = main(
            [
                "sweep",
                "--engine",
                "vector",
                "--protocol",
                "figure2",
                "--batch-size",
                "64",
                "--sizes",
                "64",
            ]
        )
        assert code == 2
        assert "--batch-size" in capsys.readouterr().err
        code = main(
            [
                "sweep",
                "--engine",
                "vector",
                "--protocol",
                "figure2",
                "--check-interval",
                "100",
                "--sizes",
                "64",
            ]
        )
        assert code == 2
        assert "--check-interval" in capsys.readouterr().err

    def test_sweep_phase_count_rejected_for_other_workloads(self, capsys):
        code = main(
            [
                "sweep",
                "--engine",
                "vector",
                "--protocol",
                "figure2",
                "--phase-count",
                "8",
                "--sizes",
                "64",
            ]
        )
        assert code == 2
        assert "leader-terminating" in capsys.readouterr().err

    def test_sweep_finite_state_rejects_vector_only_flags(self, capsys):
        base = ["sweep", "--protocol", "epidemic", "--engine", "count",
                "--sizes", "64", "--runs", "1"]
        code = main(base + ["--phase-count", "8"])
        assert code == 2
        assert "--phase-count" in capsys.readouterr().err
        code = main(base + ["--fast"])
        assert code == 2
        assert "--fast" in capsys.readouterr().err

    def test_termination_command(self, capsys):
        code = main(
            [
                "termination",
                "--sizes",
                "16,32",
                "--runs",
                "1",
                "--threshold",
                "6",
                "--budget",
                "50",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Theorem 4.1" in output
        assert "uniform dense protocol" in output
        assert "leader-driven" in output


class TestSchedulerCli:
    def test_engines_command_prints_matrix(self, capsys):
        assert main(["engines"]) == 0
        output = capsys.readouterr().out
        assert "engine x scheduler compatibility" in output
        for name in ("sequential", "matching", "weighted", "two-block",
                     "quiescing", "state-weighted"):
            assert name in output
        assert "yes *" in output  # per-engine defaults are marked

    def test_simulate_with_nonuniform_scheduler(self, capsys):
        code = main(
            [
                "simulate", "--protocol", "epidemic", "--n", "500",
                "--engine", "agent", "--scheduler", "two-block",
                "--scheduler-opt", "intra=0.9", "--seed", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "two-block(intra=0.9) scheduler" in output

    def test_simulate_rejects_incompatible_scheduler(self, capsys):
        code = main(
            [
                "simulate", "--protocol", "epidemic", "--n", "100",
                "--engine", "count", "--scheduler", "matching",
            ]
        )
        assert code == 2
        assert "not compatible" in capsys.readouterr().err

    def test_scheduler_opt_requires_scheduler(self, capsys):
        code = main(
            [
                "simulate", "--protocol", "epidemic", "--n", "100",
                "--scheduler-opt", "intra=0.9",
            ]
        )
        assert code == 2
        assert "--scheduler" in capsys.readouterr().err

    def test_malformed_scheduler_opt_rejected(self, capsys):
        code = main(
            [
                "simulate", "--protocol", "epidemic", "--n", "100",
                "--engine", "agent", "--scheduler", "weighted",
                "--scheduler-opt", "lazy_rate",
            ]
        )
        assert code == 2
        assert "key=value" in capsys.readouterr().err

    def test_sweep_with_scheduler_and_cache(self, capsys, tmp_path):
        common = [
            "sweep", "--protocol", "epidemic", "--sizes", "200", "--runs", "1",
            "--engine", "vector", "--scheduler", "weighted",
            "--scheduler-opt", "lazy_rate=0.25",
            "--cache-dir", str(tmp_path),
        ]
        assert main(common) == 0
        first = capsys.readouterr().out
        assert "weighted(lazy_rate=0.25) scheduler" in first
        assert "1 executed, 0 from cache" in first
        assert main(common) == 0
        second = capsys.readouterr().out
        assert "0 executed, 1 from cache" in second

    def test_sweep_rejects_incompatible_scheduler(self, capsys):
        code = main(
            [
                "sweep", "--protocol", "epidemic", "--sizes", "100",
                "--engine", "batched", "--scheduler", "quiescing",
            ]
        )
        assert code == 2
        assert "not compatible" in capsys.readouterr().err

    def test_state_weighted_rates_expressible_from_the_cli(self, capsys):
        code = main(
            [
                "simulate", "--protocol", "epidemic", "--n", "300",
                "--engine", "count", "--scheduler", "state-weighted",
                "--scheduler-opt", "rates=I:0.5", "--seed", "2",
            ]
        )
        assert code == 0
        assert "state-weighted(rates=I:0.5) scheduler" in capsys.readouterr().out

    def test_malformed_state_weighted_rates_exit_cleanly(self, capsys):
        code = main(
            [
                "simulate", "--protocol", "epidemic", "--n", "100",
                "--engine", "count", "--scheduler", "state-weighted",
                "--scheduler-opt", "rates=I-0.5",
            ]
        )
        assert code == 2
        assert "STATE:RATE" in capsys.readouterr().err

    def test_state_weighted_rate_typos_rejected(self, capsys):
        # Regression: a rate key naming no protocol state used to fall back
        # to default_rate for every state, silently running the uniform
        # scheduler under a non-uniform cache key.
        code = main(
            [
                "simulate", "--protocol", "epidemic", "--n", "100",
                "--engine", "count", "--scheduler", "state-weighted",
                "--scheduler-opt", "rates=X:0.5",
            ]
        )
        assert code == 2
        assert "outside the protocol's state set" in capsys.readouterr().err


class TestProtocolsCommand:
    def test_lists_all_three_registries(self, capsys):
        assert main(["protocols"]) == 0
        output = capsys.readouterr().out
        assert "finite-state" in output
        assert "figure2" in output and "vector" in output
        assert "approximate-majority" in output and "crn" in output
        assert "agent,count,batched,vector" in output


class TestSchedulerOptionValidation:
    def test_uncoercible_option_value_exits_cleanly(self, capsys):
        code = main(
            [
                "simulate",
                "--protocol",
                "epidemic",
                "--n",
                "100",
                "--engine",
                "agent",
                "--scheduler",
                "weighted",
                "--scheduler-opt",
                "lazy_rate=abc",
            ]
        )
        assert code == 2
        error = capsys.readouterr().err
        assert "lazy_rate" in error and "float" in error

    def test_unknown_option_key_exits_cleanly(self, capsys):
        code = main(
            [
                "simulate",
                "--protocol",
                "epidemic",
                "--n",
                "100",
                "--engine",
                "agent",
                "--scheduler",
                "weighted",
                "--scheduler-opt",
                "bogus=1",
            ]
        )
        assert code == 2
        assert "does not accept option 'bogus'" in capsys.readouterr().err


class TestCRNCommands:
    def test_crn_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crn"])

    def test_info_lists_the_library(self, capsys):
        assert main(["crn", "info"]) == 0
        output = capsys.readouterr().out
        assert "approximate-majority" in output
        assert "sir" in output

    def test_info_shows_one_network(self, capsys):
        assert main(["crn", "info", "--crn", "sir"]) == 0
        output = capsys.readouterr().out
        assert "S + I -> I + I @ 2" in output
        assert "rate_scale" in output
        assert "thinned activity rates" in output

    def test_info_adhoc_network(self, capsys):
        code = main(
            ["crn", "info", "--reaction", "A + B -> B + B @ 0.5", "--init", "A:1,B:1"]
        )
        assert code == 0
        assert "A + B -> B + B @ 0.5" in capsys.readouterr().out

    def test_info_rejects_mixing_registry_and_adhoc(self, capsys):
        code = main(
            ["crn", "info", "--crn", "sir", "--reaction", "A + B -> B + B"]
        )
        assert code == 2
        assert "cannot be combined" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["agent", "count", "batched", "vector"])
    def test_simulate_workload_on_every_engine(self, capsys, engine):
        code = main(
            [
                "crn",
                "simulate",
                "--crn",
                "epidemic",
                "--n",
                "200",
                "--engine",
                engine,
                "--seed",
                "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "converged       : True" in output
        assert "count[I]        : 200" in output

    def test_simulate_thinned_mode(self, capsys):
        code = main(
            [
                "crn",
                "simulate",
                "--crn",
                "leader",
                "--n",
                "200",
                "--engine",
                "count",
                "--mode",
                "thinned",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "mode            : thinned" in output
        assert "count[L]        : 1" in output

    def test_simulate_thinned_rejects_agent_engine(self, capsys):
        code = main(
            [
                "crn",
                "simulate",
                "--crn",
                "leader",
                "--engine",
                "agent",
                "--mode",
                "thinned",
            ]
        )
        assert code == 2
        assert "thinned" in capsys.readouterr().err

    def test_simulate_adhoc_runs_fixed_chemical_duration(self, capsys):
        code = main(
            [
                "crn",
                "simulate",
                "--reaction",
                "L + L -> L + F",
                "--init",
                "L:1",
                "--n",
                "300",
                "--chem-time",
                "2000",
                "--engine",
                "count",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "count[L]        : 1" in output
        assert "count[F]        : 299" in output
        # No predicate was evaluated, so no convergence claim is reported.
        assert "converged" not in output

    def test_simulate_adhoc_thinned_rejected(self, capsys):
        code = main(
            [
                "crn",
                "simulate",
                "--reaction",
                "L + L -> L + F",
                "--init",
                "L:1",
                "--chem-time",
                "5",
                "--engine",
                "count",
                "--mode",
                "thinned",
            ]
        )
        assert code == 2
        assert "chemical time" in capsys.readouterr().err

    def test_simulate_adhoc_needs_chem_time(self, capsys):
        code = main(
            ["crn", "simulate", "--reaction", "L + L -> L + F", "--init", "L:1"]
        )
        assert code == 2
        assert "--chem-time" in capsys.readouterr().err

    def test_simulate_malformed_reaction_exits_cleanly(self, capsys):
        code = main(
            ["crn", "simulate", "--reaction", "L + L => L + F", "--init", "L:1"]
        )
        assert code == 2
        assert "malformed" in capsys.readouterr().err.lower()

    def test_sweep_with_cache_and_resume(self, capsys, tmp_path):
        argv = [
            "crn",
            "sweep",
            "--crn",
            "epidemic",
            "--sizes",
            "100,200",
            "--runs",
            "2",
            "--engine",
            "count",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "4 executed, 0 from cache" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 executed, 4 from cache" in second

    def test_sweep_cache_dir_is_shorthand_for_a_jsonl_store(
        self, capsys, tmp_path
    ):
        argv = [
            "crn", "sweep", "--crn", "epidemic", "--sizes", "100", "--runs",
            "2", "--engine", "count",
        ]
        assert main(argv + ["--cache-dir", str(tmp_path / "a")]) == 0
        assert f"store: jsonl:{tmp_path / 'a'}" in capsys.readouterr().out
        assert main(argv + ["--store", f"jsonl:{tmp_path / 'b'}"]) == 0
        capsys.readouterr()
        (shard_a,) = (tmp_path / "a").glob("*.jsonl")
        shard_b = tmp_path / "b" / shard_a.name
        assert shard_a.read_bytes() == shard_b.read_bytes()
        assert main(argv + ["--store", f"jsonl:{tmp_path / 'a'}"]) == 0
        assert "0 executed, 2 from cache" in capsys.readouterr().out
        assert main(argv + ["--cache-dir", str(tmp_path / "b")]) == 0
        assert "0 executed, 2 from cache" in capsys.readouterr().out

    def test_sweep_thinned_rejects_vector_engine(self, capsys):
        code = main(
            [
                "crn",
                "sweep",
                "--crn",
                "leader",
                "--engine",
                "vector",
                "--mode",
                "thinned",
                "--sizes",
                "100",
            ]
        )
        assert code == 2
        assert "thinned" in capsys.readouterr().err


class TestBackendFlag:
    """The array-backend seam surfaces on every engine-running subcommand."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--backend", "numpy"],
            ["sweep", "--backend", "numpy"],
            ["profile", "--backend", "numpy"],
            ["crn", "simulate", "--backend", "numpy"],
            ["crn", "sweep", "--crn", "epidemic", "--backend", "numpy"],
        ],
    )
    def test_backend_flag_parses(self, argv):
        assert build_parser().parse_args(argv).backend == "numpy"

    def test_unknown_backend_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--backend", "warp"])

    def test_engines_reports_backend_availability(self, capsys):
        assert main(["engines"]) == 0
        output = capsys.readouterr().out
        assert "array backends" in output
        for name in ("numpy", "numba", "native"):
            assert name in output
        assert "REPRO_BACKEND" in output

    def test_simulate_runs_with_explicit_numpy_backend(self, capsys):
        code = main(
            [
                "simulate",
                "--protocol",
                "epidemic",
                "--n",
                "2000",
                "--engine",
                "batched",
                "--backend",
                "numpy",
            ]
        )
        assert code == 0
        assert "converged" in capsys.readouterr().out

    def test_sweep_runs_with_explicit_numpy_backend(self, capsys):
        code = main(
            [
                "sweep",
                "--protocol",
                "epidemic",
                "--sizes",
                "500,1000",
                "--runs",
                "2",
                "--engine",
                "batched",
                "--backend",
                "numpy",
            ]
        )
        assert code == 0
        assert "P(converged)" in capsys.readouterr().out

    def test_vector_sweep_accepts_backend(self, capsys):
        code = main(
            [
                "sweep",
                "--protocol",
                "figure2",
                "--engine",
                "vector",
                "--sizes",
                "1000",
                "--runs",
                "1",
                "--fast",
                "--backend",
                "numpy",
            ]
        )
        assert code == 0
        assert "P(converged)" in capsys.readouterr().out

    def test_crn_simulate_accepts_backend(self, capsys):
        code = main(
            [
                "crn",
                "simulate",
                "--crn",
                "leader",
                "--n",
                "500",
                "--engine",
                "batched",
                "--backend",
                "numpy",
            ]
        )
        assert code == 0
        assert "converged" in capsys.readouterr().out


class TestProfileCommand:
    def test_profile_fixed_interactions(self, capsys):
        code = main(
            [
                "profile",
                "--protocol",
                "epidemic",
                "--n",
                "2000",
                "--engine",
                "batched",
                "--interactions",
                "20000",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "interactions_per_second" in output
        assert "top" in output and "cumulative time" in output
        assert "kernel breakdown" in output
        assert "repro/" in output  # kernel frames resolved to repo paths

    def test_profile_run_to_convergence(self, capsys):
        code = main(
            [
                "profile",
                "--protocol",
                "epidemic",
                "--n",
                "1000",
                "--engine",
                "count",
                "--max-time",
                "60",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "converged" in output
        assert "kernel breakdown" in output

    def test_profile_vector_engine(self, capsys):
        code = main(
            [
                "profile",
                "--protocol",
                "epidemic",
                "--n",
                "1000",
                "--engine",
                "vector",
                "--interactions",
                "10000",
                "--top",
                "5",
            ]
        )
        assert code == 0
        assert "vector engine" in capsys.readouterr().out

    def test_profile_reports_engine_errors_cleanly(self, capsys):
        code = main(
            [
                "profile",
                "--protocol",
                "epidemic",
                "--engine",
                "vector",
                "--batch-size",
                "32",
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestStoreCli:
    """--store plumbing on sweeps plus the `repro store` subcommands."""

    @staticmethod
    def _sweep_args(store_url, sizes="64,128"):
        return [
            "sweep",
            "--protocol",
            "epidemic",
            "--sizes",
            sizes,
            "--runs",
            "2",
            "--engine",
            "count",
            "--store",
            store_url,
        ]

    def test_store_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["store", "status", "--store", "sqlite:x"])
        assert args.command == "store"
        args = parser.parse_args(["store", "serve", "--db", "x.sqlite"])
        assert args.command == "store"

    def test_store_serve_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "serve", "--help"])
        assert excinfo.value.code == 0
        assert "--db" in capsys.readouterr().out

    def test_sweep_store_and_cache_dir_are_mutually_exclusive(
        self, capsys, tmp_path
    ):
        code = main(
            self._sweep_args(f"sqlite:{tmp_path / 'db.sqlite'}")
            + ["--cache-dir", str(tmp_path)]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_sweep_sqlite_store_resumes(self, capsys, tmp_path):
        args = self._sweep_args(f"sqlite:{tmp_path / 'db.sqlite'}")
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "4 total, 4 executed, 0 from cache" in first
        assert "store: sqlite:" in first
        # Identical sweep against the same store: nothing left to execute.
        assert main(args) == 0
        assert "0 executed, 4 from cache" in capsys.readouterr().out
        # Growing the sweep executes only the new trials.
        assert main(self._sweep_args(f"sqlite:{tmp_path / 'db.sqlite'}",
                                     sizes="64,128,192")) == 0
        assert "6 total, 2 executed, 4 from cache" in capsys.readouterr().out

    def test_sweep_sqlite_store_resumes_after_midsweep_kill(
        self, capsys, tmp_path
    ):
        import sqlite3
        import time as _time

        db = tmp_path / "db.sqlite"
        args = self._sweep_args(f"sqlite:{db}")
        assert main(args) == 0
        capsys.readouterr()
        # Emulate a driver killed mid-trial: one record never landed and the
        # dead owner still holds an (expired) lease on its key.
        connection = sqlite3.connect(db)
        with connection:
            (key,) = connection.execute(
                "SELECT key FROM results LIMIT 1"
            ).fetchone()
            connection.execute("DELETE FROM results WHERE key = ?", (key,))
            now = _time.time()
            connection.execute(
                "INSERT INTO leases (key, owner, acquired_at, expires_at) "
                "VALUES (?, ?, ?, ?)",
                (key, "killed-driver", now - 10.0, now - 5.0),
            )
        connection.close()
        assert main(args) == 0
        assert "4 total, 1 executed, 3 from cache" in capsys.readouterr().out

    def test_crn_sweep_with_sqlite_store(self, capsys, tmp_path):
        args = [
            "crn",
            "sweep",
            "--crn",
            "epidemic",
            "--sizes",
            "100",
            "--runs",
            "2",
            "--engine",
            "count",
            "--store",
            f"sqlite:{tmp_path / 'db.sqlite'}",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "2 total, 2 executed, 0 from cache" in first
        assert "store: sqlite:" in first
        assert main(args) == 0
        assert "0 executed, 2 from cache" in capsys.readouterr().out

    def test_store_status_reports_counts_and_stale_leases(
        self, capsys, tmp_path
    ):
        from repro.store.sqlite import SqliteStore

        url = f"sqlite:{tmp_path / 'db.sqlite'}"
        assert main(self._sweep_args(url)) == 0
        with SqliteStore(tmp_path / "db.sqlite") as store:
            store.claim("unfinished-key", lease=0.01, owner="dead-driver")
        import time as _time

        _time.sleep(0.05)
        capsys.readouterr()
        assert main(["store", "status", "--store", url]) == 0
        output = capsys.readouterr().out
        assert "completed trials" in output and ": 4" in output
        assert "stale leases (reclaimable)" in output
        assert "dead-driver" in output and "STALE" in output
        assert "throughput by workload" in output
        # Finite-state records carry no protocol name, so the workload label
        # degrades to the engine name.
        assert "count" in output

    def test_store_status_rejects_bad_url(self, capsys):
        assert main(["store", "status", "--store", "warp:x"]) == 2
        assert "error" in capsys.readouterr().err

    def test_cache_dir_is_shorthand_for_a_jsonl_store(self, capsys, tmp_path):
        cache_args = self._sweep_args("") + ["--cache-dir", str(tmp_path / "a")]
        store_args = self._sweep_args(f"jsonl:{tmp_path / 'b'}")
        assert main(cache_args) == 0
        assert f"store: jsonl:{tmp_path / 'a'}" in capsys.readouterr().out
        assert main(store_args) == 0
        capsys.readouterr()
        # Both spellings write the same shard, byte for byte...
        shard_a = tmp_path / "a" / "epidemic-count.jsonl"
        shard_b = tmp_path / "b" / "epidemic-count.jsonl"
        assert shard_a.read_bytes() == shard_b.read_bytes()
        # ...and each replays the trials the other wrote.
        assert main(self._sweep_args(f"jsonl:{tmp_path / 'a'}")) == 0
        assert "0 executed, 4 from cache" in capsys.readouterr().out
        assert main(self._sweep_args("") + ["--cache-dir", str(tmp_path / "b")]) == 0
        assert "0 executed, 4 from cache" in capsys.readouterr().out

    def test_store_status_counts_every_jsonl_shard(self, capsys, tmp_path):
        assert main(self._sweep_args(f"jsonl:{tmp_path}")) == 0
        assert f"store: jsonl:{tmp_path}\n" in capsys.readouterr().out
        assert main(["store", "status", "--store", f"jsonl:{tmp_path}"]) == 0
        output = capsys.readouterr().out
        assert "completed trials" in output and ": 4" in output

    def test_jsonl_store_on_a_shard_file_exits_cleanly(self, capsys, tmp_path):
        assert main(self._sweep_args(f"jsonl:{tmp_path}")) == 0
        capsys.readouterr()
        shard = f"jsonl:{tmp_path / 'epidemic-count.jsonl'}"
        assert main(self._sweep_args(shard)) == 2
        assert "is a file" in capsys.readouterr().err
        assert main(["store", "status", "--store", shard]) == 2
        assert "is a file" in capsys.readouterr().err
