"""Command-line interface of the reproduction library.

Subcommands
-----------
``repro estimate --n 512``
    Run one size-estimation simulation and print the outcome.
``repro figure2 --sizes 128,256,512,1024 --runs 3``
    Reproduce the Figure 2 sweep (vectorised engine) and print the table,
    the ASCII plot and optionally a CSV file.
``repro accuracy --sizes 256,1024``
    Theorem 3.1 accuracy table.
``repro states --sizes 256,1024``
    Lemma 3.9 state-complexity table.
``repro termination --sizes 64,128,256``
    Theorem 4.1 experiment: termination-signal time of a uniform dense
    protocol vs a leader-driven protocol.
``repro bounds --n 4096``
    Print the paper's claimed probability bounds for a population size.
``repro simulate --protocol epidemic --n 1000000 --engine batched``
    Run a classic finite-state protocol to convergence on a selectable
    engine (agent-level reference, count-based, or batched — see
    ``DESIGN.md``, Engine selection).
``repro sweep --protocol majority --sizes 10000,100000 --runs 10 --workers 4 --cache-dir .repro-cache``
    Multi-size, multi-seed sweep of a finite-state workload through the
    parallel sweep driver: trials fan out over a worker pool, finished
    trials are appended to a result store (``--cache-dir DIR`` is shorthand
    for ``--store jsonl:DIR``), and stored trials replay so interrupted or
    repeated sweeps only execute what is missing (see ``DESIGN.md``, Sweep
    driver).
``repro sweep --engine vector --protocol figure2 --sizes 100000,1000000``
    The same sweep driver running the vector-engine workloads that are not
    finite-state: ``figure2`` (``Log-Size-Estimation`` to all-done) and
    ``leader-terminating`` (Theorem 3.13), at populations the agent engine
    cannot touch.
``repro simulate/sweep ... --scheduler two-block --scheduler-opt intra=0.95``
    Run under a non-uniform interaction scheduler (see ``repro engines`` for
    the engine × scheduler compatibility matrix and ``DESIGN.md``,
    Schedulers, for the scenario semantics).
``repro simulate/sweep/crn ... --backend native``
    Run the hot loops through a pluggable array backend (numpy reference,
    numba JIT, cffi-compiled C); unavailable backends warn and fall back
    to numpy (see ``DESIGN.md``, Array backends).
``repro profile --protocol epidemic --engine batched --backend native --interactions 2000000``
    cProfile one workload run on any engine × backend combination and
    print throughput plus a per-kernel timing breakdown.
``repro engines``
    Print the engine × scheduler compatibility matrix, one-line
    descriptions of every registered scheduler, and the array-backend
    availability report.
``repro protocols``
    List every registered workload — finite-state, vector and CRN — with
    its engine compatibility.
``repro crn info [--crn sir]``
    List the CRN workload library, or show one network's species,
    reactions, rate scale and lowerings.
``repro crn simulate --crn approximate-majority --n 1000000 --engine batched``
    Compile a reaction network onto an engine and run it to convergence;
    ``--reaction "L+L -> L+F" --init L:1 --chem-time 5`` simulates an
    ad-hoc network for a fixed chemical duration instead.
``repro crn sweep --crn sir --sizes 10000,100000 --runs 10 --workers 4``
    Sweep a CRN workload through the parallel driver; the full network
    (every rate constant) participates in the result-cache key.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro._version import __version__
from repro.analysis.error_bounds import theorem_3_1_summary
from repro.backend import (
    BACKEND_NAMES,
    ENV_BACKEND,
    backend_availability,
    get_backend,
)
from repro.core.array_simulator import ArrayLogSizeSimulator, expected_convergence_time
from repro.core.leader_terminating import LeaderTerminatingSizeEstimation
from repro.core.parameters import ProtocolParameters
from repro.engine.scheduler import (
    SCHEDULER_NAMES,
    SchedulerSpec,
    get_scheduler_policy,
)
from repro.engine.selection import (
    DEFAULT_SCHEDULERS,
    ENGINE_NAMES,
    build_engine,
    engine_scheduler_matrix,
)
from repro.exceptions import ConvergenceError, SimulationError
from repro.crn import (
    CRN,
    CRN_MODES,
    CRN_WORKLOADS,
    compile_crn,
    get_crn_workload,
)
from repro.harness.figures import reproduce_figure2
from repro.harness.parallel import (
    VECTOR_WORKLOADS,
    WORKLOADS,
    build_crn_trials,
    build_finite_state_trials,
    build_vector_trials,
    get_workload,
    run_trials,
)
from repro.harness.reporting import format_key_values, format_table
from repro.harness.results import SweepResult
from repro.store import DEFAULT_LEASE_SECONDS, StoreError, open_store
from repro.harness.tables import accuracy_table, state_complexity_table
from repro.protocols.leader_election import NonuniformCounterLeaderElection
from repro.termination.definitions import TerminationSpec
from repro.termination.impossibility import termination_time_sweep
from repro.workloads.populations import parse_size_list


def _parameters_from_args(args: argparse.Namespace) -> ProtocolParameters:
    if getattr(args, "fast", False):
        return ProtocolParameters.fast_test()
    return ProtocolParameters.paper()


def _sweep_persistence_from_args(args: argparse.Namespace, name: str):
    """Resolve ``--store`` / ``--cache-dir`` into one result store, or None.

    ``--cache-dir DIR`` is shorthand for ``--store jsonl:DIR``; either way a
    JSONL sweep writes the shard ``DIR/<name>.jsonl``.  Every store resumes:
    finished trials replay instead of executing again.
    """
    url = args.store
    if args.cache_dir:
        if url:
            raise SimulationError("pass either --store or --cache-dir, not both")
        url = f"jsonl:{args.cache_dir}"
    if not url:
        return None
    lease = args.lease or DEFAULT_LEASE_SECONDS
    return open_store(url, lease_seconds=lease, name=name)


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared ``--store`` / ``--lease`` flags of the sweep commands."""
    parser.add_argument(
        "--store", default="",
        help="shared result store URL: jsonl:DIR, sqlite:PATH or "
        "http://HOST:PORT (a `repro store serve` daemon).  Many concurrent "
        "drivers may point at one sqlite/http store and cooperate on the "
        "sweep; always resumes, mutually exclusive with --cache-dir",
    )
    parser.add_argument(
        "--lease", type=float, default=DEFAULT_LEASE_SECONDS,
        help="store claims only: seconds a claimed trial stays owned before "
        "a crashed driver's claim is reclaimed (size it above the slowest "
        f"single trial; default {DEFAULT_LEASE_SECONDS:g})",
    )


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared ``--telemetry`` / ``--trace-spool`` / ``--progress`` flags."""
    parser.add_argument(
        "--telemetry", action="store_true",
        help="enable the observability recorder: every trial's record gains "
        "a run manifest (spec hash, seed lineage, engine/backend/scheduler "
        "resolution, hot-path counters, timing breakdown) under the "
        "'telemetry' key — excluded from cache keys, so records stay "
        "interchangeable with plain runs",
    )
    parser.add_argument(
        "--trace-spool", default="", metavar="DIR",
        help="spool span-level trace events to per-process JSONL files in "
        "DIR (implies --telemetry); merge into a Perfetto-loadable Chrome "
        "trace with `repro trace export --spool DIR --out FILE`",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="render a live progress line on stderr while the sweep runs "
        "(trials done/executed/cached, throughput, ETA)",
    )


def _telemetry_from_args(args: argparse.Namespace):
    """Resolve the telemetry flags: enable the recorder, build the progress
    callback.  Returns ``(progress_view or None)``."""
    from repro.obs import ProgressView, set_telemetry

    spool = getattr(args, "trace_spool", "") or None
    if getattr(args, "telemetry", False) or spool:
        set_telemetry(True, spool_dir=spool)
    return ProgressView() if getattr(args, "progress", False) else None


def _print_telemetry_summary(outcome) -> None:
    """One-screen driver-side metrics after a ``--telemetry`` sweep."""
    from repro.obs import RECORDER

    if not RECORDER.enabled:
        return
    snapshot = RECORDER.snapshot()
    interesting = {
        name: value
        for name, value in sorted(snapshot["counters"].items())
        if not name.startswith("engine.interactions")
    }
    timing = {
        name: f"{seconds:.3f}s"
        for name, seconds in sorted(snapshot["timing"].items())
    }
    if interesting or timing:
        print()
        print("telemetry (driver-side totals):")
        print(format_key_values({**interesting, **timing}))
    if RECORDER.spool_dir:
        print(
            f"trace spool: {RECORDER.spool_dir} "
            f"(export: repro trace export --spool {RECORDER.spool_dir} "
            f"--out trace.json)"
        )


def _parse_scheduler_options(pairs: Sequence[str] | None) -> dict:
    """Parse repeated ``--scheduler-opt key=value`` flags.

    Values are coerced to int, then float, falling back to the raw string.
    """
    options: dict = {}
    for pair in pairs or ():
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise SimulationError(
                f"malformed --scheduler-opt {pair!r}; expected key=value"
            )
        value: object = raw
        for convert in (int, float):
            try:
                value = convert(raw)
                break
            except ValueError:
                continue
        options[key] = value
    return options


def _scheduler_from_args(args: argparse.Namespace) -> tuple[str | None, dict]:
    scheduler = getattr(args, "scheduler", None)
    options = _parse_scheduler_options(getattr(args, "scheduler_opt", None))
    if scheduler is None and options:
        raise SimulationError("--scheduler-opt requires --scheduler")
    return scheduler, options


def _scheduler_label(
    engine: str, scheduler: str | None, scheduler_options: dict | None
) -> str:
    """Human-readable scheduler identity, e.g. ``two-block(intra=0.95)``."""
    if scheduler is None:
        return DEFAULT_SCHEDULERS[engine]
    return SchedulerSpec.coerce(scheduler, options=scheduler_options or {}).label()


def _cmd_estimate(args: argparse.Namespace) -> int:
    params = _parameters_from_args(args)
    simulator = ArrayLogSizeSimulator(
        population_size=args.n, params=params, seed=args.seed
    )
    outcome = simulator.run_until_done(
        max_parallel_time=args.budget_factor
        * expected_convergence_time(args.n, params)
    )
    print(format_key_values(outcome.as_dict()))
    return 0 if outcome.converged else 1


def _cmd_figure2(args: argparse.Namespace) -> int:
    params = _parameters_from_args(args)
    sizes = parse_size_list(args.sizes)
    result = reproduce_figure2(
        population_sizes=sizes,
        runs_per_size=args.runs,
        params=params,
        base_seed=args.seed,
    )
    print("Figure 2 reproduction (convergence time vs population size)")
    print(result.table())
    print()
    print(result.ascii_plot())
    print()
    print(f"max additive error over all runs: {result.max_error_observed():.3f}")
    print(f"non-converged runs: {result.non_converged_runs}")
    slope = result.growth_exponent()
    if slope is not None:
        print(f"least-squares slope of time against log2(n)^2: {slope:.2f}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(result.to_csv())
        print(f"raw points written to {args.csv}")
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    params = _parameters_from_args(args)
    table = accuracy_table(
        population_sizes=parse_size_list(args.sizes),
        runs_per_size=args.runs,
        params=params,
        base_seed=args.seed,
    )
    print("Theorem 3.1 accuracy (observed vs claimed additive error)")
    print(table.text)
    return 0


def _cmd_states(args: argparse.Namespace) -> int:
    params = _parameters_from_args(args)
    table = state_complexity_table(
        population_sizes=parse_size_list(args.sizes),
        params=params,
        base_seed=args.seed,
    )
    print("Lemma 3.9 state complexity (realised field ranges)")
    print(table.text)
    return 0


def _cmd_termination(args: argparse.Namespace) -> int:
    sizes = parse_size_list(args.sizes)

    print("Theorem 4.1 experiment: time until the first terminated agent")
    print()
    print(f"(a) uniform dense protocol (counter threshold {args.threshold}):")
    uniform_spec = TerminationSpec(
        terminated_predicate=lambda state: state.terminated,
        description="uniform counter protocol",
    )
    uniform = termination_time_sweep(
        protocol_factory=lambda: NonuniformCounterLeaderElection(
            counter_threshold=args.threshold
        ),
        spec=uniform_spec,
        population_sizes=sizes,
        runs_per_size=args.runs,
        max_parallel_time=args.budget,
        seed=args.seed,
    )
    rows = [
        [obs.population_size, obs.mean_time, obs.max_time, obs.termination_probability]
        for obs in uniform
    ]
    print(format_table(["n", "mean time", "max time", "P(terminate)"], rows))
    print()

    print("(b) leader-driven terminating size estimation (Theorem 3.13):")
    leader_spec = TerminationSpec(
        terminated_predicate=lambda state: state.terminated,
        description="leader-driven size estimation",
    )
    leader = termination_time_sweep(
        protocol_factory=lambda: LeaderTerminatingSizeEstimation(
            params=ProtocolParameters.fast_test(),
            phase_count=8,
            termination_rounds_factor=1,
        ),
        spec=leader_spec,
        population_sizes=sizes,
        runs_per_size=args.runs,
        max_parallel_time=args.budget * 20,
        seed=args.seed,
    )
    rows = [
        [obs.population_size, obs.mean_time, obs.max_time, obs.termination_probability]
        for obs in leader
    ]
    print(format_table(["n", "mean time", "max time", "P(terminate)"], rows))
    print()
    print(
        "Expected shape: series (a) stays flat as n grows (Theorem 4.1); "
        "series (b) grows with n (the leader can delay the signal)."
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    workload = get_workload(args.protocol)
    protocol = workload.factory()
    predicate = workload.predicate
    population_size = (
        args.n if args.n is not None else workload.default_population
    )
    max_time = (
        args.max_time
        if args.max_time is not None
        else workload.default_budget(population_size)
    )
    engine_options = {}
    if args.batch_size is not None:
        engine_options["batch_size"] = args.batch_size
    if args.backend is not None:
        engine_options["backend"] = args.backend
    try:
        scheduler, scheduler_options = _scheduler_from_args(args)
        if scheduler is None and workload.scheduler is not None:
            # The registry may bake a scheduler variant into the workload.
            scheduler = workload.scheduler
            if not scheduler_options:
                scheduler_options = dict(workload.scheduler_options)
        simulator = build_engine(
            args.engine, protocol, population_size, seed=args.seed,
            scheduler=scheduler, scheduler_options=scheduler_options,
            **engine_options,
        )
    except SimulationError as error:
        print(f"repro simulate: error: {error}", file=sys.stderr)
        return 2
    scheduler_label = _scheduler_label(args.engine, scheduler, scheduler_options)
    print(
        f"{protocol.describe()} on the {args.engine} engine "
        f"({scheduler_label} scheduler): {workload.description}"
    )
    converged = True
    convergence_time = None
    try:
        convergence_time = simulator.run_until(
            predicate, max_parallel_time=max_time
        )
    except ConvergenceError:
        converged = False
    summary = {
        "population_size": population_size,
        "engine": args.engine,
        "scheduler": scheduler_label,
        "converged": converged,
        "convergence_parallel_time": convergence_time,
        "interactions": simulator.interactions,
        "distinct_states_present": len(simulator.configuration()),
    }
    for output, count in sorted(
        simulator.outputs().items(), key=lambda item: repr(item[0])
    ):
        summary[f"output[{output!r}]"] = count
    print(format_key_values(summary))
    return 0 if converged else 1


def _profile_location(filename: str, lineno: int) -> str:
    """Shorten a profile frame location to a repo-relative path."""
    if filename.startswith("~") or filename.startswith("<"):
        return "(builtin)"
    filename = filename.replace("\\", "/")
    marker = "/repro/"
    index = filename.rfind(marker)
    if index >= 0:
        filename = "repro/" + filename[index + len(marker):]
    return f"{filename}:{lineno}"


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile one workload run: cProfile totals plus a kernel breakdown."""
    import cProfile
    import pstats
    import time

    workload = get_workload(args.protocol)
    protocol = workload.factory()
    population_size = (
        args.n if args.n is not None else workload.default_population
    )
    max_time = (
        args.max_time
        if args.max_time is not None
        else workload.default_budget(population_size)
    )
    engine_options = {}
    if args.batch_size is not None:
        engine_options["batch_size"] = args.batch_size
    if args.backend is not None:
        engine_options["backend"] = args.backend
    try:
        scheduler, scheduler_options = _scheduler_from_args(args)
        simulator = build_engine(
            args.engine, protocol, population_size, seed=args.seed,
            scheduler=scheduler, scheduler_options=scheduler_options,
            **engine_options,
        )
    except SimulationError as error:
        print(f"repro profile: error: {error}", file=sys.stderr)
        return 2
    backend_name = getattr(getattr(simulator, "backend", None), "name", "numpy")
    print(
        f"profiling {protocol.describe()} on the {args.engine} engine "
        f"({backend_name} backend), n={population_size}"
    )

    profiler = cProfile.Profile()
    converged = True
    started = time.perf_counter()
    profiler.enable()
    try:
        if args.interactions is not None:
            simulator.run_interactions(args.interactions)
        else:
            try:
                simulator.run_until(
                    workload.predicate, max_parallel_time=max_time
                )
            except ConvergenceError:
                converged = False
    finally:
        profiler.disable()
    elapsed = time.perf_counter() - started

    summary = {
        "engine": args.engine,
        "backend": backend_name,
        "population_size": population_size,
        "interactions": simulator.interactions,
        "wall_seconds": round(elapsed, 4),
        "interactions_per_second": (
            round(simulator.interactions / elapsed) if elapsed > 0 else None
        ),
    }
    for counter in ("batched_batches", "fallback_batches", "rounds"):
        value = getattr(simulator, counter, None)
        if value is not None:
            summary[counter] = value
    if args.interactions is None:
        summary["converged"] = converged
    print(format_key_values(summary))

    stats = pstats.Stats(profiler)
    total_self = sum(entry[2] for entry in stats.stats.values())

    def _rows(entries: list, limit: int) -> list:
        entries.sort(key=lambda item: item[1][3], reverse=True)
        rows = []
        for (filename, lineno, name), (_, ncalls, tt, ct, _) in entries[:limit]:
            rows.append(
                [
                    name,
                    _profile_location(filename, lineno),
                    ncalls,
                    round(tt, 4),
                    round(ct, 4),
                    f"{100.0 * tt / total_self:.1f}%" if total_self else "-",
                ]
            )
        return rows

    headers = ["function", "where", "calls", "tottime", "cumtime", "self%"]
    print()
    print(f"top {args.top} functions by cumulative time:")
    print(format_table(headers, _rows(list(stats.stats.items()), args.top)))

    kernel_entries = [
        (func, data)
        for func, data in stats.stats.items()
        if "/repro/backend/" in func[0].replace("\\", "/")
        or "/repro/engine/" in func[0].replace("\\", "/")
    ]
    print()
    print("kernel breakdown (repro.backend and repro.engine frames):")
    if kernel_entries:
        print(format_table(headers, _rows(kernel_entries, args.top)))
    else:
        # A fully fused run (JIT/native backend) spends its time inside
        # compiled code, which cProfile cannot attribute to Python frames.
        print(
            "  (none recorded - the run stayed inside compiled kernels; "
            "see the builtin rows above)"
        )
    return 0 if converged else 1


def _print_sweep_summary(result: SweepResult) -> None:
    summaries = result.summary_by_size()
    rows = []
    for size in result.population_sizes():
        summary = summaries.get(size)
        records = result.records_for(size)
        rows.append(
            [
                size,
                len(records),
                sum(1 for record in records if not record.converged),
                result.convergence_rate(size),
                summary.mean if summary else None,
                summary.minimum if summary else None,
                summary.maximum if summary else None,
            ]
        )
    print(
        format_table(
            [
                "n",
                "runs",
                "non-conv",
                "P(converged)",
                "mean time",
                "min time",
                "max time",
            ],
            rows,
        )
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    sizes = parse_size_list(args.sizes)
    is_vector_workload = args.protocol in VECTOR_WORKLOADS
    try:
        scheduler, scheduler_options = _scheduler_from_args(args)
        if is_vector_workload:
            if args.engine != "vector":
                raise SimulationError(
                    f"workload {args.protocol!r} runs on the vector engine; "
                    f"pass --engine vector"
                )
            if args.batch_size is not None:
                raise SimulationError(
                    "--batch-size only applies to the batched engine, not to "
                    "vector workloads"
                )
            if args.check_interval is not None:
                raise SimulationError(
                    "--check-interval does not apply to vector workloads "
                    "(convergence is checked every round)"
                )
            engine_options = {}
            if args.phase_count is not None:
                if args.protocol != "leader-terminating":
                    raise SimulationError(
                        "--phase-count only applies to the leader-terminating "
                        "workload"
                    )
                engine_options["phase_count"] = args.phase_count
            if args.backend is not None:
                engine_options["backend"] = args.backend
            specs = build_vector_trials(
                population_sizes=sizes,
                runs_per_size=args.runs,
                protocol=args.protocol,
                params=_parameters_from_args(args),
                base_seed=args.seed,
                max_parallel_time=args.max_time,
                scheduler=scheduler,
                scheduler_options=scheduler_options,
                **engine_options,
            )
        else:
            if args.phase_count is not None:
                raise SimulationError(
                    "--phase-count only applies to the leader-terminating "
                    "vector workload"
                )
            if args.fast:
                raise SimulationError(
                    "--fast only applies to vector workloads (finite-state "
                    "workloads have no protocol constants to scale down)"
                )
            workload = get_workload(args.protocol)
            budget = (
                (lambda n: args.max_time)
                if args.max_time is not None
                else workload.default_budget
            )
            engine_options = {}
            if args.batch_size is not None:
                engine_options["batch_size"] = args.batch_size
            if args.backend is not None:
                engine_options["backend"] = args.backend
            specs = build_finite_state_trials(
                population_sizes=sizes,
                runs_per_size=args.runs,
                base_seed=args.seed,
                engine=args.engine,
                max_parallel_time=budget,
                check_interval=args.check_interval,
                protocol=args.protocol,
                scheduler=scheduler,
                scheduler_options=scheduler_options,
                **engine_options,
            )
    except SimulationError as error:
        print(f"repro sweep: error: {error}", file=sys.stderr)
        return 2

    try:
        store = _sweep_persistence_from_args(
            args, f"{args.protocol}-{args.engine}"
        )
        progress_view = _telemetry_from_args(args)
        try:
            outcome = run_trials(
                specs, workers=args.workers, store=store,
                lease_seconds=args.lease, progress=progress_view,
            )
        finally:
            if progress_view is not None:
                progress_view.close()
    except SimulationError as error:
        print(f"repro sweep: error: {error}", file=sys.stderr)
        return 2

    result = SweepResult(
        name=f"sweep-{args.protocol}-{args.engine}", records=outcome.records
    )
    # Label from the specs actually built, so a workload's registry-baked
    # scheduler variant is reported correctly even without --scheduler.
    scheduler_label = _scheduler_label(
        args.engine, specs[0].scheduler, dict(specs[0].scheduler_options)
    )
    print(
        f"sweep of {args.protocol!r} on the {args.engine} engine "
        f"({scheduler_label} scheduler; {len(sizes)} sizes x {args.runs} runs, "
        f"workers={args.workers})"
    )
    print(
        f"trials: {len(specs)} total, {outcome.executed} executed, "
        f"{outcome.from_cache} from cache"
    )
    if store is not None:
        print(f"store: {store.describe()}")
    print()
    _print_sweep_summary(result)
    _print_telemetry_summary(outcome)
    return 0 if all(record.converged for record in outcome.records) else 1


def _cmd_engines(args: argparse.Namespace) -> int:
    """Print the engine × scheduler compatibility matrix."""
    if getattr(args, "verify", False):
        return _verify_capability_matrix()
    matrix = engine_scheduler_matrix()
    print("engine x scheduler compatibility (* = engine default):")
    rows = []
    for engine in ENGINE_NAMES:
        supported = matrix[engine]
        row = [engine]
        for name in SCHEDULER_NAMES:
            if name not in supported:
                cell = "-"
            elif name == DEFAULT_SCHEDULERS[engine]:
                cell = "yes *"
            else:
                cell = "yes"
            row.append(cell)
        rows.append(row)
    print(format_table(["engine", *SCHEDULER_NAMES], rows))
    print()
    print("schedulers:")
    for name in SCHEDULER_NAMES:
        policy_cls = get_scheduler_policy(name)
        print(f"  {name}: {policy_cls.description}")
        if policy_cls.option_names:
            print(f"      options: {', '.join(policy_cls.option_names)}")
    print()
    print("array backends (--backend NAME; env default: " + ENV_BACKEND + "):")
    availability = backend_availability()
    for name in BACKEND_NAMES:
        reason = availability[name]
        status = "available" if reason is None else f"unavailable: {reason}"
        print(f"  {name}: {get_backend(name).describe()} [{status}]")
    print()
    print(
        "Pick one with --scheduler NAME [--scheduler-opt key=value ...] on "
        "`repro simulate` and `repro sweep`; see DESIGN.md (Schedulers) for "
        "time semantics and paper fidelity.  Backends swap the hot-loop "
        "kernels without changing engine semantics (DESIGN.md, Array "
        "backends); unavailable backends fall back to numpy with a warning."
    )
    return 0


def _verify_capability_matrix() -> int:
    """`repro engines --verify`: every declared cell must be grid-tested."""
    from repro.staticcheck.contracts import (
        capability_matrix_diagnostics,
        declared_backend_cells,
        declared_scheduler_cells,
    )

    diagnostics = capability_matrix_diagnostics(".")
    declared = len(declared_scheduler_cells()) + len(declared_backend_cells())
    if not diagnostics:
        print(
            f"capability matrix verified: all {declared} declared "
            f"(engine x scheduler) and (engine x backend) cells are "
            f"exercised by the cross-engine test grid"
        )
        return 0
    print(
        f"capability matrix verification found {len(diagnostics)} problem(s):",
        file=sys.stderr,
    )
    for diagnostic in diagnostics:
        print(
            f"  {diagnostic.rule} {diagnostic.location}: {diagnostic.message}",
            file=sys.stderr,
        )
    return 1


def _cmd_check(args: argparse.Namespace) -> int:
    """`repro check`: run the static analyzers and report diagnostics."""
    from repro.staticcheck import render_json, render_text, run_check

    try:
        diagnostics, code = run_check(
            root=args.root,
            only=args.only or None,
            lint_paths=args.paths or None,
            waiver_file=args.waivers or None,
        )
    except (ValueError, OSError) as error:
        print(f"repro check: error: {error}", file=sys.stderr)
        return 2
    render = render_json if args.format == "json" else render_text
    print(render(diagnostics))
    return code


def _cmd_protocols(args: argparse.Namespace) -> int:
    """List every registered workload with its engine compatibility."""
    all_engines = ",".join(ENGINE_NAMES)
    rows = []
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        rows.append([name, "finite-state", all_engines, workload.description])
    for name in sorted(VECTOR_WORKLOADS):
        workload = VECTOR_WORKLOADS[name]
        rows.append([name, "vector", "vector", workload.description])
    for name in sorted(CRN_WORKLOADS):
        workload = CRN_WORKLOADS[name]
        rows.append([name, "crn", all_engines, workload.description])
    print("registered workloads:")
    print(format_table(["name", "kind", "engines", "description"], rows))
    print()
    print(
        "finite-state workloads run via `repro simulate/sweep --protocol NAME` "
        "on any engine; vector workloads via `repro sweep --engine vector`; "
        "CRN workloads via `repro crn simulate/sweep --crn NAME` (the thinned "
        "lowering, --mode thinned, is count/batched only).  `repro engines` "
        "prints the engine x scheduler matrix."
    )
    return 0


def _parse_species_values(text: str | None, flag: str, convert) -> dict:
    """Parse ``SPECIES:VALUE,SPECIES:VALUE`` flags for CRN initial conditions."""
    values: dict = {}
    for entry in (text or "").split(","):
        entry = entry.strip()
        if not entry:
            continue
        species, separator, raw = entry.partition(":")
        if not separator or not species:
            raise SimulationError(
                f"malformed {flag} entry {entry!r}; expected SPECIES:VALUE"
            )
        try:
            values[species.strip()] = convert(raw.strip())
        except ValueError:
            raise SimulationError(
                f"malformed {flag} value {raw!r} for species {species!r}"
            ) from None
    return values


def _crn_from_args(args: argparse.Namespace) -> tuple[CRN, bool]:
    """Resolve the network: a registered workload or an ad-hoc spec.

    Returns ``(crn, registered)``.
    """
    reactions = list(args.reaction or [])
    if args.crn is not None:
        if reactions or args.init or args.seed_init:
            raise SimulationError(
                "--crn names a registered workload; ad-hoc --reaction/--init/"
                "--seed-init flags cannot be combined with it"
            )
        return get_crn_workload(args.crn).crn, True
    if not reactions:
        raise SimulationError(
            "no network given: pass --crn NAME (see `repro crn info`) or at "
            "least one --reaction 'A + B -> C + D @ k'"
        )
    fractions = _parse_species_values(args.init, "--init", float)
    seeds = _parse_species_values(args.seed_init, "--seed-init", int)
    return (
        CRN.from_spec(reactions, name=args.name, seeds=seeds, fractions=fractions),
        False,
    )


def _crn_engines(mode: str) -> tuple[str, ...]:
    """Engines a CRN lowering can build on."""
    return ("count", "batched") if mode == "thinned" else tuple(ENGINE_NAMES)


def _regime_thresholds_arg(text: str) -> tuple[float, float]:
    """Parse ``--regime-thresholds CRITICAL,ODE`` into a float pair."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected CRITICAL,ODE (two comma-separated numbers), got {text!r}"
        )
    try:
        critical, ode = (float(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected CRITICAL,ODE (two comma-separated numbers), got {text!r}"
        ) from None
    return (critical, ode)


def _multiscale_options_from_args(args: argparse.Namespace) -> dict:
    """Collect --leap-eps/--regime-thresholds, rejecting them off-engine."""
    options = {}
    if args.leap_eps is not None:
        options["leap_eps"] = args.leap_eps
    if args.regime_thresholds is not None:
        options["regime_thresholds"] = args.regime_thresholds
    if options and args.engine != "multiscale":
        raise SimulationError(
            f"--leap-eps/--regime-thresholds tune the multiscale engine; "
            f"the {args.engine} engine does not read them "
            f"(add --engine multiscale)"
        )
    return options


def _cmd_crn_info(args: argparse.Namespace) -> int:
    if args.crn is None and not args.reaction:
        print("registered CRN workloads (see also `repro protocols`):")
        rows = [
            [
                name,
                len(CRN_WORKLOADS[name].crn.species()),
                len(CRN_WORKLOADS[name].crn.reactions),
                CRN_WORKLOADS[name].default_population,
                CRN_WORKLOADS[name].description,
            ]
            for name in sorted(CRN_WORKLOADS)
        ]
        print(format_table(["name", "species", "reactions", "default n", "description"], rows))
        print()
        print(
            "`repro crn info --crn NAME` shows one network; `repro crn simulate"
            " --reaction 'A + B -> C + D @ k' ...` runs an ad-hoc one."
        )
        return 0
    try:
        crn, registered = _crn_from_args(args)
        uniform = compile_crn(crn)
        thinned = compile_crn(crn, mode="thinned")
    except SimulationError as error:
        print(f"repro crn info: error: {error}", file=sys.stderr)
        return 2
    print(crn.describe())
    print()
    print("reactions:")
    for reaction in crn.reactions:
        print(f"  {reaction.text()}")
    print()
    summary = {
        "species": ", ".join(crn.species()),
        "seeds": ", ".join(f"{s}:{c}" for s, c in crn.seeds) or "-",
        "fractions": ", ".join(f"{s}:{w:g}" for s, w in crn.fractions),
        "rate_scale": uniform.rate_scale,
        "uniform lowering engines": ",".join(_crn_engines("uniform")),
        "thinned lowering engines": ",".join(_crn_engines("thinned")),
        "thinned activity rates": ", ".join(
            f"{s}:{r:g}" for s, r in thinned.state_rates
        ),
        "compiled states": uniform.protocol.compiled().num_states,
        "reactive ordered pairs": uniform.protocol.compiled().reactive_pair_count(),
    }
    if registered:
        workload = get_crn_workload(args.crn)
        summary["workload"] = workload.description
        summary["default population"] = workload.default_population
        summary["chemical budget at default n"] = workload.default_chemical_budget(
            workload.default_population
        )
    print(format_key_values(summary))
    print()
    print(
        "parallel time = rate_scale x chemical time under the uniform "
        "lowering (DESIGN.md, CRN front-end)."
    )
    return 0


def _cmd_crn_simulate(args: argparse.Namespace) -> int:
    try:
        crn, registered = _crn_from_args(args)
        compiled = compile_crn(crn, mode=args.mode)
        if args.engine not in _crn_engines(args.mode):
            raise SimulationError(
                f"the {args.mode} lowering cannot run on the {args.engine} "
                f"engine; supported: {', '.join(_crn_engines(args.mode))}"
            )
        workload = get_crn_workload(args.crn) if registered else None
        if workload is None and args.mode == "thinned":
            raise SimulationError(
                "an ad-hoc network runs for a fixed --chem-time, which the "
                "thinned lowering cannot honour (its event clock has no "
                "constant mapping to chemical time); use --mode uniform, or "
                "a registered workload with a convergence predicate"
            )
        population_size = (
            args.n
            if args.n is not None
            else (workload.default_population if workload else 10_000)
        )
        if args.chem_time is not None:
            chemical_budget = args.chem_time
        elif workload is not None:
            chemical_budget = workload.default_chemical_budget(population_size)
        else:
            raise SimulationError(
                "an ad-hoc network needs --chem-time (the chemical duration "
                "to simulate); registered workloads carry a default budget"
            )
        engine_options = _multiscale_options_from_args(args)
        if args.batch_size is not None:
            engine_options["batch_size"] = args.batch_size
        if args.backend is not None:
            engine_options["backend"] = args.backend
        simulator = compiled.build(
            args.engine, population_size, seed=args.seed, **engine_options
        )
    except SimulationError as error:
        print(f"repro crn simulate: error: {error}", file=sys.stderr)
        return 2
    budget_parallel = compiled.rate_scale * chemical_budget
    print(
        f"{compiled.protocol.describe()} on the {args.engine} engine"
        + (f": {workload.description}" if workload else "")
    )
    summary = {
        "population_size": population_size,
        "engine": args.engine,
        "mode": args.mode,
        "rate_scale": compiled.rate_scale,
    }
    converged = True
    if workload is not None:
        convergence_time = None
        try:
            convergence_time = simulator.run_until(
                workload.predicate, max_parallel_time=budget_parallel
            )
        except ConvergenceError:
            converged = False
        summary["converged"] = converged
        summary["parallel_time"] = convergence_time
    else:
        # No convergence predicate exists for an ad-hoc network: the run
        # simply covers the requested duration, so no "converged" claim is
        # reported (and the exit code only reflects successful execution).
        simulator.run_parallel_time(budget_parallel)
        convergence_time = simulator.parallel_time
        summary["parallel_time"] = convergence_time
    summary["interactions"] = simulator.interactions
    if args.engine == "multiscale":
        for key, value in simulator.regime_stats().items():
            summary[f"regime[{key}]"] = value
    if compiled.time_exact and convergence_time is not None:
        summary["chemical_time"] = convergence_time / compiled.rate_scale
    for state, count in sorted(simulator.configuration().items()):
        summary[f"count[{state}]"] = count
    print(format_key_values(summary))
    return 0 if converged else 1


def _cmd_crn_sweep(args: argparse.Namespace) -> int:
    sizes = parse_size_list(args.sizes)
    try:
        if args.engine not in _crn_engines(args.mode):
            raise SimulationError(
                f"the {args.mode} lowering cannot run on the {args.engine} "
                f"engine; supported: {', '.join(_crn_engines(args.mode))}"
            )
        engine_options = _multiscale_options_from_args(args)
        if args.batch_size is not None:
            engine_options["batch_size"] = args.batch_size
        if args.backend is not None:
            engine_options["backend"] = args.backend
        specs = build_crn_trials(
            population_sizes=sizes,
            runs_per_size=args.runs,
            crn=args.crn,
            base_seed=args.seed,
            engine=args.engine,
            mode=args.mode,
            max_chemical_time=args.chem_time,
            check_interval=args.check_interval,
            **engine_options,
        )
    except SimulationError as error:
        print(f"repro crn sweep: error: {error}", file=sys.stderr)
        return 2

    try:
        store = _sweep_persistence_from_args(
            args, f"crn-{args.crn}-{args.engine}"
        )
        progress_view = _telemetry_from_args(args)
        try:
            outcome = run_trials(
                specs, workers=args.workers, store=store,
                lease_seconds=args.lease, progress=progress_view,
            )
        finally:
            if progress_view is not None:
                progress_view.close()
    except SimulationError as error:
        print(f"repro crn sweep: error: {error}", file=sys.stderr)
        return 2

    result = SweepResult(
        name=f"crn-sweep-{args.crn}-{args.engine}", records=outcome.records
    )
    print(
        f"CRN sweep of {args.crn!r} on the {args.engine} engine "
        f"({args.mode} lowering; {len(sizes)} sizes x {args.runs} runs, "
        f"workers={args.workers})"
    )
    print(
        f"trials: {len(specs)} total, {outcome.executed} executed, "
        f"{outcome.from_cache} from cache"
    )
    if store is not None:
        print(f"store: {store.describe()}")
    print()
    _print_sweep_summary(result)
    # Multiscale trials carry per-regime work counters in their records
    # (exact SSA events, tau-leaps, ODE steps, regime switches); aggregate
    # them per population size so the sweep output shows where the engine
    # actually spent its events — previously only `repro crn simulate`
    # exposed this.
    regime_rows = []
    by_size: dict[int, dict[str, int]] = {}
    for record in outcome.records:
        regime = record.extra.get("regime")
        if regime:
            totals = by_size.setdefault(record.population_size, {})
            for name, value in regime.items():
                totals[name] = totals.get(name, 0) + int(value)
    for size in sorted(by_size):
        totals = by_size[size]
        regime_rows.append(
            [
                size,
                totals.get("exact_events", 0),
                totals.get("leaps", 0),
                totals.get("ode_steps", 0),
                totals.get("regime_switches", 0),
            ]
        )
    if regime_rows:
        print()
        print("multiscale regime totals (summed over runs):")
        print(
            format_table(
                ["n", "exact events", "leaps", "ode steps", "switches"],
                regime_rows,
            )
        )
    _print_telemetry_summary(outcome)
    return 0 if all(record.converged for record in outcome.records) else 1


def _cmd_store_serve(args: argparse.Namespace) -> int:
    from repro.store.server import serve_store

    try:
        server = serve_store(
            args.db,
            host=args.host,
            port=args.port,
            lease_seconds=args.lease,
            verbose=args.verbose,
        )
    except OSError as error:
        print(f"repro store serve: error: {error}", file=sys.stderr)
        return 2
    print(f"serving {server.store.describe()} at {server.url}")
    print("point sweep drivers at it with: repro sweep --store " + server.url)
    server.serve_forever()
    server.stop()
    return 0


def _watch_store_status(store, interval: float, iterations: int | None) -> int:
    """Poll ``store.status()`` and render per-driver health until interrupted.

    The snapshot diffing (per-driver completion attribution, lease churn,
    stale alerts) lives in :class:`repro.obs.StatusWatcher`; this loop only
    polls and prints.  ``iterations`` bounds the poll count (None = forever,
    for terminals; tests and scripts pass a finite count).
    """
    import time as _time

    from repro.obs import StatusWatcher

    watcher = StatusWatcher()
    polls = 0
    print(f"watching {store.describe()} every {interval:g}s (ctrl-c to stop)")
    try:
        while iterations is None or polls < iterations:
            status = store.status()
            for line in watcher.update(status):
                print(line)
            sys.stdout.flush()
            polls += 1
            if iterations is not None and polls >= iterations:
                break
            _time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_store_status(args: argparse.Namespace) -> int:
    try:
        store = open_store(args.store)
        if getattr(args, "watch", False):
            try:
                return _watch_store_status(
                    store, args.interval, args.iterations
                )
            finally:
                store.close()
        status = store.status()
    except SimulationError as error:
        print(f"repro store status: error: {error}", file=sys.stderr)
        return 2
    print(f"store: {store.describe()}")
    print(
        format_key_values(
            {
                "completed trials": status.completed,
                "leased (in progress)": status.leased,
                "stale leases (reclaimable)": status.stale,
            }
        )
    )
    if status.leases:
        print()
        print("leases:")
        rows = [
            [
                entry.key[:16],
                entry.owner,
                "-" if entry.expires is None else f"{entry.expires:.0f}",
                "STALE" if entry.stale else "live",
            ]
            for entry in status.leases
        ]
        print(format_table(["key", "owner", "expires (unix)", "state"], rows))
    if status.workloads:
        print()
        print("throughput by workload (completed trials):")
        rows = []
        for entry in status.workloads:
            rate = entry.interactions_per_second
            rows.append(
                [
                    entry.workload,
                    str(entry.trials),
                    f"{entry.interactions:,}",
                    f"{entry.wall_seconds:.2f}",
                    "-" if rate is None else f"{rate:,.0f}",
                ]
            )
        print(
            format_table(
                ["workload", "trials", "interactions", "wall s", "inter/s"],
                rows,
            )
        )
    store.close()
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from repro.obs import export_spool

    try:
        trace = export_spool(args.spool, args.out)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"repro trace export: error: {error}", file=sys.stderr)
        return 2
    events = trace["traceEvents"]
    pids = sorted({event.get("pid") for event in events})
    print(
        f"wrote {args.out}: {len(events)} events from {len(pids)} process(es)"
    )
    print("open in Perfetto (https://ui.perfetto.dev) or chrome://tracing")
    return 0


def _cmd_trace_validate(args: argparse.Namespace) -> int:
    from repro.obs import validate_trace

    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            trace = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"repro trace validate: error: {error}", file=sys.stderr)
        return 2
    problems = validate_trace(trace)
    if problems:
        for problem in problems:
            print(f"INVALID {problem}")
        print(f"{args.trace}: {len(problems)} schema problem(s)")
        return 1
    events = trace.get("traceEvents", [])
    print(f"{args.trace}: valid Chrome trace ({len(events)} events)")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    summary = theorem_3_1_summary(args.n)
    if args.json:
        print(json.dumps(summary, default=str, indent=2))
    else:
        print(f"Claimed bounds of Theorem 3.1 at n = {args.n}")
        print(format_key_values(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Efficient Size Estimation and Impossibility of "
            "Termination in Uniform Dense Population Protocols' (PODC 2019)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    estimate = subparsers.add_parser("estimate", help="run one size estimation")
    estimate.add_argument("--n", type=int, default=512, help="population size")
    estimate.add_argument("--seed", type=int, default=0)
    estimate.add_argument("--budget-factor", type=float, default=4.0)
    estimate.add_argument("--fast", action="store_true", help="use scaled-down constants")
    estimate.set_defaults(handler=_cmd_estimate)

    figure2 = subparsers.add_parser("figure2", help="reproduce Figure 2")
    figure2.add_argument("--sizes", default="128,256,512,1024")
    figure2.add_argument("--runs", type=int, default=3)
    figure2.add_argument("--seed", type=int, default=2019)
    figure2.add_argument("--csv", default="", help="optional CSV output path")
    figure2.add_argument("--fast", action="store_true")
    figure2.set_defaults(handler=_cmd_figure2)

    accuracy = subparsers.add_parser("accuracy", help="Theorem 3.1 accuracy table")
    accuracy.add_argument("--sizes", default="256,512,1024")
    accuracy.add_argument("--runs", type=int, default=3)
    accuracy.add_argument("--seed", type=int, default=7)
    accuracy.add_argument("--fast", action="store_true")
    accuracy.set_defaults(handler=_cmd_accuracy)

    states = subparsers.add_parser("states", help="Lemma 3.9 state-complexity table")
    states.add_argument("--sizes", default="256,512,1024")
    states.add_argument("--seed", type=int, default=11)
    states.add_argument("--fast", action="store_true")
    states.set_defaults(handler=_cmd_states)

    termination = subparsers.add_parser(
        "termination", help="Theorem 4.1 termination-time experiment"
    )
    termination.add_argument("--sizes", default="32,64,128")
    termination.add_argument("--runs", type=int, default=3)
    termination.add_argument("--threshold", type=int, default=10)
    termination.add_argument("--budget", type=float, default=200.0)
    termination.add_argument("--seed", type=int, default=0)
    termination.set_defaults(handler=_cmd_termination)

    bounds = subparsers.add_parser("bounds", help="print the claimed bounds for n")
    bounds.add_argument("--n", type=int, default=4096)
    bounds.add_argument("--json", action="store_true")
    bounds.set_defaults(handler=_cmd_bounds)

    engines = subparsers.add_parser(
        "engines",
        help="print the engine x scheduler compatibility matrix",
        description=(
            "Show which interaction schedulers each simulation engine can "
            "run, the per-engine defaults, and every scheduler's options."
        ),
    )
    engines.add_argument(
        "--verify",
        action="store_true",
        help="check that every declared (engine x scheduler) and (engine x "
        "backend) cell is exercised by the cross-engine test grid; exit 1 "
        "and list untested cells otherwise (requires the repo checkout)",
    )
    engines.set_defaults(handler=_cmd_engines)

    check = subparsers.add_parser(
        "check",
        help="static analysis: protocol/CRN semantics, determinism lint, "
        "cache-key and capability-matrix contracts",
        description=(
            "Run the static analyzers (see DESIGN.md, 'Static analysis'). "
            "Exit 0 when every error-severity finding is waived, 1 "
            "otherwise; warnings and info never fail. Committed waivers "
            "live in repro.staticcheck.waivers, each with a justification; "
            "--waivers adds ad-hoc ones from a JSON file."
        ),
    )
    check.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="diagnostic output format (default: text)",
    )
    check.add_argument(
        "--only", action="append", default=None, metavar="FAMILY",
        choices=("semantic", "lint", "contracts"),
        help="run only this analyzer family (repeatable; default: all)",
    )
    check.add_argument(
        "--root", default=".",
        help="repository root (default: current directory); lint locations "
        "and waiver prefixes are relative to it",
    )
    check.add_argument(
        "--paths", action="append", default=None, metavar="PATH",
        help="override the determinism lint's target files/directories "
        "(default: src/repro; repeatable)",
    )
    check.add_argument(
        "--waivers", default=None, metavar="FILE",
        help="extra waivers as JSON: "
        '{"waivers": [{"rule": ..., "location": ..., "justification": ...}]}',
    )
    check.set_defaults(handler=_cmd_check)

    protocols = subparsers.add_parser(
        "protocols",
        help="list registered finite-state, vector and CRN workloads",
        description=(
            "Show every registered workload with its kind and the engines it "
            "can run on (mirrors `repro engines` for workloads)."
        ),
    )
    protocols.set_defaults(handler=_cmd_protocols)

    crn = subparsers.add_parser(
        "crn",
        help="declarative CRN front-end: simulate/sweep reaction networks",
        description=(
            "Specify a protocol as a chemical reaction network — a registered "
            "workload (--crn NAME) or ad-hoc reaction specs — compile it onto "
            "an engine, and simulate mass-action kinetics exactly (see "
            "DESIGN.md, CRN front-end)."
        ),
    )
    crn_sub = crn.add_subparsers(dest="crn_command", required=True)

    def _add_network_flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--crn",
            choices=sorted(CRN_WORKLOADS),
            default=None,
            help="registered CRN workload (see `repro crn info`)",
        )
        parser.add_argument(
            "--reaction", action="append", default=None, metavar="SPEC",
            help="ad-hoc reaction 'A + B -> C + D @ k', repeatable "
            "(unimolecular: 'A -> B @ k')",
        )
        parser.add_argument(
            "--init", default="", metavar="SPECIES:FRAC,...",
            help="ad-hoc networks: relative initial fractions, e.g. "
            "'A:0.52,B:0.48'",
        )
        parser.add_argument(
            "--seed-init", default="", metavar="SPECIES:COUNT,...",
            help="ad-hoc networks: exact seeded agent counts, e.g. 'I:1'",
        )
        parser.add_argument(
            "--name", default="adhoc", help="name of an ad-hoc network"
        )

    crn_info = crn_sub.add_parser(
        "info", help="list CRN workloads or inspect one network"
    )
    _add_network_flags(crn_info)
    crn_info.set_defaults(handler=_cmd_crn_info)

    crn_simulate = crn_sub.add_parser(
        "simulate", help="compile a network onto an engine and run it"
    )
    _add_network_flags(crn_simulate)
    crn_simulate.add_argument(
        "--n", type=int, default=None,
        help="population size (default: the workload's, or 10000 ad-hoc)",
    )
    crn_simulate.add_argument(
        "--engine", choices=list(ENGINE_NAMES), default="batched",
        help="simulation engine (the thinned lowering needs count or batched)",
    )
    crn_simulate.add_argument(
        "--mode", choices=list(CRN_MODES), default="uniform",
        help="lowering mode: uniform (exact kinetics and times, any engine) "
        "or thinned (exact reaction sequence via state-weighted rates, "
        "fewer null interactions)",
    )
    crn_simulate.add_argument("--seed", type=int, default=0)
    crn_simulate.add_argument(
        "--chem-time", type=float, default=None,
        help="chemical-time budget (registered workloads default to their "
        "own; ad-hoc networks run for exactly this duration)",
    )
    crn_simulate.add_argument(
        "--batch-size", type=int, default=None,
        help="batched engine only: interactions per batch (default ~sqrt(n))",
    )
    crn_simulate.add_argument(
        "--backend", choices=list(BACKEND_NAMES), default=None,
        help="array backend for the hot-loop kernels (default: "
        "$REPRO_BACKEND or numpy; see `repro engines`)",
    )
    crn_simulate.add_argument(
        "--leap-eps", type=float, default=None,
        help="multiscale engine only: tau-leap relative-propensity "
        "tolerance (Cao's epsilon; default 0.05, smaller = more exact)",
    )
    crn_simulate.add_argument(
        "--regime-thresholds", type=_regime_thresholds_arg, default=None,
        metavar="CRITICAL,ODE",
        help="multiscale engine only: per-species count thresholds — below "
        "CRITICAL a channel fires by exact SSA, above ODE the whole system "
        "integrates deterministically (default 20,1e5)",
    )
    crn_simulate.set_defaults(handler=_cmd_crn_simulate)

    crn_sweep = crn_sub.add_parser(
        "sweep",
        help="multi-size, multi-seed CRN sweep (parallel workers, resumable store)",
        description=(
            "Sweep a registered CRN workload through the parallel driver.  "
            "The full network — every rate constant — participates in the "
            "trial cache keys, so cached results are never replayed for a "
            "modified network."
        ),
    )
    crn_sweep.add_argument(
        "--crn", choices=sorted(CRN_WORKLOADS), required=True,
        help="registered CRN workload to sweep",
    )
    crn_sweep.add_argument(
        "--sizes", default="1000,10000,100000",
        help="comma-separated population sizes",
    )
    crn_sweep.add_argument("--runs", type=int, default=3, help="runs (seeds) per size")
    crn_sweep.add_argument(
        "--engine", choices=list(ENGINE_NAMES), default="batched",
        help="simulation engine for every trial",
    )
    crn_sweep.add_argument(
        "--mode", choices=list(CRN_MODES), default="uniform",
        help="lowering mode (thinned needs --engine count or batched)",
    )
    crn_sweep.add_argument("--seed", type=int, default=0, help="sweep-level base seed")
    crn_sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial, same results either way)",
    )
    crn_sweep.add_argument(
        "--cache-dir", default="",
        help="shorthand for --store jsonl:DIR (empty: no store)",
    )
    crn_sweep.add_argument(
        "--chem-time", type=float, default=None,
        help="per-trial chemical-time budget (default: the workload's)",
    )
    crn_sweep.add_argument(
        "--check-interval", type=int, default=None,
        help="interactions between predicate checks (default: engine-chosen)",
    )
    crn_sweep.add_argument(
        "--batch-size", type=int, default=None,
        help="batched engine only: interactions per batch (default ~sqrt(n))",
    )
    crn_sweep.add_argument(
        "--backend", choices=list(BACKEND_NAMES), default=None,
        help="array backend for every trial (default: $REPRO_BACKEND or "
        "numpy; participates in the trial cache keys)",
    )
    crn_sweep.add_argument(
        "--leap-eps", type=float, default=None,
        help="multiscale engine only: tau-leap relative-propensity "
        "tolerance (participates in the trial cache keys)",
    )
    crn_sweep.add_argument(
        "--regime-thresholds", type=_regime_thresholds_arg, default=None,
        metavar="CRITICAL,ODE",
        help="multiscale engine only: exact-SSA and ODE count thresholds "
        "(participates in the trial cache keys)",
    )
    _add_store_arguments(crn_sweep)
    _add_telemetry_arguments(crn_sweep)
    crn_sweep.set_defaults(handler=_cmd_crn_sweep)

    store = subparsers.add_parser(
        "store",
        help="shared result stores: serve one over HTTP, inspect any",
        description=(
            "Distributed-sweep result stores.  `serve` fronts a WAL-mode "
            "SQLite store with a small HTTP daemon so sweep drivers on many "
            "hosts share one store (--store http://HOST:PORT); `status` "
            "summarises completion, leases and throughput of any store URL."
        ),
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_serve = store_sub.add_parser(
        "serve", help="serve a SQLite-backed result store over HTTP"
    )
    store_serve.add_argument(
        "--db", required=True, help="path of the backing SQLite database"
    )
    store_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default loopback; use 0.0.0.0 for other hosts)",
    )
    store_serve.add_argument(
        "--port", type=int, default=8512, help="bind port (0 picks a free one)"
    )
    store_serve.add_argument(
        "--lease", type=float, default=DEFAULT_LEASE_SECONDS,
        help="server-side default lease duration in seconds",
    )
    store_serve.add_argument(
        "--verbose", action="store_true", help="log every request"
    )
    store_serve.set_defaults(handler=_cmd_store_serve)
    store_status = store_sub.add_parser(
        "status",
        help="completed/leased/stale counts and per-workload throughput",
    )
    store_status.add_argument(
        "--store", required=True,
        help="store URL: jsonl:DIR, sqlite:PATH or http://HOST:PORT",
    )
    store_status.add_argument(
        "--watch", action="store_true",
        help="poll the store and render live distributed-sweep health: "
        "per-driver throughput (attributed by lease hand-off), lease "
        "churn, and stale-lease alerts",
    )
    store_status.add_argument(
        "--interval", type=float, default=2.0,
        help="--watch only: seconds between polls (default 2)",
    )
    store_status.add_argument(
        "--iterations", type=int, default=None,
        help="--watch only: stop after this many polls (default: forever)",
    )
    store_status.set_defaults(handler=_cmd_store_status)

    trace = subparsers.add_parser(
        "trace",
        help="export/validate Chrome trace-event files from telemetry spools",
        description=(
            "Span-level traces: sweeps run with --trace-spool DIR write "
            "per-process trace-event JSONL spools; `export` merges a spool "
            "into one Chrome trace-event JSON file loadable in Perfetto "
            "(https://ui.perfetto.dev) or chrome://tracing, and `validate` "
            "checks any trace file against the event schema."
        ),
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_export = trace_sub.add_parser(
        "export", help="merge a spool directory into one Perfetto-loadable file"
    )
    trace_export.add_argument(
        "--spool", required=True,
        help="spool directory written by a --trace-spool sweep",
    )
    trace_export.add_argument(
        "--out", required=True, help="output trace JSON path"
    )
    trace_export.set_defaults(handler=_cmd_trace_export)
    trace_validate = trace_sub.add_parser(
        "validate", help="schema-check a Chrome trace-event JSON file"
    )
    trace_validate.add_argument("trace", help="trace JSON file to validate")
    trace_validate.set_defaults(handler=_cmd_trace_validate)

    simulate = subparsers.add_parser(
        "simulate", help="run a finite-state protocol on a selectable engine"
    )
    simulate.add_argument(
        "--protocol",
        choices=sorted(WORKLOADS),
        default="epidemic",
        help="which finite-state workload to run",
    )
    simulate.add_argument(
        "--n", type=int, default=None,
        help="population size (default: 100000; 2000 for leader election, "
        "which needs Theta(n^2) interactions)",
    )
    simulate.add_argument(
        "--engine",
        choices=list(ENGINE_NAMES),
        default="batched",
        help="simulation engine (agent: exact reference; count: per-interaction "
        "counts; batched: multinomial batches, fastest at large n; vector: "
        "numpy matching rounds, exact per-round convergence measurement)",
    )
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--max-time", type=float, default=None,
        help="parallel-time budget before the run counts as non-converged "
        "(default: 200 for polylog-time protocols, 4n for leader election)",
    )
    simulate.add_argument(
        "--batch-size", type=int, default=None,
        help="batched engine only: interactions per batch (default ~sqrt(n))",
    )
    simulate.add_argument(
        "--backend", choices=list(BACKEND_NAMES), default=None,
        help="array backend for the hot-loop kernels (default: "
        "$REPRO_BACKEND or numpy; unavailable backends fall back to numpy "
        "with a warning — see `repro engines`)",
    )
    simulate.add_argument(
        "--scheduler",
        choices=list(SCHEDULER_NAMES),
        default=None,
        help="interaction scheduler (default: the engine's own — sequential "
        "for agent/count/batched, matching for vector; `repro engines` "
        "prints the compatibility matrix)",
    )
    simulate.add_argument(
        "--scheduler-opt", action="append", default=None, metavar="KEY=VALUE",
        help="scheduler option, repeatable (e.g. --scheduler two-block "
        "--scheduler-opt intra=0.95)",
    )
    simulate.set_defaults(handler=_cmd_simulate)

    profile = subparsers.add_parser(
        "profile",
        help="cProfile a workload run with a per-kernel timing breakdown",
        description=(
            "Run one finite-state workload under cProfile on any engine x "
            "backend combination and print the run counters (throughput in "
            "interactions/s), the top functions by cumulative time, and a "
            "breakdown restricted to the repro.backend / repro.engine kernel "
            "frames — the profile-guided view behind the array-backend seam "
            "(DESIGN.md, Array backends)."
        ),
    )
    profile.add_argument(
        "--protocol",
        choices=sorted(WORKLOADS),
        default="epidemic",
        help="which finite-state workload to profile",
    )
    profile.add_argument(
        "--n", type=int, default=None,
        help="population size (default: the workload's)",
    )
    profile.add_argument(
        "--engine", choices=list(ENGINE_NAMES), default="batched",
        help="simulation engine to profile",
    )
    profile.add_argument(
        "--backend", choices=list(BACKEND_NAMES), default=None,
        help="array backend for the hot-loop kernels (default: "
        "$REPRO_BACKEND or numpy)",
    )
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--interactions", type=int, default=None,
        help="profile exactly this many interactions instead of a "
        "run-to-convergence (recommended for stable timings)",
    )
    profile.add_argument(
        "--max-time", type=float, default=None,
        help="parallel-time budget of a run-to-convergence profile "
        "(default: the workload's budget; ignored with --interactions)",
    )
    profile.add_argument(
        "--batch-size", type=int, default=None,
        help="batched engine only: interactions per batch (default ~sqrt(n))",
    )
    profile.add_argument(
        "--scheduler", choices=list(SCHEDULER_NAMES), default=None,
        help="interaction scheduler (default: the engine's own)",
    )
    profile.add_argument(
        "--scheduler-opt", action="append", default=None, metavar="KEY=VALUE",
        help="scheduler option, repeatable",
    )
    profile.add_argument(
        "--top", type=int, default=12,
        help="rows per profile table (default: 12)",
    )
    profile.set_defaults(handler=_cmd_profile)

    sweep = subparsers.add_parser(
        "sweep",
        help="multi-size, multi-seed sweep with parallel workers and a resumable store",
        description=(
            "Sweep a finite-state workload over population sizes and seeds "
            "through the parallel sweep driver.  Trials are independent and "
            "deterministically seeded, so --workers N produces record-for-"
            "record identical results to --workers 1.  With --store (or "
            "--cache-dir DIR, shorthand for --store jsonl:DIR), finished "
            "trials are appended to a result store keyed by a hash of each "
            "trial spec, and stored trials replay so an interrupted or "
            "repeated sweep executes only the missing ones."
        ),
    )
    sweep.add_argument(
        "--protocol",
        choices=sorted(WORKLOADS) + sorted(VECTOR_WORKLOADS),
        default="epidemic",
        help="which workload to sweep (finite-state workloads run on any "
        "engine; figure2 and leader-terminating require --engine vector)",
    )
    sweep.add_argument(
        "--sizes", default="1000,10000,100000",
        help="comma-separated population sizes",
    )
    sweep.add_argument("--runs", type=int, default=3, help="runs (seeds) per size")
    sweep.add_argument(
        "--engine",
        choices=list(ENGINE_NAMES),
        default="batched",
        help="simulation engine for every trial",
    )
    sweep.add_argument("--seed", type=int, default=0, help="sweep-level base seed")
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial, same results either way)",
    )
    sweep.add_argument(
        "--cache-dir", default="",
        help="shorthand for --store jsonl:DIR (empty: no store)",
    )
    sweep.add_argument(
        "--max-time", type=float, default=None,
        help="per-trial parallel-time budget (default: the workload's budget, "
        "e.g. 200 for polylog-time protocols, 4n for leader election)",
    )
    sweep.add_argument(
        "--check-interval", type=int, default=None,
        help="interactions between predicate checks (default: engine-chosen)",
    )
    sweep.add_argument(
        "--batch-size", type=int, default=None,
        help="batched engine only: interactions per batch (default ~sqrt(n))",
    )
    sweep.add_argument(
        "--backend", choices=list(BACKEND_NAMES), default=None,
        help="array backend for every trial (default: $REPRO_BACKEND or "
        "numpy; participates in the trial cache keys)",
    )
    sweep.add_argument(
        "--fast", action="store_true",
        help="vector workloads only: use scaled-down protocol constants",
    )
    sweep.add_argument(
        "--phase-count", type=int, default=None,
        help="leader-terminating workload only: phases of the leader-driven "
        "clock (paper: 289; small values terminate sooner)",
    )
    sweep.add_argument(
        "--scheduler",
        choices=list(SCHEDULER_NAMES),
        default=None,
        help="interaction scheduler for every trial (default: the engine's "
        "own; participates in the trial cache keys, so cached uniform "
        "results are never replayed for a non-uniform sweep)",
    )
    sweep.add_argument(
        "--scheduler-opt", action="append", default=None, metavar="KEY=VALUE",
        help="scheduler option, repeatable (e.g. --scheduler weighted "
        "--scheduler-opt lazy_rate=0.25)",
    )
    _add_store_arguments(sweep)
    _add_telemetry_arguments(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
