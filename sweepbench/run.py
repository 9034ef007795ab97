"""End-to-end and per-layer sweep benchmark for the ``repro`` stack.

Each workload (``sweepbench/workloads.json``) is a sweep driven through the
public API: specs from ``build_finite_state_trials`` / ``build_vector_trials``
/ ``build_crn_trials``, run by ``repro.harness.parallel.run_trials`` against
a fresh result store, in chunks until ``--seconds`` have passed.  Every
record is checked; a failed check makes the run exit non-zero.

Usage, from the repository root::

    python3 sweepbench/run.py --workload batched-1e6 --seed 1 --seconds 35 --trace 0
    python3 sweepbench/run.py --workload sweep-sqlite --seed 1 --seconds 35 --trace 1
    python3 sweepbench/run.py --workload figure2-vector --self-check

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with no
tracing installed.  ``--trace 1`` runs each chunk of specs untraced and
then again with span wrappers installed (``layers.py``), and reports the
per-layer metrics; the spans are written as Chrome trace-event JSON to
``.sweepbench/trace-<workload>.json``.  ``--self-check`` stalls, in
turn, every layer the workload exercises and checks that the traced run
charges each stall to the stalled layer only.  Metric names and units come
from ``BENCHMARK.json``.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
WORK_DIR = ROOT_DIR / ".sweepbench"
SETUP_PROBES = 7
#: Unstalled/stalled run pairs per layer in --self-check.
SELF_CHECK_PAIRS = 3
#: Chunk index of the warm-up trials, outside any measured run's range.
WARM_UP_CHUNK = 999_999


def load_workloads() -> dict:
    with open(BENCH_DIR / "workloads.json", encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


def metric_units(kind: str) -> dict[str, str]:
    """The ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json: name -> unit."""
    with open(ROOT_DIR / "BENCHMARK.json", encoding="utf-8") as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)[kind]}


def fail(message: str, code: int = 2) -> None:
    print(f"sweepbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def import_stack() -> None:
    """Make the checkout's ``src/repro`` importable, and only that one."""
    source = ROOT_DIR / "src"
    if not (source / "repro" / "__init__.py").is_file():
        fail(f"no repro package under {source}; run from a full checkout")
    # Everything the run writes stays in the checkout, temporary files of
    # the native-kernel compiler and of SQLite included.
    scratch = WORK_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    os.environ["REPRO_NATIVE_CACHE"] = str(WORK_DIR / "native")
    os.environ.pop("REPRO_BACKEND", None)
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not from {source}")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def make_chunk(params: dict, seed: int, index: int) -> list:
    """The ``index``-th chunk of trial specs of a run with workload seed ``seed``."""
    from repro.harness import parallel

    base_seed = seed * 1_000_000 + index
    n = [params["population_size"]]
    if params["kind"] == "finite-state":
        return [
            spec
            for protocol, runs in params["protocols"].items()
            for spec in parallel.build_finite_state_trials(
                n,
                runs,
                base_seed=base_seed,
                engine=params["engine"],
                protocol=protocol,
                backend=params["backend"],
            )
        ]
    if params["kind"] == "vector":
        from repro.core.parameters import ProtocolParameters

        return parallel.build_vector_trials(
            n,
            params["runs_per_chunk"],
            params["protocol"],
            getattr(ProtocolParameters, params["parameters"])(),
            base_seed=base_seed,
            scheduler=params["scheduler"],
            backend=params["backend"],
        )
    return parallel.build_crn_trials(
        n,
        params["runs_per_chunk"],
        params["crn"],
        base_seed=base_seed,
        engine=params["engine"],
        leap_eps=params.get("leap_eps"),
        backend=params["backend"],
    )


def open_fresh_store(params: dict, directory: Path):
    """A new, empty store of the workload's kind under ``directory``."""
    from repro.store import open_store

    directory.mkdir(parents=True)
    if params["store"] == "jsonl":
        return open_store(f"jsonl:{directory}")
    return open_store(f"sqlite:{directory / 'sweep.sqlite'}")


def check_record(params: dict, spec, record) -> str | None:
    """Why ``record`` is not a correct result for ``spec`` (``None`` if it is)."""
    n = spec.population_size
    if not record.converged or record.convergence_time is None:
        return "did not converge within its budget"
    if record.population_size != n or record.seed != spec.seed:
        return "record does not belong to its spec"
    extra = record.extra
    if params["kind"] == "finite-state":
        total = sum(extra["outputs"].values())
        if total != n:
            return f"output counts sum to {total}, not n={n}"
    elif params["kind"] == "vector":
        error = record.max_additive_error
        if not error < params["max_additive_error"]:
            return f"max_additive_error {error} is not below {params['max_additive_error']}"
    else:
        total = sum(extra["counts"].values())
        if total != n:
            return f"final counts sum to {total}, not n={n}"
        regime = extra.get("regime", {})
        if not all(key in regime for key in ("exact_events", "leaps", "ode_steps")):
            return "multiscale record carries no regime counts"
    if extra.get("interactions", 0) <= 0:
        return "record reports no interactions"
    return None


# ---------------------------------------------------------------------------
# One pass: chunks of specs through run_trials
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    """What one measured pass did and saw."""

    executed: list = field(default_factory=list)  # (spec, record)
    resolved: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)  # one message per failed trial
    problems: list = field(default_factory=list)  # checks not tied to one trial
    wall_s: float = 0.0
    exec_wall_s: float = 0.0
    gaps: list = field(default_factory=list)  # seconds per trial, see trial_s.p50

    @property
    def trials_per_s(self) -> float:
        return self.resolved / self.wall_s if self.wall_s else 0.0

    @property
    def interactions_per_s(self) -> float:
        work = sum(record.extra["interactions"] for _, record in self.executed)
        return work / self.wall_s if self.wall_s else 0.0


def run_pass(
    params: dict, store, chunks, seconds: float | None = None, result: Pass | None = None
) -> Pass:
    """Run ``chunks`` (an iterable of spec lists) until exhausted or ``seconds`` pass.

    The counts and timings add to ``result`` when one is given.
    """
    from repro.harness.cache import record_to_dict
    from repro.harness.parallel import run_trials

    result = Pass() if result is None else result
    workers = params["workers"]
    started = time.perf_counter()
    for chunk in chunks:
        if seconds is not None and time.perf_counter() - started >= seconds:
            break
        result.attempted += len(chunk)
        t0 = time.perf_counter()
        done = [t0]

        def progress(_update, done=done) -> None:
            done.append(time.perf_counter())
            result.gaps.append(done[-1] - done[-2])

        try:
            outcome = run_trials(
                chunk, workers=workers, store=store, progress=progress if workers == 1 else None
            )
            t1 = time.perf_counter()
            replayed = None
            if params["replay"]:
                replayed = run_trials(chunk, workers=workers, store=store)
        except Exception as error:  # noqa: BLE001 - a failed chunk is reported
            result.failures.extend(
                f"{spec.cache_key()[:12]}: {type(error).__name__}: {error}"
                for spec in chunk
            )
            break
        t2 = time.perf_counter()
        result.exec_wall_s += t1 - t0
        result.wall_s += t2 - t0
        if workers > 1:
            # A pool's completions are seen only at run_trials' polls, so a
            # single gap is a multiple of the poll; a chunk's mean is not.
            result.gaps.append(workers * (t1 - t0) / len(chunk))
        result.resolved += len(chunk) * (1 if replayed is None else 2)
        for position, (spec, record) in enumerate(zip(chunk, outcome.records)):
            result.executed.append((spec, record))
            problem = check_record(params, spec, record)
            if problem is None and replayed is not None:
                again = replayed.records[position]
                if record_to_dict(again) != record_to_dict(record):
                    problem = "replayed record differs from the stored one"
            if problem is not None:
                result.failures.append(f"{spec.cache_key()[:12]}: {problem}")
        if outcome.executed != len(chunk) or (
            replayed is not None and replayed.from_cache != len(chunk)
        ):
            result.problems.append("the store replayed a new trial or re-ran a stored one")
    return result


def chunk_stream(params: dict, seed: int):
    index = 0
    while True:
        yield make_chunk(params, seed, index)
        index += 1


# ---------------------------------------------------------------------------
# Set-up time and environment
# ---------------------------------------------------------------------------


def setup_probe(workload: str, directory: str) -> None:
    """Body of one fresh set-up process: import, resolve, build, open."""
    import_stack()
    from repro.backend import resolve_backend

    params = load_workloads()[workload]["params"]
    resolve_backend(params["backend"])
    make_chunk(params, 0, 0)
    store = open_fresh_store(params, Path(directory))
    print("ready", flush=True)
    store.close()


def measure_setup(workload: str, work: Path) -> list[float]:
    """Seconds from process start to "first trial ready", per fresh process."""
    samples = []
    for probe in range(SETUP_PROBES):
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--setup-probe",
            workload,
            str(work / f"probe-{probe}"),
        ]
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as process:
            try:
                line = process.stdout.readline()
                elapsed = time.perf_counter() - started
                process.communicate(timeout=60)
            except BaseException:
                process.kill()
                raise
        if process.returncode != 0 or line.strip() != "ready":
            fail(f"set-up probe for {workload} failed (exit {process.returncode})")
        samples.append(elapsed)
    return samples


def warm_native_cache() -> None:
    """Compile the native kernel into the benchmark's cache, if it is not there
    yet, in a child process: the compiler's imports then never grow the
    memory of this process, and no cold compile lands in a measurement."""
    command = [sys.executable, str(Path(__file__).resolve()), "--warm-cache"]
    if subprocess.run(command, stdout=sys.stderr, timeout=600).returncode != 0:
        fail("warming the native kernel cache failed")


def environment(params: dict) -> dict:
    """Host and stack facts recorded with every run; refuses a silent fallback."""
    import numpy

    from repro.backend import backend_availability, resolve_backend

    availability = backend_availability()
    wanted = params["backend"]
    if availability.get(wanted) is not None:
        fail(f"backend {wanted!r} is unavailable: {availability[wanted]}", code=3)
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": resolve_backend(wanted).name,
    }


def peak_rss_mib(workers: int) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * children if workers > 1 else 0)) / 1024.0


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def forked(function):
    """Return ``function()``, run in a forked child and sent back as JSON.

    The child has reaped no process, so its ``RUSAGE_CHILDREN`` peak is
    that of its own pool workers, not that of the compiler a cold native
    kernel cache starts from this process.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            with os.fdopen(write_fd, "w", encoding="utf-8") as pipe:
                json.dump(function(), pipe)
            status = 0
        except BaseException:  # noqa: BLE001 - reported, then the child exits
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        fail(f"the measuring process failed (wait status {status})")
    return json.loads(payload)


def measure_sweep(params: dict, seed: int, seconds: float, work: Path) -> dict:
    store = open_fresh_store(params, work / "store")
    try:
        sweep = run_pass(params, store, chunk_stream(params, seed), seconds)
    finally:
        store.close()
    return {
        "trials_per_s": sweep.trials_per_s,
        "interactions_per_s": sweep.interactions_per_s,
        "gaps": sweep.gaps,
        "attempted": sweep.attempted,
        "failures": sweep.failures,
        "problems": sweep.problems,
        "peak_rss_mb": peak_rss_mib(params["workers"]),
    }


def measure_end_to_end(workload: str, params: dict, seed: int, seconds: float, work: Path):
    measured = forked(lambda: measure_sweep(params, seed, seconds, work))
    sweep = Pass(
        attempted=measured["attempted"],
        failures=measured["failures"],
        problems=measured["problems"],
    )
    setup = measure_setup(workload, work)
    gaps = measured["gaps"] or [math.nan]
    metrics = {
        "trials_per_s": measured["trials_per_s"],
        "interactions_per_s": measured["interactions_per_s"],
        "trial_s.p50": statistics.median(gaps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    notes = [
        f"trial_s.p50 over {len(measured['gaps'])} "
        + ("completions" if params["workers"] == 1 else "chunks"),
        f"setup_s median of {len(setup)} fresh processes: "
        + ", ".join(f"{value:.4f}" for value in setup),
        f"failed_frac {len(sweep.failures) / sweep.attempted} ratio "
        f"({len(sweep.failures)}/{sweep.attempted})",
    ]
    return sweep, metrics, metric_units("end_to_end"), notes


def warm_up(params: dict, seed: int, work: Path) -> None:
    """Two untraced trials first, so lazy imports and first calls land outside."""
    store = open_fresh_store(params, work)
    try:
        run_pass(params, store, [make_chunk(params, seed, WARM_UP_CHUNK)[:2]])
    finally:
        store.close()


def traced_chunk(params: dict, tracer, store, chunk: list, result: Pass) -> None:
    """Run one chunk with every layer boundary wrapped, then unwrap."""
    tracer.install(store)
    try:
        run_pass(params, store, [chunk], result=result)
    finally:
        tracer.uninstall()


def measure_layers(workload: str, params: dict, seed: int, seconds: float, work: Path):
    from layers import Tracer
    from repro.obs.trace import validate_trace, write_chrome_trace

    warm_up(params, seed, work / "warm")
    # Each chunk runs untraced, then traced against a second store, so both
    # passes see the same host conditions and the overhead compares like
    # with like.
    plain, traced = Pass(), Pass()
    plain_store = open_fresh_store(params, work / "untraced")
    traced_store = open_fresh_store(params, work / "traced")
    tracer = Tracer(work / "spool")
    started = time.perf_counter()
    try:
        for chunk in chunk_stream(params, seed):
            if time.perf_counter() - started >= seconds:
                break
            run_pass(params, plain_store, [chunk], result=plain)
            traced_chunk(params, tracer, traced_store, chunk, traced)
    finally:
        plain_store.close()
        traced_store.close()
    tracer.merge_spool()
    metrics = tracer.layer_metrics()
    run_trial_s = metrics["harness.run_trial.s"]
    metrics["harness.worker_idle_share"] = 1.0 - run_trial_s / (
        params["workers"] * traced.exec_wall_s
    )
    regimes = [r.extra["regime"] for _, r in traced.executed if "regime" in r.extra]
    for key in ("exact_events", "leaps", "ode_steps"):
        metrics[f"crn.regime.{key}"] = (
            statistics.fmean(regime[key] for regime in regimes) if regimes else 0.0
        )
    metrics["trace_overhead_share"] = 1.0 - traced.trials_per_s / plain.trials_per_s

    problems = []
    if metrics["harness.run_trial.calls"] != len(traced.executed):
        problems.append(
            f"{metrics['harness.run_trial.calls']} run_trial spans for "
            f"{len(traced.executed)} executed trials"
        )
    WORK_DIR.mkdir(exist_ok=True)
    trace_path = WORK_DIR / f"trace-{workload}.json"
    trace = write_chrome_trace(trace_path, tracer.trace_events())
    problems.extend(f"trace: {problem}" for problem in validate_trace(trace))

    sweep = Pass(
        attempted=plain.attempted + traced.attempted,
        failures=plain.failures + traced.failures,
        problems=plain.problems + traced.problems + problems,
    )
    notes = [
        f"ran {plain.attempted} trials untraced and the same again traced; "
        f"spans in {trace_path.relative_to(ROOT_DIR)}",
    ]
    return sweep, metrics, metric_units("per_layer"), notes


def self_check(workload: str, params: dict, config: dict, seed: int, work: Path) -> int:
    """Stall each layer the workload exercises, in turn; the traced run must
    charge every stall to the stalled layer alone."""
    from layers import LAYERS, Tracer

    chunk = make_chunk(params, seed, 0)[: config["trials"]]
    warm_up(params, seed, work / "warm")

    def traced_run(tag: str, stall=None):
        tracer, result = Tracer(work / f"{tag}-spool", stall), Pass()
        store = open_fresh_store(params, work / tag)
        try:
            traced_chunk(params, tracer, store, chunk, result)
        finally:
            store.close()
        tracer.merge_spool()
        return tracer, result

    probe, _ = traced_run("probe")
    exercised = [name for name in LAYERS if probe.calls[name]]
    print(f"self-check {workload}: {len(chunk)} trials, {config['stall_s']} s of stall "
          f"in each of {len(exercised)} layers")
    ok = True
    for layer in exercised:
        # Unstalled and stalled runs alternate, so each pair sees the same
        # host conditions; the medians over the pairs drop a pair that did not.
        injected, deltas, clean = [], {name: [] for name in LAYERS}, True
        for pair in range(SELF_CHECK_PAIRS):
            base, _ = traced_run(f"base-{layer}-{pair}")
            stall_s = config["stall_s"] / base.calls[layer]
            stalled, result = traced_run(f"stalled-{layer}-{pair}", (layer, stall_s))
            injected.append(stalled.stalled_ns / 1e9)
            for name in LAYERS:
                deltas[name].append((stalled.self_ns[name] - base.self_ns[name]) / 1e9)
            clean &= not result.failures and not result.problems
        injected = statistics.median(injected)
        delta = {name: statistics.median(values) for name, values in deltas.items()}
        other = max((name for name in LAYERS if name != layer), key=delta.get)
        # The stalled layer must gain the stall; no other layer may gain a
        # quarter of it.  Other layers may lose time: a sleeping stall frees
        # a CPU for the rest of the sweep.
        good = (
            injected > 0
            and clean
            and abs(delta[layer] - injected) <= 0.25 * injected
            and delta[other] <= 0.25 * injected
        )
        ok &= good
        print(f"  {layer:<36} stalled {injected:7.4f} s: own self {delta[layer]:+8.4f} s, "
              f"largest other {other} {delta[other]:+8.4f} s  {'ok' if good else 'WRONG LAYER'}")
    print(f"self-check {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(load_workloads()))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--setup-probe", nargs=2, metavar=("WORKLOAD", "DIR"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--warm-cache", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_probe:
        setup_probe(*args.setup_probe)
        return 0
    if args.warm_cache:
        import_stack()
        from repro.backend import backend_availability

        backend_availability()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    import_stack()
    config = load_workloads()[args.workload]
    params = config["params"]
    warm_native_cache()
    env = environment(params)
    print(f"env {json.dumps(env, sort_keys=True)}")
    work = WORK_DIR / f"run-{os.getpid()}"
    try:
        if args.self_check:
            return self_check(args.workload, params, config["self_check"], args.seed, work)
        measure = measure_layers if args.trace else measure_end_to_end
        sweep, metrics, units, notes = measure(
            args.workload, params, args.seed, args.seconds, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in notes:
        print(note)
    for failure in sweep.failures + sweep.problems:
        print(f"FAILED {failure}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    correct = not sweep.failures and not sweep.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sweep.attempted,
                "failed": len(sweep.failures),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
