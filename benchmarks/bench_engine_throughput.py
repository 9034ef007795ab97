"""T-ENGINE — supporting benchmark: raw throughput of the simulation engines.

Not a paper artefact, but the number that determines how far every sweep can
be pushed: interactions per second of

(a) the agent-level engine (on the main protocol and on the epidemic),
(b) the count-based engine on a two-state epidemic,
(c) the batched count engine on the same epidemic,
(d) the vector engine on the same epidemic (generic finite-state kernel over
    matching rounds),
(e) the vector engine running the main protocol's bespoke kernel
    (``LogSizeVectorProtocol``), and
(f) the batched engine through every *available* JIT array backend (numba,
    native) — the array-backend seam of ``repro.backend`` — recorded as a
    separate dimension of the artifact.

Besides the pytest-benchmark entries, this module doubles as a script::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py

which sweeps the four finite-state engines over ``n = 10^3 .. 10^6``
(override with ``REPRO_ENGINE_BENCH_SIZES``) running the epidemic for
``REPRO_ENGINE_BENCH_TIME`` (default 20) units of parallel time each, and
writes a ``BENCH_engines.json`` trajectory artifact so future changes can be
checked for throughput regressions.  The artifact records the
batched-vs-count speedup at the largest size (the PR-2 tentpole target is
>= 20x at ``n = 10^6``) and, per JIT backend, the batched throughput and its
ratio to the numpy reference backend (the array-backend tentpole target is
>= 10^8 interactions/s and >= 10x the pre-seam batched rate at
``n = 10^6``).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_REPO_ROOT), str(_REPO_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.conftest import PAPER_PARAMS
from repro._version import __version__
from repro.backend import backend_availability
from repro.core.array_simulator import LogSizeVectorProtocol
from repro.core.log_size_estimation import LogSizeEstimationProtocol
from repro.core.parameters import ProtocolParameters
from repro.engine.count_simulator import CountSimulator
from repro.engine.selection import ENGINE_NAMES, build_engine
from repro.engine.simulator import Simulation
from repro.engine.vector import VectorSimulator
from repro.protocols.epidemic import EpidemicProtocol
from repro.workloads.populations import sizes_from_env

#: Sweep grid of the engine-comparison script / benchmarks.  The agent engine
#: is only run up to this cap (it is O(n) per unit of parallel time and
#: exists in the sweep as the exact reference point).
ENGINE_SWEEP_SIZES = sizes_from_env(
    "REPRO_ENGINE_BENCH_SIZES", [1_000, 10_000, 100_000, 1_000_000]
)
AGENT_ENGINE_SIZE_CAP = 10_000
PARALLEL_TIME_UNITS = float(os.environ.get("REPRO_ENGINE_BENCH_TIME", "20"))
ARTIFACT_NAME = "BENCH_engines.json"

#: The batched rate this artifact recorded at ``n = 10^6`` immediately before
#: the array-backend seam landed (inline hot loops, v1.0.0) — the fixed
#: reference point of the ">= 10x with a JIT backend" target.
PRE_SEAM_BATCHED_RATE = 12_241_902.0


def jit_backend_names() -> list[str]:
    """The non-numpy array backends available in this environment."""
    return [
        name
        for name, reason in backend_availability().items()
        if name != "numpy" and reason is None
    ]


def time_epidemic_run(
    engine: str,
    population_size: int,
    parallel_time: float,
    seed: int = 1,
    backend: str | None = None,
) -> dict:
    """Run the epidemic for ``parallel_time`` units on ``engine``; time it.

    Returns a JSON-friendly record with the wall-clock seconds, the executed
    interaction count and the implied throughput.  ``backend`` selects an
    array backend on the engines that have a backend seam (batched, vector).
    """
    simulator = build_engine(
        engine, EpidemicProtocol(), population_size, seed=seed, backend=backend
    )
    started = time.perf_counter()
    simulator.run_parallel_time(parallel_time)
    elapsed = time.perf_counter() - started
    interactions = simulator.interactions
    record = {
        "engine": engine,
        "population_size": population_size,
        "parallel_time": parallel_time,
        "seconds": elapsed,
        "interactions": interactions,
        "interactions_per_second": interactions / elapsed if elapsed > 0 else None,
    }
    if engine in ("batched", "vector"):
        record["backend"] = simulator.backend.name
    if engine == "batched":
        record["batched_batches"] = simulator.batched_batches
        record["fallback_batches"] = simulator.fallback_batches
    return record


def run_engine_sweep(
    sizes=ENGINE_SWEEP_SIZES, parallel_time: float = PARALLEL_TIME_UNITS
) -> dict:
    """Time all four finite-state engines across ``sizes``; build the artifact."""
    results = []
    jit_backends = jit_backend_names()
    for population_size in sizes:
        for engine in ENGINE_NAMES:
            if engine == "agent" and population_size > AGENT_ENGINE_SIZE_CAP:
                continue
            record = time_epidemic_run(engine, population_size, parallel_time)
            results.append(record)
            rate = record["interactions_per_second"]
            rate_text = f"{rate:,.0f} interactions/s" if rate is not None else "n/a"
            print(
                f"  {engine:>7} n={population_size:>9,} : {record['seconds']:8.3f}s "
                f"({rate_text})"
            )
        # The backend dimension: the batched engine through each JIT backend.
        for backend in jit_backends:
            record = time_epidemic_run(
                "batched", population_size, parallel_time, backend=backend
            )
            results.append(record)
            rate = record["interactions_per_second"]
            rate_text = f"{rate:,.0f} interactions/s" if rate is not None else "n/a"
            label = f"batched[{backend}]"
            print(
                f"  {label:>15} n={population_size:>9,} : "
                f"{record['seconds']:8.3f}s ({rate_text})"
            )
    by_key = {
        (r["engine"], r["population_size"], r.get("backend", "numpy")): r
        for r in results
    }

    def _speedups(engine: str, backend: str = "numpy", versus=("count", "numpy")) -> dict:
        ratios = {}
        for population_size in sizes:
            reference = by_key.get((versus[0], population_size, versus[1]))
            other = by_key.get((engine, population_size, backend))
            if reference and other and other["seconds"] > 0:
                ratios[str(population_size)] = (
                    reference["seconds"] / other["seconds"]
                )
        return ratios

    largest = max(sizes)
    jit_target: dict = {
        "population_size": largest,
        "pre_seam_batched_interactions_per_second": PRE_SEAM_BATCHED_RATE,
    }
    numpy_record = by_key.get(("batched", largest, "numpy"))
    if numpy_record:
        jit_target["numpy_interactions_per_second"] = numpy_record[
            "interactions_per_second"
        ]
    best_backend, best_rate = None, 0.0
    for backend in jit_backends:
        record = by_key.get(("batched", largest, backend))
        if record and (record["interactions_per_second"] or 0.0) > best_rate:
            best_backend = backend
            best_rate = record["interactions_per_second"]
    if best_backend is not None:
        jit_target.update(
            {
                "best_backend": best_backend,
                "interactions_per_second": best_rate,
                "speedup_vs_numpy_backend": (
                    best_rate / numpy_record["interactions_per_second"]
                    if numpy_record
                    else None
                ),
                "speedup_vs_pre_seam": best_rate / PRE_SEAM_BATCHED_RATE,
                "meets_1e8_per_second": best_rate >= 1e8,
                "meets_10x_pre_seam": best_rate
                >= 10.0 * PRE_SEAM_BATCHED_RATE,
            }
        )

    return {
        "benchmark": "T-ENGINE epidemic engine sweep",
        "version": __version__,
        "protocol": EpidemicProtocol().describe(),
        "parallel_time_units": parallel_time,
        "backend_availability": backend_availability(),
        "results": results,
        "batched_vs_count_speedup": _speedups("batched"),
        "vector_vs_count_speedup": _speedups("vector"),
        "batched_backend_speedup_vs_numpy": {
            backend: _speedups("batched", backend, versus=("batched", "numpy"))
            for backend in jit_backends
        },
        "jit_backend_target": jit_target,
    }


def write_artifact(payload: dict, path: Path | None = None) -> Path:
    """Write the sweep payload as the ``BENCH_engines.json`` artifact."""
    if path is None:
        path = Path(__file__).resolve().parent.parent / ARTIFACT_NAME
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


# -- pytest-benchmark entries ---------------------------------------------------


def bench_agent_engine_throughput(benchmark):
    """Agent-level engine running the main protocol (interactions/second)."""
    interactions = 20_000
    protocol = LogSizeEstimationProtocol(ProtocolParameters.fast_test())
    simulation = Simulation(protocol, 256, seed=1)

    def run_chunk():
        simulation.run_interactions(interactions)

    benchmark.pedantic(run_chunk, rounds=3, iterations=1)
    benchmark.extra_info["interactions_per_round"] = interactions


def bench_count_engine_throughput(benchmark):
    """Count-based engine running an epidemic at n = 10^5 (interactions/second)."""
    interactions = 50_000
    simulator = CountSimulator(EpidemicProtocol(), 100_000, seed=1)

    def run_chunk():
        simulator.run_interactions(interactions)

    benchmark.pedantic(run_chunk, rounds=3, iterations=1)
    benchmark.extra_info["interactions_per_round"] = interactions


@pytest.mark.parametrize("engine", list(ENGINE_NAMES))
@pytest.mark.parametrize("population_size", [size for size in ENGINE_SWEEP_SIZES if size <= 100_000])
def bench_epidemic_engine_comparison(benchmark, engine, population_size):
    """All four finite-state engines on the same epidemic workload."""
    if engine == "agent" and population_size > AGENT_ENGINE_SIZE_CAP:
        pytest.skip("agent engine is the exact reference; capped at small n")
    parallel_time = min(PARALLEL_TIME_UNITS, 5.0)
    holder = {}

    def run_epidemic():
        holder.update(time_epidemic_run(engine, population_size, parallel_time))

    benchmark.pedantic(run_epidemic, rounds=1, iterations=1)
    benchmark.extra_info.update(holder)


def bench_batched_vs_count_speedup(benchmark):
    """The tentpole number: batched vs count at the largest sweep size.

    With the default grid this is the epidemic at ``n = 10^6`` for 20 units
    of parallel time; the batched engine must be at least 20x faster.
    """
    population_size = max(ENGINE_SWEEP_SIZES)
    holder = {}

    def run_pair():
        batched = time_epidemic_run("batched", population_size, PARALLEL_TIME_UNITS)
        count = time_epidemic_run("count", population_size, PARALLEL_TIME_UNITS)
        holder["batched"] = batched
        holder["count"] = count
        holder["speedup"] = count["seconds"] / batched["seconds"]

    benchmark.pedantic(run_pair, rounds=1, iterations=1)
    benchmark.extra_info["population_size"] = population_size
    benchmark.extra_info["batched_seconds"] = holder["batched"]["seconds"]
    benchmark.extra_info["count_seconds"] = holder["count"]["seconds"]
    benchmark.extra_info["speedup"] = holder["speedup"]
    # The 20x target is stated at n = 10^6 (the batching advantage grows with
    # n); scaled-down grids via REPRO_ENGINE_BENCH_SIZES only record the
    # number.
    if population_size >= 1_000_000:
        assert holder["speedup"] >= 20.0, (
            f"batched engine is only {holder['speedup']:.1f}x faster than the count "
            f"engine at n={population_size}; the tentpole target is 20x"
        )


def bench_batched_jit_backend_speedup(benchmark):
    """The array-backend tentpole: batched + best JIT backend vs numpy.

    At ``n = 10^6`` the fastest available JIT backend must sustain at least
    ``10^8`` interactions/s — >= 10x the batched rate recorded before the
    seam existed.  On numpy-only environments (no numba, no C toolchain)
    there is nothing to measure and the benchmark skips.
    """
    backends = jit_backend_names()
    if not backends:
        pytest.skip("no JIT array backend available (numpy-only environment)")
    population_size = max(ENGINE_SWEEP_SIZES)
    holder = {}

    def run_pair():
        numpy_record = time_epidemic_run(
            "batched", population_size, PARALLEL_TIME_UNITS, backend="numpy"
        )
        best = None
        for backend in backends:
            record = time_epidemic_run(
                "batched", population_size, PARALLEL_TIME_UNITS, backend=backend
            )
            if best is None or (
                record["interactions_per_second"]
                > best["interactions_per_second"]
            ):
                best = record
        holder["numpy"] = numpy_record
        holder["jit"] = best

    benchmark.pedantic(run_pair, rounds=1, iterations=1)
    jit_rate = holder["jit"]["interactions_per_second"]
    benchmark.extra_info["population_size"] = population_size
    benchmark.extra_info["jit_backend"] = holder["jit"]["backend"]
    benchmark.extra_info["jit_interactions_per_second"] = jit_rate
    benchmark.extra_info["numpy_interactions_per_second"] = holder["numpy"][
        "interactions_per_second"
    ]
    benchmark.extra_info["speedup_vs_pre_seam"] = jit_rate / PRE_SEAM_BATCHED_RATE
    # The 10^8/s and 10x-pre-seam bars are stated at n = 10^6; scaled-down
    # grids via REPRO_ENGINE_BENCH_SIZES only record the numbers.
    if population_size >= 1_000_000:
        assert jit_rate >= 1e8, (
            f"{holder['jit']['backend']} backend sustains only {jit_rate:,.0f} "
            f"interactions/s at n={population_size}; the target is 10^8"
        )
        assert jit_rate >= 10.0 * PRE_SEAM_BATCHED_RATE, (
            f"{holder['jit']['backend']} backend is only "
            f"{jit_rate / PRE_SEAM_BATCHED_RATE:.1f}x the pre-seam batched "
            f"rate; the target is 10x"
        )


@pytest.mark.parametrize("population_size", [1_024, 8_192])
def bench_array_engine_throughput(benchmark, population_size):
    """Vectorised engine: matching rounds per second at two population sizes."""
    rounds = 2_000
    simulator = VectorSimulator(
        LogSizeVectorProtocol(PAPER_PARAMS), population_size, seed=1
    )

    def run_rounds():
        for _ in range(rounds):
            simulator.run_round()

    benchmark.pedantic(run_rounds, rounds=1, iterations=1)
    benchmark.extra_info["population_size"] = population_size
    benchmark.extra_info["matching_rounds"] = rounds
    benchmark.extra_info["interactions"] = rounds * (population_size // 2)


def main() -> int:
    """Run the engine sweep and write the ``BENCH_engines.json`` artifact."""
    print(
        f"Engine throughput sweep: epidemic, {PARALLEL_TIME_UNITS} units of "
        f"parallel time, sizes {ENGINE_SWEEP_SIZES}"
    )
    payload = run_engine_sweep()
    path = write_artifact(payload)
    print(f"\nartifact written to {path}")
    largest = str(max(ENGINE_SWEEP_SIZES))
    speedup = payload["batched_vs_count_speedup"].get(largest)
    if speedup is not None:
        print(f"batched vs count speedup at n={largest}: {speedup:.1f}x")
    target = payload["jit_backend_target"]
    if "best_backend" in target:
        print(
            f"best JIT backend at n={largest}: {target['best_backend']} at "
            f"{target['interactions_per_second']:,.0f} interactions/s "
            f"({target['speedup_vs_numpy_backend']:.1f}x the numpy backend, "
            f"{target['speedup_vs_pre_seam']:.1f}x the pre-seam rate; "
            f">=10^8/s: {target['meets_1e8_per_second']})"
        )
    else:
        print("no JIT array backend available; backend dimension not recorded")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
