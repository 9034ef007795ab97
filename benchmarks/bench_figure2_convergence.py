"""FIG2 — Figure 2: convergence time of Log-Size-Estimation vs population size.

Reproduces the paper's only evaluation figure (Appendix C): for each
population size, run the protocol with the paper's constants until every
agent has finished all ``5 * logSize2`` epochs and record the parallel time.
The wall-clock time measured by pytest-benchmark is the simulation cost; the
scientific quantities (convergence parallel time, additive error) are attached
as ``extra_info``.

Paper reference points (Figure 2, sequential scheduler): roughly 2.5e4 at
n=100, 1e5 at n=10^3, 2e5 at n=10^4 and 3e5 at n=10^5 units of parallel time,
with the estimate always within additive error 2.  The vectorised
matching-round engine used here reproduces the same growth shape
(time ~ c * log^2 n) and the <=2 additive error; absolute parallel times are
smaller by a constant factor because every agent has exactly one interaction
per round (see DESIGN.md, Schedulers).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import FIGURE2_RUNS, FIGURE2_SIZES, PAPER_PARAMS
from repro.core.array_simulator import LogSizeVectorProtocol, expected_convergence_time
from repro.engine.vector import VectorSimulator


@pytest.mark.parametrize("population_size", FIGURE2_SIZES)
def bench_figure2_convergence_time(benchmark, population_size):
    """One Figure 2 point: run to all-agents-done at the paper's constants."""
    runs = {"results": []}

    def run_sweep():
        results = []
        for run_index in range(FIGURE2_RUNS):
            simulator = VectorSimulator(
                LogSizeVectorProtocol(PAPER_PARAMS),
                population_size,
                seed=2019 + run_index,
            )
            results.append(
                simulator.run_until_done(
                    max_parallel_time=4
                    * expected_convergence_time(population_size, PAPER_PARAMS)
                )
            )
        runs["results"] = results
        return results

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    results = runs["results"]
    converged = [result for result in results if result.converged]
    assert converged, "no Figure 2 run converged within its budget"
    times = [result.convergence_time for result in converged]
    errors = [result.max_additive_error for result in converged]
    benchmark.extra_info["population_size"] = population_size
    benchmark.extra_info["runs"] = len(results)
    benchmark.extra_info["mean_convergence_parallel_time"] = sum(times) / len(times)
    benchmark.extra_info["max_convergence_parallel_time"] = max(times)
    benchmark.extra_info["max_additive_error"] = max(errors)
    benchmark.extra_info["log_size2"] = max(result.log_size2 for result in converged)
    # The paper's empirical observation: additive error below 2 in practice.
    assert max(errors) < 3.0
