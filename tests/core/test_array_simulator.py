"""Tests for Protocol 1 on the vector engine and its agreement with the reference engine."""

from __future__ import annotations

import math

import pytest

from repro.core.array_simulator import (
    LogSizeVectorProtocol,
    expected_convergence_time,
)
from repro.core.log_size_estimation import (
    LogSizeEstimationProtocol,
    all_agents_done,
    estimate_error,
)
from repro.core.parameters import ProtocolParameters
from repro.engine.simulator import Simulation
from repro.engine.vector import VectorSimulator
from repro.exceptions import ConvergenceError, SimulationError


def protocol1(n, params=None, seed=None):
    """Protocol 1's kernel on a fresh vector-engine simulator."""
    return VectorSimulator(LogSizeVectorProtocol(params), n, seed=seed)


class TestBasics:
    def test_rejects_tiny_population(self):
        with pytest.raises(SimulationError):
            protocol1(1)

    def test_round_accounting(self, fast_params):
        simulator = protocol1(100, fast_params, seed=1)
        for _ in range(10):
            simulator.run_round()
        assert simulator.rounds == 10
        assert simulator.interactions == 10 * 50
        assert simulator.parallel_time == pytest.approx(5.0)

    def test_expected_convergence_time_grows_with_n(self, paper_params):
        assert expected_convergence_time(10_000, paper_params) > expected_convergence_time(
            100, paper_params
        )

    def test_timeout_behaviour(self, fast_params):
        simulator = protocol1(64, fast_params, seed=2)
        result = simulator.run_until_done(max_parallel_time=1.0)
        assert not result.converged
        with pytest.raises(ConvergenceError):
            protocol1(64, fast_params, seed=2).run_until_done(
                max_parallel_time=1.0, raise_on_timeout=True
            )

    def test_result_dictionary_round_trip(self, fast_params):
        simulator = protocol1(64, fast_params, seed=3)
        result = simulator.run_until_done(max_parallel_time=5_000)
        data = result.as_dict()
        assert data["population_size"] == 64
        assert data["converged"] == result.converged


class TestConvergence:
    @pytest.fixture(scope="class")
    def result(self):
        params = ProtocolParameters.fast_test()
        simulator = protocol1(256, params, seed=5)
        return simulator.run_until_done(
            max_parallel_time=6 * expected_convergence_time(256, params)
        )

    def test_converges(self, result):
        assert result.converged
        assert result.convergence_time is not None and result.convergence_time > 0

    def test_estimate_accuracy(self, result):
        assert result.max_additive_error < 4.0

    def test_all_agents_report(self, result):
        assert not math.isnan(result.final_estimate_mean)
        assert result.final_estimate_min <= result.final_estimate_mean <= result.final_estimate_max

    def test_log_size2_in_weak_range(self, result):
        n = result.population_size
        assert result.log_size2 >= math.log2(n) - math.log2(math.log(n)) - 1
        assert result.log_size2 <= 2 * math.log2(n) + 3

    def test_state_bound_tracked(self, result):
        assert result.distinct_state_bound > 0

    def test_reproducible(self):
        params = ProtocolParameters.fast_test()
        outcomes = []
        for _ in range(2):
            simulator = protocol1(128, params, seed=9)
            outcomes.append(
                simulator.run_until_done(max_parallel_time=5_000).convergence_time
            )
        assert outcomes[0] == outcomes[1]


class TestExactConvergenceDetection:
    """Regression tests for the convergence-time quantisation bug.

    ``run_until_done`` used to evaluate the convergence condition only every
    ``check_every_rounds`` (default 64) rounds, overstating every reported
    Figure 2 time by up to 63 rounds (~32 units of parallel time at n=100 —
    the same order as the quantity being plotted).  Detection must be exact
    to the round; ``check_every_rounds`` only throttles field-range sampling.
    """

    def test_detection_is_exact_to_the_round(self, fast_params):
        n, seed = 96, 13
        # Ground truth: step round by round and record the first all-done round.
        manual = protocol1(n, fast_params, seed=seed)
        while not manual.all_done():
            manual.run_round()
        exact_rounds = manual.rounds
        # The driver must stop at exactly that round, not at the next
        # multiple of check_every_rounds (this seed converges at a round
        # that is not such a multiple, so quantised detection would differ).
        assert exact_rounds % 64 != 0
        driver = protocol1(n, fast_params, seed=seed)
        result = driver.run_until_done(max_parallel_time=5_000, check_every_rounds=64)
        assert result.converged
        assert result.rounds == exact_rounds
        assert result.convergence_time == pytest.approx(
            exact_rounds * (n // 2) / n
        )

    def test_detection_independent_of_range_sampling_cadence(self, fast_params):
        times = []
        for cadence in (1, 7, 64, 1000):
            simulator = protocol1(64, fast_params, seed=3)
            result = simulator.run_until_done(
                max_parallel_time=5_000, check_every_rounds=cadence
            )
            assert result.converged
            times.append(result.convergence_time)
        assert len(set(times)) == 1

    def test_ranges_still_sampled_for_state_table(self, fast_params):
        simulator = protocol1(64, fast_params, seed=3)
        simulator.run_until_done(max_parallel_time=5_000)
        assert simulator.fields.max_observed("log_size2") >= 1
        assert simulator.fields.max_observed("time") > 0
        assert simulator.protocol.distinct_state_bound(simulator.fields) > 1


class TestCrossEngineAgreement:
    """The vectorised engine must agree with the reference engine on behaviour."""

    def test_accuracy_agreement(self):
        params = ProtocolParameters.fast_test()
        n, seed = 96, 21

        array_result = protocol1(n, params, seed=seed).run_until_done(
            max_parallel_time=5_000
        )

        protocol = LogSizeEstimationProtocol(params)
        simulation = Simulation(protocol, n, seed=seed)
        simulation.run_until(all_agents_done, max_parallel_time=50_000)
        sequential_error = estimate_error(simulation)["max_additive_error"]

        assert array_result.converged
        # Both engines estimate log2(96) ~ 6.58 within a small additive error.
        assert array_result.max_additive_error < 4.0
        assert sequential_error < 4.0

    def test_convergence_time_same_order_of_magnitude(self):
        params = ProtocolParameters.fast_test()
        n = 96
        array_time = (
            protocol1(n, params, seed=31)
            .run_until_done(max_parallel_time=5_000)
            .convergence_time
        )
        protocol = LogSizeEstimationProtocol(params)
        simulation = Simulation(protocol, n, seed=31)
        sequential_time = simulation.run_until(all_agents_done, max_parallel_time=50_000)
        assert array_time is not None
        # The matching-round scheduler halves per-agent interaction variance but
        # keeps the same Theta(log^2 n) behaviour; allow a factor-3 band.
        ratio = sequential_time / array_time
        assert 1 / 3 < ratio < 3

    def test_growth_shape_is_superlinear_in_log_n(self):
        """Convergence time grows roughly like log^2 n (Figure 2's shape)."""
        params = ProtocolParameters.fast_test()
        times = {}
        for n in (64, 1024):
            result = protocol1(n, params, seed=7).run_until_done(
                max_parallel_time=8 * expected_convergence_time(n, params)
            )
            assert result.converged
            times[n] = result.convergence_time
        # log2^2(1024)/log2^2(64) = 100/36 ~ 2.8; the measured ratio should be
        # clearly above 1 (growth) and not wildly above the predicted ~2.8.
        ratio = times[1024] / times[64]
        assert 1.3 < ratio < 6.0
