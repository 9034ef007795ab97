"""Reproduction of Doty & Eftekhari, "Efficient Size Estimation and
Impossibility of Termination in Uniform Dense Population Protocols" (PODC 2019).

The package provides:

* a population-protocol simulation substrate (:mod:`repro.engine`,
  :mod:`repro.protocols`, :mod:`repro.rng`),
* the paper's main contribution — the uniform leaderless
  ``Log-Size-Estimation`` protocol — and its variants (:mod:`repro.core`),
* the Section 4 termination theory made executable (:mod:`repro.termination`),
* the probability-theory substrate of the appendices (:mod:`repro.analysis`),
* experiment workloads and the harness that regenerates the paper's Figure 2
  and the theorem-level tables (:mod:`repro.workloads`, :mod:`repro.harness`),
* a command-line interface (:mod:`repro.cli`).

Quickstart
----------
>>> from repro import LogSizeEstimationProtocol, ProtocolParameters, Simulation
>>> from repro.core import all_agents_done
>>> protocol = LogSizeEstimationProtocol(ProtocolParameters.fast_test())
>>> simulation = Simulation(protocol, population_size=64, seed=1)
>>> _ = simulation.run_until(all_agents_done, max_parallel_time=5000)
>>> outputs = simulation.outputs()   # per-agent estimates of log2(64) = 6
"""

from repro._version import __version__
from repro.core.array_simulator import ArraySimulationResult
from repro.core.leader_terminating import LeaderTerminatingSizeEstimation
from repro.core.log_size_estimation import LogSizeEstimationProtocol
from repro.core.parameters import ProtocolParameters
from repro.core.probability_one import ProbabilityOneUpperBoundProtocol
from repro.core.synthetic_coin import SyntheticCoinLogSizeEstimation
from repro.engine.count_simulator import CountSimulator
from repro.engine.simulator import Simulation
from repro.exceptions import ReproError
from repro.harness.figures import reproduce_figure2
from repro.rng import RandomSource

__all__ = [
    "__version__",
    "ArraySimulationResult",
    "LeaderTerminatingSizeEstimation",
    "LogSizeEstimationProtocol",
    "ProtocolParameters",
    "ProbabilityOneUpperBoundProtocol",
    "SyntheticCoinLogSizeEstimation",
    "CountSimulator",
    "Simulation",
    "ReproError",
    "reproduce_figure2",
    "RandomSource",
]
