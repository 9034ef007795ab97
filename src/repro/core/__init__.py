"""The paper's primary contribution: uniform size estimation and its variants.

Modules
-------
``parameters``
    :class:`ProtocolParameters` — the numeric constants of the protocol
    (phase-clock threshold factor 95, epoch-count factor 5, ...), with the
    paper's values as defaults and scaled-down presets for fast tests.
``fields`` / ``subprotocols``
    The per-agent state record of Protocol 1 and the paper's subroutines
    (``Partition-Into-A/S``, ``Propagate-Max-Clock-Value``, ``Restart``,
    ``Update-Sum``, ...), implemented as small functions mirroring the
    pseudocode.
``log_size_estimation``
    Protocol 1 — the uniform leaderless ``Log-Size-Estimation`` protocol
    (Theorem 3.1).
``synthetic_coin``
    Appendix B — the variant with no access to random bits (roles A/F,
    synthetic coins from the sender/receiver choice).
``leader_terminating``
    Section 3.4 — terminating size estimation with an initial leader
    (Theorem 3.13).
``probability_one``
    Section 3.3 — probability-1 upper bound on ``log2 n`` via the slow exact
    backup protocol.
``phase_clock``
    Leaderless and leader-driven phase clocks as reusable components.
``composition``
    The restart-based composition scheme of Section 1.1 for running
    downstream (possibly nonuniform) protocols on top of the size estimate.
``array_simulator``
    Protocol 1 as a vector-engine kernel (numpy struct-of-arrays) for large
    populations — the engine behind the Figure 2 reproduction.
``vector_leader``
    The Theorem 3.13 leader-driven terminating protocol as a vector-engine
    kernel, scaling that experiment to ``n >= 10^6``.
"""

from repro.core.parameters import ProtocolParameters
from repro.core.fields import LogSizeAgentState, Role
from repro.core.log_size_estimation import (
    LogSizeEstimationProtocol,
    all_agents_done,
    estimate_error,
    estimation_within_tolerance,
)
from repro.core.synthetic_coin import SyntheticCoinLogSizeEstimation
from repro.core.leader_terminating import LeaderTerminatingSizeEstimation
from repro.core.probability_one import ProbabilityOneUpperBoundProtocol
from repro.core.phase_clock import LeaderDrivenPhaseClock, LeaderlessPhaseClock
from repro.core.composition import RestartComposition, StagedComposition
from repro.core.array_simulator import (
    ArraySimulationResult,
    LogSizeVectorProtocol,
)
from repro.core.vector_leader import (
    LeaderTerminatingVectorProtocol,
    expected_termination_time,
)

__all__ = [
    "ProtocolParameters",
    "LogSizeAgentState",
    "Role",
    "LogSizeEstimationProtocol",
    "all_agents_done",
    "estimate_error",
    "estimation_within_tolerance",
    "SyntheticCoinLogSizeEstimation",
    "LeaderTerminatingSizeEstimation",
    "ProbabilityOneUpperBoundProtocol",
    "LeaderDrivenPhaseClock",
    "LeaderlessPhaseClock",
    "RestartComposition",
    "StagedComposition",
    "ArraySimulationResult",
    "LogSizeVectorProtocol",
    "LeaderTerminatingVectorProtocol",
    "expected_termination_time",
]
