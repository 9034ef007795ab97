"""Approximate majority baseline.

The 3-state approximate-majority protocol (Angluin, Aspnes, Eisenstat) is the
canonical example of a fast constant-state computation and one of the
downstream tasks (exact majority) that the nonuniform polylog protocols cited
by the paper solve with an initial estimate of ``log n``.  We include the
3-state protocol as

* a realistic downstream protocol for the composition machinery of
  :mod:`repro.core.composition` (the size estimate sets the stage length), and
* a finite-state protocol exercised by the count-based engine and the
  termination/density experiments (its initial configurations are dense
  whenever both opinions start with a constant fraction of the population).

States: ``"X"`` and ``"Y"`` (the two opinions) and ``"B"`` (blank/undecided).
Transitions (both orderings):

* ``X, Y -> X, B`` and ``Y, X -> Y, B`` — opposite opinions: the sender is
  blanked,
* ``X, B -> X, X`` and ``Y, B -> Y, Y`` — an opinionated agent recruits a
  blank one.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.engine.configuration import Configuration
from repro.exceptions import ProtocolError
from repro.protocols.base import FiniteStateProtocol, RandomizedTransition

#: Multiplier of the deterministic id striping (the golden-ratio conjugate).
_STRIPE = 0.6180339887498949
#: Agent ids per numpy block when counting the striping; bounds the
#: temporary arrays independently of ``n``.
_STRIPE_BLOCK = 8192


class ApproximateMajorityProtocol(FiniteStateProtocol):
    """Three-state approximate majority over opinions ``X`` and ``Y``.

    Parameters
    ----------
    x_fraction:
        Fraction of agents initialised with opinion ``X`` (the rest start
        with ``Y``).  Agents are assigned deterministically by id so the same
        initial margin is reproducible across engines.
    """

    is_uniform = True

    OPINION_X = "X"
    OPINION_Y = "Y"
    BLANK = "B"

    def __init__(self, x_fraction: float = 0.6) -> None:
        if not 0.0 <= x_fraction <= 1.0:
            raise ProtocolError(f"x_fraction must be in [0, 1], got {x_fraction}")
        self.x_fraction = x_fraction

    def states(self) -> Sequence[Hashable]:
        return (self.OPINION_X, self.OPINION_Y, self.BLANK)

    def initial_state(self, agent_id: int) -> Hashable:
        # Deterministic striping: agent ids are assigned X at rate x_fraction.
        # Using the fractional part keeps the margin stable for any n.
        position = (agent_id * _STRIPE) % 1.0
        return self.OPINION_X if position < self.x_fraction else self.OPINION_Y

    def initial_configuration(self, population_size: int) -> Configuration:
        # The same float arithmetic as initial_state, one block of ids at a
        # time.  Agent 0 sits at position 0.0 and so holds X whenever
        # x_fraction > 0: listing X first keeps first-appearance order, and
        # a zero X count is dropped by Configuration.
        x_count = 0
        for start in range(0, population_size, _STRIPE_BLOCK):
            ids = np.arange(start, min(start + _STRIPE_BLOCK, population_size))
            x_count += int(np.count_nonzero((ids * _STRIPE) % 1.0 < self.x_fraction))
        return Configuration(
            {self.OPINION_X: x_count, self.OPINION_Y: population_size - x_count}
        )

    def transitions(
        self, receiver: Hashable, sender: Hashable
    ) -> Sequence[RandomizedTransition]:
        x, y, blank = self.OPINION_X, self.OPINION_Y, self.BLANK
        if {receiver, sender} == {x, y}:
            # The sender is blanked regardless of orientation.
            return (RandomizedTransition(receiver_out=receiver, sender_out=blank),)
        if receiver in (x, y) and sender == blank:
            return (RandomizedTransition(receiver_out=receiver, sender_out=receiver),)
        if sender in (x, y) and receiver == blank:
            return (RandomizedTransition(receiver_out=sender, sender_out=sender),)
        return ()

    def output(self, state: Hashable) -> str:
        """The opinion an agent currently reports (blank agents report ``"B"``)."""
        return state

    def describe(self) -> str:
        return f"ApproximateMajority(x_fraction={self.x_fraction})"


def majority_consensus_predicate(simulator) -> bool:
    """Predicate: the population has reached consensus on a single opinion."""
    x = simulator.count(ApproximateMajorityProtocol.OPINION_X)
    y = simulator.count(ApproximateMajorityProtocol.OPINION_Y)
    return x == 0 or y == 0
