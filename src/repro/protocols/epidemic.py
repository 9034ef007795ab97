"""One-way epidemic.

The epidemic ``x, y -> x, x`` (an infected agent infects the other) is the
work-horse of fast population protocols: the paper uses it to propagate the
maximum ``logSize2`` and the per-epoch maximum geometric variables, and its
completion-time bounds (Lemma A.1, Corollaries 3.4-3.5) drive the choice of
the phase-clock threshold ``95 * logSize2``.

Two equivalent formulations are provided:

* :class:`EpidemicProtocol` — a two-state :class:`FiniteStateProtocol`
  (states ``"I"`` infected / ``"S"`` susceptible), suitable for the
  count-based engine and for very large populations; and
* :data:`EpidemicState` — the states themselves, exported for tests.

The companion module :mod:`repro.analysis.epidemic_theory` provides the
closed-form expectation ``(n-1)/n * H_{n-1}`` and the tail bounds these
simulations are validated against.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.engine.configuration import Configuration
from repro.exceptions import ProtocolError
from repro.protocols.base import FiniteStateProtocol, RandomizedTransition


class EpidemicState:
    """State labels of the two-state epidemic."""

    INFECTED: str = "I"
    SUSCEPTIBLE: str = "S"


class EpidemicProtocol(FiniteStateProtocol):
    """One-way epidemic ``i, s -> i, i`` started from ``initial_infected`` agents.

    Parameters
    ----------
    initial_infected:
        Number of agents that start infected; agents ``0 .. initial_infected-1``
        are the sources.  Defaults to 1 (the classic single-source epidemic of
        Lemma A.1).
    bidirectional:
        When ``True``, infection spreads regardless of which participant is
        the sender (transitions ``(i, s) -> (i, i)`` and ``(s, i) -> (i, i)``),
        matching the paper's usage where both participants observe each other.
        When ``False``, only the sender infects the receiver (the strict
        "one-way" epidemic), which is slower by a factor of two.
    """

    is_uniform = True

    def __init__(self, initial_infected: int = 1, bidirectional: bool = True) -> None:
        if initial_infected < 1:
            raise ProtocolError(
                f"at least one agent must start infected, got {initial_infected}"
            )
        self.initial_infected = initial_infected
        self.bidirectional = bidirectional

    def states(self) -> Sequence[Hashable]:
        return (EpidemicState.INFECTED, EpidemicState.SUSCEPTIBLE)

    def initial_state(self, agent_id: int) -> Hashable:
        if agent_id < self.initial_infected:
            return EpidemicState.INFECTED
        return EpidemicState.SUSCEPTIBLE

    def initial_configuration(self, population_size: int) -> Configuration:
        infected = min(self.initial_infected, population_size)
        return Configuration(
            {
                EpidemicState.INFECTED: infected,
                EpidemicState.SUSCEPTIBLE: population_size - infected,
            }
        )

    def transitions(
        self, receiver: Hashable, sender: Hashable
    ) -> Sequence[RandomizedTransition]:
        infected, susceptible = EpidemicState.INFECTED, EpidemicState.SUSCEPTIBLE
        if receiver == susceptible and sender == infected:
            return (
                RandomizedTransition(receiver_out=infected, sender_out=infected),
            )
        if self.bidirectional and receiver == infected and sender == susceptible:
            return (
                RandomizedTransition(receiver_out=infected, sender_out=infected),
            )
        return ()

    def output(self, state: Hashable) -> bool:
        """``True`` when the agent has been infected."""
        return state == EpidemicState.INFECTED

    def describe(self) -> str:
        direction = "bidirectional" if self.bidirectional else "one-way"
        return f"Epidemic({direction}, sources={self.initial_infected})"


def epidemic_completion_predicate(simulator) -> bool:
    """Predicate for :meth:`CountSimulator.run_until`: everyone is infected."""
    return simulator.count(EpidemicState.SUSCEPTIBLE) == 0
