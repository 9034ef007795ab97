"""Configuration-level (count-based) simulation of finite-state protocols.

For a constant-state protocol the population configuration is fully described
by the count of each state, so a simulation step only needs to

1. sample the ordered pair of *states* participating in the next interaction
   (with probability proportional to the product of their counts, adjusting
   for ordered pairs of the same state), and
2. move one agent from each input state to the corresponding output state.

This keeps memory at ``O(|states|)`` and each step at amortised
``O(log |states|)`` (cumulative sampling weights are cached and rebuilt only
after a count actually changes) instead of ``O(n)``, which is what lets the
epidemic, majority, leader-election and exact-counting baselines — and the
dense-configuration termination experiments — run at populations of 10^5–10^7
in pure Python.  For still larger populations, or many repeated runs, prefer
the batched engine
(:class:`repro.engine.batched_simulator.BatchedCountSimulator`).

The engine consumes a *count-level scheduler policy*
(:class:`~repro.engine.scheduler.SchedulerPolicy` with the ``"counts"``
capability): under the default ``"sequential"`` policy the semantics match
the sequential agent-level engine exactly — the same uniform-random
ordered-pair scheduler, just expressed over counts (and draw-for-draw
identical to the historical built-in sampling).  Under the
``"state-weighted"`` policy, pair probabilities are proportional to
``(r_i c_i)(r_j c_j)`` for per-state activity rates ``r`` — the
agent-anonymous form of non-uniform scheduling that count compression can
express.  Per-agent policies (``weighted``, ``two-block``, ``quiescing``)
distinguish agents sharing a state and are rejected; run those on the agent
or vector engines (see ``DESIGN.md``, Schedulers).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import Callable, Hashable

from repro.engine.configuration import Configuration, starting_configuration
from repro.engine.running import (
    CountTracePoint,
    run_until_predicate,
    run_with_trace,
)
from repro.engine.scheduler import SchedulerSpec
from repro.exceptions import SimulationError
from repro.protocols.base import FiniteStateProtocol
from repro.rng import RandomSource
from repro.types import interactions_for_time

__all__ = ["CountSimulator", "CountTracePoint"]


class CountSimulator:
    """Simulate a :class:`~repro.protocols.base.FiniteStateProtocol` by counts.

    Parameters
    ----------
    protocol:
        The finite-state protocol to simulate.
    population_size:
        Number of agents.  The initial configuration is
        ``protocol.initial_configuration(population_size)`` unless
        ``initial_configuration`` is supplied.
    seed:
        Seed for the random source.
    initial_configuration:
        Optional explicit starting configuration; its size must equal
        ``population_size`` and every state must belong to the protocol's
        declared state set.
    scheduler:
        Count-level scheduling policy: a registered scheduler name or a
        :class:`~repro.engine.scheduler.SchedulerSpec`.  Defaults to
        ``"sequential"``; the policy must support count compression
        (``"sequential"`` or ``"state-weighted"``).
    """

    def __init__(
        self,
        protocol: FiniteStateProtocol,
        population_size: int,
        seed: int | None = None,
        initial_configuration: Configuration | None = None,
        scheduler: "SchedulerSpec | str | None" = None,
    ) -> None:
        if population_size < 2:
            raise SimulationError(
                f"population must contain at least 2 agents, got {population_size}"
            )
        self.protocol = protocol
        self.population_size = population_size
        self.rng = RandomSource(seed=seed)
        self._counts: Counter = starting_configuration(
            protocol, population_size, initial_configuration
        ).to_counter()
        self.scheduler_spec = SchedulerSpec.coerce(scheduler)
        # Raises SimulationError for per-agent policies, which cannot be
        # count-compressed; None means uniform (the exact integer fast path).
        policy = self.scheduler_spec.build_policy()
        self._rate_of = policy.state_rate_function()
        if self._rate_of is not None:
            # Validates that every configured rate names a protocol state
            # (a typo would silently run the uniform scheduler otherwise).
            policy.state_rates(list(protocol.states()))
        self.interactions = 0
        self._states_seen: set[Hashable] = set(self._counts)
        # Cached cumulative weights for state sampling; rebuilt lazily after
        # any count change (null transitions, the common case at large n,
        # leave the cache valid).  Integer agent counts under the uniform
        # policy, float rate-scaled weights under state-weighted.
        self._cum_states: list[Hashable] = []
        self._cum_weights: list[int | float] = []
        self._cum_prefix: dict[Hashable, int | float] = {}
        self._cum_total: float = 0.0
        self._positive_rate_agents = 0
        self._cum_dirty = True

    # -- inspection -------------------------------------------------------------

    @property
    def parallel_time(self) -> float:
        """Parallel time elapsed so far."""
        return self.interactions / self.population_size

    def configuration(self) -> Configuration:
        """Return the current configuration (immutable copy)."""
        return Configuration(dict(self._counts))

    def count(self, state: Hashable) -> int:
        """Return the current count of ``state``."""
        return self._counts.get(state, 0)

    def states_seen(self) -> frozenset[Hashable]:
        """All states that have had positive count at any point of the run."""
        return frozenset(self._states_seen)

    def outputs(self) -> Counter:
        """Histogram of outputs over the population."""
        histogram: Counter = Counter()
        for state, count in self._counts.items():
            histogram[self.protocol.output(state)] += count
        return histogram

    # -- stepping -----------------------------------------------------------------

    def _sample_ordered_state_pair(self) -> tuple[Hashable, Hashable]:
        """Sample the (receiver-state, sender-state) of the next interaction.

        Under the uniform policy this is equivalent to sampling a uniform
        ordered pair of distinct agents and reading off their states: the
        probability of the ordered state pair ``(a, b)`` with ``a != b`` is
        ``c(a) c(b) / (n (n-1))`` and of ``(a, a)`` is
        ``c(a) (c(a)-1) / (n (n-1))``.  Implemented by sampling the receiver
        agent uniformly, then the sender uniformly among the remaining
        ``n - 1`` agents.

        Under a state-weighted policy, the ordered pair of distinct agents
        ``(a, b)`` is selected with probability proportional to the *product*
        of the agents' rates ``r_a r_b`` — the same joint distribution the
        batched engine's multinomial draws from (see
        :meth:`BatchedCountSimulator._pair_probabilities`).  Implemented by
        two independent rate-weighted draws with same-agent rejection: after
        drawing states ``(i, i)``, the two draws hit the same agent with
        probability ``1 / c_i``, in which case the pair is redrawn.
        """
        if self._rate_of is None:
            receiver_state = self._sample_state_weighted(exclude=None)
            sender_state = self._sample_state_weighted(exclude=receiver_state)
            return receiver_state, sender_state
        if self._cum_dirty:
            self._rebuild_cumulative()
        if self._positive_rate_agents < 2:
            raise SimulationError(
                "state-weighted scheduler: fewer than two agents have a "
                "positive rate; no ordered pair can be selected"
            )
        while True:
            receiver_state = self._sample_state_weighted(exclude=None)
            sender_state = self._sample_state_weighted(exclude=None)
            if receiver_state != sender_state:
                return receiver_state, sender_state
            count = self._counts[receiver_state]
            if count < 2:
                continue  # the two draws can only be the same agent
            if self.rng.random() * count >= 1.0:
                return receiver_state, sender_state

    def _rebuild_cumulative(self) -> None:
        """Rebuild the cached cumulative-weight arrays from the counts.

        Under the uniform policy the weights are the integer counts; under a
        state-weighted policy each state's weight is ``rate(state) * count``.
        """
        states: list[Hashable] = []
        weights: list[int | float] = []
        prefix: dict[Hashable, int | float] = {}
        total: int | float = 0 if self._rate_of is None else 0.0
        positive_agents = 0
        for state, count in self._counts.items():
            prefix[state] = total
            if self._rate_of is None:
                total += count
            else:
                rate = self._rate_of(state)
                total += rate * count
                if rate > 0:
                    positive_agents += count
            states.append(state)
            weights.append(total)
        self._cum_states = states
        self._cum_weights = weights
        self._cum_prefix = prefix
        self._cum_total = total
        self._positive_rate_agents = positive_agents
        self._cum_dirty = False

    def _sample_state_weighted(self, exclude: Hashable | None) -> Hashable:
        """Sample a state with probability proportional to its sampling weight.

        Uniform policy: integer agent-count weights; when ``exclude`` is
        given, one agent of that state is set aside (it is the already-chosen
        receiver), so its weight is reduced by one.  Uses cached cumulative
        weights and binary search, equivalent draw-for-draw to the original
        linear scan (thresholds at or past the excluded agent's slot are
        shifted up by one, which is exactly a scan with the excluded state's
        weight reduced by one).

        State-weighted policy: float ``rate * count`` weights, no exclusion —
        the distinct-agents constraint is handled by the caller's rejection
        step (:meth:`_sample_ordered_state_pair`).
        """
        if self._cum_dirty:
            self._rebuild_cumulative()
        if self._rate_of is None:
            if exclude is None:
                threshold = self.rng.randrange(self.population_size)
            else:
                threshold = self.rng.randrange(self.population_size - 1)
                if threshold >= self._cum_prefix[exclude] + self._counts[exclude] - 1:
                    threshold += 1
        else:
            if self._cum_total <= 0.0:
                raise SimulationError(
                    "state-weighted scheduler: every present state has rate 0"
                )
            threshold = self.rng.random() * self._cum_total
        position = bisect_right(self._cum_weights, threshold)
        if position >= len(self._cum_states):
            if self._rate_of is None:
                raise SimulationError("state sampling failed; counts are inconsistent")
            position = len(self._cum_states) - 1  # float rounding at the top edge
        return self._cum_states[position]

    def step(self) -> None:
        """Execute one interaction."""
        receiver_state, sender_state = self._sample_ordered_state_pair()
        outcomes = self.protocol.transitions(receiver_state, sender_state)
        self.interactions += 1
        if not outcomes:
            return
        draw = self.rng.random()
        cumulative = 0.0
        chosen = None
        for outcome in outcomes:
            cumulative += outcome.probability
            if draw < cumulative:
                chosen = outcome
                break
        if chosen is None:
            return  # residual mass = null transition
        if (chosen.receiver_out, chosen.sender_out) == (receiver_state, sender_state):
            return
        self._counts[receiver_state] -= 1
        self._counts[sender_state] -= 1
        self._counts[chosen.receiver_out] += 1
        self._counts[chosen.sender_out] += 1
        self._states_seen.add(chosen.receiver_out)
        self._states_seen.add(chosen.sender_out)
        for state in (receiver_state, sender_state):
            if self._counts[state] == 0:
                del self._counts[state]
        self._cum_dirty = True

    def run_interactions(self, count: int) -> None:
        """Execute exactly ``count`` additional interactions."""
        if count < 0:
            raise SimulationError(f"interaction count must be non-negative, got {count}")
        for _ in range(count):
            self.step()

    def run_parallel_time(self, time: float) -> None:
        """Execute (at least) ``time`` additional units of parallel time."""
        self.run_interactions(interactions_for_time(time, self.population_size))

    def run_until(
        self,
        predicate: Callable[["CountSimulator"], bool],
        max_parallel_time: float,
        check_interval: int | None = None,
    ) -> float:
        """Run until ``predicate(self)`` holds; return the parallel time reached.

        Raises
        ------
        ConvergenceError
            If the predicate does not hold within ``max_parallel_time``.
        """
        return run_until_predicate(self, predicate, max_parallel_time, check_interval)

    def run_with_trace(
        self, total_parallel_time: float, samples: int
    ) -> list[CountTracePoint]:
        """Run for ``total_parallel_time``; return evenly spaced snapshots.

        See :func:`repro.engine.running.run_with_trace`: the initial
        configuration plus exactly ``samples`` checkpoints at the exact
        boundaries of :func:`repro.types.snapshot_boundaries` whenever the
        run is at least ``samples`` interactions long (chunking by
        ``total // samples``, as this method once did, could return far more
        or fewer snapshots than requested).
        """
        return run_with_trace(self, total_parallel_time, samples)
