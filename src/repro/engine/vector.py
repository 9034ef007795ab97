"""The vector engine: struct-of-arrays state + synchronous matching rounds.

PR 1 made configuration-level runs fast for *finite-state* protocols; the
protocols the paper actually headlines (``Log-Size-Estimation``, the
leader-driven terminating variant of Theorem 3.13) carry unbounded integer
fields per agent and cannot be count-compressed.  This module generalises the
one-off numpy simulator that used to live in ``core/array_simulator.py`` into
a reusable *vector engine*: per-agent state is a struct-of-arrays
(:class:`VectorFields`), the scheduler is the shared random-matching round
(one uniformly random perfect matching per round, each pair randomly
oriented), and a protocol plugs in as a :class:`VectorProtocol` — a
vectorised transition kernel applied to all matched pairs at once.

Three kinds of protocol run on it:

* :class:`~repro.core.array_simulator.LogSizeVectorProtocol` — the paper's
  Protocol 1 (the Figure 2 engine);
* :class:`~repro.core.vector_leader.LeaderTerminatingVectorProtocol` — the
  terminating-with-a-leader protocol of Theorem 3.13, scaling that
  experiment to ``n >= 10^6``;
* any :class:`~repro.protocols.base.FiniteStateProtocol`, through the
  generic :class:`FiniteStateVectorProtocol` kernel compiled from the same
  transition tables as the batched engine.  :class:`VectorFiniteStateSimulator`
  wraps that kernel behind the count-level interface shared by the other
  engines, so ``build_engine("vector", ...)`` is a drop-in fourth engine.

Scheduling is pluggable at the *round* level: the engine consumes any
:class:`~repro.engine.scheduler.RoundScheduler` (default: the shared
uniform :class:`~repro.engine.scheduler.MatchingRoundScheduler`, the
substitution documented in ``DESIGN.md`` — every agent has exactly one
interaction per round instead of the sequential scheduler's
Poisson-distributed number per time unit, preserving epidemic completion,
phase-clock behaviour and geometric-maximum averaging up to constant
factors).  Non-uniform round schedulers (``weighted``, ``two-block``,
``quiescing``) may emit fewer than ``floor(n/2)`` pairs per round; every
round still advances the parallel-time clock by its nominal
``floor(n/2) / n`` tick (idle agents cost time, so lazy or starved
populations converge later — consistent with the per-pair realisations of
the same scenarios), while ``interactions`` reports the pairs actually
executed.  Convergence is measured *exactly*: the convergence condition is
evaluated after every round (an ``O(n)`` reduction, negligible next to the
round itself), never on a coarser grid — see
:meth:`VectorSimulator.run_until_done`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.backend import ArrayBackend, resolve_backend
from repro.engine.configuration import Configuration, starting_configuration
from repro.engine.scheduler import RoundScheduler, SchedulerSpec
from repro.exceptions import ConvergenceError, SimulationError
from repro.obs.recorder import RECORDER as _REC
from repro.protocols.base import FiniteStateProtocol
from repro.protocols.compiled import CompiledTransitionTable, compile_transition_table

__all__ = [
    "FiniteStateVectorProtocol",
    "VectorFields",
    "VectorFiniteStateSimulator",
    "VectorProtocol",
    "VectorRunResult",
    "VectorSimulator",
]


class VectorFields:
    """Struct-of-arrays registry of per-agent fields.

    A vector protocol allocates one numpy array per agent field through
    :meth:`add`; the registry owns the arrays (kernels mutate them in place)
    and samples running maxima of *tracked* fields for state-complexity
    reporting (Lemma 3.9), so range bookkeeping is not re-implemented per
    protocol.
    """

    def __init__(self, population_size: int) -> None:
        if population_size < 2:
            raise SimulationError(
                f"population must contain at least 2 agents, got {population_size}"
            )
        self.n = population_size
        self._arrays: dict[str, np.ndarray] = {}
        self._observed_max: dict[str, int] = {}

    def add(self, name: str, dtype, fill=0) -> np.ndarray:
        """Allocate (and return) the per-agent array for field ``name``."""
        if name in self._arrays:
            raise SimulationError(f"field {name!r} is already registered")
        array = np.full(self.n, fill, dtype=dtype)
        self._arrays[name] = array
        return array

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def names(self) -> tuple[str, ...]:
        """Registered field names, in registration order."""
        return tuple(self._arrays)

    # -- range tracking ------------------------------------------------------

    def track(self, *names: str) -> None:
        """Start sampling the running maximum of the given fields."""
        for name in names:
            if name not in self._arrays:
                raise SimulationError(f"cannot track unregistered field {name!r}")
            self._observed_max.setdefault(name, 0)

    def sample_ranges(self) -> None:
        """Fold the current per-field maxima into the running maxima."""
        for name in self._observed_max:
            current = int(self._arrays[name].max())
            if current > self._observed_max[name]:
                self._observed_max[name] = current

    def max_observed(self, name: str) -> int:
        """Largest sampled value of a tracked field."""
        return self._observed_max[name]


@dataclass(frozen=True)
class VectorRunResult:
    """Generic outcome of one vector-engine run.

    Protocol-specific result types (e.g.
    :class:`~repro.core.array_simulator.ArraySimulationResult`) carry richer
    fields; this is the default produced by
    :meth:`VectorProtocol.build_result`.
    """

    population_size: int
    converged: bool
    convergence_time: float | None
    rounds: int
    interactions: int
    extra: dict

    def as_dict(self) -> dict:
        """JSON-friendly view (used by the harness and the CLI)."""
        return {
            "population_size": self.population_size,
            "converged": self.converged,
            "convergence_time": self.convergence_time,
            "rounds": self.rounds,
            "interactions": self.interactions,
            **self.extra,
        }


class VectorProtocol(ABC):
    """A protocol expressed as vectorised transition kernels.

    One instance drives one :class:`VectorSimulator` (kernels may keep array
    references and scalar flags as instance state); build a fresh instance
    per run.
    """

    #: Field names whose running maxima the simulator samples (Lemma 3.9
    #: style state-complexity reporting).  Override in subclasses.
    tracked_fields: tuple[str, ...] = ()

    @abstractmethod
    def describe(self) -> str:
        """One-line human-readable description."""

    @abstractmethod
    def init_fields(self, fields: VectorFields, rng: np.random.Generator) -> None:
        """Allocate the per-agent arrays and set the initial configuration."""

    @abstractmethod
    def apply_round(
        self,
        fields: VectorFields,
        rec: np.ndarray,
        sen: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Apply one matching round to the matched pairs ``(rec[i], sen[i])``."""

    def all_done(self, fields: VectorFields) -> bool:
        """The protocol's intrinsic convergence condition (default: none).

        Protocols without an intrinsic notion of "done" (e.g. generic
        finite-state kernels, which are driven by external predicates through
        :class:`VectorFiniteStateSimulator`) keep the default.
        """
        return False

    def result_extra(self, fields: VectorFields) -> dict:
        """Protocol-specific entries folded into :class:`VectorRunResult`."""
        return {}

    def build_result(
        self, simulator: "VectorSimulator", convergence_time: float | None
    ):
        """Build the run result (override to return a richer result type)."""
        return VectorRunResult(
            population_size=simulator.n,
            converged=convergence_time is not None,
            convergence_time=convergence_time,
            rounds=simulator.rounds,
            interactions=simulator.interactions,
            extra=self.result_extra(simulator.fields),
        )


class VectorSimulator:
    """Drive a :class:`VectorProtocol` over synchronous random-matching rounds.

    Parameters
    ----------
    protocol:
        The vectorised kernel (one fresh instance per simulator).
    population_size:
        Number of agents (at least 2).
    seed:
        Seed of the numpy generator; runs are reproducible per seed.
    scheduler:
        Round-level scheduling policy: a registered scheduler name with a
        round form (``"matching"``, ``"weighted"``, ``"two-block"``,
        ``"quiescing"``), a :class:`~repro.engine.scheduler.SchedulerSpec`
        carrying options, or a pre-built
        :class:`~repro.engine.scheduler.RoundScheduler`.  Defaults to the
        uniform matching round.
    backend:
        Array backend for the round draws (a registered name, an
        :class:`~repro.backend.ArrayBackend` instance, or ``None`` for the
        process default).  The scheduler's matching/thinning draws are bound
        to the backend's kernels; protocols that accept a backend receive it
        separately at construction (see
        :class:`VectorFiniteStateSimulator`).
    """

    #: Consecutive empty rounds tolerated before the engine concludes the
    #: scheduler cannot make progress (e.g. a weighted policy whose active
    #: set keeps drawing fewer than two agents) and raises instead of
    #: spinning forever.  Time-budgeted loops terminate on their own (every
    #: round advances the clock by its nominal tick); the guard protects the
    #: executed-interaction-count loops (``run_interactions`` and friends),
    #: whose targets an empty round never approaches.
    MAX_CONSECUTIVE_EMPTY_ROUNDS = 10_000

    def __init__(
        self,
        protocol: VectorProtocol,
        population_size: int,
        seed: int | None = None,
        scheduler: "RoundScheduler | SchedulerSpec | str | None" = None,
        backend: "ArrayBackend | str | None" = None,
    ) -> None:
        self.protocol = protocol
        self.n = population_size
        self.rng = np.random.default_rng(seed)
        self.backend = resolve_backend(backend)
        if isinstance(scheduler, RoundScheduler):
            if scheduler.n != population_size:
                raise SimulationError(
                    "round scheduler population size does not match the simulation"
                )
            self.scheduler = scheduler
        else:
            spec = SchedulerSpec.coerce(scheduler, default="matching")
            self.scheduler = spec.build_policy().make_round_scheduler(population_size)
        self.scheduler.bind_backend(self.backend)
        self.rounds = 0
        self._interactions = 0
        self._empty_rounds = 0
        self.fields = VectorFields(population_size)
        protocol.init_fields(self.fields, self.rng)
        self.fields.track(*protocol.tracked_fields)

    # -- round / time accounting --------------------------------------------

    @property
    def interactions(self) -> int:
        """Total interactions executed so far (summed over emitted pairs).

        Under the default matching scheduler every round executes exactly
        ``floor(n / 2)`` interactions; non-uniform round schedulers may emit
        fewer (see :attr:`parallel_time` for how time is accounted then).
        """
        return self._interactions

    @property
    def parallel_time(self) -> float:
        """Parallel time elapsed so far.

        Every round is one synchronous tick of ``floor(n/2) / n`` time units
        — the interval in which each agent *could* interact once —
        regardless of how many pairs the scheduler actually emitted.  Idle
        agents therefore cost time: a lazy or starved population converges
        *later*, matching the per-pair realisations of the same scenarios
        (where the global clock also keeps running while an agent idles).
        Under the default matching scheduler this coincides exactly with
        ``interactions / n``.
        """
        return self.rounds * (self.n // 2) / self.n

    def run_round(self) -> None:
        """Execute one synchronous round of scheduler-matched pairs."""
        # Telemetry splits the round into scheduler draw and protocol apply
        # (each is Theta(n) numpy work, so two clock reads per round are
        # noise); the guards cover only the clock reads and counters.
        timed = _REC.enabled
        if timed:
            t0 = _REC.now_ns()
        rec, sen = self.scheduler.draw_round(self.rng, self.parallel_time)
        if timed:
            t1 = _REC.now_ns()
            _REC.add_time("scheduler.draw_round", t1 - t0)
            _REC.count("scheduler.rounds")
        if rec.size:
            self.protocol.apply_round(self.fields, rec, sen, self.rng)
            if timed:
                _REC.add_time("engine.apply_round", _REC.now_ns() - t1)
            self._empty_rounds = 0
        else:
            if timed:
                _REC.count("scheduler.empty_rounds")
            self._empty_rounds += 1
            if self._empty_rounds >= self.MAX_CONSECUTIVE_EMPTY_ROUNDS:
                raise SimulationError(
                    f"round scheduler emitted no pairs for "
                    f"{self._empty_rounds} consecutive rounds (n={self.n})"
                )
        self.rounds += 1
        self._interactions += int(rec.size)

    def all_done(self) -> bool:
        """Whether the protocol's convergence condition currently holds."""
        return self.protocol.all_done(self.fields)

    def run_until_done(
        self,
        max_parallel_time: float,
        check_every_rounds: int = 64,
        raise_on_timeout: bool = False,
    ):
        """Run until the protocol reports convergence (or the budget runs out).

        The convergence condition is evaluated after **every** round, so the
        reported ``convergence_time`` is exact to the round.  (An earlier
        version only checked every ``check_every_rounds`` rounds, overstating
        every Figure 2 time by up to ``check_every_rounds - 1`` rounds —
        ~32 units of parallel time at the paper's default, the same order as
        the quantity being plotted.)  ``check_every_rounds`` now only
        throttles the sampling of tracked field ranges, which costs one pass
        over every tracked array.

        Parameters
        ----------
        max_parallel_time:
            Budget in parallel time.
        check_every_rounds:
            How often (in rounds) the tracked field ranges are sampled.
        raise_on_timeout:
            When ``True`` a :class:`~repro.exceptions.ConvergenceError` is
            raised if the budget is exhausted; otherwise a result with
            ``converged=False`` is returned.
        """
        if check_every_rounds < 1:
            raise SimulationError("check_every_rounds must be positive")
        # Budget in nominal interactions (rounds * floor(n/2), the quantity
        # behind :attr:`parallel_time`); for the default matching round this
        # executes exactly the historical int(t * n / floor(n/2)) + 1 rounds.
        budget = int(max_parallel_time * self.n)
        half = self.n // 2
        convergence_time: float | None = None
        # Telemetry attributes the per-round convergence check (and range
        # sampling) separately from the draw/apply work run_round() times.
        timed = _REC.enabled
        while self.rounds * half <= budget:
            self.run_round()
            if timed:
                t0 = _REC.now_ns()
            if self.rounds % check_every_rounds == 0:
                self.fields.sample_ranges()
            done = self.protocol.all_done(self.fields)
            if timed:
                _REC.add_time("engine.convergence_check", _REC.now_ns() - t0)
                _REC.count("engine.convergence_checks")
            if done:
                convergence_time = self.parallel_time
                break
        self.fields.sample_ranges()
        if convergence_time is None and raise_on_timeout:
            raise ConvergenceError(
                f"vectorised run did not converge within {max_parallel_time} time "
                f"(n={self.n})"
            )
        return self.protocol.build_result(self, convergence_time)


# ---------------------------------------------------------------------------
# Generic finite-state kernel + count-level adapter
# ---------------------------------------------------------------------------


class FiniteStateVectorProtocol(VectorProtocol):
    """Vectorised kernel for any :class:`FiniteStateProtocol`.

    The protocol is compiled once into the same dense index-space transition
    tables the batched engine uses
    (:func:`repro.protocols.compiled.compile_transition_table`); each round
    gathers the state pair of every matched pair, samples one outcome per
    reactive pair from the compiled distributions, and scatters the new
    states back.  Both participants of a pair are distinct agents of a
    perfect matching, so the scatter is collision-free.

    The gather→sample→scatter body is a backend kernel
    (:meth:`repro.backend.ArrayBackend.finite_round_kernel`): the default
    numpy backend preserves the historical RNG stream, the numba backend
    fuses the round into one compiled per-pair loop.
    """

    def __init__(
        self,
        protocol: FiniteStateProtocol,
        initial_states: Sequence[Hashable] | None = None,
        backend: "ArrayBackend | str | None" = None,
    ) -> None:
        self.protocol = protocol
        self.table: CompiledTransitionTable = compile_transition_table(protocol)
        self._initial_states = initial_states
        self.state: np.ndarray | None = None
        self._round_kernel = resolve_backend(backend).finite_round_kernel(self.table)

    def describe(self) -> str:
        return f"Vector({self.protocol.describe()})"

    def init_fields(self, fields: VectorFields, rng: np.random.Generator) -> None:
        state = fields.add("state", np.int64)
        if self._initial_states is not None:
            if len(self._initial_states) != fields.n:
                raise SimulationError(
                    f"initial configuration has size {len(self._initial_states)}, "
                    f"expected {fields.n}"
                )
            initial = self._initial_states
        else:
            initial = [self.protocol.initial_state(agent) for agent in range(fields.n)]
        try:
            state[:] = [self.table.index[value] for value in initial]
        except KeyError as error:
            raise SimulationError(
                f"initial state {error.args[0]!r} is outside the declared state set"
            ) from None
        self.state = state

    def apply_round(
        self,
        fields: VectorFields,
        rec: np.ndarray,
        sen: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        self._round_kernel.apply(self.state, rec, sen, rng)

    def state_counts(self) -> np.ndarray:
        """Per-state agent counts, indexed like ``table.states``."""
        return np.bincount(self.state, minlength=self.table.num_states)


class VectorFiniteStateSimulator:
    """Run a finite-state protocol on the vector engine behind the count API.

    Exposes the configuration-level interface shared by
    :class:`~repro.engine.count_simulator.CountSimulator` and friends
    (``count`` / ``configuration`` / ``outputs`` / ``run_until`` /
    ``run_with_trace``), so engine-generic harness code, the CLI and the
    sweep driver treat ``"vector"`` as just another engine name.

    Granularity note: the engine advances whole matching rounds
    (``floor(n/2)`` interactions), so ``run_interactions`` / trace snapshots
    land on the next round boundary at or after the requested count;
    ``run_until`` evaluates its predicate after every round, which is the
    finest granule the scheduler has.
    """

    def __init__(
        self,
        protocol: FiniteStateProtocol,
        population_size: int,
        seed: int | None = None,
        initial_configuration: Configuration | None = None,
        scheduler: "RoundScheduler | SchedulerSpec | str | None" = None,
        backend: "ArrayBackend | str | None" = None,
    ) -> None:
        self.protocol = protocol
        self.population_size = population_size
        self.backend = resolve_backend(backend)
        initial_states = None
        if initial_configuration is not None:
            initial_configuration = starting_configuration(
                protocol, population_size, initial_configuration
            )
            initial_states = [
                state
                for state, count in sorted(
                    initial_configuration.items(), key=lambda item: repr(item[0])
                )
                for _ in range(count)
            ]
        self.kernel = FiniteStateVectorProtocol(
            protocol, initial_states=initial_states, backend=self.backend
        )
        self.simulator = VectorSimulator(
            self.kernel,
            population_size,
            seed=seed,
            scheduler=scheduler,
            backend=self.backend,
        )

    # -- accounting ----------------------------------------------------------

    @property
    def interactions(self) -> int:
        """Interactions executed so far."""
        return self.simulator.interactions

    @property
    def parallel_time(self) -> float:
        """Parallel time elapsed so far."""
        return self.simulator.parallel_time

    @property
    def rounds(self) -> int:
        """Matching rounds executed so far."""
        return self.simulator.rounds

    # -- configuration queries ----------------------------------------------

    def configuration(self) -> Configuration:
        """Return the current configuration multiset."""
        counts = self.kernel.state_counts()
        return Configuration(
            {
                self.kernel.table.states[index]: int(count)
                for index, count in enumerate(counts)
                if count
            }
        )

    def count(self, state: Hashable) -> int:
        """Return the number of agents currently in ``state``."""
        index = self.kernel.table.index.get(state)
        if index is None:
            return 0
        return int((self.kernel.state == index).sum())

    def outputs(self) -> Counter:
        """Histogram of outputs over the population."""
        histogram: Counter = Counter()
        counts = self.kernel.state_counts()
        for index, count in enumerate(counts):
            if count:
                histogram[self.protocol.output(self.kernel.table.states[index])] += int(
                    count
                )
        return histogram

    # -- run loops -----------------------------------------------------------

    def run_round(self) -> None:
        """Execute one matching round."""
        self.simulator.run_round()

    def run_interactions(self, count: int) -> None:
        """Run whole rounds until at least ``count`` more interactions ran."""
        if count < 0:
            raise SimulationError(f"count must be non-negative, got {count}")
        target = self.interactions + count
        while self.interactions < target:
            self.simulator.run_round()

    def run_parallel_time(self, time: float) -> None:
        """Run whole rounds until ``time`` more units of parallel time passed."""
        target = self.parallel_time + time
        while self.parallel_time < target:
            self.simulator.run_round()

    def run_until(
        self,
        predicate: Callable[["VectorFiniteStateSimulator"], bool],
        max_parallel_time: float,
        check_interval: int | None = None,
    ) -> float:
        """Run until ``predicate(self)`` holds; return the parallel time reached.

        The predicate is checked every ``ceil(check_interval / floor(n/2))``
        rounds (default: every round — exact convergence measurement).

        Raises
        ------
        ConvergenceError
            If the predicate does not hold within ``max_parallel_time``.
        """
        if check_interval is not None and check_interval <= 0:
            raise SimulationError("check_interval must be positive")
        half = max(1, self.population_size // 2)
        rounds_between = 1 if check_interval is None else max(
            1, -(-check_interval // half)
        )
        # Budget in nominal interactions (rounds * floor(n/2), the quantity
        # behind parallel_time); a check chunk stops at the round that
        # crosses the budget, so the run never exceeds it by more than one
        # round — exactly the historical int(t*n/half)+1 rounds, for any
        # check_interval.
        budget = int(max_parallel_time * self.population_size)
        if predicate(self):
            return self.parallel_time
        while self.simulator.rounds * half <= budget:
            for _ in range(rounds_between):
                self.simulator.run_round()
                if self.simulator.rounds * half > budget:
                    break
            if predicate(self):
                return self.parallel_time
        raise ConvergenceError(
            f"predicate did not hold within {max_parallel_time} units of parallel "
            f"time (n={self.population_size})"
        )

    def run_with_trace(self, total_parallel_time: float, samples: int):
        """Run for ``total_parallel_time``; return evenly spaced snapshots.

        Each snapshot lands on the first round boundary at or after its
        exact interaction boundary (snapshots never drift by more than one
        round; see the class granularity note), and each
        :class:`~repro.engine.running.CountTracePoint` records the true
        interaction count of its snapshot.
        """
        from repro.engine.running import CountTracePoint
        from repro.types import interactions_for_time, snapshot_boundaries

        if samples < 1:
            raise SimulationError("samples must be at least 1")

        def _point() -> CountTracePoint:
            return CountTracePoint(
                interaction=self.interactions,
                parallel_time=self.parallel_time,
                configuration=self.configuration(),
            )

        half = max(1, self.population_size // 2)
        start = self.simulator.rounds * half
        total_interactions = interactions_for_time(
            total_parallel_time, self.population_size
        )
        trace = [_point()]
        for boundary in snapshot_boundaries(total_interactions, samples):
            # Absolute targets in nominal interactions (rounds * floor(n/2),
            # the parallel-time clock): a round's overshoot past one boundary
            # is not re-added to the next chunk.
            while self.simulator.rounds * half < start + boundary:
                self.simulator.run_round()
            trace.append(_point())
        return trace
