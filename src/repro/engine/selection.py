"""Engine selection for configuration-level experiments.

Five engines can run a :class:`~repro.protocols.base.FiniteStateProtocol`:

``"agent"``
    The reference agent-level :class:`~repro.engine.simulator.Simulation`
    (via :meth:`FiniteStateProtocol.as_agent_protocol`) — exact paper
    semantics, ``O(n)`` memory, slowest; use it for small ``n`` and for
    cross-validating the other engines.
``"count"``
    :class:`~repro.engine.count_simulator.CountSimulator` — ``O(|states|)``
    memory, one Python step per interaction.
``"batched"``
    :class:`~repro.engine.batched_simulator.BatchedCountSimulator` —
    multinomial batches of ``~sqrt(n)`` interactions over compiled transition
    tables; the fastest for ``n >= 10^5``.
``"vector"``
    :class:`~repro.engine.vector.VectorFiniteStateSimulator` — per-agent
    state in numpy arrays, one synchronous random-matching round per step
    (a scheduling substitution: exact convergence measurement, constant-
    factor time agreement with the sequential engines; see ``DESIGN.md``).
    The same engine also runs the non-finite-state vector kernels
    (``Log-Size-Estimation``, the Theorem 3.13 leader-terminating protocol)
    through :class:`~repro.engine.vector.VectorSimulator` directly.
``"multiscale"``
    :class:`~repro.crn.multiscale.MultiscaleSimulator` — adaptive exact-SSA /
    tau-leap / mean-field-ODE regime switching over the compiled channel
    propensities; *approximate* (validated in distribution, not bitwise) but
    count-bound instead of interaction-bound, reaching ``n = 10^9``–``10^12``.
    Uniform mixing only: its propensity model is the mean-field limit of the
    sequential scheduler, so it consumes the ``"mean-field"`` capability that
    only the ``sequential`` policy carries.

:func:`build_engine` hides the choice behind one constructor, and
:class:`CountingSimulationAdapter` gives the agent engine the same
count-level interface (``count`` / ``configuration`` / ``run_until`` /
``run_with_trace``) as the other two, so harness code, the CLI and the
benchmarks can treat the engine as a string parameter.  The scheduler is a
second string parameter (``build_engine(..., scheduler=...)``): each engine
consumes one scheduler-policy capability
(:data:`ENGINE_SCHEDULER_CAPABILITY`), which together with the policies'
declared capabilities forms the engine × scheduler compatibility matrix
(:func:`engine_scheduler_matrix`; printed by ``repro engines``).  See
``DESIGN.md`` (Engine selection, Schedulers) for guidance on which engine
and scheduler fit which experiment.
"""

from __future__ import annotations

import warnings
from collections import Counter
from typing import Callable, Hashable, Mapping, Union

from repro.backend import ArrayBackend, resolve_backend
from repro.crn.multiscale import MultiscaleSimulator
from repro.engine.batched_simulator import BatchedCountSimulator
from repro.engine.configuration import Configuration, starting_configuration
from repro.engine.count_simulator import CountSimulator
from repro.engine.running import (
    CountTracePoint,
    run_until_predicate,
    run_with_trace,
)
from repro.engine.scheduler import (
    SchedulerSpec,
    get_scheduler_policy,
    scheduler_names,
)
from repro.engine.simulator import Simulation
from repro.engine.vector import VectorFiniteStateSimulator
from repro.exceptions import SimulationError
from repro.protocols.base import FiniteStateProtocol

__all__ = [
    "DEFAULT_SCHEDULERS",
    "ENGINE_NAMES",
    "ENGINE_SCHEDULER_CAPABILITY",
    "SEQUENTIAL_ENGINE_NAMES",
    "CountingSimulationAdapter",
    "build_engine",
    "engine_scheduler_matrix",
    "resolve_scheduler_spec",
    "schedulers_for_engine",
]

#: The engine identifiers accepted by :func:`build_engine` (and the CLI).
ENGINE_NAMES = ("agent", "count", "batched", "vector", "multiscale")

#: Which scheduler-policy capability each engine consumes: the agent engine
#: takes any per-pair stream, the count-level engines any policy exposing
#: per-state interaction weights, the vector engine any round scheduler, and
#: the multiscale engine the uniform well-mixed pair distribution its
#: mean-field propensity model presupposes (``"mean-field"``, carried only
#: by the sequential policy — non-uniform scenarios cannot be expressed as
#: count-level propensities and are rejected with a clear error).
#: Together with each policy's declared capabilities this *is* the
#: engine × scheduler compatibility matrix (``repro engines`` prints it).
ENGINE_SCHEDULER_CAPABILITY = {
    "agent": "pair",
    "count": "counts",
    "batched": "counts",
    "vector": "rounds",
    "multiscale": "mean-field",
}

#: The scheduler used when a caller does not choose one: the paper's
#: sequential policy wherever it is expressible, the matching substitution
#: on the round-based vector engine.
DEFAULT_SCHEDULERS = {
    "agent": "sequential",
    "count": "sequential",
    "batched": "sequential",
    "vector": "matching",
    "multiscale": "sequential",
}


def schedulers_for_engine(engine: str) -> tuple[str, ...]:
    """Registered scheduler names the given engine can run."""
    try:
        capability = ENGINE_SCHEDULER_CAPABILITY[engine]
    except KeyError:
        raise SimulationError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINE_NAMES)}"
        ) from None
    return tuple(
        name
        for name in scheduler_names()
        if capability in get_scheduler_policy(name).capabilities
    )


def engine_scheduler_matrix() -> dict[str, tuple[str, ...]]:
    """The full engine × scheduler compatibility matrix."""
    return {engine: schedulers_for_engine(engine) for engine in ENGINE_NAMES}


def resolve_scheduler_spec(
    engine: str,
    scheduler: SchedulerSpec | str | None,
    scheduler_options: Mapping[str, object] | None = None,
) -> SchedulerSpec:
    """Coerce a scheduler choice for ``engine``, validating compatibility.

    Besides the engine × scheduler compatibility check, option names are
    validated and option values type-coerced against the policy's declared
    :attr:`~repro.engine.scheduler.SchedulerPolicy.option_types` — an
    unknown ``--scheduler-opt`` key or an uncoercible value (``intra=abc``)
    raises a :class:`SimulationError` here, before any policy constructor
    sees a raw string.
    """
    spec = SchedulerSpec.coerce(
        scheduler, default=DEFAULT_SCHEDULERS[engine], options=scheduler_options
    )
    supported = schedulers_for_engine(engine)
    if spec.name not in supported:
        raise SimulationError(
            f"scheduler {spec.name!r} is not compatible with the {engine} engine; "
            f"supported: {', '.join(supported)} (see `repro engines`)"
        )
    return spec.coerced()


#: The engines whose default scheduler is the exact sequential uniform-pair
#: policy (derived from the compatibility matrix; the vector engine
#: substitutes synchronous matching rounds, agreeing only up to constant
#: factors in time — see ``DESIGN.md``, Schedulers).
SEQUENTIAL_ENGINE_NAMES = tuple(
    engine for engine in ENGINE_NAMES if DEFAULT_SCHEDULERS[engine] == "sequential"
)

CountLevelEngine = Union[
    "CountingSimulationAdapter",
    CountSimulator,
    BatchedCountSimulator,
    VectorFiniteStateSimulator,
    "MultiscaleSimulator",
]


class CountingSimulationAdapter:
    """Run a finite-state protocol on the agent engine behind the count API.

    Wraps a :class:`Simulation` over ``protocol.as_agent_protocol()`` and
    exposes the configuration-level interface shared by
    :class:`CountSimulator` and :class:`BatchedCountSimulator`, so
    engine-generic code (predicates written against ``.count(state)``,
    tracing, ``run_until``) works unchanged.  Count queries are ``O(n)`` —
    acceptable at the small populations where the agent engine is the right
    choice anyway.
    """

    def __init__(
        self,
        protocol: FiniteStateProtocol,
        population_size: int,
        seed: int | None = None,
        initial_configuration: Configuration | None = None,
        scheduler: SchedulerSpec | str | None = None,
    ) -> None:
        self.protocol = protocol
        self.population_size = population_size
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
        self.simulation = Simulation(
            protocol=protocol.as_agent_protocol(),
            population_size=population_size,
            seed=seed,
            scheduler=scheduler,
            initial_states=initial_states,
        )

    @property
    def interactions(self) -> int:
        """Interactions executed so far."""
        return self.simulation.metrics.interactions

    @property
    def parallel_time(self) -> float:
        """Parallel time elapsed so far."""
        return self.simulation.metrics.parallel_time

    def configuration(self) -> Configuration:
        """Return the current configuration multiset."""
        return self.simulation.configuration()

    def count(self, state: Hashable) -> int:
        """Return the number of agents currently in ``state``."""
        return self.simulation.count_where(lambda current: current == state)

    def outputs(self) -> Counter:
        """Histogram of outputs over the population."""
        return Counter(self.simulation.outputs())

    def run_interactions(self, count: int) -> None:
        """Execute exactly ``count`` additional interactions."""
        self.simulation.run_interactions(count)

    def run_parallel_time(self, time: float) -> None:
        """Execute (at least) ``time`` additional units of parallel time."""
        self.simulation.run_parallel_time(time)

    def run_until(
        self,
        predicate: Callable[["CountingSimulationAdapter"], bool],
        max_parallel_time: float,
        check_interval: int | None = None,
    ) -> float:
        """Run until ``predicate(self)`` holds; return the parallel time reached."""
        return run_until_predicate(self, predicate, max_parallel_time, check_interval)

    def run_with_trace(
        self, total_parallel_time: float, samples: int
    ) -> list[CountTracePoint]:
        """Run for ``total_parallel_time``; return evenly spaced snapshots."""
        return run_with_trace(self, total_parallel_time, samples)


def build_engine(
    engine: str,
    protocol: FiniteStateProtocol,
    population_size: int,
    seed: int | None = None,
    initial_configuration: Configuration | None = None,
    scheduler: SchedulerSpec | str | None = None,
    scheduler_options: Mapping[str, object] | None = None,
    backend: "ArrayBackend | str | None" = None,
    **engine_options,
) -> CountLevelEngine:
    """Construct the requested engine for ``protocol`` at ``population_size``.

    Parameters
    ----------
    engine:
        One of :data:`ENGINE_NAMES` (``"agent"``, ``"count"``, ``"batched"``,
        ``"vector"``, ``"multiscale"``).
    scheduler:
        Scheduling policy: a registered name or a
        :class:`~repro.engine.scheduler.SchedulerSpec`.  ``None`` selects the
        engine's default (:data:`DEFAULT_SCHEDULERS`).  The (engine,
        scheduler) pair is validated against the compatibility matrix
        (:func:`engine_scheduler_matrix`) before the engine is built.
    scheduler_options:
        Options for a scheduler given by name (e.g. ``{"intra": 0.95}``).
    backend:
        Array backend for the hot kernels (:mod:`repro.backend`): a
        registered name (``"numpy"``, ``"numba"``, ``"native"``), an
        :class:`~repro.backend.ArrayBackend` instance, or ``None`` for the
        process default (``REPRO_BACKEND`` or numpy).  Consumed by the
        batched, vector and multiscale engines; the per-interaction
        reference engines (agent, count) always run plain Python/numpy and
        warn if a non-default backend is requested for them.
    engine_options:
        Extra keyword arguments forwarded to the engine constructor (the
        batched engine takes ``batch_size`` / ``small_count_threshold``, the
        multiscale engine ``leap_eps`` / ``regime_thresholds``).

    Raises
    ------
    SimulationError
        For an unknown engine name, an incompatible (engine, scheduler)
        combination, or options the engine does not accept.
    """
    if engine not in ENGINE_NAMES:
        raise SimulationError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINE_NAMES)}"
        )
    spec = resolve_scheduler_spec(engine, scheduler, scheduler_options)
    if engine in ("agent", "count") and backend is not None:
        resolved = resolve_backend(backend)
        if resolved.name != "numpy":
            warnings.warn(
                f"the {engine} engine is a per-interaction reference "
                f"implementation and always runs the numpy code path; "
                f"ignoring backend {resolved.name!r}",
                UserWarning,
                stacklevel=2,
            )
    if engine == "agent":
        if engine_options:
            raise SimulationError(
                f"the agent engine accepts no extra options, got {sorted(engine_options)}"
            )
        return CountingSimulationAdapter(
            protocol, population_size, seed=seed,
            initial_configuration=initial_configuration,
            scheduler=spec,
        )
    if engine == "count":
        if engine_options:
            raise SimulationError(
                f"the count engine accepts no extra options, got {sorted(engine_options)}"
            )
        return CountSimulator(
            protocol, population_size, seed=seed,
            initial_configuration=initial_configuration,
            scheduler=spec,
        )
    if engine == "batched":
        allowed = {"batch_size", "small_count_threshold"}
        unknown = set(engine_options) - allowed
        if unknown:
            raise SimulationError(
                f"the batched engine does not accept options {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}"
            )
        return BatchedCountSimulator(
            protocol, population_size, seed=seed,
            initial_configuration=initial_configuration,
            scheduler=spec,
            backend=backend,
            **engine_options,
        )
    if engine == "vector":
        if engine_options:
            raise SimulationError(
                f"the vector engine accepts no extra options, got {sorted(engine_options)}"
            )
        return VectorFiniteStateSimulator(
            protocol, population_size, seed=seed,
            initial_configuration=initial_configuration,
            scheduler=spec,
            backend=backend,
        )
    if engine == "multiscale":
        allowed = {"leap_eps", "regime_thresholds"}
        unknown = set(engine_options) - allowed
        if unknown:
            raise SimulationError(
                f"the multiscale engine does not accept options {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}"
            )
        return MultiscaleSimulator(
            protocol, population_size, seed=seed,
            initial_configuration=initial_configuration,
            scheduler=spec,
            backend=backend,
            **engine_options,
        )
    # Unreachable while ENGINE_NAMES and the branches above stay in sync;
    # a name added to ENGINE_NAMES without a branch must fail loudly rather
    # than fall through to some other engine.
    raise SimulationError(f"engine {engine!r} has no construction branch")
