"""Parallel sweep orchestration: picklable trial specs + a worker-pool driver.

PR 1 made *single runs* fast (the batched engine); this module makes *sweeps*
fast.  A sweep — every Figure-2 / termination / cross-engine experiment — is
a list of independent trials, one per ``(protocol, n, run, engine)``
combination.  Each trial is described by a frozen, picklable
:class:`TrialSpec`; :func:`run_trial` executes one spec to a
:class:`~repro.harness.results.RunRecord`; :func:`run_trials` maps specs over
a ``multiprocessing`` worker pool (or serially for ``workers=1``) and
optionally through a :mod:`repro.store` result store, so interrupted sweeps
resume without recomputing finished trials.

Determinism
-----------
A trial's randomness depends only on its spec: the per-trial seed is derived
from ``(base_seed, size_index, run_index)`` via
:func:`repro.rng.spawn_seed` (``numpy.random.SeedSequence`` spawning), never
from worker identity or scheduling order, and results are collected in spec
order.  ``workers=4`` therefore produces record-for-record identical output
to ``workers=1``.

Workload registry
-----------------
Cached/parallel sweeps driven from the CLI reference protocols *by name*
through :data:`WORKLOADS` (finite-state protocols, runnable on any engine of
:data:`repro.engine.selection.ENGINE_NAMES`) or :data:`VECTOR_WORKLOADS`
(bespoke vector-engine kernels for the non-finite-state paper protocols:
``figure2``, ``leader-terminating``); worker processes re-import this
module, so both registries are always available on the far side of the
pickle boundary.  CRN trials (``kind="crn"``,
:func:`build_crn_trials`) reference :data:`repro.crn.library.CRN_WORKLOADS`
for their predicate but embed the *network itself* in the spec, so the full
reaction system — every rate constant — participates in the cache key.
Library callers may instead embed ``protocol_factory``/``predicate``
callables in the spec; with ``workers > 1`` those callables must be
picklable (module-level functions or classes, not lambdas or closures).
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Sequence

from repro.core.parameters import ProtocolParameters
from repro.exceptions import ConvergenceError, SimulationError
from repro.harness.results import RunRecord
from repro.obs.manifest import TELEMETRY_KEY, trial_manifest
from repro.obs.progress import SweepProgress
from repro.obs.recorder import RECORDER as _REC
from repro.protocols.base import FiniteStateProtocol
from repro.rng import spawn_seed

__all__ = [
    "KIND_ARRAY",
    "KIND_CRN",
    "KIND_FINITE_STATE",
    "KIND_SEQUENTIAL",
    "KIND_VECTOR",
    "VECTOR_WORKLOADS",
    "WORKLOADS",
    "FiniteStateWorkload",
    "SweepOutcome",
    "TrialSpec",
    "VectorWorkload",
    "build_crn_trials",
    "build_finite_state_trials",
    "build_vector_trials",
    "get_vector_workload",
    "get_workload",
    "register_vector_workload",
    "register_workload",
    "run_trial",
    "run_trials",
]

#: Trial kinds understood by :func:`run_trial`.
KIND_FINITE_STATE = "finite-state"
KIND_ARRAY = "array"
KIND_SEQUENTIAL = "sequential"
KIND_VECTOR = "vector"
KIND_CRN = "crn"
_KINDS = (KIND_FINITE_STATE, KIND_ARRAY, KIND_SEQUENTIAL, KIND_VECTOR, KIND_CRN)


# ---------------------------------------------------------------------------
# Workload registry (finite-state protocols referenced by name)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteStateWorkload:
    """A named finite-state workload runnable by the sweep driver and CLI.

    Attributes
    ----------
    name:
        Registry key (``repro sweep --protocol <name>``).
    factory:
        Zero-argument callable building a fresh protocol per trial.
    predicate:
        Convergence predicate over the count-level engine interface.
    description:
        One line for ``--help`` output.
    default_population:
        Default ``n`` for single-shot CLI runs.
    default_budget:
        Parallel-time budget as a function of ``n``.
    scheduler / scheduler_options:
        Optional scheduler variant baked into the workload (used when a
        trial does not choose a scheduler explicitly), so registries can
        carry e.g. a two-block flavour of an existing workload as its own
        named entry.
    """

    name: str
    factory: Callable[[], FiniteStateProtocol]
    predicate: Callable[..., bool]
    description: str
    default_population: int
    default_budget: Callable[[int], float]
    scheduler: str | None = None
    scheduler_options: tuple[tuple[str, object], ...] = ()


WORKLOADS: dict[str, FiniteStateWorkload] = {}


def register_workload(workload: FiniteStateWorkload) -> FiniteStateWorkload:
    """Register a named workload (overwrites an existing entry)."""
    WORKLOADS[workload.name] = workload
    return workload


def get_workload(name: str) -> FiniteStateWorkload:
    """Look up a registered workload, raising :class:`SimulationError` if absent."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SimulationError(
            f"unknown workload {name!r}; registered: {', '.join(sorted(WORKLOADS))}"
        ) from None


def _register_builtin_workloads() -> None:
    # Imported lazily so importing the harness does not pull every protocol
    # module at module-import time in a fixed order; the worker side re-runs
    # this at import, so name lookups succeed in any start method.
    from repro.protocols.epidemic import (
        EpidemicProtocol,
        epidemic_completion_predicate,
    )
    from repro.protocols.leader_election import (
        FiniteStateCounterTermination,
        FiniteStatePairwiseElimination,
        termination_signal_predicate,
        unique_leader_predicate,
    )
    from repro.protocols.majority import (
        ApproximateMajorityProtocol,
        majority_consensus_predicate,
    )

    register_workload(
        FiniteStateWorkload(
            name="epidemic",
            factory=EpidemicProtocol,
            predicate=epidemic_completion_predicate,
            description="one-way epidemic until the whole population is infected",
            default_population=100_000,
            default_budget=lambda n: 200.0,
        )
    )
    register_workload(
        FiniteStateWorkload(
            name="majority",
            factory=ApproximateMajorityProtocol,
            predicate=majority_consensus_predicate,
            description="3-state approximate majority until consensus",
            default_population=100_000,
            default_budget=lambda n: 200.0,
        )
    )
    register_workload(
        FiniteStateWorkload(
            name="leader",
            factory=FiniteStatePairwiseElimination,
            predicate=unique_leader_predicate,
            description="pairwise-elimination leader election until one leader remains",
            default_population=2_000,
            # The election needs Theta(n) parallel time (Theta(n^2) interactions).
            default_budget=lambda n: 4.0 * n,
        )
    )
    register_workload(
        FiniteStateWorkload(
            name="termination",
            factory=lambda: FiniteStateCounterTermination(counter_threshold=8),
            predicate=termination_signal_predicate,
            description="Figure-1 counter protocol until the first termination signal",
            default_population=100_000,
            default_budget=lambda n: 200.0,
        )
    )


_register_builtin_workloads()


# ---------------------------------------------------------------------------
# Vector workloads (non-finite-state protocols on the vector engine)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorWorkload:
    """A named vector-engine workload runnable by the sweep driver and CLI.

    These cover the paper protocols that are *not* finite-state (their agents
    carry unbounded integer fields) and therefore run as bespoke
    :class:`~repro.engine.vector.VectorProtocol` kernels rather than through
    :func:`repro.engine.selection.build_engine`.

    Attributes
    ----------
    name:
        Registry key (``repro sweep --engine vector --protocol <name>``).
    kernel_factory:
        Callable ``(params, **options) -> VectorProtocol`` building a fresh
        kernel per trial (options come from ``TrialSpec.engine_options``,
        e.g. ``phase_count`` for the leader-terminating protocol).
    description:
        One line for ``--help`` output.
    default_population:
        Default ``n`` for single-shot CLI runs.
    default_budget:
        Parallel-time budget as ``(n, params, **options) -> float``.
    scheduler / scheduler_options:
        Optional round-scheduler variant baked into the workload (used when
        a trial does not choose a scheduler explicitly).
    """

    name: str
    kernel_factory: Callable[..., object]
    description: str
    default_population: int
    default_budget: Callable[..., float]
    scheduler: str | None = None
    scheduler_options: tuple[tuple[str, object], ...] = ()


VECTOR_WORKLOADS: dict[str, VectorWorkload] = {}


def register_vector_workload(workload: VectorWorkload) -> VectorWorkload:
    """Register a named vector workload (overwrites an existing entry)."""
    VECTOR_WORKLOADS[workload.name] = workload
    return workload


def get_vector_workload(name: str) -> VectorWorkload:
    """Look up a registered vector workload, raising :class:`SimulationError`."""
    try:
        return VECTOR_WORKLOADS[name]
    except KeyError:
        raise SimulationError(
            f"unknown vector workload {name!r}; registered: "
            f"{', '.join(sorted(VECTOR_WORKLOADS))}"
        ) from None


def _register_builtin_vector_workloads() -> None:
    # Imported lazily for the same reason as the finite-state registry.
    from repro.core.array_simulator import (
        LogSizeVectorProtocol,
        expected_convergence_time,
    )
    from repro.core.vector_leader import (
        LeaderTerminatingVectorProtocol,
        expected_termination_time,
    )

    def _figure2_budget(population_size, params, **_options):
        return 4.0 * expected_convergence_time(population_size, params)

    def _leader_budget(population_size, params, **options):
        return 4.0 * expected_termination_time(population_size, params, **options)

    register_vector_workload(
        VectorWorkload(
            name="figure2",
            kernel_factory=LogSizeVectorProtocol,
            description=(
                "Log-Size-Estimation until every agent is done (the Figure 2 "
                "convergence sweep)"
            ),
            default_population=100_000,
            default_budget=_figure2_budget,
        )
    )
    register_vector_workload(
        VectorWorkload(
            name="leader-terminating",
            kernel_factory=LeaderTerminatingVectorProtocol,
            description=(
                "Theorem 3.13 leader-driven terminating size estimation until "
                "the termination signal reaches every agent"
            ),
            default_population=100_000,
            default_budget=_leader_budget,
        )
    )


_register_builtin_vector_workloads()


# ---------------------------------------------------------------------------
# Trial specification
# ---------------------------------------------------------------------------


def _callable_ref(value: Callable | None) -> str | None:
    """Stable textual reference to a callable, for hashing into cache keys."""
    if value is None:
        return None
    module = getattr(value, "__module__", type(value).__module__)
    qualname = getattr(value, "__qualname__", type(value).__qualname__)
    return f"{module}:{qualname}"


@dataclass(frozen=True)
class TrialSpec:
    """One simulation trial, fully described by picklable data.

    The spec is the unit of parallelism *and* the unit of caching: a worker
    process receives the spec (nothing else), and the cache key is a hash of
    every field, so any change to the sweep — protocol, size, run index,
    base seed, engine, budget, options — invalidates exactly the affected
    trials.

    Attributes
    ----------
    kind:
        ``"finite-state"`` (any registered/supplied finite-state protocol on
        a selectable engine), ``"vector"`` (a registered
        :data:`VECTOR_WORKLOADS` kernel on the vector engine), ``"array"``
        (vectorised ``Log-Size-Estimation``; the historical alias for the
        ``"figure2"`` vector workload), or ``"sequential"`` (agent-level
        ``Log-Size-Estimation``).
    population_size / size_index / run_index / base_seed:
        Trial coordinates; the per-trial seed is
        ``spawn_seed(base_seed, size_index, run_index)``.
    engine:
        Engine name for finite-state trials (one of
        :data:`repro.engine.selection.ENGINE_NAMES`); informational for the
        estimation kinds.
    max_parallel_time:
        Budget before the trial is recorded as non-converged.
    protocol:
        Name of a registered workload (preferred for cached sweeps), or
        ``None`` when ``protocol_factory``/``predicate`` are given directly.
    protocol_factory / predicate:
        Direct callables (must be picklable for ``workers > 1``).
    engine_options:
        Canonicalised ``(key, value)`` pairs forwarded to
        :func:`repro.engine.selection.build_engine`.
    scheduler / scheduler_options:
        Scheduling policy name and canonicalised option pairs.  ``None``
        selects the engine's default policy (sequential, or matching on the
        round-based kinds); an explicit choice is validated against the
        engine × scheduler compatibility matrix at spec construction and
        participates in the cache key, so a cached uniform-scheduler trial
        is never replayed for a non-uniform run.
    params:
        :class:`ProtocolParameters` for the estimation kinds.
    track_states:
        Sequential kind only: enable per-agent state tracking.
    crn / crn_mode:
        CRN kind only: the embedded :class:`~repro.crn.model.CRN` (the full
        network travels in the spec, so its canonical form — every rate
        constant, product orientation and initial condition — participates
        in the cache key; a cached trial is never replayed for a modified
        network) and the lowering mode (``"uniform"`` or ``"thinned"``; the
        thinned lowering runs only on the count and batched engines).
    leap_eps / regime_thresholds:
        Multiscale engine only: the tau-leap relative-propensity tolerance
        (Cao's epsilon) and the ``(critical, ode)`` per-species count
        thresholds of the regime controller.  Both change the sampled
        trajectory, so they participate in the cache key (joining only when
        set, like the scheduler); ``None`` uses the engine defaults.
    """

    kind: str
    population_size: int
    size_index: int
    run_index: int
    base_seed: int = 0
    engine: str = "count"
    max_parallel_time: float = 100.0
    check_interval: int | None = None
    protocol: str | None = None
    protocol_factory: Callable[[], FiniteStateProtocol] | None = None
    predicate: Callable[..., bool] | None = None
    engine_options: tuple[tuple[str, object], ...] = ()
    scheduler: str | None = None
    scheduler_options: tuple[tuple[str, object], ...] = ()
    params: ProtocolParameters | None = None
    track_states: bool = False
    crn: "object | None" = None
    crn_mode: str = "uniform"
    leap_eps: float | None = None
    regime_thresholds: "tuple[float, float] | None" = None

    def __post_init__(self) -> None:
        # leap_eps / regime_thresholds may arrive through **engine_options
        # (the builders take them as keyword options); hoist them into the
        # dedicated fields so every spelling hashes to one cache key.
        options = dict(self.engine_options)
        hoisted = False
        for name in ("leap_eps", "regime_thresholds"):
            if name in options:
                if getattr(self, name) is not None:
                    raise SimulationError(
                        f"{name} was given both as a TrialSpec field and in "
                        f"engine_options; set it once"
                    )
                object.__setattr__(self, name, options.pop(name))
                hoisted = True
        if hoisted:
            object.__setattr__(
                self, "engine_options", tuple(sorted(options.items()))
            )
        if self.kind not in _KINDS:
            raise SimulationError(
                f"unknown trial kind {self.kind!r}; expected one of {', '.join(_KINDS)}"
            )
        if self.population_size < 2:
            raise SimulationError(
                f"population_size must be >= 2, got {self.population_size}"
            )
        if self.size_index < 0 or self.run_index < 0:
            raise SimulationError(
                f"size_index and run_index must be >= 0, got "
                f"({self.size_index}, {self.run_index})"
            )
        if self.max_parallel_time <= 0:
            raise SimulationError(
                f"max_parallel_time must be positive, got {self.max_parallel_time}"
            )
        if self.kind == KIND_FINITE_STATE:
            if self.protocol is None and (
                self.protocol_factory is None or self.predicate is None
            ):
                raise SimulationError(
                    "a finite-state trial needs either a registered workload name "
                    "(protocol=...) or explicit protocol_factory and predicate"
                )
            from repro.engine.selection import ENGINE_NAMES

            if self.engine not in ENGINE_NAMES:
                raise SimulationError(
                    f"unknown engine {self.engine!r}; expected one of "
                    f"{', '.join(ENGINE_NAMES)}"
                )
        elif self.kind == KIND_VECTOR:
            if self.protocol is None:
                raise SimulationError(
                    "a vector trial needs a registered vector workload name "
                    "(protocol=...)"
                )
            if self.params is None:
                raise SimulationError(
                    f"{self.kind} trials need ProtocolParameters (params=...)"
                )
        elif self.kind == KIND_CRN:
            self._validate_crn()
        elif self.params is None:
            raise SimulationError(
                f"{self.kind} trials need ProtocolParameters (params=...)"
            )
        if self.kind != KIND_CRN and self.crn is not None:
            raise SimulationError(
                f"{self.kind} trials do not take a CRN (crn=...); use kind='crn'"
            )
        if self.scheduler is not None:
            self._validate_scheduler()
        elif self.scheduler_options:
            raise SimulationError(
                "scheduler_options were given without a scheduler; they would "
                "be silently ignored (set scheduler=... as well)"
            )
        self._validate_multiscale_knobs()

    def _validate_multiscale_knobs(self) -> None:
        """Fail fast on tau-leap/regime knobs (build time, not mid-sweep)."""
        if self.leap_eps is None and self.regime_thresholds is None:
            return
        if self.engine != "multiscale":
            raise SimulationError(
                f"leap_eps/regime_thresholds tune the multiscale engine's "
                f"tau-leap error control and regime switching; the "
                f"{self.engine} engine does not read them"
            )
        if self.leap_eps is not None:
            eps = float(self.leap_eps)
            if not 0.0 < eps <= 0.5:
                raise SimulationError(
                    f"leap_eps must be in (0, 0.5], got {eps}"
                )
            object.__setattr__(self, "leap_eps", eps)
        if self.regime_thresholds is not None:
            try:
                critical, ode = (
                    float(value) for value in self.regime_thresholds
                )
            except (TypeError, ValueError):
                raise SimulationError(
                    f"regime_thresholds must be a (critical, ode) pair of "
                    f"numbers, got {self.regime_thresholds!r}"
                ) from None
            if not 0.0 < critical < ode:
                raise SimulationError(
                    f"regime_thresholds must satisfy 0 < critical < ode, "
                    f"got ({critical}, {ode})"
                )
            object.__setattr__(self, "regime_thresholds", (critical, ode))

    def _validate_crn(self) -> None:
        """Fail fast on malformed CRN trials (build time, not mid-sweep)."""
        from repro.crn.compile import CRN_MODES
        from repro.crn.model import CRN
        from repro.engine.selection import ENGINE_NAMES

        if not isinstance(self.crn, CRN):
            raise SimulationError(
                "a crn trial needs the network itself (crn=CRN(...)); the full "
                "spec travels in the trial so it can key the result cache"
            )
        if self.engine not in ENGINE_NAMES:
            raise SimulationError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{', '.join(ENGINE_NAMES)}"
            )
        if self.crn_mode not in CRN_MODES:
            raise SimulationError(
                f"unknown CRN lowering mode {self.crn_mode!r}; expected one of "
                f"{', '.join(CRN_MODES)}"
            )
        if self.crn_mode == "thinned" and self.engine not in ("count", "batched"):
            raise SimulationError(
                f"the thinned CRN lowering targets the state-weighted scheduler, "
                f"which the {self.engine} engine cannot run; use the count or "
                f"batched engine (or mode='uniform')"
            )
        if self.scheduler is not None:
            raise SimulationError(
                "crn trials derive their scheduler from the lowering mode; "
                "pass crn_mode='thinned' instead of scheduler=..."
            )
        if self.protocol is None and self.predicate is None:
            raise SimulationError(
                "a crn trial needs a convergence predicate: either a registered "
                "CRN workload name (protocol=...) or an explicit predicate"
            )

    #: Scheduler capability each trial kind consumes (finite-state trials
    #: defer to the chosen engine's capability).
    _KIND_SCHEDULER_CAPABILITY = {
        KIND_VECTOR: "rounds",
        KIND_ARRAY: "rounds",
        KIND_SEQUENTIAL: "pair",
    }

    def _validate_scheduler(self) -> None:
        """Fail fast on unknown/incompatible schedulers or bad options."""
        from repro.engine.scheduler import get_scheduler_policy
        from repro.engine.selection import ENGINE_SCHEDULER_CAPABILITY

        policy_cls = get_scheduler_policy(self.scheduler)
        if self.kind == KIND_FINITE_STATE:
            capability = ENGINE_SCHEDULER_CAPABILITY[self.engine]
        else:
            capability = self._KIND_SCHEDULER_CAPABILITY[self.kind]
        if capability not in policy_cls.capabilities:
            raise SimulationError(
                f"scheduler {self.scheduler!r} is not compatible with "
                f"{self.kind} trials on the {self.engine} engine "
                f"(needs the {capability!r} capability; see `repro engines`)"
            )
        # Instantiate once so malformed options surface at build time, not
        # inside a worker process mid-sweep.
        self.scheduler_spec().build_policy()

    def scheduler_spec(self):
        """The trial's scheduler as a :class:`SchedulerSpec` (or ``None``).

        ``None`` means "the engine's default policy" and keeps the engines'
        historical draw-for-draw RNG streams.  The spec is returned in its
        coerced (canonical) form, so ``intra="0.95"`` and ``intra=0.95``
        build the same policy *and* hash to the same sweep cache key.
        """
        if self.scheduler is None:
            return None
        from repro.engine.scheduler import SchedulerSpec

        return SchedulerSpec(
            name=self.scheduler, options=self.scheduler_options
        ).coerced()

    @property
    def seed(self) -> int:
        """Deterministic per-trial seed (collision-free across the sweep)."""
        return spawn_seed(self.base_seed, self.size_index, self.run_index)

    def cache_payload(self) -> dict:
        """The canonical key payload hashed by :meth:`cache_key`.

        Public so the staticcheck contract audit (rule ``K405``) can prove
        that *store-selection* names never leak into the key: the payload
        describes the trial — what to simulate, with which seed and budget —
        and deliberately says nothing about where its record is persisted.
        """
        payload = {
            "kind": self.kind,
            "population_size": self.population_size,
            "size_index": self.size_index,
            "run_index": self.run_index,
            "base_seed": self.base_seed,
            "engine": self.engine,
            "max_parallel_time": self.max_parallel_time,
            "check_interval": self.check_interval,
            "protocol": self.protocol,
            "protocol_factory": _callable_ref(self.protocol_factory),
            "predicate": _callable_ref(self.predicate),
            "engine_options": sorted(
                (str(key), repr(value)) for key, value in self.engine_options
            ),
            "params": None if self.params is None else {
                f.name: getattr(self.params, f.name) for f in fields(self.params)
            },
            "track_states": self.track_states,
        }
        # The scheduler joins the payload only when one is explicitly
        # chosen: default-scheduler specs keep hashing exactly as they did
        # before schedulers became pluggable, so caches written by earlier
        # releases stay valid, while any non-default scheduler (or option
        # change) still gets its own key.  The canonical encoding lives on
        # SchedulerSpec (one implementation, shared with its unit tests).
        scheduler_spec = self.scheduler_spec()
        if scheduler_spec is not None:
            payload["scheduler"] = scheduler_spec.cache_payload()
        # Same join-only-when-present rule for the CRN kind: the canonical
        # network form (reactions, rate constants, product orientations,
        # initial condition) plus the lowering mode key the cache, so a
        # cached trial is never replayed for a CRN differing in any of them
        # — notably a single rate constant.
        if self.crn is not None:
            payload["crn"] = {
                "network": self.crn.canonical(),
                "mode": self.crn_mode,
            }
        # Multiscale error-control knobs join only when set: they change the
        # simulated distribution (leap tolerance) or the trajectory (regime
        # thresholds), so a cached trial is never replayed under different
        # tolerances — while non-multiscale specs keep their historical keys.
        if self.leap_eps is not None:
            payload["leap_eps"] = self.leap_eps
        if self.regime_thresholds is not None:
            payload["regime_thresholds"] = list(self.regime_thresholds)
        return payload

    def cache_key(self) -> str:
        """Stable content hash of the spec, used as the result-store key."""
        canonical = json.dumps(self.cache_payload(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def engine_option_dict(self) -> dict:
        """``engine_options`` plus any multiscale knobs, ready for builders."""
        options = dict(self.engine_options)
        if self.leap_eps is not None:
            options["leap_eps"] = self.leap_eps
        if self.regime_thresholds is not None:
            options["regime_thresholds"] = self.regime_thresholds
        return options

    def resolve_workload(self) -> tuple[Callable[[], FiniteStateProtocol], Callable]:
        """Resolve the protocol factory and predicate for a finite-state trial.

        Explicit callables take precedence; a registered workload name fills
        in whichever of the two was not supplied (so a caller can e.g. sweep
        the ``"epidemic"`` workload under a custom stopping predicate).
        """
        factory = self.protocol_factory
        predicate = self.predicate
        if self.protocol is not None:
            workload = get_workload(self.protocol)
            factory = factory or workload.factory
            predicate = predicate or workload.predicate
        return factory, predicate


def build_finite_state_trials(
    population_sizes: Sequence[int],
    runs_per_size: int,
    base_seed: int = 0,
    engine: str = "count",
    max_parallel_time: float | Callable[[int], float] = 100.0,
    check_interval: int | None = None,
    protocol: str | None = None,
    protocol_factory: Callable[[], FiniteStateProtocol] | None = None,
    predicate: Callable[..., bool] | None = None,
    scheduler: str | None = None,
    scheduler_options: Mapping[str, object] | None = None,
    **engine_options,
) -> list[TrialSpec]:
    """Expand a finite-state sweep into one :class:`TrialSpec` per trial.

    ``max_parallel_time`` may be a callable ``n -> budget`` for workloads
    whose budget scales with the population (e.g. leader election's ``4n``).
    ``scheduler`` (with ``scheduler_options``) selects a scheduling policy
    for every trial; ``None`` falls back to the workload's registered
    scheduler variant, if any, else the engine default.
    """
    if not population_sizes:
        raise SimulationError("population_sizes must be non-empty")
    if runs_per_size < 1:
        raise SimulationError(f"runs_per_size must be >= 1, got {runs_per_size}")
    budget = (
        max_parallel_time
        if callable(max_parallel_time)
        else (lambda n: float(max_parallel_time))
    )
    if scheduler is None and protocol is not None:
        workload = get_workload(protocol)
        scheduler = workload.scheduler
        # The workload's baked options accompany its baked scheduler unless
        # the caller supplies explicit (non-empty) options of their own —
        # the CLI always passes {} when no --scheduler-opt flag is given.
        if scheduler is not None and not scheduler_options:
            scheduler_options = dict(workload.scheduler_options)
    return [
        TrialSpec(
            kind=KIND_FINITE_STATE,
            population_size=population_size,
            size_index=size_index,
            run_index=run_index,
            base_seed=base_seed,
            engine=engine,
            max_parallel_time=budget(population_size),
            check_interval=check_interval,
            protocol=protocol,
            protocol_factory=protocol_factory,
            predicate=predicate,
            engine_options=tuple(sorted(engine_options.items())),
            scheduler=scheduler,
            scheduler_options=tuple(sorted((scheduler_options or {}).items())),
        )
        for size_index, population_size in enumerate(population_sizes)
        for run_index in range(runs_per_size)
    ]


def build_vector_trials(
    population_sizes: Sequence[int],
    runs_per_size: int,
    protocol: str,
    params: ProtocolParameters,
    base_seed: int = 0,
    max_parallel_time: float | Callable[[int], float] | None = None,
    scheduler: str | None = None,
    scheduler_options: Mapping[str, object] | None = None,
    **engine_options,
) -> list[TrialSpec]:
    """Expand a vector-workload sweep into one :class:`TrialSpec` per trial.

    ``max_parallel_time`` may be a constant, a callable ``n -> budget``, or
    ``None`` to use the workload's default budget (which accounts for the
    protocol constants and any ``engine_options``, e.g. ``phase_count``).
    ``scheduler`` selects the round scheduler (default: the workload's
    registered variant, else uniform matching).
    """
    if not population_sizes:
        raise SimulationError("population_sizes must be non-empty")
    if runs_per_size < 1:
        raise SimulationError(f"runs_per_size must be >= 1, got {runs_per_size}")
    workload = get_vector_workload(protocol)
    if scheduler is None:
        scheduler = workload.scheduler
        if scheduler is not None and not scheduler_options:
            scheduler_options = dict(workload.scheduler_options)
    # "backend" addresses the VectorSimulator, not the protocol kernel: it
    # must not reach the kernel factory or the budget computation.
    kernel_options = {
        key: value for key, value in engine_options.items() if key != "backend"
    }
    # Probe the kernel factory once so unsupported engine_options fail here,
    # at build time, instead of as a TypeError inside a worker process mid-
    # sweep.  Kernel construction is cheap (arrays are allocated later, in
    # init_fields); parameter-validation errors (ProtocolError) propagate.
    try:
        workload.kernel_factory(params, **kernel_options)
    except TypeError as error:
        raise SimulationError(
            f"vector workload {protocol!r} does not accept options "
            f"{sorted(kernel_options)}: {error}"
        ) from None
    if max_parallel_time is None:
        budget = lambda n: workload.default_budget(n, params, **kernel_options)
    elif callable(max_parallel_time):
        budget = max_parallel_time
    else:
        budget = lambda n: float(max_parallel_time)
    return [
        TrialSpec(
            kind=KIND_VECTOR,
            population_size=population_size,
            size_index=size_index,
            run_index=run_index,
            base_seed=base_seed,
            engine="vector",
            max_parallel_time=budget(population_size),
            protocol=protocol,
            params=params,
            engine_options=tuple(sorted(engine_options.items())),
            scheduler=scheduler,
            scheduler_options=tuple(sorted((scheduler_options or {}).items())),
        )
        for size_index, population_size in enumerate(population_sizes)
        for run_index in range(runs_per_size)
    ]


def build_crn_trials(
    population_sizes: Sequence[int],
    runs_per_size: int,
    crn: "str | object",
    base_seed: int = 0,
    engine: str = "batched",
    mode: str = "uniform",
    max_chemical_time: float | Callable[[int], float] | None = None,
    predicate: Callable[..., bool] | None = None,
    check_interval: int | None = None,
    leap_eps: float | None = None,
    regime_thresholds: "tuple[float, float] | None" = None,
    **engine_options,
) -> list[TrialSpec]:
    """Expand a CRN sweep into one :class:`TrialSpec` per trial.

    ``crn`` is a registered :data:`~repro.crn.library.CRN_WORKLOADS` name or
    a :class:`~repro.crn.model.CRN` object (an ad-hoc network then needs an
    explicit ``predicate``).  Budgets are stated in *chemical* time
    (``max_chemical_time``, a constant or a callable ``n -> budget``;
    default: the workload's budget) and converted to the engines'
    parallel-time budgets through the compiled rate scale; for the thinned
    lowering the same scale is a generous event-clock heuristic (see
    ``DESIGN.md``, CRN front-end).  ``leap_eps`` and ``regime_thresholds``
    tune the multiscale engine (see :class:`TrialSpec`).
    """
    from repro.crn.compile import compile_crn
    from repro.crn.library import get_crn_workload
    from repro.crn.model import CRN

    if not population_sizes:
        raise SimulationError("population_sizes must be non-empty")
    if runs_per_size < 1:
        raise SimulationError(f"runs_per_size must be >= 1, got {runs_per_size}")
    protocol_name = None
    if isinstance(crn, str):
        workload = get_crn_workload(crn)
        protocol_name = workload.name
        network = workload.crn
        chemical_budget = (
            max_chemical_time
            if max_chemical_time is not None
            else workload.default_chemical_budget
        )
    elif isinstance(crn, CRN):
        network = crn
        if predicate is None:
            raise SimulationError(
                "an ad-hoc CRN sweep needs an explicit convergence predicate "
                "(predicate=...); registered workloads carry their own"
            )
        if max_chemical_time is None:
            raise SimulationError(
                "an ad-hoc CRN sweep needs an explicit chemical-time budget "
                "(max_chemical_time=...); registered workloads carry their own"
            )
        chemical_budget = max_chemical_time
    else:
        raise SimulationError(
            f"crn must be a registered workload name or a CRN, got {crn!r}"
        )
    if not callable(chemical_budget):
        constant = float(chemical_budget)
        chemical_budget = lambda n: constant
    # Compiling here fails fast on a bad mode/network before any worker;
    # rate_scale is the uniform Gamma in either mode (in thinned mode it is
    # the budget heuristic — see DESIGN.md, CRN front-end).
    rate_scale = compile_crn(network, mode=mode).rate_scale
    return [
        TrialSpec(
            kind=KIND_CRN,
            population_size=population_size,
            size_index=size_index,
            run_index=run_index,
            base_seed=base_seed,
            engine=engine,
            max_parallel_time=rate_scale * chemical_budget(population_size),
            check_interval=check_interval,
            protocol=protocol_name,
            predicate=predicate,
            engine_options=tuple(sorted(engine_options.items())),
            crn=network,
            crn_mode=mode,
            leap_eps=leap_eps,
            regime_thresholds=regime_thresholds,
        )
        for size_index, population_size in enumerate(population_sizes)
        for run_index in range(runs_per_size)
    ]


# ---------------------------------------------------------------------------
# Trial execution (runs inside worker processes)
# ---------------------------------------------------------------------------


def _run_finite_state_trial(spec: TrialSpec) -> RunRecord:
    from repro.engine.selection import build_engine

    factory, predicate = spec.resolve_workload()
    simulator = build_engine(
        spec.engine,
        factory(),
        spec.population_size,
        seed=spec.seed,
        scheduler=spec.scheduler_spec(),
        **spec.engine_option_dict(),
    )
    converged = True
    convergence_time: float | None = None
    try:
        convergence_time = simulator.run_until(
            predicate,
            max_parallel_time=spec.max_parallel_time,
            check_interval=spec.check_interval,
        )
    except ConvergenceError:
        converged = False
    return RunRecord(
        population_size=spec.population_size,
        seed=spec.seed,
        converged=converged,
        convergence_time=convergence_time,
        extra={
            "engine": spec.engine,
            "interactions": int(simulator.interactions),
            "outputs": {
                str(output): int(count)
                for output, count in simulator.outputs().items()
            },
        },
    )


def _run_array_trial(spec: TrialSpec) -> RunRecord:
    from repro.core.array_simulator import ArrayLogSizeSimulator

    simulator = ArrayLogSizeSimulator(
        population_size=spec.population_size,
        params=spec.params,
        seed=spec.seed,
        scheduler=spec.scheduler_spec(),
    )
    outcome = simulator.run_until_done(max_parallel_time=spec.max_parallel_time)
    return RunRecord(
        population_size=spec.population_size,
        seed=spec.seed,
        converged=outcome.converged,
        convergence_time=outcome.convergence_time,
        max_additive_error=outcome.max_additive_error,
        extra={
            "engine": "array",
            "log_size2": outcome.log_size2,
            "interactions": outcome.interactions,
            "distinct_state_bound": outcome.distinct_state_bound,
            "final_estimate_mean": outcome.final_estimate_mean,
        },
    )


def _run_sequential_trial(spec: TrialSpec) -> RunRecord:
    from repro.core.log_size_estimation import (
        LogSizeEstimationProtocol,
        all_agents_done,
        estimate_error,
    )
    from repro.engine.simulator import Simulation

    protocol = LogSizeEstimationProtocol(spec.params)
    simulation = Simulation(
        protocol=protocol,
        population_size=spec.population_size,
        seed=spec.seed,
        scheduler=spec.scheduler_spec(),
        track_states=spec.track_states,
    )
    converged = True
    convergence_time: float | None = None
    try:
        convergence_time = simulation.run_until(
            all_agents_done, max_parallel_time=spec.max_parallel_time
        )
    except ConvergenceError:
        converged = False
    try:
        error = estimate_error(simulation)["max_additive_error"]
    except ValueError:
        error = math.nan
    return RunRecord(
        population_size=spec.population_size,
        seed=spec.seed,
        converged=converged,
        convergence_time=convergence_time,
        max_additive_error=error,
        extra={
            "engine": "sequential",
            "interactions": simulation.metrics.interactions,
            "distinct_states": simulation.metrics.distinct_states,
        },
    )


def _run_vector_trial(spec: TrialSpec) -> RunRecord:
    from repro.engine.vector import VectorSimulator

    workload = get_vector_workload(spec.protocol)
    options = dict(spec.engine_options)
    backend = options.pop("backend", None)
    kernel = workload.kernel_factory(spec.params, **options)
    simulator = VectorSimulator(
        kernel,
        spec.population_size,
        seed=spec.seed,
        scheduler=spec.scheduler_spec(),
        backend=backend,
    )
    outcome = simulator.run_until_done(max_parallel_time=spec.max_parallel_time)
    extra = {
        "engine": "vector",
        "protocol": spec.protocol,
        "interactions": outcome.interactions,
    }
    # Estimation-style result fields, absent on a plain VectorRunResult from
    # a custom registered workload.
    for name in ("log_size2", "distinct_state_bound", "final_estimate_mean"):
        value = getattr(outcome, name, None)
        if value is not None:
            extra[name] = value
    return RunRecord(
        population_size=spec.population_size,
        seed=spec.seed,
        converged=outcome.converged,
        convergence_time=outcome.convergence_time,
        max_additive_error=getattr(outcome, "max_additive_error", math.nan),
        extra=extra,
    )


def _run_crn_trial(spec: TrialSpec) -> RunRecord:
    from repro.crn.compile import compile_crn
    from repro.crn.library import get_crn_workload

    predicate = spec.predicate
    if predicate is None:
        predicate = get_crn_workload(spec.protocol).predicate
    compiled = compile_crn(spec.crn, mode=spec.crn_mode)
    simulator = compiled.build(
        spec.engine,
        spec.population_size,
        seed=spec.seed,
        **spec.engine_option_dict(),
    )
    converged = True
    convergence_time: float | None = None
    try:
        convergence_time = simulator.run_until(
            predicate,
            max_parallel_time=spec.max_parallel_time,
            check_interval=spec.check_interval,
        )
    except ConvergenceError:
        converged = False
    extra = {
        "engine": spec.engine,
        "crn": spec.crn.name,
        "crn_mode": spec.crn_mode,
        "rate_scale": compiled.rate_scale,
        "interactions": int(simulator.interactions),
        "counts": {
            str(state): int(count)
            for state, count in sorted(simulator.configuration().items())
        },
    }
    if compiled.time_exact and convergence_time is not None:
        extra["chemical_time"] = compiled.to_chemical_time(convergence_time)
    # Multiscale engines expose per-regime work counters; persist them so
    # sweep records (and `repro crn sweep` output) carry the exact/leap/ODE
    # breakdown that was previously visible only via `repro crn simulate`.
    regime_stats = getattr(simulator, "regime_stats", None)
    if regime_stats is not None:
        extra["regime"] = {
            str(name): int(value) for name, value in regime_stats().items()
        }
    return RunRecord(
        population_size=spec.population_size,
        seed=spec.seed,
        converged=converged,
        convergence_time=convergence_time,
        extra=extra,
    )


_TRIAL_RUNNERS = {
    KIND_FINITE_STATE: _run_finite_state_trial,
    KIND_ARRAY: _run_array_trial,
    KIND_SEQUENTIAL: _run_sequential_trial,
    KIND_VECTOR: _run_vector_trial,
    KIND_CRN: _run_crn_trial,
}


def run_trial(spec: TrialSpec) -> RunRecord:
    """Execute one trial (in whatever process this is called from).

    With telemetry enabled (``repro.obs.set_telemetry``), the trial's run
    manifest — spec hash, seed lineage, resolved engine/backend/scheduler,
    hot-path counters and the timing breakdown accumulated during *this*
    execution window — is attached under ``record.extra["telemetry"]``.
    The key is contractually excluded from cache keys (staticcheck K406)
    and the simulated trajectory is bit-identical either way: telemetry
    only observes.
    """
    if not _REC.enabled:
        return _TRIAL_RUNNERS[spec.kind](spec)
    mark = _REC.mark()
    record = _TRIAL_RUNNERS[spec.kind](spec)
    end_ns = _REC.now_ns()
    delta = _REC.since(mark)
    _REC.add_span(
        "trial",
        mark.t_ns,
        end_ns,
        category="sweep",
        args={
            "kind": spec.kind,
            "engine": spec.engine,
            "n": spec.population_size,
            "seed": spec.seed,
        },
    )
    record.extra[TELEMETRY_KEY] = trial_manifest(spec, delta)
    # Workers persist their span events per trial so a crashed worker
    # loses at most one trial's trace; a no-op without a spool directory.
    _REC.flush_spool()
    return record


def _enable_worker_telemetry(spool_dir: str | None) -> None:
    """``multiprocessing.Pool`` initializer: mirror the driver's telemetry
    state into the worker process (fresh processes start disabled)."""
    from repro.obs.recorder import set_telemetry

    set_telemetry(True, spool_dir)


# ---------------------------------------------------------------------------
# The sweep driver
# ---------------------------------------------------------------------------


@dataclass
class SweepOutcome:
    """Result of :func:`run_trials`: records in spec order plus provenance.

    Attributes
    ----------
    records:
        One :class:`RunRecord` per input spec, in input order — identical
        regardless of ``workers`` or how many drivers share the store.
    executed:
        Trials actually simulated *by this driver* in this invocation.
    from_cache:
        Trials replayed from the result store (including trials
        another concurrent driver finished while this one was running).
    executed_keys:
        Store keys of the trials this driver simulated itself, in
        completion order.  Empty when no store is attached.  Lets
        distributed tests assert exactly-once execution: two drivers
        sharing a store must report *disjoint* key sets.
    """

    records: list[RunRecord] = field(default_factory=list)
    executed: int = 0
    from_cache: int = 0
    executed_keys: list[str] = field(default_factory=list)


def run_trials(
    specs: Sequence[TrialSpec],
    workers: int = 1,
    store=None,
    lease_seconds: float | None = None,
    owner: str | None = None,
    poll_interval: float = 0.05,
    progress: Callable[[SweepProgress], None] | None = None,
) -> SweepOutcome:
    """Run a sweep of trials through a claim-loop over a result store.

    The driver repeatedly *claims* the next unowned spec from the store,
    runs it (inline or on a ``multiprocessing`` pool), appends the record,
    and moves on.  Claims are atomic compare-and-claim with lease expiry,
    so any number of concurrent drivers — in other processes, on other
    hosts — can point at the same store and cooperate on one sweep: each
    trial executes exactly once, a crashed driver's leased trials are
    reclaimed after the lease expires, and the sweep resumes from any mix
    of completed/leased/failed trials.

    Parameters
    ----------
    specs:
        The trials, typically from :func:`build_finite_state_trials` or the
        :mod:`repro.harness.experiment` runners.
    workers:
        Worker processes.  ``1`` runs claimed trials serially in-process
        (no pickling constraints); ``> 1`` runs them on a
        ``multiprocessing.Pool``, at most ``workers`` in flight.  Claims
        and appends always happen in the driver process.
    store:
        A :class:`~repro.store.base.ResultStore`, a parsed
        :class:`~repro.store.base.StoreSpec`, or a store URL
        (``jsonl:DIR`` / ``sqlite:PATH`` / ``http://HOST:PORT``); ``None``
        runs every trial without persistence.
    lease_seconds:
        Lease duration for each claim; ``None`` uses the store's default.
        Size it to comfortably exceed the slowest single trial.
    owner:
        Lease-owner identity; defaults to ``hostname:pid``.
    poll_interval:
        Seconds to wait between claim passes when every remaining trial is
        leased by other drivers (or in flight locally).
    progress:
        Optional callback invoked with a
        :class:`~repro.obs.progress.SweepProgress` after every resolved
        trial (executed locally *or* replayed from the store); drives the
        ``repro sweep --progress`` live view.  Purely observational — it
        must not raise.

    Returns
    -------
    SweepOutcome
        Records in spec order plus executed / from-cache provenance.
        Records depend only on the specs — identical regardless of
        ``workers``, driver count, or which store served them.
    """
    specs = list(specs)
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers}")
    records: list[RunRecord | None] = [None] * len(specs)

    # Workers start with telemetry disabled; when the driver records, the
    # pool initializer mirrors its enabled/spool state into each worker.
    pool_kwargs: dict = (
        {"initializer": _enable_worker_telemetry, "initargs": (_REC.spool_dir,)}
        if _REC.enabled
        else {}
    )

    def _emit_progress(total: int, done: int, executed: int, replayed: int) -> None:
        if progress is not None:
            progress(
                SweepProgress(
                    total=total, done=done, executed=executed, from_cache=replayed
                )
            )

    if store is None:
        # No persistence: plain fan-out, no keys to compute or claim.
        if workers == 1 or len(specs) <= 1:
            for index, spec in enumerate(specs):
                records[index] = run_trial(spec)
                _emit_progress(len(specs), index + 1, index + 1, 0)
        else:
            with multiprocessing.get_context().Pool(
                processes=min(workers, len(specs)), **pool_kwargs
            ) as pool:
                for index, record in enumerate(
                    pool.imap(run_trial, specs, chunksize=1)
                ):
                    records[index] = record
                    _emit_progress(len(specs), index + 1, index + 1, 0)
        if _REC.enabled:
            _REC.flush_spool()
        return SweepOutcome(records=records, executed=len(specs), from_cache=0)

    from repro.store import open_store

    resolved = open_store(store)
    if owner is None:
        from repro.store.base import default_owner

        owner = default_owner()

    # Several specs may share a key (identical trials); the store runs each
    # unique trial once and every index gets the record.
    indices_by_key: dict[str, list[int]] = {}
    for index, spec in enumerate(specs):
        indices_by_key.setdefault(spec.cache_key(), []).append(index)

    executed_keys: list[str] = []
    from_cache = 0
    replayed_unique = 0
    total_unique = len(indices_by_key)

    def _replay(key: str, record: RunRecord) -> None:
        nonlocal from_cache, replayed_unique
        for index in indices_by_key[key]:
            records[index] = record
        from_cache += len(indices_by_key[key])
        replayed_unique += 1
        if _REC.enabled:
            _REC.count("store.replays")
        _emit_progress(
            total_unique,
            replayed_unique + len(executed_keys),
            len(executed_keys),
            replayed_unique,
        )

    def _finish(key: str, record: RunRecord) -> None:
        t0 = _REC.now_ns() if _REC.enabled else 0
        resolved.append(key, record)
        if _REC.enabled:
            _REC.add_time("store.append", _REC.now_ns() - t0)
            _REC.count("store.appends")
        for index in indices_by_key[key]:
            records[index] = record
        executed_keys.append(key)
        _emit_progress(
            total_unique,
            replayed_unique + len(executed_keys),
            len(executed_keys),
            replayed_unique,
        )

    # Replay everything already finished (batch query), then claim-loop
    # over the remainder.
    unique_keys = list(indices_by_key)
    missing = set(resolved.pending(unique_keys))
    for key in unique_keys:
        if key in missing:
            continue
        record = resolved.get(key)
        if record is None:  # vanished between the two queries; claim it
            missing.add(key)
        else:
            _replay(key, record)

    queue = deque(key for key in unique_keys if key in missing)
    deferred: list[str] = []  # leased by another live driver; retry later
    in_flight: dict[str, object] = {}  # key -> pool AsyncResult
    pool = None
    try:
        if workers > 1 and len(queue) > 1:
            pool = multiprocessing.get_context().Pool(
                processes=min(workers, len(queue)), **pool_kwargs
            )
        capacity = workers if pool is not None else 1
        while queue or deferred or in_flight:
            moved = False
            # 1. Harvest finished pool trials.
            for key in list(in_flight):
                handle = in_flight[key]
                if not handle.ready():
                    continue
                del in_flight[key]
                try:
                    record = handle.get()
                except BaseException:
                    resolved.release(key, owner=owner)
                    raise
                _finish(key, record)
                moved = True
            # 2. Claim and dispatch up to capacity.
            while queue and len(in_flight) < capacity:
                key = queue.popleft()
                t0 = _REC.now_ns() if _REC.enabled else 0
                claim = resolved.claim(key, lease=lease_seconds, owner=owner)
                if _REC.enabled:
                    _REC.add_time("store.claim", _REC.now_ns() - t0)
                    _REC.count("store.claims")
                    if claim.acquired:
                        _REC.count("store.claims_acquired")
                if claim.done:
                    _replay(key, claim.record)
                    moved = True
                elif claim.acquired:
                    spec = specs[indices_by_key[key][0]]
                    if pool is not None:
                        in_flight[key] = pool.apply_async(run_trial, (spec,))
                    else:
                        try:
                            record = run_trial(spec)
                        except BaseException:
                            resolved.release(key, owner=owner)
                            raise
                        _finish(key, record)
                    moved = True
                else:
                    deferred.append(key)
            # 3. Nothing moved: wait for in-flight trials or foreign leases
            #    (which either complete -> done, or expire -> acquired).
            if not moved and (deferred or in_flight):
                time.sleep(poll_interval)
                queue.extend(deferred)
                deferred.clear()
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
        if _REC.enabled:
            _REC.flush_spool()

    return SweepOutcome(
        records=records,
        executed=len(executed_keys),
        from_cache=from_cache,
        executed_keys=executed_keys,
    )
