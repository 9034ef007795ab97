"""Compile a declarative CRN onto the repository's simulation engines.

:func:`compile_crn` lowers a :class:`~repro.crn.model.CRN` to a generated
:class:`~repro.protocols.base.FiniteStateProtocol` (:class:`CRNProtocol`)
whose states are the species.  That single artefact runs on *every* engine:
the agent and vector engines execute it directly, and the count/batched
engines flatten it through the existing compiled transition tables
(:func:`repro.protocols.compiled.compile_transition_table`).

Two lowering modes
------------------

``"uniform"`` (default — exact kinetics *and* exact times)
    Each ordered species pair carries its reactions with probability
    ``k / Gamma``, where the *rate scale* ``Gamma`` is the largest total
    rate constant over ordered pairs.  Under the paper's uniform scheduler
    the simulated process is then **exactly** the stochastic mass-action
    chain of the CRN (interaction volume ``v = (n - 1) / 2``; see
    ``repro.crn.model``) with every propensity divided by ``Gamma`` — i.e.
    Gillespie-equivalent up to the global time rescale
    ``parallel_time = Gamma * chemical_time``
    (:meth:`CompiledCRN.to_chemical_time`).  Valid on all four engines.

``"thinned"`` (exact reaction sequence, event-clock time)
    The compiler factors per-species *activity rates*
    ``r_s = sqrt(max pair total touching s)`` and maps them through the
    count-level ``state-weighted`` scheduler: ordered pairs are selected
    with probability proportional to ``(r_a c_a)(r_b c_b)`` and each
    reaction fires with probability ``k / (r_a r_b)``.  Every reaction's
    per-interaction probability is again proportional to its mass-action
    propensity, so the *embedded jump chain* (the sequence of reactions, and
    therefore every hitting/absorption statistic) is exactly Gillespie's —
    but far fewer interactions are spent on slow or inert pairs when rate
    constants span orders of magnitude.  The price is the clock: the
    interaction count no longer maps to chemical time by a constant
    (``DESIGN.md``, CRN front-end).  Count/batched engines only (they are
    the engines that can run ``state-weighted`` exactly); species that touch
    no reaction keep a tiny ``inert_rate`` so absorbing configurations (a
    lone leader among followers) remain schedulable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from repro.crn.model import CRN
from repro.engine.configuration import Configuration
from repro.engine.scheduler import SchedulerSpec
from repro.exceptions import SimulationError
from repro.protocols.base import FiniteStateProtocol, RandomizedTransition

__all__ = ["CRN_MODES", "CRNProtocol", "CompiledCRN", "compile_crn"]

#: Lowering modes understood by :func:`compile_crn`.
CRN_MODES = ("uniform", "thinned")

#: Relative activity kept by species that participate in no reaction under
#: the thinned lowering, so a configuration in which only such species
#: remain alongside one reactive agent is still schedulable.
_DEFAULT_INERT_RATE = 1e-3


class CRNProtocol(FiniteStateProtocol):
    """The finite-state protocol generated for one CRN lowering.

    States are the CRN's species names.  The transition distribution of each
    ordered pair is precomputed by :func:`compile_crn`; this class only
    serves it through the standard :class:`FiniteStateProtocol` interface,
    so every engine, the termination analysis and the compiled-table
    machinery treat a CRN like any hand-written protocol.

    :meth:`initial_configuration` resolves the CRN's initial condition at
    any ``n`` in ``O(species)``, so the count, batched and multiscale
    engines build from it directly.  ``initial_state`` covers only the
    seed-plus-single-default conditions that are expressible without
    knowing ``n`` (one infected agent, all leaders, ...); the per-agent
    engines (agent, vector) need multi-species fractions passed as an
    explicit configuration, which :meth:`CompiledCRN.build` supplies.
    """

    is_uniform = True

    def __init__(
        self,
        crn: CRN,
        mode: str,
        transition_map: Mapping[tuple[str, str], tuple[RandomizedTransition, ...]],
    ) -> None:
        self.crn = crn
        self.mode = mode
        self._species = crn.species()
        self._transitions = dict(transition_map)
        seeds = list(crn.seeds)
        self._seed_plan: list[tuple[int, str]] = []
        cumulative = 0
        for species, count in seeds:
            cumulative += count
            self._seed_plan.append((cumulative, species))
        self._default_species = (
            crn.fractions[0][0] if len(crn.fractions) == 1 else None
        )

    def states(self) -> Sequence[Hashable]:
        return self._species

    def initial_state(self, agent_id: int) -> Hashable:
        for threshold, species in self._seed_plan:
            if agent_id < threshold:
                return species
        if self._default_species is None:
            raise SimulationError(
                f"{self.crn.describe()} splits its initial fractions over "
                f"several species, which depends on the population size; pass "
                f"initial_configuration(n) to the per-agent engines "
                f"(CompiledCRN.build does)"
            )
        return self._default_species

    def initial_configuration(self, population_size: int) -> Configuration:
        counts = self.crn.initial_counts(population_size)
        # Seeded agents take the lowest ids, so they come first, as in the
        # per-agent build; dict.update keeps their positions.
        ordered = {species: counts[species] for species, _ in self.crn.seeds}
        ordered.update(counts)
        return Configuration(ordered)

    def transitions(
        self, receiver: Hashable, sender: Hashable
    ) -> Sequence[RandomizedTransition]:
        return self._transitions.get((receiver, sender), ())

    def describe(self) -> str:
        return (
            f"CRNProtocol({self.crn.name}, {len(self._species)} species, "
            f"{len(self.crn.reactions)} reactions, {self.mode})"
        )


@dataclass(frozen=True)
class CompiledCRN:
    """The result of lowering one CRN: protocol, scheduler and time mapping.

    Attributes
    ----------
    crn / mode:
        The source network and the lowering mode (``"uniform"`` or
        ``"thinned"``).
    protocol:
        The generated :class:`CRNProtocol`.
    rate_scale:
        The uniform-mode rate scale ``Gamma`` (largest total rate constant
        over ordered species pairs).  In uniform mode this is the exact
        chemical-to-parallel time factor; in thinned mode it is only the
        budget heuristic (thinned runs spend at most comparably many
        interactions per reaction event).
    state_rates:
        Per-species activity rates of the thinned lowering (``None`` in
        uniform mode).
    """

    crn: CRN
    mode: str
    protocol: CRNProtocol
    rate_scale: float
    state_rates: tuple[tuple[str, float], ...] | None = None

    @property
    def time_exact(self) -> bool:
        """Whether parallel time maps to chemical time by a constant."""
        return self.mode == "uniform"

    def scheduler_spec(self) -> SchedulerSpec | None:
        """The scheduler the lowering targets.

        ``None`` in uniform mode — the engines run their default policies
        (sequential, or matching on the vector engine).  In thinned mode, a
        ``state-weighted`` spec carrying the compiler's activity rates.
        """
        if self.state_rates is None:
            return None
        return SchedulerSpec(name="state-weighted", options=(("rates", self.state_rates),))

    def initial_configuration(self, population_size: int) -> Configuration:
        """The CRN's initial condition resolved at ``population_size``."""
        return self.protocol.initial_configuration(population_size)

    def to_parallel_time(self, chemical_time: float) -> float:
        """Parallel time corresponding to ``chemical_time`` (uniform mode)."""
        if not self.time_exact:
            raise SimulationError(
                "the thinned lowering has no constant chemical-time mapping; "
                "compile with mode='uniform' for time statistics"
            )
        return self.rate_scale * chemical_time

    def to_chemical_time(self, parallel_time: float) -> float:
        """Chemical time corresponding to ``parallel_time`` (uniform mode)."""
        if not self.time_exact:
            raise SimulationError(
                "the thinned lowering has no constant chemical-time mapping; "
                "compile with mode='uniform' for time statistics"
            )
        return parallel_time / self.rate_scale

    def build(
        self,
        engine: str,
        population_size: int,
        seed: int | None = None,
        **engine_options,
    ):
        """Construct ``engine`` running this CRN at ``population_size``.

        Thin wrapper over :func:`repro.engine.selection.build_engine` that
        supplies the resolved initial configuration and the lowering's
        scheduler.  The engine × scheduler compatibility matrix applies: the
        thinned lowering builds only on the count and batched engines.
        """
        from repro.engine.selection import build_engine

        return build_engine(
            engine,
            self.protocol,
            population_size,
            seed=seed,
            initial_configuration=self.initial_configuration(population_size),
            scheduler=self.scheduler_spec(),
            **engine_options,
        )


def _pair_entries(crn: CRN) -> dict[tuple[str, str], list[tuple[str, str, float]]]:
    """Expand reactions into per-ordered-pair outcome entries.

    A bimolecular reaction with written reactants ``(R1, R2)`` fires in both
    interaction orientations (``(R1, R2)`` and, when distinct, ``(R2, R1)``
    with the products reversed accordingly).  A unimolecular reaction of
    ``A`` fires whenever an ``A`` agent is the *receiver*, whatever the
    sender: one entry per ordered pair ``(A, X)`` leaving the sender
    unchanged.  Under the uniform scheduler these conventions give exactly
    the mass-action propensities of ``repro.crn.model`` after the global
    rescale (receiver-uniformity makes the unimolecular rate ``k * c(A)``).
    """
    species = crn.species()
    entries: dict[tuple[str, str], list[tuple[str, str, float]]] = {}

    def add(pair: tuple[str, str], outcome: tuple[str, str, float]) -> None:
        entries.setdefault(pair, []).append(outcome)

    for reaction in crn.reactions:
        if reaction.is_unimolecular:
            (source,), (target,) = reaction.reactants, reaction.products
            for other in species:
                add((source, other), (target, other, reaction.rate))
        else:
            (r1, r2), (p1, p2) = reaction.reactants, reaction.products
            add((r1, r2), (p1, p2, reaction.rate))
            if r1 != r2:
                add((r2, r1), (p2, p1, reaction.rate))
    return entries


def compile_crn(
    crn: CRN,
    mode: str = "uniform",
    rate_scale: float | None = None,
    inert_rate: float = _DEFAULT_INERT_RATE,
) -> CompiledCRN:
    """Lower ``crn`` to a :class:`CompiledCRN` (see the module docstring).

    Parameters
    ----------
    crn:
        The network to compile.
    mode:
        ``"uniform"`` (exact kinetics and times on every engine) or
        ``"thinned"`` (exact reaction sequence through the
        ``state-weighted`` scheduler on the count/batched engines).
    rate_scale:
        Uniform mode only: override the automatic rate scale ``Gamma`` with
        a larger value (slows simulated time but leaves the chain exact;
        useful to align time axes across several networks).
    inert_rate:
        Thinned mode only: relative activity kept by species that touch no
        reaction (must be in ``(0, 1]``).

    Raises
    ------
    SimulationError
        For an unknown mode, a ``rate_scale`` below the automatic one (the
        per-pair probabilities would exceed 1), or invalid options.
    """
    if mode not in CRN_MODES:
        raise SimulationError(
            f"unknown CRN lowering mode {mode!r}; expected one of {', '.join(CRN_MODES)}"
        )
    entries = _pair_entries(crn)
    pair_totals = {
        pair: sum(rate for _, _, rate in outcomes)
        for pair, outcomes in entries.items()
    }
    gamma = max(pair_totals.values())

    if mode == "uniform":
        if rate_scale is not None:
            if rate_scale < gamma:
                raise SimulationError(
                    f"rate_scale {rate_scale} is below the CRN's automatic rate "
                    f"scale {gamma}; per-pair probabilities would exceed 1"
                )
            gamma = float(rate_scale)
        denominator = {pair: gamma for pair in entries}
        state_rates = None
    else:
        if rate_scale is not None:
            raise SimulationError(
                "rate_scale only applies to the uniform lowering; the thinned "
                "lowering derives per-species activity rates instead"
            )
        if not 0.0 < inert_rate <= 1.0:
            raise SimulationError(f"inert_rate must be in (0, 1], got {inert_rate}")
        peak: dict[str, float] = {species: 0.0 for species in crn.species()}
        for (a, b), total in pair_totals.items():
            peak[a] = max(peak[a], total)
            peak[b] = max(peak[b], total)
        rates = {species: value ** 0.5 for species, value in peak.items()}
        floor = inert_rate * max(rates.values())
        rates = {species: max(rate, floor) for species, rate in rates.items()}
        denominator = {(a, b): rates[a] * rates[b] for (a, b) in entries}
        state_rates = tuple(sorted(rates.items()))

    transition_map: dict[tuple[str, str], tuple[RandomizedTransition, ...]] = {}
    for pair, outcomes in entries.items():
        scale = denominator[pair]
        transition_map[pair] = tuple(
            RandomizedTransition(
                receiver_out=receiver_out,
                sender_out=sender_out,
                probability=rate / scale,
            )
            for receiver_out, sender_out, rate in outcomes
        )

    protocol = CRNProtocol(crn, mode, transition_map)
    protocol.validate()
    return CompiledCRN(
        crn=crn,
        mode=mode,
        protocol=protocol,
        rate_scale=gamma,
        state_rates=state_rates,
    )
