"""Population configurations as multisets of states.

A *configuration* ``c`` (Section 2 of the paper) is a vector indexed by
states, where ``c(s)`` is the number of agents currently in state ``s``.  The
class below is a thin, validated wrapper around a ``Counter`` that adds the
operations the rest of the library needs:

* density queries (``alpha``-dense configurations are central to Theorem 4.1),
* comparison ``<=`` (used in the Dickson's-lemma argument of the
  impossibility proof), and
* application of transitions for the count-based engine.

:func:`starting_configuration` is the one place where the engines resolve
and validate the configuration they start from.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping

from repro.exceptions import ConfigurationError, SimulationError

if TYPE_CHECKING:
    from repro.protocols.base import FiniteStateProtocol


@dataclass(frozen=True)
class Configuration:
    """Immutable multiset of agent states.

    Parameters
    ----------
    counts:
        Mapping from state to its (non-negative) count.  Zero-count entries
        are dropped.
    """

    counts: Mapping[Hashable, int]

    def __post_init__(self) -> None:
        cleaned: dict[Hashable, int] = {}
        for state, count in self.counts.items():
            if not isinstance(count, int):
                raise ConfigurationError(
                    f"count of state {state!r} must be an int, got {type(count).__name__}"
                )
            if count < 0:
                raise ConfigurationError(
                    f"count of state {state!r} must be non-negative, got {count}"
                )
            if count > 0:
                cleaned[state] = count
        object.__setattr__(self, "counts", cleaned)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_states(cls, states: Iterable[Hashable]) -> "Configuration":
        """Build a configuration from an iterable of per-agent states."""
        return cls(Counter(states))

    @classmethod
    def uniform(cls, state: Hashable, n: int) -> "Configuration":
        """The all-identical configuration with ``n`` agents in ``state``."""
        if n <= 0:
            raise ConfigurationError(f"population size must be positive, got {n}")
        return cls({state: n})

    # -- basic queries ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Total number of agents ``n = ||c||``."""
        return sum(self.counts.values())

    def count(self, state: Hashable) -> int:
        """Count of ``state`` (0 if absent)."""
        return self.counts.get(state, 0)

    def states_present(self) -> frozenset[Hashable]:
        """The set of states with positive count."""
        return frozenset(self.counts)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.counts)

    def __len__(self) -> int:
        """Number of *distinct* states present."""
        return len(self.counts)

    def items(self) -> Iterator[tuple[Hashable, int]]:
        """Iterate over ``(state, count)`` pairs."""
        return iter(self.counts.items())

    # -- density (Section 4) ---------------------------------------------------

    def is_alpha_dense(self, alpha: float) -> bool:
        """Return ``True`` if every state present has count ``>= alpha * n``.

        This is the paper's definition of an ``alpha``-dense configuration;
        in particular a configuration containing a state of count 1 (a
        leader) is not ``alpha``-dense for any ``alpha > 1/n``.
        """
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        threshold = alpha * self.size
        return all(count >= threshold for count in self.counts.values())

    def density_floor(self) -> float:
        """Return the largest ``alpha`` for which this configuration is dense.

        Equal to ``min_s c(s) / n`` over states present.
        """
        if not self.counts:
            raise ConfigurationError("empty configuration has no density floor")
        return min(self.counts.values()) / self.size

    # -- ordering / arithmetic -------------------------------------------------

    def __le__(self, other: "Configuration") -> bool:
        """Pointwise comparison: ``self <= other`` iff every count is <=.

        This is the partial order used with Dickson's lemma in the proof of
        Theorem 4.1 (an infinite sequence of configurations has an infinite
        nondecreasing subsequence).
        """
        return all(other.count(state) >= count for state, count in self.counts.items())

    def __add__(self, other: "Configuration") -> "Configuration":
        merged = Counter(self.counts)
        merged.update(other.counts)
        return Configuration(merged)

    def scale(self, factor: int) -> "Configuration":
        """Return the configuration with every count multiplied by ``factor``.

        Used to build the growing sequence of dense initial configurations in
        the termination experiments.
        """
        if factor <= 0:
            raise ConfigurationError(f"scale factor must be positive, got {factor}")
        return Configuration({state: count * factor for state, count in self.counts.items()})

    # -- transition application (count-based engine) ---------------------------

    def apply_transition(
        self,
        receiver_in: Hashable,
        sender_in: Hashable,
        receiver_out: Hashable,
        sender_out: Hashable,
    ) -> "Configuration":
        """Return the configuration after one interaction.

        Raises
        ------
        ConfigurationError
            If the input states are not available in sufficient count (two
            copies are needed when ``receiver_in == sender_in``).
        """
        needed = Counter([receiver_in, sender_in])
        for state, required in needed.items():
            if self.count(state) < required:
                raise ConfigurationError(
                    f"cannot apply transition: need {required} agent(s) in state "
                    f"{state!r} but only {self.count(state)} present"
                )
        updated = Counter(self.counts)
        updated[receiver_in] -= 1
        updated[sender_in] -= 1
        updated[receiver_out] += 1
        updated[sender_out] += 1
        return Configuration(updated)

    # -- misc -------------------------------------------------------------------

    def to_counter(self) -> Counter:
        """Return a mutable ``Counter`` copy of the counts."""
        return Counter(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{state!r}: {count}" for state, count in sorted(
            self.counts.items(), key=lambda item: repr(item[0])
        ))
        return f"Configuration({{{inner}}})"


def starting_configuration(
    protocol: "FiniteStateProtocol",
    population_size: int,
    initial_configuration: Configuration | None = None,
) -> Configuration:
    """The validated configuration an engine for ``protocol`` starts from.

    ``initial_configuration`` when given, else
    ``protocol.initial_configuration(population_size)``.

    Raises
    ------
    SimulationError
        If the configuration does not hold exactly ``population_size``
        agents, or holds a state outside ``protocol.states()``.
    """
    if initial_configuration is None:
        initial_configuration = protocol.initial_configuration(population_size)
    if initial_configuration.size != population_size:
        raise SimulationError(
            f"initial configuration has size {initial_configuration.size}, "
            f"expected {population_size}"
        )
    known = set(protocol.states())
    for state in initial_configuration:
        if state not in known:
            raise SimulationError(
                f"initial configuration contains state {state!r} outside "
                f"the protocol's state set"
            )
    return initial_configuration
