"""Engine construction from ``FiniteStateProtocol.initial_configuration``.

The count, batched and multiscale engines start from
``protocol.initial_configuration(n)``.  Every registered workload and every
compiled CRN overrides it in ``O(states)``; an override must equal the
per-agent build ``Counter(initial_state(i) for i in range(n))`` exactly,
insertion order included, because the count engine samples states in that
order.  These tests pin that equivalence, check that a seeded run from the
override matches one from the per-agent configuration, count the
``initial_state`` calls a build makes, and check that every engine rejects
a starting configuration with a state outside the protocol.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.crn.compile import compile_crn
from repro.crn.library import CRN_WORKLOADS
from repro.crn.multiscale import _MAX_PER_AGENT_INIT, MultiscaleSimulator
from repro.engine.configuration import Configuration
from repro.engine.selection import ENGINE_NAMES, build_engine
from repro.exceptions import SimulationError
from repro.harness.parallel import WORKLOADS
from repro.protocols.base import FunctionalFiniteStateProtocol
from repro.protocols.epidemic import EpidemicProtocol
from repro.protocols.majority import ApproximateMajorityProtocol

SIZES = (2, 3, 17, 1000, 100_000)
X_FRACTIONS = (0.0, 0.3, 0.5, 0.6, 0.6180339887498949, 1.0)
#: CRNs whose initial condition is a seed plus one default species, the
#: only ones ``initial_state`` can express without knowing ``n``.
PER_AGENT_CRNS = tuple(
    name for name, workload in sorted(CRN_WORKLOADS.items())
    if len(workload.crn.fractions) == 1
)


def crn_case(name):
    return pytest.param(
        lambda: compile_crn(CRN_WORKLOADS[name].crn).protocol, id=f"crn-{name}"
    )


WORKLOAD_CASES = [
    pytest.param(WORKLOADS[name].factory, id=f"workload-{name}") for name in sorted(WORKLOADS)
]
#: Every protocol whose override is checked against the per-agent build.
CASES = (
    WORKLOAD_CASES
    + [
        pytest.param(lambda x=x: ApproximateMajorityProtocol(x_fraction=x), id=f"majority-x{x}")
        for x in X_FRACTIONS
    ]
    + [
        pytest.param(
            lambda: EpidemicProtocol(initial_infected=200_000),
            id="epidemic-sources-exceed-n",
        )
    ]
    + [crn_case(name) for name in PER_AGENT_CRNS]
)
#: Every protocol a sweep builds by name: the workloads and the library CRNs.
OVERRIDING = WORKLOAD_CASES + [crn_case(name) for name in sorted(CRN_WORKLOADS)]


def per_agent_counts(protocol, n: int) -> Counter:
    return Counter(protocol.initial_state(agent_id) for agent_id in range(n))


def test_per_agent_crns_cover_the_seeded_library():
    # epidemic, sir and leader; sir lists its seeded species second, so it
    # pins the seeds-first ordering of CRNProtocol.initial_configuration.
    assert set(PER_AGENT_CRNS) >= {"epidemic", "sir", "leader"}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("factory", CASES)
def test_override_equals_the_per_agent_counter(factory, n):
    protocol = factory()
    expected = per_agent_counts(protocol, n)
    observed = protocol.initial_configuration(n)
    assert list(observed.items()) == list(expected.items())


def test_default_is_the_per_agent_loop():
    protocol = FunctionalFiniteStateProtocol(
        ("a", "b"), {}, initial=lambda agent_id: "b" if agent_id % 3 else "a"
    )
    assert list(protocol.initial_configuration(7).items()) == [("a", 3), ("b", 4)]


@pytest.mark.parametrize("engine", ["count", "batched"])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("factory", CASES)
def test_seeded_run_matches_a_run_from_the_per_agent_configuration(factory, n, engine):
    protocol = factory()
    explicit = Configuration.from_states(
        protocol.initial_state(agent_id) for agent_id in range(n)
    )
    runs = []
    for initial_configuration in (None, explicit):
        simulator = build_engine(
            engine, protocol, n, seed=5, initial_configuration=initial_configuration
        )
        simulator.run_interactions(3 * n if engine == "batched" else min(3 * n, 3000))
        runs.append(simulator.configuration())
    assert runs[0] == runs[1]


def counting_initial_states(protocol):
    """Re-class ``protocol`` as a subclass that counts ``initial_state`` calls."""

    class Counting(type(protocol)):
        calls = 0

        def initial_state(self, agent_id):
            type(self).calls += 1
            return super().initial_state(agent_id)

    protocol.__class__ = Counting
    return protocol


@pytest.mark.parametrize("engine", ["count", "batched", "multiscale"])
@pytest.mark.parametrize("factory", OVERRIDING)
def test_count_level_builds_make_no_initial_state_calls(factory, engine):
    protocol = counting_initial_states(factory())
    simulator = build_engine(engine, protocol, 1_000_000, seed=1)
    assert type(protocol).calls == 0
    assert simulator.configuration().size == 1_000_000


def test_call_counter_sees_the_default_per_agent_build():
    protocol = counting_initial_states(
        FunctionalFiniteStateProtocol(("a", "b"), {("a", "b"): [("a", "a", 1.0)]}, "b")
    )
    build_engine("count", protocol, 1000, seed=1)
    assert type(protocol).calls == 1000


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_every_engine_rejects_a_state_outside_the_protocol(engine):
    foreign = Configuration({"I": 1, "Z": 9})
    with pytest.raises(SimulationError, match="'Z' outside the protocol's state set"):
        build_engine(engine, EpidemicProtocol(), 10, seed=1, initial_configuration=foreign)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_every_engine_rejects_a_wrongly_sized_configuration(engine):
    short = Configuration({"I": 1, "S": 8})
    with pytest.raises(SimulationError, match="size 9, expected 10"):
        build_engine(engine, EpidemicProtocol(), 10, seed=1, initial_configuration=short)


def test_multiscale_refuses_a_huge_per_agent_build():
    protocol = FunctionalFiniteStateProtocol(
        ("a", "b"), {("a", "b"): [("a", "a", 1.0)]}, initial=lambda agent_id: "b"
    )
    n = _MAX_PER_AGENT_INIT + 1
    with pytest.raises(SimulationError, match="per-agent initial_state"):
        MultiscaleSimulator(protocol, n, seed=1)
    # An explicit configuration, or an override, builds at any size.
    explicit = Configuration({"a": 1, "b": n - 1})
    assert MultiscaleSimulator(protocol, n, initial_configuration=explicit).count("a") == 1
    assert MultiscaleSimulator(EpidemicProtocol(), 10**12, seed=1).count("I") == 1
