"""Tests for the protocol base class and :class:`ProtocolSpec`."""

from __future__ import annotations

import pytest

from repro.engine.protocol import (
    FOLLOWER_OUTPUT,
    LEADER_OUTPUT,
    PopulationProtocol,
    ProtocolSpec,
)
from repro.errors import ProtocolError


def _two_state_spec() -> ProtocolSpec:
    return ProtocolSpec(
        name="spec-slow",
        initial="L",
        rules=lambda r, i: ("F", "L") if (r == "L" and i == "L") else (r, i),
        outputs=lambda s: LEADER_OUTPUT if s == "L" else FOLLOWER_OUTPUT,
        states=["L", "F"],
    )


def test_spec_requires_rules_and_outputs():
    with pytest.raises(ProtocolError):
        ProtocolSpec(name="broken", initial="x", rules=None, outputs=lambda s: "F")
    with pytest.raises(ProtocolError):
        ProtocolSpec(name="broken", initial="x", rules=lambda r, i: (r, i), outputs=None)


def test_spec_initial_configuration_replicates_initial_state():
    spec = _two_state_spec()
    configuration = spec.initial_configuration(5)
    assert list(configuration) == ["L"] * 5


def test_spec_transition_and_output():
    spec = _two_state_spec()
    assert spec.transition("L", "L") == ("F", "L")
    assert spec.transition("F", "L") == ("F", "L")
    assert spec.output("L") == LEADER_OUTPUT
    assert spec.is_leader("L")
    assert not spec.is_leader("F")


def test_spec_state_closure():
    spec = _two_state_spec()
    states, lut = spec.state_closure()
    assert states == ("L", "F")
    assert lut.shape == (2, 2)
    assert spec.state_closure()[1] is lut


def test_spec_with_configuration_factory():
    spec = ProtocolSpec(
        name="one-source",
        rules=lambda r, i: (i, i) if i == "hot" else (r, i),
        outputs=lambda s: FOLLOWER_OUTPUT,
        configuration_factory=lambda n: ["hot"] + ["cold"] * (n - 1),
    )
    configuration = spec.initial_configuration(4)
    assert list(configuration) == ["hot", "cold", "cold", "cold"]
    with pytest.raises(ProtocolError):
        spec.initial_state(4)


def test_validate_configuration_rejects_wrong_length():
    spec = _two_state_spec()
    with pytest.raises(ProtocolError):
        spec.validate_configuration(["L"] * 3, 4)


def test_default_describe_state_is_repr():
    spec = _two_state_spec()
    assert spec.describe_state("L") == repr("L")


def test_population_protocol_is_abstract():
    with pytest.raises(TypeError):
        PopulationProtocol()  # type: ignore[abstract]
