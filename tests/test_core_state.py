"""Tests for GSU agent states, constructors and the seniority order."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.state import (
    GSUAgentState,
    coin_state,
    deactivated_state,
    inhibitor_state,
    intermediate_state,
    is_active_leader,
    is_alive_leader,
    leader_state,
    seniority_key,
    zero_state,
)
from repro.types import CoinMode, Elevation, Flip, LeaderMode, Role


def test_states_are_frozen_and_hashable():
    state = leader_state(cnt=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.cnt = 4  # type: ignore[misc]
    assert hash(state) == hash(leader_state(cnt=3))


def test_constructors_set_roles():
    assert zero_state().role == Role.ZERO
    assert intermediate_state().role == Role.X
    assert deactivated_state().role == Role.DEACTIVATED
    assert coin_state().role == Role.COIN
    assert inhibitor_state().role == Role.INHIBITOR
    assert leader_state().role == Role.LEADER


def test_constructors_keep_irrelevant_fields_canonical():
    # A coin constructed at any phase/level must not carry leader fields.
    coin = coin_state(phase=3, level=2, mode=CoinMode.STOPPED)
    default = GSUAgentState()
    assert coin.cnt == default.cnt
    assert coin.flip == default.flip
    assert coin.drag == default.drag
    # An inhibitor must not carry coin or leader fields.
    inhibitor = inhibitor_state(phase=1, drag=2)
    assert inhibitor.level == default.level
    assert inhibitor.cnt == default.cnt


def test_with_phase_returns_same_object_when_unchanged():
    state = coin_state(phase=5)
    assert state.with_phase(5) is state
    assert state.with_phase(6).phase == 6


@pytest.mark.parametrize(
    "state, changes",
    [
        (zero_state(phase=2), {"phase": 7}),
        (coin_state(phase=1, level=2), {"level": 3, "coin_mode": CoinMode.STOPPED}),
        (inhibitor_state(drag=1), {"elevation": Elevation.HIGH, "phase": 0}),
        (leader_state(cnt=4), {"flip": Flip.HEADS, "void": False, "cnt": 3}),
        (leader_state(), {}),
    ],
)
def test_copies_match_dataclasses_replace(state, changes):
    """with_phase/evolve bypass dataclasses.replace; the copies must be
    indistinguishable from replace()'s for the store and checkpoints:
    equality, hash, repr and pickle bytes at every protocol."""
    import pickle

    copies = [state.evolve(**changes)]
    if set(changes) == {"phase"}:
        copies.append(state.with_phase(changes["phase"]))
    expected = dataclasses.replace(state, **changes)
    for copy in copies:
        assert type(copy) is GSUAgentState
        assert copy == expected
        assert hash(copy) == hash(expected)
        assert repr(copy) == repr(expected)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(copy, protocol) == pickle.dumps(expected, protocol)
        assert pickle.loads(pickle.dumps(copy)) == expected
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.phase = 1  # type: ignore[misc]


def test_evolve_rejects_unknown_fields():
    with pytest.raises(TypeError, match="colour"):
        leader_state().evolve(colour=1)


def test_evolve_changes_only_named_fields():
    state = leader_state(cnt=4, flip=Flip.NONE)
    evolved = state.evolve(flip=Flip.HEADS, void=False)
    assert evolved.flip == Flip.HEADS
    assert evolved.void is False
    assert evolved.cnt == 4
    assert evolved.role == Role.LEADER


def test_role_predicates():
    assert coin_state().is_coin
    assert inhibitor_state().is_inhibitor
    assert leader_state().is_leader_candidate
    assert zero_state().is_uninitialised
    assert intermediate_state().is_uninitialised
    assert not leader_state().is_uninitialised


def test_is_junta_requires_top_level_coin():
    assert coin_state(level=2).is_junta(phi=2)
    assert not coin_state(level=1).is_junta(phi=2)
    assert not leader_state().is_junta(phi=0)


def test_alive_and_active_predicates():
    assert is_alive_leader(leader_state(mode=LeaderMode.ACTIVE))
    assert is_alive_leader(leader_state(mode=LeaderMode.PASSIVE))
    assert not is_alive_leader(leader_state(mode=LeaderMode.WITHDRAWN))
    assert not is_alive_leader(coin_state())
    assert is_active_leader(leader_state(mode=LeaderMode.ACTIVE))
    assert not is_active_leader(leader_state(mode=LeaderMode.PASSIVE))


def test_describe_mentions_role_specific_fields():
    assert "level" in coin_state(level=1).describe()
    assert "drag" in inhibitor_state(drag=2).describe()
    assert "cnt" in leader_state(cnt=3).describe()
    assert "ZERO" in zero_state().describe()


# ----------------------------------------------------------------------
# Seniority order (rule 11 tie-breaking)
# ----------------------------------------------------------------------
def test_seniority_prefers_higher_drag():
    low = leader_state(mode=LeaderMode.ACTIVE, drag=0)
    high = leader_state(mode=LeaderMode.PASSIVE, drag=2)
    assert seniority_key(high) > seniority_key(low)


def test_seniority_active_beats_passive_at_equal_drag():
    active = leader_state(mode=LeaderMode.ACTIVE, drag=1)
    passive = leader_state(mode=LeaderMode.PASSIVE, drag=1)
    assert seniority_key(active) > seniority_key(passive)


def test_seniority_smaller_cnt_wins():
    ahead = leader_state(mode=LeaderMode.ACTIVE, cnt=1)
    behind = leader_state(mode=LeaderMode.ACTIVE, cnt=4)
    assert seniority_key(ahead) > seniority_key(behind)


def test_seniority_heads_beats_none_beats_tails():
    heads = leader_state(flip=Flip.HEADS)
    none = leader_state(flip=Flip.NONE)
    tails = leader_state(flip=Flip.TAILS)
    assert seniority_key(heads) > seniority_key(none) > seniority_key(tails)


def test_seniority_equal_states_have_equal_keys():
    a = leader_state(mode=LeaderMode.PASSIVE, cnt=2, flip=Flip.TAILS, drag=1)
    b = leader_state(mode=LeaderMode.PASSIVE, cnt=2, flip=Flip.TAILS, drag=1)
    assert seniority_key(a) == seniority_key(b)
