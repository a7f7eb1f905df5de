"""Reachable-state closure of a population protocol, with its transition table.

:func:`reachable_closure` runs a breadth-first fixpoint over a protocol's
deterministic transition function: starting from the initial states, every
ordered pair of known states is evaluated and any state that appears on the
right-hand side of a rule joins the frontier, until no new state appears.
The result is the exact set of states that can *ever* occur in any execution
from the given initial states — finite whenever every state field is bounded
for the protocol's fixed parameters.

This is what lets a protocol with a structured, role-guarded state space
(the GSU19 headline protocol: phase below the clock modulus, level/drag/cnt
capped by ``Φ``/``Ψ``) declare a finite
:meth:`~repro.engine.protocol.PopulationProtocol.canonical_states` and
become eligible for the configuration-space engines, whose memory is
``O(k)`` in the closure size instead of ``O(n)`` in the population.

The BFS works on a :class:`PhaseFactoring` of the transition: a state is a
clock phase plus a phase-free *part*, phases come from Γ×Γ arrays, and the
rules run once per distinct ``(responder part, initiator part, clock
qualifier)`` triple, memoised; each layer is a few NumPy gathers.  GSU19's
1,348 states at ``Γ=24, Φ=1, Ψ=3`` have 63 parts and 13,432 triples, so its
BFS takes about 0.7 s on a 2-CPU host instead of 1.8M transition calls
(GS18, the same shape through
:class:`~repro.clocks.phase_clock.PhaseClockedProtocol`, closes 1,555
states at ``Γ=24, Φ=4``).  A plain transition is the one-phase case.  A
second pass fills the dense ``(K, K)`` ``int64`` table of ``(r' << 32) |
i'`` (the packed layout of :class:`~repro.engine.table.TransitionTable`,
which adopts it through
:meth:`~repro.engine.protocol.PopulationProtocol.state_closure` and starts
fully compiled), and a fixed sample of it is re-checked against the scalar
transition.  :func:`reachable_states` is the states-only view.

The discovery order is deterministic (BFS layers; within a layer, first
occurrence over the frontier's pairs, forward then backward), so state-
identifier layout — and therefore the trajectories of the count-based
engines, which sample by identifier order — is reproducible across runs
and machines.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ProtocolError
from repro.types import State, TransitionResult

__all__ = ["PhaseFactoring", "reachable_closure", "reachable_states"]

#: Default guard against protocols whose state space is effectively unbounded
#: (a closure this large would also be useless to the count engines).
_DEFAULT_MAX_STATES = 100_000

#: Pairs per NumPy block (bounds the BFS's temporaries).
_BLOCK = 1 << 16

#: Minimum number of LUT entries re-checked against the scalar transition.
_SPOT_CHECKS = 4096


class PhaseFactoring(NamedTuple):
    """A transition as a responder-only phase clock plus phase-blind rules.

    A state is ``join(phase, part)``, and ``split(state) == (phase, part,
    junta)``.  The responder's phase becomes ``advance[r_phase, i_phase,
    r_junta]``, the initiator's stays, and ``rules(r_part, i_part,
    qualifier[r_phase, new_phase])`` gives the two new parts.  The rules
    must neither read nor change a phase.
    """

    advance: np.ndarray
    qualifier: np.ndarray
    split: Callable[[State], Tuple[int, State, bool]]
    join: Callable[[int, State], State]
    rules: Callable[[State, State, int], TransitionResult]


def reachable_closure(
    transition: Callable[[State, State], TransitionResult],
    seeds: Iterable[State],
    *,
    max_states: int = _DEFAULT_MAX_STATES,
    factoring: Optional[PhaseFactoring] = None,
) -> Tuple[List[State], np.ndarray]:
    """All states reachable from ``seeds``, and the transition table over them.

    Parameters
    ----------
    transition:
        The protocol's deterministic ``(responder, initiator) ->
        (responder', initiator')`` function.  It is called on state objects
        directly (no encoder involved), so the closure can be computed before
        any :class:`~repro.engine.table.TransitionTable` exists — in
        particular from inside ``canonical_states`` itself.
    seeds:
        The initial states (for a uniform start, a single state).
    max_states:
        Hard cap on the closure size; exceeding it raises
        :class:`~repro.errors.ProtocolError` instead of running away on a
        protocol whose state space is unbounded in ``n``.
    factoring:
        ``transition`` as a phase clock plus phase-blind rules, which the
        BFS evaluates instead (by default the one-phase factoring: every
        state is its own part, so the memo is a second ``(K, K)`` array and
        the peak is about twice the table's).  A sample of the finished
        table is checked against ``transition``; a mismatch raises
        :class:`~repro.errors.ProtocolError` naming the pair.

    Returns
    -------
    (states, lut)
        ``states`` is the closure in deterministic BFS discovery order,
        seeds first; a state's identifier is its index.  ``lut`` is a
        read-only ``(K, K)`` ``int64`` array with ``lut[r, i] == (r' << 32)
        | i'`` for ``transition(states[r], states[i]) == (states[r'],
        states[i'])``.
    """
    advance, qualifier, split, join, rules = factoring or PhaseFactoring(
        np.zeros((1, 1, 2), dtype=np.intp),
        np.zeros((1, 1), dtype=np.intp),
        lambda state: (0, state, False),
        lambda phase, part: part,
        lambda responder, initiator, context: transition(responder, initiator),
    )
    gamma, contexts = len(advance), int(qualifier.max()) + 1
    part_ids: dict = {}
    parts, junta, states, phases, owners = [], [], [], [], []
    # A state's code is part * gamma + phase, owners[id] its part; ids[code]
    # is its identifier, or -1.  memo[r_part, i_part, q] is (r_part' << 32)
    # | i_part', or -1 until the rules ran on that triple.
    ids = np.zeros(0, dtype=np.int64)
    memo = np.full((0, 0, contexts), -1, dtype=np.int64)

    def check_size(count: int) -> None:
        if count > max_states:
            raise ProtocolError(
                f"reachable-state closure exceeded {max_states} states; the "
                "protocol's state space looks unbounded for these parameters "
                "(raise max_states if this is intentional)"
            )

    def code_of(state: State) -> int:
        nonlocal ids
        phase, part, is_junta = split(state)
        pid = part_ids.setdefault(part, len(parts))
        if pid == len(parts):
            # Every part is in some reachable state: check before the memo grows.
            check_size(pid + 1)
            parts.append(part)
            junta.append(is_junta)
            if len(ids) < len(parts) * gamma:
                ids = np.concatenate([ids, np.full(len(ids) + gamma, -1, np.int64)])
        return pid * gamma + phase

    def register(codes: Iterable[int]) -> None:
        for code in codes:
            pid, phase = divmod(code, gamma)
            ids[code] = len(states)
            states.append(join(phase, parts[pid]))
            phases.append(phase)
            owners.append(pid)
        check_size(len(states))

    def evaluate(responders: np.ndarray, initiators: np.ndarray):
        """Codes of ``δ(responders, initiators)`` (broadcast id arrays)."""
        nonlocal memo
        if len(memo) < len(parts):
            # Exact size: for a plain transition the memo is (K, K), like the LUT.
            grown = np.full((len(parts),) * 2 + (contexts,), -1, np.int64)
            grown[: len(memo), : len(memo)] = memo
            memo = grown
        state_phase = np.array(phases, dtype=np.intp)
        state_part = np.array(owners, dtype=np.intp)
        r_phase, i_phase = state_phase[responders], state_phase[initiators]
        r_part, i_part = state_part[responders], state_part[initiators]
        new_phase = advance[r_phase, i_phase, np.array(junta, dtype=np.intp)[r_part]]
        stride = len(memo)
        keys = (r_part * stride + i_part) * contexts + qualifier[r_phase, new_phase]
        flat = memo.reshape(-1)
        packed = flat[keys]
        missing = packed < 0
        if missing.any():
            for key in np.unique(keys[missing]).tolist():
                pair, context = divmod(key, contexts)
                responder, initiator = parts[pair // stride], parts[pair % stride]
                new_r, new_i = rules(responder, initiator, context)
                flat[key] = (code_of(new_r) // gamma << 32) | code_of(new_i) // gamma
            packed = flat[keys]
        return (
            (packed >> 32) * gamma + new_phase,
            (packed & 0xFFFFFFFF) * gamma + i_phase,
        )

    register(dict.fromkeys([code_of(seed) for seed in seeds]))
    if not states:
        raise ProtocolError("reachable_states needs at least one seed state")
    lo, hi = 0, len(states)
    while lo < hi:
        # Each fresh f in lo..hi-1 meets every o in 0..hi-1, forward δ(f, o)
        # then backward δ(o, f); new states take ids in first occurrence.
        others = np.arange(hi)[None, :]
        rows = max(1, _BLOCK // hi)
        for start in range(lo, hi, rows):
            fresh = np.arange(start, min(start + rows, hi))[:, None]
            codes = np.stack(
                evaluate(fresh, others) + evaluate(others, fresh), axis=-1
            ).reshape(-1)
            codes = codes[ids[codes] < 0]
            unique, first = np.unique(codes, return_index=True)
            register(unique[np.argsort(first)].tolist())
        lo, hi = hi, len(states)

    # Second pass: every ordered pair is in the memo now.
    size = len(states)
    lut = np.empty((size, size), dtype=np.int64)
    rows = max(1, _BLOCK // size)
    for start in range(0, size, rows):
        block = np.arange(start, min(start + rows, size))[:, None]
        responders, initiators = evaluate(block, np.arange(size)[None, :])
        lut[start : start + rows] = (ids[responders] << 32) | ids[initiators]
    lut.flags.writeable = False

    # The diagonal plus a fixed stride, against the scalar transition.
    index = {state: sid for sid, state in enumerate(states)}
    step = max(1, size * size // _SPOT_CHECKS)
    sample = np.union1d(np.arange(size) * (size + 1), np.arange(0, size * size, step))
    for r, i in zip(*np.divmod(sample, size)):
        new_r, new_i = transition(states[r], states[i])
        if lut[r, i] != (index.get(new_r, -1) << 32) | index.get(new_i, -1):
            raise ProtocolError(
                f"closure LUT disagrees with the transition at ({states[r]!r}, "
                f"{states[i]!r}): the phase factoring does not hold"
            )
    return states, lut


def reachable_states(
    transition: Callable[[State, State], TransitionResult],
    seeds: Iterable[State],
    *,
    max_states: int = _DEFAULT_MAX_STATES,
) -> List[State]:
    """All states reachable from ``seeds`` under pairwise interactions.

    The states of :func:`reachable_closure` (same parameters, same BFS
    discovery order, seeds first), without its transition table.
    """
    return reachable_closure(transition, seeds, max_states=max_states)[0]
