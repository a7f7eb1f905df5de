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

Because the fixpoint evaluates every ordered pair of closure states anyway,
it keeps the results: each state gets its identifier when it is discovered,
and each evaluated pair's ``(r' << 32) | i'`` goes into a dense ``(K, K)``
``int64`` table in the packed layout of
:class:`~repro.engine.table.TransitionTable`.  A table that registers the
closure in this order adopts that array as its packed LUT and starts fully
compiled (:meth:`~repro.engine.protocol.PopulationProtocol.canonical_transitions`).
:func:`reachable_states` is the states-only view of the same BFS.

The discovery order is deterministic (BFS layers, insertion-ordered within a
layer), so state-identifier layout — and therefore the trajectories of the
count-based engines, which sample by identifier order — is reproducible
across runs and machines.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, List, Tuple

import numpy as np

from repro.errors import ProtocolError
from repro.types import State, TransitionResult

__all__ = ["reachable_closure", "reachable_states"]

#: Default guard against protocols whose state space is effectively unbounded
#: (a closure this large would also be useless to the count engines).
_DEFAULT_MAX_STATES = 100_000


def reachable_closure(
    transition: Callable[[State, State], TransitionResult],
    seeds: Iterable[State],
    *,
    max_states: int = _DEFAULT_MAX_STATES,
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

    Returns
    -------
    (states, lut)
        ``states`` is the closure in deterministic BFS discovery order,
        seeds first; a state's identifier is its index.  ``lut`` is a
        read-only ``(K, K)`` ``int64`` array with ``lut[r, i] == (r' << 32)
        | i'`` for ``transition(states[r], states[i]) == (states[r'],
        states[i'])``.

    Notes
    -----
    Every ordered pair of reachable states is evaluated at least once (at
    most twice), so the cost is ``Θ(K²)`` transition calls for a closure of
    size ``K`` — a one-time cost per parameterisation, which callers should
    cache (the GSU19 protocol caches per ``(gamma, phi, psi)``).  Each BFS
    layer pairs its frontier (ids ``lo..hi-1``) with every state known so
    far (ids ``0..hi-1``) in both roles and records the results in two
    ``array('q')`` blocks, scattered into the ``(K, K)`` table at the end.
    """
    ids: dict = {}
    for seed in seeds:
        ids.setdefault(seed, len(ids))
    if not ids:
        raise ProtocolError("reachable_states needs at least one seed state")
    states: List[State] = list(ids)
    overflow = ProtocolError(
        f"reachable-state closure exceeded {max_states} states; the "
        "protocol's state space looks unbounded for these parameters "
        "(raise max_states if this is intentional)"
    )
    if len(states) > max_states:
        raise overflow

    def discover(state: State) -> int:
        sid = len(states)
        # Checked per discovery, not per layer: a slowly growing unbounded
        # space must abort promptly, not after Θ(max_states²) calls.
        if sid >= max_states:
            raise overflow
        ids[state] = sid
        states.append(state)
        return sid

    lookup = ids.get
    layers = []
    lo, hi = 0, len(states)
    while lo < hi:
        # forward[f, o] = δ(fresh f, other o); backward[f, o] = δ(o, f).
        forward = array("q")
        backward = array("q")
        snapshot = states[:hi]
        for fresh in states[lo:hi]:
            for other in snapshot:
                responder, initiator = transition(fresh, other)
                r = lookup(responder)
                if r is None:
                    r = discover(responder)
                i = lookup(initiator)
                if i is None:
                    i = discover(initiator)
                forward.append((r << 32) | i)
                responder, initiator = transition(other, fresh)
                r = lookup(responder)
                if r is None:
                    r = discover(responder)
                i = lookup(initiator)
                if i is None:
                    i = discover(initiator)
                backward.append((r << 32) | i)
        layers.append((lo, hi, forward, backward))
        lo, hi = hi, len(states)

    size = len(states)
    lut = np.empty((size, size), dtype=np.int64)
    while layers:
        # Popped so each block is freed once scattered (pairs recorded in
        # two layers' blocks hold equal entries, so the order is free).
        lo, hi, forward, backward = layers.pop()
        lut[lo:hi, :hi] = np.frombuffer(forward, dtype=np.int64).reshape(hi - lo, hi)
        lut[:hi, lo:hi] = np.frombuffer(backward, dtype=np.int64).reshape(hi - lo, hi).T
    lut.flags.writeable = False
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
