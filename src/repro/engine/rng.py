"""Random-number-generation helpers.

All stochastic components of the library accept either an integer seed or an
already constructed :class:`numpy.random.Generator`; :func:`make_rng`
normalises both.  :func:`spawn_seeds` derives independent child seeds for
multi-seed experiment sweeps in a reproducible way (via NumPy's
``SeedSequence`` spawning), so that experiment results are a pure function of
the top-level seed.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

__all__ = [
    "RngLike",
    "make_rng",
    "spawn_seeds",
    "rng_state",
    "restore_rng_state",
    "DEFAULT_SEED",
]

RngLike = Union[int, np.random.Generator, np.random.SeedSequence, None]

#: Seed used when the caller does not provide one; keeping it fixed makes
#: "no arguments" runs reproducible, which is friendlier for a reproduction
#: artefact than silent nondeterminism.
DEFAULT_SEED = 0xC0FFEE


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed-like value.

    ``None`` maps to :data:`DEFAULT_SEED`, an existing generator is returned
    unchanged, and integers / ``SeedSequence`` objects are fed to the PCG64
    bit generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def rng_state(generator: np.random.Generator) -> dict:
    """Serialisable state of ``generator``'s underlying bit generator.

    The returned dictionary (NumPy's documented bit-generator state format,
    plain integers and strings) pins the generator's position in its stream
    exactly; feeding it to :func:`restore_rng_state` resumes the stream so
    that every subsequent draw is identical.  This is the RNG half of the
    engines' bit-exact :meth:`~repro.engine.base.BaseEngine.snapshot` API.
    """
    return generator.bit_generator.state


def restore_rng_state(generator: np.random.Generator, state: dict) -> None:
    """Rewind ``generator`` to a state captured by :func:`rng_state`.

    The generator must wrap the same bit-generator type the state was taken
    from (PCG64 for every generator built by :func:`make_rng`); a mismatch
    raises :class:`~repro.errors.CheckpointError` rather than silently
    producing a different stream.
    """
    from repro.errors import CheckpointError

    expected = type(generator.bit_generator).__name__
    recorded = state.get("bit_generator")
    if recorded != expected:
        raise CheckpointError(
            f"cannot restore a {recorded!r} bit-generator state into a "
            f"generator backed by {expected!r}"
        )
    generator.bit_generator.state = state


def spawn_seeds(base_seed: int, count: int) -> List[int]:
    """Derive ``count`` independent 32-bit child seeds from ``base_seed``.

    The derivation uses ``SeedSequence.spawn`` so the children are
    statistically independent and stable across platforms and numpy versions.

    The derivation is also **prefix-stable**: child ``i`` depends only on
    ``(base_seed, i)``, never on ``count``, so
    ``spawn_seeds(s, k) == spawn_seeds(s, m)[:k]`` for ``k <= m``.  The
    sweep scheduler deals the seeds out size-major and leans on this: a
    sweep grown by appending sizes reuses every stored cell of the smaller
    sweep, and one grown by adding repetitions does so only when it has a
    single size (in a multi-size sweep the later sizes' seeds shift).  Each seed
    is one independent run; seeds run in parallel only through the sweep's
    ``workers=`` pool.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    sequence = np.random.SeedSequence(base_seed)
    children = sequence.spawn(count)
    return [int(child.generate_state(1, dtype=np.uint32)[0]) for child in children]
