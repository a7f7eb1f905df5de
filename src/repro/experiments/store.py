"""On-disk experiment store: content-addressed caching of completed runs.

The store makes sweeps **resumable at cell granularity**.  A *cell* is one
``(protocol, n, seed, engine, convergence, budget)`` combination — exactly
the inputs that determine a :class:`~repro.engine.simulation.RunResult` —
and its key is the SHA-256 of the canonical JSON rendering of those inputs
(the protocol contributes its
:meth:`~repro.engine.protocol.PopulationProtocol.fingerprint`).  Completed
cells are written as small JSON files under ``<store>/cells/``;
:func:`repro.engine.parallel.run_many` consults the store before running a
cell and **streams every completed cell in as it finishes** (completion
order, not submission order — the sweep scheduler records each cell the
moment its future resolves), so an interrupted 45-minute sweep loses at
most the cells in flight and a restart with the same arguments redoes
none of the finished work.  Cell keys are independent of how the
scheduler executed the cell: serial and multi-process runs, on a fresh or
a shared table, produce the same key and the same result, so stores
written by either mode resume the other.

The registry layer caches at coarser granularity: a full
:class:`~repro.experiments.runner.ExperimentResult` keyed by
``(experiment name, configuration)`` lands under ``<store>/experiments/``,
which is what the CLI's ``--store DIR --resume`` flags use to skip whole
completed experiments on a rerun.

All writes are atomic (write-replace through
:func:`repro.experiments.io.atomic_write_text`), so a crash can only lose
the cell in flight, never corrupt the store; a write that fails (a full
disk, a missing permission) raises :class:`~repro.errors.ExperimentError`
naming the record file.  Keys are *conservative*: any
input difference — another seed, another engine spec, a different budget —
changes the key, so the store can return stale results only if two
genuinely different protocols produce equal fingerprints (see
``fingerprint`` for the one documented caveat around ad-hoc callables).

State keys in a stored ``final_counts`` round-trip **unchanged for string
states** (the common case: ``"informed"``, ``"L"`` …), so cached and fresh
cells aggregate identically; non-string states (tuples, dataclasses) are
serialised as their ``repr`` strings, and a loaded :class:`RunResult` then
carries ``{repr(state): count}``.  Output counts, the fields every
experiment aggregates, always round-trip unchanged.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Union

from repro.engine.simulation import RunResult
from repro.errors import ExperimentError
from repro.experiments.io import (
    atomic_write_text,
    jsonable,
    result_from_jsonable,
    result_to_jsonable,
)
from repro.experiments.runner import ExperimentResult

__all__ = ["ExperimentStore", "content_key", "canonical_engine_spec"]

#: Format tags written into every store record.
_CELL_FORMAT = "repro-store-cell"
_EXPERIMENT_FORMAT = "repro-store-experiment"
_STORE_VERSION = 1


def content_key(inputs: dict) -> str:
    """SHA-256 over the canonical JSON rendering of ``inputs``.

    ``inputs`` is first coerced to plain data (:func:`jsonable`), then
    serialised with sorted keys and no insignificant whitespace, so the key
    is independent of dictionary ordering and Python version.
    """
    canonical = json.dumps(
        jsonable(inputs), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def canonical_engine_spec(engine) -> str:
    """Stable string form of an engine specification for cell keys.

    Names pass through lower-cased, ``None`` maps to the default
    (``"sequential"``), and classes render as ``module.QualName``.  Note
    that ``"auto"`` is kept as-is: the dispatch *policy* is part of the
    cell identity (a rerun on a machine where ``auto`` resolves
    differently still reuses the cell, which is sound because every
    auto-dispatchable engine is exact).
    """
    if engine is None:
        return "sequential"
    if isinstance(engine, str):
        return engine.lower()
    if isinstance(engine, type):
        return f"{engine.__module__}.{engine.__qualname__}"
    raise ExperimentError(
        f"cannot canonicalise engine specification {engine!r} for the store"
    )


def _state_key(state) -> object:
    """Serialisable form of a state used as a ``final_counts`` key.

    String states — the common case across the baseline protocols — are
    stored as themselves so cached and freshly computed results are
    indistinguishable; anything richer (tuples, dataclasses) falls back to
    ``repr``, which is the documented loaded-record form.
    """
    return state if isinstance(state, str) else repr(state)


def _result_to_record(result: RunResult) -> dict:
    return {
        "protocol_name": result.protocol_name,
        "n": result.n,
        "seed": result.seed,
        "converged": result.converged,
        "interactions": result.interactions,
        "parallel_time": result.parallel_time,
        "states_used": result.states_used,
        "final_counts": [
            [_state_key(state), count] for state, count in result.final_counts.items()
        ],
        "final_outputs": dict(result.final_outputs),
        "wall_clock_seconds": result.wall_clock_seconds,
        "metadata": jsonable(result.metadata),
    }


def _result_from_record(record: dict) -> RunResult:
    return RunResult(
        protocol_name=record["protocol_name"],
        n=int(record["n"]),
        seed=record["seed"],
        converged=bool(record["converged"]),
        interactions=int(record["interactions"]),
        parallel_time=float(record["parallel_time"]),
        states_used=int(record["states_used"]),
        final_counts={state: int(count) for state, count in record["final_counts"]},
        final_outputs={
            symbol: int(count) for symbol, count in record["final_outputs"].items()
        },
        wall_clock_seconds=float(record.get("wall_clock_seconds", 0.0)),
        metadata=dict(record.get("metadata", {})),
    )


class ExperimentStore:
    """Content-addressed on-disk cache of completed runs and experiments.

    Parameters
    ----------
    directory:
        Root of the store; created on first write.  Layout::

            <directory>/cells/<key>.json          one RunResult per file
            <directory>/experiments/<key>.json    one ExperimentResult per file

    The instance keeps simple counters (``loaded``/``stored``) so drivers
    and tests can assert how much work a resumed sweep actually skipped.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.loaded = 0
        self.stored = 0

    @classmethod
    def ensure(
        cls, store: Union["ExperimentStore", str, Path, None]
    ) -> Optional["ExperimentStore"]:
        """Normalise ``store`` arguments: path-likes become stores, ``None``
        passes through."""
        if store is None or isinstance(store, cls):
            return store
        return cls(store)

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def cell_inputs(
        self,
        protocol,
        n: int,
        seed,
        *,
        engine=None,
        convergence: Optional[str] = None,
        max_parallel_time: float,
        extra: Optional[dict] = None,
    ) -> dict:
        """The canonical input dictionary identifying one sweep cell."""
        inputs = {
            "kind": "run-cell",
            "protocol": protocol.fingerprint(),
            "n": int(n),
            "seed": seed,
            "engine": canonical_engine_spec(engine),
            "convergence": convergence if convergence is not None else "default",
            "max_parallel_time": float(max_parallel_time),
        }
        if extra:
            inputs["extra"] = extra
        return inputs

    # ------------------------------------------------------------------
    # Cell records (RunResult)
    # ------------------------------------------------------------------
    def _cell_path(self, key: str) -> Path:
        return self.directory / "cells" / f"{key}.json"

    def load_result(self, key: str) -> Optional[RunResult]:
        """Completed cell for ``key``, or ``None`` when absent/unreadable.

        Unreadable records (truncated by an unclean filesystem, foreign
        files) are treated as misses — the cell is simply recomputed and
        rewritten, which is always safe.
        """
        path = self._cell_path(key)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text())
            if record.get("format") != _CELL_FORMAT:
                return None
            result = _result_from_record(record["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return None
        self.loaded += 1
        return result

    def save_result(
        self, key: str, result: RunResult, inputs: Optional[dict] = None
    ) -> Path:
        """Persist a completed cell under ``key`` (atomic write-replace).

        A failed write raises :class:`ExperimentError` naming the cell file.
        ``inputs`` — the dictionary the key was hashed from — is embedded
        verbatim so store files are self-describing and auditable.
        """
        record = {
            "format": _CELL_FORMAT,
            "version": _STORE_VERSION,
            "key": key,
            "inputs": jsonable(inputs) if inputs is not None else None,
            "result": _result_to_record(result),
        }
        path = self._write(self._cell_path(key), record)
        self.stored += 1
        return path

    # ------------------------------------------------------------------
    # Experiment records (ExperimentResult)
    # ------------------------------------------------------------------
    def _experiment_path(self, key: str) -> Path:
        return self.directory / "experiments" / f"{key}.json"

    def load_experiment(self, key: str) -> Optional[ExperimentResult]:
        """Completed experiment for ``key``, or ``None`` (misses include
        unreadable records, as for :meth:`load_result`)."""
        path = self._experiment_path(key)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text())
            if record.get("format") != _EXPERIMENT_FORMAT:
                return None
            result = result_from_jsonable(record["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return None
        self.loaded += 1
        return result

    def save_experiment(
        self, key: str, result: ExperimentResult, inputs: Optional[dict] = None
    ) -> Path:
        """Persist a completed experiment under ``key`` (atomic); a failed
        write raises :class:`ExperimentError` naming the file."""
        record = {
            "format": _EXPERIMENT_FORMAT,
            "version": _STORE_VERSION,
            "key": key,
            "inputs": jsonable(inputs) if inputs is not None else None,
            "result": result_to_jsonable(result),
        }
        path = self._write(self._experiment_path(key), record)
        self.stored += 1
        return path

    @staticmethod
    def _write(path: Path, record: dict) -> Path:
        """Atomically write ``record``; a failed write (a full disk, a
        missing permission) raises :class:`ExperimentError` naming ``path``,
        chained to the ``OSError``, after the temp file is removed."""
        try:
            return atomic_write_text(path, json.dumps(record, indent=1, sort_keys=True))
        except OSError as exc:
            raise ExperimentError(f"cannot write store record {path}: {exc}") from exc

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ExperimentStore {str(self.directory)!r} "
            f"loaded={self.loaded} stored={self.stored}>"
        )
