"""Persistence: experiment results (CSV, JSON, markdown) and run checkpoints.

Two kinds of artefact are written here:

* **Experiment results** — the CLI writes every experiment's tables to an
  output directory so results can be versioned and diffed, with a
  markdown rendering (``result.md``) beside the JSON and CSV forms.
  :func:`read_result_json` round-trips the JSON
  form back into an :class:`~repro.experiments.runner.ExperimentResult`,
  which is what the on-disk experiment store
  (:mod:`repro.experiments.store`) builds on.
* **Run checkpoints** — :func:`write_checkpoint` / :func:`read_checkpoint`
  persist engine snapshots (:meth:`repro.engine.base.BaseEngine.snapshot`)
  in a versioned, checksummed envelope: the magic line
  ``repro-checkpoint 2``, a line with the sha256 (hex) of the pickled
  payload, then the payload.  The reader verifies the checksum before it
  unpickles anything, so a truncated or corrupt file raises
  :class:`~repro.errors.CheckpointError` naming the file instead of
  reaching ``pickle``.  Version-1 files (a bare pickled envelope, no
  checksum) are still read.  Checkpoints are published **atomically**, in
  one of the two forms of :mod:`repro.engine.atomic`:
  :func:`write_checkpoint` takes the one-shot form (temp file in the
  target directory, then ``os.replace``), and :func:`swap_checkpoint`, which
  a running :class:`~repro.engine.simulation.Simulation` uses for its
  periodic checkpoints, swaps the run's reused temp file into place.  The
  bytes are the same either way.  A crash mid-write can never leave a
  truncated checkpoint behind — the previous complete checkpoint simply
  survives — and a failed write raises
  :class:`~repro.errors.CheckpointError` naming the file.  A reader that
  holds a checkpoint open while a run publishes its next two can see the
  displaced file rewritten; its checksum then fails, so it gets a
  ``CheckpointError``, never a wrong payload.  No ``fsync`` is issued: the
  write is atomic, not durable across a power loss.
  Snapshots contain arbitrary protocol state objects, so the payload is
  pickled; checkpoints are a *resume* format for your own runs, not an
  interchange format.
"""

from __future__ import annotations

import csv
import hashlib
import json
import pickle
from pathlib import Path
from typing import Union

from repro.engine.atomic import SwapWriter, atomic_write
from repro.errors import CheckpointError, ExperimentError
from repro.experiments.runner import ExperimentResult, ExperimentTable

__all__ = [
    "write_table_csv",
    "write_result_json",
    "read_result_json",
    "result_to_jsonable",
    "result_from_jsonable",
    "write_result_markdown",
    "write_result",
    "write_checkpoint",
    "swap_checkpoint",
    "read_checkpoint",
    "atomic_write_text",
    "jsonable",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
]

PathLike = Union[str, Path]

#: Identifies a repro checkpoint file (the first word of its magic line).
CHECKPOINT_MAGIC = "repro-checkpoint"
#: Envelope version; bump on incompatible layout changes.  The engine
#: snapshot inside carries its own version
#: (:data:`repro.engine.base.SNAPSHOT_VERSION`).
CHECKPOINT_VERSION = 2


# ----------------------------------------------------------------------
# Atomic text writes
# ----------------------------------------------------------------------
def atomic_write_text(path: PathLike, text: str) -> Path:
    """Atomically write ``text`` to ``path`` (write-replace, never truncate)."""
    return atomic_write(Path(path), text.encode("utf-8"))


# ----------------------------------------------------------------------
# Experiment results
# ----------------------------------------------------------------------
def write_table_csv(table: ExperimentTable, path: PathLike) -> Path:
    """Write one table as CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.headers)
        for row in table.rows:
            writer.writerow(row)
    return path


def result_to_jsonable(result: ExperimentResult) -> dict:
    """Plain-data (JSON-serialisable) form of an experiment result."""
    return {
        "experiment": result.experiment,
        "description": result.description,
        "metadata": {key: jsonable(value) for key, value in result.metadata.items()},
        "wall_clock_seconds": result.wall_clock_seconds,
        "tables": [
            {
                "name": table.name,
                "headers": table.headers,
                "rows": [[jsonable(cell) for cell in row] for row in table.rows],
            }
            for table in result.tables
        ],
    }


def result_from_jsonable(payload: dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`result_to_jsonable`.

    Cell values come back as whatever JSON preserved (numbers, strings,
    booleans); values that were stringified on the way out stay strings.
    """
    return ExperimentResult(
        experiment=payload["experiment"],
        description=payload["description"],
        tables=[
            ExperimentTable(
                name=table["name"],
                headers=list(table["headers"]),
                rows=[list(row) for row in table["rows"]],
            )
            for table in payload.get("tables", [])
        ],
        metadata=dict(payload.get("metadata", {})),
        wall_clock_seconds=float(payload.get("wall_clock_seconds", 0.0)),
    )


def write_result_json(result: ExperimentResult, path: PathLike) -> Path:
    """Write a full experiment result as JSON (atomically)."""
    path = Path(path)
    return atomic_write_text(
        path, json.dumps(result_to_jsonable(result), indent=2, sort_keys=True)
    )


def read_result_json(path: PathLike) -> ExperimentResult:
    """Read an experiment result previously written by :func:`write_result_json`."""
    payload = json.loads(Path(path).read_text())
    return result_from_jsonable(payload)


def write_result_markdown(result: ExperimentResult, path: PathLike) -> Path:
    """Write a full experiment result as markdown (atomically)."""
    return atomic_write_text(Path(path), result.to_markdown())


def write_result(result: ExperimentResult, directory: PathLike) -> Path:
    """Write JSON, markdown and per-table CSVs under ``directory/<experiment>``."""
    directory = Path(directory) / result.experiment
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # pragma: no cover - environment dependent
        raise ExperimentError(f"cannot create output directory {directory}: {exc}") from exc
    write_result_json(result, directory / "result.json")
    write_result_markdown(result, directory / "result.md")
    for table in result.tables:
        safe = table.name.replace(" ", "_").replace("/", "-")
        write_table_csv(table, directory / f"{safe}.csv")
    return directory


# ----------------------------------------------------------------------
# Run checkpoints
# ----------------------------------------------------------------------
def write_checkpoint(payload: dict, path: PathLike) -> Path:
    """Atomically persist a checkpoint payload to ``path``.

    ``payload`` is typically the dictionary built by
    :meth:`repro.engine.simulation.Simulation.write_checkpoint` (an engine
    snapshot plus run metadata), but any picklable dictionary is accepted.
    The on-disk form is the checksummed envelope described in the module
    docstring; a crash mid-write leaves the previous checkpoint intact
    (write-replace).  An ``OSError`` (a full disk, a missing permission)
    raises :class:`~repro.errors.CheckpointError` naming ``path``, after
    the temp file is removed.
    """
    path = Path(path)
    return _publish(payload, path, lambda *chunks: atomic_write(path, *chunks))


def swap_checkpoint(payload: dict, writer: SwapWriter) -> Path:
    """:func:`write_checkpoint` to ``writer.path`` through ``writer``.

    The bytes, the atomicity and the errors are :func:`write_checkpoint`'s;
    only the publish differs (see :class:`repro.engine.atomic.SwapWriter`).
    """
    return _publish(payload, writer.path, writer.write)


def _publish(payload: dict, path: Path, write) -> Path:
    """Build the version-2 envelope of ``payload`` and publish its header
    and body with ``write``; ``path`` names the file in the error."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    checksum = hashlib.sha256(body).hexdigest()
    header = f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n{checksum}\n".encode("ascii")
    try:
        return write(header, body)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def read_checkpoint(path: PathLike) -> dict:
    """Read a checkpoint written by :func:`write_checkpoint`.

    Raises :class:`~repro.errors.CheckpointError`, naming the file, when it
    cannot be read, is not a repro checkpoint, carries an unsupported
    envelope version, or fails its checksum (truncated or corrupt).
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if data[:1] == b"\x80":  # a pickle opcode: a version-1 envelope
        return _read_version_1(path, data)
    magic, _, rest = data.partition(b"\n")
    name, _, version = magic.partition(b" ")
    if name != CHECKPOINT_MAGIC.encode("ascii"):
        raise CheckpointError(f"{path} is not a repro checkpoint file")
    if version != str(CHECKPOINT_VERSION).encode("ascii"):
        raise CheckpointError(
            f"checkpoint {path} has envelope version "
            f"{version.decode('ascii', 'replace')!r}; this build supports "
            f"1 and {CHECKPOINT_VERSION}"
        )
    checksum, _, body = rest.partition(b"\n")
    if checksum != hashlib.sha256(body).hexdigest().encode("ascii"):
        raise CheckpointError(
            f"checkpoint {path} is truncated or corrupt: its payload does "
            "not match the recorded sha256"
        )
    return _unpickle(path, body)


def _read_version_1(path: Path, data: bytes) -> dict:
    """The payload of a version-1 file: a pickled envelope, no checksum."""
    envelope = _unpickle(path, data)
    if not isinstance(envelope, dict) or envelope.get("format") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a repro checkpoint file")
    version = envelope.get("version")
    if version != 1:
        raise CheckpointError(
            f"checkpoint {path} has envelope version {version!r}; this build "
            f"supports 1 and {CHECKPOINT_VERSION}"
        )
    return envelope["payload"]


def _unpickle(path: Path, data: bytes):
    try:
        return pickle.loads(data)
    except ModuleNotFoundError as exc:
        if (exc.name or "").startswith("repro.scenarios"):
            raise CheckpointError(
                f"checkpoint {path} was taken under the retired scenario "
                "layer (restricted topologies, churn, faults), which no build "
                "continues; only complete-graph runs resume"
            ) from exc
        raise CheckpointError(f"cannot read checkpoint {path}: {exc!r}") from exc
    except Exception as exc:  # noqa: BLE001 - unpickling can raise any type
        raise CheckpointError(f"cannot read checkpoint {path}: {exc!r}") from exc


def jsonable(value):
    """Recursively coerce ``value`` into JSON-serialisable plain data.

    Containers are walked; anything not natively representable falls back
    to ``str``.  Shared by the result writers and the experiment store's
    content hashing; the walk itself is :func:`repro.types.plain_data`.
    """
    from repro.types import plain_data

    return plain_data(value, fallback=str)

