#!/usr/bin/env python3
"""Render README's measured table from ``BENCH_engine.json``.

``benchmarks/bench_engine.py`` writes the file; this tool turns its four
sections (``results``, ``gsu19``, ``observed``, ``approx``) into one
markdown table between README's ``<!-- measured:begin -->`` and
``<!-- measured:end -->`` markers, so every engine and observation number
README quotes comes from the measured file.

Usage::

    python tools/render_bench.py           # rewrite README's block
    python tools/render_bench.py --check   # exit 1 if the block is stale

``--check`` also fails when the file has a top-level key this tool does
not read, so a section nothing renders cannot accumulate.  The block ends
with a digest of the file's content, so an edit to any number in the file
fails the check even where the table rounds it away.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

REPO = Path(__file__).resolve().parent.parent
BENCH = REPO / "BENCH_engine.json"
README = REPO / "README.md"

BEGIN = "<!-- measured:begin -->"
END = "<!-- measured:end -->"
SCHEMA = "bench-engine/v2"
#: Every top-level key of the file; each is read below.
KEYS = ("schema", "workload", "results", "gsu19", "observed", "approx")

_SUPERSCRIPT = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _n(n: int) -> str:
    """``10⁷`` for powers of ten, ``20,000`` otherwise."""
    exponent = len(str(n)) - 1
    if n >= 10 and n == 10**exponent:
        return "10" + str(exponent).translate(_SUPERSCRIPT)
    return f"{n:,}"


def _rate(per_second: float) -> str:
    for scale, unit in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if per_second >= scale:
            return f"{per_second / scale:.3g} {unit} int/s"
    return f"{per_second:.3g} int/s"


def _x(ratio: float) -> str:
    return f"{ratio:,.0f}×" if ratio >= 100 else f"{ratio:.3g}×"


def _rows(document: dict) -> List[List[str]]:
    """``[workload, n, engine, measured, relative]`` per record."""

    def rates(records: List[dict], engine: str) -> Dict[int, float]:
        return {
            r["n"]: r["throughput_per_second"] for r in records if r["engine"] == engine
        }

    rows: List[List[str]] = []
    sequential = rates(document["results"], "sequential")
    for r in document["results"]:
        rate = r["throughput_per_second"]
        relative = f"{_x(rate / sequential[r['n']])} sequential's rate"
        rows.append(["epidemic", _n(r["n"]), r["engine"], _rate(rate), relative])

    gsu19 = document["gsu19"]["results"]
    fastbatch = rates(gsu19, "fastbatch")
    for r in gsu19:
        rate = r["throughput_per_second"]
        relative = "—"
        if r["n"] in fastbatch:
            relative = f"{_x(rate / fastbatch[r['n']])} fastbatch's rate"
        measured = f"{_rate(rate)}, {r['occupied_states']} occupied"
        rows.append(
            ["GSU19, closure registered", _n(r["n"]), r["engine"], measured, relative]
        )

    for r in document["observed"]["results"]:
        observed = r["median_observed_seconds"]
        unobserved = r["median_unobserved_seconds"]
        measured = f"{observed:.3g} s vs {unobserved:.3g} s unobserved"
        if r["converged"]:
            measured += " (converged early)"
        relative = f"{_x(observed / unobserved)} unobserved time"
        rows.append(
            ["GSU19 observed, a check per n/100", _n(r["n"]), r["engine"],
             measured, relative]
        )

    approx = document["approx"]["results"]
    exact = {
        r["n"]: r["median_run_seconds"] for r in approx if r["engine"] == "countbatch"
    }
    for r in approx:
        seconds = r["median_run_seconds"]
        relative = "—"
        if r["engine"] == "countbatch":
            relative = "exact comparator"
        elif r["n"] in exact:
            relative = f"{_x(exact[r['n']] / seconds)} countbatch's speed"
        measured = f"{seconds:.3g} s, {r['occupied_states']} occupied"
        rows.append(
            [f"GSU19, {r['parallel_time']:g} parallel-time units", _n(r["n"]),
             r["engine"], measured, relative]
        )
    return rows


def _provenance(document: dict) -> str:
    sections = {
        "epidemic": document["workload"],
        "GSU19": document["gsu19"]["workload"],
        "observed": document["observed"]["workload"],
        "approx": document["approx"]["workload"],
    }
    machines = sorted({(w["commit"], w["cpus"], w["date"]) for w in sections.values()})
    rounds: Dict[int, List[str]] = {}
    for name, workload in sections.items():
        rounds.setdefault(workload["rounds"], []).append(name)
    return "; ".join(
        [f"commit `{commit}` on {cpus} CPUs, {date}" for commit, cpus, date in machines]
        + [f"medians of {count} rounds ({', '.join(names)})"
           for count, names in rounds.items()]
    )


def render(document: dict) -> str:
    """The block between the markers (markers excluded)."""
    digest = hashlib.sha256(
        json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()[:16]
    lines = [
        "<!-- generated by tools/render_bench.py from BENCH_engine.json; "
        "do not edit -->",
        "| workload | n | engine | measured | relative |",
        "|---|--:|---|--:|---|",
    ]
    lines += ["| " + " | ".join(row) + " |" for row in _rows(document)]
    lines += [
        "",
        f"Measured by `benchmarks/bench_engine.py`: {_provenance(document)}. "
        f"Content digest `{digest}`.",
    ]
    return "\n".join(lines)


def _split(readme: str) -> tuple:
    """``(text through BEGIN, block, text from END)``."""
    if readme.count(BEGIN) != 1 or readme.count(END) != 1:
        raise ValueError(f"README needs exactly one {BEGIN} ... {END} pair")
    start, end = readme.index(BEGIN) + len(BEGIN), readme.index(END)
    return readme[:start], readme[start:end].strip("\n"), readme[end:]


def problems(bench: Path = BENCH, readme: Path = README) -> List[str]:
    """What ``--check`` reports (empty when README matches the file)."""
    document = json.loads(bench.read_text(encoding="utf-8"))
    found: List[str] = []
    if sorted(document) != sorted(KEYS):
        found.append(
            f"{bench.name} has top-level keys {sorted(document)}, "
            f"expected exactly {sorted(KEYS)}"
        )
    elif document["schema"] != SCHEMA:
        found.append(
            f"{bench.name} has schema {document['schema']!r}, expected {SCHEMA!r}"
        )
    elif _split(readme.read_text(encoding="utf-8"))[1] != render(document):
        found.append(
            f"{readme.name}'s measured table does not match {bench.name}; "
            "run python tools/render_bench.py"
        )
    return found


def write(bench: Path = BENCH, readme: Path = README) -> None:
    """Rewrite README's block from the file."""
    before, _, after = _split(readme.read_text(encoding="utf-8"))
    block = render(json.loads(bench.read_text(encoding="utf-8")))
    readme.write_text(f"{before}\n{block}\n{after}", encoding="utf-8")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="fail if README's block is stale"
    )
    args = parser.parse_args(argv)
    if not args.check:
        write()
        print(f"rendered {BENCH.name} into {README.name}")
        return 0
    found = problems()
    for problem in found:
        print(problem, file=sys.stderr)
    if found:
        return 1
    print(f"{README.name}'s measured table matches {BENCH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
