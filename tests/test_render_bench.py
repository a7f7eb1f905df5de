"""README's measured table is rendered from BENCH_engine.json, not typed.

``tools/render_bench.py --check`` runs in the docs CI job; these tests hold
the same contract in tier-1 and show that the check notices an edited
number and a section nothing renders.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "render_bench.py"


@pytest.fixture(scope="module")
def render_bench():
    spec = importlib.util.spec_from_file_location("render_bench", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def copies(tmp_path, render_bench):
    """Scratch copies of the committed file and README."""
    bench = Path(shutil.copy(render_bench.BENCH, tmp_path / "BENCH_engine.json"))
    readme = Path(shutil.copy(render_bench.README, tmp_path / "README.md"))
    return bench, readme


def test_readme_measured_table_matches_the_bench_file(render_bench):
    assert render_bench.problems() == []


def test_check_fails_after_one_number_changes(render_bench, copies):
    bench, readme = copies
    document = json.loads(bench.read_text())
    document["results"][0]["median_run_seconds"] *= 1.0001  # rounds away
    bench.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    assert render_bench.problems(bench, readme)
    render_bench.write(bench, readme)
    assert render_bench.problems(bench, readme) == []


def test_check_fails_on_a_section_nothing_renders(render_bench, copies):
    bench, readme = copies
    document = json.loads(bench.read_text())
    document["topology"] = {"results": []}
    bench.write_text(json.dumps(document))
    [problem] = render_bench.problems(bench, readme)
    assert "topology" in problem
