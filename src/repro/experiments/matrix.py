"""Experiment ``matrix`` — protocols × scenarios re-election matrix.

The paper's protocols are analysed under the classical model: complete
interaction graph, no churn, no faults.  This experiment probes how the
simulable leader-election protocols behave when those assumptions are
relaxed along the scenario axis (:mod:`repro.scenarios`): restricted
interaction topologies (cycle, 2D torus grid, random 4-regular graph),
Poisson churn (agents joining in the protocol's initial state force
*re-election* — a fresh joiner is a new leader candidate), and crash-stop
faults (the elected leader may die, so the census of *alive* leaders is
what must reach one).

Each (protocol, scenario) cell runs ``config.repetitions`` seeds of the
protocol at one population size (the sweep sizes capped to
``config.slow_protocol_max_n`` — the Θ(n)-time baselines set the scale)
under :class:`~repro.scenarios.SingleAliveLeader` convergence: a run
*passes* when it reaches exactly one alive leader within the parallel-time
budget.  A cell is ``PASS`` when a majority of its seeds pass.

The report contains (a) the pass/fail grid, and (b) a per-cell detail
table with convergence counts, mean parallel time over converged runs and
the scenario event counters (joins / leaves / crashes / drops) actually
experienced.
"""

from __future__ import annotations

from typing import List

from repro.analysis.stats import summarize
from repro.engine.parallel import run_cells
from repro.engine.rng import spawn_seeds
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, timed
from repro.experiments.table1 import SIMULATED_PROTOCOLS
from repro.scenarios import SingleAliveLeader, get_scenario

__all__ = ["run_matrix", "MATRIX_PROTOCOLS", "MATRIX_SCENARIOS"]

#: Protocols on the matrix rows — the simulable Table 1 protocols.
MATRIX_PROTOCOLS: List[tuple] = [
    (name, factory) for name, factory, _is_slow in SIMULATED_PROTOCOLS
]

#: Scenario registry names on the matrix columns.  ``complete`` is the
#: classical-model control column; the others exercise each scenario axis
#: (topology, churn, crash faults) alone and one topology+churn combination.
MATRIX_SCENARIOS: List[str] = [
    "complete",
    "cycle",
    "grid2d",
    "random-regular-4",
    "churn",
    "crash",
    "cycle-churn",
]

#: Cap on the per-run parallel-time budget: re-election cells either settle
#: within a couple of thousand parallel-time units at matrix sizes or keep
#: churning forever, so longer budgets only buy wall clock.
_MATRIX_MAX_PARALLEL_TIME = 2000.0


def _single_alive_leader(n: int) -> SingleAliveLeader:
    """Convergence factory of every cell (module-level: workers pickle it)."""
    return SingleAliveLeader()


@timed
def run_matrix(config: ExperimentConfig) -> ExperimentResult:
    """Run the protocols × scenarios matrix under ``config``.

    Engine selection is always ``"auto"`` within this experiment: scenario
    cells need a scenario-capable engine regardless of the configuration's
    engine preference (the count-space engines assume the complete
    fault-free model), and ``auto`` dispatch already encodes that routing.
    """
    n = config.sizes_capped(config.slow_protocol_max_n)[-1]
    budget = min(config.max_parallel_time, _MATRIX_MAX_PARALLEL_TIME)
    seeds = spawn_seeds(config.base_seed, config.repetitions)
    result = ExperimentResult(
        experiment="matrix",
        description=(
            "Leader re-election under relaxed model assumptions: each cell "
            f"runs {config.repetitions} seed(s) at n = {n} under a scenario "
            "(interaction topology / churn / crash faults) and passes when "
            "a majority of seeds reach a single alive leader within a "
            f"parallel-time budget of {budget:g}."
        ),
    )
    grid = result.add_table("re-election matrix", ["protocol"] + MATRIX_SCENARIOS)
    detail = result.add_table(
        "detail",
        [
            "protocol",
            "scenario",
            "n",
            "runs",
            "converged",
            "parallel time (mean of converged)",
            "events (mean joins/leaves/crashes/drops)",
        ],
    )

    for name, factory in MATRIX_PROTOCOLS:
        grid_row: List[object] = [name]
        for scenario_name in MATRIX_SCENARIOS:
            points = run_cells(
                factory,
                n,
                seeds,
                max_parallel_time=budget,
                convergence_factory=_single_alive_leader,
                engine="auto",
                workers=config.workers,
                scenario=get_scenario(scenario_name),
            )
            runs = [point.result for point in points]
            converged = [run for run in runs if run.converged]
            passed = len(converged) * 2 > len(runs)
            grid_row.append(
                f"{'PASS' if passed else 'fail'} "
                f"({len(converged)}/{len(runs)})"
            )
            times = summarize([run.parallel_time for run in converged]) if converged else None
            events = [run.metadata.get("scenario_events") or {} for run in runs]
            means = tuple(
                sum(e.get(k, 0) for e in events) / len(runs)
                for k in ("joins", "leaves", "crashes", "dropped")
            )
            detail.add_row(
                name,
                scenario_name,
                n,
                len(runs),
                len(converged),
                f"{times.mean:.1f}" if times else "—",
                "/".join(f"{m:.1f}" for m in means),
            )
        grid.add_row(*grid_row)

    result.metadata.update(
        {
            "n": n,
            "repetitions": config.repetitions,
            "max_parallel_time": budget,
            "scenarios": list(MATRIX_SCENARIOS),
        }
    )
    return result
