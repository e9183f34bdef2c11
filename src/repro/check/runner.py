"""The differential-check campaign runner behind ``repro check run``.

Runs the full oracle battery (:mod:`repro.check.differential`) over a
contiguous range of seeds and aggregates the outcome into a
:class:`CheckReport` — zero disagreements is the contract every
performance or refactoring PR must preserve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.check.controlplane import check_bgp_converge, check_bgp_vs_model
from repro.check.differential import (
    Disagreement,
    check_bgp_decision,
    check_gr_trees,
    check_labels,
    check_ledger_resume,
    check_lpm,
    check_metamorphic,
    check_pool_supervision,
    check_temporal,
)
from repro.check.scenarios import Scenario, generate_scenario

#: Check-name -> callable(scenario) for the scenario-driven oracles.
SCENARIO_CHECKS = {
    "gr-tree": check_gr_trees,
    "labels": check_labels,
    "metamorphic": check_metamorphic,
    "temporal": check_temporal,
}

#: Check-name -> callable(seed) for the input-driven oracles.
SEED_CHECKS = {
    "bgp-decision": check_bgp_decision,
    "lpm": check_lpm,
    "bgp-converge": check_bgp_converge,
    "bgp-vs-model": check_bgp_vs_model,
}

#: Heavy scenario checks: known to the runner but excluded from the
#: default battery — run only when named via ``--only`` (each seed
#: spawns real pool worker processes).
HEAVY_SCENARIO_CHECKS = {
    "pool-supervised": check_pool_supervision,
    "ledger-resume": check_ledger_resume,
}

#: The default battery, in report order.
ALL_CHECKS = tuple(SCENARIO_CHECKS) + tuple(SEED_CHECKS)

#: Everything ``--only`` accepts: the default battery plus the heavy
#: opt-in checks (e.g. ``pool-supervised``, which spawns real worker
#: processes per seed and therefore never runs by default).
KNOWN_CHECKS = ALL_CHECKS + tuple(HEAVY_SCENARIO_CHECKS)


@dataclass
class CheckReport:
    """Outcome of one differential-check campaign."""

    base_seed: int
    seeds_run: int = 0
    decisions_graded: int = 0
    trees_checked: int = 0
    checks: List[str] = field(default_factory=lambda: list(ALL_CHECKS))
    disagreements: List[Disagreement] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def by_check(self) -> Dict[str, int]:
        tally: Dict[str, int] = {name: 0 for name in self.checks}
        for problem in self.disagreements:
            tally[problem.check] = tally.get(problem.check, 0) + 1
        return tally

    def render(self) -> str:
        lines = [
            "== differential checks ==",
            f"  seeds      {self.base_seed}..{self.base_seed + self.seeds_run - 1}"
            f" ({self.seeds_run} scenarios)",
            f"  decisions  {self.decisions_graded} graded against the label oracle",
            f"  trees      {self.trees_checked} routing trees vs the GR oracle",
            f"  elapsed    {self.elapsed:.1f}s",
        ]
        for name, count in self.by_check().items():
            verdict = "ok" if count == 0 else f"{count} DISAGREEMENT(S)"
            lines.append(f"  {name:<14} {verdict}")
        for problem in self.disagreements[:20]:
            lines.append(f"  !! {problem}")
        if len(self.disagreements) > 20:
            lines.append(
                f"  .. and {len(self.disagreements) - 20} more disagreements"
            )
        tail = "all oracles agree" if self.ok else "ORACLES DISAGREE"
        lines.append(f"  verdict    {tail}")
        return "\n".join(lines)


def check_seed(
    seed: int, only: Optional[List[str]] = None
) -> Tuple[Scenario, List[Disagreement]]:
    """Run the whole differential battery for one seed."""
    scenario = generate_scenario(seed)
    problems: List[Disagreement] = []
    for name, scenario_check in SCENARIO_CHECKS.items():
        if only is not None and name not in only:
            continue
        problems.extend(scenario_check(scenario))
    for name, seed_check in SEED_CHECKS.items():
        if only is not None and name not in only:
            continue
        problems.extend(seed_check(seed))
    for name, heavy_check in HEAVY_SCENARIO_CHECKS.items():
        if only is None or name not in only:
            continue
        problems.extend(heavy_check(scenario))
    return scenario, problems


def run_checks(
    seeds: int,
    base_seed: int = 0,
    only: Optional[List[str]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> CheckReport:
    """Run the differential battery over ``seeds`` consecutive seeds.

    ``only`` restricts to a subset of :data:`ALL_CHECKS`;
    ``progress(done, total)`` is invoked after every seed when given.
    """
    if only is not None:
        unknown = sorted(set(only) - set(KNOWN_CHECKS))
        if unknown:
            raise ValueError(
                f"unknown checks {unknown}; known: {sorted(KNOWN_CHECKS)}"
            )
    report = CheckReport(
        base_seed=base_seed,
        checks=list(only) if only is not None else list(ALL_CHECKS),
    )
    started = time.monotonic()
    for offset in range(seeds):
        seed = base_seed + offset
        scenario, problems = check_seed(seed, only=only)
        report.seeds_run += 1
        report.decisions_graded += len(scenario.decisions)
        report.trees_checked += len(scenario.destinations) + len(
            scenario.first_hops_for
        )
        report.disagreements.extend(problems)
        if progress is not None:
            progress(offset + 1, seeds)
    report.elapsed = time.monotonic() - started
    return report
