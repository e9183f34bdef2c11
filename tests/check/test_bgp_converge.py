"""The control-plane checks: ``bgp-converge`` and ``bgp-vs-model``.

The mutation tests build deliberately broken copies of the production
speaker and simulator from their source (one textual edit each) and
require ``bgp-converge`` to report disagreements for every one of them:
an oracle that cannot tell a broken control plane from a working one
guards nothing.
"""

import inspect
import types

import pytest

import repro.bgp.simulator as simulator_module
import repro.bgp.speaker as speaker_module
from repro.check import ALL_CHECKS, run_checks
from repro.check.controlplane import check_bgp_converge, check_bgp_vs_model

pytestmark = pytest.mark.check

#: Seeds the mutants are hunted on; each mutant is caught well inside.
MUTANT_SEEDS = range(12)


def _mutant(module, edit=None) -> types.ModuleType:
    """A fresh copy of ``module``, with one ``(old, new)`` source edit."""
    source = inspect.getsource(module)
    if edit is not None:
        old, new = edit
        assert source.count(old) == 1, f"mutation site not found: {old!r}"
        source = source.replace(old, new)
    mutant = types.ModuleType(f"{module.__name__}_mutant")
    mutant.__file__ = module.__file__
    exec(compile(source, module.__file__, "exec"), mutant.__dict__)
    return mutant


def _mutant_simulator(speaker_edit=None, simulator_edit=None):
    """A production simulator class built on mutated sources."""
    simulator = _mutant(simulator_module, simulator_edit)
    simulator.BGPSpeaker = _mutant(speaker_module, speaker_edit).BGPSpeaker
    # The check catches the production exception class.
    simulator.ConvergenceError = simulator_module.ConvergenceError
    return simulator.BGPSimulator


def _caught(simulator_class) -> bool:
    return any(check_bgp_converge(seed, simulator_class) for seed in MUTANT_SEEDS)


class TestBgpConverge:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_production_agrees_with_reference(self, seed):
        assert check_bgp_converge(seed) == []

    def test_unmutated_copy_agrees(self):
        # The mutation harness itself introduces no difference.
        assert not _caught(_mutant_simulator())

    def test_dropping_route_age_tie_breaker_is_caught(self):
        edit = (
            "self._igp_cost.get(neighbor, 0), clock, neighbor,",
            "self._igp_cost.get(neighbor, 0), 0, neighbor,",
        )
        assert _caught(_mutant_simulator(speaker_edit=edit))

    def test_skipping_loop_prevention_is_caught(self):
        edit = ("elif self._loop_prevention:", "elif False:")
        assert _caught(_mutant_simulator(speaker_edit=edit))

    def test_lifo_delivery_is_caught(self):
        edit = ("queue.popleft()", "queue.pop()")
        assert _caught(_mutant_simulator(simulator_edit=edit))


class TestBgpVsModel:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_vanilla_paths_are_best_short(self, seed):
        assert check_bgp_vs_model(seed) == []


class TestBattery:
    def test_control_plane_checks_in_default_battery(self):
        assert "bgp-converge" in ALL_CHECKS
        assert "bgp-vs-model" in ALL_CHECKS

    def test_only_runs_the_control_plane_checks(self):
        report = run_checks(2, only=["bgp-converge", "bgp-vs-model"])
        assert report.ok, report.render()
        assert report.checks == ["bgp-converge", "bgp-vs-model"]
