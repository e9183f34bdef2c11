"""The temporal array-vs-dict invariant in the check battery.

``check_temporal`` holds the longitudinal series to its oracle: on
every seeded churn scenario (including a 100%-churn epoch), the array
backend's per-epoch recompute must equal the dict backend's
per-snapshot grading byte for byte.  The mutation tests at the bottom
prove the battery has teeth: a kernel that ignores the PSP first-hop
restrictions must surface in the temporal check, and one that breaks
equal-length ties in a different order must surface in the path check.
"""

import numpy as np
import pytest

from repro.check import (
    ALL_CHECKS,
    check_gr_trees,
    check_temporal,
    generate_scenario,
    run_checks,
)
from repro.core.hotpath import csr as csr_module
from repro.core.hotpath import kernel as kernel_module

pytestmark = [pytest.mark.check, pytest.mark.temporal]


class TestTemporalCheck:
    @pytest.mark.parametrize("seed", range(4))
    def test_clean_on_seeded_scenarios(self, seed):
        assert check_temporal(generate_scenario(seed)) == []

    def test_registered_in_default_battery(self):
        assert "temporal" in ALL_CHECKS

    def test_runner_only_temporal(self):
        report = run_checks(2, only=["temporal"])
        assert report.checks == ["temporal"]
        assert report.ok


class TestKernelMutationsAreCaught:
    def test_ignored_first_hop_restriction_flagged(self, monkeypatch):
        real = kernel_module.compute_tree_batch

        def unrestricted(csr, dest_ids, allowed_masks, partial_mask=None):
            return real(csr, dest_ids, [None] * len(allowed_masks), partial_mask)

        monkeypatch.setattr(kernel_module, "compute_tree_batch", unrestricted)
        problems = [
            problem
            for seed in range(4)
            for problem in check_temporal(generate_scenario(seed))
        ]
        assert any("diverges from the dict oracle" in p.detail for p in problems)

    def test_id_ordered_expansion_flagged(self, monkeypatch):
        # Expanding each node's edges in dense-id order instead of
        # adjacency order keeps every distance but moves parents.
        real_init = csr_module.EdgeSet.__init__

        def id_ordered(self, src, dst, n):
            real_init(self, src, dst, n)
            self.src_order = np.argsort(self.src, kind="stable")
            self.src_nbrs = np.ascontiguousarray(self.dst[self.src_order])

        monkeypatch.setattr(csr_module.EdgeSet, "__init__", id_ordered)
        problems = [
            problem
            for seed in range(6)
            for problem in check_gr_trees(generate_scenario(seed))
        ]
        assert problems
        assert {p.check for p in problems} == {"gr-path"}
