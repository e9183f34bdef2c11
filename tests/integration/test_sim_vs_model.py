"""Cross-validation: BGP simulator vs the analytical GR engine.

With no policy deviations and error-free inference, the event-driven
BGP simulator and the three-stage routing-tree engine implement the
same model, so every simulated decision must classify as Best/Short
and predicted route lengths must match simulated path lengths exactly.
This is the strongest internal-consistency check the library has: the
two implementations share no code beyond the topology.
"""

import pytest

from repro.bgp import BGPSimulator, Policy
from repro.check.controlplane import model_disagreements
from repro.core.gao_rexford import GaoRexfordEngine
from repro.net.ip import Prefix
from repro.topogen import generate_internet
from repro.topogen.config import TopologyConfig
from repro.topogen.generator import _Builder
from repro.topology.relationships import Relationship

PFX = Prefix.parse("198.51.100.0/24")


def _pure_gr_internet(seed):
    """A generated topology with every behaviour deviation disabled."""
    config = TopologyConfig(
        num_tier1=4,
        num_large_isps=10,
        num_small_isps=24,
        num_stubs=60,
        num_content_providers=3,
        num_cable_ases=0,
        sibling_org_rate=0.0,
        selective_export_rate=0.0,
        prefix_local_pref_rate=0.0,
        backup_link_rate=0.0,
        domestic_preference_rate=0.0,
        hybrid_rate=0.0,
        partial_transit_rate=0.0,
        poison_filter_rate=0.0,
        loop_prevention_disabled_rate=0.0,
        nongr_local_pref_rate=0.0,
        prepend_rate=0.0,
    )
    internet = generate_internet(config, seed=seed)
    # Strip local-pref overrides the generator may add outside the
    # rate-gated injectors (there are none today; belt and braces).
    for policy in internet.policies.values():
        policy.neighbor_local_pref.clear()
        policy.prefix_local_pref.clear()
        policy.selective_export.clear()
        policy.export_prepend.clear()
        policy.partial_transit_to.clear()
        policy.prefers_domestic = False
    return internet


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_simulator_agrees_with_engine_under_pure_gr(seed):
    internet = _pure_gr_internet(seed)
    engine = GaoRexfordEngine(internet.graph)  # perfect inference
    simulator = BGPSimulator(internet.graph, policies=internet.policies)

    destinations = [provider.asns[0] for provider in internet.content]
    for destination in destinations:
        prefix = internet.prefixes[destination][-1]
        simulator.originate(destination, prefix)
        # Reachability agrees (modulo the destination itself), predicted
        # route lengths equal simulated ones, and every simulated
        # decision grades Best/Short.
        assert (
            model_disagreements(
                internet.graph, engine, simulator, destination, prefix
            )
            == []
        )
        assert len(simulator.rib_dump(prefix)) > 51
