"""A BGP route-propagation simulator.

This subpackage implements enough of BGP to run the paper's active
control-plane experiments: announcements and withdrawals carrying AS
paths (with AS-sets for poisoning), per-AS policies expressing
Gao-Rexford economics plus real-world deviations, the full best-path
decision process (local preference, path length, intradomain cost,
route age, router ID), loop prevention, and an event-driven propagation
engine that converges a topology to a stable routing state.
"""

from repro.bgp.attributes import ASPathAttribute
from repro.bgp.communities import (
    entry_class_community,
    read_entry_class,
    strip_entry_class,
)
from repro.bgp.routes import Route
from repro.bgp.decision import DecisionStep, best_route, compare_routes
from repro.bgp.policy import Policy, DEFAULT_LOCAL_PREF
from repro.bgp.speaker import BGPSpeaker
from repro.bgp.simulator import BGPSimulator, ConvergenceError

__all__ = [
    "ASPathAttribute",
    "entry_class_community",
    "read_entry_class",
    "strip_entry_class",
    "Route",
    "DecisionStep",
    "best_route",
    "compare_routes",
    "Policy",
    "DEFAULT_LOCAL_PREF",
    "BGPSpeaker",
    "BGPSimulator",
    "ConvergenceError",
]
