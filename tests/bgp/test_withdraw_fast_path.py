"""The withdraw-to-empty fast path and its guards.

A withdrawal that leaves a prefix with no origin clears the prefix
without delivering messages; every other withdrawal must still run the
event-driven convergence.  The property test holds the reference
simulator to the claim the fast path rests on: an undamped sole-origin
withdrawal always ends with nothing left for the prefix.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import BGPSimulator, Policy
from repro.bgp.simulator import ConvergenceError
from repro.check.refsim import ReferenceSimulator
from repro.net.ip import Prefix
from repro.topology import ASGraph, Relationship

PFX = Prefix.parse("198.51.100.0/24")


def _graph(*links):
    graph = ASGraph()
    for a, b, rel in links:
        graph.add_link(a, b, rel)
    return graph


def _diamond():
    """4 is multihomed to 2 and 3, both customers of 1."""
    return _graph(
        (1, 2, Relationship.CUSTOMER),
        (1, 3, Relationship.CUSTOMER),
        (2, 4, Relationship.CUSTOMER),
        (3, 4, Relationship.CUSTOMER),
    )


def _count_runs(sim):
    calls = []
    original = sim.run

    def run():
        calls.append(1)
        return original()

    sim.run = run
    return calls


class TestFastPath:
    def test_sole_origin_withdraw_clears_without_messages(self):
        sim = BGPSimulator(_diamond())
        sim.originate(4, PFX)
        runs = _count_runs(sim)
        epoch, clock = sim.epoch, sim.clock
        sim.withdraw(4, PFX)
        assert runs == []
        assert sim.epoch == epoch + 1
        assert sim.clock == clock + 1
        assert sim.rib_dump(PFX) == {}
        for asn in sim.speakers:
            assert sim.candidate_routes(asn, PFX) == []
            assert sim.decision_step(asn, PFX) is None

    def test_reannounce_after_fast_path_matches_fresh_network(self):
        sim = BGPSimulator(_diamond())
        sim.originate(4, PFX)
        sim.withdraw(4, PFX)
        sim.originate(4, PFX)
        fresh = BGPSimulator(_diamond())
        fresh.originate(4, PFX)
        for asn in sim.speakers:
            assert sim.forwarding_path(asn, PFX) == fresh.forwarding_path(asn, PFX)
            assert sim.decision_step(asn, PFX) == fresh.decision_step(asn, PFX)


class TestFullRunGuards:
    def test_second_origin_takes_full_run(self):
        sim = BGPSimulator(_diamond())
        sim.originate(4, PFX)
        sim.originate(1, PFX)
        runs = _count_runs(sim)
        sim.withdraw(4, PFX)
        assert runs == [1]
        # The remaining origin still reaches everyone.
        assert sim.reachable_ases(PFX) == frozenset({1, 2, 3, 4})
        assert sim.forwarding_path(4, PFX) is not None

    @staticmethod
    def _contested():
        """Origin 6 with two providers; enough traffic to hit a tiny budget."""
        return _graph(
            (1, 2, Relationship.PEER),
            (1, 3, Relationship.CUSTOMER),
            (1, 6, Relationship.CUSTOMER),
            (2, 6, Relationship.CUSTOMER),
        )

    def test_non_empty_queue_takes_full_run(self):
        sim = BGPSimulator(self._contested(), max_events_per_link=1)
        with pytest.raises(ConvergenceError):
            sim.originate(6, PFX)
        assert sim._queue  # no discard_pending: the tail is still queued
        runs = _count_runs(sim)
        with pytest.raises(ConvergenceError):
            sim.withdraw(6, PFX)
        assert runs == [1]

    def test_withdraw_by_non_origin_takes_full_run(self):
        sim = BGPSimulator(_diamond())
        sim.originate(4, PFX)
        runs = _count_runs(sim)
        epoch = sim.epoch
        sim.withdraw(2, PFX)
        assert runs == [1]
        assert sim.epoch == epoch
        assert sim.reachable_ases(PFX) == frozenset({1, 2, 3, 4})

    def test_missed_update_takes_full_run(self):
        # Messages discarded after a convergence failure never reached
        # their targets, whose RIBs may no longer match their neighbors'.
        sim = BGPSimulator(self._contested(), max_events_per_link=1)
        with pytest.raises(ConvergenceError):
            sim.originate(6, PFX)
        assert sim.discard_pending() > 0
        assert any(speaker.missed for speaker in sim.speakers.values())
        runs = _count_runs(sim)
        try:
            sim.withdraw(6, PFX)
        except ConvergenceError:
            pass
        assert runs == [1]

    def test_loop_prevention_off_cycle_takes_full_run(self):
        # Three loop-prevention-off siblings: a path could circle them.
        graph = _diamond()
        graph.add_link(5, 6, Relationship.SIBLING)
        graph.add_link(6, 7, Relationship.SIBLING)
        graph.add_link(7, 5, Relationship.SIBLING)
        graph.add_link(4, 5, Relationship.CUSTOMER)
        policies = {
            asn: Policy(asn=asn, loop_prevention_disabled=True) for asn in (5, 6, 7)
        }
        sim = BGPSimulator(graph, policies=policies)
        sim.originate(4, PFX)
        runs = _count_runs(sim)
        try:
            sim.withdraw(4, PFX)
        except ConvergenceError:
            pass
        assert runs == [1]


# ---------------------------------------------------------------------------
# Property: the reference's undamped sole-origin withdrawal ends empty
# ---------------------------------------------------------------------------

rel_strategy = st.sampled_from(list(Relationship))


@st.composite
def withdrawal_worlds(draw):
    """Random graphs and policies with loop-prevention-off ASes and prepending."""
    num_ases = draw(st.integers(min_value=2, max_value=10))
    asns = list(range(1, num_ases + 1))
    graph = ASGraph()
    for asn in asns:
        graph.ensure_asn(asn)
    for index, a in enumerate(asns):
        for b in asns[index + 1 :]:
            if draw(st.booleans()):
                graph.add_link(a, b, draw(rel_strategy))
    origin = draw(st.sampled_from(asns))
    policies = {}
    for asn in asns:
        policies[asn] = Policy(
            asn=asn,
            loop_prevention_disabled=draw(st.integers(0, 4)) == 0,
            igp_cost={
                n: draw(st.sampled_from((0, 5))) for n in graph.neighbor_set(asn)
            },
        )
    for neighbor in sorted(graph.neighbor_set(origin)):
        prepends = draw(st.integers(0, 2))
        if prepends:
            policies[origin].export_prepend[(PFX, neighbor)] = prepends
    poisoned = draw(st.frozensets(st.sampled_from(asns), max_size=2))
    return graph, policies, origin, poisoned


@settings(max_examples=60, deadline=None)
@given(withdrawal_worlds())
def test_reference_sole_origin_withdraw_leaves_nothing(world):
    graph, policies, origin, poisoned = world
    sim = ReferenceSimulator(graph, policies=policies, flap_limit=3)
    try:
        sim.originate(origin, PFX, poisoned=poisoned)
    except ConvergenceError:
        sim.discard_pending()
    if sim.loops_can_grow or any(PFX in s.missed for s in sim.speakers.values()):
        return  # not a sole-origin withdrawal: the damped path applies
    sim.withdraw(origin, PFX)
    for asn, speaker in sim.speakers.items():
        assert speaker.best(PFX) is None, f"AS{asn} kept a route"
        assert speaker.candidates(PFX) == [], f"AS{asn} kept an Adj-RIB-In entry"
        assert speaker.advertised_to(PFX) == {}, f"AS{asn} still advertises"
