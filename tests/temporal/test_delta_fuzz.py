"""Seeded fuzz battery for the snapshot delta codec.

Two properties over 50+ independently-seeded churn series derived
through the real :func:`~repro.topogen.inference.inferred_snapshots`
pipeline:

* **patch equivalence** — for every consecutive snapshot pair,
  ``apply_delta(old, diff_graphs(old, new))`` matches ``new``
  link-for-link (normalized triples) and AS-for-AS;
* **codec round-trip** — every delta survives
  ``GraphDelta.from_dict(json.loads(json.dumps(delta.to_dict())))``
  unchanged, the property the temporal journal relies on.
"""

import json
import random

import pytest

from repro.temporal.delta import GraphDelta, apply_delta, diff_graphs
from repro.topogen import generate_internet, inferred_snapshots
from repro.topogen.config import small_config
from repro.topogen.inference import InferenceConfig, perturb_snapshot

pytestmark = pytest.mark.temporal

#: Fuzz floor from the PR checklist: 50+ seeded churn series.
FUZZ_SEEDS = range(50)

#: A couple of higher-churn configurations ride along so removals,
#: relabels, and node churn all appear (2% churn alone is too gentle to
#: exercise every delta field in a 4-snapshot series).
CHURNS = (0.02, 0.15, 0.5)


@pytest.fixture(scope="module")
def internet():
    return generate_internet(small_config(), seed=321)


def _normalized(graph):
    return sorted(graph.links())


class TestPatchEquivalence:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_delta_applied_matches_fresh_snapshot(self, internet, seed):
        churn = CHURNS[seed % len(CHURNS)]
        config = InferenceConfig(num_snapshots=4, snapshot_churn=churn)
        snapshots, _known = inferred_snapshots(internet, config, seed=seed)
        assert len(snapshots) == 4
        for old, new in zip(snapshots, snapshots[1:]):
            before = _normalized(old)
            delta = diff_graphs(old, new)
            patched = apply_delta(old, delta)
            assert _normalized(patched) == _normalized(new)
            assert set(patched.asns()) == set(new.asns())
            # The source graph must be untouched by the copy path.
            assert _normalized(old) == before

    def test_in_place_patch_matches_copy_patch(self, internet):
        config = InferenceConfig(num_snapshots=3, snapshot_churn=0.2)
        snapshots, _known = inferred_snapshots(internet, config, seed=7)
        old, new = snapshots[0], snapshots[1]
        delta = diff_graphs(old, new)
        copied = apply_delta(old, delta)
        working = old.copy()
        returned = apply_delta(working, delta, in_place=True)
        assert returned is working
        assert _normalized(working) == _normalized(copied) == _normalized(new)

    def test_total_churn_diffs_cleanly(self, internet):
        """100% churn (every link dropped or flipped) still round-trips."""
        config = InferenceConfig(num_snapshots=2, snapshot_churn=1.0)
        snapshots, _known = inferred_snapshots(internet, config, seed=3)
        old, new = snapshots
        delta = diff_graphs(old, new)
        assert not delta.empty
        assert _normalized(apply_delta(old, delta)) == _normalized(new)

    def test_zero_churn_is_empty_delta(self, internet):
        base, _known = inferred_snapshots(
            internet, InferenceConfig(num_snapshots=1), seed=5
        )
        snapshot = base[0]
        delta = diff_graphs(snapshot, snapshot.copy())
        assert delta.empty
        assert sum(delta.summary().values()) == 0


class TestCodecRoundTrip:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_json_round_trip_is_identity(self, internet, seed):
        churn = CHURNS[seed % len(CHURNS)]
        config = InferenceConfig(num_snapshots=3, snapshot_churn=churn)
        snapshots, _known = inferred_snapshots(internet, config, seed=seed)
        for old, new in zip(snapshots, snapshots[1:]):
            delta = diff_graphs(old, new)
            payload = json.loads(json.dumps(delta.to_dict()))
            assert GraphDelta.from_dict(payload) == delta

    def test_round_trip_covers_every_field(self, internet):
        """At least one fuzzed delta must exercise each delta field, or
        the codec assertions above are vacuous for that field."""
        seen = set()
        base, _known = inferred_snapshots(
            internet, InferenceConfig(num_snapshots=1), seed=11
        )
        rng = random.Random(11)
        previous = base[0]
        for _ in range(30):
            current = perturb_snapshot(previous, 0.4, rng)
            # Both directions: a link dropped by the perturbation is a
            # removal forward and an addition backward.
            for delta in (
                diff_graphs(previous, current),
                diff_graphs(current, previous),
            ):
                for name, count in delta.summary().items():
                    if count:
                        seen.add(name)
            previous = current
        assert {"links_added", "links_removed", "links_relabeled"} <= seen
