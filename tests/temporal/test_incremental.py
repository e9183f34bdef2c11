"""Array recompute per epoch ≡ the dict oracle over the study's series.

The metamorphic core of the temporal pipeline: ``run_incremental``
grades every epoch cold on the array backend and must reproduce
``run_scratch`` (the dict backend's per-snapshot grading) byte-for-byte
per epoch, whichever backend the graph's size would pick — both legs
pin their backend.  A zero-diff epoch must cost nothing, total churn must still
agree, and a journal-backed run killed after any epoch must resume into
the identical series.
"""

import json
import os

import pytest

from repro.core.classification import classify_decisions
from repro.check import forced_backend
from repro.core.gao_rexford import GaoRexfordEngine
from repro.core.pipeline import figure1_layer_configs
from repro.temporal.study import (
    TemporalInputs,
    TemporalJournal,
    _counts_dict,
    epoch_snapshot,
    run_incremental,
    run_scratch,
    serialize_epoch,
    series_fingerprint,
)
from repro.topogen.inference import InferenceConfig, inferred_snapshots

pytestmark = pytest.mark.temporal

#: Backends the size rule is forced to; both legs must ignore it.
BACKENDS = ("dict", "array")


@pytest.fixture(scope="module")
def series(study):
    return study.snapshots


@pytest.fixture
def ambient(request):
    """Force the size-picked backend to the test's backend parameter."""
    with forced_backend(request.node.callspec.params["backend"]):
        yield


def _inputs(study):
    return TemporalInputs.from_study(study)


def _epoch_bytes(series):
    return [
        serialize_epoch(epoch_snapshot(index, figure1))
        for index, figure1 in enumerate(series)
    ]


class TestIncrementalEqualsScratch:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_study_series_byte_identical(self, study, series, backend, ambient):
        inputs = _inputs(study)
        incremental = run_incremental(series, inputs)
        scratch = run_scratch(series, inputs)
        assert _epoch_bytes(incremental.figure1_series()) == _epoch_bytes(scratch)

    def test_backends_agree_with_each_other(self, study, series):
        """The array series equals both the dict oracle and a per-snapshot
        grading through the pipeline's own array-backend layers."""
        inputs = _inputs(study)
        pipeline_array = []
        for snapshot in series:
            layers = figure1_layer_configs(
                GaoRexfordEngine(snapshot, backend="array"),
                GaoRexfordEngine(
                    snapshot, partial_transit=inputs.partial_transit, backend="array"
                ),
                known_complex=inputs.known_complex,
                siblings=inputs.siblings,
                first_hops_1=inputs.first_hops_1,
                first_hops_2=inputs.first_hops_2,
            )
            pipeline_array.append(
                _counts_dict(
                    {
                        name: classify_decisions(
                            inputs.decisions,
                            layer.engine,
                            first_hops_for=layer.first_hops_for,
                            complex_rel=layer.complex_rel,
                            siblings=layer.siblings,
                        )
                        for name, layer in layers.items()
                    }
                )
            )
        legs = run_incremental(series, inputs).figure1_series()
        assert legs == run_scratch(series, inputs) == pipeline_array

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_higher_churn_series(self, study, backend, ambient):
        """A fresh, churnier series (not the study default) agrees too."""
        inference = InferenceConfig(num_snapshots=4, snapshot_churn=0.25)
        snapshots, _known = inferred_snapshots(
            study.internet, inference, seed=study.config.seed + 1
        )
        inputs = _inputs(study)
        incremental = run_incremental(snapshots, inputs)
        scratch = run_scratch(snapshots, inputs)
        assert incremental.figure1_series() == scratch


class TestEdgeCases:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_diff_epoch_is_pure_cache_hit(self, study, series, backend, ambient):
        """An identical consecutive snapshot must cost nothing: an empty
        delta, no routing tree built, the previous epoch's counts."""
        doubled = [series[0], series[0].copy(), series[1]]
        inputs = _inputs(study)
        results = run_incremental(doubled, inputs)
        zero = results.epochs[1]
        assert zero.cache_misses == 0
        assert sum(zero.delta.values()) == 0
        assert results.epochs[0].cache_misses > 0
        assert results.epochs[2].cache_misses > 0
        assert zero.figure1 == results.epochs[0].figure1
        assert results.figure1_series() == run_scratch(doubled, inputs)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_total_churn_matches_cold_recompute(self, study, backend, ambient):
        """100% churn: every link dropped or relabeled between epochs,
        and the array series still equals the dict oracle."""
        inference = InferenceConfig(num_snapshots=3, snapshot_churn=1.0)
        snapshots, _known = inferred_snapshots(
            study.internet, inference, seed=study.config.seed + 1
        )
        inputs = _inputs(study)
        incremental = run_incremental(snapshots, inputs)
        assert incremental.figure1_series() == run_scratch(snapshots, inputs)
        for epoch in incremental.epochs[1:]:
            assert sum(epoch.delta.values()) > 0


def _truncate_journal(journal_path, epochs):
    """Keep the header and the first ``epochs`` records, as a crash
    between epochs would leave the journal."""
    header, records = TemporalJournal(journal_path).load()
    os.remove(journal_path)
    truncated = TemporalJournal(journal_path)
    truncated.open_append()
    truncated.write_header(header)
    for record in records[:epochs]:
        truncated.append(record)
    truncated.close()


class TestJournalResume:
    def test_resume_replays_prefix_and_matches_uninterrupted(
        self, study, series, tmp_path
    ):
        inputs = _inputs(study)
        journal_path = os.fspath(tmp_path / "temporal.jsonl")
        full = run_incremental(series, inputs, journal_path=journal_path)
        assert full.resumed_epochs == 0
        header, records = TemporalJournal(journal_path).load()
        assert header["fingerprint"] == series_fingerprint(series, inputs)
        assert len(records) == len(series)

        _truncate_journal(journal_path, 3)
        resumed = run_incremental(
            series, inputs, journal_path=journal_path, resume=True
        )
        assert resumed.resumed_epochs == 3
        assert [epoch.resumed for epoch in resumed.epochs] == [
            True,
            True,
            True,
            False,
            False,
        ]
        assert _epoch_bytes(resumed.figure1_series()) == _epoch_bytes(
            full.figure1_series()
        )
        # The journal is whole again after the resumed run.
        _header, completed = TemporalJournal(journal_path).load()
        assert len(completed) == len(series)

    def test_kill_after_each_epoch_resumes_byte_identical(
        self, study, series, tmp_path
    ):
        """Killed right after epoch k is journaled, for every k, the
        resumed run's series and journal equal the uninterrupted run's."""
        inputs = _inputs(study)
        reference_path = os.fspath(tmp_path / "reference.jsonl")
        reference = run_incremental(series, inputs, journal_path=reference_path)
        _header, reference_records = TemporalJournal(reference_path).load()
        for kept in range(len(series)):
            journal_path = os.fspath(tmp_path / f"killed-{kept}.jsonl")
            run_incremental(series, inputs, journal_path=journal_path)
            _truncate_journal(journal_path, kept + 1)
            resumed = run_incremental(
                series, inputs, journal_path=journal_path, resume=True
            )
            assert resumed.resumed_epochs == kept + 1
            assert _epoch_bytes(resumed.figure1_series()) == _epoch_bytes(
                reference.figure1_series()
            )
            _header, records = TemporalJournal(journal_path).load()
            assert records == reference_records

    def test_resume_refuses_foreign_series(self, study, series, tmp_path):
        inputs = _inputs(study)
        journal_path = os.fspath(tmp_path / "temporal.jsonl")
        run_incremental(series, inputs, journal_path=journal_path)
        inference = InferenceConfig(num_snapshots=len(series), snapshot_churn=0.3)
        other, _known = inferred_snapshots(study.internet, inference, seed=99)
        with pytest.raises(ValueError, match="different snapshot series"):
            run_incremental(
                other, inputs, journal_path=journal_path, resume=True
            )

    def test_journal_records_are_json_lines(self, study, series, tmp_path):
        inputs = _inputs(study)
        journal_path = os.fspath(tmp_path / "temporal.jsonl")
        results = run_incremental(series, inputs, journal_path=journal_path)
        _header, records = TemporalJournal(journal_path).load()
        for record, epoch in zip(records, results.epochs):
            assert record["epoch"] == epoch.index
            assert record["figure1"] == epoch.figure1
            json.dumps(record)  # every record is JSON-serializable
