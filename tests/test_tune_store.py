"""Property tests for the tuner run-history store (repro.tune.store).

The store is the learned tuner's ground truth, so its invariants are
load-bearing: byte-stable round-trips (a re-saved store is the same
file), injective fingerprints (distinct configs never alias), merge as
a commutative + idempotent line-set union (two machines' histories can
be combined in any order, any number of times), and loud typed failure
on any corrupted or truncated record (a silently skipped record would
bias the residual fit).
"""

import dataclasses
import json

import pytest

from repro.schedules import AdvanceFPSchedule, OneFOneBSchedule
from repro.sim import ClusterSpec
from repro.tune.store import (
    STORE_VERSION,
    RunStore,
    StoreCorruptError,
    TuneRecord,
    canonical_json,
    cluster_fingerprint,
    config_fingerprint,
    record_run,
    run_context,
    schedule_label,
    tuner_context,
)

GIB = 2**30


def make_record(m=2, n=1, context="ctx0", measured=0.5, **overrides) -> TuneRecord:
    fields = dict(
        context=context,
        cluster="clu0",
        workload="awd",
        schedule="advance_fp(2)",
        k=4,
        m=m,
        n=n,
        predicted_batch_time=0.4,
        predicted_peak_bytes=1.0e9,
        measured_batch_time=measured,
        measured_peak_bytes=1.2e9,
        oom=False,
        degraded=False,
    )
    fields.update(overrides)
    return TuneRecord(**fields)


def make_spec(**overrides) -> ClusterSpec:
    fields = dict(nodes=2, gpus_per_node=2, memory_bytes=8 * GIB)
    fields.update(overrides)
    return ClusterSpec(**fields)


class TestCanonicalJson:
    def test_key_order_does_not_matter(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_fingerprint_is_stable_hex(self):
        fp = config_fingerprint({"a": 1})
        assert fp == config_fingerprint({"a": 1})
        assert len(fp) == 16
        int(fp, 16)  # hex


class TestRoundTrip:
    def test_append_load_round_trip_is_byte_stable(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        for i, m in enumerate((1, 2, 4)):
            store.append(make_record(m=m, measured=0.5 + 0.01 * i))
        first = path.read_bytes()

        reloaded = RunStore(path)
        assert reloaded.records() == store.records()
        resaved = "".join(r.to_line() + "\n" for r in reloaded.records())
        assert resaved.encode() == first

    def test_record_line_round_trip(self):
        record = make_record()
        assert TuneRecord.from_line(record.to_line()) == record

    def test_oom_record_round_trip(self):
        record = make_record(measured=None, measured_peak_bytes=None, oom=True)
        assert TuneRecord.from_line(record.to_line()) == record

    def test_path_bound_store_writes_through(self, tmp_path):
        path = tmp_path / "sub" / "runs.jsonl"
        store = RunStore(path)
        assert len(store) == 0 and not path.exists()
        assert store.path == path
        store.append(make_record())
        assert path.exists()
        assert len(RunStore(path)) == 1


class TestFingerprints:
    def test_distinct_configs_distinct_fingerprints(self):
        base = make_record()
        seen = {base.fingerprint}
        for variant in (
            make_record(m=4),
            make_record(n=2),
            make_record(context="ctx1"),
        ):
            assert variant.fingerprint not in seen
            seen.add(variant.fingerprint)

    def test_fingerprint_ignores_measurement(self):
        """Same config, different measurement: one fingerprint (the
        store may hold repeated measurements of a config)."""
        assert make_record(measured=0.5).fingerprint == make_record(measured=0.7).fingerprint

    def test_cluster_fingerprint_sensitive_to_every_field(self):
        base = make_spec()
        fps = {cluster_fingerprint(base)}
        for spec in (
            make_spec(nodes=3),
            make_spec(memory_bytes=4 * GIB),
            make_spec(device_speed=(1.0, 1.0, 1.0, 0.5)),
            make_spec(device_memory_bytes=(8 * GIB,) * 3 + (4 * GIB,)),
        ):
            fp = cluster_fingerprint(spec)
            assert fp not in fps
            fps.add(fp)

    def test_run_context_distinguishes_schedule_and_batch(self):
        spec = make_spec()
        a = run_context(spec, "advance_fp(2)", 4, 64, workload="awd")
        b = run_context(spec, "1f1b(v1)", 4, 64, workload="awd")
        c = run_context(spec, "advance_fp(2)", 4, 32, workload="awd")
        assert len({a.context, b.context, c.context}) == 3
        assert a.cluster == b.cluster == c.cluster

    def test_schedule_label(self):
        assert schedule_label(AdvanceFPSchedule(2)) == "advance_fp(2)"
        assert schedule_label(OneFOneBSchedule(versions=1)) == "1f1b(v1)"


class TestMerge:
    def test_merge_commutative(self):
        a = RunStore.from_records([make_record(m=1), make_record(m=2)])
        b = RunStore.from_records([make_record(m=2), make_record(m=4)])
        ab = a.merge(b)
        ba = b.merge(a)
        assert [r.to_line() for r in ab.records()] == [
            r.to_line() for r in ba.records()
        ]
        assert len(ab) == 3  # the shared m=2 record deduplicates

    def test_merge_idempotent(self):
        a = RunStore.from_records([make_record(m=1), make_record(m=2)])
        once = a.merge(a)
        twice = once.merge(a)
        assert [r.to_line() for r in once.records()] == [
            r.to_line() for r in twice.records()
        ]
        assert len(once) == 2

    def test_merge_keeps_distinct_measurements_of_one_config(self):
        a = RunStore.from_records([make_record(measured=0.5)])
        b = RunStore.from_records([make_record(measured=0.7)])
        assert len(a.merge(b)) == 2

    def test_merge_output_is_byte_stable(self, tmp_path):
        a = RunStore.from_records([make_record(m=2), make_record(m=1)])
        b = RunStore.from_records([make_record(m=4)])
        one = [r.to_line() for r in a.merge(b).records()]
        other = [r.to_line() for r in b.merge(a).records()]
        assert one == other


class TestCorruption:
    def test_truncated_line_raises_typed_error(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.append(make_record())
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(StoreCorruptError):
            RunStore(path)

    def test_tampered_fingerprint_raises(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        payload = make_record().to_payload()
        payload["fingerprint"] = "0" * 16
        path.write_text(canonical_json(payload) + "\n")
        with pytest.raises(StoreCorruptError, match="fingerprint"):
            RunStore(path)

    def test_tampered_field_raises(self, tmp_path):
        """Editing a field invalidates the claimed fingerprint."""
        path = tmp_path / "runs.jsonl"
        payload = make_record().to_payload()
        payload["m"] = 16
        path.write_text(canonical_json(payload) + "\n")
        with pytest.raises(StoreCorruptError):
            RunStore(path)

    def test_unknown_and_missing_fields_raise(self):
        good = make_record().to_payload()
        extra = dict(good, bogus=1)
        with pytest.raises(StoreCorruptError, match="unknown"):
            TuneRecord.from_payload(extra)
        short = dict(good)
        del short["m"]
        with pytest.raises(StoreCorruptError, match="missing"):
            TuneRecord.from_payload(short)

    def test_wrong_version_raises(self):
        with pytest.raises(StoreCorruptError, match="version"):
            make_record(version=STORE_VERSION + 1)

    def test_nonsense_values_raise(self):
        with pytest.raises(StoreCorruptError):
            make_record(m=0)
        with pytest.raises(StoreCorruptError):
            make_record(predicted_batch_time=float("inf"))
        with pytest.raises(StoreCorruptError, match="non-OOM"):
            make_record(measured=None)

    def test_error_names_path_and_line(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(make_record().to_line() + "\n" + "{not json\n")
        with pytest.raises(StoreCorruptError, match=r"runs\.jsonl:2"):
            RunStore(path)

    def test_blank_line_raises(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(make_record().to_line() + "\n\n")
        with pytest.raises(StoreCorruptError, match="blank"):
            RunStore(path)


class TestRecordRun:
    def test_record_run_measures_and_appends(self):
        from tests.test_core_predictor import make_profiler

        profiler = make_profiler(batch_size=16, k=2)
        store = RunStore()
        record = record_run(
            profiler, 4, 1, store=store, workload="toy", iterations=1
        )
        assert len(store) == 1 and store.records()[0] == record
        assert record.oom is False
        assert record.measured_batch_time > 0
        assert record.measured_peak_bytes > 0
        assert record.predicted_batch_time > 0
        assert record.k == profiler.partition.num_stages
        assert record.context == tuner_context(profiler, workload="toy").context

    def test_record_line_is_valid_strict_json(self):
        line = make_record().to_line()
        payload = json.loads(line)
        assert payload["version"] == STORE_VERSION
        assert payload["fingerprint"] == make_record().fingerprint
