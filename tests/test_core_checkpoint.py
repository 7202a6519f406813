"""Checkpoint round-trips: a resumed run must continue bit-identically."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.checkpoint import load_trainer, save_trainer
from repro.core.trainer import AvgPipeTrainer

from tests.test_core_trainers import tiny_awd_spec


def _rewrite_manifest(path, **fields):
    """Overwrite manifest fields of the checkpoint at ``path`` in place."""
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    manifest = json.loads(bytes(arrays["__manifest__"]).decode("utf-8"))
    manifest.update(fields)
    arrays["__manifest__"] = np.frombuffer(json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def _step_epochs(trainer, epochs):
    for _ in range(epochs):
        trainer.max_epochs = 1
        trainer.train()


class TestCheckpointRoundTrip:
    def test_weights_and_reference_restored(self, tmp_path):
        spec = tiny_awd_spec()
        t1 = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=2)
        t1.train()
        path = tmp_path / "ckpt.npz"
        save_trainer(t1, path)

        t2 = AvgPipeTrainer(spec, seed=99, max_epochs=1, num_pipelines=2)
        load_trainer(t2, path)
        for m1, m2 in zip(t1.models, t2.models):
            s1, s2 = m1.state_dict(), m2.state_dict()
            assert all(np.array_equal(s1[k], s2[k]) for k in s1)
        for k in t1.framework.reference:
            assert np.array_equal(t1.framework.reference[k], t2.framework.reference[k])

    def test_resumed_training_matches_uninterrupted(self, tmp_path):
        spec = tiny_awd_spec()
        # Uninterrupted: 2 epochs.
        full = AvgPipeTrainer(spec, seed=0, max_epochs=2, num_pipelines=2)
        full.train()

        # Interrupted after 1 epoch, checkpointed, resumed for 1 more.
        first = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=2)
        first.train()
        path = tmp_path / "ckpt.npz"
        save_trainer(first, path)
        resumed = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=2)
        load_trainer(resumed, path)
        resumed.train()

        # Note: the data loader reshuffles per epoch via its own counter,
        # which both paths advance identically (AWD loader is unshuffled),
        # so every model and the reference must match bit for bit.
        for mf, mr in zip(full.models, resumed.models):
            sf, sr = mf.state_dict(), mr.state_dict()
            for k in sf:
                assert np.array_equal(sf[k], sr[k]), k
        for k in full.framework.reference:
            assert np.array_equal(full.framework.reference[k], resumed.framework.reference[k]), k

    def test_save_load_save_is_byte_identical_with_inflight_round(self, tmp_path):
        """A reload re-serializes to the same file: same array keys in the
        same order, same dtypes and bytes, same manifest — with a
        non-zero accumulator and a queued delta in flight."""
        spec = tiny_awd_spec()
        src = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=2, queue_delay=1)
        src.train()
        fw, batches = src.framework, iter(src.loader)
        # Half a round: pipeline 0's delta has reached the accumulator
        # (the epoch's ragged tail may already have left it there) and
        # pipeline 1's is posted but not yet visible.
        if fw.round_state()["received"] == 0:
            src.step(0, next(batches))
            assert not fw.end_iteration()
        src.step(1, next(batches))
        state = fw.round_state()
        assert state["received"] == 1 and len(fw.queue) == 1
        assert any(np.any(v != 0.0) for v in state["accumulated"].values())

        first, second = tmp_path / "a.npz", tmp_path / "b.npz"
        save_trainer(src, first)
        dst = AvgPipeTrainer(spec, seed=99, max_epochs=1, num_pipelines=2, queue_delay=1)
        load_trainer(dst, first)
        save_trainer(dst, second)

        with np.load(first) as a, np.load(second) as b:
            assert a.files == b.files
            assert any(key.startswith("queue0/") for key in a.files)
            for key in a.files:
                assert a[key].dtype == b[key].dtype, key
                assert a[key].tobytes() == b[key].tobytes(), key
            manifest = lambda f: json.loads(bytes(f["__manifest__"]).decode("utf-8"))
            assert manifest(a) == manifest(b)

    def test_optimizer_state_restored(self, tmp_path):
        spec = tiny_awd_spec()
        t1 = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=2)
        t1.train()
        path = tmp_path / "ckpt.npz"
        save_trainer(t1, path)
        t2 = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=2)
        load_trainer(t2, path)
        s1, s2 = t1.optimizers[0].state_dict(), t2.optimizers[0].state_dict()
        assert s1["lr"] == s2["lr"]
        assert set(s1["state"]) == set(s2["state"])
        for slot in s1["state"]:
            for key in s1["state"][slot]:
                v1, v2 = s1["state"][slot][key], s2["state"][slot][key]
                assert np.allclose(np.asarray(v1), np.asarray(v2))

    def test_asgd_resume_matches_uninterrupted(self, tmp_path):
        """ASGD's step count decides when its tail average starts, so a
        resume must carry it: saved after 7 and 6 steps with t0 = 8, the
        resumed pipelines start averaging on their first and second step."""
        from repro.optim import ASGD

        spec = dataclasses.replace(
            tiny_awd_spec(), make_optimizer=lambda m: ASGD(m.parameters(), lr=0.5, t0=8)
        )
        full = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=2)
        _step_epochs(full, 2)
        first = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=2)
        _step_epochs(first, 1)
        path = tmp_path / "ckpt.npz"
        save_trainer(first, path)
        resumed = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=2)
        load_trainer(resumed, path)
        _step_epochs(resumed, 1)
        for opt_full, opt_resumed in zip(full.optimizers, resumed.optimizers):
            s_full, s_resumed = opt_full.state_dict()["state"], opt_resumed.state_dict()["state"]
            assert set(s_full) == set(s_resumed)
            for slot, entry in s_full.items():
                assert "ax" in entry
                assert set(entry) == set(s_resumed[slot]), slot
                for key, value in entry.items():
                    assert np.array_equal(value, s_resumed[slot][key]), (slot, key)

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        """A save that dies midway (here: after writing one array) must
        leave the previous checkpoint loadable and no ``.tmp`` behind."""
        spec = tiny_awd_spec()
        trainer = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=2)
        path = tmp_path / "ckpt.npz"
        save_trainer(trainer, path)
        before = path.read_bytes()
        trainer.train()
        savez = np.savez

        def dies_midway(file, **arrays):
            first = next(iter(arrays))
            savez(file, **{first: arrays[first]})
            raise OSError("No space left on device")

        monkeypatch.setattr(np, "savez", dies_midway)
        with pytest.raises(OSError, match="No space left"):
            save_trainer(trainer, path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]
        assert path.read_bytes() == before
        restored = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=2)
        load_trainer(restored, path)

    def test_save_keeps_the_npz_suffix_rule_and_file_mode(self, tmp_path):
        trainer = AvgPipeTrainer(tiny_awd_spec(), seed=0, max_epochs=1, num_pipelines=2)
        save_trainer(trainer, tmp_path / "ckpt")  # np.savez appends .npz
        (tmp_path / "plain").write_bytes(b"")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.npz", "plain"]
        mode = lambda name: (tmp_path / name).stat().st_mode & 0o777
        assert mode("ckpt.npz") == mode("plain")

    def test_v2_mean_manifest_still_loads(self, tmp_path):
        """A v2 manifest names its normalization and alpha-auto bit; "mean"
        is the only reference update, and the constructor decides α's rule."""
        spec = tiny_awd_spec()
        path = tmp_path / "ckpt.npz"
        save_trainer(AvgPipeTrainer(spec, seed=0, max_epochs=1), path)
        _rewrite_manifest(path, format=2, update_normalization="mean", alpha_auto=False)
        trainer = AvgPipeTrainer(spec, seed=1, max_epochs=1, num_pipelines=3)
        load_trainer(trainer, path, allow_resize=True)
        trainer.rejoin_pipeline()
        assert trainer.framework.alpha == 0.5 / 3

    def test_sum_normalization_manifest_rejected(self, tmp_path):
        spec = tiny_awd_spec()
        path = tmp_path / "ckpt.npz"
        save_trainer(AvgPipeTrainer(spec, seed=0, max_epochs=1), path)
        _rewrite_manifest(path, format=2, update_normalization="sum")
        with pytest.raises(ValueError, match="update_normalization"):
            load_trainer(AvgPipeTrainer(spec, seed=0, max_epochs=1), path)

    def test_pipeline_count_mismatch_rejected(self, tmp_path):
        spec = tiny_awd_spec()
        t1 = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=2)
        path = tmp_path / "ckpt.npz"
        save_trainer(t1, path)
        t3 = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=3)
        with pytest.raises(ValueError):
            load_trainer(t3, path)


class TestElasticResizeRoundTrip:
    """The recovery path: a checkpoint taken after an eviction restarts
    into a freshly-built larger trainer (`allow_resize=True` shrinks it),
    and the resumed run continues bit-identically."""

    def test_resume_after_eviction_is_bit_identical(self, tmp_path):
        spec = tiny_awd_spec()
        # Reference trajectory: 3 pipelines, evict one after the first
        # epoch, checkpoint, then train one more epoch at N=2.
        full = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=3)
        full.train()
        full.evict_pipeline(2)
        path = tmp_path / "ckpt.npz"
        save_trainer(full, path)
        _step_epochs(full, 1)

        # Recovery: a freshly-built 3-pipeline trainer shrinks to the
        # checkpoint's N=2 on load and must continue identically.
        resumed = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=3)
        load_trainer(resumed, path, allow_resize=True)
        assert resumed.num_pipelines == 2
        assert resumed.framework.alpha == full.framework.alpha
        resumed.train()

        for mf, mr in zip(full.models, resumed.models):
            sf, sr = mf.state_dict(), mr.state_dict()
            for k in sf:
                assert np.array_equal(sf[k], sr[k]), k
        for k in full.framework.reference:
            assert np.array_equal(
                full.framework.reference[k], resumed.framework.reference[k]
            ), k

    @pytest.mark.parametrize("alpha", [None, 0.3])
    def test_alpha_rule_survives_a_round_trip(self, tmp_path, alpha):
        """A load restores α; the rule (automatic or explicit) is the
        constructor's, so evict and rejoin after a resume follow it."""
        spec = tiny_awd_spec()
        path = tmp_path / "ckpt.npz"
        save_trainer(AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=3, alpha=alpha), path)
        resumed = AvgPipeTrainer(spec, seed=1, max_epochs=1, num_pipelines=3, alpha=alpha)
        load_trainer(resumed, path)
        resumed.evict_pipeline(0)
        assert resumed.framework.alpha == (0.5 / 2 if alpha is None else alpha)
        resumed.rejoin_pipeline()
        assert resumed.framework.alpha == (0.5 / 3 if alpha is None else alpha)

    def test_growth_rejected_even_with_allow_resize(self, tmp_path):
        spec = tiny_awd_spec()
        t1 = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=3)
        path = tmp_path / "ckpt.npz"
        save_trainer(t1, path)
        t2 = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=2)
        with pytest.raises(ValueError):
            load_trainer(t2, path, allow_resize=True)

    def test_rng_streams_round_trip(self, tmp_path):
        spec = tiny_awd_spec()
        t1 = AvgPipeTrainer(spec, seed=0, max_epochs=1, num_pipelines=2)
        t1.train()
        path = tmp_path / "ckpt.npz"
        save_trainer(t1, path)
        t2 = AvgPipeTrainer(spec, seed=99, max_epochs=1, num_pipelines=2)
        load_trainer(t2, path)
        for i in range(2):
            assert t1.pipeline_state(i)["rng"] == t2.pipeline_state(i)["rng"]
