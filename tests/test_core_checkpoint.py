"""Checkpoint round-trips: a resumed run must continue bit-identically."""

import dataclasses
import io
import json
import struct
import zipfile

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointError, load_trainer, save_trainer
from repro.core.trainer import AvgPipeTrainer
from repro.models.awd_lstm import AWDConfig, build_awd_lstm

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


class TestDamagedCheckpoints:
    """Every load failure is one CheckpointError naming the file and the
    key, and a damaged file never loads a quietly different state."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        """A checkpoint mid-round (a queued delta in flight), its bytes,
        and the re-save of a clean load of it."""
        trainer = self._fresh()
        trainer.train()
        fw, batches = trainer.framework, iter(trainer.loader)
        if fw.round_state()["received"] == 0:
            trainer.step(0, next(batches))
            fw.end_iteration()
        trainer.step(1, next(batches))
        assert len(fw.queue) == 1
        root = tmp_path_factory.mktemp("ckpt")
        path = root / "ckpt.npz"
        save_trainer(trainer, path)
        clean = self._fresh()
        load_trainer(clean, path)
        save_trainer(clean, root / "clean.npz")
        return path.read_bytes(), (root / "clean.npz").read_bytes()

    @staticmethod
    def _fresh():
        return AvgPipeTrainer(
            tiny_awd_spec(), seed=7, max_epochs=1, num_pipelines=2, queue_delay=1
        )

    @staticmethod
    def _positions(size):
        """Byte offsets spread over every member, the central directory
        and the end record."""
        return sorted(set(range(0, size, max(1, size // 48))) | set(range(size - 22, size)))

    def test_truncated_file_raises_checkpoint_error(self, saved, tmp_path):
        blob, _ = saved
        path = tmp_path / "cut.npz"
        for b in self._positions(len(blob)):
            path.write_bytes(blob[:b])
            with pytest.raises(CheckpointError) as info:
                load_trainer(self._fresh(), path)
            assert info.value.path == path and str(path) in str(info.value), b

    def test_flipped_byte_raises_or_loads_the_same_state(self, saved, tmp_path):
        blob, clean = saved
        path, resaved = tmp_path / "flip.npz", tmp_path / "resaved.npz"
        damaged_keys = set()
        for b in self._positions(len(blob)):
            path.write_bytes(blob[:b] + bytes([blob[b] ^ 0xFF]) + blob[b + 1:])
            trainer = self._fresh()
            try:
                load_trainer(trainer, path)
            except CheckpointError as err:
                assert err.path == path, b
                damaged_keys.add(err.key)
                continue
            # A flip the archive does not read (a timestamp, say) is harmless.
            save_trainer(trainer, resaved)
            assert resaved.read_bytes() == clean, b
        # Flips inside array data fail their member's CRC-32, by key.
        assert any(key is not None and key.startswith("model") for key in damaged_keys)

    def test_crc_failure_names_the_member(self, saved, tmp_path):
        blob, _ = saved
        with zipfile.ZipFile(io.BytesIO(blob)) as archive:
            info = next(i for i in archive.infolist() if i.filename.startswith("model1/"))
        name_len, extra_len = struct.unpack("<HH", blob[info.header_offset + 26:][:4])
        # The member's last data byte: the npy header parses, the CRC fails.
        b = info.header_offset + 30 + name_len + extra_len + info.compress_size - 1
        path = tmp_path / "flip.npz"
        path.write_bytes(blob[:b] + bytes([blob[b] ^ 0x01]) + blob[b + 1:])
        with pytest.raises(CheckpointError, match="Bad CRC-32") as info_:
            load_trainer(self._fresh(), path)
        assert info_.value.key == info.filename.removesuffix(".npy")

    def test_missing_keys_are_named(self, saved, tmp_path):
        blob, _ = saved
        path = tmp_path / "ckpt.npz"
        path.write_bytes(blob)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        model_key = next(key for key in arrays if key.startswith("model1/"))
        manifest = json.loads(bytes(arrays["__manifest__"]).decode("utf-8"))
        cases = {
            model_key: {k: v for k, v in arrays.items() if k != model_key},
            "queue0/" + model_key.split("/", 1)[1]: {
                k: v for k, v in arrays.items() if not k.startswith("queue0/")
            },
            "__manifest__": {k: v for k, v in arrays.items() if k != "__manifest__"},
            "alpha": {
                **arrays,
                "__manifest__": np.frombuffer(json.dumps(
                    {k: v for k, v in manifest.items() if k != "alpha"}
                ).encode("utf-8"), dtype=np.uint8),
            },
        }
        for key, kept in cases.items():
            np.savez(path, **kept)
            trainer = self._fresh()
            before = [m.state_dict() for m in trainer.models]
            with pytest.raises(CheckpointError, match="missing") as info:
                load_trainer(trainer, path)
            assert info.value.key == key and info.value.path == path
            # Found before the trainer was touched.
            for state, model in zip(before, trainer.models):
                after = model.state_dict()
                assert all(np.array_equal(state[k], after[k]) for k in state), key

    @pytest.mark.parametrize("config, key, match", [
        # Another hidden size: the first array of another shape.
        (dict(hidden_dim=12), "reference/", "shape"),
        # One more layer: its layers are named differently.
        (dict(num_layers=2), "reference/", "missing"),
    ])
    def test_checkpoint_of_another_model_is_rejected_untouched(
        self, tmp_path, config, key, match
    ):
        spec = tiny_awd_spec()
        other = AWDConfig(vocab_size=10, embed_dim=8, hidden_dim=10, num_layers=1, bptt=6,
                          dropout=0.0, weight_drop=0.0)
        other = dataclasses.replace(other, **config)
        spec = dataclasses.replace(spec, build_model=lambda: build_awd_lstm(other))
        foreign = AvgPipeTrainer(spec, seed=7, max_epochs=1, num_pipelines=2, queue_delay=1)
        foreign.train()
        save_trainer(foreign, tmp_path / "foreign.npz")
        self._assert_rejected_untouched(tmp_path, tmp_path / "foreign.npz", key, match)

    @pytest.mark.parametrize("key, match", [
        ("model1/extra.weight", "not a key of this trainer"),
        ("opt1/99/momentum", "optimizer has"),  # no such parameter
        ("opt1/0/momentum", "shape"),  # not the parameter's shape
    ])
    def test_array_the_trainer_lacks_is_rejected_untouched(self, saved, tmp_path, key, match):
        path = tmp_path / "ckpt.npz"
        path.write_bytes(saved[0])
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        np.savez(path, **arrays, **{key: np.zeros(3, np.float32)})
        self._assert_rejected_untouched(tmp_path, path, key, match)

    @pytest.mark.parametrize("field", ["rng", "optimizer_lrs"])
    def test_per_pipeline_manifest_mismatch_is_rejected_untouched(self, saved, tmp_path, field):
        path = tmp_path / "ckpt.npz"
        path.write_bytes(saved[0])
        with np.load(path) as data:
            manifest = json.loads(bytes(data["__manifest__"]).decode("utf-8"))
        if field == "rng":  # one RNG stream fewer for pipeline 1
            value = [manifest["rng"][0], manifest["rng"][1][:-1]]
        else:
            value = manifest["optimizer_lrs"][:1]
        _rewrite_manifest(path, **{field: value})
        self._assert_rejected_untouched(tmp_path, path, field, "entries|streams")

    def _assert_rejected_untouched(self, tmp_path, path, key, match):
        """Loading ``path`` raises CheckpointError for ``key`` (a prefix)
        and the trainer saves byte-identically before and after."""
        trainer = self._fresh()
        trainer.train()
        save_trainer(trainer, tmp_path / "before.npz")
        with pytest.raises(CheckpointError, match=match) as info:
            load_trainer(trainer, path)
        assert info.value.path == path and info.value.key.startswith(key)
        save_trainer(trainer, tmp_path / "after.npz")
        assert (tmp_path / "after.npz").read_bytes() == (tmp_path / "before.npz").read_bytes()

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
        with pytest.raises(CheckpointError, match="not an npz archive"):
            load_trainer(self._fresh(), path)
        with pytest.raises(CheckpointError, match="not a readable archive") as info:
            load_trainer(self._fresh(), tmp_path / "absent.npz")
        assert info.value.key is None
