"""Synthetic clip generation and the on-disk dataset layout."""

import json

import numpy as np
import pytest

from roboface.lbs import BlendshapeBasis, FaceMesh, LbsRig
from roboface.motionnet import TrainConfig, human_decode, init_params, train
from roboface.synthdata import (
    build_samples,
    load_dataset,
    make_logits,
    make_motion,
    write_dataset,
)


@pytest.fixture()
def rig():
    rng = np.random.default_rng(0)
    fields = tuple(rng.uniform(-1.0, 1.0, 18) for _ in range(3))
    return LbsRig(
        mesh=FaceMesh(rng.uniform(-3.0, 3.0, 18)),
        basis=BlendshapeBasis(("a", "b", "c"), fields),
        mouth_mask=np.array([1, 3]),
    )


class TestMakeMotion:
    def test_shape_and_range(self):
        motion = make_motion(50, 4, 25.0, np.random.default_rng(1))
        assert motion.frames.shape == (50, 4)
        assert motion.fps == 25.0
        assert motion.frames.min() >= 0.0
        assert motion.frames.max() <= 1.0

    def test_tracks_are_smooth(self):
        motion = make_motion(200, 3, 25.0, np.random.default_rng(2))
        steps = np.abs(np.diff(motion.frames, axis=0))
        # 2 Hz ceiling at 25 fps bounds the per-frame slope well below 1.
        assert steps.max() < 0.5

    def test_tracks_actually_move(self):
        motion = make_motion(200, 3, 25.0, np.random.default_rng(3))
        assert motion.frames.std(axis=0).min() > 0.01

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_motion(0, 3, 25.0, np.random.default_rng(0))


class TestMakeLogits:
    def test_shape_and_rate(self):
        motion = make_motion(30, 3, 25.0, np.random.default_rng(1))
        logits = make_logits(motion, class_count=12, seed=4)
        assert logits.frames.shape == (30, 12)
        assert logits.rate_hz == 25.0

    def test_correlated_with_motion(self):
        motion = make_motion(400, 3, 25.0, np.random.default_rng(1))
        logits = make_logits(motion, class_count=12, seed=4, noise=0.0)
        # Noise-free logits are an exact linear image of the coefficients,
        # so regressing them back must reproduce the (centered) motion.
        x = logits.frames
        y = motion.frames - 0.5
        beta, *_ = np.linalg.lstsq(x, y, rcond=None)
        np.testing.assert_allclose(x @ beta, y, atol=1e-8)

    def test_seed_changes_projection(self):
        motion = make_motion(30, 3, 25.0, np.random.default_rng(1))
        a = make_logits(motion, class_count=12, seed=4)
        b = make_logits(motion, class_count=12, seed=5)
        assert not np.array_equal(a.frames, b.frames)


class TestBuildSamples:
    def test_one_sample_per_frame(self, rig):
        motion = make_motion(25, 3, 25.0, np.random.default_rng(1))
        logits = make_logits(motion, class_count=12, seed=2)
        samples = build_samples(rig, motion, logits, style_id=1, window_size=4)
        assert len(samples) == 25
        assert samples[0].window.shape == (4, 12)
        assert samples[0].style_id == 1
        np.testing.assert_array_equal(
            samples[7].target_vertices, human_decode(rig, motion.frames[7])
        )

    def test_rejects_misaligned_clips(self, rig):
        motion = make_motion(25, 3, 25.0, np.random.default_rng(1))
        logits = make_logits(
            make_motion(26, 3, 25.0, np.random.default_rng(2)), 12, seed=0
        )
        with pytest.raises(ValueError, match="aligned"):
            build_samples(rig, motion, logits, 0, 4)


class TestDatasetRoundTrip:
    def test_manifest_layout(self, rig, tmp_path):
        manifest = write_dataset(
            tmp_path, rig, clip_count=3, frame_count=20,
            class_count=12, style_count=2, seed=5,
        )
        entries = json.loads(manifest.read_text())["clips"]
        assert len(entries) == 3
        assert [e["style_id"] for e in entries] == [0, 1, 0]
        for entry in entries:
            assert (tmp_path / entry["logits"]).is_file()
            assert (tmp_path / entry["coeffs"]).is_file()

    def test_load_rebuilds_samples(self, rig, tmp_path):
        write_dataset(
            tmp_path, rig, clip_count=3, frame_count=20,
            class_count=12, style_count=2, seed=5,
        )
        samples, styles = load_dataset(tmp_path, rig, window_size=4)
        assert len(samples) == 60
        assert styles == 2
        assert samples[0].window.shape == (4, 12)

    def test_generation_is_deterministic(self, rig, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            write_dataset(
                d, rig, clip_count=2, frame_count=15,
                class_count=12, style_count=1, seed=9,
            )
        for name in ("clip_0.lbsm", "clip_1.phlg", "manifest.json"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_loaded_samples_train(self, rig, tmp_path):
        write_dataset(
            tmp_path, rig, clip_count=2, frame_count=15,
            class_count=12, style_count=2, seed=3,
        )
        samples, styles = load_dataset(tmp_path, rig, window_size=4)
        params = init_params(
            seed=0, window_size=4, hidden_size=4,
            style_count=styles, output_size=3, class_count=12,
        )
        params, history = train(
            params, rig, samples, TrainConfig(epochs=2, batch_size=8, seed=0)
        )
        assert len(history.train_loss) == 2
        assert history.train_loss[1] < history.train_loss[0]

    @pytest.mark.parametrize("setting, value", [
        ("clip_count", 0), ("frame_count", 0), ("class_count", 0),
        ("style_count", 0), ("clip_count", 1.5), ("frame_count", True),
        ("fps", -5.0), ("fps", 0.0), ("fps", float("nan")), ("seed", -1),
        ("seed", 0.5),
    ])
    def test_refused_setting_writes_nothing(self, rig, tmp_path, setting, value):
        directory = tmp_path / "data"
        with pytest.raises(ValueError, match=setting.split("_")[0]):
            write_dataset(directory, rig, **{setting: value})
        assert not directory.exists()

    @pytest.mark.parametrize("style_id", [1.7, 1.0, -1, "1", True])
    def test_style_id_must_be_an_integer(self, rig, tmp_path, style_id):
        write_dataset(tmp_path, rig, clip_count=1, frame_count=10, class_count=12)
        manifest = tmp_path / "manifest.json"
        entries = json.loads(manifest.read_text())
        entries["clips"][0]["style_id"] = style_id
        manifest.write_text(json.dumps(entries))
        with pytest.raises(ValueError, match="style_id must be a nonnegative integer"):
            load_dataset(tmp_path, rig, window_size=4)

    def test_missing_manifest(self, rig, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path, rig, window_size=4)

    def test_empty_manifest(self, rig, tmp_path):
        (tmp_path / "manifest.json").write_text('{"clips": []}')
        with pytest.raises(ValueError, match="clips"):
            load_dataset(tmp_path, rig, window_size=4)
