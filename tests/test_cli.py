"""End-to-end runs of every CLI subcommand on tiny inputs."""

import argparse
import dataclasses
import inspect
import json
import wave

import numpy as np
import pytest

from roboface.cli import (
    _TRAIN_KEYS,
    _add_pipeline_flags,
    _config_values,
    _pipeline_config,
    _train_config,
    build_parser,
    main,
)
from roboface.formats import (
    load_logits,
    load_motion,
    load_rig,
    save_dense_frames,
    save_motion,
)
from roboface.lbs import MotionSequence, apply_skinning
from roboface.motionnet import TrainConfig, init_params, load_model
from roboface.pipeline import PipelineConfig
from roboface.rigsim import load_config


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Reference rig files plus a tiny trained model, built once."""
    root = tmp_path_factory.mktemp("cli")
    rig_path = root / "face.lbsrig"
    config_path = root / "face_config.json"
    assert main([
        "make-rig", "--out-rig", str(rig_path),
        "--out-config", str(config_path), "--seed", "0",
    ]) == 0

    data_dir = root / "data"
    assert main([
        "make-data", "--rig", str(rig_path), "--out", str(data_dir),
        "--clips", "2", "--frames", "12", "--classes", "32",
        "--styles", "2", "--seed", "1",
    ]) == 0

    model_path = root / "model.mnet"
    assert main([
        "train", "--rig", str(rig_path), "--data", str(data_dir),
        "--out", str(model_path), "--epochs", "2", "--hidden", "4",
        "--batch-size", "8",
    ]) == 0

    logits_path = root / "clip.phlg"
    rng = np.random.default_rng(3)
    from roboface.formats import save_logits

    save_logits(logits_path, 25.0, rng.normal(0.0, 1.0, (15, 32)))
    return {
        "root": root,
        "rig": rig_path,
        "config": config_path,
        "data": data_dir,
        "model": model_path,
        "logits": logits_path,
    }


def make_wav(path, rate=16000, seconds=0.5):
    t = np.arange(int(seconds * rate)) / rate
    pcm = (0.3 * np.sin(2 * np.pi * 250 * t) * 32767).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(rate)
        handle.writeframes(pcm.tobytes())


class TestMakeRig:
    def test_outputs_load(self, workspace):
        rig = load_rig(workspace["rig"])
        config = load_config(workspace["config"])
        assert rig.vertex_count == 4792
        assert rig.blendshape_count == 51
        assert len(config.channels) == 31


class TestMakeData:
    def test_manifest_written(self, workspace):
        manifest = json.loads((workspace["data"] / "manifest.json").read_text())
        assert len(manifest["clips"]) == 2


class TestTrain:
    def test_checkpoint_written(self, workspace):
        assert workspace["model"].stat().st_size > 0

    def test_resume(self, workspace, tmp_path):
        out = tmp_path / "resumed.mnet"
        assert main([
            "train", "--rig", str(workspace["rig"]),
            "--data", str(workspace["data"]), "--out", str(out),
            "--resume", str(workspace["model"]), "--epochs", "1",
        ]) == 0
        assert out.stat().st_size > 0

    def test_model_shape_defaults_are_init_params(self, workspace, tmp_path):
        # Neither --window/--hidden nor a config key: init_params' defaults.
        out = tmp_path / "default_shape.mnet"
        assert main([
            "train", "--rig", str(workspace["rig"]),
            "--data", str(workspace["data"]), "--out", str(out),
            "--epochs", "1",
        ]) == 0
        params, _ = load_model(out)
        defaults = inspect.signature(init_params).parameters
        assert params.window_size == defaults["window_size"].default
        assert params.hidden_size == defaults["hidden_size"].default


class TestExtract:
    def test_wav_to_logits(self, workspace, tmp_path):
        wav = tmp_path / "tone.wav"
        make_wav(wav)
        out = tmp_path / "tone.phlg"
        assert main(["extract", "--audio", str(wav), "--out", str(out)]) == 0
        rate, frames = load_logits(out)
        assert frames.shape[1] == 392
        assert frames.shape[0] > 10

    def test_rejects_wrong_rate(self, tmp_path):
        wav = tmp_path / "fast.wav"
        make_wav(wav, rate=44100)
        with pytest.raises(SystemExit):
            main(["extract", "--audio", str(wav), "--out", str(tmp_path / "x.phlg")])


class TestRetarget:
    def test_recovers_interior_coefficients(self, workspace, tmp_path):
        rig = load_rig(workspace["rig"])
        rng = np.random.default_rng(5)
        theta = rng.uniform(0.1, 0.9, (4, rig.blendshape_count))
        dense = np.stack(
            [apply_skinning(rig, row).positions for row in theta]
        )
        dense_path = tmp_path / "frames.dnsf"
        save_dense_frames(dense_path, dense, 25.0)
        out = tmp_path / "recovered.lbsm"
        assert main([
            "retarget", "--frames", str(dense_path), "--rig",
            str(workspace["rig"]), "--out", str(out),
        ]) == 0
        recovered = load_motion(out)
        # Storage is f32, so recovery is tight but not at solver precision.
        assert np.abs(recovered.frames - theta).max() < 1e-3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_frame(self, workspace, tmp_path, bad):
        rig = load_rig(workspace["rig"])
        dense = np.tile(rig.mesh.positions, (3, 1))
        dense[2, 4] = bad
        dense_path = tmp_path / "frames.dnsf"
        save_dense_frames(dense_path, dense, 25.0)
        out = tmp_path / "recovered.lbsm"
        with pytest.raises(SystemExit, match="frame 2 holds NaN or inf"):
            main([
                "retarget", "--frames", str(dense_path), "--rig",
                str(workspace["rig"]), "--out", str(out),
            ])
        assert not out.exists()


class TestSynth:
    def test_offline_matches_streaming(self, workspace, tmp_path):
        common = [
            "synth", "--logits", str(workspace["logits"]),
            "--model", str(workspace["model"]), "--rig", str(workspace["rig"]),
            "--rig-config", str(workspace["config"]),
        ]
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert main(common + ["--out-servo", str(a), "--mode", "offline"]) == 0
        assert main(common + ["--out-servo", str(b), "--mode", "streaming"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_writes_motion_and_report(self, workspace, tmp_path):
        servo = tmp_path / "servo.bin"
        motion = tmp_path / "motion.lbsm"
        report = tmp_path / "report.json"
        assert main([
            "synth", "--logits", str(workspace["logits"]),
            "--model", str(workspace["model"]), "--rig", str(workspace["rig"]),
            "--rig-config", str(workspace["config"]),
            "--out-servo", str(servo), "--out-motion", str(motion),
            "--report", str(report),
        ]) == 0
        seq = load_motion(motion)
        assert seq.frames.shape == (15, 51)
        loaded = json.loads(report.read_text())
        assert loaded["frames"] == 15
        assert loaded["lookahead_frames"] > 4.0

    def test_flags_override_config_file(self, workspace, tmp_path):
        cfg = tmp_path / "pipe.json"
        cfg.write_text(json.dumps({"style_id": 1}))
        base = [
            "synth", "--logits", str(workspace["logits"]),
            "--model", str(workspace["model"]), "--rig", str(workspace["rig"]),
            "--rig-config", str(workspace["config"]),
        ]
        flagged = tmp_path / "flagged.bin"
        plain = tmp_path / "plain.bin"
        assert main(base + [
            "--out-servo", str(flagged), "--config", str(cfg), "--style-id", "0",
        ]) == 0
        assert main(base + ["--out-servo", str(plain)]) == 0
        assert flagged.read_bytes() == plain.read_bytes()

    def test_rejects_unknown_config_key(self, workspace, tmp_path):
        cfg = tmp_path / "pipe.json"
        cfg.write_text(json.dumps({"tick_rate": 30}))
        with pytest.raises(SystemExit, match="unknown config keys"):
            main([
                "synth", "--logits", str(workspace["logits"]),
                "--model", str(workspace["model"]), "--rig", str(workspace["rig"]),
                "--rig-config", str(workspace["config"]),
                "--out-servo", str(tmp_path / "x.bin"), "--config", str(cfg),
            ])


class TestPipelineSettings:
    """``synth`` and ``bench`` set exactly ``PipelineConfig``'s fields, by
    flag or JSON key, so a value the config derives cannot become a knob."""

    FIELDS = {f.name for f in dataclasses.fields(PipelineConfig)}
    DERIVED = {n for n, v in vars(PipelineConfig).items() if isinstance(v, property)}
    VALUES = {"tick_hz": 50.0, "style_id": 1, "filter_order": 3,
              "filter_cutoff_hz": 6.0}

    @staticmethod
    def subparser(command):
        actions = build_parser()._subparsers._group_actions
        return actions[0].choices[command]

    def test_flag_dests_are_the_fields(self):
        parser = argparse.ArgumentParser()
        _add_pipeline_flags(parser)
        dests = {a.dest for a in parser._actions} - {"help", "config"}
        assert dests == self.FIELDS == set(self.VALUES)
        assert self.DERIVED >= {"filter_spec", "max_unconverged_streak"}
        for command in ("synth", "bench"):
            own = {a.dest for a in self.subparser(command)._actions}
            assert own >= self.FIELDS
            assert not own & self.DERIVED

    @pytest.mark.parametrize("command", ["synth", "bench"])
    def test_flags_and_keys_set_every_field(self, command, tmp_path):
        required = ["--model", "m", "--rig", "r", "--rig-config", "c"]
        if command == "synth":
            required += ["--logits", "l", "--out-servo", "s"]
        parser = self.subparser(command)
        expected = PipelineConfig(**self.VALUES)
        flags = []
        for name, value in self.VALUES.items():
            flags += ["--" + name.replace("_", "-"), str(value)]
        assert _pipeline_config(parser.parse_args(required + flags)) == expected

        cfg = tmp_path / "pipe.json"
        cfg.write_text(json.dumps(self.VALUES))
        args = parser.parse_args(required + ["--config", str(cfg)])
        assert _pipeline_config(args) == expected
        for name in self.DERIVED:
            cfg.write_text(json.dumps({name: 1}))
            args = parser.parse_args(required + ["--config", str(cfg)])
            with pytest.raises(SystemExit, match="unknown config keys"):
                _pipeline_config(args)

    def test_nothing_set_gives_the_defaults(self):
        required = ["--model", "m", "--rig", "r", "--rig-config", "c"]
        args = self.subparser("bench").parse_args(required)
        assert _pipeline_config(args) == PipelineConfig()


class TestTrainSettings:
    """``train`` sets every ``TrainConfig`` field by flag or JSON key, named
    after the field except ``dropout`` for ``dropout_rate``, and leaves a
    field set by neither at ``TrainConfig``'s default."""

    REQUIRED = ["train", "--rig", "r", "--data", "d", "--out", "o"]
    VALUES = {"learning_rate": 3e-3, "weight_decay": 0.0, "epochs": 7,
              "batch_size": 5, "dropout": 0.25, "mouth_weight": 2.5, "seed": 9}
    EXPECTED = TrainConfig(learning_rate=3e-3, weight_decay=0.0, epochs=7,
                           batch_size=5, dropout_rate=0.25, mouth_weight=2.5,
                           seed=9)

    def config(self, argv):
        args = build_parser().parse_args(self.REQUIRED + argv)
        return _train_config(_config_values(args, _TRAIN_KEYS))

    def test_nothing_set_gives_the_defaults(self):
        assert self.config([]) == TrainConfig()

    def test_flags_and_keys_set_every_field(self, tmp_path):
        for f in dataclasses.fields(TrainConfig):
            assert getattr(self.EXPECTED, f.name) != f.default, f.name
        flags = []
        for name, value in self.VALUES.items():
            flags += ["--" + name.replace("_", "-"), str(value)]
        assert self.config(flags) == self.EXPECTED

        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(self.VALUES))
        assert self.config(["--config", str(cfg)]) == self.EXPECTED
        cfg.write_text(json.dumps({"dropout_rate": 0.25}))
        with pytest.raises(SystemExit, match="unknown config keys"):
            self.config(["--config", str(cfg)])


class TestSimulate:
    def test_report_regions(self, workspace, tmp_path):
        rig = load_rig(workspace["rig"])
        motion_path = tmp_path / "ref.lbsm"
        rng = np.random.default_rng(2)
        save_motion(
            motion_path,
            MotionSequence(25.0, rng.uniform(0.0, 0.4, (3, rig.blendshape_count))),
        )
        out = tmp_path / "tracking.json"
        assert main([
            "simulate", "--motion", str(motion_path), "--rig",
            str(workspace["rig"]), "--rig-config", str(workspace["config"]),
            "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert sorted(report) == ["brow", "cheek", "eye", "jaw", "mouth", "nose"]
        for stats in report.values():
            assert stats["frames"] == 3


class TestSmooth:
    def test_filters_motion(self, workspace, tmp_path):
        rig = load_rig(workspace["rig"])
        rng = np.random.default_rng(4)
        motion_path = tmp_path / "raw.lbsm"
        save_motion(
            motion_path,
            MotionSequence(25.0, rng.uniform(0.0, 1.0, (40, rig.blendshape_count))),
        )
        out = tmp_path / "smooth.lbsm"
        assert main([
            "smooth", "--motion", str(motion_path), "--out", str(out),
        ]) == 0
        smoothed = load_motion(out)
        raw = load_motion(motion_path)
        assert smoothed.frames.shape == raw.frames.shape
        assert np.abs(np.diff(smoothed.frames, axis=0)).mean() < np.abs(
            np.diff(raw.frames, axis=0)
        ).mean()


class TestBench:
    def test_prints_json_report(self, workspace, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main([
            "bench", "--model", str(workspace["model"]), "--rig",
            str(workspace["rig"]), "--rig-config", str(workspace["config"]),
            "--frames", "10", "--out", str(out),
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["frames"] == 10
        assert report["model"]["fps"] > 0
        assert json.loads(out.read_text()) == report


class TestExportObj:
    def test_neutral_obj(self, workspace, tmp_path):
        out = tmp_path / "neutral.obj"
        assert main([
            "export-obj", "--rig", str(workspace["rig"]), "--out", str(out),
        ]) == 0
        first = out.read_text().splitlines()[0].split()
        assert first[0] == "v"
        assert len(first) == 4

    def test_motion_sequence(self, workspace, tmp_path):
        rig = load_rig(workspace["rig"])
        motion_path = tmp_path / "m.lbsm"
        save_motion(
            motion_path,
            MotionSequence(25.0, np.zeros((3, rig.blendshape_count))),
        )
        assert main([
            "export-obj", "--rig", str(workspace["rig"]),
            "--out", str(tmp_path / "seq" / "frame.obj"),
            "--motion", str(motion_path),
        ]) == 0
        assert len(list((tmp_path / "seq").glob("*.obj"))) == 3
