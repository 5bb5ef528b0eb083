"""End-to-end runs of every CLI subcommand on tiny inputs."""

import argparse
import dataclasses
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

import roboface
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
from roboface.motionnet import TrainConfig, init_params, load_model, save_model
from roboface.pipeline import PipelineConfig, bench
from roboface.rigsim import build_reference_rig, load_config
from roboface.smoothing import FilterSpec
from roboface.synthdata import write_dataset


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

    @pytest.mark.parametrize("flag, value, message", [
        ("--styles", "0", "style_count must be an integer >= 1, got 0"),
        ("--clips", "0", "clip_count must be an integer >= 1, got 0"),
        ("--frames", "0", "frame_count must be an integer >= 1, got 0"),
        ("--classes", "0", "class_count must be an integer >= 1, got 0"),
        ("--fps", "-5", "fps must be finite and positive, got -5.0"),
        ("--seed", "-1", "seed must be a nonnegative integer, got -1"),
    ])
    def test_refused_setting_writes_nothing(self, workspace, tmp_path, flag,
                                            value, message):
        out = tmp_path / "data"
        with pytest.raises(SystemExit, match=re.escape(message)):
            main(["make-data", "--rig", str(workspace["rig"]), "--out", str(out),
                  flag, value])
        assert not out.exists()

    def test_fault_while_writing_is_not_an_input_error(
        self, workspace, tmp_path, monkeypatch
    ):
        import roboface.synthdata

        def faulty(*args, **kwargs):
            raise ValueError("fault while writing")

        monkeypatch.setattr(roboface.synthdata, "save_motion", faulty)
        with pytest.raises(ValueError, match="fault while writing"):
            main(["make-data", "--rig", str(workspace["rig"]),
                  "--out", str(tmp_path / "data")])


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

    def test_resume_takes_the_checkpoint_window(self, workspace, tmp_path):
        # No --window on resume: the checkpoint's window, not init_params'.
        small = tmp_path / "window4.mnet"
        train_args = ["train", "--rig", str(workspace["rig"]),
                      "--data", str(workspace["data"]), "--epochs", "1"]
        assert main(train_args + ["--out", str(small), "--window", "4",
                                  "--hidden", "4"]) == 0
        out = tmp_path / "resumed.mnet"
        assert main(train_args + ["--out", str(out), "--resume", str(small)]) == 0
        params, _ = load_model(out)
        assert (params.window_size, params.hidden_size) == (4, 4)

    @pytest.mark.parametrize("how", ["flag", "key"])
    def test_resume_refuses_another_hidden_size(self, workspace, tmp_path, how):
        out = tmp_path / "resumed.mnet"
        argv = ["train", "--rig", str(workspace["rig"]),
                "--data", str(workspace["data"]), "--out", str(out),
                "--resume", str(workspace["model"]), "--epochs", "1"]
        if how == "flag":
            argv += ["--hidden", "32"]
        else:
            cfg = tmp_path / "train.json"
            cfg.write_text(json.dumps({"hidden": 32}))
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit, match="checkpoint hidden 4 != requested 32"):
            main(argv)
        assert not out.exists()

    @pytest.mark.parametrize("sizes, message", [
        ({"style_count": 1}, "checkpoint has 1 styles, dataset has 2"),
        ({"class_count": 64}, "checkpoint has 64 classes, dataset has 32"),
        ({"output_size": 50}, "checkpoint has 50 blendshapes, rig has 51"),
    ], ids=["styles", "classes", "blendshapes"])
    def test_resume_refuses_a_dataset_the_checkpoint_cannot_take(
        self, workspace, tmp_path, sizes, message
    ):
        # The workspace dataset has 2 styles and 32 classes; the rig 51
        # blendshapes. A mismatch is refused before any training step.
        shape = {"style_count": 2, "output_size": 51, "class_count": 32, **sizes}
        checkpoint = tmp_path / "other.mnet"
        save_model(checkpoint, init_params(0, window_size=8, hidden_size=4, **shape))
        out = tmp_path / "resumed.mnet"
        with pytest.raises(SystemExit, match=re.escape(message)):
            main(["train", "--rig", str(workspace["rig"]),
                  "--data", str(workspace["data"]), "--out", str(out),
                  "--resume", str(checkpoint), "--epochs", "1"])
        assert not out.exists()

    def test_resume_refuses_a_non_finite_checkpoint(self, workspace, tmp_path):
        # One NaN weight would train NaN for every epoch and still write --out.
        params, adam = load_model(workspace["model"])
        params.head2_bias[0] = np.nan
        checkpoint = tmp_path / "nan.mnet"
        save_model(checkpoint, params, adam)
        out = tmp_path / "resumed.mnet"
        with pytest.raises(SystemExit) as refused:
            main(["train", "--rig", str(workspace["rig"]),
                  "--data", str(workspace["data"]), "--out", str(out),
                  "--resume", str(checkpoint), "--epochs", "1"])
        assert str(refused.value) == "model file: head2_bias holds NaN or inf"
        assert not out.exists()

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

    @pytest.mark.parametrize("values", [{"window": 8.9}, {"epochs": 1.5},
                                        {"batch_size": True}])
    def test_config_file_integers_are_not_cast(self, workspace, tmp_path, values):
        # A fraction or a bool is refused, not truncated to an integer.
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epochs": 1, **values}))
        with pytest.raises(SystemExit, match="window|epochs|batch_size"):
            main([
                "train", "--rig", str(workspace["rig"]),
                "--data", str(workspace["data"]), "--out", str(tmp_path / "m.mnet"),
                "--config", str(cfg),
            ])

    @pytest.mark.parametrize("values", [{"mouth_weight": True},
                                        {"learning_rate": "1e-3"}])
    def test_config_file_reals_are_not_cast(self, workspace, tmp_path, values):
        # A string or a bool is refused, not cast to a float.
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epochs": 1, **values}))
        with pytest.raises(SystemExit, match="mouth_weight|learning_rate"):
            main([
                "train", "--rig", str(workspace["rig"]),
                "--data", str(workspace["data"]), "--out", str(tmp_path / "m.mnet"),
                "--config", str(cfg),
            ])

    @pytest.mark.parametrize("value", ["0.5", True, 1.0, -0.1, float("nan")])
    def test_val_fraction_is_not_cast(self, workspace, tmp_path, value):
        # A string or a bool is refused, not cast; so is a split off [0, 1).
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epochs": 1, "val_fraction": value}))
        with pytest.raises(SystemExit, match=r"val_fraction must lie in \[0, 1\)"):
            main([
                "train", "--rig", str(workspace["rig"]),
                "--data", str(workspace["data"]), "--out", str(tmp_path / "m.mnet"),
                "--config", str(cfg),
            ])


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
    def test_help_lists_no_mode(self, capsys):
        # Every run feeds one windower, so there is no window source to pick.
        with pytest.raises(SystemExit):
            main(["synth", "--help"])
        text = capsys.readouterr().out
        assert "--logits" in text and not re.search(r"--mode\b", text)

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
        assert 0 < loaded["model_p50_ms"] <= loaded["model_p99_ms"]
        assert loaded["model_fps"] > 0

    @pytest.mark.parametrize(
        "frames, message",
        [
            (np.full((4, 32), np.nan), "non-finite"),
            (np.empty((0, 32)), "non-empty"),
            (np.zeros((4, 100)), "100 classes"),
        ],
        ids=["nan", "empty", "classes"],
    )
    def test_refused_input_leaves_servo_file(self, workspace, tmp_path, frames, message):
        from roboface.formats import save_logits

        logits = tmp_path / "bad.phlg"
        save_logits(logits, 25.0, frames)
        servo = tmp_path / "servo.bin"
        servo.write_bytes(b"an earlier run")
        with pytest.raises(SystemExit, match=message):
            main([
                "synth", "--logits", str(logits),
                "--model", str(workspace["model"]), "--rig", str(workspace["rig"]),
                "--rig-config", str(workspace["config"]), "--out-servo", str(servo),
            ])
        assert servo.read_bytes() == b"an earlier run"

    def test_fault_after_first_frame_is_not_an_input_error(
        self, workspace, tmp_path, monkeypatch
    ):
        # A ValueError once frames are written is a fault, not a refused
        # input: it keeps its traceback instead of becoming a message exit.
        import roboface.cli

        def faulty(*args, frame_sink, **kwargs):
            frame_sink.write(b"\xfa")
            raise ValueError("mid-stream fault")

        monkeypatch.setattr(roboface.cli, "run_pipeline", faulty)
        with pytest.raises(ValueError, match="mid-stream fault"):
            main([
                "synth", "--logits", str(workspace["logits"]),
                "--model", str(workspace["model"]), "--rig", str(workspace["rig"]),
                "--rig-config", str(workspace["config"]),
                "--out-servo", str(tmp_path / "servo.bin"),
            ])

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

    @pytest.mark.parametrize("values", [{"style_id": 1.7}, {"filter_order": True}])
    def test_config_file_integers_are_not_cast(self, workspace, tmp_path, values):
        # A fraction or a bool is refused, not truncated to an integer.
        cfg = tmp_path / "pipe.json"
        cfg.write_text(json.dumps(values))
        with pytest.raises(SystemExit, match="style_id|order"):
            main([
                "synth", "--logits", str(workspace["logits"]),
                "--model", str(workspace["model"]), "--rig", str(workspace["rig"]),
                "--rig-config", str(workspace["config"]),
                "--out-servo", str(tmp_path / "x.bin"), "--config", str(cfg),
            ])

    @pytest.mark.parametrize("values", [{"tick_hz": "50"}, {"filter_cutoff_hz": True}])
    def test_config_file_reals_are_not_cast(self, workspace, tmp_path, values):
        # A string or a bool is refused, not cast to a float.
        cfg = tmp_path / "pipe.json"
        cfg.write_text(json.dumps(values))
        with pytest.raises(SystemExit, match="tick_hz|cutoff_hz"):
            main([
                "synth", "--logits", str(workspace["logits"]),
                "--model", str(workspace["model"]), "--rig", str(workspace["rig"]),
                "--rig-config", str(workspace["config"]),
                "--out-servo", str(tmp_path / "x.bin"), "--config", str(cfg),
            ])

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
            with pytest.raises(ValueError, match="unknown config keys"):
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
        with pytest.raises(ValueError, match="unknown config keys"):
            self.config(["--config", str(cfg)])


class TestLibraryDefaults:
    """A flag that restates a library default reads it from its owner: the
    parser default equals the owner's, value and type."""

    CASES = [
        ("make-rig", ["--out-rig", "r", "--out-config", "c"],
         {"seed": (build_reference_rig, "seed")}),
        ("make-data", ["--rig", "r", "--out", "o"],
         {"clips": (write_dataset, "clip_count"),
          "frames": (write_dataset, "frame_count"),
          "fps": (write_dataset, "fps"),
          "classes": (write_dataset, "class_count"),
          "styles": (write_dataset, "style_count"),
          "seed": (write_dataset, "seed")}),
        ("smooth", ["--motion", "m", "--out", "o"],
         {"order": (FilterSpec, "order"), "cutoff_hz": (FilterSpec, "cutoff_hz")}),
        ("bench", ["--model", "m", "--rig", "r", "--rig-config", "c"],
         {"frames": (bench, "n_frames"), "seed": (bench, "seed")}),
    ]

    @staticmethod
    def owner_default(owner, name):
        if dataclasses.is_dataclass(owner):
            return {f.name: f.default for f in dataclasses.fields(owner)}[name]
        return inspect.signature(owner).parameters[name].default

    @pytest.mark.parametrize("command, required, owners", CASES,
                             ids=[case[0] for case in CASES])
    def test_parser_defaults_are_the_owners(self, command, required, owners):
        args = build_parser().parse_args([command] + required)
        for dest, (owner, name) in owners.items():
            expected = self.owner_default(owner, name)
            assert getattr(args, dest) == expected, dest
            assert type(getattr(args, dest)) is type(expected), dest


class TestNoAbbreviations:
    """A flag is matched only when spelled out, so a removed or mistyped flag
    is a usage error instead of binding to another flag."""

    @pytest.mark.parametrize("argv", [
        ["train", "--rig", "r", "--data", "d", "--out", "o", "--ep", "3"],
        ["synth", "--logits", "l", "--model", "m", "--rig", "r",
         "--rig-config", "c", "--out-servo", "s", "--mode", "streaming"],
    ], ids=["train-ep", "synth-mode"])
    def test_prefix_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


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

    @pytest.mark.parametrize("shape, message", [
        ((0, 51), "reference motion has no frames"),
        ((3, 50), "reference motion has 50 blendshapes, rig has 51"),
    ], ids=["no-frames", "blendshape-count"])
    def test_bad_motion_exits_with_the_reason(self, workspace, tmp_path, shape, message):
        motion_path = tmp_path / "ref.lbsm"
        save_motion(motion_path, MotionSequence(25.0, np.zeros(shape)))
        out = tmp_path / "tracking.json"
        with pytest.raises(SystemExit, match=message):
            main([
                "simulate", "--motion", str(motion_path), "--rig",
                str(workspace["rig"]), "--rig-config", str(workspace["config"]),
                "--out", str(out),
            ])
        assert not out.exists()


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


    def test_cutoff_past_nyquist_exits_with_the_reason(self, tmp_path):
        motion_path = tmp_path / "raw.lbsm"
        save_motion(motion_path, MotionSequence(25.0, np.zeros((4, 51))))
        out = tmp_path / "smooth.lbsm"
        with pytest.raises(SystemExit, match=re.escape(
            "cutoff_hz must lie in (0, 12.5) Hz, got 20.0"
        )):
            main(["smooth", "--motion", str(motion_path), "--out", str(out),
                  "--cutoff-hz", "20"])
        assert not out.exists()


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

    @pytest.mark.parametrize("frames", ["0", "-2"])
    def test_refused_frame_count_writes_nothing(self, workspace, tmp_path, frames):
        out = tmp_path / "bench.json"
        with pytest.raises(SystemExit, match="n_frames must be an integer >= 1"):
            main([
                "bench", "--model", str(workspace["model"]), "--rig",
                str(workspace["rig"]), "--rig-config", str(workspace["config"]),
                "--frames", frames, "--out", str(out),
            ])
        assert not out.exists()

    def test_fault_mid_run_is_not_an_input_error(
        self, workspace, tmp_path, monkeypatch
    ):
        import roboface.pipeline

        def faulty(*args, **kwargs):
            raise ValueError("mid-run fault")

        monkeypatch.setattr(roboface.pipeline, "run_pipeline", faulty)
        with pytest.raises(ValueError, match="mid-run fault"):
            main([
                "bench", "--model", str(workspace["model"]), "--rig",
                str(workspace["rig"]), "--rig-config", str(workspace["config"]),
                "--frames", "10",
            ])


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


@pytest.fixture(scope="module")
def corrupt(workspace, tmp_path_factory):
    """One truncated or corrupt file per kind a subcommand reads, next to
    the valid workspace files."""
    root = tmp_path_factory.mktemp("corrupt")
    files = {"good_rig": workspace["rig"], "config": workspace["config"],
             "logits": workspace["logits"]}

    def truncated(name, source, cut):
        files[name] = root / name
        files[name].write_bytes(source.read_bytes()[:-cut])

    truncated("rig", workspace["rig"], 7)
    truncated("model", workspace["model"], 10)
    motion = root / "motion.lbsm"
    save_motion(motion, MotionSequence(25.0, np.zeros((3, 51))))
    files["motion_ok"] = motion
    truncated("motion", motion, 5)

    doc = json.loads(workspace["config"].read_text())
    del doc["vertex_count"]
    files["bad_config"] = root / "bad_config.json"
    files["bad_config"].write_text(json.dumps(doc))

    files["wav"] = root / "speech.wav"
    files["wav"].write_bytes(b"not audio at all")
    files["frames"] = root / "frames.dnsf"
    save_dense_frames(files["frames"], np.zeros((1, 9)), 25.0)

    files["data"] = root / "data"
    shutil.copytree(workspace["data"], files["data"])
    manifest = json.loads((files["data"] / "manifest.json").read_text())
    coeffs = files["data"] / manifest["clips"][-1]["coeffs"]
    coeffs.write_bytes(coeffs.read_bytes()[:-5])
    return files


class TestCorruptInput:
    """Each subcommand that reads a file refuses a truncated or corrupt one
    by exiting with the loader's message, before it writes anything."""

    CASES = {
        "make-data": (["--rig", "{rig}", "--out", "{out}"], "truncated rig file"),
        "extract": (["--audio", "{wav}", "--out", "{out}"],
                    "not a WAV file: file does not start with RIFF id"),
        "retarget": (["--frames", "{frames}", "--rig", "{rig}", "--out", "{out}"],
                     "truncated rig file"),
        "train": (["--rig", "{good_rig}", "--data", "{data}", "--out", "{out}",
                   "--epochs", "1"], "truncated motion file"),
        "synth": (["--logits", "{logits}", "--model", "{model}",
                   "--rig", "{good_rig}", "--rig-config", "{config}",
                   "--out-servo", "{out}"], "truncated model file"),
        "simulate": (["--motion", "{motion_ok}", "--rig", "{good_rig}",
                      "--rig-config", "{bad_config}", "--out", "{out}"],
                     "rig config lacks key 'vertex_count'"),
        "smooth": (["--motion", "{motion}", "--out", "{out}"],
                   "truncated motion file"),
        "bench": (["--model", "{model}", "--rig", "{good_rig}",
                   "--rig-config", "{config}", "--frames", "10", "--out", "{out}"],
                  "truncated model file"),
        "export-obj": (["--rig", "{good_rig}", "--motion", "{motion}",
                        "--out", "{out}/frame.obj"], "truncated motion file"),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_refused_with_the_loaders_message(self, corrupt, tmp_path, command):
        flags, message = self.CASES[command]
        out = tmp_path / "out"
        if command == "synth":  # an earlier run's servo file keeps its bytes
            out.write_bytes(b"an earlier run")
        argv = [command] + [flag.format(out=out, **corrupt) for flag in flags]
        with pytest.raises(SystemExit, match=re.escape(message)) as refused:
            main(argv)
        assert str(refused.value) == message
        if command == "synth":
            assert out.read_bytes() == b"an earlier run"
        else:
            assert not out.exists()

    def test_module_run_prints_one_line_and_no_traceback(self, corrupt, tmp_path):
        src = Path(roboface.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "roboface", "retarget", "--frames",
             str(corrupt["frames"]), "--rig", str(corrupt["rig"]),
             "--out", str(tmp_path / "out.lbsm")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 1
        assert done.stderr == "truncated rig file\n"
        assert "Traceback" not in done.stdout
        assert not (tmp_path / "out.lbsm").exists()

    def test_missing_input_exits_with_one_line(self, tmp_path):
        # A path that does not exist is refused like a corrupt file: status
        # 1, the reason on one line, nothing written.
        src = Path(roboface.__file__).resolve().parents[1]
        out = tmp_path / "x.lbsm"
        done = subprocess.run(
            [sys.executable, "-m", "roboface", "smooth", "--motion",
             "/nonexistent.lbsm", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 1
        assert done.stderr.endswith("No such file or directory: '/nonexistent.lbsm'\n")
        assert done.stderr.count("\n") == 1
        assert not out.exists()


class TestSettingRefusals:
    """A bad setting, from a flag or the ``--config`` file, is refused like a
    bad input file: the reason on one line, nothing written."""

    BASE = {
        "train": ["--rig", "{rig}", "--data", "{data}", "--out", "{out}"],
        "synth": ["--logits", "{logits}", "--model", "{model}", "--rig", "{rig}",
                  "--rig-config", "{config}", "--out-servo", "{out}"],
        "bench": ["--model", "{model}", "--rig", "{rig}", "--rig-config",
                  "{config}", "--frames", "10", "--out", "{out}"],
    }

    @pytest.mark.parametrize("command, flags, message", [
        ("train", ["--epochs", "0"], "epochs must be an integer >= 1, got 0"),
        ("train", ["--window", "3"],
         "window size must be a power of two of at least 2, got 3"),
        ("bench", ["--tick-hz", "-1"], "tick_hz must be finite and positive, got -1.0"),
        ("synth", ["--filter-order", "0"],
         "order must be an integer of at least 1, got 0"),
        ("train", ["--config", "{missing}"], "No such file or directory"),
        ("synth", ["--config", "{not_json}"], "Expecting value: line 1 column 1"),
        ("bench", ["--config", "{not_object}"],
         "config file must hold a JSON object, got list"),
    ], ids=["epochs", "window", "tick_hz", "filter_order", "missing_config",
            "config_not_json", "config_not_object"])
    def test_refused_on_one_line(self, workspace, tmp_path, command, flags, message):
        (tmp_path / "not.json").write_text("epochs = 1\n")
        (tmp_path / "list.json").write_text("[1, 2]\n")
        names = {**workspace, "out": tmp_path / "out",
                 "missing": tmp_path / "missing.json",
                 "not_json": tmp_path / "not.json",
                 "not_object": tmp_path / "list.json"}
        argv = [command] + [
            flag.format(**names) for flag in self.BASE[command] + flags
        ]
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert message in str(refused.value)
        assert "\n" not in str(refused.value)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flags", [
        ("bench", ["--config", "{dir}"]),
        ("synth", ["--logits", "{dir}"]),
        ("synth", ["--out-servo", "{dir}"]),
    ], ids=["bench_config", "synth_logits", "synth_out_servo"])
    def test_directory_is_refused_on_one_line(self, workspace, tmp_path, command, flags):
        # Any OSError on a path the command opens is a refused input, not
        # only a missing file.
        names = {**workspace, "out": tmp_path / "out", "dir": tmp_path / "dir"}
        names["dir"].mkdir()
        argv = [command] + [
            flag.format(**names) for flag in self.BASE[command] + flags
        ]
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert "Is a directory" in str(refused.value)
        assert "\n" not in str(refused.value)
        assert not (tmp_path / "out").exists()
        assert not any(names["dir"].iterdir())

    @pytest.mark.parametrize("manifest, message", [
        ({}, "manifest lacks key 'clips'"),
        ({"clips": [{"logits": "clip_0.phlg", "style_id": 0}]},
         "manifest lacks key 'coeffs'"),
        ([1, 2], "manifest: 'clips' must sit in a JSON object, got list"),
    ], ids=["no_clips", "clip_without_coeffs", "not_an_object"])
    def test_malformed_manifest_is_refused(self, workspace, tmp_path, manifest, message):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        (data / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "m.mnet"
        with pytest.raises(SystemExit) as refused:
            main(["train", "--rig", str(workspace["rig"]), "--data", str(data),
                  "--out", str(out), "--epochs", "1"])
        assert str(refused.value) == message
        assert not out.exists()

    def test_module_run_prints_one_line_for_a_missing_config(self, workspace, tmp_path):
        src = Path(roboface.__file__).resolve().parents[1]
        out = tmp_path / "m.mnet"
        done = subprocess.run(
            [sys.executable, "-m", "roboface", "train", "--rig", str(workspace["rig"]),
             "--data", str(workspace["data"]), "--out", str(out),
             "--config", "/nonexistent.json"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 1
        assert done.stderr.endswith("No such file or directory: '/nonexistent.json'\n")
        assert done.stderr.count("\n") == 1
        assert not out.exists()
