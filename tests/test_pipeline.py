"""Servo wire format, sinks, and the offline/streaming orchestrator."""

import copy
import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from test_golden import CORE_TYPES, cpu_flags, loads_openblas
from test_rig_properties import CLASSES, small_rigs

import roboface
from roboface import frontend, pipeline
from roboface.frontend import PhonemeLogitStream, make_windows, window_at
from roboface.lbs import BlendCoefficients, BlendshapeBasis, LbsRig
from roboface.motionnet import (
    TrainConfig,
    TrainingSample,
    _run_forward,
    forward,
    forward_rows,
    init_params,
    named_arrays,
    train,
)
from roboface.pipeline import (
    FileSink,
    LoopbackSink,
    PipelineConfig,
    ServoFrame,
    SYNC_BYTE,
    _ticks,
    bench,
    decode_frame,
    encode_frame,
    run_pipeline,
)
from roboface.retarget import project_sequence, transfer_coefficients
from roboface.rigsim import _kinematics, build_reference_rig, solve_ik
from roboface.smoothing import FilterSpec
from roboface.synthdata import make_logits, make_motion


@pytest.fixture(scope="module")
def reference():
    return build_reference_rig(seed=0)


@pytest.fixture(scope="module")
def params():
    return init_params(
        seed=1,
        window_size=8,
        hidden_size=16,
        style_count=4,
        output_size=51,
        class_count=392,
    )


def random_logits(frames, seed=7, classes=392):
    return np.random.default_rng(seed).normal(0.0, 1.0, (frames, classes))


def record_thetas(monkeypatch) -> list:
    """Wraps the tick's ``forward_rows``; returns the list of its outputs."""
    thetas = []

    def recorded(plan, rows, style_id):
        theta = forward_rows(plan, rows, style_id)
        thetas.append(theta)
        return theta

    monkeypatch.setattr(pipeline, "forward_rows", recorded)
    return thetas


class StubSolver:
    """IK stand-in for ``BoxLeastSquares.solve``: returns ``x`` and pops each
    tick's converged flag from ``converged``, or reports convergence once it
    is empty."""

    def __init__(self, x, converged=()):
        self.x = x
        self.converged = list(converged)

    def solve(self, c, const, x0=None):
        return self.x, 1.0, self.converged.pop(0) if self.converged else True, 500


class TestServoFrame:
    def test_zero_frame_golden_bytes(self):
        frame = ServoFrame(0, tuple([0] * 31))
        data = encode_frame(frame)
        expected = bytes([0xFA, 0x00, 0x00, 0x1F]) + bytes(62) + bytes([0xE7])
        assert data == expected

    def test_known_frame_bytes(self):
        # counter 0x0102 LE, pulses 1500 = 0x05DC and 2000 = 0x07D0.
        frame = ServoFrame(0x0102, (1500, 2000))
        expected = bytes([0xFA, 0x02, 0x01, 0x02, 0xDC, 0x05, 0xD0, 0x07, 0x49])
        assert encode_frame(frame) == expected

    def test_byte_sum_is_zero_mod_256(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            frame = ServoFrame(
                int(rng.integers(0, 65536)),
                tuple(int(p) for p in rng.integers(0, 65536, 31)),
            )
            assert sum(encode_frame(frame)) % 256 == 0

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            frame = ServoFrame(
                int(rng.integers(0, 65536)),
                tuple(int(p) for p in rng.integers(500, 2500, 31)),
            )
            assert decode_frame(encode_frame(frame)) == frame

    def test_decode_rejects_bad_sync(self):
        data = bytearray(encode_frame(ServoFrame(3, (1500,) * 31)))
        data[0] = 0xFB
        with pytest.raises(ValueError, match="sync"):
            decode_frame(bytes(data))

    def test_decode_rejects_corrupted_payload(self):
        data = bytearray(encode_frame(ServoFrame(3, (1500,) * 31)))
        data[10] ^= 0x01
        with pytest.raises(ValueError, match="checksum"):
            decode_frame(bytes(data))

    def test_decode_rejects_corrupted_checksum(self):
        data = bytearray(encode_frame(ServoFrame(3, (1500,) * 31)))
        data[-1] ^= 0x80
        with pytest.raises(ValueError, match="checksum"):
            decode_frame(bytes(data))

    def test_decode_rejects_truncation(self):
        data = encode_frame(ServoFrame(3, (1500,) * 31))
        with pytest.raises(ValueError):
            decode_frame(data[:-1])
        with pytest.raises(ValueError):
            decode_frame(data[:3])

    def test_frame_validation(self):
        with pytest.raises(ValueError):
            ServoFrame(65536, (1500,) * 31)
        with pytest.raises(ValueError):
            ServoFrame(-1, (1500,) * 31)
        with pytest.raises(ValueError):
            ServoFrame(0, ())
        with pytest.raises(ValueError):
            ServoFrame(0, (65536,))
        with pytest.raises(ValueError):
            ServoFrame(0, (-1,))

    def test_sync_byte_value(self):
        assert SYNC_BYTE == 0xFA


class TestSinks:
    def test_file_sink_matches_loopback(self, tmp_path):
        frames = [ServoFrame(i, (1500 + i,) * 31) for i in range(5)]
        loop = LoopbackSink()
        path = tmp_path / "servo.bin"
        path.write_bytes(b"an earlier run")
        with FileSink(path) as sink:
            # Nothing is opened or truncated before the first write.
            assert not sink.written
            assert path.read_bytes() == b"an earlier run"
            for frame in frames:
                data = encode_frame(frame)
                sink.write(data)
                loop.write(data)
        assert path.read_bytes() == bytes(loop.data)

    def test_loopback_reparses_stream(self):
        frames = [ServoFrame(i, tuple(range(100 + i, 131 + i))) for i in range(7)]
        sink = LoopbackSink()
        for frame in frames:
            sink.write(encode_frame(frame))
        assert sink.frames() == frames

    def test_loopback_partial_trailing_frame_raises_value_error(self):
        frames = [ServoFrame(i, (1500 + i,) * 31) for i in range(3)]
        stream = b"".join(encode_frame(frame) for frame in frames)
        size = len(stream) // 3
        for cut in range(1, size):
            sink = LoopbackSink()
            sink.write(stream[: 2 * size + cut])
            with pytest.raises(ValueError):
                sink.frames()


class TestPipelineConfig:
    def test_default_is_consistent(self):
        config = PipelineConfig()
        assert config.tick_hz == 25.0
        assert config.frame_budget_ms == 40.0
        assert config.filter_spec == FilterSpec(order=5, cutoff_hz=7.0, sample_hz=25.0)
        assert config.max_unconverged_streak == 25

    def test_budget_is_one_tick_period(self):
        for tick_hz in (25.0, 50.0, 30.0, 29.5):
            config = PipelineConfig(tick_hz=tick_hz, filter_order=3)
            assert config.frame_budget_ms == 1000.0 / tick_hz
            assert config.filter_spec == FilterSpec(3, 7.0, tick_hz)
            assert config.max_unconverged_streak == math.ceil(tick_hz)
        for derived in ("frame_budget_ms", "filter_spec", "max_unconverged_streak"):
            with pytest.raises(TypeError):
                PipelineConfig(**{derived: getattr(PipelineConfig(), derived)})

    def test_other_rates_allowed(self):
        config = PipelineConfig(tick_hz=50.0)
        assert config.frame_budget_ms == 20.0
        assert config.filter_spec.sample_hz == 50.0

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            PipelineConfig(style_id=-1)
        for style_id in (1.7, True, 1.0):
            with pytest.raises(ValueError, match="style_id"):
                PipelineConfig(style_id=style_id)
        for order in (True, 2.5):
            with pytest.raises(ValueError, match="order"):
                PipelineConfig(filter_order=order)
        assert PipelineConfig(style_id=np.int64(1), filter_order=np.int32(3))
        for tick_hz in (float("nan"), float("inf"), 0.0, -1.0, "50", True, 10**400):
            with pytest.raises(ValueError, match="tick_hz"):
                PipelineConfig(tick_hz=tick_hz)
        for cutoff in (True, "7.0"):
            with pytest.raises(ValueError, match="cutoff_hz"):
                PipelineConfig(filter_cutoff_hz=cutoff)
        assert PipelineConfig(tick_hz=np.float32(50.0), filter_cutoff_hz=np.int64(5))
        with pytest.raises(ValueError, match="order"):
            PipelineConfig(filter_order=0)
        with pytest.raises(ValueError, match="cutoff"):
            PipelineConfig(tick_hz=10.0)


class TestRunPipeline:
    def test_offline_equals_streaming(self, reference, params):
        rig, config_r = reference
        frames = random_logits(40)
        sink_a, sink_b = LoopbackSink(), LoopbackSink()
        run_pipeline(
            PipelineConfig(), params, rig, config_r, frames,
            mode="offline", frame_sink=sink_a,
        )
        run_pipeline(
            PipelineConfig(), params, rig, config_r, frames,
            mode="streaming", frame_sink=sink_b,
        )
        assert bytes(sink_a.data) == bytes(sink_b.data)
        assert len(sink_a.data) == 40 * (4 + 2 * 31 + 1)

    def test_repeat_runs_are_bitwise_identical(self, reference, params):
        rig, config_r = reference
        frames = random_logits(15, seed=3)
        a = run_pipeline(PipelineConfig(), params, rig, config_r, frames)
        b = run_pipeline(PipelineConfig(), params, rig, config_r, frames)
        assert [f.pulses for f in a.servo_frames] == [f.pulses for f in b.servo_frames]
        np.testing.assert_array_equal(a.motion.frames, b.motion.frames)

    def test_one_servo_frame_per_input_frame(self, reference, params):
        rig, config_r = reference
        result = run_pipeline(
            PipelineConfig(), params, rig, config_r, random_logits(13)
        )
        assert result.report.frames == 13
        assert [f.frame_counter for f in result.servo_frames] == list(range(13))

    def test_constant_input_holds_pulses_constant(self, reference, params):
        rig, config_r = reference
        frame = np.random.default_rng(5).normal(0.0, 1.0, 392)
        result = run_pipeline(
            PipelineConfig(), params, rig, config_r, np.tile(frame, (20, 1))
        )
        pulses = np.array([f.pulses for f in result.servo_frames])
        assert np.all(pulses == pulses[0])

    def test_pulses_stay_within_calibration(self, reference, params):
        rig, config_r = reference
        result = run_pipeline(
            PipelineConfig(), params, rig, config_r, random_logits(25, seed=11)
        )
        lows = np.array([ch.pulse_us[0] for ch in config_r.channels])
        highs = np.array([ch.pulse_us[1] for ch in config_r.channels])
        pulses = np.array([f.pulses for f in result.servo_frames])
        assert np.all(pulses >= np.minimum(lows, highs))
        assert np.all(pulses <= np.maximum(lows, highs))

    def test_motion_output_is_filtered_coefficients(self, reference, params):
        rig, config_r = reference
        result = run_pipeline(
            PipelineConfig(), params, rig, config_r, random_logits(18, seed=2)
        )
        assert result.motion.frames.shape == (18, 51)
        assert result.motion.fps == 25.0
        assert result.motion.frames.min() >= 0.0
        assert result.motion.frames.max() <= 1.0

    def test_lookahead_report(self, reference, params):
        rig, config_r = reference
        result = run_pipeline(
            PipelineConfig(), params, rig, config_r, random_logits(10)
        )
        report = result.report
        assert report.window_lookahead_frames == 4.0
        assert 1.0 < report.filter_delay_frames < 2.5
        assert report.lookahead_frames == (
            report.window_lookahead_frames + report.filter_delay_frames
        )
        as_dict = report.to_dict()
        assert as_dict["lookahead_frames"] == report.lookahead_frames
        assert as_dict["frames"] == 10
        assert 1 <= as_dict["ik_iterations_p50"] <= as_dict["ik_iterations_max"]

    def test_report_dict_key_order(self, reference, params):
        """``synth --report`` writes the report's keys in this order."""
        rig, config_r = reference
        result = run_pipeline(PipelineConfig(), params, rig, config_r, random_logits(4))
        as_dict = result.report.to_dict()
        assert list(as_dict) == [
            "frames", "over_budget", "unconverged_ticks", "ik_iterations_p50",
            "ik_iterations_max", "tick_p50_ms", "tick_p99_ms", "tick_max_ms",
            "model_p50_ms", "model_p99_ms", "model_fps",
            "window_lookahead_frames", "filter_delay_frames", "lookahead_frames",
        ]
        assert as_dict == {key: getattr(result.report, key) for key in as_dict}

    def test_tick_time_includes_the_window_stage(self, reference, params, monkeypatch):
        # A tick is timed from the previous frame's emission, so a slow
        # windower shows in the tick times.
        rig, config_r = reference
        push = frontend.StreamingWindower.push

        def slow_push(self, frame):
            time.sleep(0.002)
            return push(self, frame)

        monkeypatch.setattr(frontend.StreamingWindower, "push", slow_push)
        result = run_pipeline(PipelineConfig(), params, rig, config_r, random_logits(20))
        assert result.report.tick_p50_ms >= 2.0

    def test_model_time_is_the_kernel_inside_the_tick(
        self, reference, params, monkeypatch
    ):
        # The report's model row times forward_rows alone: a slow windower
        # leaves it alone, a slow kernel shows.
        rig, config_r = reference
        push = frontend.StreamingWindower.push

        def slow_push(self, frame):
            time.sleep(0.002)
            return push(self, frame)

        monkeypatch.setattr(frontend.StreamingWindower, "push", slow_push)
        report = run_pipeline(
            PipelineConfig(), params, rig, config_r, random_logits(20)
        ).report
        assert report.model_p50_ms < 2.0
        monkeypatch.undo()

        def slow_forward_rows(plan, rows, style_id):
            time.sleep(0.002)
            return forward_rows(plan, rows, style_id)

        monkeypatch.setattr(pipeline, "forward_rows", slow_forward_rows)
        report = run_pipeline(
            PipelineConfig(), params, rig, config_r, random_logits(20)
        ).report
        assert report.model_p50_ms >= 2.0
        assert report.model_p99_ms >= report.model_p50_ms
        assert 0 < report.model_fps <= 500.0

    def test_ik_iterations_are_the_solver_counts(self, reference, params):
        rig, config_r = reference
        frames = random_logits(12, seed=4)
        result = run_pipeline(PipelineConfig(), params, rig, config_r, frames)
        kin = _kinematics(config_r, rig)
        solver = kin.landmark_solver
        warm, counts = None, []
        for smoothed in result.motion.frames:
            warm, _, _, iterations = solver.solve(
                *kin.coefficient_problem(smoothed), warm
            )
            counts.append(iterations)
        assert result.report.ik_iterations_p50 == float(np.median(counts))
        assert result.report.ik_iterations_max == max(counts)

    def test_identity_source_rig_matches_no_source(self, reference, params):
        rig, config_r = reference
        frames = random_logits(8, seed=9)
        plain = run_pipeline(PipelineConfig(), params, rig, config_r, frames)
        routed = run_pipeline(
            PipelineConfig(), params, rig, config_r, frames, source_rig=rig
        )
        assert [f.pulses for f in plain.servo_frames] == [
            f.pulses for f in routed.servo_frames
        ]

    def test_source_rig_reorders_before_ik(self, reference, params):
        rig, config_r = reference
        reversed_names = tuple(reversed(rig.basis.names))
        source = LbsRig(
            mesh=rig.mesh,
            basis=BlendshapeBasis(reversed_names, rig.basis.displacements[::-1]),
            mouth_mask=rig.mouth_mask,
            landmark_groups=rig.landmark_groups,
        )
        frames = random_logits(3, seed=13)
        plain = run_pipeline(PipelineConfig(), params, rig, config_r, frames)
        routed = run_pipeline(
            PipelineConfig(), params, rig, config_r, frames, source_rig=source
        )
        # Same model output either way; the transfer only renames channels.
        np.testing.assert_array_equal(plain.motion.frames, routed.motion.frames)
        assert plain.servo_frames != routed.servo_frames

        # First-tick oracle: reorder the filtered coefficients by name and
        # solve the same box least-squares problem directly.
        kin = _kinematics(config_r, rig)
        rows = kin.rows
        order = [reversed_names.index(name) for name in rig.basis.names]
        robot_theta = routed.motion.frames[0][order]
        target = robot_theta @ rig.basis.matrix[:, rows]
        x, _, _ = kin.landmark_solver.minimize(kin.landmark_matrix.T @ target)
        u = np.zeros(len(config_r.channels))
        u[kin.ik_channels] = x
        lows = np.array([ch.pulse_us[0] for ch in config_r.channels])
        highs = np.array([ch.pulse_us[1] for ch in config_r.channels])
        expected = np.rint(lows + u * (highs - lows)).astype(int)
        assert tuple(expected) == routed.servo_frames[0].pulses

    @settings(max_examples=1, deadline=None, derandomize=True, phases=[Phase.generate])
    @given(built=small_rigs())
    def test_counter_wraps_at_16_bits(self, built):
        """Tick 65535 carries counter 65535 and tick 65536 carries 0; the
        model and IK are stubbed, since only the counter is under test."""
        rig, config_r, _ = built
        params = init_params(0, window_size=2, hidden_size=3, style_count=1,
                             output_size=rig.blendshape_count, class_count=CLASSES)
        theta = np.full(rig.blendshape_count, 0.5)
        kin = _kinematics(config_r, rig)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "forward_rows", lambda plan, rows, style_id: theta)
            mp.setattr(kin.landmark_solver, "solve",
                       StubSolver(np.zeros(kin.ik_channels.size)).solve)
            frames = itertools.repeat(np.zeros(CLASSES), 65537)
            ticks = _ticks(PipelineConfig(), params, rig, config_r, frames)
            last = [t.frame.frame_counter for t in itertools.islice(ticks, 65535, None)]
        assert last == [65535, 0]

    def test_unconverged_streak_aborts(self, reference, params, monkeypatch):
        """IK may fail for one second of ticks; the next failure aborts."""
        rig, config_r = reference
        solver = StubSolver(np.zeros(28))
        monkeypatch.setattr(_kinematics(config_r, rig).landmark_solver, "solve",
                            solver.solve)
        for tick_hz, streak in ((25.0, 25), (50.0, 50)):
            config = PipelineConfig(tick_hz=tick_hz)
            # A full second of failures, a converged tick that resets the
            # streak, then another full second: no abort, and the report
            # counts every failed tick.
            solver.converged = [False] * streak + [True] + [False] * streak
            result = run_pipeline(config, params, rig, config_r,
                                  random_logits(2 * streak + 1, seed=4))
            assert result.report.unconverged_ticks == 2 * streak
            assert not solver.converged
            # One failure more aborts.
            solver.converged = [False] * streak + [True] + [False] * (streak + 1)
            ticks = _ticks(config, params, rig, config_r,
                           random_logits(2 * streak + 2, seed=4))
            records = [next(ticks) for _ in range(2 * streak + 1)]
            with pytest.raises(RuntimeError, match=f"on {streak + 1} consecutive"):
                next(ticks)
            assert [r.converged for r in records] == (
                [False] * streak + [True] + [False] * streak
            )
            assert not solver.converged

    def test_ticks_pull_frames_only_as_far_as_the_window(self, reference, params):
        """Tick t comes out once frame t + K/2 - 1 is in, not later: the
        stream is pulled frame by frame, never collected first."""
        rig, config_r = reference
        frames = random_logits(20, seed=3)
        pulled = 0

        def counted():
            nonlocal pulled
            for frame in frames:
                pulled += 1
                yield frame

        half = params.window_size // 2
        ticks = _ticks(PipelineConfig(), params, rig, config_r, counted())
        for t, _ in enumerate(ticks):
            assert pulled == min(t + half, len(frames)), t
        assert t == len(frames) - 1

    @settings(max_examples=1, deadline=None, derandomize=True, phases=[Phase.generate])
    @given(built=small_rigs())
    def test_tick_state_does_not_grow_with_the_stream(self, built):
        """The traced heap after 3000 more ticks is where it was: the
        iterator keeps no per-tick history."""
        rig, config_r, rng = built
        params = init_params(0, window_size=4, hidden_size=3, style_count=1,
                             output_size=rig.blendshape_count, class_count=CLASSES)
        frames = (rng.normal(0.0, 1.0, CLASSES) for _ in itertools.count())
        ticks = _ticks(PipelineConfig(), params, rig, config_r, frames)
        tracemalloc.start()
        try:
            for _ in itertools.islice(ticks, 200):
                pass
            before, _ = tracemalloc.get_traced_memory()
            for _ in itertools.islice(ticks, 3000):
                pass
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 4096, f"grew {after - before} bytes"

    def test_rejects_bad_inputs(self, reference, params):
        rig, config_r = reference
        config = PipelineConfig()
        with pytest.raises(ValueError, match="empty"):
            run_pipeline(config, params, rig, config_r, np.empty((0, 392)))
        with pytest.raises(ValueError, match="classes"):
            run_pipeline(config, params, rig, config_r, random_logits(4, classes=100))
        with pytest.raises(ValueError, match="mode"):
            run_pipeline(
                config, params, rig, config_r, random_logits(4), mode="batch"
            )

    def test_rejects_model_rig_size_mismatch(self, reference):
        rig, config_r = reference
        small = init_params(
            seed=0, window_size=8, hidden_size=4,
            style_count=1, output_size=50, class_count=392,
        )
        with pytest.raises(ValueError, match="coefficients"):
            run_pipeline(PipelineConfig(), small, rig, config_r, random_logits(4))

    def test_non_finite_logits_rejected_before_any_byte(self, reference, params):
        rig, config_r = reference
        for bad in (np.nan, np.inf):
            frames = random_logits(40, seed=6)
            frames[10, 5] = bad
            for mode in ("offline", "streaming"):
                sink = LoopbackSink()
                with pytest.raises(ValueError, match="non-finite"):
                    run_pipeline(
                        PipelineConfig(), params, rig, config_r, frames,
                        mode=mode, frame_sink=sink,
                    )
                assert len(sink.data) == 0

    def test_style_out_of_range_rejected_before_any_byte(self, reference, params):
        rig, config_r = reference
        sink = LoopbackSink()
        with pytest.raises(ValueError, match="style_id 4 out of range for 4 styles"):
            run_pipeline(
                PipelineConfig(style_id=4), params, rig, config_r,
                random_logits(10), frame_sink=sink,
            )
        assert len(sink.data) == 0

    @pytest.mark.parametrize(
        "k, h", [(2, 16), (4, 16), (8, 16), (16, 16), (8, 64)],
        ids=["2", "4", "8", "16", "8-h64"],
    )
    def test_projected_ring_matches_training_forward(self, reference, k, h, monkeypatch):
        """The tick's theta, from the ring of projected rows through the
        stream's compiled plan, equals ``forward``'s bit for bit, and both
        equal ``_run_forward`` on a batch of one, on the stream's edge
        windows and its interior ones."""
        rig, config_r = reference
        params = init_params(seed=k, window_size=k, hidden_size=h, style_count=3)
        rng = np.random.default_rng(k)
        for name, array in named_arrays(params):
            if name.endswith("bias") or name == "style_table":
                array[...] = rng.normal(0.0, 0.5, array.shape)
        config = PipelineConfig(style_id=2)
        frames = random_logits(2 * k + 3, seed=k)
        thetas = record_thetas(monkeypatch)
        assert len(list(_ticks(config, params, rig, config_r, frames))) == len(frames)
        assert len(thetas) == len(frames)
        for t, theta in enumerate(thetas):
            window = window_at(frames, t, k)
            expected, _ = _run_forward(params, window[None], [2], None)
            np.testing.assert_allclose(theta, expected[0], rtol=0.0, atol=1e-14)
            np.testing.assert_array_equal(forward(params, window, 2).values, theta)

    def test_plan_is_a_copy_of_the_weights(self, reference, params, monkeypatch):
        """A stream's plan is compiled when ``_ticks`` is called: training
        ``params`` in place afterwards leaves that stream's theta alone, and
        a new stream sees the new weights."""
        rig, config_r = reference
        params = copy.deepcopy(params)
        untrained = copy.deepcopy(params)
        frames = random_logits(12, seed=5)
        thetas = record_thetas(monkeypatch)
        stream = _ticks(PipelineConfig(), params, rig, config_r, frames)
        samples = [
            TrainingSample(window, 0, rig.mesh.positions.ravel())
            for window in make_windows(PhonemeLogitStream(25.0, frames), 8)[:4]
        ]
        trained = [a.copy() for _, a in named_arrays(params)]
        train(params, rig, samples, TrainConfig(learning_rate=1e-2, epochs=1))
        assert any(
            not np.array_equal(a, b) for (_, a), b in zip(named_arrays(params), trained)
        )
        list(stream)
        before = thetas[:]
        thetas.clear()
        list(_ticks(PipelineConfig(), params, rig, config_r, frames))
        assert len(before) == len(thetas) == len(frames)
        for t, (old, new) in enumerate(zip(before, thetas)):
            window = window_at(frames, t, 8)
            np.testing.assert_array_equal(old, forward(untrained, window, 0).values)
            np.testing.assert_array_equal(new, forward(params, window, 0).values)
            assert not np.array_equal(new, old)

    def test_unaligned_source_rig_rejected_before_any_byte(self, reference, params):
        rig, config_r = reference
        names = ("notABlendshape",) + rig.basis.names[1:]
        source = LbsRig(
            mesh=rig.mesh,
            basis=BlendshapeBasis(names, rig.basis.displacements),
            landmark_groups=rig.landmark_groups,
        )
        sink = LoopbackSink()
        with pytest.raises(ValueError, match="name-aligned"):
            run_pipeline(
                PipelineConfig(), params, rig, config_r, random_logits(4),
                source_rig=source, frame_sink=sink,
            )
        assert len(sink.data) == 0

    def test_coefficient_space_ik_matches_landmark_target_chain(self, reference, params):
        """750 ticks through a name-permuted source rig against the chain
        written out in landmark space: transfer by name, the 5313-long
        target, the landmark solver warm-started tick to tick."""
        rig, config_r = reference
        reversed_names = tuple(reversed(rig.basis.names))
        source = LbsRig(
            mesh=rig.mesh,
            basis=BlendshapeBasis(reversed_names, rig.basis.displacements[::-1]),
            landmark_groups=rig.landmark_groups,
        )
        motion = make_motion(750, 51, 25.0, np.random.default_rng(12))
        logits = make_logits(motion, 392, seed=12).frames
        result = run_pipeline(
            PipelineConfig(), params, rig, config_r, logits,
            source_rig=source, mode="streaming",
        )

        kin = _kinematics(config_r, rig)
        columns = rig.basis.matrix[:, kin.rows]
        solver, a = kin.landmark_solver, kin.landmark_matrix
        lows = np.array([ch.pulse_us[0] for ch in config_r.channels])
        span = np.array([ch.pulse_us[1] for ch in config_r.channels]) - lows
        warm = None
        for smoothed, frame in zip(result.motion.frames, result.servo_frames):
            robot = transfer_coefficients(BlendCoefficients(smoothed), source, rig)
            x, _, _ = solver.minimize(a.T @ (robot.values @ columns), warm)
            warm = x
            u = np.zeros(len(config_r.channels))
            u[kin.ik_channels] = x
            assert tuple(np.rint(lows + u * span).astype(int)) == frame.pulses

    def test_solve_ik_between_ticks_leaves_the_servo_bytes(self, reference, params):
        """``solve_ik`` on the same (config, rig) shares the tick's solver and
        its inverse cache. Landmark targets far outside the actuator box,
        solved between ticks, evict the tick's working set every time; the
        servo bytes must still equal an uninterleaved run's."""
        rig, config_r = reference
        frames = random_logits(40, seed=21)
        alone = [encode_frame(tick.frame)
                 for tick in _ticks(PipelineConfig(), params, rig, config_r, frames)]

        kin = _kinematics(config_r, rig)
        solver = kin.landmark_solver
        neutral = rig.mesh.positions[kin.rows]
        rng = np.random.default_rng(21)
        interleaved, evicted = [], 0
        for tick in _ticks(PipelineConfig(), params, rig, config_r, frames):
            interleaved.append(encode_frame(tick.frame))
            tick_set = solver._cached[0]
            u = rng.uniform(-1.0, 2.0, kin.landmark_matrix.shape[1])
            solve_ik(config_r, neutral + kin.landmark_matrix @ u, rig)
            evicted += solver._cached[0] != tick_set
        assert evicted == len(alone) == 40
        assert interleaved == alone


# Run in a fresh interpreter, since BLAS reads its kernel and thread count at
# load. The logits come from a file the test process wrote, because
# ``make_logits`` itself rounds differently under other thread counts. Prints
# the reference model's tick over them: the f64 theta each tick hands the
# filter, the smoothed rows and the IK solutions.
_TICK_CHILD = """
import json
import sys
import numpy as np
from roboface import pipeline
from roboface.motionnet import init_params
from roboface.retarget import BoxLeastSquares
from roboface.rigsim import build_reference_rig
import test_golden

rig, config = build_reference_rig(seed=0)
params = init_params(seed=0, window_size=8, hidden_size=64, style_count=4)
theta, smoothed, ik = [], [], []
forward_rows, solve = pipeline.forward_rows, BoxLeastSquares.solve

def recorded_forward_rows(plan, rows, style_id):
    out = forward_rows(plan, rows, style_id)
    theta.append(out.tolist())
    return out

def recorded_solve(self, c, const, x0=None):
    out = solve(self, c, const, x0)
    ik.append(out[0].tolist())
    return out

pipeline.forward_rows = recorded_forward_rows
BoxLeastSquares.solve = recorded_solve
ticks = pipeline._ticks(pipeline.PipelineConfig(), params, rig, config,
                        np.load(sys.argv[1]))
for tick in ticks:
    smoothed.append(tick.smoothed.tolist())
print(json.dumps({"threads": test_golden.blas_threads(), "theta": theta,
                  "smoothed": smoothed, "ik": ik}))
"""


def test_rig_holds_only_its_fields_and_grams(params):
    # Projection, training and the tick keep nothing on the rig but the two
    # Grams it builds itself.
    rig, config_r = build_reference_rig(seed=0)
    project_sequence(np.tile(rig.mesh.positions, (3, 1)), 25.0, rig)
    sample = TrainingSample(random_logits(8), 0, target_coefficients=np.full(51, 0.5))
    train(copy.deepcopy(params), rig, [sample], TrainConfig(epochs=1, batch_size=1))
    list(_ticks(PipelineConfig(), params, rig, config_r, random_logits(10)))
    fields = {f.name for f in dataclasses.fields(LbsRig)}
    assert set(vars(rig)) == fields | {"gram", "mouth_gram"}


def test_tick_does_not_depend_on_blas_threads(tmp_path):
    """Under each OpenBLAS kernel the CPU runs, the tick's theta, smoothed
    rows and IK solutions are bit-equal under 1 and 2 BLAS threads."""
    if not loads_openblas():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    flags = cpu_flags()
    core_types = [name for name, need in CORE_TYPES.items() if flags & set(need)]
    if not core_types:
        pytest.skip("this CPU runs none of the OpenBLAS kernels checked")
    motion = make_motion(250, 51, 25.0, np.random.default_rng(0))
    logits = tmp_path / "logits.npy"
    np.save(logits, make_logits(motion, 392, seed=0).frames)
    src = Path(roboface.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    path = [str(src), str(tests)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    # OpenBLAS caps its threads at the cores it may run on.
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    for core_type in core_types:
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_CORETYPE=core_type)
            env["OPENBLAS_NUM_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(path)
            out = subprocess.run(
                [sys.executable, "-c", _TICK_CHILD, str(logits)],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
                check=True,
            )
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        one, two = runs
        reported = [one["threads"], two["threads"]]
        if None not in reported and cores >= 2:
            assert reported == [1, 2]
        for key, width in (("theta", 51), ("smoothed", 51), ("ik", 28)):
            a, b = np.array(one[key]), np.array(two[key])
            assert a.shape == b.shape == (250, width)
            assert np.array_equal(b, a), (
                f"OPENBLAS_CORETYPE={core_type}: {key} moved by up to "
                f"{np.abs(b - a).max():.3g} from 1 to 2 threads"
            )


class TestBench:
    def test_model_row_is_the_kernel_inside_the_tick(self, reference, params, monkeypatch):
        # A slow windower leaves the model row alone; a slow kernel shows.
        rig, config_r = reference
        push = frontend.StreamingWindower.push

        def slow_push(self, frame):
            time.sleep(0.002)
            return push(self, frame)

        monkeypatch.setattr(frontend.StreamingWindower, "push", slow_push)
        report = bench(params, rig, config_r, n_frames=20, seed=0)
        assert report["model"]["p50_ms"] < 2.0
        monkeypatch.undo()

        def slow_forward_rows(plan, rows, style_id):
            time.sleep(0.002)
            return forward_rows(plan, rows, style_id)

        monkeypatch.setattr(pipeline, "forward_rows", slow_forward_rows)
        report = bench(params, rig, config_r, n_frames=20, seed=0)
        assert report["model"]["p50_ms"] >= 2.0

    def test_chain_runs_once(self, reference, params, monkeypatch):
        # One run_pipeline run gives every chain row: the kernel runs once
        # per frame, and the model row is that run's report.
        rig, config_r = reference
        calls, reports = [], []

        def counted(plan, rows, style_id):
            calls.append(style_id)
            return forward_rows(plan, rows, style_id)

        def recorded(*args, **kwargs):
            result = run_pipeline(*args, **kwargs)
            reports.append(result.report)
            return result

        monkeypatch.setattr(pipeline, "forward_rows", counted)
        monkeypatch.setattr(pipeline, "run_pipeline", recorded)
        out = bench(params, rig, config_r, n_frames=20, seed=0)
        assert len(calls) == 20
        (report,) = reports
        assert out["model"] == {"fps": report.model_fps,
                                "p50_ms": report.model_p50_ms,
                                "p99_ms": report.model_p99_ms}
        assert out["tick"]["p50_ms"] == report.tick_p50_ms
        assert out["over_budget"] == report.over_budget

    @pytest.mark.parametrize("n_frames", [0, -3, 1.5, 20.0, True, "20"])
    def test_refuses_a_frame_count_before_any_work(
        self, reference, params, monkeypatch, n_frames
    ):
        rig, config_r = reference

        def no_work(*args, **kwargs):
            raise AssertionError("bench started work")

        monkeypatch.setattr(pipeline, "make_motion", no_work)
        with pytest.raises(ValueError, match="n_frames must be an integer >= 1"):
            bench(params, rig, config_r, n_frames=n_frames, seed=0)

    def test_report_shape(self, reference, params):
        rig, config_r = reference
        report = bench(params, rig, config_r, n_frames=30, seed=0)
        assert report["frames"] == 30
        assert report["budget_ms"] == 40.0
        for stage in ("model", "tick"):
            assert report[stage]["fps"] > 0
            assert report[stage]["p99_ms"] >= report[stage]["p50_ms"]
        assert isinstance(report["over_budget"], int)

    def test_reports_ik_synth_and_tracking(self, reference, params):
        rig, config_r = reference
        report = bench(params, rig, config_r, n_frames=30, seed=0)
        ik = report["ik"]
        assert 1 <= ik["iterations_p50"] <= ik["iterations_max"]
        assert isinstance(ik["iterations_max"], int)
        assert isinstance(ik["unconverged_ticks"], int)
        assert 0 <= ik["unconverged_ticks"] <= 30
        for stage in ("synth", "tracking"):
            assert np.isfinite(report[stage]["fps"]) and report[stage]["fps"] > 0
        # The synth run includes the tick run plus the motion file write.
        assert report["synth"]["fps"] <= report["tick"]["fps"]

    def test_train_section_leaves_params_unchanged(self, reference, params):
        rig, config_r = reference
        before = [a.tobytes() for _, a in named_arrays(params)]
        report = bench(params, rig, config_r, n_frames=40, seed=0)
        assert report["train"]["samples_per_s"] > 0
        assert report["train"]["step_p50_ms"] > 0
        assert [a.tobytes() for _, a in named_arrays(params)] == before
