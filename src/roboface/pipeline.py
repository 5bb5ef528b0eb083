"""Real-time orchestration: logits -> model -> filter -> IK -> servo frames.

One tick function implements the whole 25 Hz chain; the offline and
streaming drivers differ only in how logit windows are produced, which is
what guarantees bitwise-identical servo byte streams between the two
modes. After the model the tick works on the blendshape coefficients
alone: filter bank, name permutation and IK from coefficients; no
landmark-space target is built. Non-finite logits are rejected before the
first tick. The serial wire format frames 31 pulse widths with a sync byte,
a wrapping frame counter, and a two's-complement checksum.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .frontend import StreamingWindower, window_at
from .lbs import LbsRig, MotionSequence
from .motionnet import ModelParams, forward
# transfer_coefficients stays importable from here: perfbench/tracing.py
# wraps pipeline.transfer_coefficients to count per-tick transfer calls.
from .retarget import transfer_coefficients, transfer_order  # noqa: F401
from .rigsim import RigConfig, _kinematics
from .smoothing import FilterSpec, StreamingFilter, design, group_delay_frames
from .synthdata import make_logits, make_motion

SYNC_BYTE = 0xFA


@dataclass(frozen=True)
class ServoFrame:
    """One wire frame: counter plus one pulse width per channel."""

    frame_counter: int
    pulses: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.frame_counter <= 0xFFFF:
            raise ValueError("frame_counter must fit in 16 bits")
        if not 1 <= len(self.pulses) <= 0xFF:
            raise ValueError("channel count must fit in 8 bits")
        if any(not 0 <= p <= 0xFFFF for p in self.pulses):
            raise ValueError("pulse widths must fit in 16 bits")


def encode_frame(frame: ServoFrame) -> bytes:
    body = struct.pack("<BHB", SYNC_BYTE, frame.frame_counter, len(frame.pulses))
    body += struct.pack(f"<{len(frame.pulses)}H", *frame.pulses)
    return body + bytes([(-sum(body)) & 0xFF])


def decode_frame(data: bytes) -> ServoFrame:
    if len(data) < 5:
        raise ValueError("servo frame shorter than its fixed header")
    if data[0] != SYNC_BYTE:
        raise ValueError(f"bad sync byte 0x{data[0]:02X}")
    counter, channel_count = struct.unpack("<HB", data[1:4])
    expected = 4 + 2 * channel_count + 1
    if len(data) != expected:
        raise ValueError(
            f"servo frame is {len(data)} bytes, {expected} expected for "
            f"{channel_count} channels"
        )
    if sum(data) & 0xFF:
        raise ValueError("servo frame checksum mismatch")
    pulses = struct.unpack(f"<{channel_count}H", data[4:-1])
    return ServoFrame(counter, pulses)


class FileSink:
    """Byte sink writing to a file; stands in for the serial port."""

    def __init__(self, path):
        self._handle = open(path, "wb")

    def write(self, data: bytes) -> None:
        self._handle.write(data)

    def close(self) -> None:
        self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class LoopbackSink:
    """Byte sink that keeps everything in memory for inspection."""

    def __init__(self):
        self.data = bytearray()

    def write(self, data: bytes) -> None:
        self.data.extend(data)

    def close(self) -> None:
        pass

    def frames(self) -> list[ServoFrame]:
        out = []
        pos = 0
        while pos < len(self.data):
            count = self.data[pos + 3]
            size = 4 + 2 * count + 1
            out.append(decode_frame(bytes(self.data[pos : pos + size])))
            pos += size
        return out


@dataclass(frozen=True)
class PipelineConfig:
    """Runtime knobs of the orchestrator; the budget is one tick period."""

    tick_hz: float = 25.0
    frame_budget_ms: float = 40.0
    style_id: int = 0
    filter_spec: FilterSpec = FilterSpec()
    max_unconverged_streak: int = 25
    rig_path: str | None = None
    config_path: str | None = None
    model_path: str | None = None

    def __post_init__(self):
        if self.tick_hz <= 0:
            raise ValueError("tick_hz must be positive")
        if abs(self.frame_budget_ms - 1000.0 / self.tick_hz) > 1e-9:
            raise ValueError(
                f"frame_budget_ms must equal 1000/tick_hz = "
                f"{1000.0 / self.tick_hz:g} ms"
            )
        if self.style_id < 0:
            raise ValueError("style_id must be nonnegative")
        if self.filter_spec.sample_hz != self.tick_hz:
            raise ValueError(
                f"filter designed for {self.filter_spec.sample_hz} Hz, "
                f"pipeline ticks at {self.tick_hz} Hz"
            )
        if self.max_unconverged_streak < 1:
            raise ValueError("max_unconverged_streak must be at least 1")


@dataclass(frozen=True)
class PipelineReport:
    """Latency and look-ahead accounting for one pipeline run."""

    frames: int
    over_budget: int
    unconverged_ticks: int
    tick_p50_ms: float
    tick_p99_ms: float
    tick_max_ms: float
    window_lookahead_frames: float
    filter_delay_frames: float

    @property
    def lookahead_frames(self) -> float:
        return self.window_lookahead_frames + self.filter_delay_frames

    def to_dict(self) -> dict:
        return {
            "frames": self.frames,
            "over_budget": self.over_budget,
            "unconverged_ticks": self.unconverged_ticks,
            "tick_p50_ms": self.tick_p50_ms,
            "tick_p99_ms": self.tick_p99_ms,
            "tick_max_ms": self.tick_max_ms,
            "window_lookahead_frames": self.window_lookahead_frames,
            "filter_delay_frames": self.filter_delay_frames,
            "lookahead_frames": self.lookahead_frames,
        }


@dataclass
class PipelineResult:
    servo_frames: list[ServoFrame]
    motion: MotionSequence
    report: PipelineReport


class _Ticker:
    """Shared per-window step: model, filter, transfer, IK, pulse mapping.

    Everything after the model is linear in the 51 coefficients, so the
    tick stays in coefficient space: one filter bank steps all channels,
    the name transfer is a permutation resolved at construction, and IK
    takes the robot coefficients directly (``Kinematics.coefficient_solver_for``)
    instead of a landmark target. The heavy solver state is cached per
    (config, rig), so a ticker per stream builds nothing heavy.
    """

    def __init__(self, config, params, robot_rig, robot_config, source_rig):
        if params.output_size != (
            source_rig.blendshape_count if source_rig else robot_rig.blendshape_count
        ):
            raise ValueError(
                f"model emits {params.output_size} coefficients, rig expects "
                f"{(source_rig or robot_rig).blendshape_count}"
            )
        self.config = config
        self.params = params
        self.transfer_order = transfer_order(source_rig or robot_rig, robot_rig)

        kin = _kinematics(robot_config, robot_rig)
        self.solver = kin.coefficient_solver_for(kin.landmark_vertices(), None)
        self.ik_channels = kin.ik_channels
        self.channel_count = len(robot_config.channels)
        lows = np.array([ch.pulse_us[0] for ch in robot_config.channels])
        highs = np.array([ch.pulse_us[1] for ch in robot_config.channels])
        self.pulse_low = lows
        self.pulse_span = highs - lows

        self.filter = StreamingFilter(design(config.filter_spec))
        self.warm: np.ndarray | None = None
        self.counter = 0
        self.unconverged_streak = 0
        self.unconverged_total = 0

    def tick(self, window) -> tuple[ServoFrame, np.ndarray]:
        theta = forward(self.params, window, self.config.style_id)
        smoothed = self.filter.step(theta.values)
        robot_theta = smoothed[self.transfer_order]
        x, residual, converged, _ = self.solver.solve(robot_theta, x0=self.warm)
        self.warm = x
        if converged:
            self.unconverged_streak = 0
        else:
            self.unconverged_total += 1
            self.unconverged_streak += 1
            if self.unconverged_streak > self.config.max_unconverged_streak:
                raise RuntimeError(
                    f"inverse kinematics failed to converge on "
                    f"{self.unconverged_streak} consecutive ticks "
                    f"(frame {self.counter}, residual {residual:.3e})"
                )
        u = np.zeros(self.channel_count)
        u[self.ik_channels] = x
        pulses = np.rint(self.pulse_low + u * self.pulse_span).astype(np.int64)
        frame = ServoFrame(self.counter & 0xFFFF, tuple(pulses.tolist()))
        self.counter += 1
        return frame, smoothed


def _window_source(frames: np.ndarray, k: int, mode: str):
    if mode == "offline":
        for t in range(frames.shape[0]):
            yield window_at(frames, t, k)
    elif mode == "streaming":
        windower = StreamingWindower(k, frames.shape[1])
        for frame in frames:
            yield from windower.push(frame)
        yield from windower.finish()
    else:
        raise ValueError(f"mode must be 'offline' or 'streaming', got {mode!r}")


def run_pipeline(
    config: PipelineConfig,
    params: ModelParams,
    robot_rig: LbsRig,
    robot_config: RigConfig,
    logit_frames,
    source_rig: LbsRig | None = None,
    mode: str = "offline",
    frame_sink=None,
) -> PipelineResult:
    """Drive the robot for a block of tick-rate logit frames.

    ``logit_frames`` is (T, class_count) already at the tick rate; each
    input frame yields exactly one servo frame. ``source_rig`` names the
    model's coefficient space when it differs from the robot rig. Slow
    ticks are counted against the budget, never dropped.
    """
    frames = np.asarray(logit_frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ValueError("logit_frames must be a non-empty (T, classes) array")
    if frames.shape[1] != params.class_count:
        raise ValueError(
            f"logit frames have {frames.shape[1]} classes, model expects "
            f"{params.class_count}"
        )
    if not np.isfinite(frames).all():
        raise ValueError("logit_frames contain non-finite values")
    ticker = _Ticker(config, params, robot_rig, robot_config, source_rig)
    servo_frames = []
    smoothed_rows = []
    tick_ms = []
    for window in _window_source(frames, params.window_size, mode):
        started = time.perf_counter()
        frame, smoothed = ticker.tick(window)
        data = encode_frame(frame)
        if frame_sink is not None:
            frame_sink.write(data)
        tick_ms.append(1000.0 * (time.perf_counter() - started))
        servo_frames.append(frame)
        smoothed_rows.append(smoothed)
    times = np.array(tick_ms)
    report = PipelineReport(
        frames=len(servo_frames),
        over_budget=int((times > config.frame_budget_ms).sum()),
        unconverged_ticks=ticker.unconverged_total,
        tick_p50_ms=float(np.percentile(times, 50)),
        tick_p99_ms=float(np.percentile(times, 99)),
        tick_max_ms=float(times.max()),
        window_lookahead_frames=params.window_size / 2,
        filter_delay_frames=group_delay_frames(design(config.filter_spec)),
    )
    motion = MotionSequence(config.tick_hz, np.vstack(smoothed_rows))
    return PipelineResult(servo_frames, motion, report)


def bench(
    params: ModelParams,
    robot_rig: LbsRig,
    robot_config: RigConfig,
    config: PipelineConfig | None = None,
    n_frames: int = 500,
    seed: int = 0,
) -> dict:
    """Deterministic throughput measurement for the model alone and the
    full tick; latencies in milliseconds, rates in frames per second.

    Input is speech-like: seeded smooth ``make_motion`` tracks mapped to
    logits by ``make_logits``, so IK warm starts behave as on real streams.
    """
    config = config or PipelineConfig()
    motion = make_motion(
        n_frames, params.output_size, config.tick_hz, np.random.default_rng(seed)
    )
    frames = make_logits(motion, params.class_count, seed).frames

    windows = [window_at(frames, t, params.window_size) for t in range(n_frames)]
    model_ms = np.empty(n_frames)
    for i, window in enumerate(windows):
        started = time.perf_counter()
        forward(params, window, config.style_id)
        model_ms[i] = 1000.0 * (time.perf_counter() - started)

    run_started = time.perf_counter()
    result = run_pipeline(config, params, robot_rig, robot_config, frames)
    run_seconds = time.perf_counter() - run_started
    report = result.report

    return {
        "frames": n_frames,
        "budget_ms": config.frame_budget_ms,
        "model": {
            "fps": n_frames / (model_ms.sum() / 1000.0),
            "p50_ms": float(np.percentile(model_ms, 50)),
            "p99_ms": float(np.percentile(model_ms, 99)),
        },
        "tick": {
            "fps": n_frames / run_seconds,
            "p50_ms": report.tick_p50_ms,
            "p99_ms": report.tick_p99_ms,
        },
        "over_budget": report.over_budget,
    }
