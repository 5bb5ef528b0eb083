"""Real-time orchestration: logits -> model -> filter -> IK -> servo frames.

One tick function implements the whole 25 Hz chain, and one window source
feeds it: every logit frame is projected once through the model's first
layer (``motionnet.frame_projection``) and the projected row goes through
a ``StreamingWindower``, so a run's servo bytes depend only on its frames.
The tick runs the rest of the model on a window of those rows
(``motionnet.forward_rows``). After the model it works on the blendshape
coefficients alone: filter bank, name permutation and IK from
coefficients; no landmark-space target is built. Non-finite logits and an
out-of-range style are rejected before the first tick. The serial wire
format frames 31 pulse widths with a sync byte, a wrapping frame counter,
and a two's-complement checksum.
"""

from __future__ import annotations

import copy
import math
import struct
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .formats import save_motion
# window_at, forward and transfer_coefficients stay importable from here,
# though the tick calls none of them: perfbench/tracing.py wraps the three
# names to time and count per-tick calls, and tests/test_golden.py patches
# window_at to prove that no tick cuts a window with it.
from .frontend import StreamingWindower, window_at  # noqa: F401
from .lbs import BlendCoefficients, LbsRig, MotionSequence
from .motionnet import (  # noqa: F401
    AdamState,
    ModelParams,
    TrainConfig,
    forward,
    forward_rows,
    frame_projection,
    train,
)
from .retarget import transfer_coefficients, transfer_order  # noqa: F401
from .rigsim import RigConfig, _kinematics, evaluate_tracking
from .smoothing import FilterSpec, StreamingFilter, design, group_delay_frames
from .synthdata import build_samples, make_logits, make_motion
from .util import is_index, is_positive_finite

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
            if len(self.data) - pos < 4:
                raise ValueError("servo stream ends inside a frame header")
            size = 4 + 2 * self.data[pos + 3] + 1
            out.append(decode_frame(bytes(self.data[pos : pos + size])))
            pos += size
        return out


@dataclass(frozen=True)
class PipelineConfig:
    """Runtime settings of the orchestrator.

    The four fields are the only settings; the rest follows from the tick
    rate. The filter is designed at ``tick_hz`` (``filter_spec``), the
    frame budget is one tick period (``frame_budget_ms == 1000 / tick_hz``),
    and IK may fail to converge on at most one second of consecutive ticks
    (``max_unconverged_streak == ceil(tick_hz)``) before the run aborts.
    """

    tick_hz: float = 25.0
    style_id: int = 0
    filter_order: int = 5
    filter_cutoff_hz: float = 7.0

    def __post_init__(self):
        if not is_positive_finite(self.tick_hz):
            raise ValueError(
                f"tick_hz must be finite and positive, got {self.tick_hz!r}"
            )
        if not is_index(self.style_id):
            raise ValueError(
                f"style_id must be a nonnegative integer, got {self.style_id!r}"
            )
        self.filter_spec  # FilterSpec rejects a bad order or cutoff here

    @property
    def filter_spec(self) -> FilterSpec:
        return FilterSpec(self.filter_order, self.filter_cutoff_hz, self.tick_hz)

    @property
    def frame_budget_ms(self) -> float:
        return 1000.0 / self.tick_hz

    @property
    def max_unconverged_streak(self) -> int:
        return math.ceil(self.tick_hz)


@dataclass(frozen=True)
class PipelineReport:
    """Latency and look-ahead accounting for one pipeline run."""

    frames: int
    over_budget: int
    unconverged_ticks: int
    ik_iterations_p50: float
    ik_iterations_max: int
    tick_p50_ms: float
    tick_p99_ms: float
    tick_max_ms: float
    window_lookahead_frames: float
    filter_delay_frames: float

    @property
    def lookahead_frames(self) -> float:
        return self.window_lookahead_frames + self.filter_delay_frames

    def to_dict(self) -> dict:
        return {**asdict(self), "lookahead_frames": self.lookahead_frames}


@dataclass
class PipelineResult:
    servo_frames: list[ServoFrame]
    motion: MotionSequence
    report: PipelineReport


class _Ticker:
    """Shared per-window step: model, filter, transfer, IK, pulse mapping.

    Its input is ``windows(frames)``: each frame's centred window of
    block-0 projected rows, so each frame meets the model's widest layer
    once, not once per window it enters. Everything after the model is
    linear in the 51 coefficients, so the tick stays in coefficient space:
    one filter bank, designed at the tick rate, steps all channels, the
    name transfer is a permutation resolved at construction, and IK takes
    the robot coefficients directly (``Kinematics.coefficient_solver``)
    instead of a landmark target. The heavy solver state is cached per
    (config, rig), so a ticker per stream builds nothing heavy. More than
    ``config.max_unconverged_streak`` consecutive unconverged IK solves
    raise ``RuntimeError``.
    """

    def __init__(self, config, params, robot_rig, robot_config, source_rig):
        if params.output_size != (
            source_rig.blendshape_count if source_rig else robot_rig.blendshape_count
        ):
            raise ValueError(
                f"model emits {params.output_size} coefficients, rig expects "
                f"{(source_rig or robot_rig).blendshape_count}"
            )
        if not is_index(config.style_id, params.style_count):
            raise ValueError(
                f"style_id {config.style_id} out of range for "
                f"{params.style_count} styles"
            )
        self.config = config
        self.params = params
        self.projection = frame_projection(params)
        self.transfer_order = transfer_order(source_rig or robot_rig, robot_rig)

        kin = _kinematics(robot_config, robot_rig)
        self.solver = kin.coefficient_solver
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
        self.ik_iterations: list[int] = []

    def windows(self, frames):
        """Each frame's centred window of projected rows, (K, 4H), in frame
        order. A fresh windower per call: one call serves one stream."""
        windower = StreamingWindower(self.params.window_size, len(self.projection))
        for frame in frames:
            yield from windower.push(self.projection @ frame)
        yield from windower.finish()

    def tick(self, rows) -> tuple[ServoFrame, np.ndarray]:
        theta = BlendCoefficients(forward_rows(self.params, rows, self.config.style_id))
        smoothed = self.filter.step(theta.values)
        robot_theta = smoothed[self.transfer_order]
        x, residual, converged, iterations = self.solver.solve(
            robot_theta, x0=self.warm
        )
        self.warm = x
        self.ik_iterations.append(iterations)
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

    ``mode`` selects nothing: both values run the same windower. It stays,
    and any other value raises ``ValueError``, only because the benchmark
    in ``perfbench/`` passes it.
    """
    if mode not in ("offline", "streaming"):
        raise ValueError(f"mode must be 'offline' or 'streaming', got {mode!r}")
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
    for rows in ticker.windows(frames):
        started = time.perf_counter()
        frame, smoothed = ticker.tick(rows)
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
        ik_iterations_p50=float(np.median(ticker.ik_iterations)),
        ik_iterations_max=max(ticker.ik_iterations),
        tick_p50_ms=float(np.percentile(times, 50)),
        tick_p99_ms=float(np.percentile(times, 99)),
        tick_max_ms=float(times.max()),
        window_lookahead_frames=params.window_size / 2,
        filter_delay_frames=group_delay_frames(ticker.filter.cascade),
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
    """Deterministic throughput measurement for the tick's model stage,
    the full tick, offline synthesis, tracking and training; latencies in
    milliseconds, rates per second.

    Input is speech-like: seeded smooth ``make_motion`` tracks mapped to
    logits by ``make_logits``, so IK warm starts behave as on real streams.
    The offline run does what ``roboface synth`` does after loading: ticks
    into a servo file, then writes the motion file. ``evaluate_tracking``
    then scores that motion. Training runs one epoch of 16-sample
    ``train`` steps over the clip's first 128 samples, on a copy of
    ``params`` that is then dropped.
    """
    config = config or PipelineConfig()
    motion = make_motion(
        n_frames, params.output_size, config.tick_hz, np.random.default_rng(seed)
    )
    logits = make_logits(motion, params.class_count, seed)
    frames = logits.frames

    # The tick's model stage per frame: the frame's projection, then the
    # kernel on the window centred on it. The ticker checks the style.
    ticker = _Ticker(config, params, robot_rig, robot_config, None)
    windower = StreamingWindower(params.window_size, len(ticker.projection))
    model_ms = np.empty(n_frames)
    windows = []
    for t, frame in enumerate(frames):
        started = time.perf_counter()
        row = ticker.projection @ frame
        model_ms[t] = 1000.0 * (time.perf_counter() - started)
        windows += windower.push(row)
    windows += windower.finish()
    for t, rows in enumerate(windows):
        started = time.perf_counter()
        forward_rows(params, rows, config.style_id)
        model_ms[t] += 1000.0 * (time.perf_counter() - started)

    with tempfile.TemporaryDirectory() as tmp:
        run_started = time.perf_counter()
        with FileSink(Path(tmp) / "bench.servo") as sink:
            result = run_pipeline(
                config, params, robot_rig, robot_config, frames, frame_sink=sink
            )
        run_seconds = time.perf_counter() - run_started
        save_motion(Path(tmp) / "bench.lbsm", result.motion)
        synth_seconds = time.perf_counter() - run_started
    report = result.report

    track_started = time.perf_counter()
    evaluate_tracking(robot_config, result.motion, robot_rig)
    track_seconds = time.perf_counter() - track_started

    samples = build_samples(
        robot_rig, motion, logits, config.style_id, params.window_size
    )[:128]
    scratch = copy.deepcopy(params)
    state = AdamState.zeros_like(scratch)
    train_config = TrainConfig(epochs=1, batch_size=16, seed=seed)
    step_ms = []
    for start in range(0, len(samples), 16):
        batch = samples[start : start + 16]
        started = time.perf_counter()
        train(scratch, robot_rig, batch, train_config, adam_state=state)
        step_ms.append(1000.0 * (time.perf_counter() - started))

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
        "ik": {
            "iterations_p50": report.ik_iterations_p50,
            "iterations_max": report.ik_iterations_max,
            "unconverged_ticks": report.unconverged_ticks,
        },
        "synth": {"fps": n_frames / synth_seconds},
        "tracking": {"fps": n_frames / track_seconds},
        "train": {
            "samples_per_s": len(samples) / (sum(step_ms) / 1000.0),
            "step_p50_ms": float(np.percentile(step_ms, 50)),
        },
        "over_budget": report.over_budget,
    }
