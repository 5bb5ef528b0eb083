"""Real-time orchestration: logits -> model -> filter -> IK -> servo frames.

One tick iterator implements the whole 25 Hz chain, and one window source
feeds it. Each stream compiles the model once (``motionnet.compile_plan``):
the first layer's projection plus one dense matrix per later layer, copied
so that training cannot reach it. Every logit frame is projected once
through the first layer and the projected row goes through a
``StreamingWindower``, so a run's servo bytes depend only on its frames.
The tick runs the rest of the plan on a window of those rows
(``motionnet.forward_rows``, one GEMV per layer). After the model it
works on the blendshape coefficients alone: filter bank, name permutation
and IK from coefficients; no landmark-space target is built. Non-finite
logits and an out-of-range style are rejected before the first tick. The
serial wire format frames 31 pulse widths with a sync byte, a wrapping
frame counter, and a two's-complement checksum.
"""

from __future__ import annotations

import copy
import math
import struct
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .formats import save_motion
# window_at, forward and transfer_coefficients stay importable from here,
# though the tick calls none of them: perfbench/tracing.py wraps the three
# names to time and count per-tick calls, and tests/test_golden.py patches
# window_at to prove that no tick cuts a window with it.
from .frontend import StreamingWindower, window_at  # noqa: F401
from .lbs import LbsRig, MotionSequence
from .motionnet import (  # noqa: F401
    AdamState,
    ModelParams,
    TrainConfig,
    compile_plan,
    forward,
    forward_rows,
    train,
)
from .retarget import transfer_coefficients, transfer_order  # noqa: F401
from .rigsim import RigConfig, _kinematics, evaluate_tracking
from .smoothing import FilterSpec, StreamingFilter, design, group_delay_frames
from .synthdata import build_samples, make_logits, make_motion
from .util import check_count, in_unit_interval, is_index, is_positive_finite

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
    """Byte sink writing to a file; stands in for the serial port.

    The file is opened, and an existing one truncated, on the first write,
    so a run refused before its first frame leaves the file as it was.
    """

    def __init__(self, path):
        self._path = path
        self._handle = None

    def write(self, data: bytes) -> None:
        if self._handle is None:
            self._handle = open(self._path, "wb")
        self._handle.write(data)

    @property
    def written(self) -> bool:
        """Whether the file has been opened (and truncated) by a write."""
        return self._handle is not None

    def close(self) -> None:
        if self._handle is not None:
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
    model_p50_ms: float
    model_p99_ms: float
    model_fps: float
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


class _Tick(NamedTuple):
    """One tick's record: what ``run_pipeline`` reads of it."""

    frame: ServoFrame
    smoothed: np.ndarray
    ik_iterations: int
    converged: bool
    model_ms: float


def _ticks(config, params, robot_rig, robot_config, frames, source_rig=None):
    """The 25 Hz chain over ``frames``: one ``_Tick`` per frame, in order.

    The call checks the model against the rig and the style and builds the
    stream's state: the plan, compiled from ``params`` now (about 1.5 ms)
    so that training ``params`` later leaves this stream alone; the name
    transfer, a permutation; the kinematics, cached per (config, rig); one
    filter bank for all channels; and a ``StreamingWindower`` of block-0
    projected rows, so each frame meets the model's widest layer once.
    The returned iterator pulls ``frames`` K/2 ahead of the tick it emits
    and keeps no per-tick history. IK forms its problem from the robot
    coefficients directly (``Kinematics.coefficient_problem``) and solves
    it with ``Kinematics.landmark_solver``. More than
    ``config.max_unconverged_streak`` consecutive unconverged IK solves
    raise ``RuntimeError``.
    """
    source = source_rig or robot_rig
    if params.output_size != source.blendshape_count:
        raise ValueError(
            f"model emits {params.output_size} coefficients, rig expects "
            f"{source.blendshape_count}"
        )
    if not is_index(config.style_id, params.style_count):
        raise ValueError(
            f"style_id {config.style_id} out of range for "
            f"{params.style_count} styles"
        )
    plan = compile_plan(params)
    order = transfer_order(source, robot_rig)
    kin = _kinematics(robot_config, robot_rig)
    solver, ik_channels = kin.landmark_solver, kin.ik_channels
    bank = StreamingFilter(design(config.filter_spec))
    windower = StreamingWindower(plan.window_size, len(plan.projection))
    pulse_low, pulse_high = np.array([ch.pulse_us for ch in robot_config.channels]).T
    pulse_span = pulse_high - pulse_low

    def windows():
        for frame in frames:
            yield from windower.push(plan.projection @ frame)
        yield from windower.finish()

    def ticks():
        warm, streak = None, 0
        for counter, rows in enumerate(windows()):
            started = time.perf_counter()
            theta = forward_rows(plan, rows, config.style_id)
            model_ms = 1000.0 * (time.perf_counter() - started)
            if not in_unit_interval(theta):
                raise ValueError("coefficients must be finite and lie in [0, 1]")
            smoothed = bank.step(theta)
            warm, residual, converged, iterations = solver.solve(
                *kin.coefficient_problem(smoothed[order]), warm
            )
            streak = 0 if converged else streak + 1
            if streak > config.max_unconverged_streak:
                raise RuntimeError(
                    f"inverse kinematics failed to converge on {streak} "
                    f"consecutive ticks (frame {counter}, residual {residual:.3e})"
                )
            u = np.zeros(len(pulse_low))
            u[ik_channels] = warm
            pulses = np.rint(pulse_low + u * pulse_span).astype(np.int64)
            frame = ServoFrame(counter & 0xFFFF, tuple(pulses.tolist()))
            yield _Tick(frame, smoothed, iterations, converged, model_ms)

    return ticks()


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
    model's coefficient space when it differs from the robot rig. A tick
    is timed from the previous frame's emission, so its window counts;
    slow ticks are counted against the budget, never dropped. The report's
    model row is the kernel's time inside each tick (``forward_rows``
    alone), and ``model_fps`` is frames per summed kernel second.

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
    ticks = _ticks(config, params, robot_rig, robot_config, frames, source_rig)
    servo_frames, smoothed_rows, ik_iterations = [], [], []
    tick_ms, model_ms = [], []
    unconverged = 0
    stamp = time.perf_counter()
    for tick in ticks:
        data = encode_frame(tick.frame)
        if frame_sink is not None:
            frame_sink.write(data)
        started, stamp = stamp, time.perf_counter()
        tick_ms.append(1000.0 * (stamp - started))
        model_ms.append(tick.model_ms)
        servo_frames.append(tick.frame)
        smoothed_rows.append(tick.smoothed)
        ik_iterations.append(tick.ik_iterations)
        unconverged += not tick.converged
    times, kernel = np.array(tick_ms), np.array(model_ms)
    report = PipelineReport(
        frames=len(servo_frames),
        over_budget=int((times > config.frame_budget_ms).sum()),
        unconverged_ticks=unconverged,
        ik_iterations_p50=float(np.median(ik_iterations)),
        ik_iterations_max=max(ik_iterations),
        tick_p50_ms=float(np.percentile(times, 50)),
        tick_p99_ms=float(np.percentile(times, 99)),
        tick_max_ms=float(times.max()),
        model_p50_ms=float(np.percentile(kernel, 50)),
        model_p99_ms=float(np.percentile(kernel, 99)),
        model_fps=len(kernel) / (kernel.sum() / 1000.0),
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
    """Deterministic throughput measurement for the tick's model stage,
    the full tick, offline synthesis, tracking and training; latencies in
    milliseconds, rates per second.

    Input is speech-like: seeded smooth ``make_motion`` tracks mapped to
    logits by ``make_logits``, so IK warm starts behave as on real streams.
    The chain runs once, as ``roboface synth`` runs it after loading: ticks
    into a servo file, then writes the motion file. The ``model``, ``tick``,
    ``ik`` and ``over_budget`` rows are that run's report, and ``synth``
    is its wall time. ``evaluate_tracking`` then scores that motion.
    Training runs one epoch of 16-sample ``train`` steps over the clip's
    first 128 samples, on a copy of ``params`` that is then dropped.
    ``n_frames`` must be an integer of at least 1.
    """
    check_count("n_frames", n_frames)
    config = config or PipelineConfig()
    motion = make_motion(
        n_frames, params.output_size, config.tick_hz, np.random.default_rng(seed)
    )
    logits = make_logits(motion, params.class_count, seed)
    frames = logits.frames

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
            "fps": report.model_fps,
            "p50_ms": report.model_p50_ms,
            "p99_ms": report.model_p99_ms,
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
