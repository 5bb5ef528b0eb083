"""Behaviour lock: the SHA-256 of a fixed reference run's output bytes.

Reference rig seed 0, model seed 0 (K=8, H=64, 4 styles) and 250 logit
frames from ``make_motion`` -> ``make_logits``. A refactor of any stage of
the tick chain must leave both digests unchanged; a change that moves
them must re-baseline here and name the bytes that changed and why.
``data/golden_servo.bin`` holds the pinned servo bytes themselves, so a
mismatch names each frame and channel that moved and by how many µs.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import roboface
from roboface import pipeline
from roboface.motionnet import init_params
from roboface.pipeline import LoopbackSink, PipelineConfig, decode_frame, run_pipeline
from roboface.rigsim import build_reference_rig
from roboface.synthdata import make_logits, make_motion

SERVO_SHA256 = "9bd417abde775019a396aca9afba44d9544cdd0ddd82942fbea2d983b7b13660"
MOTION_F32_SHA256 = "943d5b63d4e1a57f77111bdf329cb0b72843fea4f20a604e5e757936e311a1c4"
FRAME_COUNT = 250
GOLDEN_SERVO = Path(__file__).parent / "data" / "golden_servo.bin"


def reference_servo(mode: str):
    """(servo bytes, PipelineResult) of the reference run in ``mode``."""
    rig, config = build_reference_rig(seed=0)
    params = init_params(seed=0, window_size=8, hidden_size=64, style_count=4)
    motion = make_motion(FRAME_COUNT, rig.blendshape_count, 25.0, np.random.default_rng(0))
    logits = make_logits(motion, params.class_count, seed=0).frames
    sink = LoopbackSink()
    result = run_pipeline(
        PipelineConfig(), params, rig, config, logits, mode=mode, frame_sink=sink
    )
    return bytes(sink.data), result


@pytest.fixture(scope="module")
def reference_run():
    return {mode: reference_servo(mode) for mode in ("offline", "streaming")}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pulse_table(data: bytes) -> np.ndarray:
    """(frames, channels) pulse widths of a servo byte stream."""
    rows = []
    while data:
        size = 4 + 2 * data[3] + 1
        rows.append(decode_frame(data[:size]).pulses)
        data = data[size:]
    return np.array(rows, dtype=np.int64)


def servo_diff(expected: bytes, actual: bytes, shown: int = 20) -> str:
    """Which frames and channels of ``actual`` moved, and the max µs delta."""
    want, got = pulse_table(expected), pulse_table(actual)
    if want.shape != got.shape:
        return f"servo stream is {got.shape} (frames, channels), reference {want.shape}"
    frames, channels = np.nonzero(got != want)
    if frames.size == 0:
        return "every pulse matches the reference; only header bytes differ"
    moved = np.unique(frames)
    lines = [
        f"{frames.size} pulses moved in {moved.size} frames, max delta "
        f"{np.abs(got - want).max()} us"
    ]
    for frame in moved[:shown]:
        lines.append(
            f"  frame {frame}: "
            + ", ".join(
                f"ch {ch} {want[frame, ch]}->{got[frame, ch]}"
                for ch in channels[frames == frame]
            )
        )
    if moved.size > shown:
        lines.append(f"  ... and {moved.size - shown} more frames")
    return "\n".join(lines)


def test_golden_servo_file_is_the_pinned_stream():
    assert sha256(GOLDEN_SERVO.read_bytes()) == SERVO_SHA256


def test_offline_servo_bytes_are_pinned(reference_run):
    data, result = reference_run["offline"]
    assert len(result.servo_frames) == FRAME_COUNT
    # The lock only means something if the pulses actually move.
    assert len({frame.pulses for frame in result.servo_frames}) > FRAME_COUNT // 2
    assert sha256(data) == SERVO_SHA256, servo_diff(GOLDEN_SERVO.read_bytes(), data)


def test_offline_motion_is_pinned(reference_run):
    _, result = reference_run["offline"]
    assert sha256(result.motion.frames.astype("<f4").tobytes()) == MOTION_F32_SHA256


def test_streaming_matches_offline_bytes(reference_run):
    offline_data, offline = reference_run["offline"]
    streaming_data, streaming = reference_run["streaming"]
    assert streaming_data == offline_data, servo_diff(offline_data, streaming_data)
    assert streaming.motion.frames.tobytes() == offline.motion.frames.tobytes()


def test_servo_diff_names_moved_pulses():
    golden = GOLDEN_SERVO.read_bytes()
    table = pulse_table(golden)
    size = 4 + 2 * table.shape[1] + 1
    # Rebuild frame 7 with channel 3 moved by +2 us and a fixed checksum.
    frame = bytearray(golden[7 * size : 8 * size])
    pulse = int.from_bytes(frame[4 + 2 * 3 : 6 + 2 * 3], "little") + 2
    frame[4 + 2 * 3 : 6 + 2 * 3] = pulse.to_bytes(2, "little")
    frame[-1] = (-sum(frame[:-1])) & 0xFF
    moved = golden[: 7 * size] + bytes(frame) + golden[8 * size :]
    message = servo_diff(golden, moved)
    assert message.splitlines()[0] == "1 pulses moved in 1 frames, max delta 2 us"
    assert f"frame 7: ch 3 {pulse - 2}->{pulse}" in message
    assert "(249, 31)" in servo_diff(golden, golden[:-size])


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


# Run in a fresh interpreter, since BLAS reads its thread count at load.
_CHILD = """
import json
import test_golden
data, _ = test_golden.reference_servo("offline")
print(json.dumps({"threads": test_golden.blas_threads(), "servo": data.hex()}))
"""


def test_servo_bytes_do_not_depend_on_blas_threads():
    src = Path(roboface.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src), str(tests)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        out = subprocess.run(
            [sys.executable, "-c", _CHILD],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    # OpenBLAS caps its threads at the cores it may run on.
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    reported = [run["threads"] for run in runs]
    if None not in reported and cores >= 2:
        assert reported == [1, 2]
    first, second = (bytes.fromhex(run["servo"]) for run in runs)
    assert second == first, servo_diff(first, second)
    assert sha256(first) == SERVO_SHA256, servo_diff(GOLDEN_SERVO.read_bytes(), first)


@pytest.mark.parametrize("mode", ["offline", "streaming"])
def test_every_window_comes_from_the_windower(mode, monkeypatch):
    def refuse(*args):
        raise AssertionError("the tick cut a window with window_at")

    monkeypatch.setattr(pipeline, "window_at", refuse)
    data, _ = reference_servo(mode)
    assert sha256(data) == SERVO_SHA256, servo_diff(GOLDEN_SERVO.read_bytes(), data)


# OPENBLAS_CORETYPE -> the /proc/cpuinfo flags, any of which lets this CPU run
# its kernels; Linux names SSE3 "pni".
CORE_TYPES = {
    "Prescott": ("sse3", "pni"),
    "Haswell": ("avx2",),
    "SkylakeX": ("avx512f",),
}


def cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def loads_openblas() -> bool:
    try:
        with open("/proc/self/maps") as maps:
            return any("openblas" in line.lower() for line in maps)
    except OSError:
        return False


def test_servo_bytes_do_not_depend_on_blas_kernels():
    if not loads_openblas():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    flags = cpu_flags()
    core_types = [name for name, need in CORE_TYPES.items() if flags & set(need)]
    if not core_types:
        pytest.skip("this CPU runs none of the OpenBLAS kernels checked")
    src = Path(roboface.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    path = [str(src), str(tests)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    for core_type in core_types:
        env = dict(os.environ, OPENBLAS_CORETYPE=core_type)
        env["PYTHONPATH"] = os.pathsep.join(path)
        out = subprocess.run(
            [sys.executable, "-c", _CHILD],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        data = bytes.fromhex(json.loads(out.stdout.strip().splitlines()[-1])["servo"])
        assert sha256(data) == SERVO_SHA256, (
            f"OPENBLAS_CORETYPE={core_type}\n"
            + servo_diff(GOLDEN_SERVO.read_bytes(), data)
        )
