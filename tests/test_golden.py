"""Behaviour lock: the SHA-256 of a fixed reference run's output bytes.

Reference rig seed 0, model seed 0 (K=8, H=64, 4 styles) and 250 logit
frames from ``make_motion`` -> ``make_logits``. A refactor of any stage of
the tick chain must leave both digests unchanged; a change that moves
them must re-baseline here and name the bytes that changed and why.
"""

import hashlib

import numpy as np
import pytest

from roboface.motionnet import init_params
from roboface.pipeline import LoopbackSink, PipelineConfig, run_pipeline
from roboface.rigsim import build_reference_rig
from roboface.synthdata import make_logits, make_motion

SERVO_SHA256 = "9bd417abde775019a396aca9afba44d9544cdd0ddd82942fbea2d983b7b13660"
MOTION_F32_SHA256 = "943d5b63d4e1a57f77111bdf329cb0b72843fea4f20a604e5e757936e311a1c4"
FRAME_COUNT = 250


@pytest.fixture(scope="module")
def reference_run():
    rig, config = build_reference_rig(seed=0)
    params = init_params(seed=0, window_size=8, hidden_size=64, style_count=4)
    motion = make_motion(FRAME_COUNT, rig.blendshape_count, 25.0, np.random.default_rng(0))
    logits = make_logits(motion, params.class_count, seed=0).frames
    runs = {}
    for mode in ("offline", "streaming"):
        sink = LoopbackSink()
        result = run_pipeline(
            PipelineConfig(), params, rig, config, logits, mode=mode, frame_sink=sink
        )
        runs[mode] = (bytes(sink.data), result)
    return runs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_offline_servo_bytes_are_pinned(reference_run):
    data, result = reference_run["offline"]
    assert len(result.servo_frames) == FRAME_COUNT
    # The lock only means something if the pulses actually move.
    assert len({frame.pulses for frame in result.servo_frames}) > FRAME_COUNT // 2
    assert sha256(data) == SERVO_SHA256


def test_offline_motion_is_pinned(reference_run):
    _, result = reference_run["offline"]
    assert sha256(result.motion.frames.astype("<f4").tobytes()) == MOTION_F32_SHA256


def test_streaming_matches_offline_bytes(reference_run):
    offline_data, offline = reference_run["offline"]
    streaming_data, streaming = reference_run["streaming"]
    assert streaming_data == offline_data
    assert streaming.motion.frames.tobytes() == offline.motion.frames.tobytes()
