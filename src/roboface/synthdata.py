"""Synthetic training data: smooth coefficient tracks plus correlated
pseudo-logits.

Real captures pair phoneme posteriors with tracked blendshape targets;
for tests and demos we fabricate both sides. Coefficient tracks are sums
of a few low-frequency sinusoids clipped to [0, 1], and the logits are a
fixed random linear image of the coefficients plus noise, so a model can
actually learn the mapping.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .formats import load_logits, load_motion, save_logits, save_motion
from .frontend import PhonemeLogitStream, make_windows
from .lbs import LbsRig, MotionSequence
from .motionnet import TrainingSample
from .util import check_count, is_index, is_positive_finite

MANIFEST_NAME = "manifest.json"


def make_motion(
    frame_count: int,
    channel_count: int,
    fps: float,
    rng: np.random.Generator,
) -> MotionSequence:
    """Smooth random activation tracks in [0, 1], one per channel: three
    slow sinusoids around 0.5."""
    check_count("frame_count", frame_count)
    t = np.arange(frame_count) / fps
    frames = np.empty((frame_count, channel_count))
    for c in range(channel_count):
        y = np.zeros(frame_count)
        for _ in range(3):
            amp = rng.uniform(0.05, 0.25)
            freq = rng.uniform(0.1, 2.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            y += amp * np.sin(2.0 * np.pi * freq * t + phase)
        frames[:, c] = np.clip(0.5 + y, 0.0, 1.0)
    return MotionSequence(fps, frames)


def make_logits(
    motion: MotionSequence, class_count: int, seed: int, noise: float = 0.05
) -> PhonemeLogitStream:
    """Pseudo-logits correlated with the motion through one fixed random
    projection per seed; the projection, not the noise, carries the signal."""
    rng = np.random.default_rng(seed)
    channels = motion.blendshape_count
    projection = rng.normal(0.0, 1.0, (channels, class_count)) / np.sqrt(channels)
    frames = (motion.frames - 0.5) @ projection
    frames += rng.normal(0.0, noise, frames.shape)
    return PhonemeLogitStream(rate_hz=motion.fps, frames=frames)


def build_samples(
    rig: LbsRig,
    motion: MotionSequence,
    logits: PhonemeLogitStream,
    style_id: int,
    window_size: int,
) -> list[TrainingSample]:
    """Per-frame training pairs: a centered logit window against that
    frame's coefficients, which training scores as the face ``rig``
    decodes from them (``motionnet._batch_losses``). The windows come from
    one ``make_windows``; each sample holds a view of one window and one
    row of ``motion.frames``, so no mesh is decoded here. ``rig`` fixes the
    coefficient count each frame must have."""
    if motion.frame_count != logits.frame_count:
        raise ValueError(
            f"motion has {motion.frame_count} frames, logits "
            f"{logits.frame_count}; clips must be aligned"
        )
    if motion.fps != logits.rate_hz:
        raise ValueError("motion and logits must share one frame rate")
    if motion.blendshape_count != rig.blendshape_count:
        raise ValueError(
            f"motion has {motion.blendshape_count} coefficients per frame, "
            f"rig has {rig.blendshape_count} blendshapes"
        )
    windows = make_windows(logits, window_size)
    return [
        TrainingSample(window, style_id, target_coefficients=frame)
        for window, frame in zip(windows, motion.frames)
    ]


def check_dataset_settings(
    clip_count, frame_count, fps, class_count, style_count, seed
) -> None:
    """Raise ``ValueError`` for a ``write_dataset`` setting it cannot use:
    each count must be an integer of at least 1, ``fps`` finite and
    positive, and ``seed`` a nonnegative integer."""
    for name, value in (("clip_count", clip_count), ("frame_count", frame_count),
                        ("class_count", class_count), ("style_count", style_count)):
        check_count(name, value)
    if not is_positive_finite(fps):
        raise ValueError(f"fps must be finite and positive, got {fps!r}")
    if not is_index(seed):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def write_dataset(
    directory,
    rig: LbsRig,
    clip_count: int = 4,
    frame_count: int = 100,
    fps: float = 25.0,
    class_count: int = 392,
    style_count: int = 1,
    seed: int = 0,
) -> Path:
    """Generate clips on disk plus a manifest; returns the manifest path.

    Each clip is one logit stream and one aligned coefficient track; the
    manifest records the pairing and the clip's style id (clips cycle
    through the styles). Every setting is checked
    (``check_dataset_settings``) before anything is created.
    """
    check_dataset_settings(
        clip_count, frame_count, fps, class_count, style_count, seed
    )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    clips = []
    for i in range(clip_count):
        motion = make_motion(frame_count, rig.blendshape_count, fps, rng)
        logits = make_logits(motion, class_count, seed=int(rng.integers(2**31)))
        motion_name = f"clip_{i}.lbsm"
        logits_name = f"clip_{i}.phlg"
        save_motion(directory / motion_name, motion)
        save_logits(directory / logits_name, logits.rate_hz, logits.frames)
        clips.append(
            {
                "logits": logits_name,
                "coeffs": motion_name,
                "style_id": i % style_count,
            }
        )
    manifest = directory / MANIFEST_NAME
    manifest.write_text(json.dumps({"clips": clips}, indent=2) + "\n")
    return manifest


def load_dataset(
    directory, rig: LbsRig, window_size: int
) -> tuple[list[TrainingSample], int]:
    """Read a manifest directory back into training samples.

    Returns the samples and the style count (max style id + 1), which sizes
    the model's style table.
    """
    directory = Path(directory)
    manifest = directory / MANIFEST_NAME
    if not manifest.is_file():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory}")
    clips = json.loads(manifest.read_text())["clips"]
    if not clips:
        raise ValueError("manifest lists no clips")
    samples: list[TrainingSample] = []
    max_style = 0
    for clip in clips:
        motion = load_motion(directory / clip["coeffs"])
        rate, frames = load_logits(directory / clip["logits"])
        logits = PhonemeLogitStream(rate_hz=rate, frames=frames)
        style_id = clip["style_id"]
        if not is_index(style_id):
            raise ValueError(
                f"clip {clip['logits']} style_id must be a nonnegative "
                f"integer, got {style_id!r}"
            )
        max_style = max(max_style, style_id)
        samples.extend(build_samples(rig, motion, logits, style_id, window_size))
    return samples, max_style + 1
