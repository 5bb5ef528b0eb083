"""Seeded input generators for the benchmark workloads.

Everything the program under test receives is made here from the workload
seed, before any timing starts: speech-like logit streams, speech-like
16 kHz PCM, noisy dense capture frames and a name-permuted source rig.
The generators live in the benchmark so that a change to the program's own
synthetic-data helpers cannot change the benchmark's inputs.
"""

from __future__ import annotations

import numpy as np

TICK_HZ = 25.0
AUDIO_HZ = 16000


def smooth_tracks(frame_count: int, channels: int, rng: np.random.Generator) -> np.ndarray:
    """(T, channels) activations in [0, 1]: three slow sinusoids per channel
    around 0.5, the recipe of ``roboface.synthdata.make_motion``."""
    t = np.arange(frame_count)[:, None] / TICK_HZ
    amp = rng.uniform(0.05, 0.25, (3, channels))
    freq = rng.uniform(0.1, 2.0, (3, channels))
    phase = rng.uniform(0.0, 2.0 * np.pi, (3, channels))
    y = sum(amp[i] * np.sin(2.0 * np.pi * freq[i] * t + phase[i]) for i in range(3))
    return np.clip(0.5 + y, 0.0, 1.0)


def speech_logits(tracks: np.ndarray, class_count: int, rng: np.random.Generator,
                  noise: float = 0.05) -> np.ndarray:
    """Pseudo phoneme logits at the tick rate: a fixed random projection of
    the coefficient tracks plus Gaussian noise (``make_logits``' recipe)."""
    channels = tracks.shape[1]
    projection = rng.normal(0.0, 1.0, (channels, class_count)) / np.sqrt(channels)
    return (tracks - 0.5) @ projection + rng.normal(0.0, noise, (tracks.shape[0], class_count))


def speech_pcm(seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Speech-like mono 16 kHz audio in [-1, 1].

    A gliding 90-220 Hz voice with eight harmonics, gated by a ~4 Hz
    syllable envelope, with 0.2-0.6 s pauses between phrases and a low
    noise floor throughout.
    """
    n = int(round(seconds * AUDIO_HZ))
    t = np.arange(n) / AUDIO_HZ
    f0 = rng.uniform(90.0, 220.0) * (1.0 + 0.1 * np.sin(2.0 * np.pi * rng.uniform(0.2, 0.6) * t))
    phase = 2.0 * np.pi * np.cumsum(f0) / AUDIO_HZ
    voice = sum(np.sin(k * phase + rng.uniform(0, 2 * np.pi)) / k for k in range(1, 9))
    syllable_hz = rng.uniform(3.0, 5.0)
    envelope = np.maximum(np.sin(2.0 * np.pi * syllable_hz * t + rng.uniform(0, 2 * np.pi)), 0.0) ** 2
    gate = np.ones(n)
    pos = int(rng.uniform(0.5, 1.5) * AUDIO_HZ)
    while pos < n:
        gap = int(rng.uniform(0.2, 0.6) * AUDIO_HZ)
        gate[pos:pos + gap] = 0.0
        pos += gap + int(rng.uniform(0.8, 2.0) * AUDIO_HZ)
    pcm = 0.3 * envelope * gate * voice + rng.normal(0.0, 0.003, n)
    return np.clip(pcm, -1.0, 1.0)


def dense_frames(rig, tracks: np.ndarray, rng: np.random.Generator,
                 noise_mm: float = 0.05) -> np.ndarray:
    """(T, 3V) captured vertex positions: the tracks skinned through the rig
    plus Gaussian capture noise in millimetres."""
    clean = tracks @ rig.basis.matrix + rig.mesh.positions
    return clean + rng.normal(0.0, noise_mm, clean.shape)


def permuted_source_rig(rig, rng: np.random.Generator):
    """The same face with its blendshapes stored in a shuffled order, so the
    model's coefficient space differs from the robot rig's by name."""
    from roboface import BlendshapeBasis, LbsRig

    order = rng.permutation(rig.blendshape_count)
    basis = BlendshapeBasis(
        tuple(rig.basis.names[i] for i in order),
        tuple(rig.basis.displacements[i] for i in order),
    )
    return LbsRig(mesh=rig.mesh, basis=basis, mouth_mask=rig.mouth_mask,
                  landmark_groups=rig.landmark_groups)
