"""Phoneme-logit ingestion: resampling, sliding windows, stub extraction.

The motion model consumes 392-class phoneme logits. Production systems get
them from a frozen pretrained speech encoder at a nominal 49 Hz and hand
them over through the .phlg file format; this module resamples such streams
to the 25 Hz orchestration rate, cuts centered K-frame windows, and offers
a deterministic signal-processing stub extractor so the repo is exercisable
without any deep-learning runtime.

One window rule: the window of frame t is rows [t, t + K) of the stream
padded with K/2 copies of its first frame and K/2 - 1 of its last.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .util import frozen_array as _frozen, is_index, is_positive_finite

CLASS_COUNT = 392
BLANK_CLASS = 0
NOMINAL_RATE_HZ = 49.0

_AUDIO_HZ = 16000
_FRAME_SAMPLES = 400  # 25 ms analysis window
_HOP_SAMPLES = 320  # 20 ms hop
_FFT_SIZE = 512
_BLANK_LOGIT = float(np.log(3e-10))
_ENERGY_FLOOR = 1e-10


@dataclass(frozen=True)
class PhonemeLogitStream:
    """Per-frame class logits: frames is (T, class_count) at rate_hz."""

    rate_hz: float
    frames: np.ndarray

    def __post_init__(self):
        if not is_positive_finite(self.rate_hz):
            raise ValueError("rate_hz must be finite and positive")
        frames = _frozen(self.frames)
        if frames.ndim != 2:
            raise ValueError("frames must be a (T, classes) array")
        object.__setattr__(self, "frames", frames)

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def class_count(self) -> int:
        return self.frames.shape[1]


def resample(stream: PhonemeLogitStream, target_hz: float) -> PhonemeLogitStream:
    """Linear interpolation per logit channel onto a target_hz frame grid.

    Output frame j sits at source position j * rate / target; the bracketing
    source frames are mixed as F[j0] + frac * (F[j1] - F[j0]). The delta form
    keeps constant streams exactly constant, and an unchanged rate reproduces
    the input frames. Endpoints clamp to the nearest source frame; stream
    duration is preserved to within one output frame period.
    """
    if not is_positive_finite(target_hz):
        raise ValueError("target_hz must be finite and positive")
    if stream.frame_count == 0:
        raise ValueError("cannot resample an empty stream")
    src = stream.frames
    t_in = stream.frame_count
    ratio = stream.rate_hz / target_hz
    t_out = int(np.floor((t_in - 1) / ratio)) + 1 if t_in > 1 else 1

    pos = np.arange(t_out) * ratio
    j0 = np.clip(np.floor(pos).astype(np.int64), 0, t_in - 1)
    j1 = np.minimum(j0 + 1, t_in - 1)
    frac = (pos - j0)[:, None]
    out = src[j0] + frac * (src[j1] - src[j0])
    return PhonemeLogitStream(target_hz, out)


def _edge_padded(frames: np.ndarray, k: int) -> np.ndarray:
    """The frames padded by the module's one window rule."""
    return np.pad(frames, ((k // 2, k // 2 - 1), (0, 0)), mode="edge")


def make_windows(stream: PhonemeLogitStream, k: int) -> np.ndarray:
    """Read-only view of the centered K-frame windows: (T, K, classes).

    Window t covers frames [t - K/2, t + K/2); out-of-range positions
    replicate the nearest edge frame. K must be a power of two of at least
    2 because the temporal fusion stack halves the window log2(K) times.
    """
    _check_window_size(k)
    if stream.frame_count == 0:
        raise ValueError("cannot window an empty stream")
    padded = _edge_padded(stream.frames, k)
    return sliding_window_view(padded, k, axis=0).transpose(0, 2, 1)


def window_at(stream_frames: np.ndarray, t: int, k: int) -> np.ndarray:
    """One centered window over a (T, classes) frame array; edge-replicated.
    Matches make_windows(stream, k)[t]; a bad k or t raises ``ValueError``."""
    _check_window_size(k)
    if not is_index(t, len(stream_frames)):
        raise ValueError(f"frame index {t!r} is not in [0, {len(stream_frames)})")
    return _edge_padded(stream_frames, k)[t : t + k].copy()


def _check_window_size(k: int) -> None:
    if not (is_index(k) and k >= 2 and (k & (k - 1)) == 0):
        raise ValueError(f"window size must be a power of two of at least 2, got {k!r}")


class StreamingWindower:
    """Incremental equivalent of make_windows for live frame feeds.

    It pads the stream as it arrives: the first frame goes in K/2 + 1
    times, each later frame once, and ``finish`` adds K/2 - 1 copies of
    the last. Each padded row from the K-th on completes a window, so
    window t leaves with frame t + K/2 - 1. Rows are written twice into a
    (2K, classes) buffer, so the last K rows are one contiguous slice and
    memory stays bounded however long the stream runs. One instance
    serves one stream; a second ``finish`` returns no window.
    """

    def __init__(self, k: int, class_count: int):
        _check_window_size(k)
        self.k = k
        self.class_count = class_count
        self._ring = np.empty((2 * k, class_count))
        self._rows = 0

    def _append(self, frame: np.ndarray, copies: int) -> list[np.ndarray]:
        out = []
        for _ in range(copies):
            slot = self._rows % self.k
            self._ring[slot] = self._ring[slot + self.k] = frame
            self._rows += 1
            if self._rows >= self.k:
                out.append(self._ring[slot + 1 : slot + 1 + self.k].copy())
        return out

    def push(self, frame: np.ndarray) -> list[np.ndarray]:
        """Add one frame; returns the windows that became complete."""
        frame = np.asarray(frame, dtype=np.float64)
        if frame.shape != (self.class_count,):
            raise ValueError(
                f"frame has shape {frame.shape}, expected ({self.class_count},)"
            )
        return self._append(frame, self.k // 2 + 1 if self._rows == 0 else 1)

    def finish(self) -> list[np.ndarray]:
        """Emit the remaining windows once the stream has ended."""
        out = self._append(self._ring[(self._rows - 1) % self.k], self.k // 2 - 1)
        self._rows = 0  # K/2 - 1 rows complete no window: a second finish emits none
        return out


def band_edges(class_count: int = CLASS_COUNT) -> np.ndarray:
    """Mel-spaced edge frequencies for the band-energy features.

    class_count - 1 triangular bands need class_count + 1 edges spanning
    0 Hz to Nyquist (8 kHz).
    """
    n_bands = class_count - 1
    mel_max = 2595.0 * np.log10(1.0 + (_AUDIO_HZ / 2) / 700.0)
    mels = np.linspace(0.0, mel_max, n_bands + 2)
    return 700.0 * (10.0 ** (mels / 2595.0) - 1.0)


@functools.cache
def _band_weights() -> np.ndarray:
    """(class_count - 1, fft_bins) triangular filterbank, built once and
    read-only."""
    edges = band_edges()
    bins = np.arange(_FFT_SIZE // 2 + 1) * (_AUDIO_HZ / _FFT_SIZE)
    n_bands = edges.size - 2
    weights = np.zeros((n_bands, bins.size))
    for b in range(n_bands):
        left, center, right = edges[b], edges[b + 1], edges[b + 2]
        up = (bins - left) / max(center - left, 1e-12)
        down = (right - bins) / max(right - center, 1e-12)
        weights[b] = np.clip(np.minimum(up, down), 0.0, None)
    weights.flags.writeable = False
    return weights


def stub_extractor(pcm: np.ndarray, sample_hz: int = _AUDIO_HZ) -> PhonemeLogitStream:
    """Deterministic pseudo-logits from mono 16 kHz audio.

    Each 25 ms Hann-windowed frame (20 ms hop) yields 391 log band energies
    from a fixed mel triangular filterbank; class 0 is a reserved blank whose
    constant logit dominates only when every band is near the energy floor,
    so silence maps to blank-argmax frames. Purely a function of the input
    samples: identical bytes give identical logits.
    """
    pcm = np.asarray(pcm, dtype=np.float64).reshape(-1)
    if pcm.size == 0:
        raise ValueError("audio is empty")
    if sample_hz != _AUDIO_HZ:
        raise ValueError(f"stub extractor expects {_AUDIO_HZ} Hz audio")
    if pcm.size < _FRAME_SAMPLES:
        pcm = np.pad(pcm, (0, _FRAME_SAMPLES - pcm.size))
    n_frames = (pcm.size - _FRAME_SAMPLES) // _HOP_SAMPLES + 1
    window = np.hanning(_FRAME_SAMPLES)
    weights = _band_weights()
    logits = np.empty((n_frames, CLASS_COUNT))
    logits[:, BLANK_CLASS] = _BLANK_LOGIT
    for t in range(n_frames):
        frame = pcm[t * _HOP_SAMPLES : t * _HOP_SAMPLES + _FRAME_SAMPLES]
        spectrum = np.fft.rfft(frame * window, n=_FFT_SIZE)
        energies = weights @ np.abs(spectrum) ** 2
        logits[t, 1:] = np.log(energies + _ENERGY_FLOOR)
    return PhonemeLogitStream(NOMINAL_RATE_HZ, logits)
