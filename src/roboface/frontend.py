"""Phoneme-logit ingestion: resampling, sliding windows, stub extraction.

The motion model consumes 392-class phoneme logits. Production systems get
them from a frozen pretrained speech encoder at a nominal 49 Hz and hand
them over through the .phlg file format; this module resamples such streams
to the 25 Hz orchestration rate, cuts centered K-frame windows, and offers
a deterministic signal-processing stub extractor so the repo is exercisable
without any deep-learning runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import frozen_array as _frozen, is_positive_finite

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

    @property
    def duration_s(self) -> float:
        return self.frame_count / self.rate_hz


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


def make_windows(stream: PhonemeLogitStream, k: int) -> np.ndarray:
    """Centered K-frame windows, one per stream frame, shape (T, K, classes).

    Window t covers frames [t - K/2, t + K/2); out-of-range positions
    replicate the nearest edge frame. K must be a power of two because the
    temporal fusion stack halves the window log2(K) times.
    """
    _check_window_size(k)
    if stream.frame_count == 0:
        raise ValueError("cannot window an empty stream")
    t = stream.frame_count
    return stream.frames[_window_indices(np.arange(t), k, t)]


def window_at(stream_frames: np.ndarray, t: int, k: int) -> np.ndarray:
    """One centered window over a (T, classes) frame array; edge-replicated.

    Matches make_windows(stream, k)[t]; usable incrementally by streaming
    consumers that only have frames up to t + K/2 - 1.
    """
    return stream_frames[_window_indices(t, k, stream_frames.shape[0])]


def _window_indices(t, k: int, total: int) -> np.ndarray:
    """Frame indices of the centered window(s) at output index t (scalar or
    array), clipped to [0, total - 1] so the edge frames replicate."""
    offsets = np.arange(-(k // 2), k // 2)
    return np.clip(np.asarray(t)[..., None] + offsets, 0, total - 1)


def _check_window_size(k: int) -> None:
    if k < 1 or (k & (k - 1)) != 0:
        raise ValueError(f"window size must be a power of two, got {k}")


class StreamingWindower:
    """Incremental equivalent of make_windows for live frame feeds.

    Frames arrive one at a time; a window for output index t is emitted as
    soon as frame t + K/2 - 1 exists. ``finish`` flushes the tail, where the
    missing future frames replicate the final frame, exactly as the offline
    path does. Every window still to be emitted starts at or after frame
    ``pushed - K``, so only the last K frames are kept, in a ring buffer:
    memory stays bounded however long the stream runs. One instance serves
    one stream.
    """

    def __init__(self, k: int, class_count: int):
        _check_window_size(k)
        self.k = k
        self.class_count = class_count
        self._frames = np.empty((k, class_count))
        self._pushed = 0
        self._next_out = 0

    def _window(self, t: int) -> np.ndarray:
        return self._frames[_window_indices(t, self.k, self._pushed) % self.k]

    def push(self, frame: np.ndarray) -> list[np.ndarray]:
        """Add one frame; returns the windows that became complete."""
        frame = np.asarray(frame, dtype=np.float64)
        if frame.shape != (self.class_count,):
            raise ValueError(
                f"frame has shape {frame.shape}, expected ({self.class_count},)"
            )
        self._frames[self._pushed % self.k] = frame
        self._pushed += 1
        out = []
        while self._next_out + self.k // 2 <= self._pushed:
            out.append(self._window(self._next_out))
            self._next_out += 1
        return out

    def finish(self) -> list[np.ndarray]:
        """Emit the remaining windows once the stream has ended."""
        out = []
        while self._next_out < self._pushed:
            out.append(self._window(self._next_out))
            self._next_out += 1
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


def _band_weights() -> np.ndarray:
    """(class_count - 1, fft_bins) triangular filterbank."""
    edges = band_edges()
    bins = np.arange(_FFT_SIZE // 2 + 1) * (_AUDIO_HZ / _FFT_SIZE)
    n_bands = edges.size - 2
    weights = np.zeros((n_bands, bins.size))
    for b in range(n_bands):
        left, center, right = edges[b], edges[b + 1], edges[b + 2]
        up = (bins - left) / max(center - left, 1e-12)
        down = (right - bins) / max(right - center, 1e-12)
        weights[b] = np.clip(np.minimum(up, down), 0.0, None)
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
