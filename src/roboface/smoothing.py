"""Temporal smoothing of coefficient trajectories.

A 5th-order 7 Hz low-pass Butterworth filter at the 25 Hz orchestration
rate, realized as a cascade of biquad (and one first-order) sections in
transposed direct form II. The design path is the textbook one: analog
Butterworth prototype poles, cutoff pre-warp, bilinear transform, pairing
of conjugate poles into sections. Every zero lands at z = -1 and each
section is normalized to unit DC gain, so the cascade passes constants
through untouched and fully nulls the Nyquist frequency.

Filtering is causal; a group delay of 1.34 frames at DC
(``group_delay_frames`` of the default design at 25 Hz) is the price of
real-time operation. States start in the steady state of the first input
sample, so a constant input produces that constant from sample 0. One
filter bank steps every coefficient channel of a sample at once, and
``filter_sequence`` runs that same bank row by row, so streaming and
offline filtering share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lbs import MotionSequence
from .util import frozen_array, is_index, is_positive_finite, is_real


@dataclass(frozen=True)
class FilterSpec:
    """Low-pass design request: analog-style cutoff at a given sample rate."""

    order: int = 5
    cutoff_hz: float = 7.0
    sample_hz: float = 25.0

    def __post_init__(self):
        if not (is_index(self.order) and self.order >= 1):
            raise ValueError(f"order must be an integer of at least 1, got {self.order!r}")
        if not is_positive_finite(self.sample_hz):
            raise ValueError(
                f"sample_hz must be finite and positive, got {self.sample_hz!r}"
            )
        if not (is_real(self.cutoff_hz) and 0 < self.cutoff_hz < self.sample_hz / 2):
            raise ValueError(
                f"cutoff_hz must lie in (0, {self.sample_hz / 2}) Hz, "
                f"got {self.cutoff_hz!r}"
            )


@dataclass(frozen=True)
class BiquadCascade:
    """Second-order sections as rows [b0, b1, b2, a1, a2] (a0 = 1)."""

    spec: FilterSpec
    sections: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sections", frozen_array(self.sections))


def design(spec: FilterSpec) -> BiquadCascade:
    """Butterworth low-pass as a unit-DC-gain biquad cascade.

    Pre-warping puts the -3.01 dB point exactly at cutoff_hz after the
    bilinear transform. Conjugate pole pairs become biquads with double
    zeros at z = -1; an odd order contributes one first-order section.
    """
    n = spec.order
    fs = spec.sample_hz
    warped = 2.0 * fs * np.tan(np.pi * spec.cutoff_hz / fs)

    # Analog prototype poles on the left unit semicircle, scaled to cutoff.
    k = np.arange(1, n + 1)
    poles = warped * np.exp(1j * np.pi * (2 * k + n - 1) / (2 * n))

    # Bilinear transform s -> 2 fs (z-1)/(z+1).
    z_poles = (2 * fs + poles) / (2 * fs - poles)

    sections = []
    real = [p for p in z_poles if abs(p.imag) < 1e-12]
    pairs = [p for p in z_poles if p.imag > 1e-12]
    for p in pairs:
        a1 = -2.0 * p.real
        a2 = abs(p) ** 2
        gain = (1.0 + a1 + a2) / 4.0
        sections.append([gain, 2.0 * gain, gain, a1, a2])
    for p in real:
        a1 = -p.real
        gain = (1.0 + a1) / 2.0
        sections.append([gain, gain, 0.0, a1, 0.0])
    cascade = BiquadCascade(spec, np.array(sections))

    mags = np.abs(np.array([frequency_response(cascade, f)
                            for f in (0.0, spec.cutoff_hz)]))
    if abs(mags[0] - 1.0) > 1e-9:
        raise AssertionError(f"DC gain {mags[0]} is not unity")
    if abs(mags[1] - 1.0 / np.sqrt(2.0)) > 1e-6:
        raise AssertionError(f"cutoff gain {mags[1]} is not -3 dB")
    if (np.abs(z_poles) >= 1.0).any():
        raise AssertionError("unstable pole after bilinear transform")
    return cascade


def frequency_response(cascade: BiquadCascade, freq_hz: float) -> complex:
    """H(e^{j 2 pi f / fs}) of the full cascade."""
    z = np.exp(2j * np.pi * freq_hz / cascade.spec.sample_hz)
    zi1, zi2 = 1.0 / z, 1.0 / (z * z)
    h = 1.0 + 0.0j
    for b0, b1, b2, a1, a2 in cascade.sections:
        h *= (b0 + b1 * zi1 + b2 * zi2) / (1.0 + a1 * zi1 + a2 * zi2)
    return h


def group_delay_frames(cascade: BiquadCascade) -> float:
    """Group delay in samples at DC, the delay a slow motion sees.

    The phase slope of a polynomial sum_k p_k z^-k at z = 1 is
    -sum_k k p_k / sum_k p_k, so each section adds its numerator's
    delay and subtracts its denominator's. Taken at DC, it holds at any
    cutoff and tick rate, however close the cutoff is to Nyquist.
    """
    delay = 0.0
    for b0, b1, b2, a1, a2 in cascade.sections:
        delay += (b1 + 2.0 * b2) / (b0 + b1 + b2) - (a1 + 2.0 * a2) / (1.0 + a1 + a2)
    return delay


class StreamingFilter:
    """Causal filter bank: one cascade run on every channel of each sample.

    Transposed direct form II per section, over a state of shape
    ``(sections, 2, *channel_shape)``. The first sample fixes the channel
    shape (a scalar gives a scalar bank) and the steady-state start: each
    channel filters its deviation from its first input sample with zero
    states and adds that sample back. For unit-DC-gain sections this equals
    preloading steady state, and it keeps constant inputs constant bitwise.
    The arithmetic per channel is that of a scalar filter, so a bank over B
    channels matches B independent scalar filters bitwise. ``step`` outputs
    are clamped to [0, 1]; a scalar in gives a float out.
    """

    def __init__(self, cascade: BiquadCascade):
        self.cascade = cascade
        # Python floats: scaling an array by one is cheaper than by a numpy
        # scalar, and gives the same float64 products.
        self._sections = cascade.sections.tolist()
        self._state: np.ndarray | None = None
        self._offset: np.ndarray | None = None

    def step(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self._offset is None:
            self._offset = x.copy()
            self._state = np.zeros((len(self._sections), 2) + x.shape)
        elif x.shape != self._offset.shape:
            raise ValueError(
                f"sample has shape {x.shape}, filter bank has {self._offset.shape}"
            )
        state = self._state
        u = x - self._offset
        for s, (b0, b1, b2, a1, a2) in enumerate(self._sections):
            y = b0 * u + state[s, 0]
            state[s, 0] = b1 * u - a1 * y + state[s, 1]
            state[s, 1] = b2 * u - a2 * y
            u = y
        out = np.minimum(np.maximum(u + self._offset, 0.0), 1.0)
        return float(out) if out.ndim == 0 else out


def filter_sequence(cascade: BiquadCascade, seq: MotionSequence) -> MotionSequence:
    """Filter every coefficient channel causally; fps must match the design.

    Runs the streaming bank over the frames row by row, so offline and
    streaming filtering share one code path and agree bitwise.
    """
    if seq.fps != cascade.spec.sample_hz:
        raise ValueError(
            f"sequence at {seq.fps} fps, filter designed for "
            f"{cascade.spec.sample_hz} Hz"
        )
    bank = StreamingFilter(cascade)
    out = np.empty_like(seq.frames)
    for t, row in enumerate(seq.frames):
        out[t] = bank.step(row)
    return MotionSequence(seq.fps, out)
