"""Butterworth design and causal filtering against closed-form oracles."""

import numpy as np
import pytest
import scipy.signal

from roboface.lbs import MotionSequence
from roboface.smoothing import (
    BiquadCascade,
    FilterSpec,
    StreamingFilter,
    design,
    filter_sequence,
    frequency_response,
    group_delay_frames,
)

SPEC = FilterSpec(order=5, cutoff_hz=7.0, sample_hz=25.0)
CASCADE = design(SPEC)


def mag_db(cascade, f):
    mag = abs(frequency_response(cascade, f))
    return 20.0 * np.log10(max(mag, 1e-300))


def analog_magnitude(f, spec):
    """Closed-form Butterworth magnitude at the pre-warped frequency.

    The bilinear transform maps digital frequency f to the analog frequency
    2 fs tan(pi f / fs); the prototype magnitude is 1/sqrt(1 + (w/wc)^2n).
    """
    fs = spec.sample_hz
    w = 2.0 * fs * np.tan(np.pi * f / fs)
    wc = 2.0 * fs * np.tan(np.pi * spec.cutoff_hz / fs)
    return 1.0 / np.sqrt(1.0 + (w / wc) ** (2 * spec.order))


class TestDesign:
    def test_reference_points_in_db(self):
        assert mag_db(CASCADE, 0.0) == pytest.approx(0.0, abs=1e-9)
        assert mag_db(CASCADE, 7.0) == pytest.approx(-3.0103, abs=0.01)
        assert mag_db(CASCADE, 12.5) <= -25.0

    def test_matches_closed_form_everywhere(self):
        for f in np.arange(0.25, 12.3, 0.25):
            expected = analog_magnitude(f, SPEC)
            assert abs(frequency_response(CASCADE, f)) == pytest.approx(
                expected, rel=1e-9
            )

    def test_magnitude_monotone_to_nyquist(self):
        freqs = list(np.arange(0.0, 12.5, 1.0)) + [12.5]
        mags = [abs(frequency_response(CASCADE, f)) for f in freqs]
        assert all(b <= a + 1e-12 for a, b in zip(mags, mags[1:]))

    def test_sections_have_unit_dc_gain(self):
        for b0, b1, b2, a1, a2 in CASCADE.sections:
            assert (b0 + b1 + b2) / (1.0 + a1 + a2) == pytest.approx(1.0, abs=1e-12)

    def test_matches_library_design(self):
        sos = scipy.signal.butter(5, 7.0, fs=25.0, output="sos")
        for f in np.arange(0.0, 12.6, 0.5):
            _, h = scipy.signal.sosfreqz(sos, worN=[f], fs=25.0)
            assert abs(frequency_response(CASCADE, f)) == pytest.approx(
                abs(h[0]), abs=1e-8
            )

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="cutoff"):
            FilterSpec(order=5, cutoff_hz=12.5, sample_hz=25.0)
        with pytest.raises(ValueError, match="order"):
            FilterSpec(order=0, cutoff_hz=7.0, sample_hz=25.0)
        for order in (True, 2.5, 3.0):
            with pytest.raises(ValueError, match="order"):
                FilterSpec(order=order, cutoff_hz=7.0, sample_hz=25.0)
        for cutoff in (True, "7.0"):
            with pytest.raises(ValueError, match="cutoff_hz"):
                FilterSpec(order=5, cutoff_hz=cutoff, sample_hz=25.0)
        assert FilterSpec(order=5, cutoff_hz=np.float32(7.0), sample_hz=np.int64(25))

    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -1.0, True, "25"])
    def test_bad_sample_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="sample_hz"):
            FilterSpec(order=5, cutoff_hz=7.0, sample_hz=rate)

    def test_even_order_design_is_clean(self):
        cascade = design(FilterSpec(order=4, cutoff_hz=5.0, sample_hz=25.0))
        assert cascade.sections.shape == (2, 5)
        assert mag_db(cascade, 5.0) == pytest.approx(-3.0103, abs=0.01)

    def test_group_delay_plausible(self):
        # Roughly 1.3 frames at DC, peaking near cutoff, around 3 frames
        # mid-passband. The library's group delay at DC is the oracle, also
        # at tick rates of 2 Hz and less, where 1 Hz is at or past Nyquist.
        for spec in (SPEC, FilterSpec(5, 0.5, 2.0), FilterSpec(5, 0.5, 1.5),
                     FilterSpec(5, 0.3, 1.0), FilterSpec(4, 5.0, 25.0)):
            cascade = design(spec)
            sos = np.insert(cascade.sections, 3, 1.0, axis=1)
            b, a = scipy.signal.sos2tf(sos)
            _, delay = scipy.signal.group_delay(
                (b, a), w=[0.0, spec.cutoff_hz], fs=spec.sample_hz
            )
            assert group_delay_frames(cascade) == pytest.approx(delay[0], abs=1e-11)
            assert delay[1] >= delay[0]
        _, delay = scipy.signal.group_delay(
            scipy.signal.sos2tf(np.insert(CASCADE.sections, 3, 1.0, axis=1)),
            w=[6.0], fs=25.0,
        )
        assert 1.0 <= group_delay_frames(CASCADE) <= 2.0
        assert 2.5 <= delay[0] <= 5.0


def oracle_filter(sections, signal):
    """Independent direct-form-I restatement with the same start policy."""
    x0 = signal[0]
    u = [s - x0 for s in signal]
    for b0, b1, b2, a1, a2 in sections:
        y = []
        for n in range(len(u)):
            xm1 = u[n - 1] if n >= 1 else 0.0
            xm2 = u[n - 2] if n >= 2 else 0.0
            ym1 = y[n - 1] if n >= 1 else 0.0
            ym2 = y[n - 2] if n >= 2 else 0.0
            y.append(b0 * u[n] + b1 * xm1 + b2 * xm2 - a1 * ym1 - a2 * ym2)
        u = y
    return [min(max(v + x0, 0.0), 1.0) for v in u]


class TestFiltering:
    def test_constant_input_passes_bitwise(self):
        value = 0.37281
        seq = MotionSequence(25.0, np.full((50, 3), value))
        out = filter_sequence(CASCADE, seq)
        assert out.frames.tobytes() == seq.frames.tobytes()

    def test_impulse_matches_difference_equation_oracle(self):
        signal = [1.0] + [0.0] * 99
        filt = StreamingFilter(CASCADE)
        got = [filt.step(x) for x in signal]
        expected = oracle_filter(CASCADE.sections, signal)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_random_signal_matches_oracle(self):
        rng = np.random.default_rng(8)
        signal = rng.uniform(0, 1, 120).tolist()
        filt = StreamingFilter(CASCADE)
        got = [filt.step(x) for x in signal]
        expected = oracle_filter(CASCADE.sections, signal)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_impulse_decays_below_1e9(self):
        filt = StreamingFilter(CASCADE)
        out = [filt.step(1.0)] + [filt.step(0.0) for _ in range(300)]
        # 10 s of samples at 25 Hz = 250; check everything past that.
        assert max(abs(v) for v in out[250:]) < 1e-9

    def test_nyquist_alternation_attenuated(self):
        seq = MotionSequence(25.0, np.array([[float(t % 2)] for t in range(200)]))
        out = filter_sequence(CASCADE, seq)
        tail = out.frames[100:, 0]
        # Input swings around 0.5 with amplitude 0.5; -25 dB caps the
        # steady-state output swing at 0.5 * 10^(-25/20).
        assert tail.max() - tail.min() <= 2 * 0.5 * 10 ** (-25 / 20)

    def test_smooth_inband_signal_never_clamps(self):
        t = np.arange(300) / 25.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            signal = np.full(300, 0.5)
            for _ in range(4):
                f = rng.uniform(0.2, 4.0)
                signal = signal + rng.uniform(0.02, 0.1) * np.sin(
                    2 * np.pi * f * t + rng.uniform(0, 2 * np.pi)
                )
            signal = np.clip(signal, 0.05, 0.95)
            filt = StreamingFilter(CASCADE)
            out = np.array([filt.step(x) for x in signal])
            assert out.min() > 0.0 and out.max() < 1.0

    def test_fps_mismatch_rejected(self):
        with pytest.raises(ValueError, match="fps"):
            filter_sequence(CASCADE, MotionSequence(30.0, np.zeros((5, 2))))


class TestFilterBank:
    @staticmethod
    def clamping_signal(frames=300, channels=51, seed=21):
        # Swings well past both box edges so the clamp fires at 0 and at 1.
        rng = np.random.default_rng(seed)
        return rng.uniform(-0.4, 1.4, (frames, channels))

    def test_bank_matches_independent_scalar_filters_bitwise(self):
        signal = self.clamping_signal()
        bank = StreamingFilter(CASCADE)
        got = np.array([bank.step(row) for row in signal])
        expected = np.empty_like(signal)
        for ch in range(signal.shape[1]):
            filt = StreamingFilter(CASCADE)
            expected[:, ch] = [filt.step(float(v)) for v in signal[:, ch]]
        assert (got == 0.0).any() and (got == 1.0).any()
        assert got.tobytes() == expected.tobytes()

    def test_filter_sequence_equals_row_by_row_bank(self):
        signal = np.clip(self.clamping_signal(seed=22), 0.0, 1.0)
        out = filter_sequence(CASCADE, MotionSequence(25.0, signal))
        bank = StreamingFilter(CASCADE)
        rows = np.array([bank.step(row) for row in signal])
        assert out.frames.tobytes() == rows.tobytes()

    def test_scalar_in_gives_float_out(self):
        filt = StreamingFilter(CASCADE)
        out = filt.step(0.25)
        assert type(out) is float and out == 0.25

    def test_channel_shape_fixed_by_first_sample(self):
        bank = StreamingFilter(CASCADE)
        assert bank.step(np.full(3, 0.5)).shape == (3,)
        with pytest.raises(ValueError, match="shape"):
            bank.step(np.full(4, 0.5))
        assert StreamingFilter(CASCADE).step(np.full(4, 0.5)).shape == (4,)
