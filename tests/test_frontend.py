"""Logit frontend: resampling, windowing, and the stub extractor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roboface.frontend import (
    BLANK_CLASS,
    CLASS_COUNT,
    PhonemeLogitStream,
    StreamingWindower,
    band_edges,
    make_windows,
    resample,
    stub_extractor,
    window_at,
)


def stream_of(frames, rate=49.0):
    return PhonemeLogitStream(rate, np.asarray(frames, dtype=np.float64))


class TestResample:
    def test_constant_stream_stays_exactly_constant(self):
        frames = np.tile([1.25, -3.5, 0.0625], (20, 1))
        out = resample(stream_of(frames), 25.0)
        assert out.rate_hz == 25.0
        for row in out.frames:
            np.testing.assert_array_equal(row, frames[0])

    def test_same_rate_is_identity(self):
        rng = np.random.default_rng(0)
        frames = rng.normal(0, 4, (17, 5))
        out = resample(stream_of(frames, 49.0), 49.0)
        np.testing.assert_array_equal(out.frames, frames)

    def test_two_frame_ramp_midpoint(self):
        frames = np.array([[0.0, 10.0], [1.0, 20.0]])
        out = resample(stream_of(frames, 10.0), 20.0)
        assert out.frame_count == 3
        np.testing.assert_array_equal(out.frames[0], frames[0])
        np.testing.assert_allclose(out.frames[1], [0.5, 15.0], rtol=1e-15)
        np.testing.assert_array_equal(out.frames[2], frames[1])

    def test_matches_hand_interpolation(self):
        rng = np.random.default_rng(1)
        frames = rng.normal(0, 2, (8, 3))
        out = resample(stream_of(frames, 49.0), 25.0)
        for j, row in enumerate(out.frames):
            pos = j * 49.0 / 25.0
            j0 = min(int(np.floor(pos)), 7)
            j1 = min(j0 + 1, 7)
            frac = pos - j0
            expected = frames[j0] + frac * (frames[j1] - frames[j0])
            np.testing.assert_array_equal(row, expected)

    def test_duration_preserved_within_one_frame(self):
        frames = np.zeros((49, 2))
        out = resample(stream_of(frames, 49.0), 25.0)
        assert abs(out.frame_count / 25.0 - 49 / 49.0) <= 1 / 25.0

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            resample(stream_of(np.zeros((0, 3))), 25.0)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_target_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="target_hz"):
            resample(stream_of(np.zeros((4, 3))), rate)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_stream_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="rate_hz"):
            stream_of(np.zeros((4, 3)), rate)


class TestMakeWindows:
    def test_window_shape_and_span(self):
        stream = stream_of(np.arange(40).reshape(10, 4), rate=25.0)
        windows = make_windows(stream, 8)
        assert windows.shape == (10, 8, 4)
        # 8 frames at 25 Hz = 320 ms of context.
        assert 8 / stream.rate_hz == pytest.approx(0.320)

    def test_single_frame_stream_replicates(self):
        stream = stream_of([[3.0, 4.0]], rate=25.0)
        windows = make_windows(stream, 8)
        assert windows.shape == (1, 8, 2)
        for k in range(8):
            np.testing.assert_array_equal(windows[0, k], [3.0, 4.0])

    def test_edge_replication_matches_index_oracle(self):
        frames = np.arange(10)[:, None].astype(float)
        windows = make_windows(stream_of(frames, 25.0), 8)
        for t in range(10):
            for j, src in enumerate(range(t - 4, t + 4)):
                expected = min(max(src, 0), 9)
                assert windows[t, j, 0] == expected
        # Window 0 replicates frame 0 in its four look-back slots.
        np.testing.assert_array_equal(windows[0, :4, 0], np.zeros(4))

    def test_non_power_of_two_rejected(self):
        stream = stream_of(np.zeros((4, 2)))
        for k in (0, 3, 6, 12):
            with pytest.raises(ValueError, match="power of two"):
                make_windows(stream, k)

    @settings(max_examples=20, deadline=None)
    @given(t=st.integers(1, 30), log_k=st.integers(0, 4))
    def test_window_count_equals_frame_count(self, t, log_k):
        stream = stream_of(np.random.default_rng(t).normal(0, 1, (t, 3)), 25.0)
        windows = make_windows(stream, 2**log_k)
        assert windows.shape[0] == t


class TestStreamingWindower:
    def test_matches_offline_windows(self):
        rng = np.random.default_rng(2)
        frames = rng.normal(0, 1, (11, 6))
        offline = make_windows(stream_of(frames, 25.0), 8)
        w = StreamingWindower(8, 6)
        live = []
        for f in frames:
            live.extend(w.push(f))
        live.extend(w.finish())
        assert len(live) == 11
        for a, b in zip(live, offline):
            np.testing.assert_array_equal(a, b)

    def test_window_at_matches_offline(self):
        rng = np.random.default_rng(3)
        frames = rng.normal(0, 1, (9, 4))
        offline = make_windows(stream_of(frames, 25.0), 4)
        for t in range(9):
            np.testing.assert_array_equal(window_at(frames, t, 4), offline[t])

    def test_emission_latency_is_half_window(self):
        w = StreamingWindower(8, 1)
        emitted = []
        for i in range(8):
            emitted.append(len(w.push(np.array([float(i)]))))
        # Nothing can come out before frame K/2 - 1 arrives.
        assert emitted[:3] == [0, 0, 0]
        assert emitted[3] == 1


def reference_band_energies(frame):
    """Direct DFT restatement of the stub's band-energy features."""
    windowed = frame * np.hanning(400)
    n = 512
    padded = np.zeros(n)
    padded[:400] = windowed
    k = np.arange(n // 2 + 1)
    dft = np.array(
        [np.sum(padded * np.exp(-2j * np.pi * kk * np.arange(n) / n)) for kk in k]
    )
    power = np.abs(dft) ** 2
    edges = band_edges()
    bins = k * (16000 / n)
    energies = np.zeros(CLASS_COUNT - 1)
    for b in range(CLASS_COUNT - 1):
        left, center, right = edges[b], edges[b + 1], edges[b + 2]
        up = (bins - left) / max(center - left, 1e-12)
        down = (right - bins) / max(right - center, 1e-12)
        energies[b] = np.sum(np.clip(np.minimum(up, down), 0, None) * power)
    return energies


class TestStubExtractor:
    def test_silence_is_blank_dominant(self):
        stream = stub_extractor(np.zeros(16000))
        assert stream.frame_count == 49
        assert (stream.frames.argmax(axis=1) == BLANK_CLASS).all()

    def test_one_second_frame_count(self):
        assert stub_extractor(np.zeros(16000)).frame_count in (48, 49, 50)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        pcm = rng.normal(0, 0.1, 8000)
        a = stub_extractor(pcm)
        b = stub_extractor(pcm.copy())
        assert a.frames.tobytes() == b.frames.tobytes()

    def test_tone_matches_independent_dft_oracle(self):
        t = np.arange(4000) / 16000
        pcm = 0.5 * np.sin(2 * np.pi * 440.0 * t)
        stream = stub_extractor(pcm)
        for frame_idx in (0, 5):
            frame = pcm[frame_idx * 320 : frame_idx * 320 + 400]
            expected = np.log(reference_band_energies(frame) + 1e-10)
            np.testing.assert_allclose(
                stream.frames[frame_idx, 1:], expected, rtol=1e-9, atol=1e-9
            )

    def test_hop_periodic_tone_gives_identical_frames(self):
        # 500 Hz puts exactly 10 cycles in each 320-sample hop, so every
        # analysis window sees the same waveform.
        t = np.arange(16000) / 16000
        pcm = 0.25 * np.sin(2 * np.pi * 500.0 * t)
        stream = stub_extractor(pcm)
        first = stream.frames[1]
        # The sine argument grows by 20*pi per hop, so sample values repeat
        # only to ~1e-14; the log energies inherit a ~1e-8 wobble.
        for row in stream.frames[2:-1]:
            np.testing.assert_allclose(row, first, atol=1e-6)

    def test_empty_audio_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            stub_extractor(np.zeros(0))


class TestStreamingWindowerBounded:
    def test_long_stream_keeps_k_frames_and_matches_offline(self):
        k, classes, total = 8, 4, 10_000
        frames = np.random.default_rng(5).normal(0, 1, (total, classes))
        w = StreamingWindower(k, classes)
        live = []
        for f in frames:
            live.extend(w.push(f))
            assert len(w._frames) <= k
        live.extend(w.finish())
        assert len(w._frames) <= k
        offline = make_windows(stream_of(frames, 25.0), k)
        assert np.stack(live).tobytes() == offline.tobytes()

    def test_streams_shorter_than_window(self):
        frames = np.random.default_rng(6).normal(0, 1, (3, 2))
        w = StreamingWindower(8, 2)
        live = [win for f in frames for win in w.push(f)] + w.finish()
        offline = make_windows(stream_of(frames, 25.0), 8)
        assert np.stack(live).tobytes() == offline.tobytes()
