import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dubkit
from dubkit.audio import (TruncatedFileError, UnsupportedFormatError, Waveform,
                          pad_to_length, read_wav, resample, to_mono, write_wav)
from dubkit.dsp import mel_spectrogram, stft_magnitude

from helpers import make_tone, write_float32_wav, write_pcm16_raw, write_pcm16_wav


STANDARD_SOURCE_RATES = (8000, 11025, 16000, 24000, 32000, 44100, 48000, 88200,
                         96000, 176400, 192000, 352800, 384000, 705600, 768000)
STANDARD_TARGET_RATES = (16000, 22050, 24000, 44100, 48000)


def riff_header(sample_rate):
    """RIFF/WAVE header and a mono PCM16 fmt chunk (byte rate left 0)."""
    return (b"RIFF" + struct.pack("<I", 0) + b"WAVE" + b"fmt "
            + struct.pack("<IHHIIHH", 16, 1, 1, sample_rate, 0, 2, 16))


def spectrum_peak_hz(samples, sample_rate):
    spectrum = np.abs(np.fft.rfft(samples))
    return np.argmax(spectrum) * sample_rate / len(samples)


class TestReadWav:
    def test_mono_pcm16_header_fields(self, tmp_path):
        path = tmp_path / "tone.wav"
        write_pcm16_wav(path, [make_tone(440, 1.0, 22050)], 22050)
        w = read_wav(path)
        assert w.n_frames == 22050
        assert w.sample_rate == 22050
        assert w.n_channels == 1

    def test_all_zero_pcm_reads_exact_zeros(self, tmp_path):
        path = tmp_path / "silence.wav"
        write_pcm16_raw(path, [0] * 1000, 1, 22050)
        w = read_wav(path)
        assert np.all(w.samples == 0.0)

    def test_max_amplitude_normalization(self, tmp_path):
        # 32767 / 32768, by hand from the PCM normalization rule
        path = tmp_path / "max.wav"
        write_pcm16_raw(path, [32767, -32768], 1, 22050)
        w = read_wav(path)
        assert w.samples[0] == pytest.approx(32767 / 32768, abs=1e-9)
        assert w.samples[1] == pytest.approx(-1.0, abs=1e-9)

    def test_float32_payload(self, tmp_path):
        path = tmp_path / "f32.wav"
        values = [0.5, -0.25, 0.125]
        write_float32_wav(path, values, 16000)
        w = read_wav(path)
        assert w.sample_rate == 16000
        assert np.allclose(w.samples, values, atol=1e-9)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_float_payload(self, tmp_path, value):
        path = tmp_path / "f32.wav"
        write_float32_wav(path, [0.5, value], 16000)
        with pytest.raises(UnsupportedFormatError, match=f"{path}: float samples must be finite"):
            read_wav(path)

    def test_stereo_shape(self, tmp_path):
        path = tmp_path / "st.wav"
        write_pcm16_wav(path, [np.full(100, 0.25), np.full(100, -0.25)], 8000)
        w = read_wav(path)
        assert w.samples.shape == (100, 2)
        assert w.n_channels == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    def test_not_riff(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not audio at all, sorry")
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_unsupported_codec(self, tmp_path):
        import struct
        path = tmp_path / "alaw.wav"
        payload = b"\x00" * 16
        with open(path, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE")
            fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 6, 1, 8000, 8000, 1, 8))
            fh.write(b"data" + struct.pack("<I", len(payload)) + payload)
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "cut.wav"
        write_pcm16_raw(path, [100] * 50, 1, 8000)
        data = path.read_bytes()
        path.write_bytes(data[:-30])
        with pytest.raises(TruncatedFileError):
            read_wav(path)

    def test_oversized_chunk_is_refused_before_reading(self, tmp_path):
        # 244 bytes whose data chunk declares 0xFFFFFFF0: under a 1.5 GiB
        # address-space limit, reading that size first raises MemoryError
        path = tmp_path / "huge.wav"
        path.write_bytes(riff_header(22050) + b"data"
                         + struct.pack("<I", 0xFFFFFFF0) + b"\x00" * 200)
        assert path.stat().st_size == 244
        code = ("import resource, sys\n"
                "from dubkit.audio import TruncatedFileError, read_wav\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))\n"
                "try:\n"
                f"    read_wav({str(path)!r})\n"
                "except TruncatedFileError as exc:\n"
                "    print(exc)\n")
        env = {"PYTHONPATH": str(Path(dubkit.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "file ends inside data chunk (200 of 4294967280 bytes)" in result.stdout

    @pytest.mark.parametrize("rate", [0, 999, 768_001, 3_200_000_000])
    def test_implausible_sample_rate_rejected(self, tmp_path, rate):
        path = tmp_path / "rate.wav"
        path.write_bytes(riff_header(rate) + b"data" + struct.pack("<I", 4) + b"\x00" * 4)
        with pytest.raises(UnsupportedFormatError, match=f"sample rate {rate} Hz"):
            read_wav(path)

    @pytest.mark.parametrize("rate", [1000, 768_000])
    def test_sample_rate_range_is_inclusive(self, tmp_path, rate):
        path = tmp_path / "rate.wav"
        write_pcm16_raw(path, [0, 1], 1, rate)
        assert read_wav(path).sample_rate == rate

    def test_read_write_read_round_trip(self, tmp_path):
        first = tmp_path / "a.wav"
        second = tmp_path / "b.wav"
        write_pcm16_wav(first, [make_tone(440, 0.1, 22050)], 22050)
        w1 = read_wav(first)
        write_wav(second, w1)
        w2 = read_wav(second)
        # PCM-sourced data survives exactly (same 32768 scale both ways)
        assert np.array_equal(w1.samples, w2.samples)

    def test_write_read_within_one_step(self, tmp_path):
        path = tmp_path / "q.wav"
        w = Waveform(make_tone(313, 0.05, 22050, amplitude=0.7), 22050)
        write_wav(path, w)
        back = read_wav(path)
        assert np.max(np.abs(back.samples - w.samples)) <= 1.0 / 32768

    def test_stereo_write_read_round_trip(self, tmp_path):
        path = tmp_path / "st.wav"
        left = make_tone(220, 0.05, 22050, amplitude=0.5)
        right = make_tone(440, 0.05, 22050, amplitude=0.5)
        w = Waveform(np.stack([left, right], axis=1), 22050)
        write_wav(path, w)
        back = read_wav(path)
        assert back.samples.shape == w.samples.shape
        assert np.max(np.abs(back.samples - w.samples)) <= 1.0 / 32768


class TestToMono:
    def test_mono_unchanged_any_mode(self):
        w = Waveform(np.array([0.1, 0.2, 0.3]), 22050)
        for mode, channel in (("average", None), ("center", None), ("channel", 0)):
            out = to_mono(w, mode, channel=channel)
            assert np.array_equal(out.samples, w.samples)

    def test_mono_invalid_index_errors(self):
        w = Waveform(np.array([0.1, 0.2]), 22050)
        with pytest.raises(IndexError):
            to_mono(w, "channel", channel=1)

    def test_stereo_average(self):
        w = Waveform(np.array([[0.2, 0.4]]), 22050)
        out = to_mono(w, "average")
        assert out.samples.tolist() == [pytest.approx(0.3)]
        assert out.n_channels == 1

    def test_six_channel_center_is_index_two(self):
        frame = np.array([[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]])
        out = to_mono(Waveform(frame, 22050), "center")
        assert out.samples.tolist() == [pytest.approx(0.3)]

    def test_center_channel_carries_its_tone(self, tmp_path):
        # distinct per-channel tones: FC (index 2) carries 300 Hz
        sr = 22050
        tones = [make_tone(100 * (i + 1), 0.5, sr, amplitude=0.3) for i in range(6)]
        path = tmp_path / "six.wav"
        write_pcm16_wav(path, tones, sr)
        center = to_mono(read_wav(path), "center")
        assert spectrum_peak_hz(center.samples, sr) == pytest.approx(300, abs=2)

    def test_center_needs_three_channels(self):
        w = Waveform(np.zeros((10, 2)), 22050)
        with pytest.raises(ValueError):
            to_mono(w, "center")

    def test_channel_out_of_range(self):
        w = Waveform(np.zeros((10, 2)), 22050)
        with pytest.raises(IndexError):
            to_mono(w, "channel", channel=5)

    def test_channel_select(self):
        w = Waveform(np.array([[0.1, 0.9], [0.2, 0.8]]), 22050)
        out = to_mono(w, "channel", channel=1)
        assert out.samples.tolist() == [pytest.approx(0.9), pytest.approx(0.8)]

    @given(st.integers(-4, 4))
    def test_average_commutes_with_power_of_two_gain(self, exponent):
        scale = 2.0**exponent
        rng = np.random.default_rng(7)
        samples = rng.uniform(-0.4, 0.4, size=(50, 3))
        direct = to_mono(Waveform(samples * scale, 22050), "average").samples
        after = to_mono(Waveform(samples, 22050), "average").samples * scale
        assert np.array_equal(direct, after)

    def test_average_commutes_with_general_gain(self, rng):
        samples = rng.uniform(-0.2, 0.2, size=(80, 4))
        direct = to_mono(Waveform(samples * 0.3, 22050), "average").samples
        after = to_mono(Waveform(samples, 22050), "average").samples * 0.3
        assert np.allclose(direct, after, rtol=1e-12, atol=0)


class TestResample:
    def test_identity_is_bitwise(self):
        w = Waveform(make_tone(440, 0.25, 22050), 22050)
        out = resample(w, 22050)
        assert out is w

    def test_tone_survives_halving(self):
        w = Waveform(make_tone(440, 1.0, 44100), 44100)
        out = resample(w, 22050)
        assert out.sample_rate == 22050
        assert spectrum_peak_hz(out.samples, 22050) == pytest.approx(440, abs=1)

    def test_length_ratio(self):
        w = Waveform(np.zeros(48000), 48000)
        out = resample(w, 22050)
        assert abs(out.n_frames - 22050) <= 1

    def test_zero_rate_rejected(self):
        w = Waveform(np.zeros(100), 22050)
        with pytest.raises(ValueError):
            resample(w, 0)

    def test_requires_mono(self):
        w = Waveform(np.zeros((100, 2)), 22050)
        with pytest.raises(ValueError):
            resample(w, 16000)

    def test_upsampling_keeps_tone(self):
        w = Waveform(make_tone(1000, 0.5, 16000), 16000)
        out = resample(w, 22050)
        assert spectrum_peak_hz(out.samples, 22050) == pytest.approx(1000, abs=2)

    @pytest.mark.parametrize("target", STANDARD_TARGET_RATES)
    def test_standard_rates_within_factor_limit(self, target):
        for source in STANDARD_SOURCE_RATES:
            n = source // 100
            out = resample(Waveform(np.zeros(n), source), target)
            assert abs(out.n_frames - n * target / source) < 1


class TestPadToLength:
    def test_identity(self):
        w = Waveform(np.array([0.1, 0.2]), 22050)
        assert pad_to_length(w, 2) is w

    def test_zero_append(self):
        w = Waveform(np.array([0.5, -0.5]), 22050)
        out = pad_to_length(w, 4)
        assert out.samples.tolist() == [0.5, -0.5, 0.0, 0.0]

    def test_prefix_untouched(self, rng):
        samples = rng.uniform(-1, 1, 500)
        w = Waveform(samples, 22050)
        out = pad_to_length(w, 800)
        assert np.array_equal(out.samples[:500], samples)
        assert np.all(out.samples[500:] == 0.0)

    def test_shrink_rejected(self):
        w = Waveform(np.zeros(10), 22050)
        with pytest.raises(ValueError):
            pad_to_length(w, 5)

    def test_padded_region_is_feature_silence(self):
        # frames fully inside the appended zeros must equal silence frames
        sr = 22050
        w = Waveform(make_tone(440, 0.5, sr), sr)
        padded = pad_to_length(w, w.n_frames + sr)  # +1 s of zeros
        mel = mel_spectrogram(stft_magnitude(padded))
        floor_value = np.log(1e-10)
        # a frame centered 0.5 s into the padding: hop 256, window 1024
        deep_tail = (w.n_frames + sr // 2) // 256
        assert np.all(mel.frames[deep_tail] == floor_value)


@settings(max_examples=25)
@given(st.integers(1, 400), st.integers(0, 300))
def test_pad_property_prefix_and_zeros(n, extra):
    rng = np.random.default_rng(n * 7919 + extra)
    samples = rng.uniform(-1, 1, n)
    out = pad_to_length(Waveform(samples, 22050), n + extra)
    assert np.array_equal(out.samples[:n], samples)
    assert np.all(out.samples[n:] == 0.0)
