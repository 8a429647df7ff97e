import json
import re
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dubkit
from dubkit import audio
from dubkit.audio import (TruncatedFileError, UnsupportedFormatError, Waveform, read_mono,
                          read_wav, resample, to_mono)
from dubkit.dsp import mel_spectrogram, stft_magnitude

from helpers import (STANDARD_SOURCE_RATES, STANDARD_TARGET_RATES, make_tone,
                     write_float32_wav, write_pcm16_raw, write_pcm16_wav)
from reference_spectral import pad_to_length


def riff_header(sample_rate):
    """RIFF/WAVE header and a mono PCM16 fmt chunk (byte rate left 0)."""
    return (b"RIFF" + struct.pack("<I", 0) + b"WAVE" + b"fmt "
            + struct.pack("<IHHIIHH", 16, 1, 1, sample_rate, 0, 2, 16))


def spectrum_peak_hz(samples, sample_rate):
    spectrum = np.abs(np.fft.rfft(samples))
    return np.argmax(spectrum) * sample_rate / len(samples)


@pytest.mark.parametrize("samples,rate,message", [
    (np.zeros((2, 2, 2)), 100, "samples must be 1-D or 2-D, got 3-D"),
    (np.zeros(4), 0, "sample_rate must be positive, got 0"),
    (np.array([0.0, np.nan]), 100, "samples contain non-finite values"),
], ids=["3-D", "zero-rate", "nan"])
def test_waveform_rejects_what_no_clip_can_be(samples, rate, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Waveform(samples, rate)


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
        message = f"{path}: file ends inside data chunk (70 of 100 bytes)"
        for read in (read_wav, read_mono):
            with pytest.raises(TruncatedFileError, match=f"^{re.escape(message)}$"):
                read(path)

    def test_truncated_fmt_chunk_names_the_file(self, tmp_path):
        path = tmp_path / "cut.wav"
        path.write_bytes(riff_header(8000)[:30])
        message = f"{path}: file ends inside fmt chunk (10 of 16 bytes)"
        with pytest.raises(TruncatedFileError, match=f"^{re.escape(message)}$"):
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
        write_pcm16_wav(second, [w1.samples], w1.sample_rate)
        w2 = read_wav(second)
        # PCM-sourced data survives exactly (same 32768 scale both ways)
        assert np.array_equal(w1.samples, w2.samples)

    def test_write_read_within_one_step(self, tmp_path):
        path = tmp_path / "q.wav"
        tone = make_tone(313, 0.05, 22050, amplitude=0.7)
        write_pcm16_wav(path, [tone], 22050)
        back = read_wav(path)
        assert np.max(np.abs(back.samples - tone)) <= 1.0 / 32768

    def test_stereo_write_read_round_trip(self, tmp_path):
        path = tmp_path / "st.wav"
        left = make_tone(220, 0.05, 22050, amplitude=0.5)
        right = make_tone(440, 0.05, 22050, amplitude=0.5)
        write_pcm16_wav(path, [left, right], 22050)
        back = read_wav(path)
        stereo = np.stack([left, right], axis=1)
        assert back.samples.shape == stereo.shape
        assert np.max(np.abs(back.samples - stereo)) <= 1.0 / 32768


def chunk(chunk_id, body):
    """A RIFF chunk, padded to an even length."""
    return chunk_id + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) % 2)


def fmt_body(tag, n_channels, bits=16, rate=8000):
    """The 16 bytes of a fmt chunk with format tag ``tag``."""
    align = n_channels * bits // 8
    return struct.pack("<HHIIHH", tag, n_channels, rate, rate * align, align, bits)


def riff(*chunks):
    """A RIFF/WAVE file of ``chunks``."""
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def wav_file(payload, float32, n_channels, rate, extensible, fmt_last, extra):
    """WAV bytes: a PCM16 or float32 fmt chunk (optionally in its
    WAVE_FORMAT_EXTENSIBLE wrapper, or after the data chunk) and ``extra``
    unknown chunks of any size ahead of the data."""
    tag, bits = (3, 32) if float32 else (1, 16)
    fmt = fmt_body(0xFFFE if extensible else tag, n_channels, bits, rate)
    if extensible:  # cbSize, valid bits, channel mask, then the sub-format GUID
        fmt += struct.pack("<HHIH", 22, bits, 0, tag) + bytes(14)
    chunks = [chunk(b"LIST", body) for body in extra] + [chunk(b"data", payload)]
    chunks.insert(len(chunks) if fmt_last else 0, chunk(b"fmt ", fmt))
    return riff(*chunks)


# a header with one fault each, and the error read_wav and read_mono raise for it
MALFORMED_HEADERS = {
    "cut-chunk-header": (riff(chunk(b"fmt ", fmt_body(1, 1)), b"data"),
                         TruncatedFileError, "file ends inside a chunk header"),
    "no-fmt": (riff(chunk(b"data", bytes(4))),
               UnsupportedFormatError, "missing or short fmt chunk"),
    "short-fmt": (riff(chunk(b"fmt ", fmt_body(1, 1)[:14]), chunk(b"data", bytes(4))),
                  UnsupportedFormatError, "missing or short fmt chunk"),
    "no-data": (riff(chunk(b"fmt ", fmt_body(1, 1))),
                TruncatedFileError, "missing data chunk"),
    "short-extensible-fmt": (riff(chunk(b"fmt ", fmt_body(0xFFFE, 1) + bytes(8)),
                                  chunk(b"data", bytes(4))),
                             UnsupportedFormatError, "malformed extensible fmt chunk"),
    "mid-sample": (riff(chunk(b"fmt ", fmt_body(1, 1)), chunk(b"data", bytes(3))),
                   TruncatedFileError, "data chunk ends mid-sample"),
    "no-channels": (riff(chunk(b"fmt ", fmt_body(1, 0)), chunk(b"data", bytes(4))),
                    UnsupportedFormatError, "invalid channel count 0"),
    "partial-frame": (riff(chunk(b"fmt ", fmt_body(1, 2)), chunk(b"data", bytes(6))),
                      TruncatedFileError, "data chunk is not a whole number of frames"),
}


@pytest.mark.parametrize("case", list(MALFORMED_HEADERS))
def test_malformed_header_is_a_located_error(tmp_path, case):
    data, error, message = MALFORMED_HEADERS[case]
    path = tmp_path / "bad.wav"
    path.write_bytes(data)
    for read in (read_wav, read_mono):
        with pytest.raises(error, match=f"^{re.escape(f'{path}: {message}')}$"):
            read(path)


@st.composite
def wav_files(draw):
    n_channels = draw(st.integers(1, 9))
    n_frames = draw(st.integers(0, 40))
    float32 = draw(st.booleans())
    if float32:
        values = st.floats(width=32, allow_nan=False, allow_infinity=False)
        payload = struct.pack(f"<{n_frames * n_channels}f",
                              *draw(st.lists(values, min_size=n_frames * n_channels,
                                             max_size=n_frames * n_channels)))
    else:
        payload = draw(st.binary(min_size=2 * n_frames * n_channels,
                                 max_size=2 * n_frames * n_channels))
    return wav_file(payload, float32, n_channels,
                    draw(st.sampled_from([8000, 22050, 44100, 48000])),
                    draw(st.booleans()), draw(st.booleans()),
                    draw(st.lists(st.binary(max_size=5), max_size=2)))


class TestReadMono:
    @settings(max_examples=200, deadline=None)
    @given(data=wav_files(), block=st.sampled_from([1, 2, 3, 7, audio._DECODE_FRAMES]))
    def test_equals_to_mono_of_read_wav(self, tmp_path_factory, data, block):
        path = tmp_path_factory.mktemp("mono") / "case.wav"
        path.write_bytes(data)
        expected = to_mono(read_wav(path))
        with mock.patch.object(audio, "_DECODE_FRAMES", block):
            got = read_mono(path)
        assert got.sample_rate == expected.sample_rate
        assert got.samples.ndim == 1
        assert got.samples.tobytes() == expected.samples.tobytes()

    @pytest.mark.parametrize("n_channels", range(1, 10))
    @pytest.mark.parametrize("float32", [False, True])
    def test_channel_average_is_the_mean_for_any_channel_count(self, tmp_path, n_channels,
                                                              float32):
        # below 8 channels read_mono adds the columns itself; numpy's mean
        # starts a row from +0.0, so a row of -0.0 averages to +0.0
        rng = np.random.default_rng(n_channels)
        if float32:
            values = rng.standard_normal((300, n_channels)).astype("<f4")
            values[:5] = -0.0
            values[5:10, 0] = -0.0
            payload = values.tobytes()
        else:
            payload = rng.integers(-32768, 32768, (300, n_channels)).astype("<i2").tobytes()
        path = tmp_path / "multi.wav"
        path.write_bytes(wav_file(payload, float32, n_channels, 22050, False, False, []))
        samples = read_wav(path).samples
        expected = samples if n_channels == 1 else samples.mean(axis=1)
        for block in (7, audio._DECODE_FRAMES):
            with mock.patch.object(audio, "_DECODE_FRAMES", block):
                got = read_mono(path)
            assert got.samples.tobytes() == expected.tobytes()
            assert got.samples.tobytes() == to_mono(read_wav(path)).samples.tobytes()

    @pytest.mark.parametrize("rate", [999, 768_001])
    def test_bad_rate_reported_before_any_sample_is_decoded(self, tmp_path, rate):
        path = tmp_path / "nan.wav"
        payload = struct.pack("<4f", 0.5, 0.25, float("nan"), 0.0)
        path.write_bytes(wav_file(payload, True, 2, rate, False, False, []))
        for read in (read_wav, read_mono):
            with mock.patch.object(audio, "_decode", side_effect=AssertionError("decoded")):
                with pytest.raises(UnsupportedFormatError,
                                   match=f"{path}: sample rate {rate} Hz is outside"):
                    read(path)

    def test_bad_rate_reported_for_a_finite_float_file(self, tmp_path):
        path = tmp_path / "rate.wav"
        payload = struct.pack("<4f", 0.5, 0.25, -0.5, 0.0)
        path.write_bytes(wav_file(payload, True, 2, 999, False, False, []))
        for read in (read_wav, read_mono):
            with pytest.raises(UnsupportedFormatError, match="sample rate 999 Hz"):
                read(path)


# a file of each kind a batch pair side can be: a broken header, a float
# sample that is NaN at a rate resample takes (read a block at a time) or
# refuses, a rate resample refuses, and a clean clip
PAIR_SIDES = {
    "header": lambda: b"RIFX" + bytes(40),
    "nan": lambda: wav_file(struct.pack("<4f", 0.5, 0.25, float("nan"), 0.0), True, 1,
                            48000, False, False, []),
    "nan-odd": lambda: wav_file(struct.pack("<4f", 0.5, 0.25, float("nan"), 0.0), True, 1,
                                767999, False, False, []),
    "odd": lambda: wav_file(bytes(2000), False, 1, 767999, False, False, []),
    "good": lambda: wav_file(np.full(4000, 1000, "<i2").tobytes(), False, 2, 48000, False,
                             False, []),
}
RATIO_ERROR = ("ValueError: cannot resample 767999 Hz to 22050 Hz: the rate ratio "
               "22050/767999 exceeds the factor limit 8192")


def first_pair_error(gen, ref):
    """The failure batch reports for a pair: gen's header error, gen's
    non-finite sample, ref's header error, ref's non-finite sample, then
    gen's ratio error and ref's; None for a scored pair."""
    for side, kind in (("gen", gen), ("ref", ref)):
        if kind == "header":
            return f"UnsupportedFormatError: {side}-{kind}.wav: not a RIFF/WAVE file"
        if kind.startswith("nan"):
            return f"UnsupportedFormatError: {side}-{kind}.wav: float samples must be finite"
    return RATIO_ERROR if "odd" in (gen, ref) else None


class TestReadResampled:
    def test_a_refused_ratio_reads_the_clip_at_its_own_rate(self, tmp_path):
        path = tmp_path / "odd.wav"
        path.write_bytes(PAIR_SIDES["odd"]())
        got = audio._read_resampled(path, 22050)
        assert got.sample_rate == 767999
        assert got.samples.tobytes() == read_mono(path).samples.tobytes()
        with pytest.raises(ValueError, match=re.escape(RATIO_ERROR.split(": ", 1)[1])):
            resample(got, 22050)

    @pytest.mark.parametrize("at", [0, 5, 39])
    @pytest.mark.parametrize("rate", [48000, 11025, 767999])
    def test_a_non_finite_sample_is_read_mono_s_error(self, tmp_path, at, rate):
        # 4-frame blocks: the stream meets the NaN in its first, a middle or
        # its last block
        values = np.linspace(-0.5, 0.5, 80).astype("<f4")
        values[2 * at] = np.nan
        path = tmp_path / "nan.wav"
        path.write_bytes(wav_file(values.tobytes(), True, 2, rate, False, False, []))
        with mock.patch.object(audio, "_DECODE_FRAMES", 4), \
                pytest.raises(UnsupportedFormatError,
                              match=f"^{re.escape(str(path))}: float samples must be finite$"):
            audio._read_resampled(path, 22050)

    def test_batch_reports_each_pair_s_first_error_in_a_fixed_order(
            self, tmp_path, monkeypatch, capsys):
        from dubkit.cli import run

        monkeypatch.chdir(tmp_path)
        for side in ("gen", "ref"):
            for kind, data in PAIR_SIDES.items():
                (tmp_path / f"{side}-{kind}.wav").write_bytes(data())
        pairs = [(gen, ref) for gen in PAIR_SIDES for ref in PAIR_SIDES]
        (tmp_path / "pairs.jsonl").write_text("".join(
            f'{{"id": "{gen}/{ref}", "generated": "gen-{gen}.wav", '
            f'"reference": "ref-{ref}.wav"}}\n' for gen, ref in pairs))
        assert run(["batch", "pairs.jsonl"]) == 0
        doc = json.loads(capsys.readouterr().out)
        failures = {row["id"]: row["error"] for row in doc["failures"]}
        scored = {row["id"] for row in doc["rows"]}
        for gen, ref in pairs:
            error = first_pair_error(gen, ref)
            assert failures.get(f"{gen}/{ref}") == error, (gen, ref)
            assert (f"{gen}/{ref}" in scored) == (error is None)


class TestToMono:
    def test_mono_unchanged(self):
        w = Waveform(np.array([0.1, 0.2, 0.3]), 22050)
        assert to_mono(w) is w

    def test_single_column_becomes_its_1d_column(self):
        samples = np.array([[0.1], [-0.7], [0.3]])
        out = to_mono(Waveform(samples, 22050))
        assert out.samples.ndim == 1
        assert np.array_equal(out.samples, samples[:, 0])

    def test_stereo_average(self):
        w = Waveform(np.array([[0.2, 0.4]]), 22050)
        out = to_mono(w)
        assert out.samples.tolist() == [pytest.approx(0.3)]
        assert out.n_channels == 1

    @given(st.integers(-4, 4))
    def test_average_commutes_with_power_of_two_gain(self, exponent):
        scale = 2.0**exponent
        rng = np.random.default_rng(7)
        samples = rng.uniform(-0.4, 0.4, size=(50, 3))
        direct = to_mono(Waveform(samples * scale, 22050)).samples
        after = to_mono(Waveform(samples, 22050)).samples * scale
        assert np.array_equal(direct, after)

    def test_average_commutes_with_general_gain(self, rng):
        samples = rng.uniform(-0.2, 0.2, size=(80, 4))
        direct = to_mono(Waveform(samples * 0.3, 22050)).samples
        after = to_mono(Waveform(samples, 22050)).samples * 0.3
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
    """The zero-padding the padded-spectrogram and plain-MCD oracles use."""

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

    def test_stereo_rejected(self):
        w = Waveform(np.zeros((10, 2)), 22050)
        with pytest.raises(ValueError, match="not mono"):
            pad_to_length(w, 20)

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
