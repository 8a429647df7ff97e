"""Waveform ingestion and preprocessing.

Reads RIFF/WAVE files (16-bit PCM and 32-bit IEEE float), averages
channels to mono, resamples with a band-limited polyphase filter, and
zero-pads. Everything downstream of this module works on mono float64
sample vectors in [-1, 1].
"""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

_PCM_SCALE = 32768.0

# RIFF format tags we accept
_FMT_PCM = 0x0001
_FMT_IEEE_FLOAT = 0x0003
_FMT_EXTENSIBLE = 0xFFFE

# sample rates read_wav accepts, in Hz; a corrupt header's rate would
# otherwise size the resampling filter
MIN_SAMPLE_RATE = 1000
MAX_SAMPLE_RATE = 768000
# largest up/down factor resample accepts (its filter has 20x this many
# taps); standard rates need at most 5120 (768 kHz -> 22.05 kHz)
MAX_RESAMPLE_FACTOR = 8192


class UnsupportedFormatError(ValueError):
    """File is not RIFF/WAVE or uses a codec other than PCM16/float32."""


class TruncatedFileError(ValueError):
    """File ends before the declared chunk payload is complete."""


@dataclass(frozen=True, eq=False)
class Waveform:
    """Time-domain audio: float64 samples in [-1, 1] plus a sample rate.

    ``samples`` is 1-D for mono audio and (n_frames, n_channels) for
    multichannel audio. Instances are treated as immutable; operations
    return new Waveforms.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim not in (1, 2):
            raise ValueError(f"samples must be 1-D or 2-D, got {samples.ndim}-D")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("samples contain non-finite values")
        object.__setattr__(self, "samples", samples)

    @property
    def n_channels(self) -> int:
        return 1 if self.samples.ndim == 1 else self.samples.shape[1]

    @property
    def n_frames(self) -> int:
        return self.samples.shape[0]

    def mono_samples(self) -> np.ndarray:
        if self.n_channels != 1:
            raise ValueError("waveform is not mono; call to_mono() first")
        return self.samples if self.samples.ndim == 1 else self.samples[:, 0]


def _read_exact(fh, n, what):
    # checked before reading, so a corrupt size cannot size the read buffer
    left = max(0, os.fstat(fh.fileno()).st_size - fh.tell())
    if n > left:
        raise TruncatedFileError(f"file ends inside {what} ({left} of {n} bytes)")
    return fh.read(n)


def read_wav(path) -> Waveform:
    """Read a RIFF/WAVE file into a Waveform.

    Supports 16-bit PCM and 32-bit IEEE float payloads (including the
    WAVE_FORMAT_EXTENSIBLE wrappers around them), any channel count and
    rates from MIN_SAMPLE_RATE to MAX_SAMPLE_RATE. PCM samples are
    normalized by 1/32768.
    """
    with open(path, "rb") as fh:
        header = fh.read(12)
        if len(header) < 12 or header[:4] != b"RIFF" or header[8:12] != b"WAVE":
            raise UnsupportedFormatError(f"{path}: not a RIFF/WAVE file")

        fmt = None
        data = None
        while True:
            chunk_header = fh.read(8)
            if not chunk_header:
                break
            if len(chunk_header) < 8:
                raise TruncatedFileError(f"{path}: file ends inside a chunk header")
            chunk_id, chunk_size = struct.unpack("<4sI", chunk_header)
            if chunk_id == b"fmt ":
                fmt = _read_exact(fh, chunk_size, "fmt chunk")
            elif chunk_id == b"data":
                data = _read_exact(fh, chunk_size, "data chunk")
            else:
                fh.seek(chunk_size, 1)
            if chunk_size % 2:  # chunks are word-aligned
                fh.seek(1, 1)

    if fmt is None or len(fmt) < 16:
        raise UnsupportedFormatError(f"{path}: missing or short fmt chunk")
    if data is None:
        raise TruncatedFileError(f"{path}: missing data chunk")

    format_tag, n_channels, sample_rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if format_tag == _FMT_EXTENSIBLE:
        if len(fmt) < 26:
            raise UnsupportedFormatError(f"{path}: malformed extensible fmt chunk")
        format_tag = struct.unpack_from("<H", fmt, 24)[0]

    if format_tag == _FMT_PCM and bits == 16:
        if len(data) % 2:
            raise TruncatedFileError(f"{path}: data chunk ends mid-sample")
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / _PCM_SCALE
    elif format_tag == _FMT_IEEE_FLOAT and bits == 32:
        if len(data) % 4:
            raise TruncatedFileError(f"{path}: data chunk ends mid-sample")
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
        if not np.all(np.isfinite(samples)):
            raise UnsupportedFormatError(f"{path}: float samples must be finite")
    else:
        raise UnsupportedFormatError(
            f"{path}: unsupported codec (format tag {format_tag}, {bits}-bit); "
            "only 16-bit PCM and 32-bit float are readable"
        )

    if n_channels < 1:
        raise UnsupportedFormatError(f"{path}: invalid channel count {n_channels}")
    if not MIN_SAMPLE_RATE <= sample_rate <= MAX_SAMPLE_RATE:
        raise UnsupportedFormatError(
            f"{path}: sample rate {sample_rate} Hz is outside "
            f"{MIN_SAMPLE_RATE}..{MAX_SAMPLE_RATE} Hz")
    if samples.size % n_channels:
        raise TruncatedFileError(f"{path}: data chunk is not a whole number of frames")
    if n_channels > 1:
        samples = samples.reshape(-1, n_channels)
    return Waveform(samples, sample_rate)


def write_wav(path, w: Waveform) -> None:
    """Write a Waveform as 16-bit PCM.

    Quantizes with the same 32768 scale used on read, so a read/write/read
    loop of PCM data is sample-exact.
    """
    samples = w.samples if w.samples.ndim == 2 else w.samples[:, None]
    quantized = np.clip(np.rint(samples * _PCM_SCALE), -32768, 32767).astype("<i2")
    payload = quantized.tobytes()
    n_channels = samples.shape[1]
    byte_rate = w.sample_rate * n_channels * 2
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, _FMT_PCM, n_channels,
                                       w.sample_rate, byte_rate, n_channels * 2, 16))
        fh.write(b"data" + struct.pack("<I", len(payload)))
        fh.write(payload)
        if len(payload) % 2:
            fh.write(b"\x00")


def to_mono(w: Waveform) -> Waveform:
    """Reduce a waveform to one channel: the arithmetic mean across channels.

    Mono input is returned unchanged (an (n, 1) array as its 1-D column).
    """
    if w.n_channels == 1:
        return w if w.samples.ndim == 1 else Waveform(w.samples[:, 0], w.sample_rate)
    return Waveform(w.samples.mean(axis=1), w.sample_rate)


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Resample mono audio with a windowed-sinc (Kaiser) polyphase filter.

    The Kaiser beta is chosen for an 80 dB alias floor. Resampling to the
    source rate is the identity. A rate ratio whose reduced up or down
    factor exceeds MAX_RESAMPLE_FACTOR raises ValueError.
    """
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    x = w.mono_samples()
    if target_rate == w.sample_rate:
        return w
    g = math.gcd(target_rate, w.sample_rate)
    up, down = target_rate // g, w.sample_rate // g
    if max(up, down) > MAX_RESAMPLE_FACTOR:
        raise ValueError(
            f"cannot resample {w.sample_rate} Hz to {target_rate} Hz: the rate "
            f"ratio {up}/{down} exceeds the factor limit {MAX_RESAMPLE_FACTOR}")
    # imported here because scipy.signal is slow to import and only
    # resampling needs it
    from scipy.signal import kaiser_beta, resample_poly

    y = resample_poly(x, up, down, window=("kaiser", kaiser_beta(80.0)))
    return Waveform(np.clip(y, -1.0, 1.0), target_rate)


def pad_to_length(w: Waveform, target_len: int) -> Waveform:
    """Append zeros so the mono waveform has ``target_len`` samples.

    The original samples are untouched; shrinking is an error, and so is
    multichannel input.
    """
    x = w.mono_samples()
    if target_len < len(x):
        raise ValueError(f"target_len {target_len} < current length {len(x)}")
    if target_len == len(x):
        return w
    return Waveform(np.concatenate([x, np.zeros(target_len - len(x))]), w.sample_rate)
