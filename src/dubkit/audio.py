"""Waveform ingestion and preprocessing.

Reads RIFF/WAVE files (16-bit PCM and 32-bit IEEE float), averages
channels to mono and resamples with a band-limited polyphase filter.
Everything downstream of this module works on mono float64 sample vectors
in [-1, 1].
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
# scipy's kaiser_beta(80.0): the Kaiser window for an 80 dB stopband
_KAISER_BETA = 0.1102 * (80.0 - 8.7)
# a resample block computes at most _RESAMPLE_ROWS outputs of each filter
# phase, holds at most _RESAMPLE_SPAN inputs (plus the filter length) and
# _RESAMPLE_PRODUCTS tap products, so working memory is bounded whatever
# the clip length or rate ratio
_RESAMPLE_ROWS = 2048
_RESAMPLE_SPAN = 1 << 19
_RESAMPLE_PRODUCTS = 1 << 17
# frames the WAV readers decode per block: 1 MiB of float64 for stereo
_DECODE_FRAMES = 1 << 16


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


def _check_size(fh, n, path, what):
    # checked before reading, so a corrupt size cannot size the read buffer
    left = max(0, os.fstat(fh.fileno()).st_size - fh.tell())
    if n > left:
        raise TruncatedFileError(f"{path}: file ends inside {what} ({left} of {n} bytes)")


def _open_data(fh, path):
    """Parse and check the header of the RIFF/WAVE file open as ``fh``.

    Returns the rate, the channel count, the sample count and the data
    chunk's float64 blocks (see _decode). Errors come in one fixed order:
    container, chunk sizes, codec, mid-sample, non-finite float sample,
    channel count, rate, whole frames. So when a check after the
    non-finite one fails, a float payload is scanned first.
    """
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
            _check_size(fh, chunk_size, path, "fmt chunk")
            fmt = fh.read(chunk_size)
        elif chunk_id == b"data":
            _check_size(fh, chunk_size, path, "data chunk")
            data = (fh.tell(), chunk_size)
            fh.seek(chunk_size, 1)
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
        dtype = "<i2"
    elif format_tag == _FMT_IEEE_FLOAT and bits == 32:
        dtype = "<f4"
    else:
        raise UnsupportedFormatError(
            f"{path}: unsupported codec (format tag {format_tag}, {bits}-bit); "
            "only 16-bit PCM and 32-bit float are readable"
        )
    offset, size = data
    n_samples, rest = divmod(size, np.dtype(dtype).itemsize)
    if rest:
        raise TruncatedFileError(f"{path}: data chunk ends mid-sample")

    if n_channels < 1:
        late = UnsupportedFormatError(f"{path}: invalid channel count {n_channels}")
    elif not MIN_SAMPLE_RATE <= sample_rate <= MAX_SAMPLE_RATE:
        late = UnsupportedFormatError(
            f"{path}: sample rate {sample_rate} Hz is outside "
            f"{MIN_SAMPLE_RATE}..{MAX_SAMPLE_RATE} Hz")
    elif n_samples % n_channels:
        late = TruncatedFileError(f"{path}: data chunk is not a whole number of frames")
    else:
        return (sample_rate, n_channels, n_samples,
                _decode(fh, path, dtype, n_channels, offset, n_samples))
    if dtype == "<f4":
        for _ in _decode(fh, path, dtype, 1, offset, n_samples):
            pass  # raises at the first non-finite sample
    raise late


def _decode(fh, path, dtype, n_channels, offset, n_samples):
    """Yield (start, samples): the data chunk as float64 blocks of
    _DECODE_FRAMES frames, in order. PCM is scaled by 1/32768; a non-finite
    float sample raises."""
    fh.seek(offset)
    step = _DECODE_FRAMES * n_channels
    itemsize = np.dtype(dtype).itemsize
    for start in range(0, n_samples, step):
        raw = fh.read(min(step, n_samples - start) * itemsize)
        block = np.frombuffer(raw, dtype=dtype).astype(np.float64)
        if dtype == "<i2":
            block /= _PCM_SCALE
        elif not np.all(np.isfinite(block)):
            raise UnsupportedFormatError(f"{path}: float samples must be finite")
        yield start, block


def read_wav(path) -> Waveform:
    """Read a RIFF/WAVE file into a Waveform.

    Supports 16-bit PCM and 32-bit IEEE float payloads (including the
    WAVE_FORMAT_EXTENSIBLE wrappers around them), any channel count and
    rates from MIN_SAMPLE_RATE to MAX_SAMPLE_RATE. PCM samples are
    normalized by 1/32768.
    """
    with open(path, "rb") as fh:
        sample_rate, n_channels, n_samples, blocks = _open_data(fh, path)
        samples = np.empty(n_samples)
        for start, block in blocks:
            samples[start : start + len(block)] = block
    if n_channels > 1:
        samples = samples.reshape(-1, n_channels)
    return Waveform(samples, sample_rate)


def read_mono(path) -> Waveform:
    """``to_mono(read_wav(path))``, bit for bit, without holding the
    multichannel clip: each block of frames is averaged as it is decoded."""
    with open(path, "rb") as fh:
        sample_rate, n_channels, n_samples, blocks = _open_data(fh, path)
        mono = np.empty(n_samples // n_channels)
        for start, block in blocks:
            lo = start // n_channels
            out = mono[lo : lo + len(block) // n_channels]
            if n_channels == 1:
                out[:] = block
            else:
                _channel_mean(block.reshape(-1, n_channels), out)
    return Waveform(mono, sample_rate)


def _channel_mean(frames: np.ndarray, out: np.ndarray) -> None:
    """out[:] = frames.mean(axis=1), bit for bit. Below 8 channels numpy
    adds a row's values in order, starting from +0.0, so the columns are
    added that way, a whole column per call; from 8 on it sums pairwise."""
    n_channels = frames.shape[1]
    if n_channels >= 8:
        np.mean(frames, axis=1, out=out)
        return
    np.add(frames[:, 0], 0.0, out=out)  # +0.0 + -0.0 is +0.0, as in numpy's sum
    for k in range(1, n_channels):
        out += frames[:, k]
    out /= n_channels


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


def _lowpass(up: int, down: int):
    """The anti-aliasing filter of an up/down resampler, times ``up``, and
    its half length.

    Built step by step as scipy 1.17's ``firwin`` builds it for
    ``resample_poly(x, up, down, window=("kaiser", kaiser_beta(80.0)))``,
    so the taps are bit-equal: a sinc of cutoff 1/max(up, down) in
    array_api_extra's form, a Kaiser window from ``_i0`` (scipy.special.i0's
    bits), unit DC gain.
    """
    max_rate = max(up, down)
    f_c = 1.0 / max_rate
    half_len = 10 * max_rate
    m = np.arange(2 * half_len + 1, dtype=np.float64) - half_len
    x = f_c * m
    y = np.pi * np.where(x != 0, x, np.finfo(np.float64).eps)
    h = f_c * (np.sin(y) / y)
    # the window's argument is the same at -m as at m: evaluate i0 from the
    # centre on and mirror it
    right = m[half_len:]
    window = _i0(_KAISER_BETA * np.sqrt(1 - (right / half_len) ** 2.0))
    window /= _i0(np.array([_KAISER_BETA]))
    h[:half_len] *= window[:0:-1]
    h[half_len:] *= window
    h /= np.sum(h)
    h *= up
    return h, half_len


# cephes' Chebyshev coefficients of exp(-x) i0(x) on [0, 8], as numpy's _i0A
_I0_COEFFS = (
    -4.41534164647933937950E-18, 3.33079451882223809783E-17,
    -2.43127984654795469359E-16, 1.71539128555513303061E-15,
    -1.16853328779934516808E-14, 7.67618549860493561688E-14,
    -4.85644678311192946090E-13, 2.95505266312963983461E-12,
    -1.72682629144155570723E-11, 9.67580903537323691224E-11,
    -5.18979560163526290666E-10, 2.65982372468238665035E-9,
    -1.30002500998624804212E-8, 6.04699502254191894932E-8,
    -2.67079385394061173391E-7, 1.11738753912010371815E-6,
    -4.41673835845875056359E-6, 1.64484480707288970893E-5,
    -5.75419501008210370398E-5, 1.88502885095841655729E-4,
    -5.76375574538582365885E-4, 1.63947561694133579842E-3,
    -4.32430999505057594430E-3, 1.05464603945949983183E-2,
    -2.37374148058994688156E-2, 4.93052842396707084878E-2,
    -9.49010970480476444210E-2, 1.71620901522208775349E-1,
    -3.04682672343198398683E-1, 6.76795274409476084995E-1,
)


def _i0(x: np.ndarray) -> np.ndarray:
    """The modified Bessel function I0 of each x in [0, 8], bit-equal to
    ``scipy.special.i0``: cephes' exp(x) * chbevl(x / 2 - 2, A), its
    recurrence b0 = x * b1 - b2 + a taken one rounded numpy op at a time,
    with exp from math.exp (the libm exp cephes calls); np.exp and np.i0
    each differ in the last bit of about 4 % of values."""
    y = x / 2.0 - 2.0
    b0, b1, b2 = np.full_like(y, _I0_COEFFS[0]), np.zeros_like(y), np.empty_like(y)
    for a in _I0_COEFFS[1:]:
        b0, b1, b2 = b2, b0, b1  # b0 takes the buffer of the b2 it replaces
        np.multiply(y, b1, out=b0)
        b0 -= b2
        b0 += a
    b0 -= b2
    b0 *= 0.5
    exp = np.fromiter(map(math.exp, x), np.float64, len(x))
    exp *= b0
    return exp


def _fill_block(lines: np.ndarray, x: np.ndarray, start: int) -> None:
    """Set ``lines[j, m] = x[start + j * width + m]`` for ``lines`` of shape
    (n, width), and to 0.0 where that index falls outside x."""
    n, width = lines.shape
    a, b = max(-start, 0), min(len(x) - start, n * width)
    if a > 0 or b < n * width:
        lines.fill(0.0)
    if b <= a:
        return
    xs = x[start + a : start + b]
    j0, m0 = divmod(a, width)
    j1, m1 = divmod(b, width)
    if j0 == j1:
        lines[j0, m0:m1] = xs
        return
    head = width - m0
    lines[j0, m0:] = xs[:head]
    lines[j0 + 1 : j1] = xs[head : len(xs) - m1].reshape(-1, width)
    if m1:
        lines[j1, :m1] = xs[len(xs) - m1 :]


def _resample_poly(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """Polyphase FIR resampling, bit-equal to scipy 1.17's ``resample_poly``
    with the ``_lowpass`` filter.

    After resample_poly's pad-and-trim bookkeeping, output r is the sum of
    x[q] * h[half_len + r*down - up*q] over q. upfirdn starts each output
    from 0.0 and adds those terms one at a time in ascending q. The terms
    upfirdn skips or pads, and those of the zero taps added here, are
    products with a zero, which leave a sum that started at +0.0 unchanged.

    Outputs are laid out as rows of ``up``: column c always uses the same
    filter phase, and row i reads the inputs ``down`` samples after row
    i - 1. For each column of a block, the products of every tap (oldest
    input first) with every row go into the lines of ``prod``, and
    ``np.add.reduce`` over those lines adds them one line at a time, each
    output starting from line 0, the running sum. That keeps upfirdn's order
    as long as a line holds two or more outputs: the reduction then runs in
    numpy's outer loop (a single output would be summed pairwise). Taps
    come in chunks of ``width`` lines, each chunk carrying the sum so far.
    """
    h, half_len = _lowpass(up, down)
    n_out = -(-len(x) * up // down)
    n_taps = -(-len(h) // up)  # inputs per output, zero taps included
    padded = np.zeros(n_taps * up)
    padded[: len(h)] = h
    # row i of column c reads the inputs first[c] + i*down + k (k = 0 is the
    # oldest) of a block zero-padded with n_taps - 1 samples in front of x
    centre = half_len + np.arange(up) * down
    first, phase = centre // up, centre % up
    taps = padded.reshape(n_taps, up)[::-1][:, phase]

    n_rows = -(-n_out // up)
    rows = max(2, min(n_rows, _RESAMPLE_ROWS, _RESAMPLE_SPAN // down))
    width = max(1, min(n_taps, _RESAMPLE_PRODUCTS // rows))
    # block[m, j] holds block input j*down + m, one line per input phase:
    # tap k of column c reads line (q0 + k) % down from position
    # (q0 + k) // down on, one row per position, so a run of taps that
    # stays inside the lines is a plain 2-D slice. With down == 1 every tap
    # wraps to the next position; there the taps read overlapping windows
    # of the one line instead
    reach = int(first[-1]) + n_taps
    block = np.empty((down, rows + (reach - 1) // down))
    windows = np.lib.stride_tricks.sliding_window_view(block[0], rows)
    prod = np.empty((width + 1, rows))
    acc = np.empty(rows)
    out = np.empty((n_rows, up))
    # numpy runs a ufunc over strided lines shorter than its buffer (8192
    # elements by default) through that buffer, which made the products
    # about 3x slower. numpy wants a multiple of 16, and leaving errstate
    # restores the buffer size, also on an exception
    with np.errstate():
        np.setbufsize(max(16, rows // 16 * 16))
        for r0 in range(0, n_rows, rows):
            _fill_block(block.T, x, r0 * down - (n_taps - 1))
            for c in range(up):
                q0 = int(first[c])
                for k0 in range(0, n_taps, width):
                    k1 = min(k0 + width, n_taps)
                    prod[0] = acc if k0 else 0.0
                    k = k0
                    while k < k1:
                        if down == 1:
                            count = k1 - k
                            inputs = windows[q0 + k : q0 + k1]
                        else:
                            j, m = divmod(q0 + k, down)
                            count = min(down - m, k1 - k)
                            inputs = block[m : m + count, j : j + rows]
                        np.multiply(inputs, taps[k : k + count, c, None],
                                    out=prod[1 + k - k0 : 1 + k - k0 + count])
                        k += count
                    np.add.reduce(prod[: 1 + k1 - k0], axis=0, out=acc)
                n = min(rows, n_rows - r0)
                out[r0 : r0 + n, c] = acc[:n]
    return out.reshape(-1)[:n_out]


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Resample mono audio with a windowed-sinc (Kaiser) polyphase filter.

    The Kaiser beta is chosen for an 80 dB alias floor; the result equals
    scipy 1.17's ``resample_poly`` with that window bit for bit, clipped to
    [-1, 1]. Resampling to the source rate is the identity. A rate ratio
    whose reduced up or down factor exceeds MAX_RESAMPLE_FACTOR raises
    ValueError.
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
    y = _resample_poly(x, up, down)
    return Waveform(np.clip(y, -1.0, 1.0, out=y), target_rate)

