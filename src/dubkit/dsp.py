"""Frame-level feature extraction.

STFT magnitudes, HTK-mel log spectrograms, MFCCs, per-frame energy and a
YIN-style pitch tracker. All extractors are pure functions: the same
input always produces bit-identical output.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PITCH_FRAME_LENGTH = 2048
# samples of frame per block of a framed kernel (see _blocks): 256 rows at
# fft_size 1024, 128 pitch frames, so a block stays about 2 MiB of float64
# whatever the framing. No output depends on where the blocks are cut.
_SPECTRAL_SPAN = 1 << 18
_MEL_FLOOR = 1e-10  # mel power below this is logged as log(_MEL_FLOOR)
# bounds that keep a flag from sizing a multi-GiB array: an FFT of 65536
# samples (3 s at 22.05 kHz) and 4 Mi filterbank cells, 32 MiB of float64,
# which hold 80 bands at that FFT size
_MAX_FFT_SIZE = 1 << 16
_MAX_FILTERBANK_CELLS = 1 << 22


@dataclass(frozen=True)
class FrameParams:
    """Analysis framing: FFT size, hop and Hann window length, in samples."""

    fft_size: int = 1024
    hop: int = 256
    win_length: int = 1024

    def __post_init__(self):
        if not 0 < self.hop <= self.win_length <= self.fft_size <= _MAX_FFT_SIZE:
            raise ValueError(
                f"need 0 < hop <= win_length <= fft_size <= {_MAX_FFT_SIZE}, got "
                f"hop={self.hop}, win={self.win_length}, fft={self.fft_size}"
            )


@dataclass(frozen=True, eq=False)
class Spectrogram:
    """T x (fft_size/2 + 1) nonnegative STFT magnitudes."""

    frames: np.ndarray
    params: FrameParams
    sample_rate: int

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def frame_rate(self) -> float:
        return self.sample_rate / self.params.hop


@dataclass(frozen=True, eq=False)
class MelSpectrogram:
    """T x n_mels log filterbank energies."""

    frames: np.ndarray
    frame_rate: float


@dataclass(frozen=True, eq=False)
class MfccSequence:
    """T x K cepstral coefficient matrix."""

    frames: np.ndarray
    frame_rate: float


@dataclass(frozen=True, eq=False)
class PitchTrack:
    """Per-frame fundamental frequency in Hz; 0 marks an unvoiced frame."""

    values: np.ndarray
    frame_rate: float


@dataclass(frozen=True, eq=False)
class EnergyTrack:
    """Per-frame L2 norm of the magnitude spectrum."""

    values: np.ndarray
    frame_rate: float


@lru_cache(maxsize=16)
def _hann(length: int) -> np.ndarray:
    """Periodic Hann window, bit-equal to scipy's ``get_window("hann",
    length, fftbins=True)``: the symmetric window of length + 1 computed as
    scipy's ``windows.general_cosine`` does, minus its last sample."""
    if length <= 1:
        window = np.ones(length)
    else:
        window = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, length + 1)))[:-1]
    window.flags.writeable = False  # shared by every caller through the cache
    return window


def stft_magnitude(w, p: FrameParams = FrameParams()) -> Spectrogram:
    """Magnitude spectrogram of a mono waveform."""
    x = w.mono_samples()
    if len(x) == 0:
        raise ValueError("cannot analyze an empty waveform")
    mags = np.empty((_frame_count(len(x), p.win_length, p.hop), p.fft_size // 2 + 1))
    for lo, hi, frames in _frame_blocks(x, p.win_length, p.hop, p.fft_size):
        _magnitudes(frames, p, mags[lo:hi])
    return Spectrogram(mags, p, w.sample_rate)


def _magnitudes(frames: np.ndarray, p: FrameParams, out: np.ndarray) -> None:
    """out[:] = |rfft(frames * window)|, row by row. The windowed frames and
    their complex spectra are this call's own and are freed when it returns,
    before the caller's next stage allocates."""
    # numpy.fft.rfft gives scipy.fft.rfft's bits (tests/test_spectral_kernel.py pins that)
    np.abs(np.fft.rfft(frames * _hann(p.win_length), n=p.fft_size, axis=1), out=out)


def _mel_rows(w, p: FrameParams, n_mels: int, fmin: float, fmax: float, first: int = 0,
              n: int | None = None, energy: bool = False):
    """(mel_spectrogram(s, n_mels, fmin, fmax), energy_track(s) or None) in the
    same bits, s being the rows from ``first`` on of stft_magnitude(w, p) of w
    zero-padded to n samples (len(w) by default).

    A block of frames at a time (see _frame_blocks): its magnitudes go into a
    one-block buffer, are squared there, summed for the energy and multiplied
    into that block's mel rows, so no clip-sized spectrogram is held.
    """
    x = w.mono_samples()
    if len(x) == 0:
        raise ValueError("cannot analyze an empty waveform")
    n = len(x) if n is None else n
    terms = _mel_terms(w.sample_rate, p.fft_size, n_mels, fmin, fmax)
    n_rows = _frame_count(n, p.win_length, p.hop) - first
    mel = np.empty((n_rows, n_mels))
    sums = np.empty(n_rows) if energy else None
    power = np.empty((_block_rows(n_rows, p.fft_size), p.fft_size // 2 + 1))
    for lo, hi, frames in _frame_blocks(x, p.win_length, p.hop, p.fft_size, first, n):
        block, rows = power[: hi - lo], slice(lo - first, hi - first)
        _magnitudes(frames, p, block)
        np.square(block, out=block)
        if energy:
            block.sum(axis=1, out=sums[rows])
        _mel_power(block, terms, mel[rows])
    frame_rate = w.sample_rate / p.hop
    np.maximum(mel, _MEL_FLOOR, out=mel)
    return (MelSpectrogram(np.log(mel, out=mel), frame_rate),
            EnergyTrack(np.sqrt(sums, out=sums), frame_rate) if energy else None)


def _shared_rows(n: int, p: FrameParams) -> int:
    """Leading frames of an n-sample clip that zero padding cannot reach:
    stft_magnitude of the padded clip starts with that many of the clip's own
    rows. Frame t reads samples t * hop - win // 2 onward, so while it ends
    inside the clip and the clip is longer than the reflected win // 2
    samples at its start, the padding cannot reach it."""
    pad = p.win_length // 2
    return 0 if n <= pad else (n + pad - p.win_length) // p.hop + 1


def _frame_count(n: int, length: int, hop: int) -> int:
    """Frames in the centered framing of n samples (see _frame_blocks)."""
    return 1 + (n + 2 * (length // 2) - length) // hop


def _frame_blocks(x: np.ndarray, length: int, hop: int, row_length: int,
                  first: int = 0, n: int | None = None):
    """(lo, hi, frames) for each block (see _blocks) of the frames from
    ``first`` on of the centered framing of x zero-padded to n samples
    (len(x) by default).

    Frame t reads samples t * hop - length // 2 onward, reflected about both
    ends of the padded clip as numpy's "reflect" padding reflects them. A
    block inside x is a view of it; any other block is framed from its
    _reflected_segment.
    """
    n = len(x) if n is None else n
    pad = length // 2
    for lo, hi in _blocks(_frame_count(n, length, hop) - first, row_length):
        lo, hi = lo + first, hi + first
        start, stop = lo * hop - pad, (hi - 1) * hop - pad + length
        if 0 <= start and stop <= len(x):
            segment = x[start:stop]
        else:
            segment = _reflected_segment(x, n, start, stop)
        yield lo, hi, np.lib.stride_tricks.sliding_window_view(segment, length)[::hop]


def _reflected_segment(x: np.ndarray, n: int, start: int, stop: int) -> np.ndarray:
    """Samples start..stop of z, x zero-padded to n samples, reflected about
    both ends as numpy's "reflect" padding reflects them, however many times
    it takes: index i < 0 or i >= n reads z[r], r = i mod (2n - 2) folded
    to 2n - 2 - r when r >= n (r = 0 when n = 1)."""
    segment = np.empty(stop - start)
    # segment offsets of samples 0, len(x) and n, clipped to the segment
    a, b, c = (min(max(i, start), stop) - start for i in (0, len(x), n))
    segment[a:b] = x[start + a : start + b]
    segment[b:c] = 0.0
    period = max(1, 2 * n - 2)
    r = np.concatenate((np.arange(start, start + a), np.arange(start + c, stop))) % period
    np.minimum(r, period - r, out=r)
    reflected = np.where(r < len(x), x.take(r, mode="clip"), 0.0)
    segment[:a], segment[c:] = reflected[:a], reflected[a:]
    return segment


def _block_rows(n_rows: int, row_length: int) -> int:
    """Rows in the largest of _blocks(n_rows, row_length)."""
    return min(n_rows, max(1, _SPECTRAL_SPAN // row_length))


def _blocks(n_rows: int, row_length: int):
    """(lo, hi) ranges covering rows 0..n_rows in order, max(1, _SPECTRAL_SPAN
    // row_length) rows each but the last, which holds the rest."""
    rows = max(1, _SPECTRAL_SPAN // row_length)
    return ((lo, min(lo + rows, n_rows)) for lo in range(0, n_rows, rows))


def hz_to_mel(f):
    """HTK mel scale."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=16)
def mel_filterbank(sample_rate: int, fft_size: int, n_mels: int,
                   fmin: float, fmax: float) -> np.ndarray:
    """Triangular HTK-mel filterbank, shape (n_mels, fft_size//2 + 1).

    Cached per argument tuple; the returned array is read-only.
    """
    if not 0 <= fmin < fmax <= sample_rate / 2:
        raise ValueError(f"need 0 <= fmin < fmax <= sr/2, got fmin={fmin}, fmax={fmax}")
    most = _MAX_FILTERBANK_CELLS // (fft_size // 2 + 1)
    if not 1 <= n_mels <= most:
        raise ValueError(f"n_mels must be in [1, {most}] at fft_size {fft_size}, got {n_mels}")
    edges = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    bin_freqs = np.arange(fft_size // 2 + 1) * sample_rate / fft_size
    lower, center, upper = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bin_freqs - lower) / (center - lower)
    falling = (upper - bin_freqs) / (upper - center)
    fb = np.maximum(0.0, np.minimum(rising, falling))
    fb.flags.writeable = False  # shared by every caller through the cache
    return fb


@lru_cache(maxsize=16)
def _mel_terms(sample_rate: int, fft_size: int, n_mels: int, fmin: float, fmax: float):
    """The nonzero entries of mel_filterbank(...) in the order _mel_power adds
    them, as (bins, weights, counts, rows).

    Step j holds the j-th nonzero bin of every band that has more than j,
    the bands widest first (ties in band order), so that step j adds into
    the first counts[j] rows of the accumulator; its bins and weights are
    the next counts[j] entries of ``bins`` and ``weights``. Band b is
    accumulated in row rows[b].
    """
    fb = mel_filterbank(sample_rate, fft_size, n_mels, fmin, fmax)
    supports = [np.flatnonzero(row) for row in fb]
    bands = sorted(range(n_mels), key=lambda b: -len(supports[b]))
    counts = tuple(sum(len(supports[b]) > j for b in bands)
                   for j in range(max(map(len, supports))))
    bins = np.array([supports[b][j] for j, count in enumerate(counts)
                     for b in bands[:count]], dtype=np.intp)
    weights = np.array([fb[b, supports[b][j]] for j, count in enumerate(counts)
                        for b in bands[:count]]).reshape(-1, 1)
    rows = np.argsort(bands)
    for array in (bins, weights, rows):
        array.flags.writeable = False  # shared by every caller through the cache
    return bins, weights, counts, rows


def mel_spectrogram(s: Spectrogram, n_mels: int = 80, fmin: float = 0.0,
                    fmax: float = 8000.0) -> MelSpectrogram:
    """Log mel power spectrogram: log(max(_MEL_FLOOR, filterbank @ magnitude^2)),
    the product summed in the order _mel_power gives, a block of frames at a
    time (see _blocks). ``s`` is left as it is."""
    terms = _mel_terms(s.sample_rate, s.params.fft_size, n_mels, fmin, fmax)
    mel = np.empty((s.n_frames, n_mels))
    for lo, hi in _blocks(s.n_frames, s.params.fft_size):
        _mel_power(np.square(s.frames[lo:hi]), terms, mel[lo:hi])
    np.maximum(mel, _MEL_FLOOR, out=mel)
    return MelSpectrogram(np.log(mel, out=mel), s.frame_rate)


def _mel_power(power: np.ndarray, terms, out: np.ndarray) -> None:
    """out[:] = power @ fb.T over the nonzero entries of fb only, given _mel_terms:

        out[t, b] = ((0.0 + power[t, k0] * fb[b, k0]) + power[t, k1] * fb[b, k1]) + ...

    for band b's nonzero bins k0 < k1 < ..., added left to right; a band with
    none is 0.0. ``power`` is one block of frames. Every value is one row's
    own sequence of multiplies and adds, so it depends neither on the other
    rows nor on any thread count. Not np.matmul(power, fb.T): OpenBLAS picks
    its dgemm kernel by the row count and splits the work by its thread
    count, and both change the last bits of a row. The block is transposed,
    so each step of _mel_terms is one add over whole rows of bins.
    """
    bins, weights, counts, band_rows = terms
    top = int(bins.max(initial=-1)) + 1  # bins past the last band are not read
    products = np.take(np.ascontiguousarray(power[:, :top].T), bins, axis=0)
    products *= weights
    total = np.zeros((len(band_rows), len(power)))
    start = 0
    for count in counts:
        total[:count] += products[start : start + count]
        start += count
    out[...] = total[band_rows].T


def mfcc(m: MelSpectrogram, n_coeffs: int = 13) -> MfccSequence:
    """Orthonormal DCT-II of the log-mel frames.

    Keeps coefficients 1..n_coeffs; the 0th (frame log energy) is dropped,
    so n_coeffs must be below the band count. The result is its own
    C-contiguous T x n_coeffs array, computed a block of frames at a time
    (see _blocks) and bit-equal to ``scipy.fft.dct(frames, type=2,
    norm="ortho", axis=1)[:, 1 : n_coeffs + 1]`` (see _dct_rows).
    """
    n_mels = m.frames.shape[1]
    if n_mels < 2:
        raise ValueError(f"MFCCs need at least 2 mel bands, got {n_mels}")
    if not 1 <= n_coeffs < n_mels:
        raise ValueError(f"n_coeffs must be in [1, {n_mels - 1}], got {n_coeffs}")
    frames = np.asarray(m.frames, dtype=np.float64)
    out = np.empty((len(frames), n_coeffs))
    half = np.empty((_block_rows(len(frames), n_mels), n_mels // 2 + 1), dtype=np.complex128)
    for lo, hi in _blocks(len(frames), n_mels):
        _dct_rows(frames[lo:hi], half[: hi - lo], out[lo:hi])
    return MfccSequence(out, m.frame_rate)


def _dct_rows(c: np.ndarray, half: np.ndarray, out: np.ndarray) -> None:
    """out[:] = columns 1..K of the orthonormal DCT-II of each row of c,
    K = out.shape[1] < N = c.shape[1]; ``half`` (len(c) x (N//2 + 1)
    complex) is overwritten.

    pocketfft's type-2 T_dcst23 steps, as scipy.fft.dct takes them, with
    numpy.fft.irfft (the same pocketfft) for its real backward FFT: c[0]
    (and c[N-1] for even N) doubled and each odd/even pair of the rest
    turned into its sum and difference, written as FFTPACK half-complex
    (r0, r1, i1, r2, ...) through the float64 view of ``half``; the
    inverse FFT times 1/sqrt(2N), rounded from long double; then the
    twiddle butterfly, run only for the kept columns. Every operand is a
    basic slice: a fancy-indexed gather made this 10x slower than scipy.
    """
    n, k = c.shape[1], out.shape[1]
    ns2 = (n + 1) // 2
    w1, w2, fct = _dct_twiddles(n)
    f = half.view(np.float64)
    np.multiply(c[:, 0], 2.0, out=f[:, 0])
    f[:, 1] = 0.0
    odd, even = c[:, 1 : n - 1 : 2], c[:, 2:n:2]
    np.add(odd, even, out=f[:, 2:n:2])
    np.subtract(even, odd, out=f[:, 3 : n + 1 : 2])
    if n % 2 == 0:
        np.multiply(c[:, n - 1], 2.0, out=f[:, n])
        f[:, n + 1] = 0.0
    y = np.fft.irfft(half, n=n, axis=1, norm="forward")
    y *= fct
    # column j < ns2 is 0.5 * (t1 + t2) of pocketfft's step j, column
    # n - j > n - ns2 is 0.5 * (t1 - t2) of the same step
    low = min(k, ns2 - 1)
    if low:
        _butterfly(y[:, 1 : low + 1], y[:, n - 1 : n - 1 - low : -1],
                   w1[:low], w2[:low], np.add, out[:, :low])
    if n % 2 == 0 and k >= ns2:
        np.multiply(y[:, ns2], w1[ns2 - 1], out=out[:, ns2 - 1])
    top = n - ns2 + 1
    if k >= top:
        first = n - k
        _butterfly(y[:, first:ns2], y[:, k : top - 1 : -1], w1[first - 1 : ns2 - 1],
                   w2[first - 1 : ns2 - 1], np.subtract, out[:, k - 1 : top - 2 : -1])


def _butterfly(ck, ckc, w1, w2, combine, out) -> None:
    """out[:] = 0.5 * combine(t1, t2) with pocketfft's t1 = w1 * ckc + w2 * ck
    and t2 = w1 * ck - w2 * ckc, each product and sum rounded on its own."""
    t1 = w1 * ckc
    t1 += w2 * ck
    t2 = w1 * ck
    t2 -= w2 * ckc
    combine(t1, t2, out=out)
    out *= 0.5


# pi as pocketfft writes it, a long double literal
_PI_LONG = np.longdouble("3.141592653589793238462643383279502884197")


@lru_cache(maxsize=16)
def _dct_twiddles(n: int):
    """(w1, w2, fct) of an n-point DCT-II: w1[j - 1] = tw[j - 1] for j in
    1..n-1 and w2[j - 1] = tw[n - j - 1] for j in 1..(n+1)//2 - 1, tw being
    pocketfft's twiddles, and fct = 1/sqrt(2n) rounded from long double.

    tw[i] is the real part of pocketfft's sincos_2pibyn(4n)[i + 1]: the
    product v1[j & mask] * v2[j >> shift] of two tables of about sqrt(2n)
    entries each, filled with std::cos and std::sin of x * ang, which
    math.cos and math.sin (the same libm) reproduce; a correctly rounded
    cos misses by an ulp. The indices j < n used here stay in the first
    quadrant. Cached per n; the arrays are read-only.
    """
    big = 4 * n
    ang = float(np.longdouble(0.25) * _PI_LONG / big)

    def entry(x):  # pocketfft's sincos_2pibyn::calc for 8x < 2 * big
        if 8 * x < big:
            return math.cos(8 * x * ang), math.sin(8 * x * ang)
        return math.sin((2 * big - 8 * x) * ang), math.cos((2 * big - 8 * x) * ang)

    shift = 1
    while 4**shift < (big + 2) // 2:
        shift += 1
    mask = (1 << shift) - 1
    v1 = np.array([entry(x) for x in range(min(mask, n - 1) + 1)])
    v2 = np.array([entry(x << shift) for x in range(((n - 1) >> shift) + 1)])
    j = np.arange(1, n)
    a, b = v1[j & mask], v2[j >> shift]
    tw = a[:, 0] * b[:, 0] - a[:, 1] * b[:, 1]
    ns2 = (n + 1) // 2
    w1, w2 = tw, tw[n - ns2 :][::-1].copy()
    for array in (w1, w2):
        array.flags.writeable = False  # shared by every caller through the cache
    return w1, w2, float(1 / np.sqrt(np.longdouble(2 * n)))


def energy_track(s: Spectrogram) -> EnergyTrack:
    """L2 norm of each magnitude frame."""
    values = np.empty(s.n_frames)
    for lo, hi in _blocks(s.n_frames, s.params.fft_size):
        np.square(s.frames[lo:hi]).sum(axis=1, out=values[lo:hi])
    return EnergyTrack(np.sqrt(values, out=values), s.frame_rate)


def pitch_track(w, f_min: float = 50.0, f_max: float = 600.0,
                voicing_threshold: float = 0.15, hop: int = 256) -> PitchTrack:
    """YIN pitch track of a mono waveform.

    Computes the cumulative-mean-normalized difference function per frame,
    takes the trough of its first dip below ``voicing_threshold`` inside
    [f_min, f_max], and refines the lag by parabolic interpolation. Frames
    with no dip below the threshold are unvoiced and report 0. The longest
    measurable period is PITCH_FRAME_LENGTH/2 samples, which caps how low
    f_min can effectively reach. ``voicing_threshold`` must be finite and
    positive. Frames are analysed a block at a time (see _blocks), so the
    working memory does not grow with the clip.
    """
    x = w.mono_samples()
    sr = w.sample_rate
    if not 0 < f_min < f_max <= sr / 2:
        raise ValueError(f"need 0 < f_min < f_max <= sr/2, got [{f_min}, {f_max}]")
    if not 0 < voicing_threshold < np.inf:
        raise ValueError("voicing_threshold must be finite and positive, "
                         f"got {voicing_threshold}")
    if len(x) == 0:
        raise ValueError("cannot analyze an empty waveform")

    tau_min = max(1, int(np.ceil(sr / f_max)))
    tau_max = min(PITCH_FRAME_LENGTH // 2, int(np.floor(sr / f_min)))
    if tau_min >= tau_max:
        raise ValueError(f"band [{f_min}, {f_max}] Hz is degenerate at rate {sr}")

    n_frames = _frame_count(len(x), PITCH_FRAME_LENGTH, hop)
    values = np.zeros(n_frames)
    # one block's spectra, refilled block by block
    rows = _block_rows(n_frames, PITCH_FRAME_LENGTH)
    spec_full = np.empty((rows, PITCH_FRAME_LENGTH + 1), dtype=complex)
    spec_head = np.empty_like(spec_full)
    # each block takes the operand order numpy gives full * head.conj() over the
    # whole track in tests/reference_pitch.py: as written below 8 frames, conj *
    # full from 8 (256 KiB of spectra, where numpy elides the conj temporary) on
    conj_first = n_frames >= 8
    for lo, hi, frames in _frame_blocks(x, PITCH_FRAME_LENGTH, hop, PITCH_FRAME_LENGTH):
        values[lo:hi] = _pitch_block(frames, spec_full[: hi - lo], spec_head[: hi - lo],
                                     conj_first, sr, f_min, f_max, voicing_threshold,
                                     tau_min, tau_max)
    return PitchTrack(values, sr / hop)


def _pitch_block(frames: np.ndarray, spec_full: np.ndarray, spec_head: np.ndarray,
                 conj_first: bool, sr: int, f_min: float, f_max: float,
                 voicing_threshold: float, tau_min: int, tau_max: int) -> np.ndarray:
    """Pitch in Hz (0 when unvoiced) of each row of ``frames``; spec_full
    and spec_head, len(frames) x (PITCH_FRAME_LENGTH + 1) complex, are
    overwritten. The cross spectrum is conj(head) * full if ``conj_first``,
    else full * conj(head): the two orders round differently in the FMA loop."""
    n_frames = len(frames)
    win = PITCH_FRAME_LENGTH // 2

    # difference function d[t, tau] = e0 + e_tau - 2 * xcorr(tau), batched over frames
    n_fft = 2 * PITCH_FRAME_LENGTH
    np.fft.rfft(frames, n=n_fft, axis=1, out=spec_full)
    np.fft.rfft(frames[:, :win], n=n_fft, axis=1, out=spec_head)
    np.conjugate(spec_head, out=spec_head)
    if conj_first:
        np.multiply(spec_head, spec_full, out=spec_head)
    else:
        np.multiply(spec_full, spec_head, out=spec_head)
    # numpy.fft.irfft gives scipy.fft.irfft's bits (tests/test_spectral_kernel.py pins that)
    xcorr = np.fft.irfft(spec_head, n=n_fft, axis=1)[:, : tau_max + 1]
    sq = np.cumsum(frames**2, axis=1)
    e0 = sq[:, win - 1]
    e_tau = np.empty((n_frames, tau_max + 1))
    e_tau[:, 0] = e0
    e_tau[:, 1:] = sq[:, win : win + tau_max] - sq[:, :tau_max]
    diff = np.maximum(e0[:, None] + e_tau - 2.0 * xcorr, 0.0)

    # cumulative-mean normalization; silent frames get the unvoiced value 1
    taus = np.arange(1, tau_max + 1, dtype=np.float64)
    running = np.cumsum(diff[:, 1:], axis=1)
    cmnd = np.ones_like(diff)
    np.divide(diff[:, 1:] * taus, running, out=cmnd[:, 1:], where=running > 0)

    # first dip below the threshold, then down to where the curve stops falling
    band = cmnd[:, tau_min:]
    below = band < voicing_threshold
    voiced = below.any(axis=1)
    stops = np.ones_like(below)
    stops[:, :-1] = ~(band[:, 1:] < band[:, :-1])
    stops &= np.arange(band.shape[1]) >= below.argmax(axis=1)[:, None]
    tau = tau_min + stops.argmax(axis=1)

    # parabolic refinement of the trough
    rows = np.arange(n_frames)
    inner = tau < tau_max  # tau >= tau_min >= 1, so tau - 1 is a lag
    a = cmnd[rows, tau - 1]
    b = cmnd[rows, tau]
    c = cmnd[rows, np.where(inner, tau + 1, tau)]
    denom = a - 2.0 * b + c
    shift = np.zeros(n_frames)
    np.divide(0.5 * (a - c), denom, out=shift, where=inner & (denom > 0))
    pitch = np.minimum(np.maximum(sr / (tau + shift), f_min), f_max)
    return np.where(voiced, pitch, 0.0)
