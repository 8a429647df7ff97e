"""Frame-level feature extraction.

STFT magnitudes, HTK-mel log spectrograms, MFCCs, per-frame energy and a
YIN-style pitch tracker. All extractors are pure functions: the same
input always produces bit-identical output.
"""

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
    ends of the padded clip as ``np.pad(..., "reflect")`` reflects them. A
    block inside x is a view of it; a block that reaches an end or the zeros
    is framed from a block-sized segment with those samples filled in.
    """
    n = len(x) if n is None else n
    pad = length // 2
    whole = None
    if n <= pad + 1:
        # numpy reflects a clip this short more than once: pad all of it
        whole = np.zeros(n)
        whole[:len(x)] = x
        whole = np.pad(whole, pad, mode="reflect")
    for lo, hi in _blocks(_frame_count(n, length, hop) - first, row_length):
        lo, hi = lo + first, hi + first
        start, stop = lo * hop - pad, (hi - 1) * hop - pad + length
        if whole is not None:
            segment = whole[start + pad : stop + pad]
        elif 0 <= start and stop <= len(x):
            segment = x[start:stop]
        else:
            segment = _reflected_segment(x, n, start, stop)
        yield lo, hi, np.lib.stride_tricks.sliding_window_view(segment, length)[::hop]


def _reflected_segment(x: np.ndarray, n: int, start: int, stop: int) -> np.ndarray:
    """Samples start..stop of z, x zero-padded to n > 1 samples, reflected
    once about each end: z[-i] before 0 and z[2n - 2 - i] from n on, so
    -n < start and stop < 2n - 1."""
    segment = np.empty(stop - start)
    inner = max(0, start)
    _fill(segment[inner - start : min(stop, n) - start], x, inner)
    if start < 0:
        _fill(segment[:-start][::-1], x, 1)  # z[-start], ..., z[1]
    if stop > n:
        _fill(segment[n - start :][::-1], x, 2 * n - 1 - stop)  # z[n - 2], ..., z[2n - 1 - stop]
    return segment


def _fill(out: np.ndarray, x: np.ndarray, a: int) -> None:
    """out[:] = z[a : a + len(out)], z being x followed by zeros."""
    k = min(len(out), max(0, len(x) - a))
    out[:k] = x[a : a + k]
    out[k:] = 0.0


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
    so n_coeffs must be below the band count.
    """
    n_mels = m.frames.shape[1]
    if n_mels < 2:
        raise ValueError(f"MFCCs need at least 2 mel bands, got {n_mels}")
    if not 1 <= n_coeffs < n_mels:
        raise ValueError(f"n_coeffs must be in [1, {n_mels - 1}], got {n_coeffs}")
    from scipy.fft import dct

    cepstra = dct(m.frames, type=2, norm="ortho", axis=1)
    return MfccSequence(cepstra[:, 1 : n_coeffs + 1], m.frame_rate)


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
