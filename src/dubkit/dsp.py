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
# whatever the framing. rfft magnitudes and row sums of squares do not depend
# on where the blocks are cut; pitch does below _MIN_BLOCK rows.
_SPECTRAL_SPAN = 1 << 18
# 8 frames x 2049 bins x 16 B = 256 KiB of rfft output, numpy's NPY_MIN_ELIDE_BYTES:
# from there on numpy elides the conj temporary in pitch_track's spectrum product
# (see _pitch_block). If a numpy upgrade moves that threshold, pitch drifts by an
# ulp at block edges and tests/test_pitch_kernel.py's block-boundary test fails.
_MIN_BLOCK = 8
_MEL_FLOOR = 1e-10  # mel power below this is logged as log(_MEL_FLOOR)


@dataclass(frozen=True)
class FrameParams:
    """Analysis framing: FFT size, hop and Hann window length, in samples."""

    fft_size: int = 1024
    hop: int = 256
    win_length: int = 1024

    def __post_init__(self):
        if not 0 < self.hop <= self.win_length <= self.fft_size:
            raise ValueError(
                f"need 0 < hop <= win_length <= fft_size, got "
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


def _frame(x: np.ndarray, length: int, hop: int) -> np.ndarray:
    """Centered framing: reflect-pad length//2 on both ends."""
    pad = length // 2
    padded = np.pad(x, pad, mode="reflect")
    return np.lib.stride_tricks.sliding_window_view(padded, length)[::hop]


@lru_cache(maxsize=16)
def _hann(length: int) -> np.ndarray:
    """Periodic Hann window, bit-equal to scipy's ``get_window("hann",
    length, fftbins=True)``: the symmetric window of length + 1 computed as
    scipy's ``windows.general_cosine`` does, minus its last sample."""
    if length <= 1:
        window = np.ones(length)
    else:
        fac = np.linspace(-np.pi, np.pi, length + 1)
        window = np.zeros(length + 1)
        for k in range(2):
            window += 0.5 * np.cos(k * fac)
        window = window[:-1]
    window.flags.writeable = False  # shared by every caller through the cache
    return window


def stft_magnitude(w, p: FrameParams = FrameParams()) -> Spectrogram:
    """Magnitude spectrogram of a mono waveform."""
    x = w.mono_samples()
    if len(x) == 0:
        raise ValueError("cannot analyze an empty waveform")
    frames = _frame(x, p.win_length, p.hop)
    mags = np.empty((len(frames), p.fft_size // 2 + 1))
    _stft_rows(frames, p, mags)
    return Spectrogram(mags, p, w.sample_rate)


def _padded_stft(spec: Spectrogram, w, n: int) -> Spectrogram:
    """stft_magnitude of w zero-padded to n samples, given spec, the
    spectrogram of w itself.

    Frame t reads samples t * hop - win // 2 onward, so while it ends inside
    w and w is longer than the reflected win // 2 samples at its start, the
    padding cannot reach it: those first rows are copied from spec, and only
    the rest are transformed.
    """
    p = spec.params
    x = w.mono_samples()
    pad = p.win_length // 2
    shared = 0 if len(x) <= pad else max(0, (len(x) + pad - p.win_length) // p.hop + 1)
    padded = np.zeros(n)
    padded[:len(x)] = x
    frames = _frame(padded, p.win_length, p.hop)
    mags = np.empty((len(frames), p.fft_size // 2 + 1))
    mags[:shared] = spec.frames[:shared]
    _stft_rows(frames[shared:], p, mags[shared:])
    return Spectrogram(mags, p, spec.sample_rate)


def _stft_rows(frames: np.ndarray, p: FrameParams, out: np.ndarray) -> None:
    """out[t] = |rfft(frames[t] * window)|; windowed frames and their complex
    spectra exist one block at a time, and a row does not depend on where the
    blocks are cut."""
    # scipy.fft is imported where it is called because it is slow to import
    # and commands that run no FFT never need it
    from scipy.fft import rfft

    window = _hann(p.win_length)
    for lo, hi in _blocks(len(frames), p.fft_size):
        np.abs(rfft(frames[lo:hi] * window, n=p.fft_size, axis=1), out=out[lo:hi])


def _blocks(n_rows: int, row_length: int):
    """(lo, hi) ranges covering rows 0..n_rows in order, _SPECTRAL_SPAN //
    row_length rows each but never fewer than _MIN_BLOCK; a tail shorter
    than _MIN_BLOCK joins the block before it."""
    rows = max(_MIN_BLOCK, _SPECTRAL_SPAN // row_length)
    starts = list(range(0, n_rows, rows))
    if len(starts) > 1 and n_rows - starts[-1] < _MIN_BLOCK:
        starts.pop()
    return zip(starts, starts[1:] + [n_rows])


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
    edges = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    bin_freqs = np.arange(fft_size // 2 + 1) * sample_rate / fft_size
    lower, center, upper = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bin_freqs - lower) / (center - lower)
    falling = (upper - bin_freqs) / (upper - center)
    fb = np.maximum(0.0, np.minimum(rising, falling))
    fb.flags.writeable = False  # shared by every caller through the cache
    return fb


def mel_spectrogram(s: Spectrogram, n_mels: int = 80, fmin: float = 0.0,
                    fmax: float = 8000.0) -> MelSpectrogram:
    """Log mel power spectrogram: log(max(_MEL_FLOOR, filterbank @ magnitude^2))."""
    fb = mel_filterbank(s.sample_rate, s.params.fft_size, n_mels, fmin, fmax)
    power = s.frames**2
    # One matmul over every frame, not blocks as in stft_magnitude: below a
    # row count that depends on the shape, OpenBLAS picks another dgemm kernel
    # and a row's result changes in the last bits. Floors measured with
    # scipy-openblas 0.3.31 (mels x bins: rows): 80 x 513: 16, 80 x 1025: 13,
    # 40 x 513: 31, 20 x 513: 61, 10 x 129: 121, 2 x 33: over 600.
    mel_power = power @ fb.T
    return MelSpectrogram(np.log(np.maximum(_MEL_FLOOR, mel_power)), s.frame_rate)


def mfcc(m: MelSpectrogram, n_coeffs: int = 13) -> MfccSequence:
    """Orthonormal DCT-II of the log-mel frames.

    Keeps coefficients 1..n_coeffs; the 0th (frame log energy) is dropped,
    so n_coeffs must be below the band count.
    """
    n_mels = m.frames.shape[1]
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

    frames = _frame(x, PITCH_FRAME_LENGTH, hop)
    values = np.zeros(len(frames))
    for lo, hi in _blocks(len(frames), PITCH_FRAME_LENGTH):
        values[lo:hi] = _pitch_block(frames[lo:hi], sr, f_min, f_max,
                                     voicing_threshold, tau_min, tau_max)
    return PitchTrack(values, sr / hop)


def _pitch_block(frames: np.ndarray, sr: int, f_min: float, f_max: float,
                 voicing_threshold: float, tau_min: int, tau_max: int) -> np.ndarray:
    """Pitch in Hz (0 when unvoiced) of each row of ``frames``."""
    from scipy.fft import irfft, rfft

    n_frames = len(frames)
    win = PITCH_FRAME_LENGTH // 2

    # difference function d[t, tau] = e0 + e_tau - 2 * xcorr(tau), batched over frames
    n_fft = 2 * PITCH_FRAME_LENGTH
    spec_full = rfft(frames, n=n_fft, axis=1)
    spec_head = rfft(frames[:, :win], n=n_fft, axis=1)
    # Keep this product as written. From 256 KiB (_MIN_BLOCK frames) on,
    # numpy reuses the conj temporary and computes conj * full in place, and
    # the swapped operands round differently in the FMA loop. So that a
    # frame's pitch does not depend on where the blocks are cut, no block is
    # below that size unless the whole clip is.
    xcorr = irfft(spec_full * spec_head.conj(), n=n_fft, axis=1)[:, : tau_max + 1]
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
