"""The whole-clip STFT magnitude and frame energy as they stood before the
blocked rewrite, kept verbatim as the oracle that ``dubkit.dsp.stft_magnitude``
and ``dubkit.dsp.energy_track`` must match bit for bit, and the zero-padding
and MFCC extraction of a whole clip that the padded spectrogram and the plain
MCD of a pair are held to. Test-only; not imported by dubkit.
"""

import numpy as np
from scipy.fft import dct, rfft

from dubkit.audio import Waveform
from dubkit.dsp import (EnergyTrack, FrameParams, MfccSequence, Spectrogram, _hann,
                        mel_filterbank)

from reference_mel import mel_power_row


def _frame(x: np.ndarray, length: int, hop: int) -> np.ndarray:
    """Centered framing: reflect-pad length//2 on both ends. A copy of
    ``dubkit.dsp._frame`` as it stood, so that a change to the framing there
    is not followed by the oracle."""
    pad = length // 2
    padded = np.pad(x, pad, mode="reflect")
    n_frames = 1 + (len(padded) - length) // hop
    frames = np.lib.stride_tricks.sliding_window_view(padded, length)[::hop]
    return frames[:n_frames]


def stft_magnitude(w, p: FrameParams = FrameParams()) -> Spectrogram:
    """Magnitude spectrogram of a mono waveform."""
    x = w.mono_samples()
    if len(x) == 0:
        raise ValueError("cannot analyze an empty waveform")
    window = _hann(p.win_length)
    frames = _frame(x, p.win_length, p.hop) * window
    mags = np.abs(rfft(frames, n=p.fft_size, axis=1))
    return Spectrogram(mags, p, w.sample_rate)


def energy_track(s: Spectrogram) -> EnergyTrack:
    """L2 norm of each magnitude frame."""
    return EnergyTrack(np.sqrt((s.frames**2).sum(axis=1)), s.frame_rate)


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


def extract_mfcc(w: Waveform, cfg):
    """Waveform -> MFCC sequence under a metrics.PipelineConfig, from the
    oracles alone: the whole-clip STFT power, the mel product of one frame
    at a time, the floored log and scipy's orthonormal DCT-II."""
    spec = stft_magnitude(w, cfg.frame)
    fb = mel_filterbank(w.sample_rate, cfg.frame.fft_size, cfg.n_mels, cfg.fmin, cfg.fmax)
    mel = np.array([mel_power_row(row, fb) for row in spec.frames**2])
    log_mel = np.log(np.maximum(mel, 1e-10))
    coeffs = dct(log_mel, type=2, norm="ortho", axis=1)[:, 1 : cfg.n_coeffs + 1]
    return MfccSequence(coeffs, spec.frame_rate)
