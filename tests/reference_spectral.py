"""The whole-clip STFT magnitude and frame energy as they stood before the
blocked rewrite, kept verbatim as the oracle that ``dubkit.dsp.stft_magnitude``
and ``dubkit.dsp.energy_track`` must match bit for bit. Test-only; not
imported by dubkit.
"""

import numpy as np
from scipy.fft import rfft

from dubkit.dsp import EnergyTrack, FrameParams, Spectrogram, _frame, _hann


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
