"""``dubkit.audio.resample`` as it stood when it called scipy.signal, kept
as the oracle that the numpy polyphase resampler must match bit for bit.
Test-only; dubkit itself never imports scipy.signal.
"""

import math

import numpy as np
from scipy.signal import kaiser_beta, resample_poly

from dubkit.audio import Waveform


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Resample mono audio with scipy's Kaiser-windowed polyphase filter
    (80 dB), clipped to [-1, 1]; the source rate is the identity."""
    x = w.mono_samples()
    if target_rate == w.sample_rate:
        return w
    g = math.gcd(target_rate, w.sample_rate)
    up, down = target_rate // g, w.sample_rate // g
    y = resample_poly(x, up, down, window=("kaiser", kaiser_beta(80.0)))
    return Waveform(np.clip(y, -1.0, 1.0), target_rate)
