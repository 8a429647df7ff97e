"""The whole-clip YIN pitch tracker as it stood before the blocked rewrite,
kept verbatim as the oracle that ``dubkit.dsp.pitch_track`` must match bit
for bit. Test-only; not imported by dubkit.
"""

import numpy as np
from scipy.fft import irfft, rfft

from dubkit.dsp import PITCH_FRAME_LENGTH, PitchTrack


def _frame(x: np.ndarray, length: int, hop: int) -> np.ndarray:
    """Centered framing: reflect-pad length//2 on both ends. A copy of
    ``dubkit.dsp._frame`` as it stood, so that a change to the framing there
    is not followed by the oracle."""
    pad = length // 2
    padded = np.pad(x, pad, mode="reflect")
    n_frames = 1 + (len(padded) - length) // hop
    frames = np.lib.stride_tricks.sliding_window_view(padded, length)[::hop]
    return frames[:n_frames]


def pitch_track(w, f_min: float = 50.0, f_max: float = 600.0,
                voicing_threshold: float = 0.15, hop: int = 256) -> PitchTrack:
    """YIN pitch track of a mono waveform.

    Computes the cumulative-mean-normalized difference function per frame,
    takes the trough of its first dip below ``voicing_threshold`` inside
    [f_min, f_max], and refines the lag by parabolic interpolation. Frames
    with no dip below the threshold are unvoiced and report 0. The longest
    measurable period is PITCH_FRAME_LENGTH/2 samples, which caps how low
    f_min can effectively reach.
    """
    x = w.mono_samples()
    sr = w.sample_rate
    if not 0 < f_min < f_max <= sr / 2:
        raise ValueError(f"need 0 < f_min < f_max <= sr/2, got [{f_min}, {f_max}]")
    if len(x) == 0:
        raise ValueError("cannot analyze an empty waveform")

    win = PITCH_FRAME_LENGTH // 2
    tau_min = max(1, int(np.ceil(sr / f_max)))
    tau_max = min(win, int(np.floor(sr / f_min)))
    if tau_min >= tau_max:
        raise ValueError(f"band [{f_min}, {f_max}] Hz is degenerate at rate {sr}")

    frames = _frame(x, PITCH_FRAME_LENGTH, hop)
    n_frames = len(frames)

    # difference function d[t, tau] = e0 + e_tau - 2 * xcorr(tau), batched over frames
    n_fft = 2 * PITCH_FRAME_LENGTH
    spec_full = rfft(frames, n=n_fft, axis=1)
    spec_head = rfft(frames[:, :win], n=n_fft, axis=1)
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

    values = np.zeros(n_frames)
    for t in range(n_frames):
        d = cmnd[t]
        below = np.nonzero(d[tau_min : tau_max + 1] < voicing_threshold)[0]
        if len(below) == 0:
            continue
        tau = tau_min + below[0]
        while tau + 1 <= tau_max and d[tau + 1] < d[tau]:
            tau += 1
        # parabolic refinement of the trough
        shift = 0.0
        if 0 < tau < tau_max:
            a, b, c = d[tau - 1], d[tau], d[tau + 1]
            denom = a - 2.0 * b + c
            if denom > 0:
                shift = 0.5 * (a - c) / denom
        values[t] = min(max(sr / (tau + shift), f_min), f_max)

    return PitchTrack(values, sr / hop)
