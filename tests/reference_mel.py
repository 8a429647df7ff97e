"""The mel filterbank product written out one band of one frame at a time,
in the order ``dubkit.dsp._mel_power`` documents, kept as the oracle it must
match bit for bit. Test-only; not imported by dubkit.
"""

import numpy as np


def mel_power_row(power_row: np.ndarray, fb: np.ndarray) -> list:
    """Band b of one frame: 0.0 plus power[k] * fb[b, k] for each nonzero
    fb[b, k], added left to right in ascending k."""
    bands = []
    for weights in fb:
        total = 0.0
        for k in np.flatnonzero(weights):
            total += float(power_row[k]) * float(weights[k])
        bands.append(total)
    return bands
