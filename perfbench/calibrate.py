"""Fixed reference job: how fast the machine runs Python and numpy right now.

It imports nothing from dubkit, so no change to dubkit moves it. It mixes
the kinds of work the CLI does: interpreter start and a numpy import,
Python object churn through json, fresh large arrays through an FFT, a
BLAS matrix product and a loop of small numpy operations. run.py times it
several times in each untraced run and reports times in reference
seconds: measured seconds x REFERENCE_S / the job's median wall time.
Changing this job or REFERENCE_S changes every reported time.
"""

import json

import numpy as np

# typical wall seconds of this job, child start to reap, on a 2-vCPU
# Linux VM with Python 3.11 and numpy 2.4
REFERENCE_S = 0.6


def main() -> None:
    rows = [{"id": k, "text": f"row {k} of the reference job", "value": k * 0.5}
            for k in range(40_000)]
    decoded = json.loads(json.dumps(rows))

    rng = np.random.default_rng(12345)
    frames = rng.standard_normal((1000, 2048))
    spec = np.fft.rfft(frames, n=4096, axis=1)
    corr = np.fft.irfft(spec * spec.conj(), n=4096, axis=1)
    power = (np.abs(spec[:, :1025]) ** 2) @ rng.random((1025, 80))

    gamma = np.zeros((250, 300))
    for s in range(2, 549):
        i = np.arange(max(1, s - 299), min(249, s - 1) + 1)
        j = s - i
        gamma[i, j] = np.minimum(gamma[i - 1, j - 1],
                                 np.minimum(gamma[i - 1, j], gamma[i, j - 1])) + 1.0
    print(len(decoded), float(corr[0, 0] + power[0, 0] + gamma[-1, -1]))


if __name__ == "__main__":
    main()
