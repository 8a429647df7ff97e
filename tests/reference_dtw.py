"""The row-matrix DTW kernel as it stood before the diagonal-major rewrite,
kept verbatim as the oracle that ``dubkit.metrics.dtw_align`` must match bit
for bit (cost, path and path length R). Test-only; not imported by dubkit.
"""

import numpy as np

from dubkit.metrics import AlignmentResult


def _coeff_matrix(c) -> np.ndarray:
    frames = c.frames if hasattr(c, "frames") else np.asarray(c, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError("coefficient sequence must be a T x K matrix")
    return np.asarray(frames, dtype=np.float64)


def _distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # row-at-a-time keeps memory at O(M*N) and the arithmetic identical to
    # frame_distance (no a^2+b^2-2ab cancellation)
    out = np.empty((len(a), len(b)))
    for i in range(len(a)):
        out[i] = np.sqrt(((a[i] - b) ** 2).sum(axis=1))
    return out


def dtw_align(c1, c2) -> AlignmentResult:
    """Minimum-cost monotone alignment between two cepstral sequences.

    The cumulative cost gamma[i, j] = d(i, j) + min of the three
    predecessors; backtracking breaks ties preferring the diagonal step,
    then the vertical (i-1, j), then the horizontal (i, j-1), which yields
    the shortest path among equal-cost greedy backtracks.
    """
    a, b = _coeff_matrix(c1), _coeff_matrix(c2)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"coefficient count mismatch: {a.shape[1]} vs {b.shape[1]}")
    m, n = len(a), len(b)
    if m == 0 or n == 0:
        raise ValueError("cannot align an empty sequence")

    dist = _distance_matrix(a, b)
    gamma = np.empty((m, n))
    gamma[0, :] = np.cumsum(dist[0, :])
    gamma[:, 0] = np.cumsum(dist[:, 0])
    # sweep anti-diagonals: cells on i + j = s depend only on s-1 and s-2
    for s in range(2, m + n - 1):
        i = np.arange(max(1, s - n + 1), min(m - 1, s - 1) + 1)
        if len(i) == 0:
            continue
        j = s - i
        best = np.minimum(gamma[i - 1, j - 1], np.minimum(gamma[i - 1, j], gamma[i, j - 1]))
        gamma[i, j] = dist[i, j] + best

    path = [(m - 1, n - 1)]
    i, j = m - 1, n - 1
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, vert, horiz = gamma[i - 1, j - 1], gamma[i - 1, j], gamma[i, j - 1]
            if diag <= vert and diag <= horiz:
                i, j = i - 1, j - 1
            elif vert <= horiz:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()
    return AlignmentResult(float(gamma[m - 1, n - 1]), np.array(path, dtype=np.intp), m, n)
