"""Memory gate: `dubkit features` on three minutes of 48 kHz stereo runs in a
child whose address space may grow only a fixed budget past what the
numeric stack takes once imported.

At --rate 8000 the resampled clip and its features are small, so the peak is
set by reading the 48 kHz stereo input: decoded, averaged to mono and
resampled a block at a time it stays well inside the budget (it needs about
33 MB), while the whole clip at 48 kHz, 66 MB even as mono, does not fit.
One BLAS thread keeps the address space the same on any core count.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dubkit

from helpers import _write_riff

SECONDS = 180
BUDGET_MB = 60

CHILD = """\
import resource, sys
import dubkit.audio, dubkit.cli, dubkit.dsp
size = next(int(line.split()[1]) for line in open("/proc/self/status")
            if line.startswith("VmSize:")) << 10
limit = size + ({budget} << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(dubkit.cli.run(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_features_on_a_long_stereo_clip_fits_the_budget(tmp_path):
    rng = np.random.default_rng(14)
    noise = rng.integers(-3000, 3000, size=SECONDS * 48000 * 2, dtype=np.int16)
    clip = tmp_path / "long.wav"
    _write_riff(clip, noise.astype("<i2").tobytes(), 1, 2, 48000, 16)
    out = tmp_path / "features.json"
    env = {"PYTHONPATH": str(Path(dubkit.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run(
        [sys.executable, "-c", CHILD.format(budget=BUDGET_MB), "features", str(clip),
         "--rate", "8000", "--fmax", "4000", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert json.loads(out.read_text())["n_frames"] == 1 + SECONDS * 8000 // 256
