import os
import subprocess
import sys
from pathlib import Path

import pytest

import dubkit


def test_star_import_binds_every_exported_name():
    assert len(set(dubkit.__all__)) == len(dubkit.__all__)
    namespace = {}
    exec("from dubkit import *", namespace)
    for name in dubkit.__all__:
        assert namespace[name] is getattr(dubkit, name)
    assert namespace["read_wav"] is dubkit.audio.read_wav
    assert namespace["evaluate_pair"] is dubkit.metrics.evaluate_pair


def test_test_only_helpers_are_not_public():
    # the zero-padding, frame distance and one-call MFCC helpers live in the
    # test oracles (reference_spectral.py, reference_dtw.py) that use them,
    # the SRT and WAV writers in helpers.py
    for module, name in [("audio", "pad_to_length"), ("metrics", "frame_distance"),
                         ("metrics", "extract_mfcc"), ("srt", "serialize_srt"),
                         ("srt", "format_timestamp"), ("audio", "write_wav"),
                         ("metrics", "CONVENTIONAL_SCALE")]:
        assert name not in dubkit.__all__
        assert not hasattr(getattr(dubkit, module), name)


def test_bare_import_loads_a_submodule_on_first_use():
    code = ("import sys, dubkit\n"
            "before = [m for m in sys.modules if m.startswith('dubkit.')]\n"
            "unlisted = set(dubkit.__all__) - set(dir(dubkit))\n"
            "cells = dubkit.metrics.MAX_DTW_CELLS\n"
            "print(before, sorted(unlisted), "
            "cells == sys.modules['dubkit.metrics'].MAX_DTW_CELLS)")
    env = dict(os.environ, PYTHONPATH=str(Path(dubkit.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    assert result.stdout.strip() == "[] [] True"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        dubkit.nope
    with pytest.raises(ImportError):
        from dubkit import nope  # noqa: F401
