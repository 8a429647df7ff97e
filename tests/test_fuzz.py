"""Hostile-input fuzz: mutated and truncated WAV headers and edited SRT text
must fail only with the typed errors of the readers (or the documented
resample-bound ValueError), never with another exception, an allocation
beyond 1.5 GiB or a dead process.

Every example runs in one long-lived child process under RLIMIT_AS, so the
limit does not reach the test process and the child's start-up (numpy,
scipy.signal) is paid once rather than per example.
"""

import json
import select
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dubkit

from helpers import write_float32_wav, write_pcm16_raw

WORKER = """\
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))
from dubkit.audio import read_wav, resample, to_mono
from dubkit.srt import parse_srt
for line in sys.stdin:
    kind, path = json.loads(line)
    try:
        if kind == "wav":
            resample(to_mono(read_wav(path)), 22050)
        else:
            with open(path, encoding="utf-8") as fh:
                parse_srt(fh.read())
        outcome = "ok"
    except Exception as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    print(json.dumps(outcome), flush=True)
"""

ALLOWED = ("ok", "UnsupportedFormatError: ", "TruncatedFileError: ", "SrtParseError: ",
           "ValueError: cannot resample ")


class Worker:
    """The child process; restarted after it dies or hangs."""

    def __init__(self):
        self.proc = None

    def run(self, kind, path):
        if self.proc is None or self.proc.poll() is not None:
            env = {"PYTHONPATH": str(Path(dubkit.__file__).parents[1])}
            self.proc = subprocess.Popen([sys.executable, "-c", WORKER], env=env, text=True,
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.proc.stdin.write(json.dumps([kind, str(path)]) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close()
            pytest.fail(f"the child process died or hung on {path}")
        return json.loads(line)

    def close(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.communicate()
            self.proc = None


@pytest.fixture(scope="module")
def worker():
    w = Worker()
    yield w
    w.close()


@pytest.fixture(scope="module")
def case_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _wav_bytes(path, write, *args):
    write(path, *args)
    return path.read_bytes()


@pytest.fixture(scope="module")
def base_wavs(case_dir):
    # the PCM payloads hold -1s, which read as NaN if the header is edited to float32
    return [
        _wav_bytes(case_dir / "mono.wav", write_pcm16_raw, [0, -1, 300, -1] * 40, 1, 8000),
        _wav_bytes(case_dir / "stereo.wav", write_pcm16_raw, [5, -7] * 60, 2, 44100),
        _wav_bytes(case_dir / "float.wav", write_float32_wav, [0.25, -0.5] * 50, 22050),
    ]


# (offset, size) of the canonical 44-byte header's fields: RIFF size, fmt
# size, format tag, channels, rate, byte rate, block align, bits, data size
HEADER_FIELDS = [(4, 4), (16, 4), (20, 2), (22, 2), (24, 4), (28, 4), (32, 2), (34, 2), (40, 4)]
FIELD_VALUES = st.sampled_from([0, 1, 2, 3, 16, 32, 999, 1000, 768000, 768001, 767999,
                                0xFFFE, 0xFFFF, 2**31 - 1, 2**32 - 1]) | st.integers(0, 2**32 - 1)
HEADER_EDITS = (st.tuples(st.sampled_from(HEADER_FIELDS), FIELD_VALUES)
                | st.tuples(st.tuples(st.integers(0, 47), st.just(1)), st.integers(0, 255)))


@settings(max_examples=250, deadline=None)
@given(base=st.integers(0, 2), edits=st.lists(HEADER_EDITS, max_size=4),
       cut=st.none() | st.integers(0, 400))
def test_wav_header_mutations_raise_typed_errors(worker, case_dir, base_wavs, base, edits, cut):
    data = bytearray(base_wavs[base])
    for (offset, size), value in edits:
        data[offset:offset + size] = (value % 256**size).to_bytes(size, "little")
    path = case_dir / "case.wav"
    path.write_bytes(bytes(data[:cut]))
    outcome = worker.run("wav", path)
    assert outcome.startswith(ALLOWED), outcome


SRT = ("1\n00:00:01,000 --> 00:00:02,500\nHello there.\n\n"
       "2\n00:00:03,000 --> 00:00:04,000\nTwo\nlines\n\n"
       "3\n01:02:03,004 --> 01:02:05,000\nLast.\n")
SRT_TOKENS = st.sampled_from(["-->", ":", ",", " ", "\n", "\n\n", "\r\n", "\r", "\ufeff",
                              "0", "00", "59", "60", "-1", "00:00:00,000", "٣",
                              "9" * 5000]) | st.text(max_size=4)


@settings(max_examples=250, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(SRT)), st.integers(0, 3), SRT_TOKENS),
                min_size=1, max_size=4))
def test_srt_edits_raise_typed_errors(worker, case_dir, edits):
    text = SRT
    for position, deleted, inserted in edits:
        text = text[:position] + inserted + text[position + deleted:]
    path = case_dir / "case.srt"
    path.write_text(text, encoding="utf-8", newline="")
    outcome = worker.run("srt", path)
    assert outcome.startswith(ALLOWED), outcome
