import argparse
import json
import os
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import dubkit
from dubkit import cli, dsp
from dubkit.cli import _emit, build_parser, run
from dubkit.metrics import PipelineConfig

from helpers import (brute_force_accuracy, jsonl, make_sawtooth, make_tone, reaped, spy_forks,
                     use_cpus, write_pcm16_wav)

SR = 22050


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tone(path, freq=440.0, duration=0.3):
    write_pcm16_wav(path, [make_tone(freq, duration, SR)], SR)
    return str(path)


def write_odd_rate_wav(path):
    # 767999 Hz is in read_wav's range but shares no useful factor with 22050
    write_pcm16_wav(path, [make_tone(440, 1e-4, 767999)], 767999)
    return str(path)


def write_truncated(path):
    """A tone whose data chunk declares 10 bytes more than the file holds."""
    write_tone(path)
    path.write_bytes(path.read_bytes()[:-10])
    return str(path)


def manifest_rows(n, **fields):
    """``n`` valid clip-manifest rows with clip_index 1..n; ``fields`` override."""
    return [{"movie_id": "m", "clip_index": i, "speaker": "s", "emotion": "neutral",
             "text": "hi", "start_ms": 0, "end_ms": 1000, **fields}
            for i in range(1, n + 1)]


# a --rate outside read_wav's 1000..768000 Hz is a flag error, not a
# per-pair failure or a resample to a rate no WAV can have
# the last three would ask for 5.00 GiB (a filterbank of 80 x 8388609), 1.25
# GiB and 7.64 GiB (2000000 x 513) unless the flags were bounded first
PIPELINE_FLAGS = ["--hop 0", "--k 0", "--k 80", "--k 81", "--n-mels 0", "--n-mels 1",
                  "--rate 0", "--rate 999 --fmax 400", "--rate 768001", "--rate 1000000000",
                  "--fmax 20000", "--fmin -5", "--fft 16777216 --win 16777216",
                  "--fft 4194304 --win 4194304", "--n-mels 2000000"]
BAD_FLAG_CASES = ([(command, flag) for command in ("features", "mcd", "batch")
                   for flag in PIPELINE_FLAGS]
                  + [("features", "--pitch-fmin 0"), ("features", "--pitch-fmax 20000"),
                     ("features", "--pitch-fmin 590 --pitch-fmax 600")]
                  + [("features", f"--pitch-threshold {value}")
                     for value in ("nan", "inf", "-1", "0")])


class TestMcdCommand:
    def test_identical_pair_scores_zero(self, tmp_path, capsys):
        wav = write_tone(tmp_path / "a.wav")
        code, out, err = invoke(capsys, "mcd", wav, wav)
        assert code == 0
        payload = json.loads(out)
        assert payload["mcd"] == 0.0
        assert payload["mcd_dtw"] == 0.0
        assert payload["mcd_dtw_sl"] == 0.0
        assert payload["config"]["sample_rate"] == SR

    def test_single_json_document(self, tmp_path, capsys):
        wav = write_tone(tmp_path / "a.wav")
        _, out, _ = invoke(capsys, "mcd", wav, wav)
        assert out.count("\n") == 1
        json.loads(out)  # parses as exactly one document

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        wav = write_tone(tmp_path / "a.wav")
        code, out, err = invoke(capsys, "mcd", wav, str(tmp_path / "missing.wav"))
        assert code == 1
        assert out == ""
        assert "error" in json.loads(err)

    def test_out_flag_writes_file(self, tmp_path, capsys):
        wav = write_tone(tmp_path / "a.wav")
        target = tmp_path / "report.json"
        code, out, _ = invoke(capsys, "mcd", wav, wav, "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["mcd"] == 0.0

    @pytest.mark.parametrize("cut", ["generated", "reference"])
    def test_truncated_file_is_named(self, tmp_path, capsys, cut):
        wavs = {"generated": write_tone(tmp_path / "g.wav"),
                "reference": write_tone(tmp_path / "r.wav")}
        wavs[cut] = write_truncated(tmp_path / "cut.wav")
        code, out, err = invoke(capsys, "mcd", wavs["generated"], wavs["reference"])
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error["type"] == "TruncatedFileError"
        assert error["message"].startswith(f"{wavs[cut]}: file ends inside data chunk")

    @pytest.mark.parametrize("command,flag", BAD_FLAG_CASES)
    def test_bad_frame_flags_exit_two(self, tmp_path, capsys, command, flag):
        missing = str(tmp_path / "missing")
        inputs = [missing, missing] if command == "mcd" else [missing]
        # the inputs alone fail at the read, so exit 2 means no file was read
        assert invoke(capsys, command, *inputs)[0] == 1
        code, out, err = invoke(capsys, command, *inputs, *flag.split())
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "usage"

    @pytest.mark.parametrize("flag,message", [
        ("--n-mels 1", "MFCCs need at least 2 mel bands, got 1"),
        ("--fft 4194304 --win 4194304", "fft_size <= 65536, got hop=256, win=4194304"),
        ("--n-mels 2000000", "n_mels must be in [1, 8176] at fft_size 1024, got 2000000"),
    ])
    def test_bad_frame_flags_say_what_is_wrong(self, tmp_path, capsys, flag, message):
        missing = str(tmp_path / "missing")
        code, _, err = invoke(capsys, "mcd", missing, missing, *flag.split())
        assert code == 2
        assert message in json.loads(err)["error"]["message"]


PRETTY_FEATURES = """\
config:
  sample_rate: 22050
  fft_size: 1024
  hop: 256
  win_length: 1024
  n_mels: 80
  fmin: 0.0000
  fmax: 8000.0000
  n_coeffs: 13
  scale: plain
  pad_mode: pad
  pitch_fmin: 50.0000
  pitch_fmax: 600.0000
  pitch_threshold: 0.1500
  input: {wav}
n_frames: 4
frame_rate: 86.1328
mel: [[80 values], [80 values], [80 values], [80 values]]
mfcc: [[13 values], [13 values], [13 values], [13 values]]
pitch: [440.1712, 441.1786, 441.1732, 441.1737]
energy: [250.9897, 250.8682, 250.8278, 251.5012]
"""


class TestFeaturesCommand:
    def test_emits_arrays_and_config(self, tmp_path, capsys):
        wav = write_tone(tmp_path / "a.wav")
        code, out, _ = invoke(capsys, "features", wav)
        assert code == 0
        payload = json.loads(out)
        for key in ("mel", "mfcc", "pitch", "energy"):
            assert len(payload[key]) == payload["n_frames"]
        assert payload["config"]["fft_size"] == 1024
        assert payload["config"]["n_mels"] == 80

    # an odd --win frames one sample short of centring, so a clip of whole
    # hops gets one STFT frame fewer than the pitch tracker's frames
    @pytest.mark.parametrize("hop,win,n_samples,n_frames", [
        (128, 1024, int(0.3 * SR), 1 + int(0.3 * SR) // 128),
        (256, 1024, int(0.3 * SR), 1 + int(0.3 * SR) // 256),
        (512, 1024, int(0.3 * SR), 1 + int(0.3 * SR) // 512),
        (256, 1023, 86 * 256, 86),
    ], ids=["128", "256", "512", "odd-win-whole-hops"])
    def test_pitch_frames_follow_hop(self, tmp_path, capsys, hop, win, n_samples, n_frames):
        wav = write_tone(tmp_path / "a.wav", duration=n_samples / SR)
        code, out, _ = invoke(capsys, "features", wav, "--hop", str(hop), "--win", str(win))
        assert code == 0
        payload = json.loads(out)
        assert payload["n_frames"] == n_frames
        for key in ("mel", "mfcc", "pitch", "energy"):
            assert len(payload[key]) == payload["n_frames"]

    def test_deterministic_output(self, tmp_path, capsys):
        wav = write_tone(tmp_path / "a.wav")
        _, first, _ = invoke(capsys, "features", wav)
        _, second, _ = invoke(capsys, "features", wav)
        assert first == second

    def test_truncated_file_is_named(self, tmp_path, capsys):
        wav = write_truncated(tmp_path / "cut.wav")
        code, out, err = invoke(capsys, "features", wav)
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error["type"] == "TruncatedFileError"
        assert error["message"].startswith(f"{wav}: file ends inside data chunk")

    def test_pretty_rendering(self, tmp_path, capsys):
        # pinned: arrays render as the lists they are written as
        wav = str(tmp_path / "tiny.wav")
        write_pcm16_wav(wav, [make_tone(440.0, 1000 / SR, SR)], SR)
        code, out, _ = invoke(capsys, "features", wav, "--pretty")
        assert code == 0
        assert out == PRETTY_FEATURES.format(wav=wav)

    def test_unresamplable_rate_fails_fast(self, tmp_path, capsys):
        wav = write_odd_rate_wav(tmp_path / "odd.wav")
        start = time.perf_counter()
        code, out, err = invoke(capsys, "features", wav)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert "767999 Hz to 22050 Hz" in error["message"]

    def test_degenerate_pitch_band_says_so(self, tmp_path, capsys):
        # ceil(22050 / 600) = floor(22050 / 590) = 37: the band holds one lag
        wav = write_tone(tmp_path / "a.wav")
        code, out, err = invoke(capsys, "features", wav, "--pitch-fmin", "590",
                                "--pitch-fmax", "600")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "type": "usage", "message": "band [590.0, 600.0] Hz is degenerate at rate 22050"}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("command", ["mcd", "features"])
def test_a_wav_with_no_samples_is_a_value_error(tmp_path, capsys, monkeypatch, command, cpus):
    empty = str(tmp_path / "empty.wav")
    write_pcm16_wav(empty, [np.zeros(0)], SR)
    use_cpus(monkeypatch, cpus)
    forks = spy_forks(monkeypatch)
    code, out, err = invoke(capsys, command, *[empty] * (2 if command == "mcd" else 1))
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {"type": "ValueError",
                                        "message": "cannot analyze an empty waveform"}
    assert all(map(reaped, forks))


class TrackError(ValueError):
    """Raised by a patched pitch tracker; defined at module level, so it
    pickles by reference like the library's own errors."""


def features_document(capsys, tmp_path, argv, out):
    """(exit code, stdout, stderr, --out bytes or None) of `dubkit features`,
    with the document on stdout or, if ``out``, in a fresh --out file."""
    target = tmp_path / f"doc{len(list(tmp_path.iterdir()))}.json"
    code, stdout, stderr = invoke(capsys, "features", *argv,
                                  *(["--out", str(target)] if out else []))
    return code, stdout, stderr, target.read_bytes() if target.exists() else None


def meeting_at(meet, claims, parent_blocks):
    """cli._claims with the two sides of `features`' pitch track meeting at
    block ``meet``: the child takes blocks 0..meet-1 and the command the
    rest, each side waiting, once it holds its share, for the other to take
    its own. The blocks the command takes go into ``parent_blocks``."""
    def forced(claimed, side, n_blocks):
        share = meet if side == 0 else n_blocks - meet
        blocks = claims(claimed, side, n_blocks)
        while True:
            if claimed[side] == share:
                wait_until(lambda: claimed[1 - side] + share >= n_blocks, 30)
            block = next(blocks, None)
            if block is None:
                return
            if side == 1:
                parent_blocks.append(block)
            yield block
    return forced


def short_track_clip(tmp_path, frames):
    """A tone of ``frames`` pitch and STFT frames at the default hop."""
    wav = str(tmp_path / f"{frames}-frames.wav")
    write_pcm16_wav(wav, [make_tone(220.0, ((frames - 1) * 256 + 100) / SR, SR)], SR)
    return wav


class TestFeaturesOnEveryCpu:
    """With two usable CPUs `features` forks a child that tracks pitch from
    the first block on while the command runs the spectral stages and
    renders the document; at "pitch" the command tracks the blocks from the
    last back until it meets the child's. With one CPU the command tracks
    every block itself. The document is the same bytes either way."""

    @pytest.mark.parametrize("clip,flags", [
        ("three", []),  # shorter than half a window: its 1 frame reflects it many times
        ("whole-hops", ["--win", "1023"]),  # one STFT frame fewer than pitch frames
        ("five-seconds", []),  # 431 pitch frames: blocks of 128, 128, 128 and 47
        ("stereo-48k", []),  # averaged to mono as it is decoded: 173 frames at 22.05 kHz
        ("1600-samples", []),  # 7 and 8 frames, one on each side of the pitch
        ("1800-samples", []),  # tracker's change of spectrum product order
    ])
    @pytest.mark.parametrize("mode", ["stdout", "out", "pretty"])
    def test_same_bytes_on_one_cpu_and_two(self, tmp_path, capsys, monkeypatch,
                                           clip, flags, mode):
        wav = str(tmp_path / f"{clip}.wav")
        channels, rate, n_frames = {
            "three": ([[0.25, -0.5, 0.125]], SR, 1),
            "whole-hops": ([make_tone(180.0, 86 * 256 / SR, SR)], SR, 86),
            "five-seconds": ([np.concatenate([make_sawtooth(150.0, 2.0, SR), np.zeros(SR),
                                              make_tone(310.0, 2.0, SR)])], SR, 431),
            "stereo-48k": ([0.5 * make_tone(440.0, 2.0, 48000),
                            0.5 * make_tone(660.0, 2.0, 48000)], 48000, 173),
            "1600-samples": ([make_tone(250.0, 1600 / SR, SR)], SR, 7),
            "1800-samples": ([make_tone(250.0, 1800 / SR, SR)], SR, 8)}[clip]
        write_pcm16_wav(wav, channels, rate)
        argv = [wav, *flags, *(["--pretty"] if mode == "pretty" else [])]
        documents = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            forks = spy_forks(monkeypatch)
            code, stdout, stderr, written = features_document(capsys, tmp_path, argv,
                                                              mode == "out")
            assert (code, stderr) == (0, ""), stderr
            assert len(forks) == cpus - 1 and all(map(reaped, forks))
            documents.append((stdout, written))
        assert documents[0] == documents[1]
        assert (documents[0][1] is None) == (mode != "out")
        if mode != "pretty":
            doc = json.loads(documents[0][1] or documents[0][0])
            assert doc["n_frames"] == n_frames
            assert all(len(doc[key]) == n_frames for key in ("mel", "mfcc", "pitch", "energy"))

    # two pitch frames a block: 4 blocks under the track's change of product
    # order at 8 frames, and 6 above it
    @pytest.mark.parametrize("frames", [7, 11])
    def test_same_bytes_wherever_the_two_sides_meet(self, tmp_path, capsys, monkeypatch,
                                                    frames):
        monkeypatch.setattr(dsp, "_SPECTRAL_SPAN", 2 * dsp.PITCH_FRAME_LENGTH)
        wav = short_track_clip(tmp_path, frames)
        use_cpus(monkeypatch, 1)
        code, expected, err = invoke(capsys, "features", wav)
        assert (code, err) == (0, "")
        assert len(json.loads(expected)["pitch"]) == frames
        use_cpus(monkeypatch, 2)
        n_blocks, claims = (frames + 1) // 2, cli._claims
        for meet in range(n_blocks + 1):
            parent_blocks = []
            monkeypatch.setattr(cli, "_claims", meeting_at(meet, claims, parent_blocks))
            forks = spy_forks(monkeypatch)
            assert invoke(capsys, "features", wav) == (0, expected, "")
            assert parent_blocks == list(range(n_blocks - 1, meet - 1, -1))
            assert len(forks) == 1 and all(map(reaped, forks))

    @pytest.mark.parametrize("block", [0, 2, 5])  # the child's first, a middle and the last
    def test_a_child_killed_in_its_share_fails_the_command(self, tmp_path, capsys, monkeypatch,
                                                           block):
        monkeypatch.setattr(dsp, "_SPECTRAL_SPAN", 2 * dsp.PITCH_FRAME_LENGTH)
        wav = short_track_clip(tmp_path, 11)  # 6 blocks
        parent, pitch_block, started = os.getpid(), dsp._pitch_block, []

        def dying(*args):
            if os.getpid() != parent:
                started.append(1)
                if len(started) == block + 1:
                    os.kill(os.getpid(), signal.SIGKILL)
            return pitch_block(*args)

        monkeypatch.setattr(dsp, "_pitch_block", dying)
        # the command takes no block below the one the child dies in
        monkeypatch.setattr(cli, "_claims", meeting_at(block + 1, cli._claims, []))
        use_cpus(monkeypatch, 2)
        forks = spy_forks(monkeypatch)
        code, stdout, stderr, written = features_document(capsys, tmp_path, [wav], True)
        assert (code, stdout, written) == (1, "", None)
        assert json.loads(stderr)["error"] == {"type": "ChildProcessError",
                                               "message": "forked child killed by SIGKILL"}
        assert len(forks) == 1 and reaped(forks[0])

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    def test_an_error_in_the_track_keeps_its_type_and_message(self, tmp_path, capsys,
                                                              monkeypatch, cpus, out):
        wav = write_tone(tmp_path / "a.wav")
        parent, track = os.getpid(), dsp._pitch_blocks

        # with two CPUs only the forked child fails, so its pickled error is
        # what reaches the command; with one the inline call fails
        def failing(w, *args, **kwargs):
            # not the flag check on one sample
            if len(w.mono_samples()) > 1 and (cpus == 1 or os.getpid() != parent):
                raise TrackError(f"no pitch in {len(w.mono_samples())} samples")
            return track(w, *args, **kwargs)

        monkeypatch.setattr(dsp, "_pitch_blocks", failing)
        use_cpus(monkeypatch, cpus)
        forks = spy_forks(monkeypatch)
        code, stdout, stderr, written = features_document(capsys, tmp_path, [wav], out)
        assert (code, stdout, written) == (1, "", None)
        assert json.loads(stderr)["error"] == {"type": "TrackError",
                                               "message": f"no pitch in {int(0.3 * SR)} samples"}
        assert len(forks) == cpus - 1 and all(map(reaped, forks))

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    def test_a_track_killed_mid_clip_fails_the_command(self, tmp_path, capsys, monkeypatch,
                                                       out):
        wav = str(tmp_path / "long.wav")
        write_pcm16_wav(wav, [make_tone(220.0, 5.0, SR)], SR)  # four pitch blocks
        parent, block, blocks = os.getpid(), dsp._pitch_block, []

        def dying(*args):
            blocks.append(1)
            if os.getpid() != parent and len(blocks) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            return block(*args)

        monkeypatch.setattr(dsp, "_pitch_block", dying)
        use_cpus(monkeypatch, 2)
        forks = spy_forks(monkeypatch)
        code, stdout, stderr, written = features_document(capsys, tmp_path, [wav], out)
        assert (code, stdout, written) == (1, "", None)
        assert json.loads(stderr)["error"] == {"type": "ChildProcessError",
                                               "message": "forked child killed by SIGKILL"}
        assert len(forks) == 1 and reaped(forks[0])

    # the spectra fail in the command, or the mfcc rows, rendered before
    # "pitch", hold a value JSON cannot encode
    @pytest.mark.parametrize("stage,error", [
        ("_mel_rows", {"type": "RuntimeError", "message": "spectra failed"}),
        ("mfcc", {"type": "TypeError",
                  "message": "Object of type object is not JSON serializable"}),
    ])
    def test_a_failure_beside_the_track_kills_and_reaps_it(self, tmp_path, capsys,
                                                           monkeypatch, stage, error):
        wav = write_tone(tmp_path / "a.wav")
        parent, track, mel_rows = os.getpid(), dsp._pitch_blocks, dsp._mel_rows

        def stalled(*args, **kwargs):
            if os.getpid() != parent:
                time.sleep(60)
            return track(*args, **kwargs)

        def failing_mel_rows(w, *args, **kwargs):
            if len(w.mono_samples()) > 1:  # not the flag check on one sample
                raise RuntimeError("spectra failed")
            return mel_rows(w, *args, **kwargs)

        def unrenderable_mfcc(m, n_coeffs):
            return dsp.MfccSequence(np.full((len(m.frames), 1), object()), m.frame_rate)

        monkeypatch.setattr(dsp, "_pitch_blocks", stalled)
        monkeypatch.setattr(dsp, stage, {"_mel_rows": failing_mel_rows,
                                         "mfcc": unrenderable_mfcc}[stage])
        use_cpus(monkeypatch, 2)
        forks = spy_forks(monkeypatch)
        start = time.perf_counter()
        code, out, err = invoke(capsys, "features", wav)
        assert time.perf_counter() - start < 30  # the stalled child was not waited out
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == error
        assert len(forks) == 1 and reaped(forks[0])


# a command on two CPUs whose forked children each write their pid to a file
# and stall: the pitch track of `features`, the first pair of each `batch` part
STALLED_CHILDREN = """\
import os, sys, time
from dubkit import cli, dsp, metrics
os.sched_getaffinity = lambda pid: {0, 1}
parent, pids = os.getpid(), sys.argv[1]

def stalled(fn):
    def stalling(*args, **kwargs):
        if os.getpid() != parent:
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\\n")
            time.sleep(60)
        return fn(*args, **kwargs)
    return stalling

dsp._pitch_blocks = stalled(dsp._pitch_blocks)
metrics._prepare_pair = stalled(metrics._prepare_pair)
cli.run(sys.argv[2:])
"""


def exited(pid):
    """True once ``pid``, a process this one did not start, has exited: it
    is gone, or a zombie its new parent has not reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def wait_until(condition, seconds):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.02)
    return condition()


@pytest.mark.parametrize("command,children", [("features", 1), ("batch", 2)])
def test_a_command_killed_by_a_signal_takes_its_children_with_it(tmp_path, command, children):
    wav = write_tone(tmp_path / "a.wav")
    argv = {"features": [wav],
            "batch": [jsonl(tmp_path / "pairs.jsonl", [
                {"id": f"p{k}", "generated": wav, "reference": wav} for k in range(2)])]}
    pid_file = tmp_path / "pids"
    env = dict(os.environ, PYTHONPATH=str(Path(dubkit.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", STALLED_CHILDREN, str(pid_file), command,
                             *argv[command]], env=env, stdout=subprocess.DEVNULL)
    pids = []
    try:
        assert wait_until(lambda: pid_file.exists()
                          and len(pid_file.read_text().split()) == children, 60)
        pids = list(map(int, pid_file.read_text().split()))
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == -signal.SIGTERM
        assert wait_until(lambda: all(map(exited, pids)), 5)
    finally:
        proc.kill()
        proc.wait()
        for pid in pids:
            if not exited(pid):
                os.kill(pid, signal.SIGKILL)


class TestBatchCommand:
    def make_manifest(self, tmp_path, n=3):
        rows = []
        for i in range(n):
            gen = write_tone(tmp_path / f"g{i}.wav", 300 + 10 * i)
            ref = write_tone(tmp_path / f"r{i}.wav", 305 + 10 * i, duration=0.33)
            rows.append({"id": f"p{i}", "generated": gen, "reference": ref})
        return jsonl(tmp_path / "pairs.jsonl", rows)

    def test_rows_in_manifest_order(self, tmp_path, capsys):
        manifest = self.make_manifest(tmp_path)
        code, out, _ = invoke(capsys, "batch", manifest)
        assert code == 0
        payload = json.loads(out)
        assert [row["id"] for row in payload["rows"]] == ["p0", "p1", "p2"]
        assert payload["aggregate"]["n_pairs"] == 3

    def test_config_echoes_pipeline_and_manifest_only(self, tmp_path, capsys):
        manifest = self.make_manifest(tmp_path, n=1)
        _, out, _ = invoke(capsys, "batch", manifest, "--k", "20", "--scale", "conventional")
        expected = PipelineConfig(n_coeffs=20, scale="conventional").to_dict()
        assert json.loads(out)["config"] == {**expected, "manifest": manifest}

    def test_jobs_flag_is_a_usage_error(self, tmp_path):
        manifest = self.make_manifest(tmp_path, n=1)
        with pytest.raises(SystemExit) as excinfo:
            run(["batch", manifest, "--jobs", "2"])
        assert excinfo.value.code == 2

    def test_unresamplable_rate_is_a_failure_row(self, tmp_path, capsys):
        odd = write_odd_rate_wav(tmp_path / "odd.wav")
        good = write_tone(tmp_path / "good.wav")
        manifest = jsonl(tmp_path / "pairs.jsonl", [
            {"id": "good", "generated": good, "reference": good},
            {"id": "odd", "generated": odd, "reference": good}])
        code, out, _ = invoke(capsys, "batch", manifest)
        assert code == 0
        payload = json.loads(out)
        assert [row["id"] for row in payload["rows"]] == ["good"]
        [failure] = payload["failures"]
        assert failure["id"] == "odd"
        assert failure["error"].startswith("ValueError: cannot resample 767999 Hz to 22050 Hz")

    def test_a_wav_with_no_samples_is_a_failure_row(self, tmp_path, capsys):
        empty = str(tmp_path / "empty.wav")
        write_pcm16_wav(empty, [np.zeros(0)], SR)
        good = write_tone(tmp_path / "good.wav")
        manifest = jsonl(tmp_path / "pairs.jsonl", [
            {"id": "good", "generated": good, "reference": good},
            {"id": "empty", "generated": good, "reference": empty}])
        code, out, _ = invoke(capsys, "batch", manifest)
        assert code == 0
        payload = json.loads(out)
        assert [row["id"] for row in payload["rows"]] == ["good"]
        assert payload["failures"] == [{"id": "empty",
                                        "error": "ValueError: cannot analyze an empty waveform"}]

    def test_report_field_names(self, tmp_path, capsys):
        manifest = self.make_manifest(tmp_path, n=1)
        _, out, _ = invoke(capsys, "batch", manifest)
        row = json.loads(out)["rows"][0]
        assert {"mcd", "mcd_dtw", "mcd_dtw_sl"} <= set(row)

    def test_non_object_row_is_a_located_error(self, tmp_path, capsys):
        manifest = tmp_path / "pairs.jsonl"
        manifest.write_text("5\n")
        code, out, err = invoke(capsys, "batch", str(manifest))
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith(f"{manifest}:1: ")

    def test_non_utf8_row_is_a_located_error(self, tmp_path, capsys):
        wav = write_tone(tmp_path / "a.wav")
        row = json.dumps({"id": "p", "generated": wav, "reference": wav}).encode()
        manifest = tmp_path / "pairs.jsonl"
        manifest.write_bytes(row + b"\n" + row.replace(b'"p"', b'"\xff"') + b"\n")
        code, out, err = invoke(capsys, "batch", str(manifest))
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith(f"{manifest}:2: ")


class TestAccuracyCommand:
    def test_matches_oracle_on_three_clusters(self, tmp_path, capsys):
        rng = np.random.default_rng(99)
        directions = np.eye(3) + 0.01
        train_rows, test_rows = [], []
        for i in range(30):
            label = i % 3
            vec = directions[label] + 0.15 * rng.normal(size=3)
            train_rows.append({"label": f"c{label}", "id": f"tr{i}",
                               "vector": vec.tolist()})
        for i in range(12):
            label = i % 3
            vec = directions[label] + 0.15 * rng.normal(size=3)
            test_rows.append({"label": f"c{label}", "id": f"te{i}",
                              "vector": vec.tolist()})
        train = jsonl(tmp_path / "train.jsonl", train_rows)
        test = jsonl(tmp_path / "test.jsonl", test_rows)
        code, out, _ = invoke(capsys, "accuracy", "--train", train, "--test", test,
                              "--label-key", "emotion")
        assert code == 0
        payload = json.loads(out)
        expected = brute_force_accuracy(
            [(r["label"], r["vector"]) for r in train_rows],
            [(r["label"], r["vector"]) for r in test_rows])
        assert payload["accuracy_percent"] == expected
        assert payload["label_key"] == "emotion"
        assert payload["n_train"] == 30
        assert payload["n_test"] == 12

    def test_bad_test_file_is_named(self, tmp_path, capsys):
        train = jsonl(tmp_path / "train.jsonl",
                      [{"label": "a", "id": "1", "vector": [1.0, 0.0]}])
        test = jsonl(tmp_path / "test.jsonl",
                     [{"label": "a", "id": "2", "vector": [1.0, 0.0]},
                      {"label": "a", "id": "3", "vector": [1.0, 0.0, 0.0]}])
        code, out, err = invoke(capsys, "accuracy", "--train", train, "--test", test)
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "EmbeddingFormatError"
        assert error["message"].startswith(f"{test}:2: dimension 3")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_train_is_loaded_beside_test_and_its_error_comes_first(self, tmp_path, capsys,
                                                                   monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        forks = spy_forks(monkeypatch)
        good = jsonl(tmp_path / "good.jsonl", [{"label": "a", "id": "1", "vector": [1.0]}])
        bad_train, bad_test = (jsonl(tmp_path / name, [{"label": "a", "id": "1", "vector": [0.0]}])
                               for name in ("bad_train.jsonl", "bad_test.jsonl"))
        code, out, _ = invoke(capsys, "accuracy", "--train", good, "--test", good)
        assert (code, json.loads(out)["accuracy_percent"]) == (0, 100.0)
        for train, test, named in [(bad_train, bad_test, bad_train), (good, bad_test, bad_test),
                                   (bad_train, good, bad_train)]:
            code, out, err = invoke(capsys, "accuracy", "--train", train, "--test", test)
            assert (code, out) == (1, "")
            assert json.loads(err)["error"] == {"type": "EmbeddingFormatError",
                                                "message": f"{named}:1: zero vector"}
        assert len(forks) == (4 if cpus == 2 else 0) and all(map(reaped, forks))


class TestMosCommand:
    def test_csv_ratings(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        documents = []
        # a spreadsheet's "CSV UTF-8" export: byte order mark and CRLF lines
        for data in (b"3.0\n4.0\n5.0\n", b"\xef\xbb\xbf3.0\r\n4.0\r\n5.0\r\n"):
            path.write_bytes(data)
            code, out, _ = invoke(capsys, "mos", str(path))
            assert code == 0
            payload = json.loads(out)
            assert list(payload) == ["config", "mean", "half_width", "n", "std", "rendered"]
            assert payload["mean"] == 4.0
            assert payload["rendered"] == "4.00 ± 1.13"
            documents.append(out)
        assert documents[1] == documents[0]

    def test_off_grid_rating_fails(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("3.3\n")
        code, _, err = invoke(capsys, "mos", str(path))
        assert code == 1
        assert "3.3" in json.loads(err)["error"]["message"]

    def test_rating_off_the_scale_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("3.0\n7\n")
        code, out, err = invoke(capsys, "mos", str(path))
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error == {"type": "RatingError",
                         "message": f"{path}:2: rating 7.0 is not on the 1..5 half-point scale"}


SRT_TEXT = """1
00:00:01,000 --> 00:00:02,500
Hello there

2
00:00:03,000 --> 00:00:04,250
General Kenobi
"""

# a byte order mark, CRLF line ends, a cue on two lines and a skipped number
SRT_BYTES = (b"\xef\xbb\xbf1\r\n00:00:01,000 --> 00:00:02,500\r\nHello there,\r\n"
             b"  old friend \r\n\r\n12\r\n00:01:03,040 --> 00:01:04,255\r\n"
             b"General Kenobi\r\n")
SRT_DOCUMENTS = {
    "parse": (
        '{"config": {"srt": "s.srt"}, "n_entries": 2, "entries": [{"index": 1,'
        ' "start_ms": 1000, "end_ms": 2500, "text": "Hello there, old friend"},'
        ' {"index": 12, "start_ms": 63040, "end_ms": 64255, "text": "General Kenobi"}]}\n'
    ),
    "plan-no-dir": (
        '{"config": {"srt": "s.srt", "movie": "frozen.mkv", "out_dir": "",'
        ' "audio_mode": "center-channel", "emit_commands": true}, "movie_id": "frozen",'
        ' "movie_path": "frozen.mkv", "out_dir": "", "audio_mode": "center-channel",'
        ' "jobs": [{"movie_id": "frozen", "index": 1, "start_s": 1.0, "end_s": 2.5,'
        ' "audio_mode": "center-channel", "out_audio": "frozen_00001.wav",'
        ' "out_video": "frozen_00001.mp4"}, {"movie_id": "frozen", "index": 12,'
        ' "start_s": 63.04, "end_s": 64.255, "audio_mode": "center-channel",'
        ' "out_audio": "frozen_00012.wav", "out_video": "frozen_00012.mp4"}],'
        ' "commands": [["ffmpeg", "-y", "-i", "frozen.mkv", "-ss", "1.000", "-to",'
        ' "2.500", "-c:v", "copy", "-an", "frozen_00001.mp4"], ["ffmpeg", "-y", "-i",'
        ' "frozen.mkv", "-ss", "1.000", "-to", "2.500", "-map", "0:a:0", "-af",'
        ' "pan=mono|c0=FC", "frozen_00001.wav"], ["ffmpeg", "-y", "-i", "frozen.mkv",'
        ' "-ss", "63.040", "-to", "64.255", "-c:v", "copy", "-an", "frozen_00012.mp4"],'
        ' ["ffmpeg", "-y", "-i", "frozen.mkv", "-ss", "63.040", "-to", "64.255", "-map",'
        ' "0:a:0", "-af", "pan=mono|c0=FC", "frozen_00012.wav"]]}\n'
    ),
    "plan-double-slash": (
        '{"config": {"srt": "s.srt", "movie": "frozen.mkv", "out_dir": "a//b/",'
        ' "audio_mode": "center-channel", "emit_commands": true}, "movie_id": "frozen",'
        ' "movie_path": "frozen.mkv", "out_dir": "a//b/",'
        ' "audio_mode": "center-channel", "jobs": [{"movie_id": "frozen", "index": 1,'
        ' "start_s": 1.0, "end_s": 2.5, "audio_mode": "center-channel",'
        ' "out_audio": "a/b/frozen_00001.wav", "out_video": "a/b/frozen_00001.mp4"},'
        ' {"movie_id": "frozen", "index": 12, "start_s": 63.04, "end_s": 64.255,'
        ' "audio_mode": "center-channel", "out_audio": "a/b/frozen_00012.wav",'
        ' "out_video": "a/b/frozen_00012.mp4"}], "commands": [["ffmpeg", "-y", "-i",'
        ' "frozen.mkv", "-ss", "1.000", "-to", "2.500", "-c:v", "copy", "-an",'
        ' "a/b/frozen_00001.mp4"], ["ffmpeg", "-y", "-i", "frozen.mkv", "-ss", "1.000",'
        ' "-to", "2.500", "-map", "0:a:0", "-af", "pan=mono|c0=FC",'
        ' "a/b/frozen_00001.wav"], ["ffmpeg", "-y", "-i", "frozen.mkv", "-ss", "63.040",'
        ' "-to", "64.255", "-c:v", "copy", "-an", "a/b/frozen_00012.mp4"], ["ffmpeg",'
        ' "-y", "-i", "frozen.mkv", "-ss", "63.040", "-to", "64.255", "-map", "0:a:0",'
        ' "-af", "pan=mono|c0=FC", "a/b/frozen_00012.wav"]]}\n'
    ),
}


class TestSrtCommands:
    @pytest.mark.parametrize("document,argv", [
        ("parse", ["parse", "s.srt"]),
        ("plan-no-dir", ["plan", "s.srt", "--movie", "frozen.mkv", "--out-dir", "",
                         "--emit-commands"]),
        ("plan-double-slash", ["plan", "s.srt", "--movie", "frozen.mkv",
                               "--out-dir", "a//b/", "--emit-commands"]),
    ], ids=["parse", "plan-no-dir", "plan-double-slash"])
    def test_documents_are_pinned(self, tmp_path, capsys, monkeypatch, document, argv):
        monkeypatch.chdir(tmp_path)
        Path("s.srt").write_bytes(SRT_BYTES)
        assert invoke(capsys, "srt", *argv) == (0, SRT_DOCUMENTS[document], "")

    def test_parse(self, tmp_path, capsys):
        path = tmp_path / "s.srt"
        path.write_text(SRT_TEXT)
        code, out, _ = invoke(capsys, "srt", "parse", str(path))
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["config", "n_entries", "entries"]
        assert list(payload["entries"][0]) == ["index", "start_ms", "end_ms", "text"]
        assert payload["n_entries"] == 2
        assert payload["entries"][0]["start_ms"] == 1000

    def test_plan(self, tmp_path, capsys):
        path = tmp_path / "s.srt"
        path.write_text(SRT_TEXT)
        code, out, _ = invoke(capsys, "srt", "plan", str(path),
                              "--movie", "frozen.mkv", "--emit-commands")
        assert code == 0
        payload = json.loads(out)
        plan_keys = ["config", "movie_id", "movie_path", "out_dir", "audio_mode", "jobs"]
        assert list(payload) == plan_keys + ["commands"]
        assert list(payload["jobs"][0]) == ["movie_id", "index", "start_s", "end_s",
                                            "audio_mode", "out_audio", "out_video"]
        assert payload["movie_id"] == "frozen"
        assert len(payload["jobs"]) == 2
        assert payload["jobs"][0]["start_s"] == 1.0
        assert len(payload["commands"]) == 4
        code, out, _ = invoke(capsys, "srt", "plan", str(path), "--movie", "frozen.mkv")
        assert code == 0
        without = json.loads(out)
        assert list(without) == plan_keys
        assert without["jobs"] == payload["jobs"]

    @pytest.mark.parametrize("movie_id", ["a/../b", ""])
    def test_plan_bad_movie_id_exit_two(self, tmp_path, capsys, movie_id):
        path = tmp_path / "s.srt"
        path.write_text(SRT_TEXT)
        code, out, err = invoke(capsys, "srt", "plan", str(path), "--movie", "m.mkv",
                                "--movie-id", movie_id)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "usage"
        assert error["message"].startswith(f"movie id {movie_id!r} cannot name clip files")

    def test_plan_movie_id_names_clips(self, tmp_path, capsys):
        path = tmp_path / "s.srt"
        path.write_text(SRT_TEXT)
        code, out, _ = invoke(capsys, "srt", "plan", str(path), "--movie", "m.mkv",
                              "--movie-id", "frozen.2013", "--out-dir", "clips")
        assert code == 0
        jobs = json.loads(out)["jobs"]
        assert [job["out_audio"] for job in jobs] == ["clips/frozen.2013_00001.wav",
                                                      "clips/frozen.2013_00002.wav"]

    @pytest.mark.parametrize("out_dir", ["", ".", "./", "clips/", "a//b/", "/", "//", "///"])
    def test_plan_paths_are_those_of_pathlib(self, tmp_path, capsys, out_dir):
        path = tmp_path / "s.srt"
        path.write_text(SRT_TEXT)
        code, out, _ = invoke(capsys, "srt", "plan", str(path), "--movie", "m.mkv",
                              "--out-dir", out_dir, "--emit-commands")
        assert code == 0
        payload = json.loads(out)
        expected = [str(Path(out_dir) / f"m_{cue:05d}.{ext}")
                    for cue in (1, 2) for ext in ("mp4", "wav")]
        assert [job[key] for job in payload["jobs"]
                for key in ("out_video", "out_audio")] == expected
        assert [command[-1] for command in payload["commands"]] == expected
        assert payload["out_dir"] == out_dir

    def test_unwritable_out_exit_one(self, tmp_path, capsys):
        path = tmp_path / "s.srt"
        path.write_text(SRT_TEXT)
        target = tmp_path / "missing" / "x.json"
        code, out, err = invoke(capsys, "srt", "parse", str(path), "--out", str(target))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"
        assert not target.exists()

    def test_parse_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.srt"
        path.write_text("1\n00:00:02,000 --> 00:00:01,000\nbackwards\n")
        code, _, err = invoke(capsys, "srt", "parse", str(path))
        assert code == 1
        assert "entry 1" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("command", [["parse"], ["plan", "--movie", "m.mkv"]])
    def test_invalid_utf8_exit_one(self, tmp_path, capsys, command):
        path = tmp_path / "bad.srt"
        path.write_bytes(b"1\r\n00:00:01,000 --> 00:00:02,500\r\nHello \xff there\r\n")
        code, out, err = invoke(capsys, "srt", command[0], str(path), *command[1:])
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error["type"] == "SrtParseError"
        assert error["message"] == f"{path}:3: invalid UTF-8 byte 0xff (invalid start byte)"

    def test_plan_overlong_hours_exit_one(self, tmp_path, capsys):
        path = tmp_path / "big.srt"
        path.write_text("1\n" + "9" * 400 + ":00:01,000 --> " + "9" * 400 + ":00:02,000\nhi\n")
        code, out, err = invoke(capsys, "srt", "plan", str(path), "--movie", "m.mkv")
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error["type"] == "SrtParseError"
        assert error["message"] == "entry 1 (line 2): timestamp field too long"


class TestSplitCommand:
    def write_manifest(self, tmp_path, n=10):
        return jsonl(tmp_path / "m.jsonl", manifest_rows(n))

    def test_runs_twice_identically(self, tmp_path, capsys):
        manifest = self.write_manifest(tmp_path)
        args = ("split", manifest, "--ratios", "0.6,0.1,0.3", "--seed", "7")
        code1, out1, _ = invoke(capsys, *args)
        code2, out2, _ = invoke(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert list(payload) == ["config", "train", "val", "test", "seed", "sizes"]
        assert payload["sizes"] == {"train": 6, "val": 1, "test": 3}

    def test_seed_required(self, tmp_path, capsys):
        manifest = self.write_manifest(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            run(["split", manifest])
        assert excinfo.value.code == 2

    def test_bad_ratios_exit_two(self, tmp_path, capsys):
        manifest = self.write_manifest(tmp_path)
        code, _, err = invoke(capsys, "split", manifest, "--ratios", "1,2",
                              "--seed", "1")
        assert code == 2
        # NaN fails both ratio checks instead of reaching the size arithmetic
        code, _, err = invoke(capsys, "split", manifest, "--ratios", "nan,0.5,0.5",
                              "--seed", "1")
        assert code == 2
        assert json.loads(err)["error"] == {
            "type": "usage",
            "message": "ratios must be three positive numbers, got (nan, 0.5, 0.5)"}
        code, _, err = invoke(capsys, "split", manifest, "--ratios", "a,b,c", "--seed", "1")
        assert code == 2
        assert json.loads(err)["error"] == {
            "type": "usage", "message": "--ratios values must be numbers, got 'a,b,c'"}
        # the ratios are added left to right on every Python (3.12's sum()
        # would report 0.6)
        code, _, err = invoke(capsys, "split", manifest, "--ratios", "0.1,0.2,0.3",
                              "--seed", "1")
        assert code == 2
        assert json.loads(err)["error"] == {
            "type": "usage", "message": "ratios must sum to 1, got 0.6000000000000001"}

    def test_data_errors_exit_one(self, tmp_path, capsys):
        duplicate = jsonl(tmp_path / "dup.jsonl", manifest_rows(3) + manifest_rows(1))
        code, out, err = invoke(capsys, "split", duplicate, "--seed", "1")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == {
            "type": "ValueError",
            "message": "duplicate clip id 'm_00001'; cannot partition"}
        short = jsonl(tmp_path / "short.jsonl", manifest_rows(2))
        code, out, err = invoke(capsys, "split", short, "--seed", "1")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["type"] == "ValueError"


class TestStatsCommand:
    def test_stats_payload(self, tmp_path, capsys):
        path = jsonl(tmp_path / "m.jsonl", [
            {"movie_id": "m", "clip_index": 1, "speaker": "a", "emotion": "happy",
             "text": "go go go", "start_ms": 0, "end_ms": 2000},
            {"movie_id": "m", "clip_index": 2, "speaker": "b", "emotion": "sad",
             "text": "stop", "start_ms": 0, "end_ms": 4000}])
        code, out, _ = invoke(capsys, "stats", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["n_clips"] == 2
        assert payload["avg_subtitle_words"] == 2.0
        assert payload["avg_duration_s"] == 3.0
        assert payload["word_counts"][0] == ["go", 3]
        assert payload["emotion_counts"]["happy"] == 1
        # stats reads no audio: the pitch keys are always null, and last
        assert list(payload) == ["config", "n_movies", "n_clips", "n_speakers",
                                 "avg_subtitle_words", "avg_duration_s",
                                 "emotion_counts", "word_counts",
                                 "utterance_length_histogram", "pitch_mean_hz",
                                 "pitch_variance"]
        assert payload["pitch_mean_hz"] is None
        assert payload["pitch_variance"] is None

    def test_negative_top_words_exit_two(self, tmp_path, capsys):
        path = jsonl(tmp_path / "m.jsonl",
                     manifest_rows(1, text="one two three four five six seven"))
        code, out, _ = invoke(capsys, "stats", path, "--top-words", "3")
        assert code == 0
        assert len(json.loads(out)["word_counts"]) == 3
        code, out, err = invoke(capsys, "stats", path, "--top-words", "-3")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "usage"


# a "|" marks the end of a line whose table cells are padded with trailing spaces
PRETTY_TABLES = {
    "batch": """\
config:
  sample_rate: 22050
  fft_size: 1024
  hop: 256
  win_length: 1024
  n_mels: 80
  fmin: 0.0000
  fmax: 8000.0000
  n_coeffs: 13
  scale: plain
  pad_mode: pad
  manifest: pairs.jsonl
rows:
  id    mcd      mcd_dtw  mcd_dtw_sl  eta     m_frames  n_frames
  same  0.0000   0.0000   0.0000      1.0000  26        26      |
  near  23.2804  21.7275  24.2345     1.1154  26        29      |
aggregate:
  mcd: 11.6402
  mcd_dtw: 10.8638
  mcd_dtw_sl: 12.1173
  n_pairs: 2
  n_failures: 1
failures:
  id   error""" + " " * 103 + """|
  odd  ValueError: cannot resample 767999 Hz to 22050 Hz: the rate ratio 22050/767999 \
exceeds the factor limit 8192
""",
    "srt-parse": """\
config:
  srt: s.srt
n_entries: 2
entries:
  index  start_ms  end_ms  text          |
  1      1000      2500    Hello there   |
  2      3000      4250    General Kenobi
""",
    "srt-plan": """\
config:
  srt: s.srt
  movie: frozen.mkv
  out_dir: clips
  audio_mode: center-channel
  emit_commands: True
movie_id: frozen
movie_path: frozen.mkv
out_dir: clips
audio_mode: center-channel
jobs:
  movie_id  index  start_s  end_s   audio_mode      out_audio               out_video             |
  frozen    1      1.0000   2.5000  center-channel  clips/frozen_00001.wav  clips/frozen_00001.mp4
  frozen    2      3.0000   4.2500  center-channel  clips/frozen_00002.wav  clips/frozen_00002.mp4
commands: [[12 values], [13 values], [12 values], [13 values]]
""",
}


class TestCliShell:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["frobnicate"])
        assert excinfo.value.code == 2

    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            run([])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv,has_defaults", [
        (["features", "--help"], True),
        (["mcd", "--help"], True),
        (["batch", "--help"], True),
        (["accuracy", "--help"], True),
        (["mos", "--help"], False),
        (["srt", "parse", "--help"], False),
        (["srt", "plan", "--help"], True),
        (["split", "--help"], True),
        (["stats", "--help"], True),
    ])
    def test_help_lists_flags_with_defaults(self, argv, has_defaults, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--out" in out
        assert "--pretty" in out
        if has_defaults:
            assert "default" in out

    def test_every_subcommand_documented_in_top_help(self, capsys):
        with pytest.raises(SystemExit):
            run(["--help"])
        out = capsys.readouterr().out
        for name in ("features", "mcd", "batch", "accuracy", "mos", "srt",
                     "split", "stats"):
            assert name in out

    def test_pretty_renders_text_not_json(self, tmp_path, capsys):
        wav = write_tone(tmp_path / "a.wav")
        code, out, _ = invoke(capsys, "mcd", wav, wav, "--pretty")
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        assert "mcd" in out

    @pytest.mark.parametrize("view,argv", [
        ("batch", ["batch", "pairs.jsonl"]),
        ("srt-parse", ["srt", "parse", "s.srt"]),
        ("srt-plan", ["srt", "plan", "s.srt", "--movie", "frozen.mkv", "--emit-commands"]),
    ], ids=["batch", "srt-parse", "srt-plan"])
    def test_pretty_tables_are_pinned(self, tmp_path, capsys, monkeypatch, view, argv):
        # a list of objects renders as a table: a header of the first object's
        # keys, then one line per object, each column padded to its widest cell
        monkeypatch.chdir(tmp_path)
        write_tone(Path("a.wav"))
        write_tone(Path("b.wav"), 330.0, duration=0.33)
        write_odd_rate_wav(Path("odd.wav"))
        jsonl("pairs.jsonl", [{"id": "same", "generated": "a.wav", "reference": "a.wav"},
                              {"id": "odd", "generated": "odd.wav", "reference": "a.wav"},
                              {"id": "near", "generated": "a.wav", "reference": "b.wav"}])
        Path("s.srt").write_text(SRT_TEXT)
        code, out, _ = invoke(capsys, *argv, "--pretty")
        assert code == 0
        assert out == PRETTY_TABLES[view].replace("|\n", "\n")

    def test_parser_builds(self):
        assert build_parser().prog == "dubkit"

    def test_readme_examples_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [line for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("dubkit ")]
        assert len(commands) >= 10
        parser = build_parser()
        for command in commands:
            parser.parse_args(shlex.split(command)[1:])


def emit_payloads():
    nested = {"config": {"path": 'a "quoted"\\path\n\tünïcødé ✓', "ratios": [0.6, 0.1],
                         "flags": [True, False, None]},
              "rows": [{"id": "x", "values": [1, 2.5, -0.0]}, {}], "empty": {},
              "floats": [float("nan"), float("inf"), -float("inf"), 1e-310, 5e-324]}
    rng = np.random.default_rng(3)
    arrays = {"n_frames": 3, "frame_rate": 86.1328125,
              "mel": rng.standard_normal((3, 5)),
              "mfcc": rng.standard_normal((3, 8))[:, 1:4],  # a strided column slice
              "special": np.array([[np.nan, np.inf], [-np.inf, -0.0]]),
              "none_by_k": np.empty((0, 4)), "one_by_k": rng.standard_normal((1, 4)),
              "k_by_none": np.empty((3, 0)), "empty": np.empty(0),
              "pitch": np.array([0.0, 440.25, 1e300]), "ints": np.arange(3),
              # the float edge cases of the renderer (dubkit._render), as a
              # 1-D array, as rows and as strided slices of both
              "edges": FLOAT_EDGES, "edge_rows": FLOAT_EDGES.reshape(4, 5),
              "edge_columns": FLOAT_EDGES.reshape(4, 5)[::2, 1::2],
              "edge_stride": FLOAT_EDGES[::3]}
    return [{}, nested, arrays, {**nested, **arrays}]


FLOAT_EDGES = np.array([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16,
                        9999999999999998.0, 1e-4, 9.999999999999999e-05, 2.0**53, 1e22, 0.1,
                        0.0, -0.0, 123.0, np.nan, np.inf, -np.inf, -5e-324, -1e22, 1e-5, 0.5])


@pytest.mark.parametrize("payload", emit_payloads(), ids=["empty", "nested", "arrays", "both"])
def test_emit_equals_json_dumps(tmp_path, capsys, payload):
    expected = json.dumps({key: value.tolist() if isinstance(value, np.ndarray) else value
                           for key, value in payload.items()}) + "\n"
    _emit(payload, argparse.Namespace(pretty=False, out=None))
    assert capsys.readouterr().out == expected
    target = tmp_path / "doc.json"
    _emit(payload, argparse.Namespace(pretty=False, out=str(target)))
    assert target.read_bytes() == expected.encode("utf-8")


def spill_files(spill_dir):
    """The files this process holds open in ``spill_dir``, unlinked or not."""
    links = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            links.append(os.readlink(f"/proc/self/fd/{fd}"))
        except FileNotFoundError:  # the listing's own descriptor, closed since
            pass
    return [link for link in links if link.startswith(f"{spill_dir}/")]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/fd")
@pytest.mark.parametrize("target", ["stdout", "new-out", "existing-out"])
@pytest.mark.parametrize("case", ["child-killed-in-mel", "unencodable-mfcc", "success"])
def test_the_document_is_spilled_then_published_whole(tmp_path, capsys, monkeypatch, case,
                                                       target):
    # _emit renders into an unlinked file in the temporary directory; only a
    # whole document reaches stdout or --out, and nothing is left behind
    import tempfile

    from dubkit import _render

    wav = write_tone(tmp_path / "a.wav")
    use_cpus(monkeypatch, 2)
    code, expected, err = invoke(capsys, "features", wav)
    assert (code, err) == (0, "")
    spill_dir = tmp_path / "tmp"
    spill_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spill_dir))
    out = tmp_path / "doc.json"
    if target == "existing-out":
        out.write_bytes(b"the last document\n")
    parent, track, float_pieces = os.getpid(), dsp._pitch_blocks, _render.float_pieces
    forks, spilled = spy_forks(monkeypatch), []

    def stalled(*args, **kwargs):
        if case != "success" and os.getpid() != parent:
            time.sleep(60)
        return track(*args, **kwargs)

    def rendering(a):  # mel, the first float array, then mfcc's rows are rendered
        spilled.append(spill_files(spill_dir))
        if case == "child-killed-in-mel" and len(spilled) == 1:
            os.kill(forks[0], signal.SIGKILL)
        return float_pieces(a)

    def unrenderable_mfcc(m, n_coeffs):
        return dsp.MfccSequence(np.full((len(m.frames), 1), object()), m.frame_rate)

    monkeypatch.setattr(dsp, "_pitch_blocks", stalled)
    monkeypatch.setattr(_render, "float_pieces", rendering)
    if case == "unencodable-mfcc":
        monkeypatch.setattr(dsp, "mfcc", unrenderable_mfcc)
    code, stdout, stderr = invoke(capsys, "features", wav,
                                  *([] if target == "stdout" else ["--out", str(out)]))
    assert len(spilled[0]) == 1 and spilled[0][0].endswith("(deleted)")
    assert os.listdir(spill_dir) == []
    assert len(forks) == 1 and reaped(forks[0])
    if case == "success":
        assert (code, stderr) == (0, "")
        assert stdout == (expected if target == "stdout" else "")
        assert (out.read_text() if target != "stdout" else stdout) == expected
        return
    assert (code, stdout) == (1, "")
    assert json.loads(stderr)["error"] == {
        "child-killed-in-mel": {"type": "ChildProcessError",
                                "message": "forked child killed by SIGKILL"},
        "unencodable-mfcc": {"type": "TypeError",
                             "message": "Object of type object is not JSON serializable"},
    }[case]
    if target == "existing-out":
        assert out.read_bytes() == b"the last document\n"
    else:
        assert not out.exists()


def test_a_symlinked_out_is_written_through(tmp_path, capsys):
    srt = tmp_path / "s.srt"
    srt.write_text(SRT_TEXT)
    code, expected, _ = invoke(capsys, "srt", "parse", str(srt))
    assert code == 0
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    link.symlink_to(real)
    for _ in range(2):  # the target missing, then there
        assert invoke(capsys, "srt", "parse", str(srt), "--out", str(link)) == (0, "", "")
        assert link.is_symlink() and real.read_text() == expected


def test_emit_holds_a_piece_of_the_document_not_all_of_it(tmp_path, capsys, monkeypatch):
    # rendered into the spill piece by piece, the document is never held
    # whole; holding every piece until the last took its length and more
    import tracemalloc

    wav = str(tmp_path / "long.wav")
    write_pcm16_wav(wav, [make_tone(220.0, 60.0, SR)], SR)
    use_cpus(monkeypatch, 1)
    out = tmp_path / "doc.json"
    args = build_parser().parse_args(["features", wav, "--out", str(out)])
    payload = args.func(args)
    tracemalloc.start()
    try:
        _emit(payload, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    length = out.stat().st_size
    assert json.loads(out.read_text())["n_frames"] == 1 + 60 * SR // 256
    assert peak < length / 2, (peak, length)


def test_readme_library_block_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    write_tone(tmp_path / "generated.wav", freq=440.0, duration=0.3)
    write_tone(tmp_path / "reference.wav", freq=330.0, duration=0.4)
    jsonl(tmp_path / "train.jsonl", [{"label": "a", "id": "1", "vector": [1.0, 0.0]},
                                     {"label": "b", "id": "1", "vector": [0.0, 1.0]}])
    jsonl(tmp_path / "test.jsonl", [{"label": "a", "id": "2", "vector": [0.9, 0.1]},
                                    {"label": "a", "id": "3", "vector": [0.1, 0.9]}])
    (tmp_path / "movie.srt").write_text(SRT_TEXT)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    row = namespace["row"]
    assert row.mcd_dtw_sl > 0.0
    assert (namespace["score"], namespace["eta"]) == pytest.approx((row.mcd_dtw_sl, row.eta))
    assert namespace["train"].labels == ("a", "b")
    assert namespace["percent"] == 50.0
    assert [job["out_audio"] for job in namespace["plan"].jobs] == [
        "clips/movie_00001.wav", "clips/movie_00002.wav"]


# two usable CPUs: split and stats cut {bigmanifest} in two parts and fork
RUN_CLI = """
import os
os.sched_getaffinity = lambda pid: {{0, 1}}
from dubkit.cli import run
try:
    status = run({argv!r})
except SystemExit as exc:  # --version
    status = exc.code
assert status == 0, status
"""
SAME_RATE_PAIR = """
import numpy as np, dubkit.cli, dubkit as dk
w = dk.Waveform(np.sin(np.arange(8000) / 5.0), 22050)
dk.evaluate_pair(w, w)
"""


# numpy dominates a command's start-up; no command loads scipy (scipy.fft
# alone adds about 0.3 s), and a command forks its children itself, with no
# process pool; only the commands that run the corpus or SRT layer load it
@pytest.mark.parametrize("argv,absent", [
    (None, ("numpy", "scipy")),
    (["--version"], ("numpy", "dubkit.corpus", "dubkit.srt", "dataclasses", "ctypes")),
    (["srt", "parse", "{srt}"], ("numpy", "dubkit.corpus", "ctypes", "dataclasses",
                                 "inspect")),
    (["srt", "plan", "{srt}", "--movie", "m.mkv", "--emit-commands"], ("numpy", "ctypes")),
    (["split", "{bigmanifest}", "--seed", "1"], ("numpy", "dubkit.srt")),
    (["stats", "{bigmanifest}"], ("numpy", "dubkit.srt")),
    (["accuracy", "--train", "{embeddings}", "--test", "{embeddings}"],
     ("scipy", "dubkit.corpus", "dubkit.srt")),
    (["mos", "{ratings}"], ("scipy", "dubkit.corpus", "dubkit.srt")),
    ("same-rate-pair", ("scipy", "dubkit.corpus", "dubkit.srt")),
    (["features", "{stereo48k}"], ("scipy", "concurrent.futures.process", "multiprocessing",
                                   "dubkit.corpus", "dubkit.srt")),
    (["mcd", "{gen24k}", "{ref}"], ("scipy", "concurrent.futures.process", "multiprocessing",
                                    "dubkit.corpus", "dubkit.srt")),
    (["batch", "{pairs}"], ("scipy", "concurrent.futures.process", "multiprocessing",
                            "dubkit.corpus", "dubkit.srt")),
], ids=["import", "version", "srt-parse", "srt-plan", "split", "stats", "accuracy",
        "mos", "same-rate-pair", "features-48k-stereo", "mcd-24k-22k", "batch-24k-22k"])
def test_command_imports_only_its_layers(tmp_path, argv, absent):
    (tmp_path / "s.srt").write_text(SRT_TEXT)
    (tmp_path / "r.csv").write_text("4\n3.5\n")
    t = np.arange(4800) / 48000
    write_pcm16_wav(tmp_path / "st.wav", [0.5 * np.sin(2 * np.pi * 440 * t),
                                          0.5 * np.sin(2 * np.pi * 660 * t)], 48000)
    write_pcm16_wav(tmp_path / "g.wav", [make_tone(440, 0.3, 24000)], 24000)
    write_tone(tmp_path / "r.wav", freq=330.0)
    files = {"srt": str(tmp_path / "s.srt"), "ratings": str(tmp_path / "r.csv"),
             "stereo48k": str(tmp_path / "st.wav"),
             "gen24k": str(tmp_path / "g.wav"), "ref": str(tmp_path / "r.wav"),
             "pairs": jsonl(tmp_path / "p.jsonl", [
                 {"id": f"p{k}", "generated": "g.wav", "reference": "r.wav"}
                 for k in range(2)]),
             # over twice jsonl._PART_BYTES
             "bigmanifest": jsonl(tmp_path / "m.jsonl", manifest_rows(5000)),
             "embeddings": jsonl(tmp_path / "e.jsonl", [
                 {"label": "a", "id": "1", "vector": [1.0, 0.0]},
                 {"label": "b", "id": "1", "vector": [0.0, 1.0]}])}
    assert os.path.getsize(files["bigmanifest"]) >= 2 * dubkit.jsonl._PART_BYTES
    if argv is None:
        code = "import dubkit.cli"
    elif argv == "same-rate-pair":
        code = SAME_RATE_PAIR
    else:
        code = RUN_CLI.format(argv=[arg.format(**files) for arg in argv])
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(dubkit.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert [m for m in loaded if m.startswith(absent)] == []
