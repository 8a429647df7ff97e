import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import dubkit
from dubkit.audio import Waveform, write_wav
from dubkit.cli import build_parser, run
from dubkit.metrics import PipelineConfig

from helpers import brute_force_accuracy, jsonl, make_tone

SR = 22050


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tone(path, freq=440.0, duration=0.3):
    write_wav(path, Waveform(make_tone(freq, duration, SR), SR))
    return str(path)


def write_odd_rate_wav(path):
    # 767999 Hz is in read_wav's range but shares no useful factor with 22050
    write_wav(path, Waveform(make_tone(440, 1e-4, 767999), 767999))
    return str(path)


def manifest_rows(n, **fields):
    """``n`` valid clip-manifest rows with clip_index 1..n; ``fields`` override."""
    return [{"movie_id": "m", "clip_index": i, "speaker": "s", "emotion": "neutral",
             "text": "hi", "start_ms": 0, "end_ms": 1000, **fields}
            for i in range(1, n + 1)]


PIPELINE_FLAGS = ["--hop 0", "--k 0", "--k 81", "--n-mels 0", "--rate 0",
                  "--fmax 20000", "--fmin -5"]
BAD_FLAG_CASES = ([(command, flag) for command in ("features", "mcd", "batch")
                   for flag in PIPELINE_FLAGS]
                  + [("features", "--pitch-fmin 0"), ("features", "--pitch-fmax 20000")]
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

    @pytest.mark.parametrize("hop", [128, 256, 512])
    def test_pitch_frames_follow_hop(self, tmp_path, capsys, hop):
        wav = write_tone(tmp_path / "a.wav")
        code, out, _ = invoke(capsys, "features", wav, "--hop", str(hop))
        assert code == 0
        payload = json.loads(out)
        assert payload["n_frames"] == 1 + int(0.3 * SR) // hop
        for key in ("mel", "mfcc", "pitch", "energy"):
            assert len(payload[key]) == payload["n_frames"]

    def test_deterministic_output(self, tmp_path, capsys):
        wav = write_tone(tmp_path / "a.wav")
        _, first, _ = invoke(capsys, "features", wav)
        _, second, _ = invoke(capsys, "features", wav)
        assert first == second

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


class TestMosCommand:
    def test_csv_ratings(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("3.0\n4.0\n5.0\n")
        code, out, _ = invoke(capsys, "mos", str(path))
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["config", "mean", "half_width", "n", "std", "rendered"]
        assert payload["mean"] == 4.0
        assert payload["rendered"] == "4.00 ± 1.13"

    def test_off_grid_rating_fails(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("3.3\n")
        code, _, err = invoke(capsys, "mos", str(path))
        assert code == 1
        assert "3.3" in json.loads(err)["error"]["message"]


SRT_TEXT = """1
00:00:01,000 --> 00:00:02,500
Hello there

2
00:00:03,000 --> 00:00:04,250
General Kenobi
"""


class TestSrtCommands:
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

    def test_parse_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.srt"
        path.write_text("1\n00:00:02,000 --> 00:00:01,000\nbackwards\n")
        code, _, err = invoke(capsys, "srt", "parse", str(path))
        assert code == 1
        assert "entry 1" in json.loads(err)["error"]["message"]


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

    def test_negative_top_words_exit_two(self, tmp_path, capsys):
        path = jsonl(tmp_path / "m.jsonl",
                     manifest_rows(1, text="one two three four five six seven"))
        code, out, _ = invoke(capsys, "stats", path, "--top-words", "3")
        assert code == 0
        assert len(json.loads(out)["word_counts"]) == 3
        code, out, err = invoke(capsys, "stats", path, "--top-words", "-3")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "usage"


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


def test_same_rate_scoring_never_imports_scipy_signal():
    # scipy.signal is slow to import and only resampling needs it
    code = ("import sys, numpy as np, dubkit.cli, dubkit as dk; "
            "w = dk.Waveform(np.sin(np.arange(8000) / 5.0), 22050); "
            "dk.evaluate_pair(w, w); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))")
    env = dict(os.environ, PYTHONPATH=str(Path(dubkit.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    assert result.stdout.strip() == "[]"
