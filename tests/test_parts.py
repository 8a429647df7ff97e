"""The part reader, jsonl.fold_lines, and the `stats` and `split` commands
that fold a manifest a part per usable CPU: the same bytes and the same
located errors as reading the file whole, and no child left behind."""

import json
import os
import signal
import threading
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dubkit import cli, corpus, jsonl
from dubkit.corpus import EMOTIONS, ManifestError

import reference_corpus
from helpers import at, reaped, spy_forks, use_cpus


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_child_is_left():
    yield
    assert_no_children()


def row_bytes(movie, index, speaker, emotion, text, start, end, ascii_only):
    row = {"movie_id": movie, "clip_index": index, "speaker": speaker, "emotion": emotion,
           "text": text, "start_ms": start, "end_ms": end}
    return json.dumps(row, ensure_ascii=ascii_only).encode("utf-8")


good_rows = st.builds(
    row_bytes, st.sampled_from(["a", "b", "é"]), st.integers(1, 10**6),
    st.sampled_from(["x", "y", "z"]), st.sampled_from(EMOTIONS),
    st.sampled_from(["Hello there", "Go go GO!", "Σ Σ'", "", "don't  stop",
                     "İß   x", "\x85 ...", "Ab ab\tAB"]),
    st.integers(0, 5), st.integers(1, 3000), st.booleans())
bad_rows = st.sampled_from([
    b"not json", b"[1, 2]", b'{"movie_id": "m"}',
    row_bytes("m", 1, "s", "bored", "t", 0, 10, True),
    row_bytes("m", 1, "s", "sad", "t", 10, 10, True),
    b'{"movie_id": "caf\xe9", "clip_index": 1}',
    b"\xff\xfe"])
blank_lines = st.sampled_from([b"", b"  ", b"\t"])
line_ends = st.sampled_from([b"\n", b"\r\n", b"\r"])


@st.composite
def manifests(draw):
    """A manifest's bytes: a byte order mark or not, rows ended by LF, CRLF
    or a lone CR (the last maybe by none), blank lines, and at most three
    bad rows anywhere, so a part may hold none, one or more."""
    lines = draw(st.lists(st.one_of(good_rows, good_rows, blank_lines), max_size=14))
    for bad in draw(st.lists(bad_rows, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), bad)
    ends = [draw(line_ends) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = b""
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + b"".join(line + end for line, end in zip(lines, ends))


def reference_run(path, argv):
    """(exit code, stdout, stderr) of `dubkit stats --top-words 0` or
    `dubkit split --seed 7`, from the whole-file reference."""
    try:
        records = reference_corpus.load_manifest(path)
        if argv[0] == "stats":
            config = {"manifest": path, "top_words": 0}
            payload = reference_corpus.corpus_stats(records).to_dict()
        else:
            stratify = "--stratify-by-speaker" in argv
            config = {"manifest": path, "ratios": [0.6, 0.1, 0.3], "seed": 7,
                      "stratify_by_speaker": stratify}
            payload = reference_corpus.split_dataset(records, (0.6, 0.1, 0.3), 7,
                                                     stratify).to_dict()
    except ValueError as exc:  # ManifestError, or a stats or split error
        return 1, "", json.dumps({"error": {"type": type(exc).__name__,
                                            "message": str(exc)}}) + "\n"
    return 0, json.dumps({"config": config, **payload}) + "\n", ""


def cli_run(capsys, argv):
    code = cli.run(argv)
    out, err = capsys.readouterr()
    return code, out, err


COMMANDS = [["stats", "{path}", "--top-words", "0"], ["split", "{path}", "--seed", "7"],
            ["split", "{path}", "--seed", "7", "--stratify-by-speaker"]]


# three CPUs cut a file in up to three parts, so a part's errors are offset
# by the lines of more than one part before it
@pytest.mark.parametrize("cpus", [1, 2, 3])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=manifests(), part_bytes=st.integers(1, 64), command=st.sampled_from(COMMANDS))
def test_documents_and_errors_equal_the_whole_file_reference(tmp_path, monkeypatch, capsys,
                                                             cpus, data, part_bytes, command):
    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(jsonl, "_PART_BYTES", part_bytes)
    path = str(tmp_path / "m.jsonl")
    with open(path, "wb") as fh:
        fh.write(data)
    argv = [arg.format(path=path) for arg in command]
    assert cli_run(capsys, argv) == reference_run(path, argv)
    assert_no_children()


def outcome(call, *args):
    try:
        return call(*args), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("cpus", [1, 2, 3])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=manifests(), part_bytes=st.integers(1, 64))
def test_parts_join_to_the_one_part_reader(tmp_path, monkeypatch, cpus, data, part_bytes):
    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(jsonl, "_PART_BYTES", part_bytes)
    path = str(tmp_path / "m.jsonl")
    with open(path, "wb") as fh:
        fh.write(data)
    parts, error = outcome(jsonl.fold_lines, path, corpus._line_fields, list, ManifestError)
    joined = None if parts is None else [fields for part in parts for fields in part]
    assert (joined, error) == outcome(jsonl.load_lines, path, corpus._line_fields,
                                      ManifestError)
    assert_no_children()


def clean_rows(n):
    """``n`` rows of a fixed vocabulary, movie set and speaker set."""
    words = ["go", "stop", "Hello,", "there", "LET", "it"]
    return b"".join(row_bytes(f"m{k % 7}", k, f"s{k % 11}", EMOTIONS[k % 8],
                              " ".join(words[: k % 6 + 1]), k, k + 500 + k % 9, True) + b"\n"
                    for k in range(1, n + 1))


def write(tmp_path, data, name="m.jsonl"):
    path = str(tmp_path / name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
@pytest.mark.parametrize("part_bytes", [1, 100, 1500, 2000, 3000, 7000])
def test_parts_start_after_a_line_end_and_are_never_short(tmp_path, monkeypatch, parts,
                                                          part_bytes):
    data = clean_rows(40)  # 6.6 kB
    monkeypatch.setattr(jsonl, "_PART_BYTES", part_bytes)
    starts = jsonl._part_starts(write(tmp_path, data), len(data), parts)
    assert starts[0] == 0 and 1 <= len(starts) <= parts
    assert all(data[start - 1 : start] == b"\n" for start in starts[1:])
    if len(starts) > 1:
        assert min(b - a for a, b in zip(starts, [*starts[1:], len(data)])) >= part_bytes
    if parts * part_bytes <= len(data) // 2:  # nothing pushes a cut past its share
        assert len(starts) == parts
        assert starts[1:] == [data.index(b"\n", len(data) * k // parts - 1) + 1
                              for k in range(1, parts)]


def test_a_bad_row_in_part_0_kills_and_reaps_a_stalled_child(tmp_path, monkeypatch):
    path = write(tmp_path, b"not json\n" + clean_rows(50))
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(jsonl, "_PART_BYTES", 64)
    parent, fold_part = os.getpid(), jsonl._fold_part

    def stalled(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return fold_part(*args)

    monkeypatch.setattr(jsonl, "_fold_part", stalled)
    forks = spy_forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(ManifestError, match=at(path, 1) + "invalid JSON"):
        corpus._manifest_stats(path)
    assert time.monotonic() - start < 30
    assert len(forks) == 1 and reaped(forks[0])


def test_a_childs_value_error_comes_out_at_its_line_in_the_file(tmp_path, monkeypatch):
    path = write(tmp_path, b"a\r\n\n" * 20 + b"x\rb\n")
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(jsonl, "_PART_BYTES", 8)
    forks = spy_forks(monkeypatch)

    def reject_x(line):
        if line == "x":
            raise ValueError("an x")
        return line

    with pytest.raises(ValueError, match=at(path, 41) + "an x$"):
        jsonl.fold_lines(path, reject_x, list)
    assert len(forks) == 1 and reaped(forks[0])


def test_a_child_killed_by_a_signal_fails_the_command(tmp_path, monkeypatch, capsys):
    path = write(tmp_path, clean_rows(50))
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(jsonl, "_PART_BYTES", 64)
    parent, fold_part = os.getpid(), jsonl._fold_part

    def dying(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return fold_part(*args)

    monkeypatch.setattr(jsonl, "_fold_part", dying)
    forks = spy_forks(monkeypatch)
    code, out, err = cli_run(capsys, ["stats", path])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {"type": "ChildProcessError",
                                        "message": "forked child killed by SIGKILL"}
    assert len(forks) == 1 and reaped(forks[0])


def test_a_pipe_is_read_as_one_part(tmp_path, monkeypatch, capsys):
    data = b"\xef\xbb\xbf" + clean_rows(50).replace(b"\n", b"\r\n")
    path = write(tmp_path, data)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(jsonl, "_PART_BYTES", 64)
    forks = spy_forks(monkeypatch)
    code, from_file, _ = cli_run(capsys, ["stats", path])
    assert code == 0 and len(forks) == 1

    read_fd, write_fd = os.pipe()

    def feed():
        with open(write_fd, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        code, from_pipe, _ = cli_run(capsys, ["stats", f"/dev/fd/{read_fd}"])
    finally:
        writer.join(timeout=30)
        os.close(read_fd)
    assert not writer.is_alive()
    assert code == 0 and len(forks) == 1  # no fork for the pipe
    assert from_pipe.replace(f"/dev/fd/{read_fd}", path) == from_file


def test_the_stats_fold_holds_a_few_bytes_per_row(tmp_path, monkeypatch):
    # 8 B a row for the durations kept for the in-order sum; the vocabulary,
    # movies and speakers are fixed, so nothing else grows with the rows
    use_cpus(monkeypatch, 1)  # tracemalloc traces this process only
    paths = {n: write(tmp_path, clean_rows(n), f"{n}.jsonl") for n in (2000, 20000)}
    corpus._manifest_stats(paths[2000])  # what a first run sets up once is not traced
    peaks = {}
    for n, path in paths.items():
        tracemalloc.start()
        try:
            corpus._manifest_stats(path)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[20000] - peaks[2000] <= 16 * 18000, peaks
