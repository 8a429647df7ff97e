"""Command-line frontend.

Every subcommand reads files named on the command line, validates its
flags up front, and emits exactly one JSON document (stdout or --out)
that echoes the effective configuration, so identical inputs and flags
produce byte-identical output. Exit codes: 0 success, 2 usage/validation
failure, 1 runtime or data failure.
"""

import argparse
import json
import sys
from functools import partial

import dubkit as dk

from .modes import AUDIO_MODES, PAD_MODES, SCALES

# A command reaches each layer as dk.<module>.<name>, which loads the module
# on first use: --version loads no layer, srt, split and stats no numpy, and
# a numeric command no corpus or srt. Names are looked up on the module, not
# on the package's re-exports, so a patch of the module reaches the command.


class UsageError(ValueError):
    """Flag validation failure; maps to exit code 2."""


def _add_output_flags(parser):
    parser.add_argument("--out", metavar="PATH",
                        help="write the JSON document here instead of stdout")
    parser.add_argument("--pretty", action="store_true",
                        help="render a human-readable view instead of JSON")


def _add_pipeline_flags(parser):
    parser.add_argument("--rate", type=int, default=22050,
                        help="working sample rate in Hz (default 22050)")
    parser.add_argument("--fft", type=int, default=1024,
                        help="FFT size in samples (default 1024)")
    parser.add_argument("--hop", type=int, default=256,
                        help="hop size in samples (default 256)")
    parser.add_argument("--win", type=int, default=1024,
                        help="window length in samples (default 1024)")
    parser.add_argument("--n-mels", type=int, default=80,
                        help="mel band count (default 80)")
    parser.add_argument("--fmin", type=float, default=0.0,
                        help="mel band floor in Hz (default 0)")
    parser.add_argument("--fmax", type=float, default=8000.0,
                        help="mel band ceiling in Hz (default 8000)")
    parser.add_argument("--k", type=int, default=13,
                        help="MFCC coefficient count (default 13)")


def _add_metric_flags(parser):
    parser.add_argument("--scale", choices=SCALES, default="plain",
                        help="MCD scaling (default plain: no dB constant)")
    parser.add_argument("--pad-mode", choices=PAD_MODES, default="pad",
                        help="zero-pad the shorter waveform for plain MCD, "
                             "or error on length mismatch (default pad)")


def _pipeline_config(args):
    """The pipeline flags as a ``PipelineConfig``, checked before any file is
    read by running the library's own extractors on one sample of silence."""
    try:
        frame = dk.dsp.FrameParams(fft_size=args.fft, hop=args.hop, win_length=args.win)
        cfg = dk.metrics.PipelineConfig(sample_rate=args.rate, frame=frame,
                                        n_mels=args.n_mels, fmin=args.fmin,
                                        fmax=args.fmax, n_coeffs=args.k,
                                        scale=getattr(args, "scale", "plain"),
                                        pad_mode=getattr(args, "pad_mode", "pad"))
        silence = dk.audio.Waveform([0.0], cfg.sample_rate)
        dk.metrics._cepstra(silence, cfg)
        if hasattr(args, "pitch_fmin"):
            dk.dsp.pitch_track(silence, args.pitch_fmin, args.pitch_fmax,
                               args.pitch_threshold, hop=cfg.frame.hop)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return cfg


class _SharedPitch:
    """The first n_frames pitch values of w, tracked a block at a time (see
    dsp._pitch_blocks) from both ends: a forked child (_fork._ForkedCall)
    takes blocks from the first on, and calling this object takes them from
    the last back, then waits for the child and returns the values.

    The values and each side's count of claimed blocks live in one shared
    anonymous mapping made before the fork. A side claims a block before it
    computes it and stops at the first block the other side has claimed, so
    every block is computed; both sides may compute one block, and they
    write the same bits. The values are read only once the child is reaped.
    With one usable CPU the _ForkedCall runs at once, here, and takes every
    block. close() kills and reaps a child not yet waited for."""

    def __init__(self, w, args, cfg, n_frames: int):
        import mmap

        import numpy as np

        from ._fork import _ForkedCall

        n_pitch = dk.dsp._pitch_frame_count(w, cfg.frame.hop)
        shared = mmap.mmap(-1, 8 * (2 + n_pitch))
        self._claimed = np.frombuffer(shared, np.int64, 2)
        self._values = np.frombuffer(shared, np.float64, n_pitch, 16)
        # pitch frames sit at the same hop * i centres, but an odd --win gives
        # one STFT frame fewer when the clip is a whole number of hops
        self._n_frames = n_frames
        self._track = partial(dk.dsp._pitch_blocks, w, args.pitch_fmin, args.pitch_fmax,
                              args.pitch_threshold, cfg.frame.hop, self._values)
        self._child = _ForkedCall(self._track, partial(_claims, self._claimed, 0))

    def __call__(self):
        self._track(partial(_claims, self._claimed, 1))
        self._child()
        return self._values[: self._n_frames]

    def close(self) -> None:
        self._child.close()


def _claims(claimed, side: int, n_blocks: int):
    """The blocks one side of a _SharedPitch takes: side 0 from block 0 up,
    side 1 from the last block down. claimed[side] counts the side's blocks
    and is raised before a block is yielded; the side stops once the two
    counts cover every block."""
    while claimed[0] + claimed[1] < n_blocks:
        k = int(claimed[side])
        claimed[side] = k + 1
        yield k if side == 0 else n_blocks - 1 - k


def cmd_features(args) -> dict:
    cfg = _pipeline_config(args)
    config = cfg.to_dict()
    config.update({"pitch_fmin": args.pitch_fmin, "pitch_fmax": args.pitch_fmax,
                   "pitch_threshold": args.pitch_threshold, "input": args.audio})
    w = dk.audio.resample(dk.audio._read_resampled(args.audio, cfg.sample_rate),
                          cfg.sample_rate)
    n_frames = dk.dsp._frame_count(len(w.mono_samples()), cfg.frame.win_length,
                                   cfg.frame.hop)
    # on a second CPU a child tracks pitch beside the spectral stages and the
    # rendering of mel and mfcc; at "pitch" the rendering tracks the blocks
    # the child has not reached
    pitch = _SharedPitch(w, args, cfg, n_frames)
    try:
        mel, energy = dk.dsp._mel_rows(w, cfg.frame, cfg.n_mels, cfg.fmin, cfg.fmax,
                                       energy=True)
        coeffs = dk.dsp.mfcc(mel, cfg.n_coeffs)
    except BaseException:
        pitch.close()
        raise
    return {
        "config": config,
        "n_frames": n_frames,
        "frame_rate": mel.frame_rate,
        "mel": mel.frames,
        "mfcc": coeffs.frames,
        "pitch": pitch,  # called by _emit, which closes it whatever happens
        "energy": energy.values,
    }


def cmd_mcd(args) -> dict:
    cfg = _pipeline_config(args)
    gen = dk.audio._read_resampled(args.generated, cfg.sample_rate)
    ref = dk.audio._read_resampled(args.reference, cfg.sample_rate)
    row = dk.metrics.evaluate_pair(gen, ref, cfg).to_dict()
    row.pop("id")
    config = cfg.to_dict()
    config.update({"generated": args.generated, "reference": args.reference})
    return {"config": config, **row}


def cmd_batch(args) -> dict:
    cfg = _pipeline_config(args)
    entries = dk.metrics.load_pair_manifest(args.manifest)
    report = dk.metrics.evaluate_corpus(entries, cfg)
    config = cfg.to_dict()
    config["manifest"] = args.manifest
    return {"config": config, **report.to_dict()}


def cmd_accuracy(args) -> dict:
    from ._fork import _ForkedCall

    # on a second CPU a child loads --test while this process loads --train;
    # an error in --train is raised first, as --test's waits for the call
    loading = _ForkedCall(dk.scoring.load_embeddings, args.test)
    try:
        train = dk.scoring.load_embeddings(args.train)
        test = loading()
    finally:
        loading.close()
    model = dk.scoring.build_centroids(train)
    value = dk.scoring.accuracy(test, model)
    return {
        "config": {"train": args.train, "test": args.test,
                   "label_key": args.label_key},
        "label_key": args.label_key,
        "n_train": len(train),
        "n_test": len(test),
        "n_labels": len(model.centroids),
        "accuracy_percent": value,
    }


def cmd_mos(args) -> dict:
    summary = dk.scoring.mos_aggregate(dk.scoring.load_ratings(args.ratings))
    return {"config": {"ratings": args.ratings}, **summary.to_dict()}


def cmd_srt_parse(args) -> dict:
    entries = dk.srt.load_srt(args.srt)
    return {
        "config": {"srt": args.srt},
        "n_entries": len(entries),
        "entries": entries,
    }


def cmd_srt_plan(args) -> dict:
    try:
        dk.corpus.clip_movie_id(args.movie, args.movie_id)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    entries = dk.srt.load_srt(args.srt)
    plan = dk.corpus.build_clip_plan(entries, movie_path=args.movie, out_dir=args.out_dir,
                                     audio_mode=args.audio_mode, movie_id=args.movie_id,
                                     emit_commands=args.emit_commands)
    return {
        "config": {"srt": args.srt, "movie": args.movie, "out_dir": args.out_dir,
                   "audio_mode": args.audio_mode, "emit_commands": args.emit_commands},
        **plan.to_dict(),
    }


def _parse_ratios(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--ratios needs three comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"--ratios values must be numbers, got {text!r}") from None


def cmd_split(args) -> dict:
    ratios = _parse_ratios(args.ratios)
    try:
        dk.corpus.check_ratios(ratios)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    assignment = dk.corpus._manifest_split(args.manifest, ratios, args.seed,
                                           args.stratify_by_speaker)
    return {
        "config": {"manifest": args.manifest, "ratios": list(ratios),
                   "seed": args.seed,
                   "stratify_by_speaker": args.stratify_by_speaker},
        **assignment.to_dict(),
    }


def cmd_stats(args) -> dict:
    if args.top_words < 0:
        raise UsageError(f"--top-words must be >= 0, got {args.top_words}")
    stats = dk.corpus._manifest_stats(args.manifest)
    top = None if args.top_words == 0 else args.top_words
    return {
        "config": {"manifest": args.manifest, "top_words": args.top_words},
        **stats.to_dict(top_words=top),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dubkit",
        description="Objective metrics and corpus tools for movie-dubbing speech "
                    "synthesis.")
    parser.add_argument("--version", action="version", version=f"dubkit {dk.__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("features", help="extract mel/MFCC/pitch/energy from one WAV")
    p.add_argument("audio", help="input WAV file")
    _add_pipeline_flags(p)
    p.add_argument("--pitch-fmin", type=float, default=50.0,
                   help="pitch search floor in Hz (default 50)")
    p.add_argument("--pitch-fmax", type=float, default=600.0,
                   help="pitch search ceiling in Hz (default 600)")
    p.add_argument("--pitch-threshold", type=float, default=0.15,
                   help="voicing threshold on the normalized difference "
                        "(default 0.15)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("mcd", help="score one generated/reference WAV pair")
    p.add_argument("generated", help="generated speech WAV")
    p.add_argument("reference", help="reference speech WAV")
    _add_pipeline_flags(p)
    _add_metric_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_mcd)

    p = sub.add_parser("batch", help="score every pair in a JSONL manifest")
    p.add_argument("manifest", help="JSONL with {id, generated, reference} rows")
    _add_pipeline_flags(p)
    _add_metric_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("accuracy",
                       help="centroid-classification accuracy of labeled embeddings")
    p.add_argument("--train", required=True,
                   help="JSONL embeddings used to build centroids")
    p.add_argument("--test", required=True, help="JSONL embeddings to classify")
    p.add_argument("--label-key", choices=("speaker", "emotion"), default="speaker",
                   help="what the label field denotes (echoed in output; "
                        "default speaker)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_accuracy)

    p = sub.add_parser("mos", help="aggregate listening-test ratings")
    p.add_argument("ratings",
                   help="single-column CSV or JSONL with {rater, item, score} rows")
    _add_output_flags(p)
    p.set_defaults(func=cmd_mos)

    p = sub.add_parser("srt", help="subtitle tools")
    srt_sub = p.add_subparsers(dest="srt_command", required=True, metavar="ACTION")

    q = srt_sub.add_parser("parse", help="parse an SRT file to JSON")
    q.add_argument("srt", help="SubRip subtitle file")
    _add_output_flags(q)
    q.set_defaults(func=cmd_srt_parse)

    q = srt_sub.add_parser("plan", help="derive a clip-cutting plan from an SRT file")
    q.add_argument("srt", help="SubRip subtitle file")
    q.add_argument("--movie", required=True, help="source movie file the plan cuts")
    q.add_argument("--out-dir", default="clips",
                   help="directory for planned outputs (default clips)")
    q.add_argument("--movie-id", default=None,
                   help="identifier used in output names (default: movie stem)")
    q.add_argument("--audio-mode", choices=AUDIO_MODES, default="center-channel",
                   help="audio extraction mode (default center-channel)")
    q.add_argument("--emit-commands", action="store_true",
                   help="include FFmpeg-compatible argument vectors")
    _add_output_flags(q)
    q.set_defaults(func=cmd_srt_plan)

    p = sub.add_parser("split", help="seeded train/val/test split of a manifest")
    p.add_argument("manifest", help="JSONL clip manifest")
    p.add_argument("--ratios", default="0.6,0.1,0.3",
                   help="train,val,test fractions (default 0.6,0.1,0.3)")
    p.add_argument("--seed", type=int, required=True,
                   help="shuffle seed (required; there is no hidden default)")
    p.add_argument("--stratify-by-speaker", action="store_true",
                   help="apply the split within each speaker's records")
    _add_output_flags(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("stats", help="descriptive statistics of a clip manifest")
    p.add_argument("manifest", help="JSONL clip manifest")
    p.add_argument("--top-words", type=int, default=30,
                   help="ranked words to include, 0 for all (default 30)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_stats)

    return parser


def _render_pretty(payload: dict, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    for key, value in payload.items():
        value = value() if callable(value) else value
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_pretty(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            columns = list(value[0].keys())
            rows = [[_fmt(v.get(c)) for c in columns] for v in value]
            widths = [max(len(c), *(len(r[i]) for r in rows))
                      for i, c in enumerate(columns)]
            for cells in (columns, *rows):
                lines.append(pad + "  " + "  ".join(cell.ljust(w) for cell, w
                                                    in zip(cells, widths)))
        else:
            lines.append(f"{pad}{key}: {_fmt(value)}")
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    if isinstance(value, list) or getattr(value, "ndim", 0):  # an ndarray as its list
        if len(value) > 6:
            return f"[{len(value)} values]"
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _json_pieces(payload):
    """``json.dumps(payload)`` in pieces: the top-level object key by key, a
    1-D or 2-D float64 ndarray value through _render.float_pieces (imported
    here, so only a command with such a value loads numpy through it), any
    other ndarray value (duck-typed) as the JSON list of its ``tolist()``,
    and a callable value (a deferred one, such as cmd_features' pitch) as
    what it returns, called when the rendering reaches it."""
    yield "{"
    for i, (key, value) in enumerate(payload.items()):
        yield f"{', ' if i else ''}{json.dumps(key)}: "
        value = value() if callable(value) else value
        ndim = getattr(value, "ndim", 0)
        if ndim in (1, 2) and value.dtype == "float64":
            from ._render import float_pieces

            yield from float_pieces(value)
        else:
            yield json.dumps(value.tolist() if ndim else value)
    yield "}"


def _emit(payload, args) -> None:
    """Write the document. It is rendered into an unlinked temporary file,
    every callable value called, and only once it is complete is --out
    opened, or stdout written, and the file copied there. So a failure
    leaves no partial document, and no more than a piece of the document is
    held in memory. Each callable value is closed whatever happens."""
    import shutil
    import tempfile

    try:
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spill:
            if args.pretty:
                spill.write(_render_pretty(payload))
            else:
                spill.writelines(_json_pieces(payload))
            spill.write("\n")
            spill.seek(0)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    shutil.copyfileobj(spill, fh)
            else:
                shutil.copyfileobj(spill, sys.stdout)
    finally:
        for value in payload.values():
            if callable(value):
                value.close()


def _error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


def run(argv=None) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.func(args), args)
    except UsageError as exc:
        _error("usage", str(exc))
        return 2
    except Exception as exc:  # data/runtime failure (an unwritable --out too): exit 1
        _error(type(exc).__name__, str(exc))
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
