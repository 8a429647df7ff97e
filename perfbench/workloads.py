"""The four benchmark workloads: inputs, CLI invocations, checks, traced pass.

``build(name, seed, work_dir)`` writes a workload's inputs and returns a
Workload. Its ``invocations`` are what the untraced run times as child
processes; its ``trace`` callable calls the same dubkit layers in-process
with spans around each call, and compares its results with the CLI's.
"""

import json
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import checks
import gen


@dataclass(frozen=True)
class Invocation:
    label: str
    args: list          # arguments after `python -m dubkit.cli`
    units: int          # operations it counts for in attempted/failed
    check: Callable     # parsed JSON document -> list of problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: list
    audio_s: float      # seconds of audio one pass handles
    records: int        # records one pass handles
    trace: Callable     # (tracer, {label: parsed CLI document}) -> list of problems


WHY = {
    "pairs_long": "batch over 4 long pairs at mismatched rates: O(M*N) dtw_align does most "
                  "of the work and its matrices set peak RSS",
    "pairs_short": "batch over 150 short V2C-style pairs: per-pair fixed costs (read_wav, "
                   "MFCC extraction) dominate and DTW is small",
    "movie_features": "features on a 120 s 48 kHz stereo clip: to_mono, resample, YIN pitch "
                      "and a large JSON document; no DTW runs",
    "records": "accuracy, split, stats and srt plan with no audio: scoring, corpus and srt "
               "layers, where four process start-ups weigh most",
}


def _pairs(name, seed, work_dir, specs) -> Workload:
    manifest, rows, seconds = gen.pair_set(work_dir, gen.rng_for(seed, name), specs)

    def check(doc):
        return checks.batch(doc, rows)

    def trace(tracer, outputs):
        return _trace_pairs(tracer, rows, manifest, outputs["batch"])

    return Workload(name, WHY[name],
                    [Invocation("batch", ["batch", manifest], len(rows), check)],
                    seconds, len(rows), trace)


def _pairs_long(seed, work_dir):
    rng = gen.rng_for(seed, "pairs_long/sizes")
    # fixed lengths, pairing and order keep the summed M*N and the allocation
    # pattern (hence peak RSS) nearly seed-independent; the seed moves each
    # length by under 1 % and sets the audio content
    bases = [(25.0, 1.05), (26.5, 1.12), (28.0, 1.18), (29.5, 1.25)]
    specs = [(g * rng.uniform(0.995, 1.005), 24000, g * ratio, 22050) for g, ratio in bases]
    return _pairs("pairs_long", seed, work_dir, specs)


def _pairs_short(seed, work_dir):
    rng = gen.rng_for(seed, "pairs_short/sizes")
    # fixed multisets of lengths and length ratios, paired by the seed: the
    # work per pass barely moves between seeds; 30 of 150 pairs are equal-length
    lengths = np.linspace(1.0, 3.0, 150)[rng.permutation(150)]
    ratios = np.concatenate([np.ones(30), np.linspace(0.8, 0.95, 60),
                             np.linspace(1.05, 1.25, 60)])[rng.permutation(150)]
    specs = [(g, 22050, g * r, 22050) for g, r in zip(lengths.tolist(), ratios.tolist())]
    return _pairs("pairs_short", seed, work_dir, specs)


def _movie_features(seed, work_dir):
    rng = gen.rng_for(seed, "movie_features")
    path = os.path.join(work_dir, "movie.wav")
    seconds = gen.movie_clip(path, rng, 120.0, 48000, 2, voiced_share=0.5)

    def trace(tracer, outputs):
        return _trace_features(tracer, path, outputs["features"])

    inv = Invocation("features", ["features", path], 1, checks.features)
    return Workload("movie_features", WHY["movie_features"], [inv], seconds, 1, trace)


def _records(seed, work_dir):
    rng = gen.rng_for(seed, "records")
    p = {key: os.path.join(work_dir, name) for key, name in
         (("train", "train.jsonl"), ("test", "test.jsonl"),
          ("manifest", "clips.jsonl"), ("srt", "movie.srt"))}
    n_labels, per_label, n_rows, n_cues = 50, 80, 60_000, 12_000
    gen.embeddings(p["train"], p["test"], rng, n_labels, per_label, dim=192, spread=4.5)
    clip_s = gen.clip_manifest(p["manifest"], rng, n_rows, n_movies=100, n_speakers=500)
    cue_s = gen.subtitles(p["srt"], rng, n_cues)
    split_seed = str(int(rng.integers(0, 2**31)))
    with open(p["manifest"], encoding="utf-8") as fh:
        clip_ids = [f"{row['movie_id']}_{row['clip_index']:05d}"
                    for row in map(json.loads, fh)]
    expected = {}

    def check_accuracy(doc):
        if "percent" not in expected:
            expected["percent"] = checks.brute_force_accuracy(p["train"], p["test"])
        return checks.accuracy(doc, expected["percent"])

    n_embeddings = 2 * n_labels * per_label
    invocations = [
        Invocation("accuracy", ["accuracy", "--train", p["train"], "--test", p["test"]],
                   1, check_accuracy),
        Invocation("split", ["split", p["manifest"], "--seed", split_seed], 1,
                   lambda doc: checks.split(doc, clip_ids)),
        Invocation("stats", ["stats", p["manifest"]], 1,
                   lambda doc: checks.stats(doc, n_rows)),
        Invocation("srt_plan", ["srt", "plan", p["srt"], "--movie", "movie.mkv",
                                "--emit-commands"], 1,
                   lambda doc: checks.srt_plan(doc, n_cues)),
    ]

    def trace(tracer, outputs):
        return _trace_records(tracer, p, int(split_seed), outputs)

    # split and stats each read every manifest row
    return Workload("records", WHY["records"], invocations, 2 * clip_s + cue_s,
                    n_embeddings + 2 * n_rows + n_cues, trace)


MAKERS = {"pairs_long": _pairs_long, "pairs_short": _pairs_short,
            "movie_features": _movie_features, "records": _records}


def build(name: str, seed: int, work_dir: str) -> Workload:
    return MAKERS[name](seed, work_dir)


# ---- traced passes: spans sit around the benchmark's own calls into dubkit


def _emit(tracer, payload) -> None:
    with tracer.span("cli.emit"):
        json.dumps(payload)


def _read(tracer, path):
    from dubkit import read_wav, to_mono

    with tracer.span("audio.read_wav"):
        w = read_wav(path)
    tracer.count("audio.bytes_read", os.path.getsize(path))
    with tracer.span("audio.to_mono"):
        return to_mono(w)


def _resample(tracer, w, rate):
    from dubkit import resample

    with tracer.span("audio.resample"):
        out = resample(w, rate)
    if w.sample_rate != rate:
        tracer.count("audio.samples_resampled", w.n_frames)
    return out


def _mfcc(tracer, w, cfg):
    from dubkit import mel_spectrogram, mfcc, stft_magnitude

    with tracer.span("dsp.stft"):
        spec = stft_magnitude(w, cfg.frame)
    with tracer.span("dsp.mel"):
        mel = mel_spectrogram(spec, cfg.n_mels, cfg.fmin, cfg.fmax)
    with tracer.span("dsp.mfcc"):
        coeffs = mfcc(mel, cfg.n_coeffs)
    tracer.count("dsp.frames", spec.n_frames)
    return spec, mel, coeffs


def _trace_pairs(tracer, rows, manifest, cli_doc) -> list:
    from dubkit import PipelineConfig, dtw_align, evaluate_pair
    from dubkit.metrics import MetricReport

    cfg = PipelineConfig()
    results = []
    for row in rows:
        tracer.request = row["id"]
        gen_w = _read(tracer, row["generated"])
        ref_w = _read(tracer, row["reference"])
        with tracer.span("metrics.evaluate_pair"):
            metrics = evaluate_pair(gen_w, ref_w, cfg)
        results.append(replace(metrics, pair_id=row["id"]))
        # the stages evaluate_pair runs, timed one by one on the same input
        with tracer.span("metrics.stages"):
            c_gen = _mfcc(tracer, _resample(tracer, gen_w, cfg.sample_rate), cfg)[2]
            c_ref = _mfcc(tracer, _resample(tracer, ref_w, cfg.sample_rate), cfg)[2]
            with tracer.span("metrics.dtw_align"):
                alignment = dtw_align(c_gen, c_ref)
        tracer.count("metrics.dtw_cells", alignment.m * alignment.n)
        tracer.count("metrics.path_len", alignment.path_len)
    tracer.request = None
    config = cfg.to_dict()
    config.update({"manifest": manifest, "jobs": 1})
    _emit(tracer, {"config": config, **MetricReport(results).to_dict()})
    traced_rows = [r.to_dict() for r in results]
    if traced_rows != cli_doc["rows"]:
        return ["traced evaluate_pair rows differ from the CLI rows"]
    return []


def _trace_features(tracer, path, cli_doc) -> list:
    from dubkit import PipelineConfig, energy_track, pitch_track

    cfg = PipelineConfig()
    tracer.request = path
    w = _resample(tracer, _read(tracer, path), cfg.sample_rate)
    spec, mel, coeffs = _mfcc(tracer, w, cfg)
    with tracer.span("dsp.pitch"):
        pitch = pitch_track(w, 50.0, 600.0, 0.15)
    with tracer.span("dsp.energy"):
        energy = energy_track(spec)
    tracer.count("dsp.pitch_frames", len(pitch.values))
    tracer.count("dsp.voiced_frames", int((pitch.values > 0).sum()))
    _emit(tracer, {"config": cfg.to_dict(), "n_frames": spec.n_frames,
                   "frame_rate": spec.frame_rate, "mel": mel.frames.tolist(),
                   "mfcc": coeffs.frames.tolist(), "pitch": pitch.values.tolist(),
                   "energy": energy.values.tolist()})
    tracer.request = None
    if pitch.values.tolist() != cli_doc["pitch"] or spec.n_frames != cli_doc["n_frames"]:
        return ["traced pitch track differs from the CLI output"]
    return []


def _trace_records(tracer, paths, split_seed, outputs) -> list:
    from dubkit import (accuracy, build_centroids, build_clip_plan, corpus_stats,
                        load_embeddings, load_manifest, parse_srt, split_dataset)

    problems = []
    tracer.request = "accuracy"
    with tracer.span("scoring.load_embeddings"):
        train = load_embeddings(paths["train"])
        test = load_embeddings(paths["test"])
    with tracer.span("scoring.build_centroids"):
        model = build_centroids(train)
    with tracer.span("scoring.accuracy"):
        value = accuracy(test, model)
    tracer.count("scoring.comparisons", len(test) * len(model.centroids))
    _emit(tracer, {"n_train": len(train), "n_test": len(test),
                   "n_labels": len(model.centroids), "accuracy_percent": value})
    if value != outputs["accuracy"]["accuracy_percent"]:
        problems.append("traced accuracy differs from the CLI output")

    tracer.request = "split"
    with tracer.span("corpus.load_manifest"):
        records = load_manifest(paths["manifest"])
    tracer.count("corpus.rows", len(records))
    with tracer.span("corpus.split_dataset"):
        assignment = split_dataset(records, (0.6, 0.1, 0.3), seed=split_seed)
    _emit(tracer, assignment.to_dict())
    if assignment.test != outputs["split"]["test"]:
        problems.append("traced split differs from the CLI output")

    tracer.request = "stats"
    with tracer.span("corpus.load_manifest"):
        records = load_manifest(paths["manifest"])
    tracer.count("corpus.rows", len(records))
    with tracer.span("corpus.corpus_stats"):
        stats = corpus_stats(records)
    _emit(tracer, stats.to_dict(top_words=30))
    if stats.n_clips != outputs["stats"]["n_clips"]:
        problems.append("traced stats differ from the CLI output")

    tracer.request = "srt_plan"
    with open(paths["srt"], encoding="utf-8") as fh:
        text = fh.read()
    with tracer.span("srt.parse_srt"):
        entries = parse_srt(text)
    tracer.count("srt.cues", len(entries))
    with tracer.span("corpus.build_clip_plan"):
        plan = build_clip_plan(entries, movie_path="movie.mkv", out_dir="clips",
                               emit_commands=True)
    _emit(tracer, plan.to_dict())
    tracer.request = None
    if len(plan.jobs) != len(outputs["srt_plan"]["jobs"]):
        problems.append("traced clip plan differs from the CLI output")
    return problems
