"""dubkit benchmark: the real CLI, closed loop, one client.

Run from the root of a dubkit checkout:

    python3 perfbench/run.py --workload pairs_long --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Untraced (--trace 0): generates the workload's inputs from --seed, times
a fresh `dubkit --version` process a few times (setup_s), then runs the
workload's CLI invocations (`python -m dubkit.cli ...`, default flags)
one after another as child processes until --seconds have passed, checks
every output, and prints the end-to-end metrics, with times in reference
seconds (see calibrate.py). Traced (--trace 1):
runs the invocations once untraced, then calls the same dubkit layers
in-process with spans around each call and prints the per-layer metrics
and the tracing overhead. The last line of stdout is one JSON result;
a human-readable report goes to stderr. Spans, output digests, per-pass
times and machine facts are written under .perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import facts  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
# relative, so input paths echoed in outputs are the same in every checkout
STATE = ".perfbench"
SETUP_REPEATS = 3
REFERENCE_REPEATS = 5

# name -> (unit, better); BENCHMARK.json lists the same metrics
END_TO_END = {
    "wall_s": ("s", "lower"),
    "audio_s_per_s": ("s/s", "higher"),
    "records_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.emit_s": ("s", "lower"),
    "cli.cpu_s": ("s", "lower"),
    "audio.read_wav_s": ("s", "lower"),
    "audio.bytes_read": ("B", "lower"),
    "audio.to_mono_s": ("s", "lower"),
    "audio.resample_s": ("s", "lower"),
    "audio.samples_resampled": ("count", "lower"),
    "dsp.stft_s": ("s", "lower"),
    "dsp.mel_s": ("s", "lower"),
    "dsp.mfcc_s": ("s", "lower"),
    "dsp.frames": ("count", "lower"),
    "dsp.pitch_s": ("s", "lower"),
    "dsp.pitch_frames": ("count", "lower"),
    "dsp.voiced_fraction": ("ratio", "higher"),
    "dsp.energy_s": ("s", "lower"),
    "metrics.evaluate_pair_s": ("s", "lower"),
    "metrics.evaluate_pair_extra_s": ("s", "lower"),
    "metrics.dtw_align_s": ("s", "lower"),
    "metrics.dtw_cells": ("count", "lower"),
    "metrics.dtw_ns_per_cell": ("ns", "lower"),
    "metrics.path_len": ("count", "lower"),
    "metrics.dtw_bytes_computed": ("B", "lower"),
    "scoring.load_embeddings_s": ("s", "lower"),
    "scoring.build_centroids_s": ("s", "lower"),
    "scoring.accuracy_s": ("s", "lower"),
    "scoring.comparisons": ("count", "lower"),
    "srt.parse_srt_s": ("s", "lower"),
    "srt.cues": ("count", "higher"),
    "corpus.build_clip_plan_s": ("s", "lower"),
    "corpus.load_manifest_s": ("s", "lower"),
    "corpus.rows": ("count", "higher"),
    "corpus.split_dataset_s": ("s", "lower"),
    "corpus.corpus_stats_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


class Runner:
    """Spawns CLI children, checks their outputs and tallies operations."""

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}   # output label -> sha256 of the first output seen
        self.docs = {}      # output label -> parsed, checked document

    def spawn(self, argv, label):
        """Run argv under the lean wrapper; return (measurement, stdout bytes)."""
        out, err = (os.path.join(self.work_dir, f"{label}.{ext}") for ext in ("out", "err"))
        wrapper = [sys.executable, "-S", "-I", os.path.join(HERE, "spawn.py"), out, err, "--"]
        done = subprocess.run(wrapper + argv, env=self.env, stdout=subprocess.PIPE,
                              check=True, cwd=ROOT)
        m = json.loads(done.stdout)
        with open(err, encoding="utf-8", errors="replace") as fh:
            m["stderr"] = fh.read()[-500:]
        with open(out, "rb") as fh:
            return m, fh.read()

    def fail(self, units: int, message: str) -> None:
        self.failed += units
        self.problems.append(message)

    def cli(self, inv):
        """One checked CLI invocation; returns its measurement."""
        self.attempted += inv.units
        m, data = self.spawn([sys.executable, "-m", "dubkit.cli", *inv.args], inv.label)
        if m["exit"] != 0:
            self.fail(inv.units, f"{inv.label}: exit {m['exit']}: {m['stderr']}")
            return m
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(inv.label, digest)
        if digest != first:
            self.fail(inv.units, f"{inv.label}: output is not byte-identical across repeats")
        elif inv.label not in self.docs:
            try:
                doc = json.loads(data)
                problems = inv.check(doc)
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"malformed output: {exc!r}"]
            if problems:
                self.fail(min(inv.units, len(problems)), f"{inv.label}: {problems[:5]}")
            else:
                self.docs[inv.label] = doc
        return m

    def version(self) -> float:
        """Wall seconds of one fresh `dubkit --version` process."""
        self.attempted += 1
        m, data = self.spawn([sys.executable, "-m", "dubkit.cli", "--version"], "version")
        if m["exit"] != 0 or not data.startswith(b"dubkit "):
            self.fail(1, f"--version failed: {m['stderr']}")
        return m["wall_s"]

    def one_pass(self, wl) -> dict:
        ms = [self.cli(inv) for inv in wl.invocations]
        return {"wall_s": sum(m["wall_s"] for m in ms),
                "cpu_s": sum(m["cpu_s"] for m in ms),
                "peak_kb": max(m["maxrss_kb"] for m in ms)}


def _check_source(runner) -> None:
    """Fail unless the children will import dubkit from this checkout."""
    code = "import importlib.util as u; print(u.find_spec('dubkit').origin)"
    done = subprocess.run([sys.executable, "-c", code], env=runner.env, cwd=ROOT,
                          capture_output=True, text=True)
    origin = done.stdout.strip()
    if done.returncode != 0 or not origin.startswith(SRC + os.sep):
        sys.exit(f"error: dubkit does not import from {SRC} (got {origin or done.stderr!r})")


def _import_seconds(runner) -> float:
    code = ("import time; t = time.perf_counter(); import dubkit.cli; "
            "print(time.perf_counter() - t)")
    return float(runner.spawn([sys.executable, "-c", code], "import")[1])


def _reference_s(runner) -> float:
    """Wall seconds of one run of the fixed reference job (calibrate.py)."""
    m, _ = runner.spawn([sys.executable, os.path.join(HERE, "calibrate.py")], "reference")
    if m["exit"] != 0:
        sys.exit(f"error: reference job failed: {m['stderr']}")
    return m["wall_s"]


def untraced(runner, wl, seconds: float) -> tuple:
    reference = [_reference_s(runner)]
    setup = [runner.version() for _ in range(SETUP_REPEATS)]
    reference.append(_reference_s(runner))
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(runner.one_pass(wl))
        reference.append(_reference_s(runner))
    while len(reference) < REFERENCE_REPEATS:
        reference.append(_reference_s(runner))
    # Whole-machine slow spells on a shared host move every time in a run
    # alike and last minutes; the reference job, timed across the same run,
    # moves with them, while changes to dubkit move only the CLI times.
    scale = calibrate.REFERENCE_S / statistics.median(reference)
    wall = statistics.median(p["wall_s"] for p in passes)
    cpu = statistics.median(p["cpu_s"] for p in passes)
    print(f"  {len(passes)} passes, walls {[round(p['wall_s'], 3) for p in passes]} s, "
          f"child cpu/wall {cpu / wall:.2f}; reference job "
          f"{[round(r, 3) for r in reference]} s, scale {scale:.3f}", file=sys.stderr)
    metrics = {
        "wall_s": wall * scale,
        "audio_s_per_s": wl.audio_s / (wall * scale),
        "records_per_s": wl.records / (wall * scale),
        "setup_s": statistics.median(setup) * scale,
        "peak_rss_mb": statistics.median(p["peak_kb"] for p in passes) / 1024.0,
    }
    return metrics, {"wall_s": wall, "setup_s": statistics.median(setup), "scale": scale,
                     "pass_walls_s": [p["wall_s"] for p in passes],
                     "pass_cpu_s": [p["cpu_s"] for p in passes], "setup_walls_s": setup,
                     "reference_job_s": reference}


def _layer_metrics(tracer, wall, import_s, cli_pass, cost) -> dict:
    busy, counts = tracer.busy(), tracer.counts
    cells = counts.get("metrics.dtw_cells", 0.0)
    frames = counts.get("dsp.pitch_frames", 0.0)
    out = {}
    for name, (unit, _) in PER_LAYER.items():
        out[name] = busy.get(name[:-2], 0.0) if unit == "s" else counts.get(name, 0.0)
    out.update({
        "cli.import_s": import_s,
        "cli.cpu_s": cli_pass["cpu_s"],
        "dsp.voiced_fraction": counts.get("dsp.voiced_frames", 0.0) / frames if frames else 0.0,
        "metrics.evaluate_pair_extra_s": (busy.get("metrics.evaluate_pair", 0.0)
                                          - busy.get("metrics.stages", 0.0)),
        "metrics.dtw_ns_per_cell": 1e9 * out["metrics.dtw_align_s"] / cells if cells else 0.0,
        "metrics.dtw_bytes_computed": 16.0 * cells,
        "trace.wall_s": wall,
        "trace.overhead_pct": 100.0 * len(tracer.spans) * cost / cli_pass["wall_s"],
    })
    return out


def traced(runner, wl, seconds: float, out_prefix: str) -> dict:
    import_s = statistics.median(_import_seconds(runner) for _ in range(SETUP_REPEATS))
    cli_pass = runner.one_pass(wl)
    if runner.failed:
        return {name: 0.0 for name in PER_LAYER}
    cost = tracing.span_cost()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        tracer = tracing.Tracer()
        runner.attempted += 1
        t0 = time.perf_counter()
        problems = wl.trace(tracer, runner.docs)
        wall = time.perf_counter() - t0
        if problems:
            runner.fail(1, f"traced pass: {problems}")
        passes.append(_layer_metrics(tracer, wall, import_s, cli_pass, cost))
    tracer.dump(out_prefix + "-spans.jsonl")
    print(f"  {len(passes)} traced passes, {len(tracer.spans)} spans each, "
          f"untraced pass {cli_pass['wall_s']:.3f} s, traced pass "
          f"{statistics.median(p['trace.wall_s'] for p in passes):.3f} s in-process, "
          f"span cost {cost * 1e6:.2f} us",
          file=sys.stderr)
    return {name: statistics.median(p[name] for p in passes) for name in PER_LAYER}


def run_workload(name, seed, seconds, trace) -> tuple:
    os.makedirs(os.path.join(STATE, "out"), exist_ok=True)
    work_dir = os.path.join(STATE, "work", f"{name}-seed{seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        runner = Runner(work_dir)
        _check_source(runner)
        t0 = time.perf_counter()
        wl = workloads.build(name, seed, work_dir)
        # write the inputs back now, so their writeback does not overlap timed runs
        for entry in os.scandir(work_dir):
            fd = os.open(entry.path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        print(f"{name}: {wl.why}\n  inputs generated in {time.perf_counter() - t0:.1f} s "
              f"(excluded): {wl.audio_s:.1f} s of audio, {wl.records} records",
              file=sys.stderr)
        out_prefix = os.path.join(STATE, "out", f"{name}-seed{seed}-trace{trace}")
        if trace:
            metrics, timings = traced(runner, wl, seconds, out_prefix), {}
        else:
            metrics, timings = untraced(runner, wl, seconds)
        for problem in runner.problems:
            print(f"  FAILED {problem}", file=sys.stderr)
        with open(out_prefix + "-report.json", "w", encoding="utf-8") as fh:
            json.dump({"digests": runner.digests, "timings": timings, "metrics": metrics,
                       "problems": runner.problems}, fh, indent=1, sort_keys=True)
        for label, digest in sorted(runner.digests.items()):
            print(f"  sha256 {label}: {digest}", file=sys.stderr)
        return metrics, runner.attempted, runner.failed
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.MAKERS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dubkit", "cli.py")):
        print(f"error: {SRC}/dubkit not found; run from the root of a dubkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the traced pass imports dubkit in-process

    catalogue = PER_LAYER if args.trace else END_TO_END
    names = list(workloads.MAKERS) if args.workload == "all" else [args.workload]
    machine = facts.machine_facts()
    print(f"machine: {json.dumps(machine)}", file=sys.stderr)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        values, a, f = run_workload(name, args.seed, args.seconds, args.trace)
        attempted += a
        failed += f
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, value in values.items():
            metrics[prefix + metric] = {"value": value, "unit": catalogue[metric][0]}
            print(f"  {prefix + metric:40s} {value:14.6g} {catalogue[metric][0]}",
                  file=sys.stderr)
        print(f"  {prefix}fail_ratio {f / a:.6g} ({f} of {a} operations failed)",
              file=sys.stderr)
    with open(os.path.join(STATE, "out", "machine.json"), "w", encoding="utf-8") as fh:
        json.dump(machine, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
