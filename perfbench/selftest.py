"""Self-tests of the benchmark itself.

Run from the root of a dubkit checkout: python3 perfbench/selftest.py

- the generators are deterministic: one seed gives byte-identical files,
  another seed gives different ones;
- every output check accepts the real CLI's output on small inputs and
  rejects a corrupted copy of it;
- BENCHMARK.json names exactly the workloads and metrics run.py reports.
"""

import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _small_inputs(out_dir, seed):
    rng = gen.rng_for(seed, "selftest")
    os.makedirs(out_dir, exist_ok=True)
    manifest, rows, _ = gen.pair_set(out_dir, rng, [(1.0, 24000, 1.2, 22050),
                                                       (0.8, 22050, 0.8, 22050)])
    gen.movie_clip(os.path.join(out_dir, "movie.wav"), rng, 1.5, 48000, 2, 0.5)
    gen.embeddings(os.path.join(out_dir, "train.jsonl"), os.path.join(out_dir, "test.jsonl"),
                   rng, n_labels=5, per_label=8, dim=16, spread=2.0)
    gen.clip_manifest(os.path.join(out_dir, "clips.jsonl"), rng, 300, n_movies=3,
                      n_speakers=7)
    gen.subtitles(os.path.join(out_dir, "movie.srt"), rng, 40)
    return manifest, rows


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class GeneratorTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        # one fixed path: pair manifests record the paths of their WAV files
        self.work = os.path.join(tmp.name, "work")

    def digests(self, write, seed) -> dict:
        """sha256 per file that ``write(out_dir, seed)`` creates."""
        os.makedirs(self.work)
        try:
            write(self.work, seed)
            return {name: _sha256(os.path.join(self.work, name))
                    for name in os.listdir(self.work)}
        finally:
            shutil.rmtree(self.work)

    def test_same_seed_same_bytes(self):
        first = self.digests(_small_inputs, 3)
        self.assertEqual(first, self.digests(_small_inputs, 3))
        other = self.digests(_small_inputs, 4)
        changed = {name for name in first if first[name] != other.get(name)}
        # the pair manifest holds only file paths
        self.assertEqual(changed, set(first) - {"pairs.jsonl"})

    def test_workload_inputs_repeat(self):
        def write(work, seed):
            workloads.build("pairs_short", seed, work)
        self.assertEqual(self.digests(write, 5), self.digests(write, 5))


class ChecksTest(unittest.TestCase):
    """Each check passes the real CLI output and fails a corrupted copy."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        d = cls.tmp.name
        cls.manifest, cls.rows = _small_inputs(d, 9)
        cls.paths = {name: os.path.join(d, name) for name in
                     ("movie.wav", "train.jsonl", "test.jsonl", "clips.jsonl", "movie.srt")}
        with open(cls.paths["clips.jsonl"], encoding="utf-8") as fh:
            cls.clip_ids = [f"{r['movie_id']}_{r['clip_index']:05d}"
                            for r in map(json.loads, fh)]

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def cli(self, *args):
        env = dict(os.environ, PYTHONPATH=run.SRC)
        done = subprocess.run([sys.executable, "-m", "dubkit.cli", *args], env=env,
                              capture_output=True, check=True)
        return json.loads(done.stdout)

    def assert_rejects(self, check, doc, corrupt):
        self.assertEqual(check(doc), [])
        bad = copy.deepcopy(doc)
        corrupt(bad)
        self.assertNotEqual(check(bad), [])

    def test_batch(self):
        doc = self.cli("batch", self.manifest)

        def corrupt(d):
            d["rows"][0]["mcd_dtw_sl"] *= 1.0 + 1e-12
        self.assert_rejects(lambda d: checks.batch(d, self.rows), doc, corrupt)
        self.assert_rejects(lambda d: checks.batch(d, self.rows), doc,
                            lambda d: d["rows"][1].update(eta=1.5))
        self.assert_rejects(lambda d: checks.batch(d, self.rows), doc,
                            lambda d: d["aggregate"].update(n_pairs=3))

    def test_features(self):
        doc = self.cli("features", self.paths["movie.wav"])
        self.assert_rejects(checks.features, doc, lambda d: d["pitch"].__setitem__(0, 700.0))
        self.assert_rejects(checks.features, doc, lambda d: d["pitch"].__setitem__(1, 20.0))
        self.assert_rejects(checks.features, doc, lambda d: d["energy"].pop())

    def test_accuracy(self):
        doc = self.cli("accuracy", "--train", self.paths["train.jsonl"],
                       "--test", self.paths["test.jsonl"])
        expected = checks.brute_force_accuracy(self.paths["train.jsonl"],
                                               self.paths["test.jsonl"])
        self.assert_rejects(lambda d: checks.accuracy(d, expected), doc,
                            lambda d: d.update(accuracy_percent=d["accuracy_percent"] - 2.5))

    def test_split(self):
        doc = self.cli("split", self.paths["clips.jsonl"], "--seed", "7")
        check = lambda d: checks.split(d, self.clip_ids)  # noqa: E731
        self.assert_rejects(check, doc, lambda d: d["val"].append(d["train"][0]))
        self.assert_rejects(check, doc, lambda d: d["test"].pop())

        def move(d):
            d["test"].append(d["train"].pop())
            d["sizes"] = {k: len(d[k]) for k in ("train", "val", "test")}
        self.assert_rejects(check, doc, move)

    def test_stats(self):
        doc = self.cli("stats", self.paths["clips.jsonl"])
        self.assert_rejects(lambda d: checks.stats(d, len(self.clip_ids)), doc,
                            lambda d: d["emotion_counts"].update(angry=d["emotion_counts"]
                                                                 ["angry"] + 1))

    def test_srt_plan(self):
        doc = self.cli("srt", "plan", self.paths["movie.srt"], "--movie", "m.mkv",
                       "--emit-commands")
        self.assert_rejects(lambda d: checks.srt_plan(d, 40), doc, lambda d: d["jobs"].pop())


class CatalogueTest(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.MAKERS))
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]}, workloads.WHY)
        for key, catalogue in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec[key]},
                             catalogue)


if __name__ == "__main__":
    unittest.main()
