"""The three campaign workloads: what each one generates, runs and checks.

A workload builds its inputs from the run's seed in :meth:`setup`, then the
runner repeats :meth:`steps` in whole rounds.  Each step is one suite call
(or the clustering flow) with the number of operations it attempts: one
(trace, codec, quality) pass, one classifier fit-and-predict, or one
clustering.  :meth:`check` verifies the last round's outputs.
"""

import hashlib
import random
from pathlib import Path

import numpy as np

from taccompress import adapters, analysis, bench, codec, imaging, simulate, trace
from taccompress.analysis import ClassifierKind
from taccompress.layout import GraspPose
from taccompress.simulate import PhasePlan

from . import checks

SAMPLE_RATE_HZ = 100.0
SUB_SAMPLES_PER_FRAME = checks.UNITS * checks.AXES


def trace_seed(seed: int, obj: str, pose: GraspPose, rep: int) -> int:
    digest = hashlib.sha256(f"perfbench\x1f{seed}\x1f{obj}\x1f{pose.name}\x1f{rep}".encode())
    return int.from_bytes(digest.digest()[:8], "little")


def make_corpus(seed: int, cells, reps: int, plan: PhasePlan):
    """One trace per (object, pose) cell and repetition, seeded from ``seed``."""
    profiles = {p.name: p for p in simulate.default_profiles()}
    return [
        simulate.generate_trace(profiles[obj], pose, plan, sample_rate_hz=SAMPLE_RATE_HZ,
                                seed=trace_seed(seed, obj, pose, rep), repetition_id=rep)
        for obj, pose in cells
        for rep in range(reps)
    ]


def _grid(objects, poses):
    return [(obj, pose) for obj in objects for pose in poses]


class Lossless:
    """Table 1 on ingested MPTD files: tlc1 and the gzip adapter, two workers."""

    name = "lossless"
    objects = ("egg", "water bottle", "orange", "apple")  # low to high noise
    poses = (GraspPose.PINCH, GraspPose.CYLINDRICAL)
    plan = PhasePlan(0.04, 0.05, 0.02, 0.10, 0.03)  # 24 frames
    tile_height = 8
    jobs = 2
    codecs = (codec.CODEC_ID_LOSSLESS, "gzip")

    def setup(self, seed: int, workdir: Path):
        self.seed = seed
        self.frames = checks.frames_of(self.plan, SAMPLE_RATE_HZ)
        self.corpus = make_corpus(seed, _grid(self.objects, self.poses), 1, self.plan)
        corpus_dir = workdir / "corpus"
        corpus_dir.mkdir(parents=True)
        self.files = []
        for i, t in enumerate(self.corpus):
            path = corpus_dir / f"{i:02d}.mptd"
            trace.save_trace(t, path)
            self.files.append(path)
        self.gzip_spec = {s.codec_id: s for s in adapters.load_codec_specs()}["gzip"]
        probed = adapters.probe(self.gzip_spec)
        if not probed.available:
            raise RuntimeError(f"gzip adapter unavailable: {probed.detail}")
        self.out_dir = workdir / "reports"
        self.config = bench.BenchConfig(
            dataset_kind="ingest", ingest_directory=str(corpus_dir),
            objects=self.objects, poses=self.poses, reps=1, seed=seed,
            sample_rate_hz=SAMPLE_RATE_HZ, plan=self.plan, codecs=self.codecs,
            tile_height=self.tile_height, jobs=self.jobs,
            output_directory=str(self.out_dir),
        )

    def steps(self):
        return [("lossless-suite", len(self.corpus) * len(self.codecs), self._suite)]

    def _suite(self, tracer):
        with tracer.span("bench.suite"):
            report = bench.run_lossless_suite(self.config)
        return {"report": report, "paths": bench.write_lossless_report(report, self.out_dir)}

    def bpss(self, out) -> float:
        bits = sum(c["bits"] for c in out["report"].cells if c["codec"] == codec.CODEC_ID_LOSSLESS)
        return bits / (len(self.corpus) * self.frames * SUB_SAMPLES_PER_FRAME)

    def check(self, out) -> list[str]:
        cells = out["report"].cells
        problems = checks.bpss_denominators(cells, self.frames)
        # one seeded trace: every tile coded again here, independently of the suite
        index = random.Random(self.seed).randrange(len(self.corpus))
        sample = self.corpus[index]
        payload_len = self.frames * SUB_SAMPLES_PER_FRAME
        raw = self.files[index].read_bytes()[-payload_len:]
        frames = np.frombuffer(raw, np.uint8).reshape(self.frames, checks.UNITS, checks.AXES)
        tlc1_bits = gzip_bits = 0
        for start in range(0, self.frames, self.tile_height):
            raster = frames[start:start + self.tile_height]
            tile = imaging.TactileImage(raster)
            blob = codec.encode_lossless(tile)
            problems += checks.tlc1_tile(raster, blob)
            tlc1_bits += blob.payload_bits
            gz, _ = adapters.run_external(self.gzip_spec, tile)
            problems += checks.gzip_tile(raster, gz.payload)
            gzip_bits += gz.payload_bits
        pose = sample.pose_label.name.lower()
        problems += checks.cell_bits(cells, sample.object_label, pose,
                                     codec.CODEC_ID_LOSSLESS, tlc1_bits)
        problems += checks.cell_bits(cells, sample.object_label, pose, "gzip", gzip_bits)
        return problems


class LossyRD:
    """The RD sweep of tlc1-lossy over the default ladder, serially."""

    name = "lossy-rd"
    cells = (("egg", GraspPose.PINCH), ("apple", GraspPose.CYLINDRICAL))  # the extremes
    plan = PhasePlan(0.02, 0.04, 0.02, 0.06, 0.02)  # 16 frames
    tile_height = 16  # one tile per trace, above the 11 rows MS-SSIM needs
    ladder = bench.DEFAULT_LADDER

    def setup(self, seed: int, workdir: Path):
        self.frames = checks.frames_of(self.plan, SAMPLE_RATE_HZ)
        self.corpus = make_corpus(seed, self.cells, 1, self.plan)
        self.out_dir = workdir / "reports"
        self.config = bench.BenchConfig(
            objects=tuple(o for o, _ in self.cells), poses=tuple(p for _, p in self.cells),
            reps=1, seed=seed, sample_rate_hz=SAMPLE_RATE_HZ, plan=self.plan,
            codecs=(codec.CODEC_ID_LOSSY,), tile_height=self.tile_height, jobs=1,
            bd_pairs=((codec.CODEC_ID_LOSSY, codec.CODEC_ID_LOSSY),),
            quality_ladders={codec.CODEC_ID_LOSSY: self.ladder},
            output_directory=str(self.out_dir),
        )

    def steps(self):
        return [("lossy-suite", len(self.corpus) * len(self.ladder), self._suite)]

    def _suite(self, tracer):
        with tracer.span("bench.suite"):
            report = bench.run_lossy_suite(self.config, corpus=self.corpus)
        return {"report": report, "paths": bench.write_lossy_report(report, self.out_dir)}

    def bpss(self, out) -> float:
        bits = sum(c["bits"] for c in out["report"].cells)
        samples = len(self.corpus) * self.frames * SUB_SAMPLES_PER_FRAME * len(self.ladder)
        return bits / samples

    def check(self, out) -> list[str]:
        report = out["report"]
        return (checks.rd_points(report.cells, self.ladder)
                + checks.self_bd_rate(report.bd_rows, codec.CODEC_ID_LOSSY))


class Downstream:
    """Table 2 (four classifiers, raw and one tlc1-lossy quality) plus the
    t-SNE / k-means clustering flow on raw features."""

    name = "downstream"
    objects = simulate.OBJECT_NAMES
    poses = (GraspPose.PINCH, GraspPose.CYLINDRICAL)
    # Five reps a cell give k-NN (k=5) five training rows an object; with
    # three or fewer its accuracy falls to chance on some seeds.
    reps = 5
    plan = PhasePlan(0.0, 0.01, 0.01, 0.0, 0.0)  # 2 frames: full grip, lift
    quality = 16
    feature_height = 2
    perplexity = 20.0  # the cluster command's default, below n/3 for 80 traces
    classifiers = tuple(ClassifierKind)
    # Chance is 1/8; the README states this margin.
    margin = 0.125

    def setup(self, seed: int, workdir: Path):
        self.split_seed = seed
        self.corpus = make_corpus(seed, _grid(self.objects, self.poses), self.reps, self.plan)
        self.labels = [t.object_label for t in self.corpus]
        self.out_dir = workdir / "reports"
        self.config = bench.BenchConfig(
            objects=self.objects, poses=self.poses, reps=self.reps, seed=seed,
            sample_rate_hz=SAMPLE_RATE_HZ, plan=self.plan, tile_height=16, jobs=1,
            classifiers=self.classifiers, downstream_codec=codec.CODEC_ID_LOSSY,
            downstream_qualities=(self.quality,), feature_height=self.feature_height,
            train_fraction=0.5, split_seed=self.split_seed,
            output_directory=str(self.out_dir),
        )

    def steps(self):
        suite_ops = len(self.corpus) + 2 * len(self.classifiers)  # raw + one quality
        return [("downstream-suite", suite_ops, self._suite), ("cluster", 1, self._cluster)]

    def _suite(self, tracer):
        with tracer.span("bench.suite"):
            report = bench.run_downstream_suite(self.config, corpus=self.corpus)
        return {"report": report,
                "paths": bench.write_downstream_report(report, self.out_dir)}

    def _cluster(self, tracer):
        feats = np.stack([analysis.featurize(imaging.trace_to_image(t), self.feature_height)
                          for t in self.corpus])
        embedding = analysis.tsne_2d(feats, perplexity=self.perplexity, seed=self.split_seed)
        result = analysis.kmeans(embedding, len(self.objects), seed=self.split_seed)
        ari = analysis.adjusted_rand_index(self.labels, result.assignments)
        return {"embedding": embedding, "kmeans": result, "ari": ari}

    def bpss(self, out) -> float:
        rates = [r["bpss"] for r in out["report"].accuracy_rows if r["source"] != "raw"]
        return sum(rates) / len(rates)

    def check(self, out) -> list[str]:
        train_idx, test_idx = analysis.split_indices(self.labels, self.config.train_fraction,
                                                     self.split_seed)
        raw = [r for r in out["report"].accuracy_rows if r["source"] == "raw"]
        km = out["kmeans"]
        return (checks.split_covers(self.labels, train_idx, test_idx)
                + checks.beats_chance(raw[0], [k.value for k in self.classifiers],
                                      len(self.objects), self.margin)
                + checks.kmeans_nearest(out["embedding"], km.assignments, km.centers))


WORKLOADS = {w.name: w for w in (Lossless, LossyRD, Downstream)}

