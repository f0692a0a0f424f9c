"""Config-driven benchmark campaigns: lossless table, lossy RD, downstream.

A benchmark run is described by an INI-style config file::

    [dataset]
    ; or "ingest" with directory = path/to/mptd
    kind = synthetic
    ; default: all eight objects and all four poses
    objects = apple, egg
    poses = pinch, cylindrical
    reps = 10
    seed = 0
    sample_rate_hz = 100
    plan_s = 0.15, 0.10, 0.05, 0.50, 0.05

    [run]
    codecs = tlc1, gzip, hm-intra, hm-scc
    tile_height = 256
    ; worker processes (0 = usable CPUs)
    jobs = 0
    ; optional path, else bundled templates
    codec_specs =
    bd_pairs = hm-intra:hm-scc
    quality_ladder.tlc1-lossy = 2, 4, 8, 16, 32, 64

    [downstream]
    classifiers = knn, softmax
    codec = tlc1-lossy
    qualities = 8, 64
    feature_height = 16
    train_fraction = 0.7
    split_seed = 0

    [output]
    directory = bench-out

The INI dialect is the codec spec file's, read by ``adapters.ini_sections``,
``split_list`` and ``int_list`` (``objects`` splits on commas only: its
names hold blanks).  Comments go on lines of their own: a ``;`` after a
value is part of it.  Every key is optional, and ``CONFIG_KEYS`` lists them
all.  Every emitted CSV embeds the fully resolved config and tool versions
as ``#`` comment lines, contains no timestamps, and is written atomically as
UTF-8, so identical configs and seeds produce byte-identical reports under
any locale.

``codec_table`` is the one codec table: the built-in TLC1 rows and one row
per section of the codec spec file, and ``probe_codecs`` the one probe step
over it, which both the suites and ``taccompress probe-codecs`` use.  Every
suite resolves its codec ids before it takes the corpus.  A suite with
nothing to run stops there: a malformed spec file, an unknown codec id, or
a request that holds no codec of the suite's kind, raises ``FormatError``
(CLI exit 2) before any probe runs or any trace exists; a request whose
every codec of that kind failed its probe raises ``CodecUnavailableError``
(exit 3).  An empty corpus raises ``FormatError``.
"""

import csv
import functools
import io
import itertools
import math
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, _files
from . import codec as native
from .adapters import (CodecKind, CodecSpec, ProbeResult, ProbeStatus, ini_sections, int_list,
                       load_codec_specs, probe, run_external, split_list)
from .analysis import (
    ClassifierKind,
    FeatureMatrix,
    accuracy,
    featurize,
    predict,
    split,
    train_classifier,
)
from .errors import CodecIntegrityError, CodecUnavailableError, FormatError
from .imaging import DEFAULT_TILE_HEIGHT, TactileImage, tile_ranges, trace_to_image
from .layout import GraspPose
from .metrics import (
    MSSSIM_WINDOW,
    QualityMetric,
    RDCurve,
    RDPoint,
    bd_rate,
    bpss as bpss_of,
    compression_ratio,
    format_metric,
    ms_ssim,
)
from .simulate import (MAX_FRAMES, OBJECT_NAMES, PhasePlan, default_profiles, generate_trace,
                       stable_seed)
from .trace import GraspTrace, load_trace

DEFAULT_LADDER = (2, 4, 8, 16, 32, 64)

# Reference BD-rate results published for SCC-versus-intra coding on the
# real Dex-MPTD recordings; printed for context only, never asserted.
SCC_REFERENCE_CONTEXT = {
    ("vtm-intra", "vtm-scc"): "Dex-MPTD reference: -30.67% (VTM SCC vs intra)",
    ("hm-intra", "hm-scc"): "Dex-MPTD reference: -56.42% (HM SCC vs intra)",
}


@dataclass(frozen=True)
class BenchConfig:
    """Fully resolved benchmark configuration."""

    dataset_kind: str = "synthetic"
    objects: tuple[str, ...] = OBJECT_NAMES
    poses: tuple[GraspPose, ...] = tuple(GraspPose)
    reps: int = 10
    seed: int = 0
    sample_rate_hz: float = 100.0
    plan: PhasePlan = field(
        default_factory=lambda: PhasePlan(0.15, 0.10, 0.05, 0.50, 0.05)
    )
    ingest_directory: str = ""
    codecs: tuple[str, ...] = (native.CODEC_ID_LOSSLESS,)
    tile_height: int = DEFAULT_TILE_HEIGHT
    jobs: int = 0
    codec_specs_path: str = ""
    bd_pairs: tuple[tuple[str, str], ...] = ()
    quality_ladders: dict = field(default_factory=dict)
    classifiers: tuple[ClassifierKind, ...] = (
        ClassifierKind.KNN,
        ClassifierKind.SOFTMAX_REGRESSION,
    )
    downstream_codec: str = native.CODEC_ID_LOSSY
    downstream_qualities: tuple[int, ...] = (8, 64)
    feature_height: int = 16
    train_fraction: float = 0.7
    split_seed: int = 0
    output_directory: str = "bench-out"

    def __post_init__(self):
        if self.dataset_kind not in ("synthetic", "ingest"):
            raise ValueError(f"unknown dataset kind {self.dataset_kind!r}")
        if not self.codecs:
            raise ValueError("at least one codec required")
        if not 1 <= self.reps <= 0x10000:  # repetition ids 0..reps-1 fit MPTD's u16
            raise ValueError(f"reps must be in [1, 65536], not {self.reps}")
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ValueError(f"sample_rate_hz must be finite and > 0, not {self.sample_rate_hz}")
        if self.tile_height < 1:
            raise ValueError("tile_height must be positive")
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0, not {self.jobs}")
        if self.dataset_kind == "synthetic":
            unknown = [o for o in self.objects if o not in OBJECT_NAMES]
            if unknown:
                raise ValueError(f"unknown objects {unknown}; known: {', '.join(OBJECT_NAMES)}")
            self.plan.frame_count(self.sample_rate_hz)  # raises past the frame budget
        ladders = [*self.quality_ladders.items(), ("downstream", self.downstream_qualities)]
        for name, steps in ladders:
            if len(set(steps)) != len(steps):
                raise ValueError(f"{name} qualities {steps} repeat a step")
        qps = list(self.quality_ladders.get(native.CODEC_ID_LOSSY, ()))
        if self.downstream_codec == native.CODEC_ID_LOSSY:
            qps += self.downstream_qualities
        for qp in qps:
            native.mode_and_qp(native.CODEC_ID_LOSSY, qp)  # raises outside the qp range
        if not 1 <= self.feature_height <= MAX_FRAMES:
            raise ValueError(f"feature_height must be in [1, {MAX_FRAMES}], "
                             f"not {self.feature_height}")
        if not 0 < self.train_fraction < 1:
            raise ValueError(f"train_fraction must lie in (0, 1), not {self.train_fraction}")

    def worker_count(self) -> int:
        """``jobs``, or for 0 the number of CPUs this process may run on."""
        if self.jobs:
            return self.jobs
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1

    def resolved_items(self) -> list[tuple[str, str]]:
        """The config as report-header ``(section.key, text)`` pairs, in
        ``CONFIG_KEYS`` order; ``parse_config`` reads them back."""
        items = []
        for name, attr, _parse, show in CONFIG_KEYS:
            value = getattr(self, attr)
            if show is None:
                continue
            if name == _LADDER_KEY:
                items += [(name + cid, show(value[cid])) for cid in sorted(value)]
            else:
                items.append((name, show(value)))
        return items


def _plan(raw: str) -> PhasePlan:
    durations = [float(t) for t in split_list(raw)]
    if len(durations) != 5:
        raise ValueError("needs exactly 5 durations")
    return PhasePlan(*durations)


def _bd_pairs(raw: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for tok in split_list(raw):
        ref, sep, test = tok.partition(":")
        if not sep:
            raise ValueError(f"bd pair {tok!r} must look like ref:test")
        pairs.append((ref, test))
    return tuple(pairs)


def _joined(values) -> str:
    return ",".join(str(v) for v in values)


def _float_text(value: float) -> str:
    """``{:g}`` when that parses back to ``value``, else ``repr``."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


_LADDER_KEY = "run.quality_ladder."  # one row for every run.quality_ladder.<codec id>

# The config schema, in report-header order: (section.key, BenchConfig field,
# parse(text) -> value, show(value) -> text).  ``run.jobs`` has no ``show``:
# the worker count never changes a result.
CONFIG_KEYS = (
    ("dataset.kind", "dataset_kind", str.lower, str),
    # objects split on commas only: names such as "water bottle" hold spaces
    ("dataset.objects", "objects",
     lambda raw: tuple(t.strip() for t in raw.split(",") if t.strip()), ",".join),
    ("dataset.poses", "poses",
     lambda raw: tuple(GraspPose[t.upper()] for t in split_list(raw)),
     lambda poses: ",".join(p.name.lower() for p in poses)),
    ("dataset.reps", "reps", int, str),
    ("dataset.seed", "seed", int, str),
    ("dataset.sample_rate_hz", "sample_rate_hz", float, _float_text),
    ("dataset.plan_s", "plan", _plan, lambda plan: ",".join(map(_float_text, plan.durations))),
    ("dataset.directory", "ingest_directory", str, str),
    ("run.codecs", "codecs", lambda raw: tuple(split_list(raw)), ",".join),
    ("run.tile_height", "tile_height", int, str),
    ("run.jobs", "jobs", int, None),
    ("run.codec_specs", "codec_specs_path", str, str),
    ("run.bd_pairs", "bd_pairs", _bd_pairs,
     lambda pairs: ",".join(f"{a}:{b}" for a, b in pairs)),
    (_LADDER_KEY, "quality_ladders", int_list, _joined),
    ("downstream.classifiers", "classifiers",
     lambda raw: tuple(ClassifierKind(t.lower()) for t in split_list(raw)),
     lambda kinds: ",".join(k.value for k in kinds)),
    ("downstream.codec", "downstream_codec", str, str),
    ("downstream.qualities", "downstream_qualities", int_list, _joined),
    ("downstream.feature_height", "feature_height", int, str),
    ("downstream.train_fraction", "train_fraction", float, _float_text),
    ("downstream.split_seed", "split_seed", int, str),
    ("output.directory", "output_directory", str, str),
)
_PARSERS = {name: (attr, parse) for name, attr, parse, _show in CONFIG_KEYS}
_SECTIONS = {name.split(".", 1)[0] for name in _PARSERS}


def load_config(path) -> BenchConfig:
    try:
        text = _files.read_utf8(path)
    except FileNotFoundError:
        raise FormatError(f"config file not found: {path}") from None
    return parse_config(text)


def parse_config(text: str) -> BenchConfig:
    """Parse an INI config (see the module docstring) against ``CONFIG_KEYS``.
    Keys left out keep their ``BenchConfig`` defaults; an unknown section or
    key, an unparsable value or a rejected config raises ``FormatError``."""
    items = []
    for section, entries in ini_sections(text, "config").items():
        if section not in _SECTIONS:
            raise FormatError(f"unknown config section {section!r}")
        items += [(f"{section}.{key}", raw) for key, raw in entries.items()]
    return config_from_items(items)


def config_from_items(items, **fields) -> BenchConfig:
    """A ``BenchConfig`` from ``fields`` and the ``(section.key, text)`` pairs
    in ``items``, parsed through ``CONFIG_KEYS``; an unknown key, an
    unparsable value or a rejected config raises ``FormatError``."""
    kwargs = dict(fields)
    for name, raw in items:
        ladder = name.startswith(_LADDER_KEY)
        row = _LADDER_KEY if ladder else name
        if row not in _PARSERS:
            raise FormatError(f"unknown config key {name!r}")
        attr, parse = _PARSERS[row]
        try:
            value = parse(raw)
        except (ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"bad {name} value {raw!r}: {exc}") from None
        if ladder:
            kwargs.setdefault(attr, {})[name[len(_LADDER_KEY):]] = value
        else:
            kwargs[attr] = value
    try:
        return BenchConfig(**kwargs)
    except ValueError as exc:
        raise FormatError(f"bad config: {exc}") from None


def iter_corpus(config: BenchConfig) -> Iterator[GraspTrace]:
    """Yield the benchmark traces, synthetic or ingested, one at a time."""
    if config.dataset_kind == "ingest":
        directory = Path(config.ingest_directory)
        files = sorted(directory.glob("*.mptd"))
        if not files:
            raise FormatError(f"ingest directory has no .mptd files: {directory}")
        for f in files:
            yield load_trace(f)
        return
    profiles = {p.name: p for p in default_profiles()}
    for obj, pose, rep in itertools.product(config.objects, config.poses, range(config.reps)):
        yield generate_trace(profiles[obj], pose, config.plan,
                             sample_rate_hz=config.sample_rate_hz,
                             seed=stable_seed("trace", str(config.seed), obj, pose.name, str(rep)),
                             repetition_id=rep)


def build_corpus(config: BenchConfig) -> list[GraspTrace]:
    """Materialize the benchmark traces, synthetic or ingested."""
    return list(iter_corpus(config))


@dataclass
class TraceResult:
    """What coding one trace measured; the caller holds the (trace, codec,
    quality) item it asked for."""

    bits: int
    sub_samples: int
    mse_sum: float          # sum of squared errors over all samples
    msssim_weighted: float  # msssim * sample_count, summed over tiles
    recon: TactileImage | None = None

    @property
    def bpss(self) -> float:
        return bpss_of(self.bits, self.sub_samples)


@dataclass(frozen=True)
class CodecEntry:
    """One codec table row: its kind, its default quality ladder and its tile
    coder ``code(tile, quality) -> (payload bits, reconstruction)``; an
    external codec's row also holds the spec that its probe runs."""

    kind: CodecKind
    ladder: tuple[int, ...]
    code: Callable[[TactileImage, int | None], tuple[int, TactileImage]]
    spec: CodecSpec | None = None


def _tlc1_lossless(tile: TactileImage, _quality):
    blob = native.encode_lossless(tile)
    recon = native.decode_lossless(blob)
    if recon != tile:
        raise CodecIntegrityError("tlc1: lossless round trip mismatch")
    return blob.payload_bits, recon


def _tlc1_lossy(tile: TactileImage, quality):
    blob = native.encode_lossy(tile, quality)
    return blob.payload_bits, native.decode_lossy(blob)


def _external(spec: CodecSpec, tile: TactileImage, quality):
    blob, recon = run_external(spec, tile,
                               quality=quality if spec.kind is CodecKind.LOSSY else None)
    return blob.payload_bits, recon


TLC1_CODECS = {
    native.CODEC_ID_LOSSLESS: CodecEntry(CodecKind.LOSSLESS, (), _tlc1_lossless),
    native.CODEC_ID_LOSSY: CodecEntry(CodecKind.LOSSY, DEFAULT_LADDER, _tlc1_lossy),
}


def codec_table(specs_path=None) -> dict[str, CodecEntry]:
    """The built-in ``TLC1_CODECS`` rows, then one row per section of the
    codec spec file at ``specs_path`` (the bundled one when empty or None).
    A malformed spec file, or a section named after a built-in codec,
    raises ``FormatError``."""
    table = dict(TLC1_CODECS)
    for spec in load_codec_specs(specs_path or None):
        if spec.codec_id in table:
            raise FormatError(f"[{spec.codec_id}]: codec id {spec.codec_id!r} is built in")
        table[spec.codec_id] = CodecEntry(spec.kind, spec.quality_ladder,
                                          functools.partial(_external, spec), spec)
    return table


def probe_codecs(table: dict[str, CodecEntry], codec_ids,
                 want_kind: CodecKind | None = None) -> dict[str, ProbeResult]:
    """Probe each row of ``table`` that ``codec_ids`` names and that is of
    ``want_kind`` (any kind when None), once each, in request order.  A
    built-in row is always available; an external one runs ``probe`` on its
    spec.  An unknown id, or a request with no id of ``want_kind``, raises
    ``FormatError`` before any probe runs."""
    for cid in codec_ids:
        if cid not in table:
            raise FormatError(f"codec {cid!r} not found: neither built in "
                              "nor in the codec spec file")
    wanted = [cid for cid in dict.fromkeys(codec_ids) if want_kind in (None, table[cid].kind)]
    if not wanted:
        raise FormatError(f"no {want_kind.value} codec among {', '.join(codec_ids)}")
    return {cid: probe(table[cid].spec) if table[cid].spec
            else ProbeResult(cid, ProbeStatus.AVAILABLE) for cid in wanted}


def _resolve_codecs(config: BenchConfig, codec_ids, want_kind: CodecKind | None = None
                    ) -> tuple[dict[str, CodecEntry], list[ProbeResult]]:
    """The available rows of ``probe_codecs``, in request order, and the
    results of those that failed their probe; ``CodecUnavailableError``
    when every one failed."""
    table = codec_table(config.codec_specs_path)
    probed = probe_codecs(table, codec_ids, want_kind)
    skipped = [result for result in probed.values() if not result.available]
    if len(skipped) == len(probed):
        raise CodecUnavailableError("every requested codec is unavailable: " + "; ".join(
            f"{s.codec_id} ({s.status.value}) {s.detail}" for s in skipped))
    return {cid: table[cid] for cid, result in probed.items() if result.available}, skipped


def _with_rows_above(tile: TactileImage, previous: TactileImage, rows: int) -> TactileImage:
    return TactileImage(np.vstack([previous.pixels[-rows:], tile.pixels]))


class CodecRunner:
    """Codes traces tile by tile with the entries of a resolved codec table
    and totals the payload bits and distortion of each trace.

    With ``compute_msssim`` every tile's MS-SSIM is weighted by its sample
    count.  A tail tile shorter than the MS-SSIM window is scored on the
    trace's last ``MSSSIM_WINDOW`` rows, its reconstruction completed by the
    end of the previous tile's; its weight stays its own sample count.
    """

    def __init__(self, codecs: dict[str, CodecEntry], tile_height: int,
                 compute_msssim: bool = True):
        self.codecs = codecs
        self.tile_height = tile_height
        self.compute_msssim = compute_msssim

    def run_trace(self, trace: GraspTrace, codec_id: str, quality,
                  keep_recon: bool = False) -> TraceResult:
        code = self.codecs[codec_id].code
        bits = 0
        mse_sum = 0.0
        msssim_weighted = 0.0
        recon_tiles = []
        previous = None  # (tile, recon) before the current one
        for start, stop in tile_ranges(trace.frame_count, self.tile_height):
            tile = trace_to_image(trace, (start, stop))
            tile_bits, recon = code(tile, quality)
            bits += tile_bits
            diff = tile.pixels.astype(np.float64) - recon.pixels.astype(np.float64)
            mse_sum += float((diff * diff).sum())
            if self.compute_msssim:
                scored = (tile, recon)
                missing = MSSSIM_WINDOW - tile.height
                if missing > 0 and previous is not None:
                    scored = (_with_rows_above(tile, previous[0], missing),
                              _with_rows_above(recon, previous[1], missing))
                msssim_weighted += ms_ssim(*scored) * tile.sample_count
                previous = (tile, recon)
            if keep_recon:
                recon_tiles.append(recon.pixels)
        recon_image = (
            TactileImage(np.vstack(recon_tiles)) if keep_recon else None
        )
        return TraceResult(bits, trace.sub_sample_count, mse_sum, msssim_weighted, recon_image)


_pool_work = None  # (items, worker), set only inside a pool's worker processes


def _set_pool_work(items, worker):
    global _pool_work
    _pool_work = (items, worker)


def _run_pool_item(index: int):
    items, worker = _pool_work
    return worker(items[index])


def _parallel_results(items, worker, jobs: int) -> list:
    """``[worker(item) for item in items]``, on up to ``jobs`` worker processes.

    Processes, because the TLC1 range coder is plain Python and holds the
    GIL, so threads would code one item at a time.  Forked, because the suites'
    workers are lambdas and closures that pickle cannot send: each process
    inherits ``items`` and ``worker``, only item indices go out and only
    results come back, in order.  An exception raised in a worker re-raises
    here with its own type.  Where ``fork`` does not exist the items run
    serially.  Forking copies only the calling thread, so call this from a
    process whose other threads hold no lock a worker needs.
    """
    if jobs > 1 and len(items) > 1:
        # imported here, so that serial runs do not load multiprocessing
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            with ProcessPoolExecutor(max_workers=min(jobs, len(items)),
                                     mp_context=multiprocessing.get_context("fork"),
                                     initializer=_set_pool_work,
                                     initargs=(items, worker)) as pool:
                return list(pool.map(_run_pool_item, range(len(items))))
    return [worker(item) for item in items]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


@dataclass
class BenchReport:
    header: list[tuple[str, str]]
    cells: list[dict] = field(default_factory=list)
    skipped: list[ProbeResult] = field(default_factory=list)
    rd_curves: dict = field(default_factory=dict)
    bd_rows: list[dict] = field(default_factory=list)
    accuracy_rows: list[dict] = field(default_factory=list)


def _report_header(config: BenchConfig) -> list[tuple[str, str]]:
    return [
        ("tool", f"taccompress {__version__}"),
        ("numpy", np.__version__),
    ] + config.resolved_items()


def _take_corpus(config: BenchConfig, corpus) -> list[GraspTrace]:
    """The caller's corpus, else the config's; ``FormatError`` when empty."""
    corpus = corpus if corpus is not None else build_corpus(config)
    if not corpus:
        raise FormatError("empty corpus")
    return corpus


def run_lossless_suite(config: BenchConfig, corpus=None) -> BenchReport:
    """Compress every trace with every requested lossless codec and tabulate
    bpss / CR per object and pose, Table-1 style."""
    table, skipped = _resolve_codecs(config, config.codecs, CodecKind.LOSSLESS)
    corpus = _take_corpus(config, corpus)
    runner = CodecRunner(table, config.tile_height, compute_msssim=False)
    items = [(trace, cid, None) for cid in table for trace in corpus]
    results = _parallel_results(items, lambda it: runner.run_trace(*it), config.worker_count())

    by_cell = {}
    for (trace, cid, _quality), res in zip(items, results):
        by_cell.setdefault((trace.object_label, trace.pose_label, cid), []).append(res)

    cells = []
    for (obj, pose, cid) in sorted(by_cell, key=lambda k: (k[0], k[1].value, k[2])):
        group = by_cell[(obj, pose, cid)]
        mean_bpss = _mean(r.bpss for r in group)
        cells.append(
            {
                "object": obj,
                "pose": pose.name.lower(),
                "codec": cid,
                "bpss": mean_bpss,
                "cr": compression_ratio(mean_bpss),
                "traces": len(group),
                "bits": sum(r.bits for r in group),
            }
        )
    return BenchReport(header=_report_header(config), cells=cells, skipped=skipped)


def run_lossy_suite(config: BenchConfig, corpus=None) -> BenchReport:
    """Sweep each lossy codec across its quality ladder and aggregate RD
    points over the corpus; compute BD-rate for every requested pair.  A
    pair naming a codec that is not a requested lossy codec is rejected
    before the corpus exists; a pair whose codec failed its probe gets BD
    rows with no value and a ``skipped:`` note."""
    table, skipped = _resolve_codecs(config, config.codecs, CodecKind.LOSSY)
    unavailable = {s.codec_id: s for s in skipped}
    strays = [cid for pair in config.bd_pairs for cid in pair
              if cid not in table and cid not in unavailable]
    if strays:
        raise FormatError(f"BD pair codecs {strays} are not lossy codecs of this run")
    corpus = _take_corpus(config, corpus)
    rows = min(config.tile_height, *(t.frame_count for t in corpus))
    if rows < MSSSIM_WINDOW:
        raise FormatError(f"MS-SSIM needs tiles and traces of {MSSSIM_WINDOW} rows, not {rows}")
    runner = CodecRunner(table, config.tile_height, compute_msssim=True)
    items = [(trace, cid, quality) for cid, entry in table.items()
             for quality in config.quality_ladders.get(cid, entry.ladder) for trace in corpus]
    results = _parallel_results(items, lambda it: runner.run_trace(*it), config.worker_count())

    by_point = {}
    for (_trace, cid, quality), res in zip(items, results):
        by_point.setdefault((cid, quality), []).append(res)

    cells = []
    curve_points = {}
    for (cid, quality) in sorted(by_point):
        group = by_point[(cid, quality)]
        bits = sum(r.bits for r in group)
        samples = sum(r.sub_samples for r in group)
        rate = bpss_of(bits, samples)
        mse = sum(r.mse_sum for r in group) / samples
        point_psnr = math.inf if mse == 0 else 10.0 * math.log10(255.0**2 / mse)
        point_msssim = sum(r.msssim_weighted for r in group) / samples
        cells.append(
            {
                "object": "*",
                "pose": "*",
                "codec": cid,
                "quality": quality,
                "bpss": rate,
                "cr": compression_ratio(rate),
                "psnr": point_psnr,
                "msssim": point_msssim,
                "bits": bits,
            }
        )
        curve_points.setdefault(cid, []).append(
            (quality, RDPoint(bpss=rate, psnr_db=point_psnr, ms_ssim=point_msssim))
        )

    # a curve keeps the first point at each rate; the cells keep them all
    rd_curves, dropped = {}, {}
    for cid, points in curve_points.items():
        points = sorted(points, key=lambda qp: qp[1].bpss)
        deduped = [points[0][1]]
        for quality, p in points[1:]:
            if p.bpss > deduped[-1].bpss:
                deduped.append(p)
            else:
                dropped.setdefault(cid, []).append(f"{cid}@{quality}")
        rd_curves[cid] = RDCurve(codec_id=cid, points=tuple(deduped))

    bd_rows = []
    for ref_id, test_id in config.bd_pairs:
        context = SCC_REFERENCE_CONTEXT.get((ref_id, test_id), "")
        pair = dict.fromkeys((ref_id, test_id))
        equal_rate = [p for cid in pair for p in dropped.get(cid, ())]
        absent = [f"skipped: {cid} {unavailable[cid].status.value}" if cid in unavailable
                  else f"skipped: {cid} has no quality ladder"
                  for cid in pair if cid not in rd_curves]
        for metric in (QualityMetric.PSNR, QualityMetric.MSSSIM):
            # a skipped codec, or a metric variant whose curve is not
            # strictly monotone in quality, is recorded rather than
            # crashing the run
            notes = [f"dropped equal-rate points {' '.join(equal_rate)}"] if equal_rate else []
            value = None
            if absent:
                notes += absent
            else:
                try:
                    value = bd_rate(rd_curves[ref_id], rd_curves[test_id], metric)
                except ValueError as exc:
                    notes.append(f"rejected: {exc}")
            note = "; ".join(notes)
            bd_rows.append(
                {
                    "reference": ref_id,
                    "test": test_id,
                    "metric": metric.value,
                    "bd_rate_percent": value,
                    "context": context,
                    "note": note,
                }
            )

    return BenchReport(header=_report_header(config), cells=cells, skipped=skipped,
                       rd_curves=rd_curves, bd_rows=bd_rows)


def run_downstream_suite(config: BenchConfig, corpus=None) -> BenchReport:
    """Classify objects from raw and compressed features, Table-2 style.
    Every quality is coded in one pool call, whose workers return each
    trace's rate and features rather than its reconstruction."""
    cid = config.downstream_codec
    table, _skipped = _resolve_codecs(config, (cid,))
    corpus = _take_corpus(config, corpus)
    labels = tuple(t.object_label for t in corpus)
    runner = CodecRunner(table, config.tile_height, compute_msssim=False)

    def accuracy_row(source, quality, rate, features):
        train, test = split(FeatureMatrix(rows=np.stack(features), labels=labels),
                            config.train_fraction, config.split_seed)
        row = {"source": source, "quality": "" if quality is None else quality,
               "bpss": rate}
        for kind in config.classifiers:
            clf = train_classifier(kind, train, seed=config.split_seed)
            row[kind.value] = accuracy(predict(clf, test.rows), test.labels)
        return row

    def rate_and_features(item):
        result = runner.run_trace(*item, keep_recon=True)
        return result.bpss, featurize(result.recon, config.feature_height)

    rows = [accuracy_row("raw", None, 8.0, [featurize(trace_to_image(t), config.feature_height)
                                            for t in corpus])]
    qualities = sorted(config.downstream_qualities)
    items = [(trace, cid, quality) for quality in qualities for trace in corpus]
    results = _parallel_results(items, rate_and_features, config.worker_count())
    for i, quality in enumerate(qualities):
        coded = results[i * len(corpus):(i + 1) * len(corpus)]
        rows.append(accuracy_row(f"{cid}@{quality}", quality, _mean(r for r, _ in coded),
                                 [f for _, f in coded]))

    rows.sort(key=lambda r: -r["bpss"])  # raw (8.0) first, then descending rate
    return BenchReport(header=_report_header(config), accuracy_rows=rows)


def write_csv(path: Path, header_lines: list[str], columns: list[str], rows) -> Path:
    """Write a report CSV as UTF-8: ``#`` header lines, then the column row
    and ``rows``.  Creates the report directory."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    _files.write(path, buf.getvalue().encode("utf-8"))
    return path


def _header_lines(report: BenchReport) -> list[str]:
    lines = [f"{k} = {v}" for k, v in report.header]
    for skip in report.skipped:
        lines.append(f"skipped: {skip.codec_id} ({skip.status.value}) {skip.detail}")
    return lines


def write_lossless_report(report: BenchReport, out_dir) -> list[Path]:
    out = Path(out_dir)
    header = _header_lines(report)
    codecs = sorted({c["codec"] for c in report.cells})

    cell_rows = [
        [c["object"], c["pose"], c["codec"], c["traces"], c["bits"],
         format_metric(c["bpss"]), format_metric(c["cr"])]
        for c in report.cells
    ]
    cells_path = write_csv(out / "lossless_cells.csv", header,
                            ["object", "pose", "codec", "traces", "bits", "bpss", "cr"],
                            cell_rows)

    def mean_bpss(key=None, name=None):  # per codec, over the matching cells
        return [_mean(c["bpss"] for c in report.cells
                      if c["codec"] == cid and (key is None or c[key] == name))
                for cid in codecs]

    table_rows = [
        [key, name] + [format_metric(v) for v in mean_bpss(key, name)]
        for key in ("object", "pose")
        for name in sorted({c[key] for c in report.cells})
    ]
    average = mean_bpss()
    table_rows.append(["average", "bpss"] + [format_metric(v) for v in average])
    table_rows.append(["average", "cr"] + [format_metric(compression_ratio(v)) for v in average])
    return [cells_path,
            write_csv(out / "lossless_table.csv", header, ["kind", "name"] + codecs, table_rows)]


def write_lossy_report(report: BenchReport, out_dir) -> list[Path]:
    out = Path(out_dir)
    header = _header_lines(report)

    point_rows = [
        [c["codec"], c["quality"], format_metric(c["bpss"]), format_metric(c["cr"]),
         format_metric(c["psnr"]), format_metric(c["msssim"])]
        for c in report.cells
    ]
    paths = [write_csv(out / "rd_points.csv", header,
                        ["codec", "quality", "bpss", "cr", "psnr_db", "ms_ssim"], point_rows)]

    for cid, curve in sorted(report.rd_curves.items()):
        rows = [
            [format_metric(pt.bpss), format_metric(pt.psnr_db), format_metric(pt.ms_ssim)]
            for pt in curve.points
        ]
        paths.append(write_csv(out / f"rd_curve_{cid}.csv", header,
                                ["bpss", "psnr_db", "ms_ssim"], rows))

    if report.bd_rows:
        rows = [
            [r["reference"], r["test"], r["metric"],
             "" if r["bd_rate_percent"] is None else format_metric(r["bd_rate_percent"]),
             r["context"], r.get("note", "")]
            for r in report.bd_rows
        ]
        paths.append(write_csv(
            out / "bdrate.csv", header,
            ["reference", "test", "metric", "bd_rate_percent", "context", "note"], rows))
    return paths


def write_downstream_report(report: BenchReport, out_dir) -> list[Path]:
    out = Path(out_dir)
    header = _header_lines(report)
    classifier_cols = [
        k for k in report.accuracy_rows[0] if k not in ("source", "quality", "bpss")
    ] if report.accuracy_rows else []
    rows = [
        [r["source"], r["quality"], format_metric(r["bpss"])]
        + [format_metric(r[c]) for c in classifier_cols]
        for r in report.accuracy_rows
    ]
    return [write_csv(out / "downstream_accuracy.csv", header,
                       ["source", "quality", "bpss"] + classifier_cols, rows)]
