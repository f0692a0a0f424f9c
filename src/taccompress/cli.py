"""Command-line surface.

Subcommands: simulate, convert, compress, decompress, metrics, bdrate,
probe-codecs, bench-lossless, bench-lossy, bench-downstream, cluster.
Exit codes: 0 success, 1 usage error, 2 data error, 3 codec error.
"""

import argparse
import csv
import dataclasses
import io
import sys
from pathlib import Path

import numpy as np

from . import __version__, _files, bench
from .adapters import split_list
from .analysis import adjusted_rand_index, featurize, kmeans, tsne_2d
from .codec import CODEC_ID_LOSSY, decode, encode_lossless, encode_lossy, read_blob, write_blob
from .errors import CodecError, FormatError
from .imaging import image_to_trace, read_ppm, trace_to_image, write_ppm
from .layout import GraspPose, default_layout
from .metrics import (
    QualityMetric,
    RDCurve,
    RDPoint,
    bandwidth_bits_per_second,
    bd_rate,
    bpss,
    compression_ratio,
    format_metric,
    ms_ssim,
    psnr,
)
from .simulate import PhasePlan
from .trace import load_trace, save_trace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CODEC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _pose_of(token: str) -> GraspPose:
    try:
        return GraspPose[token.upper()]
    except KeyError:
        raise FormatError(f"unknown pose {token!r}") from None


def _slug(name: str) -> str:
    return name.replace(" ", "_")


def _load_image(path: Path):
    if path.suffix == ".mptd":
        return trace_to_image(load_trace(path))
    return read_ppm(path)


def _save_image(image, path: Path, args):
    """Write ``image`` as PPM, or as an MPTD trace labelled by ``args``."""
    if path.suffix == ".mptd":
        save_trace(image_to_trace(image, default_layout(), sample_rate_hz=args.rate,
                                  object_label=args.object, pose_label=_pose_of(args.pose),
                                  repetition_id=args.rep), path)
    else:
        write_ppm(image, path)


def _cmd_simulate(args):
    items = (("dataset.objects", args.objects), ("dataset.poses", args.poses),
             ("dataset.plan_s", args.plan))
    fields = {"reps": args.reps, "sample_rate_hz": args.rate, "plan": PhasePlan(),
              "seed": args.seed}
    config = bench.config_from_items(
        [(name, raw) for name, raw in items if raw not in (None, "all")],
        **{k: v for k, v in fields.items() if v is not None})
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for trace in bench.iter_corpus(config):
        name = (f"{_slug(trace.object_label)}_{trace.pose_label.name.lower()}"
                f"_{trace.repetition_id}.mptd")
        save_trace(trace, out_dir / name)
        print(name)
    return EXIT_OK


def _cmd_convert(args):
    src, dst = Path(args.input), Path(args.output)
    if {src.suffix, dst.suffix} != {".mptd", ".ppm"}:
        raise FormatError("convert maps .mptd -> .ppm or .ppm -> .mptd")
    _save_image(_load_image(src), dst, args)
    print(dst)
    return EXIT_OK


def _cmd_compress(args):
    image = _load_image(Path(args.input))
    blob = encode_lossless(image) if args.qp is None else encode_lossy(image, args.qp)
    size = write_blob(blob, Path(args.output))
    rate = bpss(blob.payload_bits, image.sample_count)
    print(
        f"{args.output}: {size} bytes, bpss {format_metric(rate)}, "
        f"cr {format_metric(compression_ratio(rate))}"
    )
    return EXIT_OK


def _cmd_decompress(args):
    dst = Path(args.output)
    _save_image(decode(read_blob(Path(args.input))), dst, args)
    print(dst)
    return EXIT_OK


def _cmd_metrics(args):
    a = _load_image(Path(args.a))
    b = _load_image(Path(args.b))
    # every value is computed before any is printed, so an error prints none
    values = [("psnr_db", psnr(a, b)), ("ms_ssim", ms_ssim(a, b))]
    if args.bits is not None:
        rate = bpss(args.bits, a.sample_count)
        values += [("bpss", rate), ("cr", compression_ratio(rate)),
                   ("bandwidth_bits_per_s", bandwidth_bits_per_second(args.rate, a.width, rate))]
    for name, value in values:
        print(f"{name} = {format_metric(value)}")
    return EXIT_OK


def _read_curve(path: Path, codec_id: str) -> RDCurve:
    points = []
    lines = io.StringIO(_files.read_utf8(path), newline="")
    rows = [r for r in csv.reader(lines) if r and not r[0].startswith("#")]
    if not rows:
        raise FormatError(f"{path}: no header row")
    header = [c.strip().lower() for c in rows[0]]
    try:
        bi = header.index("bpss")
        pi = header.index("psnr_db")
        mi = header.index("ms_ssim")
    except ValueError:
        raise FormatError(f"{path}: need bpss, psnr_db, ms_ssim columns") from None
    for row in rows[1:]:
        if len(row) < len(header):
            raise FormatError(f"{path}: row {row} is shorter than the header")
        points.append(
            RDPoint(
                bpss=float(row[bi]),
                psnr_db=float(row[pi]),
                ms_ssim=float(row[mi]),
            )
        )
    points.sort(key=lambda p: p.bpss)
    return RDCurve(codec_id=codec_id, points=tuple(points))


def _cmd_bdrate(args):
    ref = _read_curve(Path(args.reference), "reference")
    test = _read_curve(Path(args.test), "test")
    metric = QualityMetric.PSNR if args.metric == "psnr" else QualityMetric.MSSSIM
    value = bd_rate(ref, test, metric)
    print(f"bd_rate_percent = {format_metric(value)}")
    return EXIT_OK


def _cmd_probe_codecs(args):
    table = bench.codec_table(args.specs)
    results = bench.probe_codecs(table, split_list(args.codecs or "") or list(table))
    print(f"{'codec':14s} {'kind':9s} {'status':12s} detail")
    for cid, result in results.items():
        print(f"{cid:14s} {table[cid].kind.value:9s} {result.status.value:12s} {result.detail}")
    return EXIT_OK


def _bench_config(args) -> bench.BenchConfig:
    config = bench.load_config(args.config) if args.config else bench.BenchConfig()
    overrides = {"output_directory": args.out or None, "jobs": args.jobs, "seed": args.seed}
    return dataclasses.replace(
        config, **{k: v for k, v in overrides.items() if v is not None})


_BENCH_SUITES = {
    "bench-lossless": (bench.run_lossless_suite, bench.write_lossless_report),
    "bench-lossy": (bench.run_lossy_suite, bench.write_lossy_report),
    "bench-downstream": (bench.run_downstream_suite, bench.write_downstream_report),
}


def _cmd_bench(args):
    config = _bench_config(args)
    if args.command == "bench-lossy" and args.config is None:
        # the default codecs are lossless: use TLC1's lossy one
        config = dataclasses.replace(config, codecs=(CODEC_ID_LOSSY,))
    run, write = _BENCH_SUITES[args.command]
    for path in write(run(config), config.output_directory):
        print(path)
    return EXIT_OK


def _cmd_cluster(args):
    config = _bench_config(args)
    corpus = bench.build_corpus(config)
    feats = np.stack(
        [featurize(trace_to_image(t), config.feature_height) for t in corpus]
    )
    labels = [t.object_label for t in corpus]
    embedding = tsne_2d(feats, perplexity=args.perplexity, seed=config.split_seed)
    k = len(set(labels))
    result = kmeans(embedding, k, seed=config.split_seed)
    ari = adjusted_rand_index(labels, result.assignments)
    rows = [
        [labels[i], format_metric(float(embedding[i, 0])),
         format_metric(float(embedding[i, 1])), int(result.assignments[i])]
        for i in range(len(labels))
    ]
    out = bench.write_csv(
        Path(config.output_directory) / "cluster_embedding.csv",
        [f"tool = taccompress {__version__}", f"k = {k}",
         f"adjusted_rand_index = {format_metric(ari)}"],
        ["label", "x", "y", "cluster"],
        rows,
    )
    print(out)
    print(f"adjusted_rand_index = {format_metric(ari)}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="taccompress", description=__doc__)
    parser.add_argument("--version", action="version", version=f"taccompress {__version__}")
    parser.add_argument("--seed", type=int, default=None, help="base seed for synthetic data")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (0 = usable CPUs)")
    parser.add_argument("--config", default=None, help="benchmark config file")
    parser.add_argument("--out", default=None, help="output directory or file")
    sub = parser.add_subparsers(dest="command", required=True)
    # the labels an image needs to become an MPTD trace
    labels = argparse.ArgumentParser(add_help=False)
    labels.add_argument("--object", default="")
    labels.add_argument("--pose", default="pinch")
    labels.add_argument("--rep", type=int, default=0)
    labels.add_argument("--rate", type=float, default=100.0)

    p = sub.add_parser("simulate", help="write synthetic .mptd traces")
    p.add_argument("--objects", default="all")
    p.add_argument("--poses", default="all")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--rate", type=float, default=100.0)
    p.add_argument("--plan", default=None, help="pre,ramp,lift,hold,decay seconds")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("convert", help="convert .mptd <-> .ppm", parents=[labels])
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("compress", help="compress an image/trace to a .tlc1 blob")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--qp", type=int, default=None, help="lossy quantization step (1..64)")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="decode a .tlc1 blob", parents=[labels])
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("metrics", help="PSNR / MS-SSIM between two images")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--bits", type=int, default=None, help="compressed bits for bpss/CR")
    p.add_argument("--rate", type=float, default=100.0)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("bdrate", help="BD-rate between two RD curve CSVs")
    p.add_argument("reference")
    p.add_argument("test")
    p.add_argument("--metric", choices=["psnr", "msssim"], default="psnr")
    p.set_defaults(func=_cmd_bdrate)

    p = sub.add_parser("probe-codecs", help="check codec availability")
    p.add_argument("--specs", default=None, help="codec spec file (default: bundled)")
    p.add_argument("--codecs", default=None, help="comma-separated codec ids")
    p.set_defaults(func=_cmd_probe_codecs)

    for name in _BENCH_SUITES:
        p = sub.add_parser(name, help=f"run the {name.replace('-', ' ')} suite")
        p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("cluster", help="t-SNE + k-means clustering of a corpus")
    p.add_argument("--perplexity", type=float, default=20.0)
    p.set_defaults(func=_cmd_cluster)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except CodecError as exc:
        print(f"codec error: {exc}", file=sys.stderr)
        return EXIT_CODEC
    except (FormatError, ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
