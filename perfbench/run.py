"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload lossless --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the last line holds the end-to-end metrics (set-up time,
campaign wall time, bpss, peak RSS); with ``--trace 1`` the same campaign
runs with every layer wrapped in spans and the line holds per-layer metrics.
The campaign repeats in whole rounds until ``--seconds`` would be exceeded.
Generated corpora, reports and span files go to ``perfbench/_work``.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

_T0 = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except OSError:
        return 0.0
    return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))


_AGE_AT_T0 = _process_age()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    """Import taccompress from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT))
    sys.path.insert(0, str(SRC))
    try:
        import taccompress
    except ImportError as exc:
        print(f"perfbench: cannot import taccompress from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in Path(taccompress.__file__).resolve().parents:
        print(f"perfbench: taccompress came from {taccompress.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_round(workload, tracer):
    """One round of every step; returns (outputs, failed operation count)."""
    outputs, failed = {}, 0
    for name, ops, step in workload.steps():
        try:
            outputs.update(step(tracer))
        except Exception:  # a raising suite fails all of its passes; keep measuring
            traceback.print_exc(file=sys.stderr)
            print(f"perfbench: step {name} failed, {ops} operations", file=sys.stderr)
            failed += ops
    return outputs, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads: with two pool workers the
    # process never runs more busy threads than the machine's two CPUs.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _import_program()
    from perfbench import checks, tracing, workloads
    from taccompress import rangecoder

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"perfbench: numba kernels {'on' if rangecoder.HAVE_NUMBA else 'off (plain Python)'}",
          file=sys.stderr)

    workdir = ROOT / "perfbench" / "_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()

    with tracing.instrument(tracer) if args.trace else contextlib.nullcontext():
        workload.setup(args.seed, Path(os.path.relpath(workdir)))
        setup_s = _AGE_AT_T0 + (time.perf_counter() - _T0)
        ops_per_round = sum(ops for _, ops, _ in workload.steps())
        round_s, round_cpu, round_files = [], [], []
        attempted = failed = 0
        last_good = None
        first = time.perf_counter()
        while True:
            tracer.phase = len(round_s)
            cpu0, t0 = time.process_time(), time.perf_counter()
            outputs, round_failed = run_round(workload, tracer)
            round_s.append(time.perf_counter() - t0)
            round_cpu.append(time.process_time() - cpu0)
            print(f"perfbench: round {len(round_s)}: {round_s[-1]:.3f} s wall, "
                  f"{round_cpu[-1]:.3f} s CPU", file=sys.stderr)
            attempted += ops_per_round
            failed += round_failed
            if not round_failed:
                last_good = outputs
                round_files.append({p.name: p.read_bytes() for p in outputs["paths"]})
            if time.perf_counter() - first + max(round_s) > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if last_good is None:
        print("perfbench: every round had a failed step; nothing to check", file=sys.stderr)
        return 2
    problems = workload.check(last_good) + checks.identical_rounds(round_files)
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)

    if args.trace:
        tracer.dump(workdir / "spans.jsonl")
        values = tracing.layer_metrics(tracer, len(round_s), round_s, round_cpu)
        metrics = {name: {"value": v, "unit": tracing.unit_of(name)}
                   for name, v in values.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(round_s), "unit": "s"},
            "bpss": {"value": workload.bpss(last_good), "unit": "bit/subsample"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
