#!/usr/bin/env python3
"""Benchmark of spikeradar: training, quantized classification, radar front end.

    python3 bench/run.py --workload {train,classify,dsp} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; it imports the package from ./src and
writes its scratch files under ./.bench_out. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the run wraps the package's functions and reports the per-layer
ones instead, and writes its spans to .bench_out/<workload>/spans.jsonl.
See bench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# One BLAS thread in this process and in every child: the training step is
# bound by elementwise work, not GEMMs, and one thread keeps runs steady on a
# shared 2-core machine. The allocator keeps its defaults, so every run pays
# the page faults of the program's fresh temporaries, as a user does.
RUN_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "classify", "dsp"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def layer_metrics(run, tracer) -> dict:
    """Per-layer figures: set-up spans per set-up, the rest per round."""
    from tracer import IM2COL, span_names

    units = {"setup": len(run.setup_times), "run": run.rounds}
    totals = {phase: tracer.totals(phase) for phase in units}
    out = {}
    for name in span_names():
        ms = self_ms = calls = 0.0
        for phase, n in units.items():
            incl, own, count = totals[phase].get(name, (0.0, 0.0, 0))
            ms += incl * 1e3 / n
            self_ms += own * 1e3 / n
            calls += count / n
        out[f"{name}.ms"] = (ms, "ms")
        out[f"{name}.self_ms"] = (self_ms, "ms")
        out[f"{name}.calls"] = (calls, "count")
    out[IM2COL + ".bytes"] = (tracer.im2col_bytes / run.rounds, "bytes")
    spikes = run.extra.get("spikes", [0.0] * 4)
    for layer, mean in zip(("input", "sigma1", "sigma2", "sigma3"), spikes):
        out[f"spikes.{layer}"] = (mean, "count")
    imports = run.cli_import_s
    out["cli.import_ms"] = (statistics.median(imports) * 1e3 if imports else 0.0, "ms")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spikeradar", "__init__.py")):
        print(f"error: no spikeradar package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(RUN_ENV)
    pythonpath = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + pythonpath if pythonpath else "")
    sys.path[:0] = [SRC, BENCH_DIR]

    import spikeradar

    if os.path.dirname(os.path.abspath(spikeradar.__file__)) != os.path.join(SRC, "spikeradar"):
        print(f"error: imported spikeradar from {spikeradar.__file__}", file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import WORKLOADS, BenchError, Run

    out_dir = os.path.join(ROOT, ".bench_out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    run = Run(args.seed, args.seconds, out_dir, tracer)
    try:
        metrics = WORKLOADS[args.workload](run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for line in run.errors + run.problems:
            print(f"  {line}", file=sys.stderr)
        return 1
    summary = {"workload": args.workload, "seed": args.seed, "rounds": run.rounds,
               "end_to_end": {k: v[0] for k, v in metrics.items()},
               "problems": run.problems, "errors": run.errors,
               "cli_s": run.cli_times, "setup_times_s": run.setup_times, **run.extra}
    if tracer:
        tracer.dump(os.path.join(out_dir, "spans.jsonl"))
        summary["missing"] = tracer.missing
        metrics = layer_metrics(run, tracer)
        for name in tracer.missing:
            print(f"missing: {name} (reported as 0)", file=sys.stderr)
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    for line in run.errors:
        print(f"failed: {line}", file=sys.stderr)
    for line in run.problems:
        print(f"wrong: {line}", file=sys.stderr)
    print(json.dumps(summary["end_to_end"]), file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
