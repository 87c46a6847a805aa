"""Command-line entry point.

Subcommands: synth, dsp udoppler, dsp rangedoppler, encode ttfs, train,
infer, energy, dataset info, plot. Every artifact-producing run writes a
RunRecord JSON next to its outputs (full resolved config, seed, input
digests, timings). Exit codes: 0 success, 2 invalid input, 3 corrupt
dataset, 1 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .container import file_digest, read_tensor
from .data import (
    dataset_info,
    encode_examples,
    export_dataset,
    ingest_external,
    read_payload,
    synth_class_names,
    synth_udoppler,
    write_payload,
)
from .encoding import SpikeTensor, ttfs_encode
from .energy import HardwareProfile, report_for_dataset
from .errors import CorruptDataset, InvalidInput, SpikeRadarError
from .plots import (
    export_map_pgm,
    export_sequence_pgms,
    export_spike_pgms,
    write_loss_csv,
)
from .rangedoppler import RangeDopplerSequence, binarize, temporal_subsample
from .snn import forward, init_model, load_model, save_model
from .training import TrainConfig, train
from .udoppler import (
    MicroDopplerMap,
    RadarCube,
    StftConfig,
    process_cube,
)

log = logging.getLogger("spikeradar")


def _run_record(out_target, subcommand, args, inputs, seed, started):
    """Write the reproducibility record next to the run's outputs."""
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    record = {
        "format": "spikeradar-run-record",
        "version": 1,
        "subcommand": subcommand,
        "resolved_args": resolved,
        "seed": seed,
        "tool_version": __version__,
        "input_digests": {p: file_digest(p) for p in inputs if os.path.isfile(p)},
        "wall_time_s": round(time.monotonic() - started, 3),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    }
    if os.path.isdir(out_target):
        path = os.path.join(out_target, "run_record.json")
    else:
        path = str(out_target) + ".run.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, sort_keys=True, indent=1)
        f.write("\n")
    log.debug("run record written to %s", path)


def _cmd_synth(args):
    started = time.monotonic()
    examples = synth_udoppler(
        n_per_class=args.per_class,
        n_classes=args.classes,
        seed=args.seed,
        noise_amp=args.noise,
    )
    os.makedirs(args.out, exist_ok=True)
    export_dataset(
        examples,
        args.out,
        class_names=synth_class_names(args.classes),
        provenance={"kind": "synthetic", "seed": args.seed,
                    "generator": "synth_udoppler", "noise_amp": args.noise},
    )
    print(f"wrote {len(examples)} examples "
          f"({args.classes} classes x {args.per_class}) to {args.out}")
    _run_record(args.out, "synth", args, [], args.seed, started)
    return 0


def _cmd_dsp_udoppler(args):
    started = time.monotonic()
    values, header = read_tensor(args.input)
    if header["dtype"] != "f32" or values.ndim != 2:
        raise InvalidInput(
            f"{args.input}: expected a 2-D f32 cube (chirps x fast-time)"
        )
    if args.chirps_per_frame < 1:
        raise InvalidInput(
            f"--chirps-per-frame must be >= 1, got {args.chirps_per_frame}"
        )
    if values.shape[0] % args.chirps_per_frame:
        raise InvalidInput(
            f"{values.shape[0]} chirps not divisible by "
            f"--chirps-per-frame {args.chirps_per_frame}"
        )
    cube = RadarCube(
        samples=values.astype(np.float64),
        n_chirps_per_frame=args.chirps_per_frame,
        n_frames=values.shape[0] // args.chirps_per_frame,
    )
    try:
        gesture_bin = None if args.range_bin == "auto" else int(args.range_bin)
    except ValueError:
        raise InvalidInput(
            f"--range-bin must be an integer or 'auto', got {args.range_bin!r}"
        ) from None
    maps = process_cube(
        cube,
        cfg=StftConfig(window_len=args.window, hop=args.hop),
        gesture_bin=gesture_bin,
        fft_len=args.fft_len,
        band=(args.band[0], args.band[1]),
        top_k=args.topk,
        segment_len=args.segment,
        head_tail_trim=args.trim,
    )
    os.makedirs(args.out, exist_ok=True)
    index = []
    for i, m in enumerate(maps):
        fname = f"map{i:05d}.bin"
        write_payload(os.path.join(args.out, fname), m)
        index.append(fname)
        if args.export_pgm:
            export_map_pgm(m.values, args.out, f"map{i:05d}")
    with open(os.path.join(args.out, "maps_index.json"), "w",
              encoding="utf-8") as f:
        json.dump({"format": "spikeradar-maps-index", "version": 1,
                   "source": os.path.basename(args.input), "maps": index},
                  f, sort_keys=True, indent=1)
        f.write("\n")
    print(f"wrote {len(maps)} uDoppler segment maps to {args.out}")
    _run_record(args.out, "dsp udoppler", args, [args.input], None, started)
    return 0


def _cmd_dsp_rangedoppler(args):
    started = time.monotonic()
    seq = read_payload(args.input, RangeDopplerSequence)
    write_payload(args.out, binarize(temporal_subsample(seq, args.tinf)))
    print(f"wrote binary sequence ({args.tinf} steps) to {args.out}")
    _run_record(args.out, "dsp rangedoppler", args, [args.input], None, started)
    return 0


def _cmd_encode_ttfs(args):
    started = time.monotonic()
    if os.path.isdir(args.input):
        examples, manifest = ingest_external(args.input)
        bits, _ = encode_examples(examples, t_inf=args.tinf)
        os.makedirs(args.out, exist_ok=True)
        encoded = [
            dataclasses.replace(ex, payload=SpikeTensor(bits=bits[i]))
            for i, ex in enumerate(examples)
        ]
        export_dataset(encoded, args.out, class_names=manifest.class_names,
                       provenance={**manifest.provenance,
                                   "encoded_from": manifest.pipeline,
                                   "t_inf": args.tinf})
        print(f"encoded {len(encoded)} examples to spike tensors in {args.out}")
        _run_record(args.out, "encode ttfs", args, [], None, started)
    else:
        m = read_payload(args.input, MicroDopplerMap)
        tensor = ttfs_encode(m, t_inf=args.tinf)
        write_payload(args.out, tensor)
        print(f"wrote spike tensor ({tensor.total_spikes()} spikes, "
              f"{args.tinf} steps) to {args.out}")
        _run_record(args.out, "encode ttfs", args, [args.input], None, started)
    return 0


def _cmd_train(args):
    started = time.monotonic()
    examples, manifest = ingest_external(args.dataset, t_inf=args.tinf)
    bits, labels = encode_examples(examples, t_inf=args.tinf)
    n_classes = len(manifest.class_names)
    template = init_model(
        input_shape=tuple(bits.shape[2:]),
        n_classes=n_classes,
        t_inf=args.tinf,
        seed=args.seed,
        hidden=args.hidden,
    )
    cfg = TrainConfig(
        lr=args.lr, batch=args.batch, epochs_full=args.epochs,
        epochs_qat=args.qat_epochs, folds=args.folds, seed=args.seed,
        bits=args.bits,
    )
    log.info("training on %d examples, %d classes, t_inf=%d",
             bits.shape[0], n_classes, args.tinf)
    model, report = train(template, (bits, labels), cfg)
    save_model(model, args.out)
    with open(args.out + ".report.json", "w", encoding="utf-8") as f:
        f.write(report.to_json())
        f.write("\n")
    write_loss_csv(report.loss_curves, args.out + ".losses.csv")
    accs = ", ".join(f"{a:.3f}" for a in report.fold_accuracies)
    print(f"fold accuracies: [{accs}]")
    print(f"mean accuracy: {report.mean_accuracy:.4f} "
          f"+- {report.std_accuracy:.4f}")
    print(f"model written to {args.out}")
    _run_record(args.out, "train", args, [], args.seed, started)
    return 0


def _cmd_infer(args):
    started = time.monotonic()
    model = load_model(args.model)
    tensor = read_payload(args.input, SpikeTensor)
    probs, trace = forward(model, tensor, use_quantized=args.quantized)
    predicted = int(np.argmax(probs))
    print(f"predicted class: {predicted}")
    print("probabilities: " + " ".join(f"{p:.4f}" for p in probs))
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "format": "spikeradar-trace",
                    "version": 1,
                    "predicted": predicted,
                    "probabilities": probs.tolist(),
                    "accumulator": trace.accumulator.tolist(),
                    "spike_counts": trace.spike_counts,
                    "total_spikes": sum(trace.spike_counts.values()),
                    "quantized": bool(args.quantized),
                },
                f, sort_keys=True, indent=1,
            )
            f.write("\n")
        _run_record(args.trace, "infer", args, [args.model, args.input],
                    None, started)
    return 0


def _cmd_energy(args):
    started = time.monotonic()
    model = load_model(args.model)
    examples, _ = ingest_external(args.dataset)
    bits, _ = encode_examples(examples, t_inf=model.t_inf)
    if args.deltat is None:
        hw = HardwareProfile.for_t_inf(model.t_inf, e_dyn=args.edyn,
                                       p_stat=args.pstat)
    else:
        hw = HardwareProfile(e_dyn=args.edyn, p_stat=args.pstat,
                             delta_t=args.deltat)
    report = report_for_dataset(
        model, bits, hw, include_input_spikes=not args.exclude_input
    )
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(report.to_json())
        f.write("\n")
    print(f"max spikes/classification: {report.n_spikes_max}")
    print(f"E_c at max spikes: {report.e_c_max * 1e9:.2f} nJ "
          f"(static floor {report.static_floor * 1e9:.2f} nJ)")
    print(f"report written to {args.out}")
    _run_record(args.out, "energy", args, [args.model], None, started)
    return 0


def _cmd_dataset_info(args):
    manifest = dataset_info(args.dir)
    counts = manifest.per_class_counts()
    print(f"pipeline: {manifest.pipeline}")
    print(f"classes: {len(manifest.class_names)}")
    for i, name in enumerate(manifest.class_names):
        print(f"  [{i}] {name}: {counts.get(i, 0)} examples")
    print(f"total examples: {len(manifest.entries)}")
    print(f"balanced: {manifest.balanced}")
    prov = ", ".join(f"{k}={v}" for k, v in sorted(manifest.provenance.items()))
    print(f"provenance: {prov or 'unknown'}")
    return 0


def _cmd_plot(args):
    started = time.monotonic()
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.input))[0]
    if args.input.endswith(".json"):
        with open(args.input, encoding="utf-8") as f:
            try:
                payload = json.load(f)
            except ValueError as exc:  # malformed JSON or not UTF-8
                raise InvalidInput(f"{args.input}: not valid JSON: {exc}") from exc
        curves = payload.get("loss_curves") if isinstance(payload, dict) else None
        if not (isinstance(curves, list) and all(isinstance(c, list) for c in curves)
                and all(type(x) in (int, float) for c in curves for x in c)):
            raise InvalidInput(
                f"{args.input}: no loss_curves (lists of numbers) to export"
            )
        path = os.path.join(args.out, f"{stem}_losses.csv")
        write_loss_csv(curves, path)
        written = [path]
    else:
        values, header = read_tensor(args.input)
        if values.size == 0 or np.iscomplexobj(values) or not np.isfinite(values).all():
            raise InvalidInput(f"{args.input}: nothing to plot: empty, complex or non-finite")
        if header["dtype"] == "f32" and values.ndim == 2:
            top = values.max()
            scaled = values / top if top > 1.0 else values
            written = export_map_pgm(scaled, args.out, stem)
        elif values.ndim == 3:
            written = export_sequence_pgms(values, args.out, stem)
        elif header["dtype"] == "u1" and values.ndim == 4:
            written = export_spike_pgms(values, args.out, stem)
        else:
            raise InvalidInput(
                f"{args.input}: no plot export for dtype {header['dtype']} "
                f"rank {values.ndim}"
            )
    print(f"wrote {len(written)} file(s) to {args.out}")
    _run_record(args.out, "plot", args, [args.input], None, started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikeradar",
        description="Radar gesture recognition with quantized spiking networks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--verbose", action="store_true",
                        help="debug-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic uDoppler dataset")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--per-class", type=int, default=120)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--noise", type=float, default=0.4,
                   help="background noise amplitude")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_synth)

    dsp = sub.add_parser("dsp", help="signal-processing pipelines")
    dsp_sub = dsp.add_subparsers(dest="dsp_command", required=True)

    p = dsp_sub.add_parser("udoppler",
                           help="radar cube -> normalized uDoppler maps")
    p.add_argument("--input", required=True, metavar="CUBE",
                   help="f32 container, chirps x fast-time")
    p.add_argument("--range-bin", default="auto", metavar="K",
                   help="gesture range bin, or 'auto' for max energy")
    p.add_argument("--chirps-per-frame", type=int, default=192)
    p.add_argument("--window", type=int, default=192, help="STFT window s")
    p.add_argument("--hop", type=int, default=8, help="STFT hop R")
    p.add_argument("--band", type=float, nargs=2, default=(-0.26, 0.26),
                   metavar=("LOW", "HIGH"))
    p.add_argument("--topk", type=int, default=48)
    p.add_argument("--segment", type=int, default=48)
    p.add_argument("--trim", type=int, default=6)
    p.add_argument("--fft-len", type=int, default=None)
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--export-pgm", action="store_true")
    p.set_defaults(func=_cmd_dsp_udoppler)

    p = dsp_sub.add_parser("rangedoppler",
                           help="magnitude sequence -> binary sequence")
    p.add_argument("--input", required=True, metavar="SEQ")
    p.add_argument("--tinf", type=int, default=28)
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_dsp_rangedoppler)

    enc = sub.add_parser("encode", help="spike encoders")
    enc_sub = enc.add_subparsers(dest="encode_command", required=True)
    p = enc_sub.add_parser("ttfs", help="time-to-first-spike encoding")
    p.add_argument("--input", required=True,
                   help="map file or dataset directory")
    p.add_argument("--tinf", type=int, default=4)
    p.add_argument("--out", required=True,
                   help="tensor file or output directory")
    p.set_defaults(func=_cmd_encode_ttfs)

    p = sub.add_parser("train", help="k-fold cross-validation training")
    p.add_argument("--dataset", required=True, metavar="DIR")
    p.add_argument("--tinf", type=int, default=4)
    p.add_argument("--bits", type=int, default=4, choices=(4, 6))
    p.add_argument("--folds", type=int, default=6)
    p.add_argument("--epochs", type=int, default=14)
    p.add_argument("--qat-epochs", type=int, default=1)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hidden", type=int, default=128)
    p.add_argument("--out", required=True, metavar="MODEL")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", help="classify one spike tensor")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, metavar="TENSOR")
    p.add_argument("--quantized", action="store_true")
    p.add_argument("--trace", metavar="OUT", default=None,
                   help="write the forward trace as JSON")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("energy", help="energy-per-classification report")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True, metavar="DIR")
    p.add_argument("--edyn", type=float, default=2.1e-12,
                   help="energy per spike, joules")
    p.add_argument("--pstat", type=float, default=73e-6,
                   help="static power, watts")
    p.add_argument("--deltat", type=float, default=None,
                   help="inference time, seconds; default 1 ms per step")
    p.add_argument("--exclude-input", action="store_true",
                   help="count only IF layer spikes")
    p.add_argument("--out", required=True, metavar="REPORT")
    p.set_defaults(func=_cmd_energy)

    ds = sub.add_parser("dataset", help="dataset utilities")
    ds_sub = ds.add_subparsers(dest="dataset_command", required=True)
    p = ds_sub.add_parser("info", help="summarize a dataset directory")
    p.add_argument("dir")
    p.set_defaults(func=_cmd_dataset_info)

    p = sub.add_parser("plot", help="export maps/tensors as PGM, curves as CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except CorruptDataset as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidInput, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SpikeRadarError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
