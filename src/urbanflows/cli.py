"""Command-line entry point.

Subcommands: synth, train-zone, train-config, generate, evaluate, trace.
Every output file embeds the effective run configuration so results can be
traced back to the exact settings that produced them.  All commands are
deterministic under a fixed seed and exit nonzero on any pipeline error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .checkpoint import read_header, rng_state_of, save_checkpoint
from .config_flow import quantize_config
from .errors import ConfigurationError, DataError, PipelineError, UrbanFlowsError
from .fileio import atomic_write
from .pipeline import (
    ModelBundle,
    check_dataset_dims,
    evaluate_model,
    format_report,
    generate_one,
    train_config_stage,
    train_zone_stage,
)
from .runconfig import RunConfig
from .render import render_config_ppm
from .synthdata import (
    build_info_vector,
    generate_sample,
    make_dataset,
    read_dataset,
    write_dataset,
)


def _overrides(pairs):
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigurationError(f"--set expects key=value, got {pair!r}")
        key, _, val = pair.partition("=")
        out[key.strip()] = val.strip()
    return out


def _load_run_config(args):
    return RunConfig.from_sources(getattr(args, "config", None),
                                  _overrides(getattr(args, "set", None)))


def _write_loss_log(path, rc, history):
    with atomic_write(path) as fh:
        fh.write("# urbanflows loss log\n")
        fh.write("# config " + json.dumps(rc.as_dict(), sort_keys=True) + "\n")
        for step, loss in history:
            fh.write(f"{step}\t{loss:.12f}\n")


def _bundle_from_checkpoint(path, overrides=None):
    try:
        header, payload = read_header(path)
    except FileNotFoundError:
        raise PipelineError(f"checkpoint not found: {path}")
    cfg_dict = dict(header["config"])
    for key, val in (overrides or {}).items():
        cfg_dict[key] = val
    rc = RunConfig.from_sources(None, cfg_dict)
    bundle = ModelBundle(rc)
    bundle.store.load_payload(header["manifest"], payload)
    return bundle, header


def cmd_synth(args):
    rc = _load_run_config(args)
    samples = make_dataset(args.count, rc.n, rc.m, rc.p, rc.seed)
    write_dataset(args.out, samples, rc.n, rc.m, rc.p)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def cmd_train_zone(args):
    rc = _load_run_config(args)
    samples, meta = read_dataset(args.dataset)
    check_dataset_dims(meta, rc)
    bundle = ModelBundle(rc)
    rng = np.random.default_rng(rc.seed)
    history = []
    fault = None
    try:
        history = train_zone_stage(bundle, samples, rng,
                                   log=lambda step, loss: history.append((step, loss)))
    except UrbanFlowsError as exc:
        fault = exc  # parameters were rolled back to the last good step
    save_checkpoint(args.out_ckpt, bundle.store, rc.as_dict(),
                    rng_state=rng_state_of(rng), extra={"stage": "zone"})
    _write_loss_log(args.out_ckpt + ".log", rc, history)
    if fault is not None:
        print(f"error: {fault} (last-good checkpoint written)", file=sys.stderr)
        return 1
    print(f"trained stage 1 for {len(history)} steps; wrote {args.out_ckpt}")
    return 0


def cmd_train_config(args):
    rc = _load_run_config(args)
    samples, meta = read_dataset(args.dataset)
    check_dataset_dims(meta, rc)
    bundle = ModelBundle(rc)
    try:
        header, payload = read_header(args.zone_ckpt)
    except FileNotFoundError:
        raise PipelineError(f"zone checkpoint not found: {args.zone_ckpt}")
    if header["manifest"] != bundle.store.manifest():
        raise ConfigurationError(
            "zone checkpoint was built with different model dimensions"
        )
    bundle.store.load_payload(header["manifest"], payload)
    rng = np.random.default_rng(rc.seed + 1)
    history = []
    fault = None
    try:
        history = train_config_stage(
            bundle, samples, rng,
            log=lambda step, loss, parts: history.append((step, loss)))
    except UrbanFlowsError as exc:
        fault = exc
    save_checkpoint(args.out_ckpt, bundle.store, rc.as_dict(),
                    rng_state=rng_state_of(rng), extra={"stage": "config"})
    _write_loss_log(args.out_ckpt + ".log", rc, history)
    if fault is not None:
        print(f"error: {fault} (last-good checkpoint written)", file=sys.stderr)
        return 1
    print(f"trained stage 2 for {len(history)} steps; wrote {args.out_ckpt}")
    return 0


def _context_for_generation(args, rc):
    if args.dataset is not None:
        if args.sample_id is None:
            raise ConfigurationError("--dataset requires --sample-id")
        samples, meta = read_dataset(args.dataset)
        check_dataset_dims(meta, rc)
        for s in samples:
            if s.id == args.sample_id:
                return s.context
        raise DataError(f"sample id {args.sample_id} not in {args.dataset}")
    seed = rc.seed if args.context_seed is None else args.context_seed
    return generate_sample(seed, rc.n, rc.m, rc.p, args.green_level).context


def _write_trace(path, trace, rc, gen_index, green_level):
    with atomic_write(path) as fh:
        head = {
            "format_version": 1,
            "kind": "config-trace",
            "generation": gen_index,
            "green_level": green_level,
            "steps": len(trace.steps),
            "config": rc.as_dict(),
        }
        fh.write(json.dumps(head, sort_keys=True) + "\n")
        for step_no, st in enumerate(trace.steps):
            rec = {
                "step": step_no,
                "layer_index": st.layer_index,
                "layer_type": st.layer_type,
                "histogram": st.histogram.tolist(),
                "state": st.state.tolist(),
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def cmd_generate(args, trace_flag=None):
    overrides = _overrides(getattr(args, "set", None))
    bundle, _ = _bundle_from_checkpoint(args.ckpt, overrides)
    rc = bundle.cfg
    if not 0 <= args.green_level < 5:
        raise DataError(f"green level {args.green_level} out of range [0, 4]")
    traced = args.trace if trace_flag is None else trace_flag
    context = _context_for_generation(args, rc)
    e = build_info_vector(context, args.green_level)[0]
    seed = rc.seed if args.seed is None else args.seed
    rng = np.random.default_rng(seed)
    os.makedirs(args.out_dir, exist_ok=True)
    records_path = os.path.join(args.out_dir, "configs.jsonl")
    with atomic_write(records_path) as fh:
        head = {
            "format_version": 1,
            "kind": "generated-configs",
            "green_level": args.green_level,
            "count": args.count,
            "config": rc.as_dict(),
        }
        fh.write(json.dumps(head, sort_keys=True) + "\n")
        for i in range(args.count):
            zm, ct, trace = generate_one(bundle, e, rng, trace=traced)
            rec = {
                "id": i,
                "green_level": args.green_level,
                "zones": zm.labels.ravel().tolist(),
                "config": ct.counts.ravel().tolist(),
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
            render_config_ppm(os.path.join(args.out_dir, f"gen{i:03d}.ppm"),
                              ct.counts)
            if traced:
                _write_trace(os.path.join(args.out_dir, f"gen{i:03d}.trace.jsonl"),
                             trace, rc, i, args.green_level)
                for step_no, st in enumerate(trace.steps):
                    step_ct = quantize_config(st.state, rc.n, rc.p)
                    render_config_ppm(
                        os.path.join(args.out_dir,
                                     f"gen{i:03d}.step{step_no:02d}.ppm"),
                        step_ct.counts)
    print(f"wrote {args.count} generations to {args.out_dir}")
    return 0


def cmd_evaluate(args):
    overrides = _overrides(getattr(args, "set", None))
    bundle, _ = _bundle_from_checkpoint(args.ckpt, overrides)
    rc = bundle.cfg
    samples, meta = read_dataset(args.dataset)
    check_dataset_dims(meta, rc)
    report = evaluate_model(bundle, samples, seed=rc.seed)
    for warning in report["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    text = format_report(report, rc.as_dict())
    with atomic_write(args.out) as fh:
        fh.write(text)
    print(text, end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="urbanflows",
        description="Dual-stage conditional normalizing flows for grid "
                    "land-use generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-zone", help="stage-1 training")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-ckpt", required=True)
    p.set_defaults(func=cmd_train_zone)

    p = sub.add_parser("train-config", help="stage-2 joint fine-tuning")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--zone-ckpt", required=True)
    p.add_argument("--out-ckpt", required=True)
    p.set_defaults(func=cmd_train_config)

    def generation_args(p):
        p.add_argument("--ckpt", required=True)
        p.add_argument("--green-level", type=int, required=True)
        p.add_argument("--count", type=int, default=1)
        p.add_argument("--out-dir", required=True)
        p.add_argument("--seed", type=int, default=None,
                       help="generation seed (default: checkpoint seed)")
        p.add_argument("--context-seed", type=int, default=None,
                       help="synthesize the conditioning context from this seed")
        p.add_argument("--dataset", default=None,
                       help="take the conditioning context from this dataset")
        p.add_argument("--sample-id", type=int, default=None)
        p.add_argument("--set", action="append", metavar="KEY=VALUE")

    p = sub.add_parser("generate", help="conditional generation")
    generation_args(p)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("trace", help="generation with tracing forced on")
    generation_args(p)
    p.set_defaults(func=lambda a: cmd_generate(a, trace_flag=True))

    p = sub.add_parser("evaluate", help="per-level metric report")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UrbanFlowsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())