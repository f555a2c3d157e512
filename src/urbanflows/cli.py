"""Command-line entry point.

Subcommands: synth, train-zone, train-config, generate, evaluate, trace.
Every output file embeds the effective run configuration so results can be
traced back to the exact settings that produced them.  All commands are
deterministic under a fixed seed and exit nonzero on any pipeline error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .checkpoint import read_header, save_checkpoint
from .errors import (
    CheckpointManifestError,
    ConfigurationError,
    DataError,
    ParseError,
    PipelineError,
    TrainingFault,
    UrbanFlowsError,
)
from .fileio import atomic_write
from .numerics import ParameterStore
from .pipeline import (
    ModelBundle,
    check_dataset_dims,
    evaluate_model,
    format_report,
    generate_batch,
    train_config_stage,
    train_zone_stage,
)
from .runconfig import RunConfig, check_guidance_levels
from .render import render_config_ppm
from .synthdata import generate_sample, info_vectors, make_dataset, read_dataset, write_dataset


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


def _bundle_from_checkpoint(path, run_config_of, what="checkpoint", mismatch=None):
    """The bundle a checkpoint holds, built on a store opened on its
    payload: no parameter is drawn, and the payload is read once into the
    buffer the parameters live in.

    ``run_config_of(header)`` gives the bundle's run config.  A manifest
    that does not fit it raises ``CheckpointManifestError``, or
    ``ConfigurationError(mismatch)`` when a message is given.
    """
    try:
        header, payload = read_header(path)
    except FileNotFoundError:
        raise PipelineError(f"{what} not found: {path}")
    rc = run_config_of(header)
    try:
        bundle = ModelBundle(rc, ParameterStore.opened(header["manifest"], payload))
    except CheckpointManifestError:
        if mismatch is None:
            raise
        raise ConfigurationError(mismatch)
    return bundle


def _checkpoint_bundle(args):
    """The bundle of ``--ckpt``, with its saved config and ``--set`` on top."""
    overrides = _overrides(getattr(args, "set", None))
    return _bundle_from_checkpoint(
        args.ckpt,
        lambda header: RunConfig.from_sources(None, {**header["config"], **overrides}))


# largest batch one generate_batch call samples; bounds the memory of a call
_GENERATE_CHUNK = 256


def _check_count(count, least):
    if count < least:
        raise ConfigurationError(f"--count must be >= {least}, got {count}")


def cmd_synth(args):
    _check_count(args.count, 0)
    rc = _load_run_config(args)
    ds = make_dataset(args.count, rc.n, rc.m, rc.p, rc.seed)
    write_dataset(args.out, ds, rc.n, rc.m, rc.p)
    print(f"wrote {len(ds)} samples to {args.out}")
    return 0


def _train(args, make_bundle, train_stage, stage, stage_no):
    """Train ``make_bundle(rc)`` from seed + stage_no - 1, then write the
    checkpoint and loss log, also after a ``TrainingFault`` (rolled back to
    the last good step).  Any other error, such as an empty dataset, writes
    nothing."""
    rc = _load_run_config(args)
    ds, meta = read_dataset(args.dataset)
    check_dataset_dims(meta, rc)
    bundle = make_bundle(rc)
    rng = np.random.default_rng(rc.seed + stage_no - 1)
    history = []
    fault = None
    try:
        train_stage(bundle, ds, rng,
                    log=lambda step, loss, *parts: history.append((step, loss)))
    except TrainingFault as exc:
        fault = exc
    save_checkpoint(args.out_ckpt, bundle.store, rc.as_dict(), extra={"stage": stage})
    _write_loss_log(args.out_ckpt + ".log", rc, history)
    if fault is not None:
        print(f"error: {fault} (last-good checkpoint written)", file=sys.stderr)
        return 1
    print(f"trained stage {stage_no} for {len(history)} steps; wrote {args.out_ckpt}")
    return 0


def cmd_train_zone(args):
    return _train(args, ModelBundle, train_zone_stage, "zone", 1)


def cmd_train_config(args):
    return _train(args, lambda rc: _bundle_from_checkpoint(
        args.zone_ckpt, lambda header: rc, what="zone checkpoint",
        mismatch="zone checkpoint was built with different model dimensions"),
        train_config_stage, "config", 2)


def _context_for_generation(args, rc):
    if args.dataset is None and args.sample_id is not None:
        raise ConfigurationError("--sample-id requires --dataset")
    if args.dataset is not None:
        if args.sample_id is None:
            raise ConfigurationError("--dataset requires --sample-id")
        if args.context_seed is not None:
            raise ConfigurationError("--context-seed cannot be used with --dataset")
        ds, meta = read_dataset(args.dataset)
        check_dataset_dims(meta, rc)
        try:
            return ds.context[ds.ids.tolist().index(args.sample_id)]
        except ValueError:
            raise DataError(f"sample id {args.sample_id} not in {args.dataset}") from None
    seed = rc.seed if args.context_seed is None else args.context_seed
    return generate_sample(seed, rc.n, rc.m, rc.p, args.green_level)[0]


def _write_trace(path, trace, j, rc, gen_index, green_level):
    """Write row ``j`` of ``generate_batch``'s per-step trace records."""
    with atomic_write(path) as fh:
        head = {
            "format_version": 1,
            "kind": "config-trace",
            "generation": gen_index,
            "green_level": green_level,
            "steps": len(trace),
            "config": rc.as_dict(),
        }
        fh.write(json.dumps(head, sort_keys=True) + "\n")
        for step_no, (layer_index, layer_type, states, counts) in enumerate(trace):
            rec = {
                "step": step_no,
                "layer_index": layer_index,
                "layer_type": layer_type,
                "histogram": counts[j].sum(axis=(0, 1)).tolist(),
                "state": states[j].tolist(),
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _check_seed(flag, seed):
    if seed is not None and seed < 0:
        raise ConfigurationError(f"{flag} must be >= 0, got {seed}")


def cmd_generate(args):
    _check_count(args.count, 1)
    _check_seed("--seed", args.seed)
    _check_seed("--context-seed", args.context_seed)
    bundle = _checkpoint_bundle(args)
    rc = bundle.cfg
    check_guidance_levels(args.green_level)
    e = info_vectors(_context_for_generation(args, rc)[None], [args.green_level])
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
        for lo in range(0, args.count, _GENERATE_CHUNK):
            size = min(_GENERATE_CHUNK, args.count - lo)
            zone_maps, configs, trace = generate_batch(
                bundle, np.repeat(e, size, axis=0), rng, trace=args.trace)
            for j, (zm, ct) in enumerate(zip(zone_maps, configs)):
                i = lo + j
                rec = {
                    "id": i,
                    "green_level": args.green_level,
                    "zones": zm.labels.ravel().tolist(),
                    "config": ct.counts.ravel().tolist(),
                }
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
                render_config_ppm(os.path.join(args.out_dir, f"gen{i:03d}.ppm"),
                                  ct.counts)
                if args.trace:
                    _write_trace(os.path.join(args.out_dir, f"gen{i:03d}.trace.jsonl"),
                                 trace, j, rc, i, args.green_level)
                    for step_no, (_, _, _, counts) in enumerate(trace):
                        render_config_ppm(
                            os.path.join(args.out_dir,
                                         f"gen{i:03d}.step{step_no:02d}.ppm"),
                            counts[j])
    print(f"wrote {args.count} generations to {args.out_dir}")
    return 0


def cmd_evaluate(args):
    bundle = _checkpoint_bundle(args)
    rc = bundle.cfg
    ds, meta = read_dataset(args.dataset)
    check_dataset_dims(meta, rc)
    report = evaluate_model(bundle, ds, seed=rc.seed)
    text = format_report(report, rc.as_dict())
    with atomic_write(args.out) as fh:
        fh.write(text)
    print(text, end="")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors (a malformed value, a missing
    or unknown option or subcommand) raise ``ConfigurationError``, which
    ``main`` reports with exit status 1, instead of exiting with status 2.
    Its subcommand parsers are of this class too."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The command-line parser, built once per process."""
    parser = _Parser(
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
    p.set_defaults(func=cmd_generate, trace=True)

    p = sub.add_parser("evaluate", help="per-level metric report")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UrbanFlowsError as exc:
        where = ""
        if isinstance(exc, ParseError) and exc.path is not None:
            where = f"{os.fspath(exc.path)}:{exc.line_number}: "
        print(f"error: {where}{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())