"""The three closed-loop workloads: ``train``, ``generate`` and ``evaluate``.

One caller issues one operation at a time from this process.  Every
workload has the same shape:

* ``setup`` synthesizes the dataset with ``make_dataset`` from the workload
  seed, builds the model bundle and, for ``generate`` and ``evaluate``,
  trains the set-up checkpoint with the repository's own training loops for
  a fixed number of steps (an untrained flow would make any iterative AR
  inverse look faster than it is on a real model);
* ``run_pass`` performs the timed operations, phase by phase, checks every
  output, and returns the timings;
* every workload fills the same end-to-end slots (``cli``, ``op``, ``aux``
  timings and ``nll_nats``), each with its own operations, as listed in
  ``perfbench/README.md``.

A pass runs its fixed operation counts and then keeps repeating the
workload's main operation until ``seconds`` have passed, so a faster
program is measured over more operations rather than a shorter time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import time

import numpy as np

# Layer functions are looked up on their modules at call time, so that the
# tracer's wrappers see the benchmark's own calls too.
from urbanflows import checkpoint, cli, config_flow, flow_layers, fusion, pipeline, synthdata
from urbanflows.numerics import Tensor, no_grad
from urbanflows.runconfig import RunConfig

# forward(inverse(z)) must give back z to this absolute tolerance
INVERSE_ATOL = 1e-10


@dataclasses.dataclass(frozen=True)
class Scale:
    """Sizes and operation counts of one run."""

    run_config: tuple = ()        # RunConfig overrides; () is the default model
    dataset: int = 500            # samples synthesized by each set-up
    setup_repeats: int = 3        # set-ups per untraced train/generate run; setup_s is
                                  # their median (evaluate runs one)
    setup_zone_steps: int = 100   # set-up checkpoint training
    setup_config_steps: int = 20
    rounds: int = 6               # train: `train-zone` CLI calls between stage-2 steps
    zone_chunks: int = 24         # train: chunks of stage-1 steps between stage-2 steps
    eval_cli_calls: int = 2       # evaluate: timed `evaluate` CLI calls per pass
    cli_zone_steps: int = 40      # train: steps of each `train-zone` CLI call
    zone_steps: int = 96          # train: timed stage-1 steps, over all chunks
    config_steps: int = 121       # train: stage-2 steps; 120 timed, 12 beyond p90
    loss_window: int = 10         # train: steps averaged at each end of the loss curve
    gen_rounds: int = 4           # generate: rounds of (CLI, generate_one, generate_batch)
    gen_count: int = 3            # generate: configurations per CLI call
    one_calls: int = 6            # generate: generate_one calls at B=1 per round
    batch: int = 64               # generate: B of the one generate_batch per round
    nll_calls: int = 18           # evaluate: zone + config NLL passes
    probe_reps: int = 5           # traced run: repeats of each isolated probe

    def model_config(self):
        """The model is the package default (init seed 0) on every workload
        seed: only the inputs vary with the seed.  Seeding the init too
        tripled the seed-to-seed spread of the set-up model's NLL."""
        return RunConfig(**dict(self.run_config)).validate()


FULL = Scale()

# The traced run repeats a shorter pass, once untraced and once traced.
TRACED = dataclasses.replace(FULL, rounds=1, zone_chunks=1, zone_steps=20, config_steps=21,
                             gen_rounds=1, one_calls=3, eval_cli_calls=1, nll_calls=2)


class Ledger:
    """Attempted and failed operations of one run.

    An operation fails if it raises, returns a non-finite value, or fails
    its output check; a check returns None when the output is correct and
    a message otherwise.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def run(self, label, fn, check=None):
        """Time ``fn()``; returns (output, seconds), or (None, None) on failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # an operation's failure is data, not a crash
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None, None
        elapsed = time.perf_counter() - start
        problem = check(out) if check is not None else None
        if problem:
            self.failures.append(f"{label}: {problem}")
            return None, None
        return out, elapsed

    def check(self, label, problem):
        """Record a whole-run check as one more operation."""
        self.attempted += 1
        if problem:
            self.failures.append(f"{label}: {problem}")


class Pass:
    """Timings and results collected by one pass."""

    def __init__(self):
        self.samples = {}   # slot -> list of seconds
        self.nll = None     # nats, for the nll_nats slot
        self.ops = {}       # phase -> operations performed
        self.info = {}

    def add(self, slot, seconds):
        self.samples.setdefault(slot, []).append(seconds)

    def count(self, phase, n=1):
        self.ops[phase] = self.ops.get(phase, 0) + n


def _phase(tracer, name):
    if tracer is not None:
        tracer.phase = name


def _cli(argv):
    """In-process ``urbanflows`` call; raises on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _bundle_from(path, rc):
    bundle = pipeline.ModelBundle(rc)
    checkpoint.load_checkpoint(path, bundle.store)
    return bundle


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


class State:
    """What a pass needs from the set-up."""

    def __init__(self, scale, seed, work):
        self.seed = seed
        self.work = work
        self.rc = scale.model_config()
        self.data = synthdata.make_dataset(scale.dataset, self.rc.n, self.rc.m,
                                           self.rc.p, seed)
        self.dataset_path = os.path.join(work, "dataset.jsonl")
        self.ckpt_path = os.path.join(work, "model.ckpt")


def setup(workload, scale, seed, work):
    """Dataset synthesis, bundle build and, unless training is the workload,
    the set-up checkpoint."""
    st = State(scale, seed, work)
    rc = st.rc
    synthdata.write_dataset(st.dataset_path, st.data, rc.n, rc.m, rc.p)
    bundle = pipeline.ModelBundle(rc)
    if workload != "train":
        pipeline.train_zone_stage(bundle, st.data, np.random.default_rng([seed, 1]),
                                  steps=scale.setup_zone_steps)
        pipeline.train_config_stage(bundle, st.data, np.random.default_rng([seed, 2]),
                                    steps=scale.setup_config_steps)
        checkpoint.save_checkpoint(st.ckpt_path, bundle.store, rc.as_dict(),
                                   extra={"stage": "config"})
    return st


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _timed_steps(stage, bundle, data, rng, steps, on_step):
    """Run one training call and return its step times.

    Step i runs from the end of the log callback of step i-1 to the start of
    the callback of step i, so work done inside ``on_step`` is not counted.
    Step 0 also pays for the optimizer set-up and is not returned."""
    marks = []

    def log(step, loss, parts=None):
        entry = time.perf_counter()
        on_step(step, loss, parts)
        marks.append((entry, time.perf_counter()))

    stage(bundle, data, rng, steps=steps, log=log)
    return [marks[i][0] - marks[i - 1][1] for i in range(1, len(marks))]


def train_pass(st, scale, seconds, ledger, tracer=None):
    """Stage-2 training runs as one call.  Between its steps the pass runs
    ``rounds`` `train-zone` CLI calls and ``zone_chunks`` short chunks of
    stage-1 steps on a second bundle, each spread evenly, so that all three
    timings sample the whole pass."""
    out = Pass()
    rc = st.rc
    start = time.perf_counter()
    zone_bundle = pipeline.ModelBundle(rc)
    zone_rng = np.random.default_rng([st.seed, 3])
    bundle = pipeline.ModelBundle(rc)
    rng = np.random.default_rng([st.seed, 4])
    curve = []
    cli_every = max(1, scale.config_steps // scale.rounds)
    zone_every = max(1, scale.config_steps // scale.zone_chunks)

    def finite(phase, step, loss):
        out.count(phase)  # per-layer metrics are per step run, timed or not
        ledger.check(f"{phase} step {step}",
                     None if math.isfinite(loss) else f"non-finite loss {loss}")

    def cli_call(r):
        _phase(tracer, "cli")
        ckpt = os.path.join(st.work, f"zone{r}.ckpt")
        argv = ["train-zone", "--dataset", st.dataset_path, "--out-ckpt", ckpt,
                "--set", f"steps_zone={scale.cli_zone_steps}"]
        for key, val in scale.run_config:
            text = ",".join(map(str, val)) if isinstance(val, tuple) else val
            argv += ["--set", f"{key}={text}"]
        _, secs = ledger.run("train-zone cli", lambda: _cli(argv),
                             check=lambda _: _check_loss_log(ckpt + ".log", scale.cli_zone_steps))
        if secs is not None:
            out.add("cli", secs)
        out.count("cli")
        _phase(tracer, "config")

    def zone_chunk():
        _phase(tracer, "zone")
        steps = scale.zone_steps // scale.zone_chunks + 1
        durations, _ = ledger.run(
            "stage-1 training",
            lambda: _timed_steps(pipeline.train_zone_stage, zone_bundle, st.data, zone_rng,
                                 steps, lambda step, loss, _: finite("zone", step, loss)))
        for d in durations or ():
            out.add("aux", d)
        _phase(tracer, "config")

    def on_config_step(step, loss, parts):
        curve.append(parts["config_nll"])
        finite("config", step, loss)
        if step % cli_every == 0 and step // cli_every < scale.rounds:
            cli_call(step // cli_every)
        if step % zone_every == 0 and step // zone_every < scale.zone_chunks:
            zone_chunk()

    _phase(tracer, "config")
    durations, _ = ledger.run(
        "stage-2 training",
        lambda: _timed_steps(pipeline.train_config_stage, bundle, st.data, rng,
                             scale.config_steps, on_config_step))
    for d in durations or ():
        out.add("op", d)
    w = scale.loss_window
    if len(curve) == scale.config_steps:
        first, last = float(np.mean(curve[:w])), float(np.mean(curve[-w:]))
        out.nll = last
        out.info["config_nll_first_last"] = [first, last]
        ledger.check("stage-2 loss decreases",
                     None if last < first else f"last {last} >= first {first}")
    # keep measuring stage-2 steps until the pass has lasted `seconds`
    while durations and time.perf_counter() - start < seconds:
        durations, _ = ledger.run(
            "stage-2 training (extra)",
            lambda: _timed_steps(pipeline.train_config_stage, bundle, st.data, rng, 10,
                                 lambda step, loss, _: finite("config", step, loss)))
        for d in durations or ():
            out.add("op", d)
    return out


def _check_loss_log(path, steps):
    with open(path) as fh:
        rows = [line.split("\t") for line in fh if not line.startswith("#")]
    if len(rows) != steps:
        return f"loss log has {len(rows)} rows, expected {steps}"
    if not all(math.isfinite(float(loss)) for _, loss in rows):
        return "non-finite loss in loss log"
    return None


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _check_generated(out_dir, count, rc):
    """configs.jsonl and the PPMs parse; counts are non-negative N x N x P."""
    with open(os.path.join(out_dir, "configs.jsonl")) as fh:
        lines = fh.read().splitlines()
    head = json.loads(lines[0])
    if head.get("kind") != "generated-configs" or head.get("count") != count:
        return f"bad configs.jsonl header {head}"
    if len(lines) != count + 1:
        return f"configs.jsonl has {len(lines) - 1} records, expected {count}"
    for i, line in enumerate(lines[1:]):
        rec = json.loads(line)
        zones = np.asarray(rec["zones"])
        counts = np.asarray(rec["config"])
        if zones.shape != (rc.n * rc.n,) or zones.min() < 0 or zones.max() >= rc.m:
            return f"record {i}: bad zone labels"
        if counts.shape != (rc.n * rc.n * rc.p,) or counts.min() < 0:
            return f"record {i}: counts are not non-negative N x N x P"
        blob = read_bytes(os.path.join(out_dir, f"gen{i:03d}.ppm"))
        magic, dims, maxval, pixels = blob.split(b"\n", 3)
        w, h = (int(v) for v in dims.split())
        if magic != b"P6" or maxval != b"255" or w != h or len(pixels) != w * h * 3:
            return f"gen{i:03d}.ppm does not parse"
    return None


def _check_samples(zone_maps, configs, count, rc):
    if len(zone_maps) != count or len(configs) != count:
        return f"expected {count} samples, got {len(configs)}"
    for zm, ct in zip(zone_maps, configs):
        if zm.labels.shape != (rc.n, rc.n) or zm.labels.max() >= rc.m:
            return "bad zone map"
        if ct.counts.shape != (rc.n, rc.n, rc.p) or ct.counts.min() < 0:
            return "counts are not non-negative N x N x P"
    return None


def _inverse_roundtrip(bundle, samples, rng):
    """Sample B configurations, run ConfigFlowModel.forward in eval mode on
    them and return (max |z' - z|, mean NLL of the samples in nats)."""
    rc = bundle.cfg
    es, zones, _, _ = pipeline.dataset_arrays(samples)
    with no_grad():
        img = Tensor(zones[:, None].astype(np.float64) / max(rc.m - 1, 1))
        o = bundle.fusion.extract(img, mode="eval")
        c, _ = bundle.fusion.fuse(fusion.partition_zones_batch(zones, rc.m), Tensor(es), o)
    x, z = config_flow.config_sample_batch(bundle.config, c.data, rng)
    with no_grad():
        a_flat = bundle.config.condition_of(c.data)
        z_back, logdet = bundle.config.forward(Tensor(x), a_flat, mode="eval",
                                               update_stats=False)
        nll = (flow_layers.gaussian_logp(z_back) + logdet).data * -1.0
    return float(np.max(np.abs(z_back.data - z))), float(np.mean(nll))


def generate_pass(st, scale, seconds, ledger, tracer=None):
    out = Pass()
    rc = st.rc
    start = time.perf_counter()
    _phase(tracer, "load")
    bundle = _bundle_from(st.ckpt_path, rc)
    es = pipeline.dataset_arrays(st.data)[0]
    batch = st.data[:scale.batch]
    rng = np.random.default_rng([st.seed, 5])

    def one():
        i = out.ops.get("one", 0)
        _, secs = ledger.run(
            "generate_one",
            lambda: pipeline.generate_one(bundle, es[i % len(es)], rng),
            check=lambda r: _check_samples([r[0]], [r[1]], 1, rc))
        if secs is not None:
            out.add("op", secs)
        out.count("one")

    # Rounds interleave the three operations, so that each metric samples
    # the whole pass rather than one stretch of a machine whose speed drifts.
    outputs = []
    for r in range(scale.gen_rounds):
        _phase(tracer, "cli")
        out_dir = os.path.join(st.work, f"gen{r}")
        argv = ["generate", "--ckpt", st.ckpt_path, "--green-level", str(st.seed % 5),
                "--count", str(scale.gen_count), "--seed", str(st.seed),
                "--context-seed", str(st.seed + 1), "--out-dir", out_dir]
        _, secs = ledger.run("generate cli", lambda: _cli(argv),
                             check=lambda _: _check_generated(out_dir, scale.gen_count, rc))
        if secs is not None:
            out.add("cli", secs)
            outputs.append(read_bytes(os.path.join(out_dir, "configs.jsonl")))
        out.count("cli")

        _phase(tracer, "one")
        for _ in range(scale.one_calls):
            one()

        _phase(tracer, "batch")
        _, secs = ledger.run(
            "generate_batch",
            lambda: pipeline.generate_batch(bundle, es[:scale.batch], rng),
            check=lambda r: _check_samples(r[0], r[1], len(batch), rc))
        if secs is not None:
            out.add("aux", secs / len(batch))
        out.count("batch")

    if len(outputs) > 1:
        ledger.check("generate cli determinism",
                     None if all(o == outputs[0] for o in outputs)
                     else "repeated runs wrote different configs.jsonl")

    _phase(tracer, "check")
    result, _ = ledger.run(
        "inverse round trip",
        lambda: _inverse_roundtrip(bundle, batch, rng),
        check=lambda r: (None if r[0] <= INVERSE_ATOL and math.isfinite(r[1])
                         else f"max |forward(inverse(z)) - z| = {r[0]:.3g}"))
    if result is not None:
        out.info["inverse_max_abs_error"] = result[0]
        out.info["sample_nll"] = result[1]
    nll, _ = ledger.run("eval_config_nll",
                        lambda: pipeline.eval_config_nll(bundle, batch, seed=st.seed),
                        check=_finite)
    if nll is not None:
        out.nll = nll

    _phase(tracer, "one")
    while time.perf_counter() - start < seconds:
        one()
    return out


def _finite(value):
    return None if math.isfinite(value) else f"non-finite value {value}"


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def parse_report(text):
    """Rows and averages of an evaluation report; raises on a malformed one."""
    rows, avg = [], {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        tok = line.split()
        if tok[0] == "level":
            fields = dict(zip(tok[2::2], tok[3::2]))
            rows.append({k: float(fields[k]) for k in ("KL", "HD", "WD")})
        elif tok[0].startswith("AVG_"):
            avg[tok[0][4:]] = float(tok[1])
        else:
            raise ValueError(f"unexpected report line {line!r}")
    if not rows or set(avg) != {"KL", "HD", "WD"}:
        raise ValueError("report lacks level rows or averages")
    return rows, avg


def _check_report(path):
    rows, avg = parse_report(open(path).read())
    values = [v for r in rows for v in r.values()] + list(avg.values())
    return None if all(math.isfinite(v) for v in values) else "non-finite distance"


def evaluate_pass(st, scale, seconds, ledger, tracer=None):
    """`evaluate` CLI calls with the NLL pairs spread around them."""
    out = Pass()
    start = time.perf_counter()
    _phase(tracer, "load")
    bundle = _bundle_from(st.ckpt_path, st.rc)
    values = set()

    def nll_pair():
        zone, secs = ledger.run("eval_zone_nll",
                                lambda: pipeline.eval_zone_nll(bundle, st.data, seed=st.seed),
                                check=_finite)
        if secs is not None:
            out.add("aux", secs)
            out.info["zone_nll"] = zone
        config, secs = ledger.run("eval_config_nll",
                                  lambda: pipeline.eval_config_nll(bundle, st.data, seed=st.seed),
                                  check=_finite)
        if secs is not None:
            out.add("op", secs)
            values.add(config)
            out.nll = config
        out.count("nll")

    # the NLL pairs go in equal groups before, between and after the CLI calls
    group = scale.nll_calls // (scale.eval_cli_calls + 1)
    _phase(tracer, "nll")
    for _ in range(scale.nll_calls - group * scale.eval_cli_calls):
        nll_pair()
    reports = []
    for r in range(scale.eval_cli_calls):
        _phase(tracer, "cli")
        path = os.path.join(st.work, f"report{r}.txt")
        argv = ["evaluate", "--ckpt", st.ckpt_path, "--dataset", st.dataset_path,
                "--out", path]
        _, secs = ledger.run("evaluate cli", lambda: _cli(argv),
                             check=lambda _: _check_report(path))
        if secs is not None:
            out.add("cli", secs)
            reports.append(read_bytes(path))
        out.count("cli")
        _phase(tracer, "nll")
        for _ in range(group):
            nll_pair()
    while time.perf_counter() - start < seconds:
        nll_pair()

    if reports:
        _, avg = parse_report(reports[0].decode())
        out.info.update(avg_kl=avg["KL"], avg_hd=avg["HD"], avg_wd=avg["WD"])
    if len(reports) > 1:
        ledger.check("evaluate cli determinism",
                     None if all(r == reports[0] for r in reports)
                     else "repeated runs wrote different reports")
    ledger.check("eval_config_nll determinism",
                 None if len(values) <= 1 else f"repeated calls returned {sorted(values)}")
    return out


PASSES = {"train": train_pass, "generate": generate_pass, "evaluate": evaluate_pass}
