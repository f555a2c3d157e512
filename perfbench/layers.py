"""Per-layer metrics: span buckets, counters, the metric table and the
isolated probes.

Each traced metric is a self time (or a count) per operation of one phase
of the pass.  ``PHASES`` names, per workload, the phase a metric is divided
by; a layer that does not run in that phase reads 0.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from urbanflows.flow_layers import (
    BatchNormFlow,
    ConditionProjectionLayer,
    CouplingLayer,
    MaskedARLayer,
    UncondARLayer,
)
from urbanflows.fusion import multi_head_attention_batch
from urbanflows.numerics import Adam, Tensor, no_grad
from urbanflows.pipeline import ModelBundle

from tracer import LAYERS

FLOW_KINDS = ("coupling", "condition_projection", "batchnorm", "masked_ar", "uncond_ar")


def _by_kind(direction):
    return lambda args: f"flow_layers.{args[0].kind}.{direction}"


BUCKETS = {
    "numerics.tape.Tensor.backward": "numerics.tape.backward",
    "numerics.optim.Adam.step": "numerics.optim.adam_step",
    "numerics.params.ParameterStore.snapshot": "numerics.params.snapshot_restore",
    "numerics.params.ParameterStore.restore": "numerics.params.snapshot_restore",
    "numerics.kernels.conv2d": "numerics.kernels.conv2d",
    "numerics.kernels.depthwise_conv2d": "numerics.kernels.depthwise_conv2d",
    "fusion.FusionModule.extract": "fusion.extract",
    "fusion.GeoExtractor.forward": "fusion.extract",
    "fusion.FusionModule.fuse": "fusion.fuse",
    "fusion.semantic_projection_batch": "fusion.fuse",
    "fusion.FusionModule.attend": "fusion.attend",
    "fusion.multi_head_attention_batch": "fusion.attend",
    "zone_flow.ZoneFlowModel.forward": "zone_flow.forward",
    "zone_flow.ZoneFlowModel.inverse": "zone_flow.inverse",
    "config_flow.ConfigFlowModel.forward": "config_flow.forward",
    "config_flow.ConfigFlowModel.inverse": "config_flow.inverse",
    "checkpoint.read_header": "checkpoint.load",
    "checkpoint.load_checkpoint": "checkpoint.load",
    "render.render_config_ppm": "render.ppm",
    "synthdata.read_dataset": "synthdata.read_dataset",
    "pipeline.evaluate_pools": "metrics.evaluate_pools",
}
for _cls in (CouplingLayer, ConditionProjectionLayer, BatchNormFlow, MaskedARLayer,
             UncondARLayer):
    for _direction in ("forward", "inverse"):
        BUCKETS[f"flow_layers.{_cls.__name__}.{_direction}"] = _by_kind(_direction)


def _adam_tensors(args):
    return lambda: ("adam_tensors", len(args[0].params))


def _conditioner_calls(args):
    """Change of the public ``MaskedConditioner.calls`` counters of the
    sampled ``ConfigFlowModel`` over one ``config_sample_batch`` call."""
    nets = [layer.net for kind, _, layer, _ in args[0].layers if kind != "batchnorm"]
    before = sum(net.calls for net in nets)
    return lambda: ("conditioner_calls", sum(net.calls for net in nets) - before)


def _rchar():
    """(bytes this process has read through read(2) and its kin so far,
    bytes this reading of /proc/self/io adds to that count)."""
    with open("/proc/self/io", "rb") as fh:
        text = fh.read()
    for line in text.splitlines():
        if line.startswith(b"rchar:"):
            return int(line.split()[1]), len(text)
    raise OSError("/proc/self/io has no rchar line")


class _BytesRead:
    """Bytes read inside the outermost checkpoint-loading call.

    ``load_checkpoint`` calls ``read_header``; only the outer call counts,
    so that the bytes are not counted twice."""

    def __init__(self):
        self.depth = 0

    def __call__(self, args):
        self.depth += 1
        before, own = _rchar() if self.depth == 1 else (None, 0)

        def finish():
            self.depth -= 1
            return "checkpoint_bytes", 0 if before is None else _rchar()[0] - before - own

        return finish


def counters():
    """Fresh counters for one tracer."""
    bytes_read = _BytesRead()
    return {
        "numerics.optim.Adam.step": _adam_tensors,
        "config_flow.config_sample_batch": _conditioner_calls,
        "checkpoint.read_header": bytes_read,
        "checkpoint.load_checkpoint": bytes_read,
    }


# metric name -> (unit, how to read it from one phase's summary)
TRACED = {}
for _bucket in ("numerics.tape.backward", "numerics.optim.adam_step",
                "numerics.params.snapshot_restore", "numerics.kernels.conv2d",
                "numerics.kernels.depthwise_conv2d", "fusion.extract", "fusion.fuse",
                "fusion.attend", "zone_flow.forward", "zone_flow.inverse",
                "config_flow.forward", "checkpoint.load", "render.ppm",
                "synthdata.read_dataset", "metrics.evaluate_pools"):
    TRACED[_bucket + "_ms"] = ("ms", ("bucket", _bucket))
for _kind in FLOW_KINDS:
    TRACED[f"flow_layers.{_kind}.forward_ms"] = ("ms", ("bucket", f"flow_layers.{_kind}.forward"))
for _kind in ("masked_ar", "uncond_ar", "batchnorm"):
    TRACED[f"flow_layers.{_kind}.inverse_ms"] = ("ms", ("bucket", f"flow_layers.{_kind}.inverse"))
TRACED["numerics.optim.tensors_per_step"] = ("count", ("count", "adam_tensors"))
TRACED["checkpoint.load_bytes"] = ("count", ("count", "checkpoint_bytes"))
TRACED["flow_layers.conditioner_calls_per_config"] = ("count", ("count", "conditioner_calls"))
for _layer in LAYERS:
    TRACED[f"{_layer}.self_ms"] = ("ms", ("layer", _layer))

PROBES = {}
for _kind in FLOW_KINDS:
    for _what in ("probe_forward", "backward", "probe_inverse"):
        PROBES[f"flow_layers.{_kind}.{_what}_ms"] = "ms"
for _part in ("extract", "attend"):
    PROBES[f"fusion.{_part}.probe_forward_ms"] = "ms"
    PROBES[f"fusion.{_part}.backward_ms"] = "ms"
PROBES["numerics.optim.probe_step_ms"] = "ms"

OVERHEAD = {"trace.overhead_pct": "%"}

PER_LAYER_UNITS = {**{k: unit for k, (unit, _) in TRACED.items()}, **PROBES, **OVERHEAD}

# Metrics that belong to the command-line side of a workload are divided by
# its CLI calls; the rest by the workload's main phase, with a few
# workload-specific exceptions.
_CLI_SIDE = {"checkpoint.load_ms", "checkpoint.load_bytes", "render.ppm_ms",
             "synthdata.read_dataset_ms", "metrics.evaluate_pools_ms", "cli.self_ms",
             "checkpoint.self_ms", "render.self_ms", "synthdata.self_ms",
             "metrics.self_ms"}
PHASES = {
    "train": ("config", {
        **{m: "cli" for m in _CLI_SIDE},
        "flow_layers.coupling.forward_ms": "zone",
        "flow_layers.condition_projection.forward_ms": "zone",
    }),
    "generate": ("one", {m: "cli" for m in _CLI_SIDE}),
    "evaluate": ("cli", {
        "zone_flow.forward_ms": "nll",
        "config_flow.forward_ms": "nll",
        **{f"flow_layers.{k}.forward_ms": "nll" for k in FLOW_KINDS},
    }),
}


def traced_metrics(workload, summary, ops):
    """Per-operation values of every traced metric from a tracer summary."""
    default, special = PHASES[workload]
    out = {}
    for name, (unit, (kind, key)) in TRACED.items():
        phase = special.get(name, default)
        agg = summary.get(phase)
        n = ops.get(phase, 0)
        if agg is None or n == 0:
            out[name] = 0.0
            continue
        total = agg[kind].get(key, 0.0)
        out[name] = total * 1000.0 / n if unit == "ms" else total / n
    return out


# ---------------------------------------------------------------------------
# Isolated probes
# ---------------------------------------------------------------------------


def _median_ms(fn, reps):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def _forward_backward_ms(forward, x_data, reps, store):
    """Median times of ``forward`` (which returns a tuple of tensors) and of
    the backward pass of the sum of its outputs."""
    fwd, bwd = [], []
    for _ in range(reps):
        x = Tensor(x_data, requires_grad=True)
        start = time.perf_counter()
        outputs = forward(x)
        mid = time.perf_counter()
        sum((t.sum() for t in outputs[1:]), outputs[0].sum()).backward()
        fwd.append(mid - start)
        bwd.append(time.perf_counter() - mid)
        store.zero_grad()
    return statistics.median(fwd) * 1000.0, statistics.median(bwd) * 1000.0


def probe_metrics(rc, seed, reps):
    """Forward, backward and inverse of each layer type in isolation, at the
    shapes of a training batch."""
    bundle = ModelBundle(rc)
    store = bundle.store
    rng = np.random.default_rng([seed, 9])
    b = rc.batch_size
    e = Tensor(rng.standard_normal((b, rc.info_dim)))
    a = Tensor(rng.standard_normal((b, rc.m * rc.info_dim)))
    xz = rng.uniform(-0.5, 0.5, (b, rc.d_zone))
    xc = np.log1p(rng.poisson(1.0, (b, rc.d_config)) + rng.random((b, rc.d_config)))
    zone = bundle.zone.blocks[0]
    block = bundle.config.blocks[0]
    cases = {
        "coupling": (lambda x: zone["coupling"].forward(x, e, "train"),
                     lambda y: zone["coupling"].inverse(y, e, "eval"), xz),
        "condition_projection": (lambda x: zone["proj"].forward(x, e, "train"),
                                 lambda y: zone["proj"].inverse(y, e, "eval"), xz),
        "batchnorm": (lambda x: block["bn"].forward(x, "train", update_stats=False),
                      lambda y: block["bn"].inverse(y, "eval"), xc),
        "masked_ar": (lambda x: block["mar"].forward(x, a, "train"),
                      lambda y: block["mar"].inverse(y, a, "eval"), xc),
        "uncond_ar": (lambda x: block["uar"].forward(x, None, "train"),
                      lambda y: block["uar"].inverse(y, None, "eval"), xc),
    }
    out = {}
    for kind, (forward, inverse, x_data) in cases.items():
        fwd, bwd = _forward_backward_ms(forward, x_data, reps, store)
        with no_grad():
            inv = _median_ms(lambda: inverse(Tensor(x_data)), reps)
        out[f"flow_layers.{kind}.probe_forward_ms"] = fwd
        out[f"flow_layers.{kind}.backward_ms"] = bwd
        out[f"flow_layers.{kind}.probe_inverse_ms"] = inv

    fusion = bundle.fusion
    images = rng.uniform(0.0, 1.0, (b, 1, rc.n, rc.n))
    c = rng.standard_normal((b, rc.m, rc.info_dim))
    attn = [fusion.attn[k] for k in ("wq", "wk", "wv", "wo")]
    for part, forward, x_data in (
        ("extract", lambda x: (fusion.geo.forward(x, mode="train", rng=rng),), images),
        ("attend", lambda x: (multi_head_attention_batch(x, rc.heads, *attn),), c),
    ):
        fwd, bwd = _forward_backward_ms(forward, x_data, reps, store)
        out[f"fusion.{part}.probe_forward_ms"] = fwd
        out[f"fusion.{part}.backward_ms"] = bwd

    named = bundle.named_trainable(("zone.", "fusion.", "config."))
    opt = Adam(named, lr=rc.lr)

    def step():
        for _, t in named:
            t.grad = rng.standard_normal(t.shape)
        start = time.perf_counter()
        opt.step()
        return time.perf_counter() - start

    out["numerics.optim.probe_step_ms"] = statistics.median(
        step() for _ in range(reps)) * 1000.0
    return out
