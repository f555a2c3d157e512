"""Information fusion: geographic embedding extraction, zone partitioning,
semantic projection, and the multi-head attention used by stage 2.

Every function takes a batch: (B, ...) arrays or tensors, one zone map or
embedding being a batch of one.  ``FusionModule.embed`` runs the whole
chain from hard zone labels to the fused embedding.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DataError, DimensionError, check_mode
from .numerics import (
    Tensor,
    as_tensor,
    conv2d_nhwc,
    convnext_layer,
    layer_norm,
    normal,
    softmax_rows,
)


def partition_zones_batch(labels, m):
    """(B, N, N) integer labels -> (B, M, N, N) indicator masks."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= m:
        raise DataError(f"zone labels must lie in [0, {m - 1}]")
    return np.stack([(labels == k) for k in range(m)], axis=1).astype(np.float64)


class GeoExtractor:
    """ConvNeXt-style feature extractor for zone maps.

    stem (3x3 conv, 1 -> C, + channel layer-norm), then alternating
    ConvNeXt layers and 2x2/stride-2 channel-doubling down-samples, ending
    with one more ConvNeXt layer and a pooled, normalized linear head to D.
    Each ConvNeXt layer is depthwise conv -> layer-norm -> 1x1 expand (4x)
    -> GELU -> 1x1 back -> LayerScale -> drop-path -> residual, one
    ``convnext_layer`` tape node.  Activations are channels-last (B, H, W,
    C) from the stem to the pool; the stem and the down-samples are
    ``conv2d_nhwc`` im2col GEMMs, and the channel layer-norms run over the
    last axis.  In train mode with drop-path, each layer draws its keep mask
    ``rng.random(B) >= drop_path`` in turn.
    """

    def __init__(self, store, prefix, out_dim, rng, stem_channels=8, n_cx=3,
                 drop_path=0.0):
        self.out_dim = out_dim
        self.n_cx = n_cx
        self.drop_path = float(drop_path)
        c = stem_channels
        self.stem_w = store.param(f"{prefix}.stem.w", (c, 1, 3, 3), normal(rng, 1.0 / 3.0))
        self.stem_b = store.param(f"{prefix}.stem.b", (c,))
        self.stem_ln = self._add_ln(store, f"{prefix}.stem.ln", c)
        self.blocks = []
        self.downs = []
        for i in range(n_cx):
            self.blocks.append(self._add_convnext(store, f"{prefix}.cx{i}", c, rng))
            if i < n_cx - 1:
                self.downs.append(self._add_down(store, f"{prefix}.down{i}", c, rng))
                c *= 2
        self.head_ln = self._add_ln(store, f"{prefix}.head.ln", c)
        self.head_w = store.param(f"{prefix}.head.w", (c, out_dim),
                                  normal(rng, 1.0 / np.sqrt(c)))
        self.head_b = store.param(f"{prefix}.head.b", (out_dim,))
        self.final_channels = c

    @staticmethod
    def _add_ln(store, prefix, c):
        return (store.param(f"{prefix}.gamma", (c,), 1.0),
                store.param(f"{prefix}.beta", (c,)))

    @staticmethod
    def _add_convnext(store, prefix, c, rng):
        return {
            "dw_w": store.param(f"{prefix}.dw.w", (c, 3, 3), normal(rng, 1.0 / 3.0)),
            "dw_b": store.param(f"{prefix}.dw.b", (c,)),
            "ln": GeoExtractor._add_ln(store, f"{prefix}.ln", c),
            "up_w": store.param(f"{prefix}.up.w", (c, 4 * c), normal(rng, 1.0 / np.sqrt(c))),
            "up_b": store.param(f"{prefix}.up.b", (4 * c,)),
            "down_w": store.param(f"{prefix}.pw.w", (4 * c, c), normal(rng, 0.5 / np.sqrt(c))),
            "down_b": store.param(f"{prefix}.pw.b", (c,)),
            "ls": store.param(f"{prefix}.ls", (c,), 1e-6),
        }

    @staticmethod
    def _add_down(store, prefix, c, rng):
        return {
            "ln": GeoExtractor._add_ln(store, f"{prefix}.ln", c),
            "w": store.param(f"{prefix}.w", (2 * c, c, 2, 2), normal(rng, 0.5 / c)),
            "b": store.param(f"{prefix}.b", (2 * c,)),
        }

    def forward(self, x, mode="eval", rng=None):
        """x is (B, 1, N, N) with values already rescaled to [0, 1]."""
        check_mode(mode)
        if x.ndim != 4:
            raise DimensionError("geo extractor expects (B,1,N,N)")
        size = x.shape[2]
        if size >> (self.n_cx - 1) < 1 or size % (1 << (self.n_cx - 1)) != 0:
            raise ConfigurationError(
                f"grid side {size} incompatible with {self.n_cx - 1} down-samples"
            )
        drop = mode == "train" and self.drop_path > 0.0
        if drop and rng is None:
            raise ConfigurationError("train-mode drop-path needs an rng")
        h = conv2d_nhwc(x.transpose((0, 2, 3, 1)), self.stem_w, self.stem_b, stride=1)
        h = layer_norm(h, *self.stem_ln)
        for i, p in enumerate(self.blocks):
            keep = None
            if drop:
                keep = (rng.random(x.shape[0]) >= self.drop_path) / (1.0 - self.drop_path)
            h = convnext_layer(h, p["dw_w"], p["dw_b"], *p["ln"], p["up_w"], p["up_b"],
                               p["down_w"], p["down_b"], p["ls"], keep)
            if i < len(self.downs):
                down = self.downs[i]
                h = conv2d_nhwc(layer_norm(h, *down["ln"]), down["w"], down["b"], stride=2)
        pooled = layer_norm(h.mean(axis=(1, 2)), *self.head_ln)
        return pooled @ self.head_w + self.head_b


def semantic_projection_batch(masks, e, o, w_z, w_s, w_g):
    """Fused embedding for a batch.

    masks: (B, M, N, N) constants; e, o: (B, D) tensors; w_z: (N, 1);
    w_s, w_g: scalars.  Returns (c (B, M, D), zone_weights (B, M)).
    """
    b, m, n, _ = masks.shape
    avg = Tensor(masks.mean(axis=2)) if not isinstance(masks, Tensor) else masks.mean(axis=2)
    logits = (avg @ w_z).reshape(b, m)
    zone_weights = softmax_rows(logits)
    content = (w_s * e + w_g * o).reshape(b, 1, -1)
    c = zone_weights.reshape(b, m, 1) * content
    return c, zone_weights


def multi_head_attention_batch(c, heads, wq, wk, wv, wo):
    """Scaled dot-product attention over the M zone rows of c (B, M, D)."""
    b, m, dim = c.shape
    if dim % heads:
        raise ConfigurationError(f"D={dim} not divisible by heads={heads}")
    dk = dim // heads
    scale = 1.0 / np.sqrt(dk)

    def split(t):
        return t.reshape(b, m, heads, dk).transpose((0, 2, 1, 3))

    q = split(c @ wq)
    k = split(c @ wk)
    v = split(c @ wv)
    scores = (q @ k.transpose((0, 1, 3, 2))) * scale
    weights = softmax_rows(scores)
    ctx = (weights @ v).transpose((0, 2, 1, 3)).reshape(b, m, dim)
    return ctx @ wo


class FusionModule:
    """Bundles the extractor, projection parameters, and attention weights.

    Ablation flags mirror the reduced model variants: with use_geo off the
    geographic embedding is zero; with use_attention off the conditioning
    matrix is the fused embedding itself.
    """

    def __init__(self, store, prefix, n, m, out_dim, heads, rng,
                 stem_channels=8, n_cx=3, drop_path=0.0,
                 use_geo=True, use_attention=True):
        if out_dim % heads:
            raise ConfigurationError(f"D={out_dim} not divisible by heads={heads}")
        self.n = n
        self.m = m
        self.d = out_dim
        self.heads = heads
        self.use_geo = use_geo
        self.use_attention = use_attention
        self.geo = GeoExtractor(store, f"{prefix}.geo", out_dim, rng,
                                stem_channels=stem_channels, n_cx=n_cx,
                                drop_path=drop_path)
        self.w_z = store.param(f"{prefix}.wz", (n, 1), normal(rng, 1.0 / np.sqrt(n)))
        self.w_s = store.param(f"{prefix}.ws", (), 1.0)
        self.w_g = store.param(f"{prefix}.wg", (), 1.0)
        scale = 1.0 / np.sqrt(out_dim)
        self.attn = {
            name: store.param(f"{prefix}.attn.{name}", (out_dim, out_dim),
                              normal(rng, scale))
            for name in ("wq", "wk", "wv", "wo")
        }

    def extract(self, images, mode="eval", rng=None):
        """images: (B, 1, N, N) tensor of [0,1]-rescaled labels."""
        if not self.use_geo:
            b = images.shape[0]
            return Tensor(np.zeros((b, self.d)))
        return self.geo.forward(images, mode=mode, rng=rng)

    def fuse(self, masks, e, o):
        return semantic_projection_batch(masks, e, o, self.w_z, self.w_s, self.w_g)

    def attend(self, c):
        if not self.use_attention:
            return c
        return multi_head_attention_batch(c, self.heads, self.attn["wq"],
                                          self.attn["wk"], self.attn["wv"],
                                          self.attn["wo"])

    def embed(self, hard_labels, e, images=None, mode="eval", rng=None):
        """Fused embedding c (B, M, D) of a batch of zone maps.

        hard_labels (B, N, N) give the partition masks and are never
        differentiated; images (B, 1, N, N) feed the extractor and default
        to the labels rescaled into [0, 1].  Joint training passes soft
        labels there, which is the gradient path into the zone flow.
        """
        masks = partition_zones_batch(hard_labels, self.m)
        if images is None:
            images = Tensor(np.asarray(hard_labels)[:, None].astype(np.float64)
                            / max(self.m - 1, 1))
        o = self.extract(images, mode=mode, rng=rng)
        c, _ = self.fuse(masks, as_tensor(e), o)
        return c
