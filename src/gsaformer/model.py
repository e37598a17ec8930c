"""Toy encoder-decoder forecaster: value embedding + sinusoidal positions,
grouped self-attention encoder layers, decoder layers with causal grouped
self-attention and compressed cross-attention, and a linear output head.

The decoder is generative-style: its input is the last label_len input rows
followed by pred_len zero placeholders, and all horizons are predicted in
one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .attention import OpCounter
from .cca import CcaLayerParams, cca_forward, cca_op_count
from .gsa import ConfigError, GsaConfig, GsaLayerParams, gsa_forward, gsa_op_count
from .tensor import (
    Tensor,
    broadcast_add,
    layer_norm,
    load_checkpoint,
    matmul,
    relu,
    save_checkpoint,
    slice_rows,
)


@dataclass
class ModelConfig:
    seq_len: int
    pred_len: int
    n_features_in: int
    n_features_out: int
    d: int = 32
    heads: int = 4
    e_l: int = 3
    d_l: int = 3
    l_g: int = 64
    l_s: int = 4
    l_comp: int = 256
    label_len: int = -1            # -1 means seq_len // 2
    ffn_hidden: int = 128
    ablation_local_only: bool = False

    def __post_init__(self):
        if self.label_len < 0:
            self.label_len = self.seq_len // 2
        if self.label_len > self.seq_len:
            raise ConfigError(
                f"label_len {self.label_len} exceeds seq_len {self.seq_len}")
        if self.seq_len <= 0 or self.pred_len < 0:
            raise ConfigError(
                f"bad lengths: seq_len={self.seq_len}, pred_len={self.pred_len}")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} not divisible by heads={self.heads}")

    @property
    def dec_len(self) -> int:
        return self.label_len + self.pred_len

    def encoder_gsa(self) -> GsaConfig:
        return GsaConfig(
            l_g=self.l_g, l_s=self.l_s, d=self.d, heads=self.heads,
            m_max=math.ceil(self.seq_len / self.l_g), causal=False,
            global_path=not self.ablation_local_only)

    def decoder_gsa(self) -> GsaConfig:
        return GsaConfig(
            l_g=self.l_g, l_s=self.l_s, d=self.d, heads=self.heads,
            m_max=max(math.ceil(self.dec_len / self.l_g), 1),
            causal=True, global_path=False)


def model_config_to_text(cfg: ModelConfig) -> str:
    lines = []
    for f in fields(ModelConfig):
        lines.append(f"{f.name}={getattr(cfg, f.name)}")
    return "\n".join(lines) + "\n"


def sinusoidal_table(max_len: int, d: int) -> np.ndarray:
    """Fixed sin/cos position table, one row per position."""
    pos = np.arange(max_len)[:, None].astype(np.float64)
    dim = np.arange(d)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * (dim // 2) / d)
    table = np.zeros((max_len, d))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table


def build_decoder_input(x: Tensor, cfg: ModelConfig) -> Tensor:
    """Warm-start rows (the last label_len input rows) followed by pred_len
    zero placeholders."""
    if x.shape[0] != cfg.seq_len:
        raise ConfigError(f"decoder input source has {x.shape[0]} rows, "
                          f"expected seq_len={cfg.seq_len}")
    n_f = x.shape[1]
    data = np.zeros((cfg.dec_len, n_f))
    if cfg.label_len > 0:
        data[:cfg.label_len] = x.data[cfg.seq_len - cfg.label_len:]
    return Tensor(data)


class _Linear:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator,
                 zero: bool = False):
        a = 1.0 / math.sqrt(n_in)
        w = np.zeros((n_in, n_out)) if zero else rng.uniform(-a, a, (n_in, n_out))
        self.w = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros((1, n_out)), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return broadcast_add(matmul(x, self.w), self.b)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}w": self.w, f"{prefix}b": self.b}


class _LayerNorm:
    def __init__(self, d: int):
        self.g = Tensor(np.ones((1, d)), requires_grad=True)
        self.b = Tensor(np.zeros((1, d)), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.g, self.b)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}g": self.g, f"{prefix}b": self.b}


class _FeedForward:
    def __init__(self, d: int, hidden: int, rng: np.random.Generator):
        self.lin1 = _Linear(d, hidden, rng)
        self.lin2 = _Linear(hidden, d, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(relu(self.lin1(x)))

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {**self.lin1.named(f"{prefix}lin1."),
                **self.lin2.named(f"{prefix}lin2.")}


class _EncoderLayer:
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.gsa_cfg = cfg.encoder_gsa()
        self.gsa = GsaLayerParams.init(self.gsa_cfg, rng)
        self.norm1 = _LayerNorm(cfg.d)
        self.ffn = _FeedForward(cfg.d, cfg.ffn_hidden, rng)
        self.norm2 = _LayerNorm(cfg.d)

    def __call__(self, x: Tensor, counter: OpCounter) -> Tensor:
        x = self.norm1(broadcast_add(x, gsa_forward(x, self.gsa, self.gsa_cfg, counter)))
        return self.norm2(broadcast_add(x, self.ffn(x)))

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {**self.gsa.named(f"{prefix}gsa."),
                **self.norm1.named(f"{prefix}norm1."),
                **self.ffn.named(f"{prefix}ffn."),
                **self.norm2.named(f"{prefix}norm2.")}


class _DecoderLayer:
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.gsa_cfg = cfg.decoder_gsa()
        self.gsa = GsaLayerParams.init(self.gsa_cfg, rng)
        self.norm1 = _LayerNorm(cfg.d)
        self.cca = CcaLayerParams.init(cfg.d, cfg.seq_len, cfg.l_comp, rng)
        self.norm2 = _LayerNorm(cfg.d)
        self.ffn = _FeedForward(cfg.d, cfg.ffn_hidden, rng)
        self.norm3 = _LayerNorm(cfg.d)
        self.heads = cfg.heads

    def __call__(self, x: Tensor, enc_out: Tensor, counter: OpCounter) -> Tensor:
        x = self.norm1(broadcast_add(x, gsa_forward(x, self.gsa, self.gsa_cfg, counter)))
        x = self.norm2(broadcast_add(
            x, cca_forward(x, enc_out, self.cca, counter, heads=self.heads)))
        return self.norm3(broadcast_add(x, self.ffn(x)))

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {**self.gsa.named(f"{prefix}gsa."),
                **self.norm1.named(f"{prefix}norm1."),
                **self.cca.named(f"{prefix}cca."),
                **self.norm2.named(f"{prefix}norm2."),
                **self.ffn.named(f"{prefix}ffn."),
                **self.norm3.named(f"{prefix}norm3.")}


class ForecasterModel:
    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.embed = _Linear(cfg.n_features_in, cfg.d, rng)
        self.pos_table = sinusoidal_table(max(cfg.seq_len, cfg.dec_len), cfg.d)
        self.encoder_layers = [_EncoderLayer(cfg, rng) for _ in range(cfg.e_l)]
        self.decoder_layers = [_DecoderLayer(cfg, rng) for _ in range(cfg.d_l)]
        self.head = _Linear(cfg.d, cfg.n_features_out, rng)

    def parameters(self) -> dict[str, Tensor]:
        """Every learnable tensor exactly once, keyed by a stable name."""
        out = dict(self.embed.named("embed."))
        for i, layer in enumerate(self.encoder_layers):
            out.update(layer.named(f"enc{i}."))
        for i, layer in enumerate(self.decoder_layers):
            out.update(layer.named(f"dec{i}."))
        out.update(self.head.named("head."))
        return out

    def _embed(self, x: Tensor) -> Tensor:
        e = self.embed(x)
        return broadcast_add(e, Tensor(self.pos_table[:x.shape[0]]))

    def encoder_forward(self, x: Tensor, counter: Optional[OpCounter] = None) -> Tensor:
        """Embed + position-encode, then run the encoder stack."""
        if x.shape[1] != self.cfg.n_features_in:
            raise ConfigError(
                f"input has {x.shape[1]} features, expected {self.cfg.n_features_in}")
        counter = counter if counter is not None else OpCounter()
        h = self._embed(x)
        for layer in self.encoder_layers:
            h = layer(h, counter)
        return h

    def forward(self, x: Tensor, counter: Optional[OpCounter] = None) -> Tensor:
        """Full pass; returns only the pred_len forecast rows."""
        if self.cfg.pred_len < 1:
            raise ConfigError("forward needs pred_len >= 1")
        counter = counter if counter is not None else OpCounter()
        enc_out = self.encoder_forward(x, counter)
        dec_in = build_decoder_input(x, self.cfg)
        h = self._embed(dec_in)
        for layer in self.decoder_layers:
            h = layer(h, enc_out, counter)
        tail = slice_rows(h, self.cfg.label_len, self.cfg.dec_len) \
            if self.cfg.label_len > 0 else h
        return self.head(tail)

    def closed_form_score_elements(self) -> int:
        """Score elements one full forward must spend, from the per-layer
        count formulas; the instrumented counter must match this exactly."""
        cfg = self.cfg
        enc = gsa_op_count(cfg.seq_len, cfg.l_g, cfg.l_s,
                           global_path=not cfg.ablation_local_only)
        total = cfg.e_l * cfg.heads * enc
        if cfg.dec_len > 0:
            dec_self = gsa_op_count(cfg.dec_len, cfg.l_g, cfg.l_s, global_path=False)
            cross = cca_op_count(cfg.dec_len, cfg.seq_len, cfg.l_comp, heads=cfg.heads)
            total += cfg.d_l * (cfg.heads * dec_self + cross)
        return total

    def save(self, path) -> None:
        save_checkpoint(path, self.parameters())

    def load(self, path) -> None:
        saved = load_checkpoint(path)
        params = self.parameters()
        missing = sorted(set(params) - set(saved))
        extra = sorted(set(saved) - set(params))
        if missing or extra:
            raise ConfigError(
                f"checkpoint does not match model: missing={missing}, extra={extra}")
        for name, tensor in params.items():
            if saved[name].shape != tensor.data.shape:
                raise ConfigError(
                    f"checkpoint shape mismatch for {name}: "
                    f"{saved[name].shape} vs {tensor.data.shape}")
            tensor.data = saved[name].copy()
