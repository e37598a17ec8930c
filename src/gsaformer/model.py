"""Toy encoder-decoder forecaster: value embedding + sinusoidal positions,
grouped self-attention encoder layers, decoder layers with causal grouped
self-attention and compressed cross-attention, and a linear output head.

The decoder is generative-style: its input is the last label_len input rows
followed by pred_len zero placeholders, and all horizons are predicted in
one pass.  Every op in it is row-local, so without a tape it runs one row
tile of whole groups at a time through every layer and the head, reading
each layer's cross-attention keys, made once.  In an encoder layer only
the GSA's pooled summary rows span the sequence, and the GSA makes them
from its input first, so without a tape each layer streams over its own
input: tile by tile, the GSA finishes its output and the rest of the
layer (norm, FFN, norm) runs on it, writing the result over the tile's
input rows.  Under a tape both run block by block over the whole
length, so the tape holds one node per op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .attention import OpCounter
from .cca import (
    CcaLayerParams,
    cca_forward,
    cca_keys,
    cca_op_count,
    compress_encoder_output,
)
from .gsa import ConfigError, GsaConfig, GsaLayerParams, gsa_forward, gsa_op_count
from .tensor import (
    ParameterSet,
    Tensor,
    feed_forward,
    layer_norm,
    linear,
    load_checkpoint,
    recording,
    row_tiles,
    save_checkpoint,
    slice_rows,
    tile_rows,
    uniform_param,
    zero_row,
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
        if self.seq_len <= 0 or self.pred_len < 1:
            raise ConfigError(
                f"bad lengths: seq_len={self.seq_len}, pred_len={self.pred_len}")
        if self.label_len < -1:
            raise ConfigError(f"label_len must be >= -1, got {self.label_len}")
        if self.label_len == -1:
            self.label_len = self.seq_len // 2
        if self.label_len > self.seq_len:
            raise ConfigError(
                f"label_len {self.label_len} exceeds seq_len {self.seq_len}")
        for name, low in (("n_features_in", 1), ("n_features_out", 1), ("d", 1),
                          ("l_g", 1), ("l_comp", 1), ("ffn_hidden", 1),
                          ("e_l", 0), ("d_l", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.e_l > 0 and self.d_l == 0:
            raise ConfigError(f"e_l={self.e_l} encoder layers need d_l >= 1 decoder "
                              f"layers to read them, got d_l=0")
        # the attention layers' own rules (heads, l_s, d % heads) fire here
        self.encoder_gsa()
        self.decoder_gsa()

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
            m_max=math.ceil(self.dec_len / self.l_g),
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


class _Linear(ParameterSet):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.w = uniform_param(rng, (n_in, n_out), fan_in=n_in)
        self.b = zero_row(n_out)

    def __call__(self, x: Tensor, shift: Optional[np.ndarray] = None) -> Tensor:
        return linear(x, self.w, self.b, shift)


class _LayerNorm(ParameterSet):
    def __init__(self, d: int):
        self.g = Tensor(np.ones((1, d)), requires_grad=True)
        self.b = zero_row(d)

    def __call__(self, x: Tensor, f: Tensor, out: Optional[np.ndarray] = None) -> Tensor:
        return layer_norm(x, f, self.g, self.b, out=out)


def _residual(norm: _LayerNorm,
              sublayer: Callable[[Tensor], Tensor]) -> Callable[[Tensor], Tensor]:
    """The residual block x -> norm(x + sublayer(x)).  The sublayer's output
    is the block's own, so the norm writes over it: the block holds its
    input, its output and what the sublayer holds, and no more."""
    def block(x: Tensor) -> Tensor:
        f = sublayer(x)
        return norm(x, f, out=f.data)
    return block


class _FeedForward(ParameterSet):
    def __init__(self, d: int, hidden: int, rng: np.random.Generator):
        self.lin1 = _Linear(d, hidden, rng)
        self.lin2 = _Linear(hidden, d, rng)

    def __call__(self, x: Tensor, out: Optional[np.ndarray] = None) -> Tensor:
        return feed_forward(x, self.lin1.w, self.lin1.b, self.lin2.w, self.lin2.b, out=out)


class _EncoderLayer(ParameterSet):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.gsa_cfg = cfg.encoder_gsa()
        self.gsa = GsaLayerParams.init(self.gsa_cfg, rng)
        self.norm1 = _LayerNorm(cfg.d)
        self.ffn = _FeedForward(cfg.d, cfg.ffn_hidden, rng)
        self.norm2 = _LayerNorm(cfg.d)

    def blocks(self, counter: OpCounter) -> tuple:
        """The layer's residual blocks in order, each x -> norm(x + f(x)).
        The model applies them one at a time, so a block's input is dropped
        as soon as the next block has it."""
        return (_residual(self.norm1, lambda x: gsa_forward(x, self.gsa, self.gsa_cfg, counter)),
                _residual(self.norm2, self.ffn))

    def stream(self, h: Tensor, counter: OpCounter) -> None:
        """The layer over h without a tape, written over h's rows (h's
        array is the forward's own): the GSA runs with a continuation that
        takes each row tile of its output through the rest of the layer,
        norm1, the FFN and norm2, which are row-local, and writes the
        tile's result over the rows it came from.  Once norm1 has read a
        tile of h, those rows are dead: the FFN writes its output over
        them and norm2 normalizes it there, in place.  The layer holds h,
        a half tile of K and V and one tile of every other array it
        makes; the bits are the blocks'."""
        def rest(rows: slice, f: np.ndarray) -> None:
            y = self.norm1(Tensor(h.data[rows]), Tensor(f), out=f)
            h_rows = h.data[rows]
            self.norm2(y, self.ffn(y, out=h_rows), out=h_rows)
        gsa_forward(h, self.gsa, self.gsa_cfg, counter, then=rest)


class _DecoderLayer(ParameterSet):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.gsa_cfg = cfg.decoder_gsa()
        self.gsa = GsaLayerParams.init(self.gsa_cfg, rng)
        self.norm1 = _LayerNorm(cfg.d)
        self.cca = CcaLayerParams.init(cfg.d, cfg.seq_len, cfg.l_comp, rng)
        self.norm2 = _LayerNorm(cfg.d)
        self.ffn = _FeedForward(cfg.d, cfg.ffn_hidden, rng)
        self.norm3 = _LayerNorm(cfg.d)
        self.heads = cfg.heads

    def memory(self, enc_out: Tensor) -> Tensor:
        """What the layer's cross-attention reads of the encoder output:
        its compression, or enc_out itself when the layer has no C."""
        return compress_encoder_output(enc_out, self.cca.c)

    def blocks(self, memory: Tensor, counter: OpCounter, l_dec: Optional[int] = None) -> tuple:
        """The layer's residual blocks in order, as _EncoderLayer.blocks;
        memory is the layer's memory(enc_out), and each cross-attention
        call makes its own keys from it.  With l_dec, for a decoder that
        does not record, the blocks take row tiles of whole groups of an
        l_dec-row decoder sequence: the cross-attention's keys are
        projected (and its l_dec-by-l_k scores counted) once, here, for
        every tile, and the blocks hold the keys, not the memory."""
        keys = None
        if l_dec is not None:
            keys, memory = cca_keys(memory, self.cca, self.heads, counter, l_dec), None
        return (_residual(self.norm1, lambda x: gsa_forward(x, self.gsa, self.gsa_cfg, counter)),
                _residual(self.norm2, lambda x: cca_forward(x, memory, self.cca, counter,
                                                            heads=self.heads, keys=keys)),
                _residual(self.norm3, self.ffn))


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
        """Every learnable tensor exactly once, keyed by a stable name: the
        tensors the layers hold that require a gradient.  A constant a layer
        holds (a key bias that softmax cancels) is not a parameter, so Adam,
        checkpoints and gradcheck never see it."""
        out = self.embed.named("embed.")
        for i, layer in enumerate(self.encoder_layers):
            out.update(layer.named(f"enc{i}."))
        for i, layer in enumerate(self.decoder_layers):
            out.update(layer.named(f"dec{i}."))
        out.update(self.head.named("head."))
        return {name: t for name, t in out.items() if t.requires_grad}

    def _embed(self, x: Tensor, start: int = 0) -> Tensor:
        """The value embedding plus the position table's rows from start
        on, as one linear op."""
        return self.embed(x, self.pos_table[start:start + x.shape[0]])

    def encoder_forward(self, x: Tensor, counter: Optional[OpCounter] = None) -> Tensor:
        """Embed + position-encode, then run the encoder stack: block by
        block under a tape, and streamed (_EncoderLayer.stream) over the
        embedding's array without one."""
        if x.shape[1] != self.cfg.n_features_in:
            raise ConfigError(
                f"input has {x.shape[1]} features, expected {self.cfg.n_features_in}")
        counter = counter if counter is not None else OpCounter()
        h = self._embed(x)
        streamed = not recording([h, *self.parameters().values()])
        for layer in self.encoder_layers:
            if streamed:
                layer.stream(h, counter)
                continue
            # block by block, so that no layer's input outlives its first block
            for block in layer.blocks(counter):
                h = block(h)
        return h

    def forward(self, x: Tensor, counter: Optional[OpCounter] = None) -> Tensor:
        """Full pass; returns only the pred_len forecast rows.  Every
        decoder layer's compression of the encoder output is made first,
        so the encoder output is dropped before the decoder runs unless a
        layer reads it uncompressed.

        Every op of the decoder is row-local (its GSA is causal, with no
        global path, and its CCA reads fixed memories), so without a tape
        the decoder runs one row tile of whole groups (tile_rows(l_g)) at
        a time through every layer, and the head writes the tile's
        forecast rows: it holds each layer's cross-attention keys, made
        once (the memories are dropped once the keys exist), and no
        decoder activation longer than a tile.  Under a tape it runs once
        over the whole length, so the tape holds one node per op, and
        each cross-attention call makes its own keys."""
        counter = counter if counter is not None else OpCounter()
        cfg = self.cfg
        enc_out = self.encoder_forward(x, counter)
        memories = [layer.memory(enc_out) for layer in self.decoder_layers]
        del enc_out
        taped = recording([*memories, *self.parameters().values()])
        layers = [layer.blocks(memory, counter, None if taped else cfg.dec_len)
                  for layer, memory in zip(self.decoder_layers, memories)]
        del memories        # held by the taped blocks; the streamed ones hold their keys
        dec_in = build_decoder_input(x, cfg).data
        tiles = [slice(0, cfg.dec_len)] if taped else row_tiles(cfg.dec_len, tile_rows(cfg.l_g))
        parts = []
        for rows in tiles:
            h = self._embed(Tensor(dec_in[rows]), rows.start)
            for blocks in layers:
                for block in blocks:
                    h = block(h)
            label_rows = max(cfg.label_len - rows.start, 0)  # the tile's rows before the forecast
            if label_rows >= h.shape[0]:
                continue
            # a one-row product goes to gemv, which rounds otherwise than the
            # gemm that computes the row among the forecast's others: a tile
            # with one forecast row of several gives the head a label row too
            first = label_rows - int(label_rows == h.shape[0] - 1 and cfg.pred_len > 1)
            y = self.head(slice_rows(h, first, h.shape[0]) if first > 0 else h)
            parts.append(y if first == label_rows else Tensor(y.data[1:]))
        return parts[0] if len(parts) == 1 else Tensor(np.concatenate([p.data for p in parts]))

    def closed_form_score_elements(self) -> int:
        """Score elements one full forward must spend, from the per-layer
        count formulas; the instrumented counter must match this exactly."""
        cfg = self.cfg
        enc = gsa_op_count(cfg.seq_len, cfg.l_g, cfg.l_s, cfg.encoder_gsa().uses_global)
        dec_self = gsa_op_count(cfg.dec_len, cfg.l_g, cfg.l_s, cfg.decoder_gsa().uses_global)
        cross = cca_op_count(cfg.dec_len, cfg.seq_len, cfg.l_comp, heads=cfg.heads)
        return cfg.e_l * cfg.heads * enc + cfg.d_l * (cfg.heads * dec_self + cross)

    def save(self, path) -> None:
        save_checkpoint(path, self.parameters())

    def load(self, path) -> None:
        """Set every parameter from checkpoint path, which must hold exactly
        the parameter names, each with its parameter's shape.  A mismatch
        raises ConfigError naming path and the entries, and then no
        parameter has been assigned."""
        params = self.parameters()
        saved = load_checkpoint(path)
        missing = sorted(set(params) - set(saved))
        extra = sorted(set(saved) - set(params))
        if missing or extra:
            raise ConfigError(f"checkpoint {path} does not match: "
                              f"missing={missing}, extra={extra}")
        for name, arr in saved.items():
            if arr.shape != params[name].shape:
                raise ConfigError(f"checkpoint {path}: shape mismatch for {name}: "
                                  f"{arr.shape} vs {params[name].shape}")
        for name, p in params.items():
            p.data = saved[name]
