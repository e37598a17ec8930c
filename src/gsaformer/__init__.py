"""Grouped self-attention / compressed cross-attention forecaster with an
instrumented complexity harness."""

from .attention import AttentionMask, OpCounter, row_softmax, scaled_dot_attention
from .cca import CcaLayerParams, cca_forward, cca_op_count, compress_encoder_output
from .gsa import (
    GsaConfig,
    GsaLayerParams,
    gsa_forward,
    gsa_op_count,
    merge_outputs,
    summarize_group,
)
from .model import ForecasterModel, ModelConfig, build_decoder_input
from .tensor import ComputationTape, Tensor, backward, load_checkpoint, save_checkpoint
from .training import TrainConfig, adam_step, grad_check, mse_loss, train

__version__ = "0.1.0"

__all__ = [
    "AttentionMask", "OpCounter", "row_softmax", "scaled_dot_attention",
    "CcaLayerParams", "cca_forward", "cca_op_count", "compress_encoder_output",
    "GsaConfig", "GsaLayerParams", "gsa_forward", "gsa_op_count",
    "merge_outputs", "summarize_group",
    "ForecasterModel", "ModelConfig", "build_decoder_input",
    "ComputationTape", "Tensor", "backward", "load_checkpoint", "save_checkpoint",
    "TrainConfig", "adam_step", "grad_check", "mse_loss", "train",
    "__version__",
]
