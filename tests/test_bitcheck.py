"""tests/bitcheck.py compares two checkouts bit for bit; this runs it on
one tiny config, so the tool keeps working and stays deterministic."""

import bitcheck

from gsaformer.cli import GRADCHECK_PRESETS
from gsaformer.model import ForecasterModel, ModelConfig


def test_two_runs_print_identical_lines_and_a_gradient_for_every_parameter():
    cfg = ModelConfig(**GRADCHECK_PRESETS["tiny"])
    first, second = (bitcheck.check("tiny", cfg) for _ in range(2))
    assert first == second
    grads = [line.split() for line in first if "grad." in line.split()[1]]
    # grad.* and batch2.grad.*, one line each per parameter
    assert len(grads) == 2 * len(ForecasterModel(cfg).parameters())
    assert [words[1] for words in grads if words[2] == "none"] == []
