"""tests/bitcheck.py compares two checkouts bit for bit; this runs it on
one tiny config, so the tool keeps working and stays deterministic."""

import bitcheck
import numpy as np

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


def test_each_line_prints_the_digest_of_its_array():
    cfg = ModelConfig(**GRADCHECK_PRESETS["tiny"])
    values = bitcheck.arrays("tiny", cfg)
    lines = bitcheck.check("tiny", cfg)
    assert [line.rsplit(" ", 1)[0] for line in lines] == list(values)
    for line, value in zip(lines, values.values()):
        printed = line.rsplit(" ", 1)[1]
        if isinstance(value, np.ndarray):
            assert printed == bitcheck.digest(value), line
        else:
            assert isinstance(value, int) and printed == str(value), line
