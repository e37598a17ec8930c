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


def test_a_checkout_compared_with_itself_reads_all_identical():
    # each side runs arrays() in its own process, under 1 and 2 BLAS threads
    cfg = ModelConfig(**GRADCHECK_PRESETS["tiny"])
    result = bitcheck.compare(bitcheck.SRC, {"tiny": cfg})
    assert list(result) == list(bitcheck.arrays("tiny", cfg))
    assert {v for v, _, _ in result.values()} == {"identical"}


def test_the_floor_is_a_multiple_of_the_parents_thread_count_deviation():
    x = np.random.default_rng(0).normal(size=(3, 4))
    scale = np.abs(x).max()
    parent = [x, x + 1e-12 * scale]     # what 2 threads change
    assert bitcheck.verdict([x, parent[1]], parent)[0] == "identical"
    assert bitcheck.verdict([x + 5e-12 * scale, parent[1]], parent)[0] == "within"
    assert bitcheck.verdict([x + 1e-9 * scale, parent[1]], parent)[0] == "beyond"
    # an array the thread count does not change gets the absolute floor
    assert bitcheck.verdict([x + 5e-13 * scale] * 2, [x, x])[0] == "within"
    assert bitcheck.verdict([x + 5e-12 * scale] * 2, [x, x])[0] == "beyond"
    # counter totals and missing gradients must match
    assert bitcheck.verdict([7, 7], [6, 6])[0] == "beyond"
    assert bitcheck.verdict([x, x], [None, None])[0] == "beyond"
