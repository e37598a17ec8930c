import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gsaformer.benchmark import BenchReport, BenchRow, emit_csv_report
from gsaformer.cli import write_text
from gsaformer.data import TimeSeries, write_csv
from gsaformer.model import ModelConfig, model_config_to_text
from gsaformer.tensor import (
    TILE_ROWS,
    CheckpointError,
    ComputationTape,
    ContractError,
    DimensionError,
    EmptyTapeError,
    NumericsError,
    ParameterSet,
    RankError,
    Tensor,
    _record,
    accumulate_grad,
    atomic_write,
    backward,
    broadcast_add,
    feed_forward,
    layer_norm,
    linear,
    load_checkpoint,
    matmul,
    mean_rows,
    multiply,
    recording,
    save_checkpoint,
    slice_rows,
    transpose,
)
from gsaformer.training import TrainHistory

from helpers import (
    check_op_gradients,
    concat_cols,
    concat_rows,
    layer_norm_of,
    naive_matmul,
    pad_rows,
    relu,
    slice_cols,
    subtract,
    sum_all,
)


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]))
        npt.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_projector_row_selection(self):
        out = matmul(Tensor([[1.0, 0.0], [0.0, 0.0]]),
                     Tensor([[5.0, 6.0], [7.0, 8.0]]))
        npt.assert_array_equal(out.data, [[5.0, 6.0], [0.0, 0.0]])

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = matmul(Tensor(a), Tensor(b))
        npt.assert_allclose(out.data, naive_matmul(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_associativity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = Tensor(rng.normal(size=(4, 5)))
            b = Tensor(rng.normal(size=(5, 3)))
            c = Tensor(rng.normal(size=(3, 6)))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            npt.assert_allclose(left.data, right.data, atol=1e-10)

    def test_gradients(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        check_op_gradients(lambda: sum_all(matmul(a, b)), [a, b])


class TestTranspose:
    def test_basic(self):
        npt.assert_array_equal(transpose(Tensor([[1.0, 2.0], [3.0, 4.0]])).data,
                               [[1.0, 3.0], [2.0, 4.0]])

    def test_involution(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(3, 5)))
        npt.assert_array_equal(transpose(transpose(x)).data, x.data)

    def test_row_to_column(self):
        out = transpose(Tensor(np.arange(5.0).reshape(1, 5)))
        assert out.shape == (5, 1)

    def test_rank_error(self):
        with pytest.raises(RankError):
            transpose(Tensor(np.zeros((2, 2, 2))))

    def test_gradients(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2)))
        check_op_gradients(lambda: sum_all(matmul(transpose(a), w)), [a])


class TestBroadcastAdd:
    def test_row_broadcast(self):
        out = broadcast_add(Tensor([[1.0, 1.0], [2.0, 2.0]]), Tensor([[10.0, 20.0]]))
        npt.assert_array_equal(out.data, [[11.0, 21.0], [12.0, 22.0]])

    def test_additive_identity(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 4)))
        npt.assert_array_equal(broadcast_add(x, Tensor(np.zeros((3, 4)))).data, x.data)

    def test_broadcast_gradient_is_column_sums(self):
        rng = np.random.default_rng(6)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)))

        def loss_fn():
            return sum_all(multiply(broadcast_add(a, b), w))

        check_op_gradients(loss_fn, [b])
        # the analytic grad must equal the column sums of the upstream grad
        npt.assert_allclose(b.grad, w.data.sum(axis=0, keepdims=True), atol=1e-12)

    def test_incompatible_trailing_extent(self):
        with pytest.raises(DimensionError):
            broadcast_add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 2))))

    def test_scalar_and_full_shapes(self):
        x = Tensor([[1.0, 2.0]])
        npt.assert_array_equal(
            broadcast_add(x, Tensor([[1.0]])).data, [[2.0, 3.0]])


class TestMeanRows:
    def test_basic(self):
        npt.assert_array_equal(mean_rows(Tensor([[2.0, 4.0], [4.0, 8.0]])).data,
                               [[3.0, 6.0]])

    def test_single_row_identity(self):
        x = Tensor([[1.0, 2.0, 3.0]])
        npt.assert_array_equal(mean_rows(x).data, x.data)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 3))
        expected = np.array([[sum(x[i, j] for i in range(5)) / 5.0
                              for j in range(3)]])
        npt.assert_allclose(mean_rows(Tensor(x)).data, expected, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(8)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(1, 3)))
        check_op_gradients(lambda: sum_all(multiply(mean_rows(a), w)), [a])


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        with ComputationTape() as tape:
            backward(sum_all(x), tape)
        npt.assert_array_equal(x.grad, np.ones((2, 2)))

    def test_square_gives_two_x(self):
        x = Tensor([[3.0]], requires_grad=True)
        with ComputationTape() as tape:
            backward(sum_all(multiply(x, x)), tape)
        npt.assert_array_equal(x.grad, [[6.0]])

    def test_two_layer_network_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(4, 3)))
        w1 = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        b1 = Tensor(rng.normal(size=(1, 5)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        y = Tensor(rng.normal(size=(4, 2)))

        def loss_fn():
            h = relu(broadcast_add(matmul(x, w1), b1))
            diff = subtract(matmul(h, w2), y)
            return sum_all(multiply(diff, diff))

        check_op_gradients(loss_fn, [w1, b1, w2])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with ComputationTape() as tape:
            y = multiply(x, 2.0)
            with pytest.raises(ContractError):
                backward(y, tape)

    def test_empty_tape_rejected(self):
        with pytest.raises(EmptyTapeError):
            backward(Tensor([[1.0]]), ComputationTape())

    def test_repeated_backward_accumulates(self):
        x = Tensor([[2.0]], requires_grad=True)
        with ComputationTape() as tape:
            loss = sum_all(multiply(x, x))
            backward(loss, tape)
            with pytest.raises(EmptyTapeError):
                backward(loss, tape)
        npt.assert_array_equal(x.grad, [[4.0]])
        with ComputationTape() as tape:
            backward(sum_all(multiply(x, x)), tape)
        npt.assert_array_equal(x.grad, [[8.0]])

    def test_rule_of_an_output_without_gradient_never_runs(self):
        x = Tensor([[2.0]], requires_grad=True)

        def unreachable():
            raise AssertionError("rule ran for an output that got no gradient")

        with ComputationTape() as tape:
            _record("unread", Tensor([[5.0]]), (x,), unreachable)
            loss = sum_all(multiply(x, x))
            assert len(tape) == 3
            backward(loss, tape)
        assert len(tape) == 0
        npt.assert_array_equal(x.grad, [[4.0]])

    def test_recording_needs_a_tape_and_an_input_that_wants_gradients(self):
        x, c = Tensor([[1.0]], requires_grad=True), Tensor([[1.0]])
        assert not recording((x,))
        with ComputationTape():
            assert recording((c, x))
            assert not recording((c,))
            assert not recording(())

    def test_accumulate_grad_copies_on_first_write(self):
        t = Tensor(np.zeros((2, 2)), requires_grad=True)
        g = np.array([[1.0, 2.0], [3.0, 4.0]])
        accumulate_grad(t, g)
        assert t.grad is not g and not np.shares_memory(t.grad, g)
        accumulate_grad(t, g)
        npt.assert_array_equal(g, [[1.0, 2.0], [3.0, 4.0]])
        npt.assert_array_equal(t.grad, 2.0 * g)

    def test_accumulate_grad_takes_owned_arrays(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        g = np.ones((2, 3))
        accumulate_grad(t, g, owned=True)
        assert t.grad is g
        accumulate_grad(t, g)               # adds in place into the owned buffer
        npt.assert_array_equal(t.grad, 2.0 * np.ones((2, 3)))

    def test_accumulate_grad_copies_owned_arrays_that_are_not_c_ordered(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        g = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        accumulate_grad(t, g, owned=True)
        assert t.grad.flags.c_contiguous and not np.shares_memory(t.grad, g)
        npt.assert_array_equal(t.grad, g)

    def test_accumulate_grad_rejects_wrong_shape(self):
        t = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(DimensionError):
            accumulate_grad(t, np.ones((1, 2)))
        accumulate_grad(t, np.ones((2, 2)))
        with pytest.raises(DimensionError):
            accumulate_grad(t, np.ones((1, 2)))   # would broadcast into +=


class TestParameterSet:
    def test_named_walks_tensors_and_nested_sets_in_attribute_order(self):
        class Inner(ParameterSet):
            def __init__(self):
                self.w = Tensor(1.0)
                self.unused = None
                self.b = Tensor(2.0)

        class Outer(ParameterSet):
            def __init__(self):
                self.width = 4
                self.inner = Inner()
                self.g = Tensor(3.0)

        outer = Outer()
        named = outer.named("m.")
        assert list(named) == ["m.inner.w", "m.inner.b", "m.g"]
        assert named["m.inner.b"] is outer.inner.b
        assert list(outer.inner.named()) == ["w", "b"]


class TestLinear:
    @pytest.mark.parametrize("rows", [1, 5])
    def test_matches_matmul_plus_bias_bit_for_bit(self, rows):
        rng = np.random.default_rng(30 + rows)
        arrays = rng.normal(size=(rows, 4)), rng.normal(size=(4, 3)), rng.normal(size=(1, 3))
        weights = Tensor(rng.normal(size=(rows, 3)))
        results = []
        for op in (linear, lambda x, w, b: broadcast_add(matmul(x, w), b)):
            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
            with ComputationTape() as tape:
                out = op(x, w, b)
                backward(sum_all(multiply(out, weights)), tape)
            results.append((out.data, x.grad, w.grad, b.grad))
        for fused, composed in zip(*results):
            npt.assert_array_equal(fused, composed)

    def test_one_tape_node(self):
        x, w, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)), requires_grad=True), \
            Tensor(np.zeros((1, 4)))
        with ComputationTape() as tape:
            linear(x, w, b)
        assert len(tape) == 1

    def test_shape_errors(self):
        x, w = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
        with pytest.raises(DimensionError):
            linear(x, Tensor(np.ones((2, 4))), Tensor(np.zeros((1, 4))))
        with pytest.raises(DimensionError):
            linear(x, w, Tensor(np.zeros((2, 4))))

    def test_overflow_raises_once(self):
        big = Tensor([[1e300]])
        with np.errstate(over="ignore"):
            with pytest.raises(NumericsError):
                linear(big, big, Tensor([[0.0]]))


class TestGradientOwnership:
    """Rules hand fresh gradient arrays over without a copy; these graphs
    are where a rule's array, once owned, could be written twice."""

    def test_residual_over_input_that_feeds_three_projections(self):
        rng = np.random.default_rng(33)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        projections = [(Tensor(rng.normal(size=(4, 4)), requires_grad=True),
                        Tensor(rng.normal(size=(1, 4)), requires_grad=True))
                       for _ in range(3)]
        g = rng.normal(size=(5, 4))
        with ComputationTape() as tape:
            q, k, v = (linear(x, w, b) for w, b in projections)
            mixed = broadcast_add(broadcast_add(q, k), v)
            y = broadcast_add(x, mixed)              # the residual
            backward(sum_all(multiply(y, Tensor(g))), tape)
        (w_q, _), (w_k, _), (w_v, _) = projections
        # replay order: residual, then v, k, q
        npt.assert_array_equal(x.grad, ((g + g @ w_v.data.T) + g @ w_k.data.T) + g @ w_q.data.T)
        for w, b in projections:
            npt.assert_array_equal(w.grad, x.data.T @ g)
            npt.assert_array_equal(b.grad, g.sum(axis=0, keepdims=True))
        # op outputs drop their gradient once their rule has read it
        assert [t.grad for t in (q, k, v, mixed, y)] == [None] * 5

    def test_matmul_of_a_tensor_with_itself(self):
        rng = np.random.default_rng(34)
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        g = rng.normal(size=(3, 3))
        with ComputationTape() as tape:
            backward(sum_all(multiply(matmul(a, a), Tensor(g))), tape)
        npt.assert_array_equal(a.grad, g @ a.data.T + a.data.T @ g)

    def test_product_of_a_tensor_with_itself(self):
        a = Tensor([[1.5, -2.0]], requires_grad=True)
        with ComputationTape() as tape:
            backward(sum_all(multiply(a, a)), tape)
        npt.assert_array_equal(a.grad, 2.0 * a.data)


@st.composite
def checkpoint_entries(draw, min_size=0):
    """Up to 4 named float64 arrays of 0 to 3 axes (extents 0 to 4, finite
    values) under distinct printable ASCII names."""
    names = draw(st.lists(st.text(st.characters(min_codepoint=33, max_codepoint=126),
                                  min_size=1, max_size=6),
                          min_size=min_size, max_size=4, unique=True))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return {name: draw(arrays(np.float64, array_shapes(min_dims=0, max_dims=3,
                                                       min_side=0, max_side=4),
                              elements=finite))
            for name in names}


def assert_loads_exactly(blob, loaded):
    """loaded holds the entries blob's header lists, in its order, and
    their values are the whole payload, byte for byte."""
    end = blob.index(b"\n.\n")
    lines = blob[:end].decode("ascii").splitlines()[1:]
    assert [(name, arr.shape) for name, arr in loaded.items()] == [
        (fields[0], tuple(int(d) for d in fields[1:])) for fields in map(str.split, lines)]
    assert b"".join(arr.astype("<f8").tobytes() for arr in loaded.values()) == blob[end + 3:]


@st.composite
def layer_norm_cases(draw):
    """(rows, d, f is x, which of x, f, gain, bias require a gradient, seed);
    at least one does, so the op records."""
    same = draw(st.booleans())
    flags = draw(st.tuples(*[st.booleans()] * 4).filter(any))
    if same:
        flags = (flags[0] or flags[1],) * 2 + flags[2:]
    return (draw(st.integers(1, 12)), draw(st.integers(1, 16)), same,
            flags, draw(st.integers(0, 2**32 - 1)))


def _norm_forward_and_grads(op, arrays, flags, same, weights, tape):
    x, f, gain, bias = (Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, flags))
    f = x if same else f
    if tape:
        with ComputationTape() as t:
            out = op(x, f, gain, bias)
            backward(sum_all(multiply(out, Tensor(weights))), t)
    else:
        out = op(x, f, gain, bias)
    return [out.data] + [p.grad for p in (x, f, gain, bias)]


class TestFusedLayerNorm:
    """layer_norm(x, f, ...) against the norm of the composed residual add."""

    @settings(max_examples=60)
    @given(layer_norm_cases())
    def test_matches_norm_of_broadcast_add_bit_for_bit(self, case):
        rows, d, same, flags, seed = case
        rng = np.random.default_rng(seed)
        arrays = (rng.normal(1.0, 3.0, size=(rows, d)), rng.normal(size=(rows, d)),
                  rng.normal(size=(1, d)), rng.normal(size=(1, d)))
        weights = rng.normal(size=(rows, d))
        for tape in (True, False):
            fused = _norm_forward_and_grads(layer_norm, arrays, flags, same, weights, tape)
            composed = _norm_forward_and_grads(
                lambda x, f, g, b: layer_norm_of(broadcast_add(x, f), g, b),
                arrays, flags, same, weights, tape)
            for got, expected in zip(fused, composed):
                assert (got is None) == (expected is None)
                if got is not None:
                    assert got.tobytes() == expected.tobytes()

    @settings(max_examples=60)
    @given(layer_norm_cases())
    def test_recorded_output_recipe_rebuilds_its_values_bit_for_bit(self, case):
        rows, d, same, flags, seed = case
        rng = np.random.default_rng(seed)
        x, f, gain, bias = (Tensor(rng.normal(size=(n, d)), requires_grad=r)
                            for n, r in zip((rows, rows, 1, 1), flags))
        f = x if same else f
        assert layer_norm(x, f, gain, bias).recipe is None      # no tape, no recipe
        with ComputationTape():
            out = layer_norm(x, f, gain, bias)
        first, second = out.recipe(), out.recipe()
        for rebuilt in (first, second):
            assert rebuilt.flags.c_contiguous and not np.shares_memory(rebuilt, out.data)
            assert rebuilt.shape == out.shape and rebuilt.tobytes() == out.data.tobytes()
        assert not np.shares_memory(first, second)

    @settings(max_examples=60)
    @given(layer_norm_cases())
    def test_writing_over_f_gives_the_bits_of_a_new_array(self, case):
        # as each residual block of the model writes its norm over its
        # sublayer's output
        rows, d, same, flags, seed = case
        rng = np.random.default_rng(seed)
        arrays = (rng.normal(1.0, 3.0, size=(rows, d)), rng.normal(size=(rows, d)),
                  rng.normal(size=(1, d)), rng.normal(size=(1, d)))
        weights = rng.normal(size=(rows, d))

        def over_f(x, f, gain, bias):
            out = layer_norm(x, f, gain, bias, out=f.data)
            assert out.data is f.data
            return out

        for tape in (True, False):
            new = _norm_forward_and_grads(layer_norm, arrays, flags, same, weights, tape)
            written = _norm_forward_and_grads(over_f, arrays, flags, same, weights, tape)
            for got, expected in zip(written, new):
                assert (got is None) == (expected is None)
                if got is not None:
                    assert got.tobytes() == expected.tobytes()

    def test_residual_of_another_shape_rejected(self):
        x, row = Tensor(np.ones((2, 3))), Tensor(np.ones((1, 3)))
        with pytest.raises(DimensionError):
            layer_norm(x, row, row, row)


class TestFeedForwardMemory:
    def test_untaped_call_holds_its_output_and_one_hidden_tile(self):
        l, d, hidden = 4096, 16, 64
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(l, d)))
        params = [Tensor(rng.normal(size=shape))
                  for shape in ((d, hidden), (1, hidden), (hidden, d), (1, d))]
        output = l * d * 8
        hidden_tile = TILE_ROWS * hidden * 8
        tracemalloc.start()
        try:
            feed_forward(x, *params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output, the Tensor constructor's finiteness mask of it (a byte
        # an entry) and one tile of hidden activations, where the whole
        # hidden activations would be 8 tiles
        assert output + hidden_tile <= peak < output + output // 8 + hidden_tile * 5 // 4
        assert l * hidden * 8 == 8 * hidden_tile


class TestOtherOps:
    def test_slice_and_concat_rows_roundtrip(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(6, 3)))
        parts = [slice_rows(x, 0, 2), slice_rows(x, 2, 6)]
        npt.assert_array_equal(concat_rows(parts).data, x.data)

    def test_slice_and_concat_cols_roundtrip(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 6)))
        parts = [slice_cols(x, 0, 4), slice_cols(x, 4, 6)]
        npt.assert_array_equal(concat_cols(parts).data, x.data)

    def test_pad_rows(self):
        x = Tensor([[1.0, 2.0]])
        out = pad_rows(x, 3)
        npt.assert_array_equal(out.data, [[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])

    def test_slice_concat_pad_gradients(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3)))

        def loss_fn():
            top = slice_rows(a, 0, 2)
            bottom = slice_rows(a, 2, 4)
            stacked = concat_rows([pad_rows(top, 3), slice_rows(bottom, 0, 2)])
            return sum_all(multiply(stacked, w))

        check_op_gradients(loss_fn, [a])

    def test_mean_rows_and_multiply_gradients(self):
        rng = np.random.default_rng(13)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        check_op_gradients(
            lambda: sum_all(multiply(mean_rows(multiply(a, b)), 0.5)), [a, b])

    def test_layer_norm_gradients(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        g = Tensor(rng.uniform(0.5, 1.5, size=(1, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 6)))
        f = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        check_op_gradients(lambda: sum_all(multiply(layer_norm(x, f, g, b), w)),
                           [x, f, g, b])

    @pytest.mark.parametrize("shape", [(1, 1), (3, 6), (40, 256)])
    def test_layer_norm_forward_matches_np_var_bit_for_bit(self, shape):
        rng = np.random.default_rng(16)
        x, f = rng.normal(3.0, 2.0, size=shape), rng.normal(size=shape)
        g, b = rng.normal(size=(1, shape[1])), rng.normal(size=(1, shape[1]))
        eps = 1e-6
        s = x + f
        inv = 1.0 / np.sqrt(s.var(axis=1, keepdims=True) + eps)
        expected = (s - s.mean(axis=1, keepdims=True)) * inv * g + b
        out = layer_norm(Tensor(x), Tensor(f), Tensor(g), Tensor(b))
        npt.assert_array_equal(out.data, expected)

    def test_relu_gradients(self):
        rng = np.random.default_rng(15)
        # keep values away from the kink so central differences are exact
        a = Tensor(rng.choice([-1.0, 1.0], size=(3, 4)) * rng.uniform(0.5, 1.5, (3, 4)),
                   requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)))
        check_op_gradients(lambda: sum_all(multiply(relu(a), w)), [a])


class TestNumerics:
    def test_constructor_rejects_non_finite(self):
        with pytest.raises(NumericsError):
            Tensor([[np.inf, 0.0]])
        with pytest.raises(NumericsError):
            Tensor([[np.nan]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_checks_every_row_tile(self, bad):
        # the check runs a row tile at a time: a bad value in the last,
        # short tile still raises
        values = np.zeros((6 * TILE_ROWS + 3, 32))
        Tensor(values)
        values[-1, -1] = bad
        with pytest.raises(NumericsError):
            Tensor(values)

    def test_constructor_check_holds_one_tile_of_mask(self):
        values = np.ones((6 * TILE_ROWS + 3, 32))
        whole_mask = values.size      # bytes of one bool per entry
        tracemalloc.start()
        try:
            Tensor(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < whole_mask / 4, (peak, whole_mask)

    def test_large_magnitude_inputs_stay_finite(self):
        rng = np.random.default_rng(16)
        a = Tensor(rng.uniform(-1e6, 1e6, size=(4, 4)))
        b = Tensor(rng.uniform(-1e6, 1e6, size=(4, 4)))
        for out in (matmul(a, b), broadcast_add(a, b), multiply(a, b),
                    subtract(a, b), mean_rows(a), sum_all(a), relu(a),
                    transpose(a)):
            assert np.all(np.isfinite(out.data))

    def test_overflowing_op_raises(self):
        big = Tensor([[1e300]])
        with np.errstate(over="ignore"):
            with pytest.raises(NumericsError):
                multiply(big, 1e300)
            with pytest.raises(NumericsError):
                matmul(big, big)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(17)
        named = {"layer.w": Tensor(rng.normal(size=(3, 4))),
                 "layer.b": Tensor(rng.normal(size=(1, 4))),
                 "alpha": np.array([[1.5]])}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, named)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(named)
        for name, value in named.items():
            arr = value.data if isinstance(value, Tensor) else value
            npt.assert_array_equal(loaded[name], arr)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not-a-checkpoint\n.\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("header, what", [
        (b"w 2\n\nb 1\n", "blank header line 3"),
        (b"w\xc3\xa9 2\n", "non-ASCII"),
        (b"w 2 x\n", "bad dims for 'w'"),
        (b"w -2\n", "bad dims for 'w'"),
        (b"w 2\nw 1\n", "duplicate entry 'w'"),
        (b"w" + b" 1" * 70 + b"\n", "bad dims for 'w'"),
        (b"w " + b"1" * 4301 + b"\n", "bad dims for 'w'"),
    ], ids=["blank-line", "non-ascii-name", "non-integer-dim", "negative-dim",
            "duplicate-name", "too-many-dims", "more-digits-than-int-converts"])
    def test_malformed_header_raises_naming_the_file(self, tmp_path, header, what):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"gsaformer-checkpoint v1\n" + header + b".\n" + bytes(24))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value) and what in str(err.value)

    @pytest.mark.parametrize("name", ["a b", "w\t", "\u00e9", ""],
                             ids=["space", "tab", "non-ascii", "empty"])
    def test_bad_name_rejected_before_any_write(self, tmp_path, name):
        path = tmp_path / "model.ckpt"
        with pytest.raises(CheckpointError, match="non-empty ASCII without whitespace"):
            save_checkpoint(path, {"w": np.ones((2, 2)), name: np.zeros(2)})
        assert list(tmp_path.iterdir()) == []

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones((2, 2))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entry_raises_naming_file_and_entry(self, tmp_path, value):
        path = tmp_path / "model.ckpt"
        bad = np.ones((2, 3))
        bad[1, 2] = value
        save_checkpoint(path, {"w": np.ones((2, 2)), "b": bad})
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value) and "'b'" in str(err.value)

    def test_load_peaks_at_the_file_plus_the_arrays(self, tmp_path):
        path = tmp_path / "big.ckpt"
        save_checkpoint(path, {f"p{i}": np.full((128, 128), float(i)) for i in range(16)})
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [float(a[0, 0]) for a in loaded.values()] == [float(i) for i in range(16)]
        assert peak <= 2.1 * size

    @settings(max_examples=60)
    @given(checkpoint_entries())
    def test_roundtrip_over_random_names_and_shapes(self, named):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            save_checkpoint(path, named)
            loaded = load_checkpoint(path)
        assert list(loaded) == list(named)
        for name, arr in named.items():
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()

    @settings(max_examples=300)
    @given(checkpoint_entries(min_size=1), st.data())
    def test_corrupted_file_raises_checkpoint_error_or_loads_exactly(self, named, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            save_checkpoint(path, named)
            blob = path.read_bytes()
            kind = data.draw(st.sampled_from(["truncate", "overwrite", "insert", "delete"]))
            entries = (blob.index(b"\n") + 1, blob.index(b"\n.\n") + 1)
            at = data.draw(st.one_of(st.integers(*entries),     # aim at the entry lines
                                     st.integers(0, len(blob) - 1)))
            if kind == "truncate":
                bad = blob[:at]
            elif kind == "delete":
                bad = blob[:at] + blob[data.draw(st.integers(at + 1, len(blob))):]
            else:
                junk = data.draw(st.one_of(
                    st.binary(min_size=1, max_size=8),
                    st.sampled_from([b"\n", b".", b" ", b"\n.\n", b" 0", b"\r", b"\x1c"]),
                    # digit runs past int64 and past what int() converts
                    st.sampled_from([19, 20, 4301]).map(lambda n: b"9" * n)))
                bad = blob[:at] + junk + blob[at + (len(junk) if kind == "overwrite" else 0):]
            path.write_bytes(bad)
            try:
                loaded = load_checkpoint(path)
            except CheckpointError as exc:
                assert str(path) in str(exc)
                return
        assert kind != "truncate", "a cut file loaded"
        assert_loads_exactly(bad, loaded)


class _UnreadableValues:
    """Has a shape for the checkpoint header, but reading its values for
    the payload fails, as a full disk would."""
    shape = (2,)

    def __array__(self, *args, **kwargs):
        raise OSError("disk full")


def _write_checkpoint(path, fail):
    # the payload write of "b" fails after the whole header is out
    b = Tensor(np.zeros(2))
    if fail:
        b.data = _UnreadableValues()
    save_checkpoint(path, {"w": np.ones((2, 2)), "b": b})


def _write_history(path, fail):
    # the second row fails after the header and first row are out
    TrainHistory(epochs=[(0, 1.0, 2.0), (1, 0.5, "x" if fail else 1.5)]).write_csv(path)


def _write_bench(path, fail):
    rows = [BenchRow("grouped", n, 1, 1, "x" if fail and n == 64 else 1.0, 1)
            for n in (32, 64)]
    emit_csv_report(BenchReport(rows=rows), path)


def _write_synth(path, fail):
    # the second data row fails after the header and first row are out
    values = np.array([[1.0], [None if fail else 2.0]], dtype=object)
    write_csv(TimeSeries(["t0", "t1"], values, ["OT"], 0), path)


def _write_model_cfg(path, fail):
    # cmd_train's writer; the write itself fails, after the temp file is open
    text = model_config_to_text(ModelConfig(96, 24, 2, 2))
    write_text(path, text.encode() if fail else text)


def _write_gradcheck_report(path, fail):
    # cmd_gradcheck's writer, failing the same way
    text = "ok   embed.w max_rel_err=1.000e-09 (32 coords)\n"
    write_text(path, text.encode() if fail else text)


class TestAtomicWrite:
    def test_failed_write_leaves_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("new, half written")
                raise RuntimeError("disk full")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_clean_write_replaces_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with atomic_write(path, binary=True) as fh:
            fh.write(b"new")
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    @pytest.mark.parametrize(
        "write", [_write_checkpoint, _write_history, _write_bench, _write_synth,
                  _write_model_cfg, _write_gradcheck_report],
        ids=["checkpoint", "history.csv", "bench.csv", "synth.csv", "model.cfg",
             "gradcheck_report.txt"])
    def test_artefact_writer_that_fails_midway_keeps_previous(self, tmp_path, write):
        path = tmp_path / "artefact"
        write(path, fail=False)
        before = path.read_bytes()
        with pytest.raises((TypeError, OSError)):
            write(path, fail=True)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["artefact"]
