import numpy as np
import numpy.testing as npt
import pytest

from gsaformer.tensor import (
    CheckpointError,
    ComputationTape,
    ContractError,
    DimensionError,
    EmptyTapeError,
    NumericsError,
    RankError,
    Tensor,
    accumulate_grad,
    backward,
    broadcast_add,
    concat_cols,
    concat_rows,
    layer_norm,
    load_checkpoint,
    matmul,
    mean_rows,
    multiply,
    pad_rows,
    relu,
    save_checkpoint,
    slice_cols,
    slice_rows,
    subtract,
    sum_all,
    transpose,
)

from helpers import check_op_gradients, naive_matmul


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
        npt.assert_array_equal(broadcast_add(x, 1.5).data, [[2.5, 3.5]])
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
            backward(loss, tape)
        npt.assert_array_equal(x.grad, [[8.0]])

    def test_accumulate_grad_copies_on_first_write(self):
        t = Tensor(np.zeros((2, 2)), requires_grad=True)
        g = np.array([[1.0, 2.0], [3.0, 4.0]])
        accumulate_grad(t, g)
        assert t.grad is not g and not np.shares_memory(t.grad, g)
        accumulate_grad(t, g)
        npt.assert_array_equal(g, [[1.0, 2.0], [3.0, 4.0]])
        npt.assert_array_equal(t.grad, 2.0 * g)

    def test_accumulate_grad_rejects_wrong_shape(self):
        t = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(DimensionError):
            accumulate_grad(t, np.ones((1, 2)))
        accumulate_grad(t, np.ones((2, 2)))
        with pytest.raises(DimensionError):
            accumulate_grad(t, np.ones((1, 2)))   # would broadcast into +=


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
        check_op_gradients(lambda: sum_all(multiply(layer_norm(x, g, b), w)),
                           [x, g, b])

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

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones((2, 2))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestOperatorSugar:
    def test_dunders_delegate_to_ops(self):
        rng = np.random.default_rng(18)
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(3, 2)))
        c = Tensor(rng.normal(size=(2, 2)))
        out = (a @ b + c) * 2.0 - c
        expected = (a.data @ b.data + c.data) * 2.0 - c.data
        npt.assert_allclose(out.data, expected, atol=1e-15)
