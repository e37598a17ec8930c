"""Dense float64 matrices with reverse-mode gradients on a recorded tape.

A Tensor's values are a row-major numpy array of exactly 2 axes: the
constructor lifts scalars and vectors to one row, rejects more than 2 axes
with RankError and rejects non-finite values, so it is the one place that
checks rank and finiteness for every op output.  Each op checks only the
extents it needs to line up and, when recording(inputs), records a
backward rule.  Replaying the tape in reverse order propagates gradients,
accumulating (+=) into each requires_grad tensor.  A rule runs only when
its output got a gradient, so it reads its output's gradient unchecked,
and it decides nothing about recording.  The replay consumes the tape,
node by node.

A tensor's gradient lives apart from its values, in a small GradSlot.  The
tape holds each op output's slot, not the tensor, and a rule captures a
Tensor only if it reads that tensor's values; for every other input, and
for its own output, it captures the slot.  So an op output that no rule
reads (the residual branch a layer norm adds) is freed as soon as the
forward drops it.

A rule that reads an input's values holds them through held_values: the
input's rebuild recipe when it has one, else its array.  A recorded
layer_norm gives its output a recipe that redoes the last two passes of
its forward from the xhat its own rule holds, and a recorded linear one
that redoes its product from what its rule holds, so neither a norm
output nor an embedding outlives the forward, although the rules of
their consumers read them.  The model's sublayers are one op each
(linear with a position shift, feed_forward here, gsa_forward in
gsa, cca_forward in cca): a sublayer's rule holds its input and its
parameters, and rebuilds every inner activation (attention probabilities
too) in the backward with the forward's own arithmetic and row tiles, so
its values and gradients are those of the composed ops bit for bit.
Rules and recipes read parameters' values when the backward runs: a
parameter's values must not change between a recorded forward and its
backward.

The ops that would otherwise make whole-length temporaries (layer_norm
and feed_forward here, cca_forward, gsa_forward and the attention kernels
they run) work in row tiles of TILE_ROWS rows (rounded down to whole
groups in gsa; half that where a tile holds scores, see tile_rows),
cut by row_tiles, with the whole-array arithmetic, so without a tape
their temporaries are one tile big; the constructor's finiteness check,
too, makes its mask a tile at a time.  layer_norm can write its output
over f, which is how the model's residual blocks call it: a block,
norm(x + sublayer(x)), then holds its input, its output and one tile of
its sublayer.  Without a tape the model's decoder goes
further and runs one row tile through all its blocks at a time
(model.ForecasterModel.forward), so its inputs and outputs are one tile
big too.
"""

from __future__ import annotations

import contextlib
import math
import os
import secrets
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np


class DimensionError(ValueError):
    """Shapes incompatible for the requested operation."""


class RankError(DimensionError):
    """Tensor has the wrong number of axes."""


class NumericsError(ArithmeticError):
    """An operation produced NaN or Inf."""


class ContractError(ValueError):
    """A documented precondition was violated."""


class EmptyTapeError(RuntimeError):
    """backward() called before any forward op was recorded."""


class CheckpointError(ValueError):
    """Malformed or inconsistent checkpoint file."""


def _as_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim > 2:
        raise RankError(f"a tensor has at most 2 axes, got shape {arr.shape}")
    return arr


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the matrix a is finite, checked a row tile at
    a time, so the check's mask is one tile big.  An array of one tile is
    one call: most tensors are that small."""
    n, size = a.shape[0], tile_rows()
    if n <= size:
        return bool(np.isfinite(a).all())
    return all(np.isfinite(a[rows]).all() for rows in row_tiles(n, size))


class GradSlot:
    """The gradient state of one tensor, without its values: what the tape
    and the backward rules hold of a tensor whose values they never read."""

    __slots__ = ("grad", "requires_grad", "shape")

    def __init__(self, shape: tuple[int, ...], requires_grad: bool):
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.shape = shape


class Tensor:
    """A dense real matrix, its gradient slot and, optionally, a recipe
    that rebuilds its values.

    grad and requires_grad read and write the slot, so code that holds the
    tensor and code that holds only the slot see one gradient.  A backward
    rule holds a tensor's values (through held_values) only if it reads
    them, and its slot otherwise, so a tensor's values live no longer than
    the forward and the rules that read them need.  recipe, when set, is a
    zero-argument callable returning a new array equal bit for bit to
    data, built only from arrays that some rule already holds."""

    __slots__ = ("data", "slot", "recipe")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_array(values)
        if not _all_finite(self.data):
            raise NumericsError("tensor constructed with non-finite values")
        self.slot = GradSlot(self.data.shape, requires_grad)
        self.recipe: Optional[Callable[[], np.ndarray]] = None

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self.slot.grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        self.slot.grad = value

    @property
    def requires_grad(self) -> bool:
        return self.slot.requires_grad

    @requires_grad.setter
    def requires_grad(self, value: bool) -> None:
        self.slot.requires_grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class ComputationTape:
    """Ordered record of forward ops; backward consumes it in reverse.

    Use as a context manager: ops executed inside record themselves here.
    Execution order is a topological order, so the reverse visits every
    node after all of its consumers.  Each node is (op name, the output's
    GradSlot, backward rule): the tape keeps no op output's values alive,
    only what the rules themselves capture.
    """

    def __init__(self):
        self._nodes: list[tuple[str, GradSlot, Callable[[], None]]] = []
        self._prev: Optional[ComputationTape] = None

    def record(self, name: str, out: GradSlot, backward_fn: Callable[[], None]) -> None:
        self._nodes.append((name, out, backward_fn))

    def __len__(self) -> int:
        return len(self._nodes)

    def __enter__(self) -> "ComputationTape":
        global _ACTIVE_TAPE
        self._prev = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev
        self._prev = None


_ACTIVE_TAPE: Optional[ComputationTape] = None


def accumulate_grad(t: "Tensor | GradSlot", g: np.ndarray, owned: bool = False) -> None:
    """Add g into t.grad, t a tensor or its gradient slot; no-op for tensors
    that do not require gradients.  g must match t's shape.

    On the first write t.grad becomes a private C-ordered copy of g, or g
    itself when owned is True and g is C-ordered.  A backward rule passes
    owned=True only for an array it has just allocated and will not touch
    again (a matmul product, a zero-padded slice gradient); pass-through
    views of its output's gradient, which the rule may still read after
    handing them on, are always copied.  Later writes add into t.grad in
    place, so t.grad never aliases another tensor's buffer.  Gradients are
    always C-ordered because numpy's reductions round differently over
    other layouts.
    """
    if not t.requires_grad:
        return
    if g.shape != t.shape:
        raise DimensionError(
            f"gradient of shape {g.shape} for a tensor of shape {t.shape}")
    if t.grad is None:
        t.grad = g if owned and g.flags.c_contiguous else g.copy()
    else:
        t.grad += g


def recording(inputs: Iterable[Tensor]) -> bool:
    """Whether an op on inputs records a backward rule: a tape is active
    and some input requires a gradient."""
    return _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs)


def held_values(t: Tensor) -> Callable[[], np.ndarray]:
    """What a backward rule keeps of an input whose values it reads: a
    zero-argument callable giving t's values, t's recipe when it has one
    (so the rule holds only what the recipe holds), else a closure over
    t's array."""
    if t.recipe is not None:
        return t.recipe
    data = t.data
    return lambda: data


def _record(name: str, out: Tensor, inputs: Sequence[Tensor],
            backward_fn: Callable[[], None]) -> Tensor:
    if recording(inputs):
        out.slot.requires_grad = True
        _ACTIVE_TAPE.record(name, out.slot, backward_fn)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul: inner extents differ: {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)
    a_slot, b_slot, out_slot = a.slot, b.slot, out.slot
    a_values, b_values = held_values(a), held_values(b)

    def backward():
        accumulate_grad(a_slot, out_slot.grad @ b_values().T, owned=True)
        accumulate_grad(b_slot, a_values().T @ out_slot.grad, owned=True)

    return _record("matmul", out, (a, b), backward)


def affine(x: np.ndarray, w: Tensor, b: Tensor, out: Optional[np.ndarray] = None) -> np.ndarray:
    """x @ w + b on x's array, written into out when given: linear's
    arithmetic, which the fused ops and their backward rebuilds share."""
    out = np.matmul(x, w.data, out=out)
    out += b.data
    return out


def linear(x: Tensor, w: Tensor, b: Tensor, shift: Optional[np.ndarray] = None) -> Tensor:
    """x @ w + b, b a 1-by-n row, plus shift (a constant array of the
    output's shape) when given: one tape node whose backward gives b, x and
    w their gradients in the order (and with the arithmetic) of
    broadcast_add(matmul(x, w), b), and bit for bit broadcast_add(that,
    Tensor(shift)).  When it records, the output's recipe rebuilds it from
    x (through held_values), w, b and shift, which the rule holds anyway."""
    if x.shape[1] != w.shape[0]:
        raise DimensionError(
            f"linear: inner extents differ: {x.shape} x {w.shape}")
    if b.shape != (1, w.shape[1]):
        raise DimensionError(f"linear: bias must be (1, {w.shape[1]}), got {b.shape}")

    def rebuild(x_data: np.ndarray) -> np.ndarray:
        data = affine(x_data, w, b)
        if shift is not None:
            data += shift
        return data

    out = Tensor(rebuild(x.data))
    if not recording((x, w, b)):
        return out
    x_slot, b_slot, out_slot = x.slot, b.slot, out.slot
    x_values = held_values(x)
    out.recipe = lambda: rebuild(x_values())

    def backward():
        linear_backward(x_slot, x_values(), w, b_slot, out_slot.grad)

    return _record("linear", out, (x, w, b), backward)


def linear_input_grad(g: np.ndarray, w: Tensor, b: "Tensor | GradSlot") -> np.ndarray:
    """Give b (a tensor or its slot) its gradient of x @ w + b from the
    output gradient g and return x's, g @ w.T: the first two steps of
    linear_backward, for a rule that has x's values only later."""
    g_b = _reduce_to(g, b.shape)
    accumulate_grad(b, g_b, owned=g_b is not g)
    return g @ w.data.T


def linear_backward(x: GradSlot, x_data: np.ndarray, w: Tensor, b: "Tensor | GradSlot",
                    g: np.ndarray) -> None:
    """Give b (a tensor or its slot), x (the slot of a tensor with values
    x_data) and w, in that order, their gradients of x @ w + b from the
    output gradient g; g is only read, so no gradient aliases it."""
    accumulate_grad(x, linear_input_grad(g, w, b), owned=True)
    accumulate_grad(w, x_data.T @ g, owned=True)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                 out: Optional[np.ndarray] = None) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 as one tape node, bit for bit
    linear(relu(linear(x, w1, b1)), w2, b2) at every width a tile cut does
    not change.  The forward computes its output a row tile at a time, so
    its hidden activations are one tile big, and writes it into out (a new
    array by default), which must not overlap x: a caller that is done
    with some rows of its own passes them.  The rule holds x (through
    held_values) and the parameters: the backward rebuilds the hidden
    activations in the forward's tiles and gives b2, w2, b1, x and w1
    their gradients as the three composed rules would, reading the relu
    mask from the rebuilt activations (out > 0 exactly where the
    pre-activation is)."""
    if x.shape[1] != w1.shape[0]:
        raise DimensionError(f"feed_forward: input {x.shape} for weights {w1.shape}")
    tiles = row_tiles(x.shape[0], tile_rows())

    def hidden(x_rows: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        h = affine(x_rows, w1, b1, out)
        return np.maximum(h, 0.0, out=h)

    out_data = np.empty((x.shape[0], w2.shape[1])) if out is None else out
    for rows in tiles:
        affine(hidden(x.data[rows]), w2, b2, out_data[rows])
    out = Tensor(out_data)
    inputs = (x, w1, b1, w2, b2)
    if not recording(inputs):
        return out
    x_slot, out_slot = x.slot, out.slot
    x_values = held_values(x)

    def backward():
        g = out_slot.grad
        x_data = x_values()
        h = np.empty((x_data.shape[0], w1.shape[1]))
        for rows in tiles:
            hidden(x_data[rows], h[rows])
        g_h = linear_input_grad(g, w2, b2)
        accumulate_grad(w2, h.T @ g, owned=True)
        g_h *= h > 0.0
        del h
        linear_backward(x_slot, x_data, w1, b1, g_h)

    return _record("feed_forward", out, inputs, backward)


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.data.T.copy())
    a_slot, out_slot = a.slot, out.slot

    def backward():
        accumulate_grad(a_slot, out_slot.grad.T)

    return _record("transpose", out, (a,), backward)


def _broadcast_check(a: Tensor, b: Tensor, op: str) -> None:
    r, s = a.shape
    br, bs = b.shape
    if bs != s and not (br == 1 and bs == 1):
        raise DimensionError(
            f"{op}: trailing extent of {b.shape} incompatible with {a.shape}")
    if br not in (1, r):
        raise DimensionError(
            f"{op}: row extent of {b.shape} incompatible with {a.shape}")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum an upstream gradient over the axes that were broadcast."""
    if g.shape == shape:
        return g
    if shape == (1, 1):
        return g.sum(keepdims=True).reshape(1, 1)
    return g.sum(axis=0, keepdims=True)


def broadcast_add(a: Tensor, b: Tensor) -> Tensor:
    """a + b where b is a same-shape tensor, a 1-by-s row or a 1-by-1
    scalar tensor.  The backward rule sums the upstream gradient over any
    broadcast axes of b."""
    _broadcast_check(a, b, "broadcast_add")
    out = Tensor(a.data + b.data)
    a_slot, b_slot, out_slot = a.slot, b.slot, out.slot

    def backward():
        accumulate_grad(a_slot, out_slot.grad)
        accumulate_grad(b_slot, _reduce_to(out_slot.grad, b_slot.shape))

    return _record("broadcast_add", out, (a, b), backward)


def multiply(a: Tensor, b) -> Tensor:
    """Elementwise product; b is a plain number or a tensor that broadcasts
    like in broadcast_add."""
    if isinstance(b, (int, float)):
        c = float(b)
        out = Tensor(a.data * c)
        a_slot, out_slot = a.slot, out.slot

        def backward_const():
            accumulate_grad(a_slot, out_slot.grad * c, owned=True)

        return _record("multiply", out, (a,), backward_const)

    _broadcast_check(a, b, "multiply")
    out = Tensor(a.data * b.data)
    a_slot, b_slot, out_slot = a.slot, b.slot, out.slot
    a_values, b_values = held_values(a), held_values(b)

    def backward():
        accumulate_grad(a_slot, out_slot.grad * b_values(), owned=True)
        accumulate_grad(b_slot, _reduce_to(out_slot.grad * a_values(), b_slot.shape),
                        owned=True)

    return _record("multiply", out, (a, b), backward)


def mean_rows(a: Tensor) -> Tensor:
    """Column means as a 1-by-s row; backward spreads 1/r of the upstream
    gradient to every row."""
    r = a.shape[0]
    if r < 1 or a.data.size == 0:
        raise DimensionError(f"mean_rows: empty tensor of shape {a.shape}")
    out = Tensor(a.data.mean(axis=0, keepdims=True))
    a_slot, out_slot = a.slot, out.slot

    def backward():
        accumulate_grad(a_slot, np.repeat(out_slot.grad / r, r, axis=0), owned=True)

    return _record("mean_rows", out, (a,), backward)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= a.shape[0]):
        raise DimensionError(
            f"slice_rows: range [{start}, {stop}) invalid for shape {a.shape}")
    out = Tensor(a.data[start:stop].copy())
    a_slot, out_slot = a.slot, out.slot

    def backward():
        g = np.zeros(a_slot.shape)
        g[start:stop] = out_slot.grad
        accumulate_grad(a_slot, g, owned=True)

    return _record("slice_rows", out, (a,), backward)


def row_tiles(n: int, size: int) -> list[slice]:
    """Slices cutting n rows into tiles of size rows (at least 2), the last
    one shorter.  A last tile of one row joins the tile before it: numpy
    sends a one-row product to gemv, which rounds differently from the gemm
    that computes the same row inside a taller product.  Row-wise
    arithmetic then gives every row the bits it gets in one piece, and so
    does OpenBLAS for products a multiple of 8 columns wide, as every tiled
    product is at the shipped configs; it may round the rows of narrower or
    ragged products differently once they are cut, as it may under another
    thread count."""
    bounds = list(range(0, n, max(size, 2))) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


TILE_ROWS = 512     # rows the tiled ops work on at a time


def tile_rows(unit: int = 1, half: bool = False) -> int:
    """TILE_ROWS, or half of it, rounded down to a whole number of units, at
    least one unit: the tile height of every op that works in row tiles
    (GSA's unit is a group).  Walks whose tile holds a row of scores per
    key take half tiles (half_tiles).  Each tiled product is a BLAS call,
    and a threaded one waits for every thread, so the row-wise ops take
    tiles as tall as memory allows."""
    return max((TILE_ROWS // 2 if half else TILE_ROWS) // unit, 1) * unit


def half_tiles(n: int, unit: int = 1) -> list[slice]:
    """The half tiles of n rows: each row_tiles tile of tile_rows(unit)
    rows cut by tile_rows(unit, half=True), so no half tile crosses a
    tile's edge and none is one row high.  The rows of every walk whose
    tile holds a row of scores per key: GSA's local attention and its
    backward's walk (in whole groups), attention.head_attention and
    attention_backward's score gradient."""
    return [slice(t.start + h.start, t.start + h.stop) for t in row_tiles(n, tile_rows(unit))
            for h in row_tiles(t.stop - t.start, tile_rows(unit, half=True))]


def layer_norm(x: Tensor, f: Tensor, gain: Tensor, bias: Tensor,
               out: Optional[np.ndarray] = None) -> Tensor:
    """Row-wise layer norm of the residual sum x + f, gain and bias 1-by-d:
    one tape node, bit for bit the norm of broadcast_add(x, f).  The output
    is written into out (a new array by default), which may be f's own
    array: each tile of f is read before that tile of out is written.  It
    normalizes a row tile at a time, so its temporaries are one tile big;
    without a tape it makes no other full-size array.  When it records,
    the rule holds xhat, and the output's recipe rebuilds the output as
    xhat * gain + bias with the forward's own arithmetic."""
    l, d = x.shape
    if f.shape != x.shape or gain.shape != (1, d) or bias.shape != (1, d):
        raise DimensionError(f"layer_norm: residual/gain/bias must be {x.shape}/(1, {d})"
                             f"/(1, {d}), got {f.shape}/{gain.shape}/{bias.shape}")
    inputs = (x, f, gain, bias)
    taped = recording(inputs)
    data = np.empty((l, d)) if out is None else out
    xhat = np.empty((l, d)) if taped else data
    inv = np.empty((l, 1))
    for rows in row_tiles(l, tile_rows()):
        t = np.add(x.data[rows], f.data[rows], out=xhat[rows])
        t -= t.mean(axis=1, keepdims=True)
        # the variance exactly as np.var computes it, from the same x + f - mu
        var = np.square(t).sum(axis=1, keepdims=True) / d
        inv[rows] = 1.0 / np.sqrt(var + 1e-6)
        t *= inv[rows]
        if not taped:
            t *= gain.data
            t += bias.data
    if not taped:
        return Tensor(data)
    gain_values, bias_values = held_values(gain), held_values(bias)

    def rebuild(into: Optional[np.ndarray] = None) -> np.ndarray:
        rebuilt = np.multiply(xhat, gain_values(), out=into)
        rebuilt += bias_values()
        return rebuilt

    out = Tensor(rebuild(data))
    out.recipe = rebuild
    x_slot, f_slot, out_slot = x.slot, f.slot, out.slot
    gain_slot, bias_slot = gain.slot, bias.slot

    def backward():
        g = out_slot.grad
        tmp = g * xhat
        accumulate_grad(gain_slot, tmp.sum(axis=0, keepdims=True), owned=True)
        accumulate_grad(bias_slot, g.sum(axis=0, keepdims=True), owned=True)
        gx = g * gain_values()
        # d/dx per row, as inv * ((gx - mean(gx)) - xhat * mean(gx * xhat))
        m_gx_xhat = np.multiply(gx, xhat, out=tmp).mean(axis=1, keepdims=True)
        gx -= gx.mean(axis=1, keepdims=True)
        gx -= np.multiply(xhat, m_gx_xhat, out=tmp)
        del tmp     # freed before x's gradient copy is made
        gx *= inv
        accumulate_grad(x_slot, gx)
        accumulate_grad(f_slot, gx, owned=True)

    return _record("layer_norm", out, inputs, backward)


def backward(loss: Tensor, tape: ComputationTape) -> None:
    """Propagate d(loss)/d(tensor) to every requires_grad tensor on the tape,
    consuming the tape: a second call on it raises EmptyTapeError.

    Gradients accumulate into .grad across calls; use zero_grads between
    optimizer steps.  The replay seeds the loss's gradient slot and walks
    the nodes' output slots; the tape holds no tensor values, so once the
    forward drops a tensor, its values live only while some rule captures
    it.  Each node
    leaves the tape before its rule runs, so what the rule saved (and its
    output's values, once every consumer has run) is freed before the next
    rule runs.  An op output's gradient lives until its rule has read it
    and is then set to None; only the leaves, tensors no op on the tape
    produced, keep theirs.
    """
    if loss.shape != (1, 1):
        raise ContractError(f"backward: loss must be 1x1, got {loss.shape}")
    nodes = tape._nodes
    if not nodes:
        raise EmptyTapeError("backward: tape is empty; run a forward pass first")
    loss.slot.grad = np.ones((1, 1))
    while nodes:
        _, out_slot, backward_fn = nodes.pop()
        if out_slot.grad is not None:
            backward_fn()
            out_slot.grad = None


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def uniform_param(rng: np.random.Generator, shape: tuple[int, int], fan_in: int) -> Tensor:
    """A learnable tensor of shape drawn from rng, uniform in +-1/sqrt(fan_in)."""
    a = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-a, a, shape), requires_grad=True)


def zero_row(n: int) -> Tensor:
    """A learnable 1-by-n row of zeros: a bias's starting value."""
    return Tensor(np.zeros((1, n)), requires_grad=True)


class ParameterSet:
    """A holder of a layer's tensors: its parameters, and any constant it
    keeps as a tensor with requires_grad off (a key bias that softmax
    cancels)."""

    def named(self, prefix: str = "") -> dict[str, Tensor]:
        """Every Tensor attribute as prefix + name, and the tensors of every
        nested ParameterSet under prefix + `<attr>.`, in attribute order,
        constants and tensors frozen for a test included."""
        out = {}
        for attr, value in vars(self).items():
            if isinstance(value, Tensor):
                out[prefix + attr] = value
            elif isinstance(value, ParameterSet):
                out.update(value.named(f"{prefix}{attr}."))
        return out


CHECKPOINT_MAGIC = "gsaformer-checkpoint v1"
_HEADER_END = "."


@contextlib.contextmanager
def atomic_write(path, binary: bool = False, **open_kwargs):
    """Yield a new temp file beside path, open for writing (bytes when
    binary, else text with open_kwargs).  On a clean exit it replaces path
    in one os.replace, so readers see the old file or the whole new one; if
    the body raises, the temp file is removed and path is left as it was.
    (No fsync: this guards against a failing writer, not power loss.)"""
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "xb" if binary else "x", **open_kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_checkpoint(path, named: Mapping[str, "Tensor | np.ndarray"]) -> None:
    """Write named arrays to a single container file, atomically.

    Layout: magic string line, then one `name dim0 dim1 ...` line per
    entry, a lone `.` line, then the raw values in header order as
    row-major little-endian float64.
    """
    entries = []
    for name, value in named.items():
        if not name or not name.isascii() or any(ch.isspace() for ch in name):
            raise CheckpointError(
                f"checkpoint name must be non-empty ASCII without whitespace: {name!r}")
        arr = value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)
        entries.append((name, arr))
    with atomic_write(path, binary=True) as fh:
        fh.write((CHECKPOINT_MAGIC + "\n").encode("ascii"))
        for name, arr in entries:
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"{name} {dims}\n".encode("ascii"))
        fh.write((_HEADER_END + "\n").encode("ascii"))
        for _, arr in entries:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _header_entry(line: str, path, line_no: int) -> tuple[str, tuple[int, ...]]:
    """(name, dims) of one `name dim0 dim1 ...` header line."""
    fields = line.split()
    if not fields:
        raise CheckpointError(f"blank header line {line_no} in {path}")
    name, dims = fields[0], fields[1:]
    if not all(d.isdigit() for d in dims):
        raise CheckpointError(
            f"bad dims for {name!r} in {path}: expected non-negative integers, "
            f"got {' '.join(dims)!r}")
    try:
        return name, tuple(int(d) for d in dims)
    except ValueError:      # more digits than int() converts
        raise CheckpointError(f"bad dims for {name!r} in {path}: too many digits") from None


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a save_checkpoint file into fresh float64 arrays, one per entry.
    Anything malformed (no terminator, a bad magic, a non-ASCII, blank or
    duplicate header entry, a dim that is not a non-negative integer, too
    many dims, a NaN or Inf value, a short or overlong payload) raises
    CheckpointError naming path."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        header_end = blob.index(b"\n" + _HEADER_END.encode("ascii") + b"\n")
    except ValueError:
        raise CheckpointError(f"no header terminator in {path}") from None
    try:
        header = blob[:header_end].decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise CheckpointError(
            f"non-ASCII byte in the header of {path} at offset {exc.start}") from None
    payload = memoryview(blob)[header_end + 3:]   # a view: no second copy of the file
    if not header or header[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"bad magic in {path}: expected {CHECKPOINT_MAGIC!r}")
    out: dict[str, np.ndarray] = {}
    offset = 0
    for line_no, line in enumerate(header[1:], start=2):
        name, dims = _header_entry(line, path, line_no)
        if name in out:
            raise CheckpointError(f"duplicate entry {name!r} in {path}")
        nbytes = math.prod(dims) * 8
        if offset + nbytes > len(payload):
            raise CheckpointError(f"truncated payload in {path} at {name}")
        arr = np.frombuffer(payload[offset:offset + nbytes], dtype="<f8")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"non-finite value in {name!r} in {path}")
        try:
            out[name] = arr.reshape(dims).astype(np.float64)
        except ValueError as exc:   # more axes than numpy supports
            raise CheckpointError(f"bad dims for {name!r} in {path}: {exc}") from None
        offset += nbytes
    if offset != len(payload):
        raise CheckpointError(f"trailing bytes in {path}")
    return out
