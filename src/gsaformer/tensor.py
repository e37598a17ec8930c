"""Dense float64 tensors with reverse-mode gradients on a recorded tape.

Values are numpy arrays (row-major); every arithmetic op validates shapes,
rejects non-finite results (through the Tensor constructor, which checks
every op output once), and, when a tape is active and an input wants
gradients, records a backward rule.  Replaying the tape in reverse order
propagates gradients, accumulating (+=) into each requires_grad tensor.
"""

from __future__ import annotations

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
    if arr.ndim > 3:
        raise RankError(f"tensors support at most 3 axes, got shape {arr.shape}")
    return arr


class Tensor:
    """A dense real matrix (1 to 3 axes; ops below require 2) with an
    optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_array(values)
        if not np.all(np.isfinite(self.data)):
            raise NumericsError("tensor constructed with non-finite values")
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # thin operator sugar over the module-level ops
    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __add__(self, other) -> "Tensor":
        return broadcast_add(self, other)

    def __sub__(self, other) -> "Tensor":
        return subtract(self, other)

    def __mul__(self, other) -> "Tensor":
        return multiply(self, other)


class ComputationTape:
    """Ordered record of forward ops; reverse replay drives backprop.

    Use as a context manager: ops executed inside record themselves here.
    Execution order is a topological order, so the reverse visits every
    node after all of its consumers.
    """

    def __init__(self):
        self._nodes: list[tuple[str, Tensor, Callable[[], None]]] = []
        self._prev: Optional[ComputationTape] = None

    def record(self, name: str, out: Tensor, backward_fn: Callable[[], None]) -> None:
        self._nodes.append((name, out, backward_fn))

    def clear(self) -> None:
        """Drop all recorded nodes (e.g. between gradient-accumulation steps)."""
        self._nodes.clear()

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


def active_tape() -> Optional[ComputationTape]:
    return _ACTIVE_TAPE


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add g into t.grad (a private copy of g on first use); no-op for
    tensors that do not require gradients.  g must match t's shape."""
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise DimensionError(
            f"gradient of shape {g.shape} for a tensor of shape {t.data.shape}")
    if t.grad is None:
        # a copy, never g itself: backward rules pass views of out.grad
        t.grad = g.copy()
    else:
        t.grad += g


def _record(name: str, out: Tensor, inputs: Sequence[Tensor],
            backward_fn: Callable[[], None]) -> Tensor:
    tape = _ACTIVE_TAPE
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(name, out, backward_fn)
    return out


def _require_2d(t: Tensor, op: str) -> None:
    if t.data.ndim != 2:
        raise RankError(f"{op} requires a 2-axis tensor, got shape {t.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _require_2d(a, "matmul")
    _require_2d(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul: inner extents differ: {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward():
        if out.grad is None:
            return
        accumulate_grad(a, out.grad @ b.data.T)
        accumulate_grad(b, a.data.T @ out.grad)

    return _record("matmul", out, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    _require_2d(a, "transpose")
    out = Tensor(a.data.T.copy())

    def backward():
        if out.grad is None:
            return
        accumulate_grad(a, out.grad.T)

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


def broadcast_add(a: Tensor, b) -> Tensor:
    """a + b where b is a same-shape tensor, a 1-by-s row, a 1-by-1 scalar
    tensor, or a plain number.  The backward rule sums the upstream
    gradient over any broadcast axes of b."""
    _require_2d(a, "broadcast_add")
    if isinstance(b, (int, float)):
        out = Tensor(a.data + float(b))

        def backward_const():
            if out.grad is None:
                return
            accumulate_grad(a, out.grad)

        return _record("broadcast_add", out, (a,), backward_const)

    _require_2d(b, "broadcast_add")
    _broadcast_check(a, b, "broadcast_add")
    out = Tensor(a.data + b.data)

    def backward():
        if out.grad is None:
            return
        accumulate_grad(a, out.grad)
        accumulate_grad(b, _reduce_to(out.grad, b.shape))

    return _record("broadcast_add", out, (a, b), backward)


def subtract(a: Tensor, b) -> Tensor:
    if isinstance(b, (int, float)):
        return broadcast_add(a, -float(b))
    _require_2d(a, "subtract")
    _require_2d(b, "subtract")
    _broadcast_check(a, b, "subtract")
    out = Tensor(a.data - b.data)

    def backward():
        if out.grad is None:
            return
        accumulate_grad(a, out.grad)
        accumulate_grad(b, -_reduce_to(out.grad, b.shape))

    return _record("subtract", out, (a, b), backward)


def multiply(a: Tensor, b) -> Tensor:
    """Elementwise product; b broadcasts like in broadcast_add."""
    _require_2d(a, "multiply")
    if isinstance(b, (int, float)):
        c = float(b)
        out = Tensor(a.data * c)

        def backward_const():
            if out.grad is None:
                return
            accumulate_grad(a, out.grad * c)

        return _record("multiply", out, (a,), backward_const)

    _require_2d(b, "multiply")
    _broadcast_check(a, b, "multiply")
    out = Tensor(a.data * b.data)

    def backward():
        if out.grad is None:
            return
        accumulate_grad(a, out.grad * b.data)
        accumulate_grad(b, _reduce_to(out.grad * a.data, b.shape))

    return _record("multiply", out, (a, b), backward)


def mean_rows(a: Tensor) -> Tensor:
    """Column means as a 1-by-s row; backward spreads 1/r of the upstream
    gradient to every row."""
    _require_2d(a, "mean_rows")
    r = a.shape[0]
    if r < 1 or a.data.size == 0:
        raise DimensionError(f"mean_rows: empty tensor of shape {a.shape}")
    out = Tensor(a.data.mean(axis=0, keepdims=True))

    def backward():
        if out.grad is None:
            return
        accumulate_grad(a, np.repeat(out.grad / r, r, axis=0))

    return _record("mean_rows", out, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    _require_2d(a, "sum_all")
    out = Tensor(np.array([[a.data.sum()]]))

    def backward():
        if out.grad is None:
            return
        accumulate_grad(a, np.full_like(a.data, out.grad[0, 0]))

    return _record("sum_all", out, (a,), backward)


def relu(a: Tensor) -> Tensor:
    _require_2d(a, "relu")
    out = Tensor(np.maximum(a.data, 0.0))

    def backward():
        if out.grad is None:
            return
        accumulate_grad(a, out.grad * (a.data > 0.0))

    return _record("relu", out, (a,), backward)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    _require_2d(a, "slice_rows")
    if not (0 <= start < stop <= a.shape[0]):
        raise DimensionError(
            f"slice_rows: range [{start}, {stop}) invalid for shape {a.shape}")
    out = Tensor(a.data[start:stop].copy())

    def backward():
        if out.grad is None:
            return
        g = np.zeros_like(a.data)
        g[start:stop] = out.grad
        accumulate_grad(a, g)

    return _record("slice_rows", out, (a,), backward)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    _require_2d(a, "slice_cols")
    if not (0 <= start < stop <= a.shape[1]):
        raise DimensionError(
            f"slice_cols: range [{start}, {stop}) invalid for shape {a.shape}")
    out = Tensor(a.data[:, start:stop].copy())

    def backward():
        if out.grad is None:
            return
        g = np.zeros_like(a.data)
        g[:, start:stop] = out.grad
        accumulate_grad(a, g)

    return _record("slice_cols", out, (a,), backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise DimensionError("concat_rows: no tensors given")
    for p in parts:
        _require_2d(p, "concat_rows")
    cols = parts[0].shape[1]
    if any(p.shape[1] != cols for p in parts):
        raise DimensionError(
            f"concat_rows: column extents differ: {[p.shape for p in parts]}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def backward():
        if out.grad is None:
            return
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            accumulate_grad(p, out.grad[lo:hi])

    return _record("concat_rows", out, tuple(parts), backward)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise DimensionError("concat_cols: no tensors given")
    for p in parts:
        _require_2d(p, "concat_cols")
    rows = parts[0].shape[0]
    if any(p.shape[0] != rows for p in parts):
        raise DimensionError(
            f"concat_cols: row extents differ: {[p.shape for p in parts]}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def backward():
        if out.grad is None:
            return
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            accumulate_grad(p, out.grad[:, lo:hi])

    return _record("concat_cols", out, tuple(parts), backward)


def pad_rows(a: Tensor, total_rows: int) -> Tensor:
    """Append zero rows until a has total_rows rows."""
    _require_2d(a, "pad_rows")
    r, s = a.shape
    if total_rows < r:
        raise DimensionError(f"pad_rows: target {total_rows} < current {r}")
    if total_rows == r:
        return a
    data = np.zeros((total_rows, s))
    data[:r] = a.data
    out = Tensor(data)

    def backward():
        if out.grad is None:
            return
        accumulate_grad(a, out.grad[:r])

    return _record("pad_rows", out, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Row-wise layer normalization with learnable gain and bias (1-by-d)."""
    _require_2d(x, "layer_norm")
    d = x.shape[1]
    if gain.shape != (1, d) or bias.shape != (1, d):
        raise DimensionError(
            f"layer_norm: gain/bias must be (1, {d}), got {gain.shape}/{bias.shape}")
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat * gain.data + bias.data)

    def backward():
        if out.grad is None:
            return
        g = out.grad
        accumulate_grad(gain, (g * xhat).sum(axis=0, keepdims=True))
        accumulate_grad(bias, g.sum(axis=0, keepdims=True))
        gx = g * gain.data
        # d/dx of (x - mu) / sqrt(var + eps), per row
        dx = inv * (gx
                    - gx.mean(axis=1, keepdims=True)
                    - xhat * (gx * xhat).mean(axis=1, keepdims=True))
        accumulate_grad(x, dx)

    return _record("layer_norm", out, (x, gain, bias), backward)


def backward(loss: Tensor, tape: ComputationTape) -> None:
    """Propagate d(loss)/d(tensor) to every requires_grad tensor on the tape.

    Gradients accumulate into .grad across calls; use zero_grads between
    optimizer steps.  Intermediate (op output) gradients are reset before
    each replay, so a repeated call adds one more copy of the gradient to
    the leaves.
    """
    if loss.shape != (1, 1):
        raise ContractError(f"backward: loss must be 1x1, got {loss.shape}")
    if len(tape) == 0:
        raise EmptyTapeError("backward: tape is empty; run a forward pass first")
    for _, out, _ in tape._nodes:
        out.grad = None
    loss.grad = np.ones((1, 1))
    for _, _, backward_fn in reversed(tape._nodes):
        backward_fn()


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


CHECKPOINT_MAGIC = "gsaformer-checkpoint v1"
_HEADER_END = "."


def save_checkpoint(path, named: Mapping[str, "Tensor | np.ndarray"]) -> None:
    """Write named arrays to a single container file.

    Layout: magic string line, then one `name dim0 dim1 ...` line per
    entry, a lone `.` line, then the raw values in header order as
    row-major little-endian float64.
    """
    entries = []
    for name, value in named.items():
        if any(ch.isspace() for ch in name):
            raise CheckpointError(f"checkpoint name contains whitespace: {name!r}")
        arr = value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)
        entries.append((name, arr))
    with open(path, "wb") as fh:
        fh.write((CHECKPOINT_MAGIC + "\n").encode("ascii"))
        for name, arr in entries:
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"{name} {dims}\n".encode("ascii"))
        fh.write((_HEADER_END + "\n").encode("ascii"))
        for _, arr in entries:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        header_end = blob.index(b"\n" + _HEADER_END.encode("ascii") + b"\n")
    except ValueError:
        raise CheckpointError(f"no header terminator in {path}") from None
    header = blob[:header_end].decode("ascii").splitlines()
    payload = blob[header_end + 3:]
    if not header or header[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"bad magic in {path}: expected {CHECKPOINT_MAGIC!r}")
    out: dict[str, np.ndarray] = {}
    offset = 0
    for line in header[1:]:
        fields = line.split()
        name, dims = fields[0], tuple(int(d) for d in fields[1:])
        count = int(np.prod(dims)) if dims else 1
        nbytes = count * 8
        if offset + nbytes > len(payload):
            raise CheckpointError(f"truncated payload in {path} at {name}")
        arr = np.frombuffer(payload[offset:offset + nbytes], dtype="<f8")
        out[name] = arr.reshape(dims).astype(np.float64)
        offset += nbytes
    if offset != len(payload):
        raise CheckpointError(f"trailing bytes in {path}")
    return out
