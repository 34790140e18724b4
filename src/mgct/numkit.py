"""Dense 2-D float64 tensors with reverse-mode automatic differentiation.

Every value is a row-major (rows, cols) float64 matrix. Operations build a
flat tape of primitive nodes; ``backward`` walks the tape once, in reverse,
and returns a gradient for every leaf. It spends the tape: each non-leaf
node is dropped once pulled, freeing the activations its closure holds, and
a spent tape cannot be walked again. One tape records one loss, such as the
summed loss of several training samples (one writer). Ops never write to
their operands and nothing caches on an array's identity, so Tensors are
immutable once built, with one exception: the finite-difference oracle
(``gradcheck``) perturbs its own working arrays in place between untaped
forward calls (each process of a split sweep its own copy of them). When
no operand is on a tape an op just computes, recording nothing.

Shapes in comments use the convention ``(rows, cols)``.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "Tape",
    "Grads",
    "matmul",
    "add",
    "sub",
    "mul",
    "scale",
    "transpose",
    "sum_all",
    "log",
    "clamp",
    "softmax_rows",
    "segment_softmax",
    "segment_sum",
    "segment_attention",
    "elementwise",
    "tanh",
    "sigmoid",
    "relu",
    "elu",
    "concat",
    "split",
    "slice_rows",
    "gather_cols",
    "alpha_dropout",
    "backward",
]


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


def _coerce(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"tensors are 2-D; got array of ndim {arr.ndim}")
    return arr


class Tensor:
    """A (rows, cols) float64 matrix, optionally recorded on a tape."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, values, tape: "Tape | None" = None, node_id: int | None = None):
        self.data = _coerce(values)
        self.tape = tape
        self.node_id = node_id

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        tag = "" if self.node_id is None else f", node={self.node_id}"
        return f"Tensor({self.rows}x{self.cols}{tag})"


class _Node:
    __slots__ = ("parents", "pull")

    def __init__(self, parents: tuple[int | None, ...], pull: Callable | None):
        self.parents = parents
        self.pull = pull  # grad_out -> per-parent gradient contributions


class Tape:
    """Ordered record of primitive ops; parents always precede children.

    ``backward`` spends it: pulled nodes become ``None`` and ``spent`` is set.
    """

    __slots__ = ("nodes", "spent")

    def __init__(self):
        self.nodes: list[_Node | None] = []
        self.spent = False

    def leaf(self, values) -> Tensor:
        """Register values as a differentiable leaf (e.g. a trainable weight)."""
        node_id = len(self.nodes)
        self.nodes.append(_Node((), None))
        return Tensor(values, tape=self, node_id=node_id)

    def _emit(self, out: np.ndarray, parents: Sequence[Tensor], pull: Callable) -> Tensor:
        node_id = len(self.nodes)
        self.nodes.append(_Node(tuple(p.node_id for p in parents), pull))
        return _wrap(out, tape=self, node_id=node_id)


class Grads:
    """Gradient of a scalar loss with respect to every leaf of its (spent) tape.

    A leaf the loss does not reach has a zero gradient; asking for a non-leaf
    tensor raises ``KeyError``, since ``backward`` keeps no gradient for it.
    """

    __slots__ = ("_tape", "_by_node")

    def __init__(self, tape: Tape, by_node: list[np.ndarray | None]):
        self._tape = tape
        self._by_node = by_node

    def __getitem__(self, t: Tensor) -> np.ndarray:
        if t.tape is not self._tape or t.node_id is None:
            raise KeyError("tensor was never recorded on this tape")
        node = self._tape.nodes[t.node_id]
        if node is None or node.pull is not None:
            raise KeyError("gradients are kept for tape leaves only")
        g = self._by_node[t.node_id]
        if g is None:
            return np.zeros_like(t.data)
        return g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _wrap(out: np.ndarray, tape: "Tape | None" = None, node_id: int | None = None) -> Tensor:
    # internal fast path: ``out`` is already a fresh 2-D float64 array
    t = Tensor.__new__(Tensor)
    t.data = out
    t.tape = tape
    t.node_id = node_id
    return t


def _tape_of(a: Tensor, b: Tensor | None = None) -> "Tape | None":
    ta = a.tape
    if b is None:
        return ta
    tb = b.tape
    if ta is None:
        return tb
    if tb is not None and tb is not ta:
        raise ValueError("operands were recorded on different tapes")
    return ta


def _reduce_to(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Collapse a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    r, c = shape
    if r == 1 and c == 1:
        return g.sum().reshape(1, 1)
    if r == 1:
        return g.sum(axis=0, keepdims=True)
    if c == 1:
        return g.sum(axis=1, keepdims=True)
    raise ShapeError(f"cannot reduce gradient {g.shape} to {shape}")


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    ar, ac = a.data.shape
    br, bc = b.data.shape
    if (ar != br and ar != 1 and br != 1) or (ac != bc and ac != 1 and bc != 1):
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not align")


# ---------------------------------------------------------------------------
# arithmetic primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    out = a.data.dot(b.data)  # same product as ``@``, about 1 us less per call
    tape = _tape_of(a, b)
    if tape is None:
        return _wrap(out)
    ad, bd = a.data, b.data

    def pull(g):
        return (g @ bd.T, ad.T @ g)

    return tape._emit(out, (a, b), pull)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; a row (1, n), column (m, 1) or scalar operand broadcasts."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "add")
    out = a.data + b.data
    tape = _tape_of(a, b)
    if tape is None:
        return _wrap(out)
    a_shape, b_shape = a.shape, b.shape

    def pull(g):
        return (_reduce_to(g, a_shape), _reduce_to(g, b_shape))

    return tape._emit(out, (a, b), pull)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "sub")
    out = a.data - b.data
    tape = _tape_of(a, b)
    if tape is None:
        return _wrap(out)
    a_shape, b_shape = a.shape, b.shape

    def pull(g):
        return (_reduce_to(g, a_shape), -_reduce_to(g, b_shape))

    return tape._emit(out, (a, b), pull)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product with the same broadcasting rules as ``add``."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "mul")
    out = a.data * b.data
    tape = _tape_of(a, b)
    if tape is None:
        return _wrap(out)
    ad, bd = a.data, b.data
    a_shape, b_shape = a.shape, b.shape

    def pull(g):
        return (_reduce_to(g * bd, a_shape), _reduce_to(g * ad, b_shape))

    return tape._emit(out, (a, b), pull)


def scale(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    out = a.data * c
    tape = _tape_of(a)
    if tape is None:
        return _wrap(out)

    def pull(g):
        return (g * c,)

    return tape._emit(out, (a,), pull)


def transpose(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = a.data.T.copy()
    tape = _tape_of(a)
    if tape is None:
        return _wrap(out)

    def pull(g):
        return (g.T,)

    return tape._emit(out, (a,), pull)


def sum_all(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.array([[a.data.sum()]])
    tape = _tape_of(a)
    if tape is None:
        return _wrap(out)
    shape = a.shape

    def pull(g):
        return (np.full(shape, g[0, 0]),)

    return tape._emit(out, (a,), pull)


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.data <= 0.0):
        raise ValueError("log: input must be strictly positive")
    out = np.log(a.data)
    tape = _tape_of(a)
    if tape is None:
        return _wrap(out)
    ad = a.data

    def pull(g):
        return (g / ad,)

    return tape._emit(out, (a,), pull)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip entries into [lo, hi]; gradient passes only where the input lies inside."""
    a = _as_tensor(a)
    if not lo < hi:
        raise ValueError(f"clamp: need lo < hi, got [{lo}, {hi}]")
    out = np.clip(a.data, lo, hi)
    tape = _tape_of(a)
    if tape is None:
        return _wrap(out)
    mask = ((a.data >= lo) & (a.data <= hi)).astype(np.float64)

    def pull(g):
        return (g * mask,)

    return tape._emit(out, (a,), pull)


# ---------------------------------------------------------------------------
# nonlinearities


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, both from
    # e = exp(-|x|), which never overflows (``minimum`` keeps a NaN's sign);
    # in place, since on a large gate fresh temporaries cost more than the math
    e = np.minimum(x, -x)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, np.expm1(x))  # alpha fixed at 1


# kind -> (forward, derivative in terms of input x and output y); the
# derivative is looked up at backward time so a test can inject a deliberate
# fault, which ``verify`` must catch, without touching recorded nodes.
ELEMENTWISE_KINDS: dict[str, tuple[Callable, Callable]] = {
    "tanh": (np.tanh, lambda x, y: 1.0 - y * y),
    "sigmoid": (_sigmoid, lambda x, y: y * (1.0 - y)),
    "relu": (lambda x: np.maximum(x, 0.0), lambda x, y: (x > 0).astype(np.float64)),
    "elu": (_elu, lambda x, y: np.where(x > 0, 1.0, y + 1.0)),
}


def elementwise(a: Tensor, kind: str) -> Tensor:
    a = _as_tensor(a)
    try:
        fwd = ELEMENTWISE_KINDS[kind][0]
    except KeyError:
        raise ValueError(f"unknown elementwise kind {kind!r}") from None
    out = fwd(a.data)
    tape = _tape_of(a)
    if tape is None:
        return _wrap(out)
    ad = a.data

    def pull(g):
        deriv = ELEMENTWISE_KINDS[kind][1]
        return (g * deriv(ad, out),)

    return tape._emit(out, (a,), pull)


def tanh(a: Tensor) -> Tensor:
    return elementwise(a, "tanh")


def sigmoid(a: Tensor) -> Tensor:
    return elementwise(a, "sigmoid")


def relu(a: Tensor) -> Tensor:
    return elementwise(a, "relu")


def elu(a: Tensor) -> Tensor:
    return elementwise(a, "elu")


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Softmax along ``axis``, stabilized by subtracting the max; ``x`` is left as it is."""
    out = x - x.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax, stabilized by subtracting each row's max."""
    a = _as_tensor(a)
    out = _softmax(a.data, 1)
    tape = _tape_of(a)
    if tape is None:
        return _wrap(out)

    def pull(g):
        gy = g * out
        return (gy - out * gy.sum(axis=1, keepdims=True),)

    return tape._emit(out, (a,), pull)


# ---------------------------------------------------------------------------
# layout primitives


def concat(a: Tensor, b: Tensor, axis: str) -> Tensor:
    """Stack two tensors along ``"rows"`` or ``"cols"``."""
    a, b = _as_tensor(a), _as_tensor(b)
    if axis == "rows":
        if a.cols != b.cols:
            raise ShapeError(f"concat rows: column counts differ, {a.shape} vs {b.shape}")
        out = np.vstack([a.data, b.data])
        cut = a.rows

        def pull(g):
            return (g[:cut, :], g[cut:, :])

    elif axis == "cols":
        if a.rows != b.rows:
            raise ShapeError(f"concat cols: row counts differ, {a.shape} vs {b.shape}")
        out = np.hstack([a.data, b.data])
        cut = a.cols

        def pull(g):
            return (g[:, :cut], g[:, cut:])

    else:
        raise ValueError(f"concat axis must be 'rows' or 'cols', got {axis!r}")
    tape = _tape_of(a, b)
    if tape is None:
        return _wrap(out)
    return tape._emit(out, (a, b), pull)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    if not 0 <= start < stop <= a.rows:
        raise ShapeError(f"slice_rows [{start}:{stop}] out of range for {a.shape}")
    out = a.data[start:stop, :]
    tape = _tape_of(a)
    if tape is None:
        return _wrap(out)
    shape = a.shape

    def pull(g):
        full = np.zeros(shape)
        full[start:stop, :] = g
        return (full,)

    return tape._emit(out, (a,), pull)


def gather_cols(a: Tensor, cols: Sequence[int]) -> Tensor:
    """Columns ``cols`` of ``a``, in that order; the indices must be distinct."""
    a = _as_tensor(a)
    cols = list(cols)
    if not cols or len(set(cols)) != len(cols) or not all(0 <= c < a.cols for c in cols):
        raise ShapeError(f"gather_cols {cols} must be distinct columns of {a.shape}")
    out = a.data[:, cols]
    tape = _tape_of(a)
    if tape is None:
        return _wrap(out)
    shape = a.shape

    def pull(g):
        full = np.zeros(shape)
        full[:, cols] = g
        return (full,)

    return tape._emit(out, (a,), pull)


def split(a: Tensor, sizes: Iterable[int], axis: str) -> list[Tensor]:
    """Inverse of repeated ``concat``: cut into consecutive blocks of ``sizes``."""
    a = _as_tensor(a)
    sizes = list(sizes)
    if axis not in ("rows", "cols"):
        raise ValueError(f"split axis must be 'rows' or 'cols', got {axis!r}")
    total = a.rows if axis == "rows" else a.cols
    if sum(sizes) != total or any(s <= 0 for s in sizes):
        raise ShapeError(f"split sizes {sizes} do not partition {total} {axis}")
    parts = []
    offset = 0
    for s in sizes:
        if axis == "rows":
            parts.append(slice_rows(a, offset, offset + s))
        else:
            parts.append(gather_cols(a, range(offset, offset + s)))
        offset += s
    return parts


# ---------------------------------------------------------------------------
# segmented primitives: the columns of several samples side by side, cut into
# one segment per sample by a (B + 1,) vector of column offsets (segment b
# spans columns offsets[b] .. offsets[b + 1] - 1)
#
# A single untaped segment (a one-sample forward, such as ``predict``) takes
# plain 2-D products instead, one per attention head: the padded-block
# layout costs a few microseconds of reshapes per call, and a one-sample
# pass makes 14 such calls. The two routes agree to round-off.


class _Segments:
    """The zero-padded (B, width) layout of B non-empty column segments."""

    __slots__ = ("sizes", "width", "valid")

    def __init__(self, sizes: np.ndarray):
        self.sizes = sizes
        self.width = int(sizes.max())
        # (B, width) mask of the real columns; None when no segment is padded
        self.valid = None if sizes.min() == self.width else np.arange(self.width) < sizes[:, None]
        for arr in (sizes, self.valid):  # shared by every call with these offsets
            if arr is not None:
                arr.setflags(write=False)

    def pad(self, x: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """(r, N) columns as (r, B, width), padding set to ``fill``."""
        b = self.sizes.size
        if self.valid is None:
            return x.reshape(x.shape[0], b, self.width)
        padded = np.full((x.shape[0], b * self.width), fill)
        padded[:, self.valid.ravel()] = x
        return padded.reshape(x.shape[0], b, self.width)

    def unpad(self, x: np.ndarray) -> np.ndarray:
        """Inverse of ``pad``: (r, B, width) to the (r, N) columns."""
        flat = x.reshape(x.shape[0], -1)
        return flat if self.valid is None else flat[:, self.valid.ravel()]

    def blocks(self, x: np.ndarray, heads: int) -> np.ndarray:
        """(d, N) columns as (B, heads, width, d / heads) blocks, zero-padded."""
        d, b = x.shape[0], self.sizes.size
        if self.valid is not None:
            x = self.pad(x)
        return x.reshape(heads, d // heads, b, self.width).transpose(2, 0, 3, 1)

    def unblock(self, blocks: np.ndarray) -> np.ndarray:
        """Inverse of ``blocks``."""
        b, heads, width, d_k = blocks.shape
        return self.unpad(blocks.transpose(1, 3, 0, 2).reshape(heads * d_k, b, width))


def _segments(offsets, cols: int, op: str) -> _Segments:
    try:
        key = tuple(map(operator.index, offsets))
    except TypeError:  # not a sequence of integers
        key = ()
    seg = _layout(key, cols) if key else None
    if seg is None:
        cut = np.asarray(offsets).tolist()
        raise ShapeError(f"{op}: offsets {cut} do not cut {cols} columns into non-empty segments")
    return seg


@lru_cache(maxsize=64)
def _layout(offsets: tuple[int, ...], cols: int) -> _Segments | None:
    # memoized: a forward pass and its backward cut each token set the same
    # way in every call, and one-sample passes repeat their bag sizes; a
    # one-sample predict makes 20 such calls and runs about 12% slower
    # when each builds its layout afresh
    off = np.array(offsets)
    sizes = off[1:] - off[:-1]
    if off.size < 2 or off[0] != 0 or off[-1] != cols or sizes.min() < 1:
        return None
    return _Segments(sizes)


def segment_sum(a: Tensor, offsets, weights: Tensor) -> Tensor:
    """Weighted sum of each column segment: (d, N) to (d, B).

    ``weights``, a (1, N) row, scales each column before the sum, so a
    weighted pooling is one node.
    """
    a, w = _as_tensor(a), _as_tensor(weights)
    seg = _segments(offsets, a.cols, "segment_sum")
    if w.shape != (1, a.cols):
        raise ShapeError(f"segment_sum: weights {w.shape} for {a.cols} columns")
    if seg.sizes.size == 1 and _tape_of(a, w) is None:
        return _wrap(a.data @ w.data.T)  # one untaped segment: 2-D products
    x = seg.pad(a.data).transpose(1, 0, 2)  # (B, d, width)
    c = seg.pad(w.data)[0][:, :, None]  # (B, width, 1), zero in the padding
    out = (x @ c)[:, :, 0].T
    tape = _tape_of(a, w)
    if tape is None:
        return _wrap(out)

    def pull(g):
        gw = seg.unpad((g.T[:, None, :] @ x).transpose(1, 0, 2))
        return seg.unpad(g[:, :, None] * c[:, :, 0]), gw

    return tape._emit(out, (a, w), pull)


def segment_softmax(a: Tensor, offsets) -> Tensor:
    """Softmax over each column segment of every row, stabilized by the segment's max."""
    a = _as_tensor(a)
    seg = _segments(offsets, a.cols, "segment_softmax")
    if seg.sizes.size == 1 and a.tape is None:
        return _wrap(_softmax(a.data, 1))  # one untaped segment: 2-D products
    soft = _softmax(seg.pad(a.data, -np.inf), 2)  # zero in the padding
    out = seg.unpad(soft)
    tape = _tape_of(a)
    if tape is None:
        return _wrap(out)

    def pull(g):
        g = seg.pad(g)
        return (seg.unpad(soft * (g - (g * soft).sum(axis=2, keepdims=True))),)

    return tape._emit(out, (a,), pull)


def segment_attention(
    q: Tensor, k: Tensor, v: Tensor, q_offsets, kv_offsets, heads: int = 1, sink: list | None = None
) -> Tensor:
    """Scaled dot-product attention of each query segment on its own key/value segment.

    ``q`` holds (d, M) query columns cut into B segments by ``q_offsets``;
    ``k`` and ``v`` hold (d, N) key and value columns cut into B segments by
    ``kv_offsets``. The rows split into ``heads`` blocks of d_k = d / heads.
    In each head, query column j of segment b becomes the weighted sum of the
    value columns n of segment b, with weights softmax_n(q_j . k_n / sqrt(d_k)).
    Returns (d, M). The weights are kept as one (B, heads, max m_b, max n_b)
    array of per-segment blocks, zero-padded, never as an (M, N) matrix.
    ``sink`` receives each segment's (m_b, n_b) weights, head by head and,
    within a head, segment by segment.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    d = q.rows
    if k.rows != d or v.shape != k.shape:
        raise ShapeError(
            f"segment_attention: queries {q.shape}, keys {k.shape} and values {v.shape} do not align"
        )
    if d % heads:
        raise ShapeError(f"segment_attention: width {d} not divisible by {heads} heads")
    qs = _segments(q_offsets, q.cols, "segment_attention")
    cs = _segments(kv_offsets, k.cols, "segment_attention")
    if qs.sizes.size != cs.sizes.size:
        raise ShapeError(f"segment_attention: {qs.sizes.size} query segments, {cs.sizes.size} key segments")
    inv = 1.0 / math.sqrt(d // heads)
    _tape_of(q, k)  # raises for operands on different tapes
    tape = _tape_of(v, q if q.tape is not None else k)
    if qs.sizes.size == 1 and tape is None:  # one untaped segment: per-head 2-D products
        qh, kh, vh = (x.data.reshape(heads, d // heads, x.cols) for x in (q, k, v))
        weights = _softmax((qh.transpose(0, 2, 1) @ kh) * inv, 2)  # (heads, m, n)
        if sink is not None:
            sink.extend(weights)
        return _wrap((vh @ weights.transpose(0, 2, 1)).reshape(d, q.cols))
    qb, kb, vb = qs.blocks(q.data, heads), cs.blocks(k.data, heads), cs.blocks(v.data, heads)
    scores = (qb @ kb.swapaxes(2, 3)) * inv  # (B, heads, m, n)
    if cs.valid is not None:
        np.copyto(scores, -np.inf, where=~cs.valid[:, None, None, :])
    weights = _softmax(scores, 3)
    out = qs.unblock(weights @ vb)
    if sink is not None:
        for h in range(heads):
            sink.extend(weights[b, h, :m, :n] for b, (m, n) in enumerate(zip(qs.sizes, cs.sizes)))
    if tape is None:
        return _wrap(out)

    def pull(g):
        gb = qs.blocks(g, heads)  # zero in padded query rows
        gw = gb @ vb.swapaxes(2, 3)
        gs = weights * (gw - (gw * weights).sum(axis=3, keepdims=True)) * inv
        gq, gk = gs @ kb, gs.swapaxes(2, 3) @ qb
        return qs.unblock(gq), cs.unblock(gk), cs.unblock(weights.swapaxes(2, 3) @ gb)

    return tape._emit(out, (q, k, v), pull)


# ---------------------------------------------------------------------------
# alpha dropout

# saturation point and affine correction of self-normalizing dropout; with
# these constants a standard-normal input keeps zero mean and unit variance.
_SELU_ALPHA = 1.6732632423543772
_SELU_SCALE = 1.0507009873554805
_DROP_VALUE = -_SELU_SCALE * _SELU_ALPHA

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def _keyed_draws(words: Sequence[int], shape: tuple[int, ...], keep: float) -> np.ndarray:
    """Keep-mask of shape (len(words),) + shape; block i is the C-order draw of
    ``Generator(Philox(key=words[i])).random(shape) < keep``.

    One bit generator is re-keyed per word: a fresh Philox's state (zero
    counter, empty buffer) with the word's key gives exactly the stream of
    ``Philox(key=word)``, without building a generator per word.
    """
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    state = bits.state
    key = state["state"]["key"]
    draws = np.empty((len(words), *shape))
    for i, word in enumerate(words):
        key[:] = (word & _MASK64, word >> 64)
        bits.state = state
        gen.random(out=draws[i])
    return (draws < keep).astype(np.float64)


@lru_cache(maxsize=256)
def _cached_mask(word: int, shape: tuple[int, int], keep: float) -> np.ndarray:
    mask = _keyed_draws((word,), shape, keep)[0]
    mask.setflags(write=False)
    return mask


def dropout_mask(key: tuple, shape: tuple[int, int], keep: float) -> np.ndarray:
    """Deterministic keep-mask from a counter-based generator keyed by (seed, layer, step).

    ``step`` may also be a sequence with one step per column: column i is then
    the (rows, 1) mask of ``(seed, layer, step[i])``, so a batch of samples
    stacked as columns draws what each sample would draw alone.

    Each call draws from one Philox bit generator, re-keyed per step. Only
    integer-step masks are memoized, so repeated evaluation at the same key
    (e.g. during a finite-difference sweep) reuses the same draw; a window of
    steps is drawn afresh, since its masks never repeat in training.
    """
    seed, layer, step = key
    prefix = ((seed & _MASK64) << 64) | ((layer & _MASK32) << 32)
    if isinstance(step, (int, np.integer)):
        return _cached_mask(prefix | (operator.index(step) & _MASK32), shape, keep)
    words = [prefix | (operator.index(s) & _MASK32) for s in step]
    if len(words) != shape[1]:
        raise ShapeError(f"dropout_mask: {len(words)} steps for {shape[1]} columns")
    return _keyed_draws(words, (shape[0],), keep).T


def alpha_dropout(a: Tensor, p: float, key: tuple) -> Tensor:
    """Self-normalizing dropout: dropped entries saturate at a fixed negative
    value and an affine correction restores the mean/variance of a
    standard-normal input. Identity at p == 0, the evaluation setting.
    ``key`` is the ``dropout_mask`` key (seed, layer, step or one step per
    column).
    """
    a = _as_tensor(a)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"alpha_dropout: p must lie in [0, 1), got {p}")
    if p == 0.0:
        return a
    keep = 1.0 - p
    mask = dropout_mask(key, a.shape, keep)
    gain = (keep + _DROP_VALUE**2 * keep * p) ** -0.5
    shift = -gain * _DROP_VALUE * p
    out = gain * (a.data * mask + _DROP_VALUE * (1.0 - mask)) + shift
    tape = _tape_of(a)
    if tape is None:
        return _wrap(out)

    def pull(g):
        return (g * gain * mask,)

    return tape._emit(out, (a,), pull)


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor, tape: Tape) -> Grads:
    """Gradient of a scalar loss w.r.t. every leaf on the tape.

    Visits each node once, in reverse recording order, and spends the tape:
    a pulled node's gradient and tape entry are dropped at once, so the
    activations its closure holds are freed during the walk. A second call on
    the same tape raises ``ValueError``.
    """
    if loss.shape != (1, 1):
        raise ValueError(f"backward: loss must be 1x1, got {loss.shape}")
    if loss.tape is not tape or loss.node_id is None:
        raise ValueError("backward: loss is not recorded on this tape")
    if tape.spent:
        raise ValueError("backward: tape already spent by an earlier backward")
    tape.spent = True
    nodes = tape.nodes
    by_node: list[np.ndarray | None] = [None] * len(nodes)
    by_node[loss.node_id] = np.ones((1, 1))
    for nid in range(loss.node_id, -1, -1):
        g = by_node[nid]
        if g is None:
            continue
        node = nodes[nid]
        if node.pull is None:  # leaf
            continue
        by_node[nid] = nodes[nid] = None
        for pid, pg in zip(node.parents, node.pull(g)):
            if pid is None:
                continue  # untaped constant operand
            if by_node[pid] is None:
                by_node[pid] = pg
            else:
                by_node[pid] = by_node[pid] + pg
    return Grads(tape, by_node)
