"""Dense 2-D float64 tensors with reverse-mode automatic differentiation.

Every value is a (rows, cols) float64 matrix, in C or Fortran memory order
(bags load Fortran-ordered; no op depends on the order), and every operand
of an op is a ``Tensor``: ops convert nothing. ``add`` and ``mul`` take
equal shapes; the one broadcast is the (m, 1) bias column of ``affine``.
``bernoulli_nll``, the survival loss as one op, takes its constant weights
as plain arrays. The segmented ops take the cut of their columns into
samples as a ``Segments``, built once from the samples' column counts and
shared by every op on that token set. Operations build a
flat tape of primitive nodes; ``backward`` walks the tape once, in reverse,
and returns a gradient for every leaf. It spends the tape: each non-leaf
node is dropped once pulled, freeing the activations its closure holds, and
a spent tape cannot be walked again. One tape records one loss, such as the
summed loss of several training samples (one writer). Ops never write to
their operands and nothing caches on an array's identity, so Tensors are
immutable once built, with one exception: the finite-difference oracle
(``gradcheck``) perturbs its own working arrays in place between untaped
forward calls (each process of a split sweep its own copy of them). When
no operand is on a tape an op just computes and returns: it records
nothing and does no tape bookkeeping.

Shapes in comments use the convention ``(rows, cols)``.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "Tape",
    "Grads",
    "matmul",
    "affine",
    "add",
    "mul",
    "scale",
    "sum_all",
    "bernoulli_nll",
    "Segments",
    "segment_softmax",
    "segment_sum",
    "segment_attention",
    "elementwise",
    "tanh",
    "sigmoid",
    "relu",
    "elu",
    "concat",
    "gather_cols",
    "alpha_dropout",
    "backward",
]


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class Tensor:
    """A (rows, cols) float64 matrix, optionally recorded on a tape."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, values, tape: "Tape | None" = None, node_id: int | None = None):
        self.data = np.asarray(values, dtype=np.float64)
        if self.data.ndim != 2:
            raise ShapeError(f"tensors are 2-D; got array of ndim {self.data.ndim}")
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


def _wrap(out: np.ndarray, tape: "Tape | None" = None, node_id: int | None = None) -> Tensor:
    # internal fast path: ``out`` is already a fresh 2-D float64 array
    t = Tensor.__new__(Tensor)
    t.data = out
    t.tape = tape
    t.node_id = node_id
    return t


def _tape_of(*operands: Tensor) -> "Tape | None":
    tape = None
    for t in operands:
        if t.tape is not None and t.tape is not tape:
            if tape is not None:
                raise ValueError("operands were recorded on different tapes")
            tape = t.tape
    return tape


# ---------------------------------------------------------------------------
# arithmetic primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    out = a.data.dot(b.data)  # same product as ``@``, about 1 us less per call
    if a.tape is None and b.tape is None:
        return _wrap(out)
    ad, bd = a.data, b.data

    def pull(g):
        return (g @ bd.T, ad.T @ g)

    return _tape_of(a, b)._emit(out, (a, b), pull)


def affine(w: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """``w @ x + b`` as one node, the (m, 1) bias column broadcast across x's columns
    (numkit's one broadcast); its gradient is the row sums of ``g``."""
    if w.data.shape[1] != x.data.shape[0] or b.data.shape != (w.data.shape[0], 1):
        raise ShapeError(f"affine: {w.shape} @ {x.shape} + {b.shape} do not align")
    out = w.data.dot(x.data)
    out += b.data
    if w.tape is None and x.tape is None and b.tape is None:
        return _wrap(out)
    wd, xd = w.data, x.data

    def pull(g):
        return (g @ xd.T, wd.T @ g, g.sum(axis=1, keepdims=True))

    return _tape_of(w, x, b)._emit(out, (w, x, b), pull)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    out = a.data + b.data
    if a.tape is None and b.tape is None:
        return _wrap(out)

    def pull(g):
        return (g, g)

    return _tape_of(a, b)._emit(out, (a, b), pull)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product of two tensors of one shape."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    out = a.data * b.data
    if a.tape is None and b.tape is None:
        return _wrap(out)
    ad, bd = a.data, b.data

    def pull(g):
        return (g * bd, g * ad)

    return _tape_of(a, b)._emit(out, (a, b), pull)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = a.data * c
    if a.tape is None:
        return _wrap(out)

    def pull(g):
        return (g * c,)

    return a.tape._emit(out, (a,), pull)


def sum_all(a: Tensor) -> Tensor:
    out = np.array([[a.data.sum()]])
    if a.tape is None:
        return _wrap(out)
    shape = a.shape

    def pull(g):
        return (np.full(shape, g[0, 0]),)

    return a.tape._emit(out, (a,), pull)


def bernoulli_nll(p: Tensor, w_pos: np.ndarray, w_neg: np.ndarray, eps: float) -> Tensor:
    """Minus each column's sum of ``w_pos * log(h) + w_neg * log(1 - h)``, as a (1, n) row.

    ``h`` is ``p`` clipped into [eps, 1 - eps], so every log is finite; the
    gradient passes only where ``p`` lies inside. ``w_pos`` and ``w_neg`` are
    constant (m, n) weight arrays, not differentiated.
    """
    if w_pos.shape != p.shape or w_neg.shape != p.shape:
        raise ShapeError(f"bernoulli_nll: weights {w_pos.shape} and {w_neg.shape} for {p.shape} probabilities")
    h = np.clip(p.data, eps, 1.0 - eps)
    rest = 1.0 - h
    minus_ones = np.full((1, p.data.shape[0]), -1.0)
    # minus each column's sum as a BLAS product; a numpy sum adds in another order
    out = minus_ones.dot(w_pos * np.log(h) + w_neg * np.log(rest))
    if p.tape is None:
        return _wrap(out)
    inside = ((p.data >= eps) & (p.data <= 1.0 - eps)).astype(np.float64)

    def pull(g):
        g = minus_ones.T @ g  # (m, n)
        return (((g * w_pos) / h - (g * w_neg) / rest) * inside,)

    return p.tape._emit(out, (p,), pull)


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
    # alpha fixed at 1; expm1 sees entries above 1 clamped to 1, so a large
    # positive entry (which the where discards) cannot overflow, while -0.0
    # and NaN reach it unchanged. A masked expm1 (where=) took 2.7x as long on
    # a (256, 32) block.
    return np.where(x > 0, x, np.expm1(np.minimum(x, 1.0)))


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
    try:
        fwd = ELEMENTWISE_KINDS[kind][0]
    except KeyError:
        raise ValueError(f"unknown elementwise kind {kind!r}") from None
    out = fwd(a.data)
    if a.tape is None:
        return _wrap(out)
    ad = a.data

    def pull(g):
        deriv = ELEMENTWISE_KINDS[kind][1]
        return (g * deriv(ad, out),)

    return a.tape._emit(out, (a,), pull)


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


# ---------------------------------------------------------------------------
# layout primitives


def concat(parts: Sequence[Tensor], axis: str) -> Tensor:
    """Join any number of tensors along ``"rows"`` or ``"cols"`` as one node; one part is returned as it is."""
    if axis not in ("rows", "cols"):
        raise ValueError(f"concat axis must be 'rows' or 'cols', got {axis!r}")
    ax = 0 if axis == "rows" else 1
    if len({p.data.shape[1 - ax] for p in parts}) != 1:
        raise ShapeError(f"concat {axis}: {('column', 'row')[ax]} counts differ, {[p.shape for p in parts]}")
    if len(parts) == 1:
        return parts[0]
    out = np.concatenate([p.data for p in parts], axis=ax)
    tape = _tape_of(*parts)
    if tape is None:
        return _wrap(out)
    cuts = list(accumulate(p.data.shape[ax] for p in parts[:-1]))

    def pull(g):
        return np.split(g, cuts, axis=ax)

    return tape._emit(out, parts, pull)


def gather_cols(a: Tensor, cols: Sequence[int]) -> Tensor:
    """Columns ``cols`` of ``a``, in that order; the indices must be distinct."""
    cols = list(cols)
    if not cols or len(set(cols)) != len(cols) or not all(0 <= c < a.cols for c in cols):
        raise ShapeError(f"gather_cols {cols} must be distinct columns of {a.shape}")
    out = a.data[:, cols]
    if a.tape is None:
        return _wrap(out)
    shape = a.shape

    def pull(g):
        full = np.zeros(shape)
        full[:, cols] = g
        return (full,)

    return a.tape._emit(out, (a,), pull)


# ---------------------------------------------------------------------------
# segmented primitives: the columns of several samples side by side, cut into
# one segment per sample by a ``Segments`` (segment b spans columns
# offsets[b] .. offsets[b + 1] - 1). A window builds each token set's cut
# once and hands it to every op on that set, as the varlen layout of
# FlashAttention-2 computes its ``cu_seqlens`` once per batch.
#
# A single untaped segment (a one-sample forward, such as ``predict``) takes
# plain 2-D products instead, one per attention head: the padded-block
# layout costs a few microseconds of reshapes per call, and a one-sample
# pass makes 14 such calls. The two routes agree to round-off.


class Segments:
    """B non-empty column segments, cut once from their sizes.

    Holds the (B + 1) column ``offsets``, the column count ``cols`` and the
    zero-padded (B, width) layout the segmented ops compute in. Read-only
    once built, so one cut serves every op on its token set.
    """

    __slots__ = ("offsets", "cols", "sizes", "width", "valid")

    def __init__(self, sizes):
        try:
            cut = [operator.index(s) for s in sizes]
        except TypeError:  # not a sequence of integers
            cut = []
        if not cut or min(cut) < 1:
            raise ShapeError(f"Segments: sizes {sizes!r} do not cut columns into one or more non-empty segments")
        self.offsets = tuple(accumulate(cut, initial=0))
        self.cols = self.offsets[-1]
        self.sizes = np.array(cut)
        self.width = max(cut)
        # (B, width) mask of the real columns; None when no segment is padded
        self.valid = None if min(cut) == self.width else np.arange(self.width) < self.sizes[:, None]
        for arr in (self.sizes, self.valid):
            if arr is not None:
                arr.setflags(write=False)

    def check(self, cols: int, op: str) -> None:
        """Raise ``ShapeError``, naming ``op``, unless the segments cut ``cols`` columns."""
        if cols != self.cols:
            raise ShapeError(f"{op}: segments of {self.cols} columns for an operand of {cols}")

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


def segment_sum(a: Tensor, seg: Segments, weights: Tensor) -> Tensor:
    """Weighted sum of each column segment: (d, N) to (d, B).

    ``weights``, a (1, N) row, scales each column before the sum, so a
    weighted pooling is one node.
    """
    seg.check(a.cols, "segment_sum")
    if weights.shape != (1, a.cols):
        raise ShapeError(f"segment_sum: weights {weights.shape} for {a.cols} columns")
    tape = _tape_of(a, weights)
    if seg.sizes.size == 1 and tape is None:
        return _wrap(a.data @ weights.data.T)  # one untaped segment: 2-D products
    x = seg.pad(a.data).transpose(1, 0, 2)  # (B, d, width)
    c = seg.pad(weights.data)[0][:, :, None]  # (B, width, 1), zero in the padding
    out = (x @ c)[:, :, 0].T
    if tape is None:
        return _wrap(out)

    def pull(g):
        gw = seg.unpad((g.T[:, None, :] @ x).transpose(1, 0, 2))
        return seg.unpad(g[:, :, None] * c[:, :, 0]), gw

    return tape._emit(out, (a, weights), pull)


def segment_softmax(a: Tensor, seg: Segments) -> Tensor:
    """Softmax over each column segment of every row, stabilized by the segment's max."""
    seg.check(a.cols, "segment_softmax")
    if seg.sizes.size == 1 and a.tape is None:
        return _wrap(_softmax(a.data, 1))  # one untaped segment: 2-D products
    soft = _softmax(seg.pad(a.data, -np.inf), 2)  # zero in the padding
    out = seg.unpad(soft)
    if a.tape is None:
        return _wrap(out)

    def pull(g):
        g = seg.pad(g)
        return (seg.unpad(soft * (g - (g * soft).sum(axis=2, keepdims=True))),)

    return a.tape._emit(out, (a,), pull)


def segment_attention(
    q: Tensor, k: Tensor, v: Tensor, qs: Segments, cs: Segments, heads: int = 1, sink: list | None = None
) -> Tensor:
    """Scaled dot-product attention of each query segment on its own key/value segment.

    ``q`` holds (d, M) query columns cut into B segments by ``qs``; ``k``
    and ``v`` hold (d, N) key and value columns cut into B segments by
    ``cs``. The rows split into ``heads`` blocks of d_k = d / heads.
    In each head, query column j of segment b becomes the weighted sum of the
    value columns n of segment b, with weights softmax_n(q_j . k_n / sqrt(d_k)).
    Returns (d, M). The weights are kept as one (B, heads, max m_b, max n_b)
    array of per-segment blocks, zero-padded, never as an (M, N) matrix.
    ``sink`` receives each segment's (m_b, n_b) weights, head by head and,
    within a head, segment by segment.
    """
    d = q.rows
    if k.rows != d or v.shape != k.shape:
        raise ShapeError(
            f"segment_attention: queries {q.shape}, keys {k.shape} and values {v.shape} do not align"
        )
    if d % heads:
        raise ShapeError(f"segment_attention: width {d} not divisible by {heads} heads")
    qs.check(q.cols, "segment_attention")
    cs.check(k.cols, "segment_attention")
    if qs.sizes.size != cs.sizes.size:
        raise ShapeError(f"segment_attention: {qs.sizes.size} query segments, {cs.sizes.size} key segments")
    inv = 1.0 / math.sqrt(d // heads)
    tape = _tape_of(q, k, v)
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
def _cached_mask(word: int, shape: tuple[int, int], keep: float) -> tuple[np.ndarray, np.ndarray]:
    mask = _keyed_draws((word,), shape, keep)[0]
    pair = (mask, _DROP_VALUE * (1.0 - mask))
    for arr in pair:  # shared by every call with this key
        arr.setflags(write=False)
    return pair


def _mask_and_drop(key: tuple, shape: tuple[int, int], keep: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``dropout_mask`` of ``key`` and the value its dropped entries take, ``_DROP_VALUE * (1 - mask)``."""
    seed, layer, step = key
    prefix = ((seed & _MASK64) << 64) | ((layer & _MASK32) << 32)
    if isinstance(step, (int, np.integer)):
        return _cached_mask(prefix | (operator.index(step) & _MASK32), shape, keep)
    words = [prefix | (operator.index(s) & _MASK32) for s in step]
    if len(words) != shape[1]:
        raise ShapeError(f"dropout_mask: {len(words)} steps for {shape[1]} columns")
    mask = _keyed_draws(words, (shape[0],), keep).T
    return mask, _DROP_VALUE * (1.0 - mask)


def dropout_mask(key: tuple, shape: tuple[int, int], keep: float) -> np.ndarray:
    """Deterministic keep-mask from a counter-based generator keyed by (seed, layer, step).

    ``step`` may also be a sequence with one step per column: column i is then
    the (rows, 1) mask of ``(seed, layer, step[i])``, so a batch of samples
    stacked as columns draws what each sample would draw alone.

    Each call draws from one Philox bit generator, re-keyed per step. Only
    integer-step masks are memoized (read-only), so repeated evaluation at
    the same key (e.g. during a finite-difference sweep) reuses the same
    draw; a window of steps is drawn afresh, since its masks never repeat.
    """
    return _mask_and_drop(key, shape, keep)[0]


def alpha_dropout(a: Tensor, p: float, key: tuple) -> Tensor:
    """Self-normalizing dropout: dropped entries saturate at a fixed negative
    value and an affine correction restores the mean/variance of a
    standard-normal input. Identity at p == 0, the evaluation setting.
    ``key`` is the ``dropout_mask`` key (seed, layer, step or one step per
    column).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"alpha_dropout: p must lie in [0, 1), got {p}")
    if p == 0.0:
        return a
    keep = 1.0 - p
    gain = (keep + _DROP_VALUE**2 * keep * p) ** -0.5
    shift = -gain * _DROP_VALUE * p
    mask, drop = _mask_and_drop(key, a.shape, keep)
    out = a.data * mask  # gain * (a * mask + drop) + shift, in place
    out += drop
    out *= gain
    out += shift
    if a.tape is None:
        return _wrap(out)

    def pull(g):
        return (g * gain * mask,)

    return a.tape._emit(out, (a,), pull)


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
