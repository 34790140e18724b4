"""Per-modality embedders mapping raw inputs to d-wide token columns.

Genomics: one independent two-hidden-layer network per functional category
(ELU activations, alpha dropout after each hidden layer), projected to d and
assembled column-wise into a (d, S) token matrix. Histology: a single affine
map applied to each patch column, giving (d, N). The genomic networks also
run on a batch of samples at once, their vectors stacked as columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import numkit as nk

SNN_HIDDEN_DEFAULT = 256  # two hidden layers of this width per category
DROPOUT_DEFAULT = 0.25


@dataclass
class SnnCategoryParams:
    w1: nk.Tensor  # (hidden, len_s)
    b1: nk.Tensor  # (hidden, 1)
    w2: nk.Tensor  # (hidden, hidden)
    b2: nk.Tensor  # (hidden, 1)
    w_out: nk.Tensor  # (d, hidden)
    b_out: nk.Tensor  # (d, 1)


@dataclass
class SnnParams:
    per_category: list[SnnCategoryParams]


@lru_cache(maxsize=16)
def snn_names(n_categories: int) -> tuple[tuple[str, ...], ...]:
    """The genomic networks' array names, one tuple per category in ``SnnCategoryParams`` field order."""
    names = ("w1", "b1", "w2", "b2", "w_out", "b_out")
    return tuple(tuple(f"snn.c{s}.{n}" for n in names) for s in range(n_categories))


def bind_snn(t: dict[str, nk.Tensor], n_categories: int) -> SnnParams:
    """The genomic networks' tensors, read from ``t`` by name."""
    return SnnParams([SnnCategoryParams(*map(t.__getitem__, names)) for names in snn_names(n_categories)])


def embed_genomics(
    raw: list[np.ndarray],
    params: SnnParams,
    dropout_p: float = 0.0,
    dropout_key: tuple | None = None,
) -> nk.Tensor:
    """Embed S raw category inputs into a (d, S * B) token matrix.

    Each input is one sample's category vector (B = 1) or a (len_s, B) matrix
    holding B samples' vectors as columns, so each category network runs as
    one GEMM over the batch. Category s fills columns s*B .. s*B + B - 1, and
    column s*B + b is a function of sample b's category s alone.
    Dropout is on when ``dropout_p > 0``; ``dropout_key`` is then the
    (seed, steps) pair that makes it reproducible, with one step per sample;
    the per-layer component of the counter key is derived internally.
    """
    if len(raw) != len(params.per_category):
        raise nk.ShapeError(
            f"got {len(raw)} category vectors for {len(params.per_category)} category networks"
        )
    if dropout_p > 0.0 and dropout_key is None:
        raise ValueError("dropout needs a (seed, steps) key")
    seed, steps = dropout_key if dropout_key is not None else (0, ())
    columns = []
    for s, (vec, p) in enumerate(zip(raw, params.per_category)):
        arr = np.asarray(vec, dtype=np.float64)
        x = nk.Tensor(arr.reshape(-1, 1) if arr.ndim == 1 else arr)
        if x.rows != p.w1.cols:
            raise nk.ShapeError(
                f"category {s}: vector length {x.rows} does not match weights ({p.w1.cols})"
            )
        if columns and x.cols != columns[0].cols:
            raise nk.ShapeError(f"category {s}: {x.cols} samples, category 0 has {columns[0].cols}")
        a = nk.elu(nk.affine(p.w1, x, p.b1))
        a = nk.alpha_dropout(a, dropout_p, (seed, 2 * s, steps))
        a = nk.elu(nk.affine(p.w2, a, p.b2))
        a = nk.alpha_dropout(a, dropout_p, (seed, 2 * s + 1, steps))
        columns.append(nk.affine(p.w_out, a, p.b_out))
    return nk.concat(columns, "cols")


def embed_patches(patches: np.ndarray, w: nk.Tensor, b: nk.Tensor) -> nk.Tensor:
    """Project a (d_in, N) bag, or several bags side by side, to (d, N) by ``w x + b``, column by column."""
    x = nk.Tensor(patches)
    if x.rows != w.cols:
        raise nk.ShapeError(f"bag width {x.rows} does not match projection input width {w.cols}")
    return nk.affine(w, x, b)
