"""Tour of the autodiff kernel: tensors, a tape, and gradient checking.

Builds a small expression, differentiates it in reverse mode, and compares
every gradient entry against central finite differences.
"""

import numpy as np

from mgct import numkit as nk
from mgct.gradcheck import finite_difference, relative_error

rng = np.random.default_rng(0)

# --- forward math without a tape: nothing is recorded -----------------------
x = nk.Tensor(rng.standard_normal((3, 4)))
w = nk.Tensor(rng.standard_normal((4, 2)))
print("x @ w ->", nk.matmul(x, w).shape)
soft = nk.segment_softmax(x, nk.Segments([1, 3]))  # softmax over column 0, and over columns 1-3, of each row
print("segment softmax sums, per row:", soft.data[:, :1].sum(axis=1), soft.data[:, 1:].sum(axis=1))

# --- the same expression, recorded -------------------------------------------
tape = nk.Tape()
wx = tape.leaf(rng.uniform(-2, 2, (3, 4)))
wy = tape.leaf(rng.uniform(-2, 2, (4, 2)))
hidden = nk.tanh(nk.matmul(wx, wy))  # (3, 2)
loss = nk.scale(nk.sum_all(nk.mul(hidden, hidden)), 1.0 / hidden.data.size)  # the mean
print("\nloss =", loss.item())

grads = nk.backward(loss, tape)
print("grad wx shape:", grads[wx].shape, " grad wy shape:", grads[wy].shape)

# --- check against the numerical oracle --------------------------------------
arrays = {"wx": wx.data, "wy": wy.data}


def f(p):
    h = nk.tanh(nk.matmul(nk.Tensor(p["wx"]), nk.Tensor(p["wy"])))
    return nk.scale(nk.sum_all(nk.mul(h, h)), 1.0 / h.data.size).item()


numeric = finite_difference(f, arrays)
print("rel err wx:", relative_error(grads[wx], numeric["wx"]))
print("rel err wy:", relative_error(grads[wy], numeric["wy"]))

# --- deterministic, self-normalizing dropout ---------------------------------
z = nk.Tensor(rng.standard_normal((2000, 500)))
dropped = nk.alpha_dropout(z, p=0.5, key=(seed := 42, 0, range(500)))  # one step per column
print("\nalpha dropout at p=0.5 on standard-normal input:")
print("  mean %.4f (target 0), var %.4f (target 1)" % (dropped.data.mean(), dropped.data.var()))
same = nk.alpha_dropout(z, 0.5, (seed, 0, range(500)))
print("  same (seed, layer, steps) key reproduces the mask:", np.array_equal(dropped.data, same.data))
