"""Kernel tests: forward semantics, tape gradients vs finite differences,
layout round-trips, and dropout statistics."""

import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgct import numkit as nk
from mgct.verify import gradient_error

GRAD_TOL = 1e-5


def rand(rows, cols, seed=0, lo=-2.0, hi=2.0):
    return np.random.default_rng(seed).uniform(lo, hi, (rows, cols))


def check_unary(build, x, tol=GRAD_TOL):
    """Tape gradient of sum(weighted(op(x))) against central differences."""
    w = np.linspace(0.3, 1.7, x.size).reshape(x.shape)
    err, _ = gradient_error(lambda t: nk.sum_all(nk.mul(build(t["x"]), nk.Tensor(w))), {"x": x})
    assert err < tol, f"gradient mismatch: rel err {err}"


def test_every_public_name_resolves():
    assert [name for name in nk.__all__ if not hasattr(nk, name)] == []


@pytest.mark.parametrize("values", [2.0, [1.0, 2.0, 3.0]], ids=["0-D", "1-D"])
def test_tensor_needs_a_2d_array(values):
    with pytest.raises(nk.ShapeError, match="2-D"):
        nk.Tensor(np.array(values))


class TestMatmul:
    def test_identity(self):
        a = rand(3, 3, seed=1)
        out = nk.matmul(nk.Tensor(np.eye(3)), nk.Tensor(a))
        np.testing.assert_array_equal(out.data, a)
        out = nk.matmul(nk.Tensor(a), nk.Tensor(np.eye(3)))
        np.testing.assert_array_equal(out.data, a)

    def test_hand_example(self):
        out = nk.matmul(nk.Tensor([[1, 2], [3, 4]]), nk.Tensor([[1], [1]]))
        np.testing.assert_array_equal(out.data, [[3], [7]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(nk.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            nk.matmul(nk.Tensor(np.zeros((2, 3))), nk.Tensor(np.zeros((2, 3))))

    def test_gradient_both_operands(self):
        a, b = rand(5, 4, seed=2), rand(4, 3, seed=3)
        err, name = gradient_error(lambda t: nk.sum_all(nk.matmul(t["a"], t["b"])), {"a": a, "b": b})
        assert err < 1e-6, f"{name}: {err}"


class TestAffine:
    @pytest.mark.parametrize("cols", [1, 5])
    @pytest.mark.parametrize("taped", [True, False], ids=["taped", "untaped"])
    def test_bitwise_add_of_matmul(self, taped, cols):
        # the fused node against the two nodes it replaces: forward and all three gradients
        w, x, b = rand(4, 3, seed=40), rand(3, cols, seed=41), rand(4, 1, seed=42)
        g_out = rand(4, cols, seed=43)

        def run(build):
            tape = nk.Tape() if taped else None
            leaves = [tape.leaf(v) if taped else nk.Tensor(v) for v in (w, x, b)]
            out = build(*leaves)
            if not taped:
                assert out.tape is None
                return out.data, []
            loss = nk.sum_all(nk.mul(out, nk.Tensor(g_out)))
            grads = nk.backward(loss, tape)
            return out.data, [grads[leaf] for leaf in leaves]

        fused, fused_grads = run(nk.affine)
        # the unfused chain with the bias column tiled by hand; the bias gradient is g's row sums
        plain, plain_grads = run(lambda w, x, b: nk.add(nk.matmul(w, x), nk.Tensor(np.repeat(b.data, cols, axis=1))))
        if taped:
            plain_grads[2] = g_out.sum(axis=1, keepdims=True)
        assert fused.tobytes() == plain.tobytes()
        assert [g.tobytes() for g in fused_grads] == [g.tobytes() for g in plain_grads]

    def test_one_node_per_affine(self):
        tape = nk.Tape()
        w, x, b = (tape.leaf(v) for v in (rand(4, 3), rand(3, 2), rand(4, 1)))
        nk.affine(w, x, b)
        assert len(tape.nodes) == 4

    @pytest.mark.parametrize(
        "x_shape,b_shape", [((2, 5), (4, 1)), ((3, 5), (3, 1)), ((3, 5), (4, 5)), ((3, 5), (1, 1))],
        ids=["inner", "bias-rows", "bias-full", "bias-scalar"],
    )
    def test_mismatched_operands_raise_shape_error(self, x_shape, b_shape):
        with pytest.raises(nk.ShapeError, match="affine"):
            nk.affine(nk.Tensor(np.zeros((4, 3))), nk.Tensor(np.zeros(x_shape)), nk.Tensor(np.zeros(b_shape)))


class TestSegmentSoftmax:
    # one segment takes the untaped 2-D route, several the padded route
    def test_uniform_row(self):
        out = nk.segment_softmax(nk.Tensor([[0.0, 0.0, 0.0]]), nk.Segments([3]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)

    def test_large_values_do_not_overflow(self):
        for x, sizes in (([[1000.0, 0.0]], [2]), ([[1000.0, 0.0, 1000.0, 0.0, -1000.0]], [2, 3])):
            out = nk.segment_softmax(nk.Tensor(x), nk.Segments(sizes)).data
            assert np.all(np.isfinite(out))
            np.testing.assert_allclose(out, np.array(x) == 1000.0, rtol=0, atol=1e-12)

    def test_rows_sum_to_one(self):
        x = rand(7, 9, seed=4, lo=-30, hi=30)
        for sizes in ([9], [4, 1, 4]):
            cut = nk.Segments(sizes)
            out = nk.segment_softmax(nk.Tensor(x), cut).data
            for seg in segments(cut.offsets):
                np.testing.assert_allclose(out[:, seg].sum(axis=1), 1.0, atol=1e-12)


class TestElementwise:
    def test_fixed_points(self):
        zero = nk.Tensor([[0.0]])
        assert nk.tanh(zero).item() == 0.0
        assert nk.sigmoid(zero).item() == 0.5
        assert nk.elu(zero).item() == 0.0
        assert nk.relu(zero).item() == 0.0

    def test_elu_negative_closed_form(self):
        out = nk.elu(nk.Tensor([[-1.0]]))
        assert out.item() == pytest.approx(np.exp(-1.0) - 1.0, abs=1e-15)

    def test_elu_large_input_does_not_overflow(self):
        # no overflow warning from a large entry; outputs are bitwise those of the where-form
        x = np.array([[800.0, -1.0, -0.0, np.nan, 0.0, 1e300, -np.inf]])
        with np.errstate(over="ignore"):
            expected = np.where(x > 0, x, np.expm1(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = nk.elu(nk.Tensor(x)).data
        assert out.tobytes() == expected.tobytes()
        assert np.signbit(out[0, 2]) and np.isnan(out[0, 3])
        fortran = np.asfortranarray(rand(6, 5, seed=3, lo=-3, hi=3))
        assert nk.elu(nk.Tensor(fortran)).data.strides == fortran.strides

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown elementwise kind"):
            nk.elementwise(nk.Tensor([[1.0]]), "gelu")

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid", "relu", "elu"])
    def test_gradients(self, kind):
        # offset away from 0 so relu's kink never sits on a sample point
        x = rand(3, 4, seed=6) + 0.11
        check_unary(lambda t: nk.elementwise(t, kind), x)

    # each kind's derivative from its input x and output y: the reference the
    # output-only derivatives of ELEMENTWISE_KINDS must match bit for bit
    INPUT_DERIVATIVES = {
        "tanh": lambda x, y: 1.0 - y * y,
        "sigmoid": lambda x, y: y * (1.0 - y),
        "relu": lambda x, y: (x > 0).astype(np.float64),
        "elu": lambda x, y: np.where(x > 0, 1.0, y + 1.0),
    }

    @pytest.mark.parametrize("kind", sorted(INPUT_DERIVATIVES))
    def test_output_derivative_matches_input_form_bitwise(self, kind):
        edges = [0.0, 5e-324, 1e-300, 800.0, np.inf, np.nan]
        x = np.concatenate([edges, np.negative(edges), np.linspace(-40.0, 40.0, 4001)])[None, :]
        fwd, deriv = nk.ELEMENTWISE_KINDS[kind]
        with np.errstate(over="ignore", invalid="ignore"):
            y = fwd(x)
            expected = self.INPUT_DERIVATIVES[kind](x, y)
            assert deriv(y).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid", "relu", "elu"])
    def test_node_frees_its_input(self, kind):
        tape = nk.Tape()
        h = nk.matmul(tape.leaf(rand(4, 3, seed=13)), nk.Tensor(rand(3, 5, seed=14)))
        ref = weakref.ref(h.data)
        out = nk.elementwise(h, kind)
        del h
        assert ref() is None
        assert out.tape is tape and tape.nodes[out.node_id].pull is not None


class TestConcatSplit:
    def test_shapes(self):
        a, b = nk.Tensor(rand(2, 3, seed=7)), nk.Tensor(rand(2, 3, seed=8))
        assert nk.concat([a, b], "cols").shape == (2, 6)
        assert nk.concat([a, b], "rows").shape == (4, 3)

    def test_row_stack_of_vectors(self):
        a, b = nk.Tensor(rand(1, 5, seed=9)), nk.Tensor(rand(1, 5, seed=10))
        assert nk.concat([a, b], "rows").shape == (2, 5)

    def test_roundtrip_bitwise(self):
        a, b = rand(4, 3, seed=11), rand(4, 5, seed=12)
        joined = nk.concat([nk.Tensor(a), nk.Tensor(b)], "cols")
        assert np.array_equal(nk.gather_cols(joined, range(3)).data, a)
        assert np.array_equal(nk.gather_cols(joined, range(3, 8)).data, b)

    def test_axis_mismatch(self):
        with pytest.raises(nk.ShapeError, match="column counts differ"):
            nk.concat([nk.Tensor(np.zeros((2, 3))), nk.Tensor(np.zeros((2, 4)))], "rows")
        with pytest.raises(nk.ShapeError, match="row counts differ"):
            nk.concat([nk.Tensor(np.zeros((2, 3))), nk.Tensor(np.zeros((3, 3)))], "cols")

    def test_gradient_splits_correctly(self):
        a, b = rand(2, 3, seed=13), rand(2, 2, seed=14)
        w = rand(2, 5, seed=15)
        tape = nk.Tape()
        la, lb = tape.leaf(a), tape.leaf(b)
        loss = nk.sum_all(nk.mul(nk.concat([la, lb], "cols"), nk.Tensor(w)))
        grads = nk.backward(loss, tape)
        np.testing.assert_allclose(grads[la], w[:, :3], atol=1e-15)
        np.testing.assert_allclose(grads[lb], w[:, 3:], atol=1e-15)

    @pytest.mark.parametrize("axis", ["rows", "cols"])
    def test_three_parts_are_one_node(self, axis):
        ax = ("rows", "cols").index(axis)
        parts = [rand(2, n, seed=16 + n) if ax else rand(n, 2, seed=16 + n) for n in (3, 1, 4)]
        assert nk.concat([nk.Tensor(p) for p in parts], axis).data.tobytes() == np.concatenate(parts, ax).tobytes()
        tape = nk.Tape()
        leaves = [tape.leaf(p) for p in parts]
        joined = nk.concat(leaves, axis)
        assert len(tape.nodes) == 4  # three leaves and the join
        w = rand(*joined.shape, seed=19)
        grads = nk.backward(nk.sum_all(nk.mul(joined, nk.Tensor(w))), tape)
        for leaf, g in zip(leaves, np.split(w, [3, 4], ax)):  # each part's own rows or columns of w
            assert np.array_equal(grads[leaf], g)

    def test_one_part_is_returned_as_it_is(self):
        tape = nk.Tape()
        leaf = tape.leaf(rand(2, 3, seed=20))
        assert nk.concat([leaf], "cols") is leaf and len(tape.nodes) == 1

    def test_three_parts_must_align_on_a_known_axis(self):
        a, b = nk.Tensor(np.zeros((2, 3))), nk.Tensor(np.zeros((2, 4)))
        with pytest.raises(nk.ShapeError, match="column counts differ"):
            nk.concat([a, a, b], "rows")
        with pytest.raises(nk.ShapeError, match="row counts differ"):
            nk.concat([a, b, nk.Tensor(np.zeros((3, 3)))], "cols")
        with pytest.raises(ValueError, match="axis"):
            nk.concat([a, a, a], "depth")


class TestGatherCols:
    def test_picks_columns_in_order(self):
        x = rand(3, 6, seed=39)
        np.testing.assert_array_equal(nk.gather_cols(nk.Tensor(x), [4, 1, 2]).data, x[:, [4, 1, 2]])

    def test_gradient_scatters_back(self):
        w = rand(3, 3, seed=41)
        err, _ = gradient_error(
            lambda t: nk.sum_all(nk.mul(nk.gather_cols(t["x"], range(1, 6, 2)), nk.Tensor(w))),
            {"x": rand(3, 6, seed=40)},
        )
        assert err < GRAD_TOL

    @pytest.mark.parametrize("cols", [[], [0, 0], [6], [-1]])
    def test_bad_columns_rejected(self, cols):
        with pytest.raises(nk.ShapeError):
            nk.gather_cols(nk.Tensor(np.zeros((2, 6))), cols)


class TestBackward:
    def test_sum_gives_ones(self):
        w = rand(3, 4, seed=16)
        tape = nk.Tape()
        leaf = tape.leaf(w)
        grads = nk.backward(nk.sum_all(leaf), tape)
        np.testing.assert_array_equal(grads[leaf], np.ones_like(w))

    def test_squared_norm_gives_2w(self):
        w = rand(3, 4, seed=17)
        tape = nk.Tape()
        leaf = tape.leaf(w)
        grads = nk.backward(nk.sum_all(nk.mul(leaf, leaf)), tape)
        np.testing.assert_allclose(grads[leaf], 2 * w, atol=1e-14)

    def test_reused_tensor_accumulates(self):
        w = rand(2, 2, seed=18)
        tape = nk.Tape()
        leaf = tape.leaf(w)
        grads = nk.backward(nk.sum_all(nk.add(leaf, leaf)), tape)
        np.testing.assert_array_equal(grads[leaf], 2 * np.ones_like(w))

    def test_non_scalar_loss_rejected(self):
        tape = nk.Tape()
        leaf = tape.leaf(rand(2, 2, seed=19))
        with pytest.raises(ValueError, match="1x1"):
            nk.backward(nk.add(leaf, leaf), tape)

    def test_unreached_leaf_gets_zeros(self):
        tape = nk.Tape()
        used = tape.leaf(rand(2, 2, seed=20))
        unused = tape.leaf(rand(3, 3, seed=21))
        grads = nk.backward(nk.sum_all(used), tape)
        np.testing.assert_array_equal(grads[unused], np.zeros((3, 3)))

    def test_second_backward_on_spent_tape_rejected(self):
        tape = nk.Tape()
        leaf = tape.leaf(rand(2, 2, seed=34))
        loss = nk.sum_all(nk.mul(leaf, leaf))
        nk.backward(loss, tape)
        assert tape.spent
        with pytest.raises(ValueError, match="spent"):
            nk.backward(loss, tape)

    def test_pulled_nodes_are_dropped(self):
        tape = nk.Tape()
        leaf = tape.leaf(rand(2, 2, seed=35))
        nk.backward(nk.sum_all(nk.tanh(leaf)), tape)
        assert tape.nodes[0] is not None
        assert tape.nodes[1:] == [None, None]

    def test_non_leaf_gradient_not_kept(self):
        tape = nk.Tape()
        leaf = tape.leaf(rand(2, 2, seed=36))
        hidden = nk.tanh(leaf)
        unused = nk.relu(leaf)  # recorded, never pulled
        grads = nk.backward(nk.sum_all(hidden), tape)
        for t in (hidden, unused, nk.Tensor(np.ones((2, 2)))):
            with pytest.raises(KeyError):
                grads[t]
        np.testing.assert_allclose(grads[leaf], 1.0 - np.tanh(leaf.data) ** 2, atol=1e-15)

    def test_mixed_tapes_rejected(self):
        t1, t2 = nk.Tape(), nk.Tape()
        with pytest.raises(ValueError, match="different tapes"):
            nk.add(t1.leaf(np.ones((2, 2))), t2.leaf(np.ones((2, 2))))


class TestEqualShapes:
    @pytest.mark.parametrize("op", [nk.add, nk.mul])
    @pytest.mark.parametrize("shape", [(3, 1), (1, 4), (1, 1), (2, 4)], ids=["column", "row", "scalar", "rows"])
    def test_nothing_broadcasts(self, op, shape):
        x, other = nk.Tensor(np.zeros((3, 4))), nk.Tensor(np.zeros(shape))
        for a, b in ((x, other), (other, x)):
            with pytest.raises(nk.ShapeError, match="differ"):
                op(a, b)


class TestBernoulliNll:
    def test_zero_gradient_where_clipped(self):
        eps = 0.1
        p = np.array([[0.0, 0.05, 0.1, 0.4], [0.9, 0.95, 1.0, 0.3]])
        tape = nk.Tape()
        leaf = tape.leaf(p)
        loss = nk.sum_all(nk.bernoulli_nll(leaf, np.ones(p.shape), np.ones(p.shape), eps))
        grad = nk.backward(loss, tape)[leaf]
        np.testing.assert_array_equal(grad == 0.0, [[True, True, False, False], [False, True, True, False]])

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(44)
        p = rng.uniform(0.05, 0.95, (4, 6))
        w_pos, w_neg = rng.uniform(0, 1, (2, 4, 6))
        err, _ = gradient_error(lambda t: nk.sum_all(nk.bernoulli_nll(t["p"], w_pos, w_neg, 1e-7)), {"p": p})
        assert err < 1e-6

    @pytest.mark.parametrize("pos_shape,neg_shape", [((3, 1), (3, 4)), ((3, 4), (4, 4)), ((3, 4), (3, 1))])
    def test_weights_of_another_shape_rejected(self, pos_shape, neg_shape):
        with pytest.raises(nk.ShapeError, match="bernoulli_nll"):
            nk.bernoulli_nll(nk.Tensor(np.full((3, 4), 0.5)), np.ones(pos_shape), np.ones(neg_shape), 1e-7)


class TestAlphaDropout:
    def test_p_zero_is_identity(self):
        x = nk.Tensor(rand(4, 4, seed=26))
        assert nk.alpha_dropout(x, 0.0, (1, 2, [3])) is x

    def test_p_out_of_range(self):
        x = nk.Tensor(rand(2, 2, seed=28))
        with pytest.raises(ValueError):
            nk.alpha_dropout(x, 1.0, (0, 0, [0, 0]))
        with pytest.raises(ValueError):
            nk.alpha_dropout(x, -0.1, (0, 0, [0, 0]))

    def test_deterministic_per_key(self):
        x = nk.Tensor(rand(64, 1, seed=29))
        a = nk.alpha_dropout(x, 0.5, (3, 1, [7]))
        b = nk.alpha_dropout(x, 0.5, (3, 1, [7]))
        c = nk.alpha_dropout(x, 0.5, (3, 1, [8]))
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_standard_normal_moments_preserved(self):
        # Monte Carlo oracle: self-normalization should hold at p = 0.5
        z = np.random.default_rng(30).standard_normal((1000, 1000))
        out = nk.alpha_dropout(nk.Tensor(z), 0.5, (42, 0, range(1000)))
        assert abs(out.data.mean()) < 0.01
        assert abs(out.data.var() - 1.0) < 0.05

    def test_one_step_per_column(self):
        # column i of a window mask is the mask that step i draws alone
        steps = (5, 9, 6, 100)
        window = nk.dropout_mask((3, 2, steps), (40, 4), 0.75)
        for i, step in enumerate(steps):
            np.testing.assert_array_equal(window[:, [i]], nk.dropout_mask((3, 2, [step]), (40, 1), 0.75))
        with pytest.raises(nk.ShapeError, match="2 steps for 4 columns"):
            nk.dropout_mask((3, 2, (1, 2)), (40, 4), 0.75)

    def test_masks_match_keyed_philox(self):
        # oracle: a key draws what a fresh Philox keyed by (seed, layer, step) draws,
        # with layer and step taken mod 2**32
        def oracle(seed, layer, step, shape, keep):
            word = (seed << 64) | ((layer % 2**32) << 32) | (step % 2**32)
            return (np.random.Generator(np.random.Philox(key=word)).random(shape) < keep).astype(np.float64)

        seed, layer, keep = 2**64 - 3, 2**32 + 7, 0.6
        step = 2**33 + 5
        mask = nk.dropout_mask((seed, layer, [step]), (6, 1), keep)
        np.testing.assert_array_equal(mask, oracle(seed, layer, step, (6, 1), keep))

        cached = nk._cached_mask.cache_info()
        steps = (4, 2**40 + 1, 0)
        window = nk.dropout_mask((seed, layer, steps), (50, 3), keep)
        np.testing.assert_array_equal(window, np.hstack([oracle(seed, layer, s, (50, 1), keep) for s in steps]))
        assert nk._cached_mask.cache_info() == cached  # window draws are not memoized
        one = nk.dropout_mask((seed, layer, [9]), (50, 1), keep)
        assert one.shape == (50, 1)
        np.testing.assert_array_equal(one, oracle(seed, layer, 9, (50, 1), keep))
        assert nk.dropout_mask((seed, layer, [9]), (50, 1), keep) is one  # one-step draws are

    @pytest.mark.parametrize("step", [[7], range(3, 8)], ids=["one step", "window of steps"])
    def test_bitwise_the_plain_expression(self, step):
        # oracle: the expression the cached constants and in-place arithmetic stand for
        p, keep = 0.25, 0.75
        x = rand(6, len(step), seed=32)
        mask = nk.dropout_mask((4, 1, step), x.shape, keep)
        drop = -1.0507009873554805 * 1.6732632423543772
        gain = (keep + drop**2 * keep * p) ** -0.5
        expected = gain * (x * mask + drop * (1.0 - mask)) + -gain * drop * p
        g = rand(6, len(step), seed=33)
        for _ in range(2):  # the second call reuses what the first cached
            tape = nk.Tape()
            leaf = tape.leaf(x)
            out = nk.alpha_dropout(leaf, p, (4, 1, step))
            assert out.data.tobytes() == expected.tobytes()
            assert nk.alpha_dropout(nk.Tensor(x), p, (4, 1, step)).data.tobytes() == expected.tobytes()
            grad = nk.backward(nk.sum_all(nk.mul(out, nk.Tensor(g))), tape)[leaf]
            assert grad.tobytes() == (g * gain * mask).tobytes()

    def test_gradient_through_mask(self):
        x = rand(4, 5, seed=31)
        check_unary(lambda t: nk.alpha_dropout(t, 0.4, (9, 9, range(9, 14))), x)


# ---------------------------------------------------------------------------
# property tests

shapes = st.tuples(st.integers(1, 16), st.integers(1, 16))


@settings(max_examples=60, deadline=None)
@given(shape=shapes, seed=st.integers(0, 2**31 - 1))
def test_no_public_op_emits_nonfinite(shape, seed):
    rng = np.random.default_rng(seed)
    x = nk.Tensor(rng.uniform(-2, 2, shape))
    y = nk.Tensor(rng.uniform(-2, 2, shape))
    cut = nk.Segments([shape[1] // 2, shape[1] - shape[1] // 2] if shape[1] > 1 else [1])
    outs = [
        nk.add(x, y),
        nk.bernoulli_nll(x, np.abs(y.data), np.abs(x.data), 1e-7),
        nk.mul(x, y),
        nk.segment_softmax(x, cut),
        nk.segment_sum(x, cut, nk.Tensor(y.data[:1])),
        nk.segment_attention(x, x, y, cut, cut),
        nk.tanh(x),
        nk.sigmoid(x),
        nk.relu(x),
        nk.elu(x),
        nk.matmul(x, nk.Tensor(y.data.T)),
        nk.alpha_dropout(x, 0.5, (seed, 0, range(shape[1]))),
        nk.concat([x, y], "rows"),
        nk.gather_cols(x, range(shape[1] - 1, -1, -1)),
    ]
    for out in outs:
        assert np.all(np.isfinite(out.data))


@settings(max_examples=60, deadline=None)
@given(shape=shapes, seed=st.integers(0, 2**31 - 1))
def test_softmax_simplex_property(shape, seed):
    x = np.random.default_rng(seed).uniform(-50, 50, shape)
    out = nk.segment_softmax(nk.Tensor(x), nk.Segments([shape[1]])).data
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 6),
    k=st.integers(1, 6),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_matmul_gradient_property(m, k, n, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-2, 2, (m, k)), rng.uniform(-2, 2, (k, n))
    err, name = gradient_error(lambda t: nk.sum_all(nk.matmul(t["a"], t["b"])), {"a": a, "b": b})
    assert err < 1e-4, f"{name}: {err}"


# ---------------------------------------------------------------------------
# segmented primitives: ragged segments of 1-33 columns, 1-8 of them

segment_sizes = st.lists(st.integers(1, 33), min_size=1, max_size=8)


def segments(off):
    return [slice(a, b) for a, b in zip(off[:-1], off[1:])]


def softmax_of(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@st.composite
def attention_layouts(draw):
    """(query sizes, context sizes, heads): the same number of segments on both sides."""
    b = draw(st.integers(1, 8))
    sizes = st.lists(st.integers(1, 33), min_size=b, max_size=b)
    return draw(sizes), draw(sizes), draw(st.sampled_from([1, 2]))


def attention_loop(q, k, v, q_off, kv_off, heads):
    out = np.zeros_like(q)
    d_k = q.shape[0] // heads
    for qs, cs in zip(segments(q_off), segments(kv_off)):
        for h in range(heads):
            rows = slice(h * d_k, (h + 1) * d_k)
            w = softmax_of(q[rows, qs].T @ k[rows, cs] / np.sqrt(d_k))
            out[rows, qs] = v[rows, cs] @ w.T
    return out


@settings(max_examples=25, deadline=None)
@given(sizes=segment_sizes, seed=st.integers(0, 2**31 - 1))
def test_segment_softmax_property(sizes, seed):
    rng = np.random.default_rng(seed)
    cut = nk.Segments(sizes)
    x = rng.uniform(-3, 3, (1, cut.cols))
    out = nk.segment_softmax(nk.Tensor(x), cut).data
    for seg in segments(cut.offsets):
        np.testing.assert_allclose(out[:, seg], softmax_of(x[:, seg]), rtol=0, atol=1e-12)
    w = rng.uniform(0.5, 1.5, x.shape)
    err, _ = gradient_error(
        lambda t: nk.sum_all(nk.mul(nk.segment_softmax(t["x"], cut), nk.Tensor(w))), {"x": x}
    )
    assert err < GRAD_TOL


@settings(max_examples=25, deadline=None)
@given(sizes=segment_sizes, rows=st.integers(1, 4), weighted=st.booleans(), seed=st.integers(0, 2**31 - 1))
def test_segment_sum_property(sizes, rows, weighted, seed):
    rng = np.random.default_rng(seed)
    cut = nk.Segments(sizes)
    x = rng.uniform(-2, 2, (rows, cut.cols))
    w = rng.uniform(-2, 2, (1, cut.cols)) if weighted else np.ones((1, cut.cols))
    params = {"x": x, "w": w}
    out = nk.segment_sum(nk.Tensor(x), cut, nk.Tensor(w)).data
    loop = np.column_stack([(x[:, s] * w[:, s]).sum(axis=1) for s in segments(cut.offsets)])
    np.testing.assert_allclose(out, loop, rtol=0, atol=1e-12)
    c = rng.uniform(0.5, 1.5, (rows, len(sizes)))
    err, name = gradient_error(
        lambda t: nk.sum_all(nk.mul(nk.segment_sum(t["x"], cut, t["w"]), nk.Tensor(c))), params
    )
    assert err < GRAD_TOL, f"{name}: {err}"


@settings(max_examples=15, deadline=None)
@given(layout=attention_layouts(), seed=st.integers(0, 2**31 - 1))
def test_segment_attention_property(layout, seed):
    q_sizes, kv_sizes, heads = layout
    rng = np.random.default_rng(seed)
    qs, cs = nk.Segments(q_sizes), nk.Segments(kv_sizes)
    d = 2 * heads
    params = {"q": rng.uniform(-2, 2, (d, qs.cols)), "k": rng.uniform(-2, 2, (d, cs.cols)),
              "v": rng.uniform(-2, 2, (d, cs.cols))}
    sink = []
    out = nk.segment_attention(*(nk.Tensor(params[n]) for n in "qkv"), qs, cs, heads, sink)
    loop = attention_loop(params["q"], params["k"], params["v"], qs.offsets, cs.offsets, heads)
    np.testing.assert_allclose(out.data, loop, rtol=0, atol=1e-12)
    assert [w.shape for w in sink] == [(m, n) for _ in range(heads) for m, n in zip(q_sizes, kv_sizes)]
    w = rng.uniform(0.5, 1.5, out.shape)

    def build(t):
        return nk.sum_all(nk.mul(nk.segment_attention(t["q"], t["k"], t["v"], qs, cs, heads), nk.Tensor(w)))

    err, name = gradient_error(build, params)
    assert err < GRAD_TOL, f"{name}: {err}"


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 33), n=st.integers(1, 33), heads=st.sampled_from([1, 2, 4]), seed=st.integers(0, 2**31 - 1)
)
def test_one_segment_is_the_unsegmented_formula(m, n, heads, seed):
    # untaped operands take the per-head 2-D route, taped ones the padded-block route: both must match
    rng = np.random.default_rng(seed)
    d = 8
    x, row = nk.Tensor(rng.uniform(-3, 3, (d, n))), nk.Tensor(rng.uniform(-3, 3, (1, n)))
    q, k, v = (nk.Tensor(rng.uniform(-2, 2, (d, c))) for c in (m, n, n))
    alpha = softmax_of(row.data)  # numpy references, independent of numkit's softmax
    pooled = x.data @ alpha.T
    attended = attention_loop(q.data, k.data, v.data, [0, m], [0, n], heads)
    tape = nk.Tape()
    sinks = []
    qs, cs = nk.Segments([m]), nk.Segments([n])
    for t in (x, row, q, k, v), tuple(tape.leaf(t.data) for t in (x, row, q, k, v)):
        tx, trow, tq, tk, tv = t
        np.testing.assert_allclose(nk.segment_softmax(trow, cs).data, alpha, rtol=0, atol=1e-12)
        np.testing.assert_allclose(nk.segment_sum(tx, cs, nk.Tensor(alpha)).data, pooled, rtol=0, atol=1e-12)
        sinks.append([])
        out = nk.segment_attention(tq, tk, tv, qs, cs, heads, sink=sinks[-1])
        np.testing.assert_allclose(out.data, attended, rtol=0, atol=1e-12)
    untaped, taped = sinks
    assert len(untaped) == len(taped) == heads
    for w_untaped, w_taped in zip(untaped, taped):  # head by head
        assert w_untaped.shape == w_taped.shape == (m, n)
        np.testing.assert_allclose(w_untaped, w_taped, rtol=0, atol=1e-12)


def test_sigmoid_is_bitwise_the_two_branch_formula():
    def two_branch(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    edges = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 800.0, -800.0, np.inf, -np.inf, np.nan, -np.nan]
    grid = np.concatenate([edges, np.linspace(-40.0, 40.0, 1000), np.geomspace(1e-20, 750.0, 200)])
    for x in (grid.reshape(1, -1), grid.reshape(-1, 1), np.concatenate([grid, -grid]).reshape(-1, 8)):
        assert nk.sigmoid(nk.Tensor(x)).data.tobytes() == two_branch(x).tobytes()


@pytest.mark.parametrize("offsets", [[0, 2, 2, 5], [1, 5], [0, 4], [0.0, 5.0], [[0, 5]], [0], [], [0, 3, 2, 5]])
def test_bad_offsets_rejected(offsets):
    # the sizes between these offsets are empty, zero, negative, non-integer or nested, and make
    # no Segments; [1, 5] and [0, 4] give a 4-column cut, which segment_sum refuses for 5 columns
    sizes = np.diff(offsets).tolist()
    with pytest.raises(nk.ShapeError, match="segment_sum" if sizes == [4] else "non-empty"):
        nk.segment_sum(nk.Tensor(np.ones((2, 5))), nk.Segments(sizes), nk.Tensor(np.ones((1, 5))))


def test_segments_are_read_only_offsets_and_padded_layout():
    cut = nk.Segments([2, 1, 3])
    assert (cut.offsets, cut.cols, cut.width) == ((0, 2, 3, 6), 6, 3)
    np.testing.assert_array_equal(cut.valid, [[True, True, False], [True, False, False], [True, True, True]])
    assert not cut.sizes.flags.writeable and not cut.valid.flags.writeable
    assert nk.Segments([4, 4]).valid is None  # no segment padded


def test_segmented_ops_check_their_column_count():
    x, row, four = nk.Tensor(np.ones((2, 5))), nk.Tensor(np.ones((1, 5))), nk.Segments([2, 2])
    five = nk.Segments([2, 3])
    with pytest.raises(nk.ShapeError, match="segment_sum: segments of 4 columns for an operand of 5"):
        nk.segment_sum(x, four, row)
    with pytest.raises(nk.ShapeError, match="segment_softmax: segments of 4 columns"):
        nk.segment_softmax(row, four)
    with pytest.raises(nk.ShapeError, match="segment_attention: segments of 4 columns"):
        nk.segment_attention(x, x, x, four, five)
    with pytest.raises(nk.ShapeError, match="segment_attention: segments of 4 columns"):
        nk.segment_attention(x, x, x, five, four)


def test_segment_sum_weights_are_one_row():
    with pytest.raises(nk.ShapeError, match="weights"):
        nk.segment_sum(nk.Tensor(np.ones((2, 5))), nk.Segments([5]), nk.Tensor(np.ones((2, 5))))
