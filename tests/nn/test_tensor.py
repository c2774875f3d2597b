"""Autograd core: every op's gradient against finite differences."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.tensor import (Tensor, as_tensor, concatenate, is_grad_enabled,
                             no_grad, stack)
from tests.helpers import gradcheck
from repro.utils.rng import make_rng


class TestBasics:
    def test_construction_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_integer_input_promoted_to_float(self):
        t = Tensor(np.arange(4))
        assert np.issubdtype(t.dtype, np.floating)

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_item_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_item_raises_on_vector(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_len(self):
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_wraps_array(self):
        assert isinstance(as_tensor(np.ones(3)), Tensor)


class TestArithmeticGradients:
    def test_add(self):
        gradcheck(lambda ts: (ts[0] + ts[1]).sum(), [(3, 4), (3, 4)])

    def test_add_broadcast_row(self):
        gradcheck(lambda ts: (ts[0] + ts[1]).sum(), [(3, 4), (4,)])

    def test_add_broadcast_col(self):
        gradcheck(lambda ts: (ts[0] + ts[1]).sum(), [(3, 4), (3, 1)])

    def test_add_scalar_constant(self):
        gradcheck(lambda ts: (ts[0] + 2.5).sum(), [(3, 3)])

    def test_radd(self):
        gradcheck(lambda ts: (1.0 + ts[0]).sum(), [(2, 2)])

    def test_neg(self):
        gradcheck(lambda ts: (-ts[0]).sum(), [(4,)])

    def test_sub(self):
        gradcheck(lambda ts: (ts[0] - ts[1]).sum(), [(2, 3), (2, 3)])

    def test_rsub(self):
        gradcheck(lambda ts: (5.0 - ts[0]).sum(), [(4,)])

    def test_mul(self):
        gradcheck(lambda ts: (ts[0] * ts[1]).sum(), [(3, 2), (3, 2)])

    def test_mul_broadcast(self):
        gradcheck(lambda ts: (ts[0] * ts[1]).sum(), [(3, 2), (2,)])

    def test_div(self):
        gradcheck(lambda ts: (ts[0] / ts[1]).sum(), [(3,), (3,)],
                  positive=True)

    def test_rdiv(self):
        gradcheck(lambda ts: (2.0 / ts[0]).sum(), [(3,)], positive=True)

    def test_pow(self):
        gradcheck(lambda ts: (ts[0] ** 3).sum(), [(4,)])

    def test_pow_non_scalar_exponent_raises(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** np.array([1.0, 2.0])

    def test_matmul_2d(self):
        gradcheck(lambda ts: (ts[0] @ ts[1]).sum(), [(3, 4), (4, 2)])

    def test_matmul_vector_result_values(self):
        a = make_rng(0).normal(size=(3, 4))
        b = make_rng(1).normal(size=(4, 2))
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_allclose(out.data, a @ b)


class TestNonlinearGradients:
    def test_exp(self):
        gradcheck(lambda ts: ts[0].exp().sum(), [(3, 3)])

    def test_log(self):
        gradcheck(lambda ts: ts[0].log().sum(), [(3,)], positive=True)

    def test_sqrt(self):
        gradcheck(lambda ts: ts[0].sqrt().sum(), [(3,)], positive=True)

    def test_relu(self):
        # Avoid kinks at 0 by shifting away from it.
        gradcheck(lambda ts: (ts[0] + 10.0).relu().sum(), [(3, 3)])

    def test_relu_zeroes_negatives(self):
        t = Tensor([-1.0, 2.0, -3.0])
        np.testing.assert_array_equal(t.relu().data, [0.0, 2.0, 0.0])

    def test_tanh(self):
        gradcheck(lambda ts: ts[0].tanh().sum(), [(4,)])

    def test_abs(self):
        gradcheck(lambda ts: (ts[0] + 5.0).abs().sum(), [(3,)])

    def test_clip_gradient_masks_outside(self):
        t = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_all(self):
        gradcheck(lambda ts: ts[0].sum(), [(3, 4)])

    def test_sum_axis0(self):
        gradcheck(lambda ts: (ts[0].sum(axis=0) ** 2).sum(), [(3, 4)])

    def test_sum_axis_tuple(self):
        gradcheck(lambda ts: (ts[0].sum(axis=(0, 2)) ** 2).sum(), [(2, 3, 4)])

    def test_sum_keepdims(self):
        out = Tensor(np.ones((2, 3))).sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)

    def test_mean(self):
        gradcheck(lambda ts: ts[0].mean(), [(5,)])

    def test_mean_axis(self):
        gradcheck(lambda ts: (ts[0].mean(axis=1) ** 2).sum(), [(3, 4)])

    def test_var(self):
        gradcheck(lambda ts: ts[0].var(), [(6,)])

    def test_var_matches_numpy(self):
        x = make_rng(0).normal(size=(4, 5))
        np.testing.assert_allclose(Tensor(x).var(axis=0).data,
                                   x.var(axis=0))

    def test_max_all(self):
        # Unique max so the subgradient is well defined.
        x = np.arange(6.0).reshape(2, 3)
        t = Tensor(x, requires_grad=True)
        t.max().backward()
        expected = np.zeros_like(x)
        expected[1, 2] = 1.0
        np.testing.assert_array_equal(t.grad, expected)

    def test_max_axis(self):
        x = np.array([[1.0, 5.0], [7.0, 2.0]])
        t = Tensor(x, requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_array_equal(t.grad, [[0, 1], [1, 0]])

    def test_max_splits_ties(self):
        t = Tensor([2.0, 2.0], requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.5, 0.5])


class TestShapes:
    def test_reshape_grad(self):
        gradcheck(lambda ts: (ts[0].reshape(6) ** 2).sum(), [(2, 3)])

    def test_reshape_minus_one(self):
        assert Tensor(np.zeros((2, 3, 4))).reshape(2, -1).shape == (2, 12)

    def test_transpose_grad(self):
        gradcheck(lambda ts: (ts[0].transpose(1, 0) @ ts[1]).sum(),
                  [(4, 3), (4, 2)])

    def test_transpose_default_reverses(self):
        assert Tensor(np.zeros((2, 3, 4))).T.shape == (4, 3, 2)

    def test_getitem_grad(self):
        t = Tensor(np.arange(6.0), requires_grad=True)
        t[np.array([0, 0, 3])].sum().backward()
        np.testing.assert_array_equal(t.grad, [2, 0, 0, 1, 0, 0])

    def test_getitem_fancy_2d(self):
        t = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        idx = np.array([1, 1, 2])
        t[idx].sum().backward()
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[2] = 1.0
        np.testing.assert_array_equal(t.grad, expected)

    def test_stack_grad(self):
        gradcheck(lambda ts: (stack(ts, axis=0) ** 2).sum(),
                  [(2, 3), (2, 3)])

    def test_concatenate_grad(self):
        gradcheck(lambda ts: (concatenate(ts, axis=1) ** 2).sum(),
                  [(2, 3), (2, 2)])


class TestBackwardMechanics:
    def test_backward_on_non_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_non_scalar_needs_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_explicit_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * 3).backward(np.array([1.0, 10.0]))
        np.testing.assert_array_equal(t.grad, [3.0, 30.0])

    def test_backward_grad_shape_mismatch(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward(np.ones(3))

    def test_grad_accumulates_across_backwards(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        (t * 2).sum().backward()
        np.testing.assert_array_equal(t.grad, [4.0])

    def test_grad_buffer_owned_after_first_write(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        g = np.array([3.0, 4.0])
        t.backward(g)
        g[:] = 99.0
        np.testing.assert_array_equal(t.grad, [3.0, 4.0])

    def test_sibling_parents_own_their_grads(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([5.0, 6.0], requires_grad=True)
        (a + b).backward(np.array([1.0, -1.0]))
        a.grad[:] = 7.0
        np.testing.assert_array_equal(b.grad, [1.0, -1.0])

    def test_self_add_accumulates_twice(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x + x).backward(np.array([0.5, -3.0]))
        np.testing.assert_array_equal(x.grad, [1.0, -6.0])

    def test_first_grad_is_float64_in_data_layout(self):
        t = Tensor(np.zeros((3, 4), dtype=np.float32).T, requires_grad=True)
        t._accumulate(np.ones((4, 3), dtype=np.float32))
        assert t.grad.dtype == np.float64
        assert t.grad.flags.f_contiguous

    def test_first_grad_matches_a_zeroed_buffer(self):
        """-0.0 lands as +0.0, as in a sum into zeros; broadcasts too."""
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        t._accumulate(np.array([-0.0, 1.0]))
        assert not np.signbit(t.grad).any()
        np.testing.assert_array_equal(t.grad, [[0.0, 1.0], [0.0, 1.0]])

    def test_owned_first_grad_is_adopted_with_the_same_bytes(self):
        """An owned array in the buffer's layout becomes the buffer; its
        bits are those of the copy (-0.0 -> +0.0, NaNs kept)."""
        values = np.array([[-0.0, np.nan, 1.5], [0.0, -2.5, -np.nan]])
        copied = Tensor(np.zeros((2, 3)), requires_grad=True)
        copied._accumulate(values.copy())
        adopted = Tensor(np.zeros((2, 3)), requires_grad=True)
        fresh = values.copy()
        adopted._accumulate(fresh, owned=True)
        assert adopted.grad is fresh
        assert adopted.grad.tobytes() == copied.grad.tobytes()
        assert not np.signbit(adopted.grad[0, 0])
        assert np.isnan(adopted.grad[0, 1]) and np.isnan(adopted.grad[1, 2])

    def test_owned_grad_in_another_layout_is_copied(self):
        """Adoption needs the dtype, shape and strides the buffer would
        have; anything else is copied into the data's layout."""
        nhwc = np.zeros((2, 3, 4, 5))
        t = Tensor(nhwc.transpose(0, 3, 1, 2), requires_grad=True)
        nchw = np.arange(120.0).reshape(2, 5, 3, 4)
        t._accumulate(nchw, owned=True)
        assert t.grad is not nchw
        assert t.grad.strides == t.data.strides
        np.testing.assert_array_equal(t.grad, nchw)
        u = Tensor(nhwc.transpose(0, 3, 1, 2), requires_grad=True)
        same = np.arange(120.0).reshape(2, 3, 4, 5).transpose(0, 3, 1, 2)
        u._accumulate(same, owned=True)
        assert u.grad is same
        for grad in (np.ones((2, 2), dtype=np.float32), np.float64(2.0)):
            v = Tensor(np.zeros_like(grad), requires_grad=True)
            v._accumulate(grad, owned=True)
            assert v.grad is not grad and v.grad.dtype == np.float64

    def test_add_never_hands_its_shared_grad_as_owned(self, monkeypatch):
        """``__add__`` gives one array to both parents; neither adopts
        it. Every array a closure does pass as owned shares memory with
        no value in the graph and no gradient handed over before it
        (later ones may be views a closure takes of its own adopted
        ``.grad``; the parents receiving those copy them)."""
        calls = []
        accumulate = Tensor._accumulate

        def spy(self, grad, owned=False):
            calls.append((grad, owned))
            accumulate(self, grad, owned)

        rng = make_rng(3)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        gamma = Tensor(rng.normal(size=4), requires_grad=True)
        beta = Tensor(rng.normal(size=4), requires_grad=True)
        w = Tensor(rng.normal(size=(4 * 3 * 3, 5)), requires_grad=True)
        h = F.conv2d(x, k, padding=1)
        h = F.batch_norm2d(h, gamma, beta, np.zeros(4), np.ones(4),
                           training=False)
        h = F.max_pool2d(h.relu() + h, 2)
        logits = h.reshape(2, -1) @ w
        loss = F.cross_entropy(logits, np.array([1, 4]))
        values = [n.data for n in (x, k, gamma, beta, w, h, logits, loss)]
        monkeypatch.setattr(Tensor, "_accumulate", spy)
        loss.backward()
        assert sum(flag for _, flag in calls) >= 6
        for i, (g, flag) in enumerate(calls):
            if flag:
                earlier = [o for o, _ in calls[:i]] + values
                assert not any(np.shares_memory(g, o) for o in earlier)
        # Only the closure that made an array may own it: every later
        # hand-over of the same array (``__add__``'s fan-out) copies.
        handed_again = [flag for i, (g, flag) in enumerate(calls)
                        if any(o is g for o, _ in calls[:i])]
        assert handed_again and not any(handed_again)
        assert not np.shares_memory(x.grad, k.grad)

    def test_second_backward_raises_once_per_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x * 3.0).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="once per graph"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_new_graph_over_a_released_node_raises_before_writing(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([5.0, 7.0], requires_grad=True)
        h = x * 2.0
        h.sum().backward()
        x.zero_grad()
        with pytest.raises(RuntimeError, match="once per graph"):
            (h * w).sum().backward()
        assert x.grad is None and w.grad is None

    def test_non_leaf_grads_released_leaf_grads_kept(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        h = x * 2.0
        loss = (h * h).sum()
        loss.backward()
        assert h.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad, [8.0, 16.0])
        np.testing.assert_array_equal(h.data, [2.0, 4.0])

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph_counts_both_paths(self):
        # y = x*x + x*x uses x through two paths.
        x = Tensor([3.0], requires_grad=True)
        y = x * x
        (y + y).sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_shared_subexpression(self):
        x = Tensor([2.0], requires_grad=True)
        s = x * 3
        ((s * s)).sum().backward()
        np.testing.assert_allclose(x.grad, [36.0])

    def test_no_grad_tracking_without_requires(self):
        a = Tensor([1.0])
        b = a * 2
        assert b._backward is None and not b.requires_grad

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(2000):
            y = y + 0.001
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])


class TestNoGrad:
    def test_outputs_are_plain_leaves(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        w = Tensor(np.ones((3, 4)), requires_grad=True)
        with no_grad():
            outs = [x @ w, (x * 2.0).relu(), x.sum(axis=0), x[0],
                    F.log_softmax(x), stack([x, x])]
        for out in outs:
            assert out._parents == ()
            assert out._backward is None
            assert not out.requires_grad

    def test_values_equal_grad_mode(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)

        def run():
            return F.max_pool2d(F.conv2d(x, k, padding=1).relu(), 2).data

        taped = run()
        with no_grad():
            plain = run()
        assert np.array_equal(plain, taped)

    def test_nesting_restores_outer_state(self):
        assert is_grad_enabled()
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_state_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()
        x = Tensor([1.0], requires_grad=True)
        (x * 3.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [3.0])

    def test_flag_is_thread_local(self):
        """A worker inside no_grad leaves the main thread's tape on."""
        entered, release = threading.Event(), threading.Event()
        seen = {}

        def worker():
            with no_grad():
                seen["worker"] = is_grad_enabled()
                entered.set()
                release.wait(5)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert entered.wait(5)
            x = Tensor([2.0], requires_grad=True)
            y = x * x
            assert is_grad_enabled() and y.requires_grad
            y.sum().backward()
            np.testing.assert_array_equal(x.grad, [4.0])
        finally:
            release.set()
            thread.join()
        assert seen["worker"] is False

    def test_new_thread_starts_with_tape_on(self):
        seen = {}
        with no_grad():
            thread = threading.Thread(
                target=lambda: seen.setdefault("on", is_grad_enabled()))
            thread.start()
            thread.join()
        assert seen["on"] is True


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 5), cols=st.integers(1, 5))
def test_unbroadcast_property(rows, cols):
    """Broadcast-add gradients always reduce back to operand shapes."""
    a = Tensor(np.ones((rows, cols)), requires_grad=True)
    b = Tensor(np.ones((1, cols)), requires_grad=True)
    (a + b).sum().backward()
    assert a.grad.shape == (rows, cols)
    assert b.grad.shape == (1, cols)
    np.testing.assert_allclose(b.grad, rows * np.ones((1, cols)))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 6))
def test_matmul_identity_property(n):
    """x @ I == x and gradient of sum is all-ones."""
    x = Tensor(make_rng(n).normal(size=(n, n)),
               requires_grad=True)
    out = x @ Tensor(np.eye(n))
    np.testing.assert_allclose(out.data, x.data)
    out.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones((n, n)))
