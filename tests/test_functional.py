"""Tests for repro.nn.functional (softmax family, conv2d, pooling)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import functional as F
from repro.nn.tensor import Tensor

logits_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 5), st.integers(2, 6)),
    elements=st.floats(-30.0, 30.0, allow_nan=False))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 7)))
        out = F.softmax(x).data
        assert np.allclose(out.sum(axis=1), 1.0)
        assert (out > 0).all()

    def test_invariant_to_shift(self):
        x = np.random.default_rng(1).normal(size=(3, 4))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        assert np.allclose(a, b)

    def test_stable_for_large_logits(self):
        out = F.softmax(Tensor(np.array([[1000.0, 0.0]]))).data
        assert np.isfinite(out).all()
        assert out[0, 0] > 0.99

    def test_log_softmax_consistency(self):
        x = np.random.default_rng(2).normal(size=(3, 5))
        assert np.allclose(F.log_softmax(Tensor(x)).data,
                           np.log(F.softmax(Tensor(x)).data))

    def test_softmax_gradient(self):
        x = np.random.default_rng(3).normal(size=(2, 3))
        t = Tensor(x.copy(), requires_grad=True)
        # Pick out one probability and differentiate.
        F.softmax(t)[0, 1].backward()
        eps = 1e-6
        num = np.zeros_like(x)
        for i in np.ndindex(*x.shape):
            xp = x.copy(); xp[i] += eps
            xm = x.copy(); xm[i] -= eps
            num[i] = (F.softmax(Tensor(xp)).data[0, 1]
                      - F.softmax(Tensor(xm)).data[0, 1]) / (2 * eps)
        assert np.allclose(t.grad, num, atol=1e-6)

    @given(logits_arrays)
    @settings(max_examples=30, deadline=None)
    def test_softmax_is_distribution(self, x):
        out = F.softmax(Tensor(x)).data
        assert np.allclose(out.sum(axis=1), 1.0)
        assert (out >= 0).all()

    @given(logits_arrays)
    @settings(max_examples=30, deadline=None)
    def test_log_softmax_nonpositive(self, x):
        assert (F.log_softmax(Tensor(x)).data <= 1e-12).all()


class TestOneHot:
    def test_basic(self):
        out = F.one_hot(np.array([0, 2, 1]), 3)
        assert np.array_equal(out, np.eye(3)[[0, 2, 1]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            F.one_hot(np.array([3]), 3)
        with pytest.raises(ValueError, match="out of range"):
            F.one_hot(np.array([-1]), 3)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            F.one_hot(np.zeros((2, 2), dtype=int), 3)

    def test_empty(self):
        assert F.one_hot(np.array([], dtype=int), 4).shape == (0, 4)


def naive_conv2d(x, w, b, stride=1, padding=0):
    """Reference direct convolution for validation."""
    if padding:
        x = np.pad(x, [(0, 0), (0, 0), (padding, padding),
                       (padding, padding)])
    n, c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    oh = (h - kh) // stride + 1
    ow = (wd - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow))
    for ni in range(n):
        for co in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    patch = x[ni, :, i * stride:i * stride + kh,
                              j * stride:j * stride + kw]
                    out[ni, co, i, j] = (patch * w[co]).sum()
            if b is not None:
                out[ni, co] += b[co]
    return out


class TestConv2d:
    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.allclose(out, naive_conv2d(x, w, b), atol=1e-10)

    def test_matches_naive_stride_padding(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 7, 7))
        w = rng.normal(size=(3, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data
        assert np.allclose(out, naive_conv2d(x, w, None, 2, 1), atol=1e-10)

    def test_gradients_match_finite_diff(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(2, 2, 3, 3))
        b = rng.normal(size=2)
        tx = Tensor(x.copy(), requires_grad=True)
        tw = Tensor(w.copy(), requires_grad=True)
        tb = Tensor(b.copy(), requires_grad=True)
        F.conv2d(tx, tw, tb, padding=1).sum().backward()
        eps = 1e-6
        for arr, tensor in ((x, tx), (w, tw), (b, tb)):
            num = np.zeros_like(arr)
            for i in np.ndindex(*arr.shape):
                ap = arr.copy(); ap[i] += eps
                am = arr.copy(); am[i] -= eps
                args = {id(x): ap if arr is x else x,
                        id(w): ap if arr is w else w,
                        id(b): ap if arr is b else b}
                fp = F.conv2d(Tensor(args[id(x)]), Tensor(args[id(w)]),
                              Tensor(args[id(b)]), padding=1).sum().item()
                args2 = {id(x): am if arr is x else x,
                         id(w): am if arr is w else w,
                         id(b): am if arr is b else b}
                fm = F.conv2d(Tensor(args2[id(x)]), Tensor(args2[id(w)]),
                              Tensor(args2[id(b)]), padding=1).sum().item()
                num[i] = (fp - fm) / (2 * eps)
            assert np.allclose(tensor.grad, num, atol=1e-5)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv2d(Tensor(np.zeros((1, 3, 4, 4))),
                     Tensor(np.zeros((2, 4, 3, 3))))

    def test_non_nchw_raises(self):
        with pytest.raises(ValueError, match="NCHW"):
            F.conv2d(Tensor(np.zeros((3, 4, 4))),
                     Tensor(np.zeros((2, 3, 3, 3))))


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2).data
        assert np.array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_grad_routes_to_max(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        t = Tensor(x, requires_grad=True)
        F.max_pool2d(t, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        assert np.array_equal(t.grad[0, 0], expected)

    def test_max_pool_rejects_nondivisible(self):
        with pytest.raises(NotImplementedError):
            F.max_pool2d(Tensor(np.zeros((1, 1, 5, 5))), 2)

    def test_global_avg_pool(self):
        x = np.arange(8.0).reshape(1, 2, 2, 2)
        out = F.global_avg_pool2d(Tensor(x)).data
        assert np.allclose(out, [[1.5, 5.5]])


class TestLinearFn:
    def test_matches_manual(self):
        rng = np.random.default_rng(0)
        x, w, b = (rng.normal(size=(4, 3)), rng.normal(size=(2, 3)),
                   rng.normal(size=2))
        out = F.linear(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.allclose(out, x @ w.T + b)

    def test_no_bias(self):
        x, w = np.ones((2, 3)), np.ones((4, 3))
        assert np.allclose(F.linear(Tensor(x), Tensor(w)).data, 3.0)
