"""Tests for the autograd engine (repro.nn.tensor)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.tensor import Tensor, concatenate


def finite_diff(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        f1 = fn(x)
        x[i] = old - eps
        f2 = fn(x)
        x[i] = old
        grad[i] = (f1 - f2) / (2 * eps)
        it.iternext()
    return grad


small_arrays = hnp.arrays(
    dtype=np.float64, shape=hnp.array_shapes(min_dims=1, max_dims=2,
                                             min_side=1, max_side=4),
    elements=st.floats(-3.0, 3.0, allow_nan=False))


class TestBasics:
    def test_construction_converts_dtype(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float64
        assert t.shape == (3,)

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_item_and_len(self):
        assert Tensor([[2.5]]).item() == 2.5
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_detach_cuts_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad
        c = (b * 3).sum()
        assert not c.requires_grad

    def test_backward_requires_scalar_without_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (a * 2).backward()

    def test_numpy_returns_underlying(self):
        arr = np.array([1.0, 2.0])
        assert Tensor(arr).numpy() is arr


class TestArithmeticGradients:
    def check(self, op, *shapes, tol=1e-5):
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=s) + 2.5 for s in shapes]  # keep positive
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = op(*tensors).sum()
        out.backward()
        for i, (t, a) in enumerate(zip(tensors, arrays)):
            def f(x, i=i):
                vals = [Tensor(arr) for arr in arrays]
                vals[i] = Tensor(x)
                return op(*vals).sum().item()
            expected = finite_diff(f, a.copy())
            assert np.allclose(t.grad, expected, atol=tol), f"operand {i}"

    def test_add(self):
        self.check(lambda a, b: a + b, (3, 2), (3, 2))

    def test_add_broadcast(self):
        self.check(lambda a, b: a + b, (3, 2), (2,))

    def test_sub(self):
        self.check(lambda a, b: a - b, (4,), (4,))

    def test_rsub_scalar(self):
        self.check(lambda a: 5.0 - a, (3,))

    def test_mul(self):
        self.check(lambda a, b: a * b, (2, 3), (2, 3))

    def test_mul_broadcast_scalar_tensor(self):
        self.check(lambda a, b: a * b, (2, 3), (1,))

    def test_div(self):
        self.check(lambda a, b: a / b, (3,), (3,))

    def test_rdiv_scalar(self):
        self.check(lambda a: 2.0 / a, (3,))

    def test_pow(self):
        self.check(lambda a: a ** 3, (4,))

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_neg(self):
        self.check(lambda a: -a, (3,))

    def test_matmul(self):
        self.check(lambda a, b: a @ b, (3, 4), (4, 2))

    def test_chained_expression(self):
        self.check(lambda a, b: (a * b + a) / (b + 10.0), (3,), (3,))


class TestNonlinearityGradients:
    def check(self, op, shape=(3, 2), shift=0.0, tol=1e-5):
        rng = np.random.default_rng(1)
        a = rng.normal(size=shape) + shift
        t = Tensor(a.copy(), requires_grad=True)
        op(t).sum().backward()
        expected = finite_diff(lambda x: op(Tensor(x)).sum().item(), a.copy())
        assert np.allclose(t.grad, expected, atol=tol)

    def test_relu(self):
        # Shift away from 0 to avoid the kink in finite differences.
        self.check(lambda t: t.relu(), shift=0.5)

    def test_exp(self):
        self.check(lambda t: t.exp())

    def test_log(self):
        self.check(lambda t: t.log(), shift=3.0)

    def test_tanh(self):
        self.check(lambda t: t.tanh())

    def test_sigmoid(self):
        self.check(lambda t: t.sigmoid())

    def test_sqrt(self):
        self.check(lambda t: t.sqrt(), shift=4.0)

    def test_relu_zeroes_negatives(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu()
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])


class TestReductions:
    def test_sum_axis_grad(self):
        a = np.arange(6.0).reshape(2, 3)
        t = Tensor(a, requires_grad=True)
        t.sum(axis=0).sum().backward()
        assert np.array_equal(t.grad, np.ones((2, 3)))

    def test_sum_keepdims_shape(self):
        t = Tensor(np.ones((2, 3)))
        assert t.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean_value_and_grad(self):
        t = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        m = t.mean()
        m.backward()
        assert m.item() == 3.0
        assert np.allclose(t.grad, [0.5, 0.5])

    def test_mean_tuple_axis(self):
        t = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        out = t.mean(axis=(1, 2))
        assert out.shape == (2,)
        out.sum().backward()
        assert np.allclose(t.grad, 1.0 / 12)

    def test_max_grad_splits_ties(self):
        t = Tensor(np.array([1.0, 3.0, 3.0]), requires_grad=True)
        t.max().backward()
        assert np.allclose(t.grad, [0.0, 0.5, 0.5])

    def test_max_axis(self):
        a = np.array([[1.0, 5.0], [7.0, 2.0]])
        t = Tensor(a, requires_grad=True)
        out = t.max(axis=1)
        assert np.array_equal(out.data, [5.0, 7.0])
        out.sum().backward()
        assert np.array_equal(t.grad, [[0, 1], [1, 0]])

    def test_var_matches_numpy(self):
        a = np.random.default_rng(3).normal(size=(4, 5))
        assert np.allclose(Tensor(a).var(axis=0).data, a.var(axis=0))


class TestShapeOps:
    def test_reshape_roundtrip_grad(self):
        t = Tensor(np.arange(6.0), requires_grad=True)
        t.reshape(2, 3).sum().backward()
        assert t.grad.shape == (6,)

    def test_reshape_accepts_tuple(self):
        assert Tensor(np.zeros(6)).reshape((2, 3)).shape == (2, 3)

    def test_transpose_default_reverses(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.transpose().shape == (4, 3, 2)
        assert t.T.shape == (4, 3, 2)

    def test_transpose_grad(self):
        a = np.random.default_rng(0).normal(size=(2, 3))
        t = Tensor(a, requires_grad=True)
        (t.T * Tensor(np.ones((3, 2)))).sum().backward()
        assert t.grad.shape == (2, 3)

    def test_getitem_grad_accumulates_repeats(self):
        t = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        idx = np.array([0, 0, 2])
        t[idx].sum().backward()
        assert np.array_equal(t.grad, [2.0, 0.0, 1.0])

    def test_getitem_slice(self):
        t = Tensor(np.arange(5.0), requires_grad=True)
        t[1:3].sum().backward()
        assert np.array_equal(t.grad, [0, 1, 1, 0, 0])

    def test_pad2d_shape_and_grad(self):
        t = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        p = t.pad2d(1)
        assert p.shape == (1, 1, 4, 4)
        p.sum().backward()
        assert np.array_equal(t.grad, np.ones((1, 1, 2, 2)))

    def test_pad2d_zero_is_identity(self):
        t = Tensor(np.ones((1, 1, 2, 2)))
        assert t.pad2d(0) is t


class TestGraphStructure:
    def test_diamond_graph_single_closure_run(self):
        """Residual-style reuse must not double-count or blow up."""
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = a * 3
        c = b + b  # diamond: b consumed twice
        c.sum().backward()
        assert np.allclose(a.grad, [6.0])

    def test_deep_chain_does_not_recurse(self):
        t = Tensor(np.ones(4), requires_grad=True)
        out = t
        for _ in range(2000):
            out = out + 1.0
        out.sum().backward()
        assert np.allclose(t.grad, np.ones(4))

    def test_grad_accumulates_across_backwards(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        (a * 2).sum().backward()
        (a * 2).sum().backward()
        assert np.allclose(a.grad, [4.0])

    def test_zero_grad_resets(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_no_grad_for_untracked(self):
        a = Tensor(np.array([1.0]))
        b = Tensor(np.array([1.0]), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad is None
        assert b.grad is not None


class TestConcatStack:
    def test_concatenate_values_and_grads(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.full((3, 2), 2.0), requires_grad=True)
        out = concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        (out * 2).sum().backward()
        assert np.allclose(a.grad, 2.0)
        assert np.allclose(b.grad, 2.0)

    def test_concatenate_axis1(self):
        a = Tensor(np.ones((2, 1)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        out.sum().backward()
        assert a.grad.shape == (2, 1)
        assert b.grad.shape == (2, 3)


class TestPropertyBased:
    @given(small_arrays)
    @settings(max_examples=30, deadline=None)
    def test_sum_grad_is_ones(self, a):
        t = Tensor(a.copy(), requires_grad=True)
        t.sum().backward()
        assert np.allclose(t.grad, np.ones_like(a))

    @given(small_arrays)
    @settings(max_examples=30, deadline=None)
    def test_mul_by_constant_grad(self, a):
        t = Tensor(a.copy(), requires_grad=True)
        (t * 3.5).sum().backward()
        assert np.allclose(t.grad, 3.5)

    @given(small_arrays)
    @settings(max_examples=30, deadline=None)
    def test_tanh_bounded(self, a):
        out = Tensor(a).tanh().data
        assert (out >= -1).all() and (out <= 1).all()

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_matmul_shape(self, n, m):
        a = Tensor(np.zeros((n, 3)))
        b = Tensor(np.zeros((3, m)))
        assert (a @ b).shape == (n, m)


class TestThreadSafety:
    """Backward passes on different threads must not share state."""

    @staticmethod
    def _gradients(model, x, y, rounds):
        from repro.nn.losses import cross_entropy
        out = []
        for _ in range(rounds):
            model.zero_grad()
            cross_entropy(model(Tensor(x)), y).backward()
            out.append([p.grad.copy() for p in model.parameters()])
        return out

    def test_concurrent_backward_matches_serial(self):
        import sys
        import threading

        from repro.nn.models import build_model

        rounds = 20
        jobs = []
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            jobs.append((build_model("tinyresnet", 12, 4, rng=rng),
                         rng.normal(size=(32, 12)),
                         rng.integers(0, 4, size=32)))
        serial = [self._gradients(m, x, y, rounds) for m, x, y in jobs]

        results = [None, None]
        errors = []
        barrier = threading.Barrier(len(jobs))

        def work(i):
            try:
                barrier.wait()
                results[i] = self._gradients(*jobs[i], rounds)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two passes often
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(old_interval)
        assert not errors, errors
        for got, want in zip(results, serial):
            for got_round, want_round in zip(got, want):
                for g, w in zip(got_round, want_round):
                    assert g.tobytes() == w.tobytes()
