"""Gradient-correctness tests for the autograd substrate.

Every op is checked against central finite differences; composite
graphs (the actual model shapes) are checked too. A wrong gradient here
silently corrupts every experiment, so these are exhaustive.
"""
import gc
import operator
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.autograd import Tensor, const, param
from repro.linalg.losses import contrastive_loss


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        x[i] += eps
        f_hi = f()
        x[i] -= 2 * eps
        f_lo = f()
        x[i] += eps
        g[i] = (f_hi - f_lo) / (2 * eps)
        it.iternext()
    return g


def check(build, *shapes, seed=0, tol=1e-5):
    """build(*params) -> scalar Tensor; checks every param's gradient."""
    rng = np.random.default_rng(seed)
    params = [param(rng.standard_normal(s) * 0.7 + 0.1) for s in shapes]
    out = build(*params)
    out.backward()
    for p in params:
        num = numeric_grad(lambda: build(*params).item(), p.data)
        assert p.grad is not None, "no gradient accumulated"
        np.testing.assert_allclose(p.grad, num, rtol=tol, atol=tol)


UNARY_OPS = [
    ("tanh", lambda t: t.tanh().sum()),
    ("relu", lambda t: (t + 0.05).relu().sum()),  # stay off the kink
    ("abs", lambda t: (t + 0.05).abs().sum()),
    ("exp", lambda t: t.exp().sum()),
    ("log", lambda t: (t.abs() + 1.0).log().sum()),
    ("sqrt", lambda t: (t.abs() + 0.5).sqrt().sum()),
    ("pow2", lambda t: t.pow(2).sum()),
    ("pow3", lambda t: t.pow(3).sum()),
    ("neg", lambda t: (-t).sum()),
    ("mean", lambda t: t.mean()),
    ("sum_ax0", lambda t: t.sum(axis=0).pow(2).sum()),
    ("sum_ax1_keep", lambda t: t.sum(axis=1, keepdims=True).pow(2).sum()),
    ("mean_ax1", lambda t: t.mean(axis=1).pow(2).sum()),
    ("transpose", lambda t: (t.T @ t).sum()),
    ("reshape", lambda t: t.reshape(-1).pow(2).sum()),
    ("logsumexp", lambda t: t.logsumexp(axis=1).sum()),
    ("getitem", lambda t: t[1:3].pow(2).sum()),
]


@pytest.mark.parametrize("name,fn", UNARY_OPS, ids=[n for n, _ in UNARY_OPS])
def test_unary_op_gradient(name, fn):
    check(fn, (4, 5))


BINARY_OPS = [
    ("add", lambda a, b: (a + b).pow(2).sum()),
    ("sub", lambda a, b: (a - b).pow(2).sum()),
    ("mul", lambda a, b: (a * b).sum()),
    ("div", lambda a, b: (a / (b.abs() + 1.0)).sum()),
    ("matmul", lambda a, b: (a @ b.T).sum()),
]


@pytest.mark.parametrize("name,fn", BINARY_OPS, ids=[n for n, _ in BINARY_OPS])
def test_binary_op_gradient(name, fn):
    check(fn, (4, 5), (4, 5))


BROADCAST_SHAPES = [
    ((4, 5), (1, 5)),
    ((4, 5), (4, 1)),
    ((4, 5), (5,)),
    ((1, 5), (4, 5)),
    ((3, 1), (1, 4)),
]


@pytest.mark.parametrize("sa,sb", BROADCAST_SHAPES)
def test_broadcast_add_gradient(sa, sb):
    check(lambda a, b: (a + b).pow(2).sum(), sa, sb)


@pytest.mark.parametrize("sa,sb", BROADCAST_SHAPES)
def test_broadcast_mul_gradient(sa, sb):
    check(lambda a, b: (a * b + 1.0).log().sum() if False else (a * b).pow(2).sum(), sa, sb)


def test_concat_gradient():
    check(lambda a, b: Tensor.concat([a, b], axis=1).pow(2).sum(), (3, 2), (3, 4))


def test_concat_axis0_gradient():
    check(lambda a, b: Tensor.concat([a, b], axis=0).tanh().sum(), (2, 3), (4, 3))


def test_mlp_composite_gradient():
    """The matcher head's exact shape: linear→tanh→linear→sigmoid-BCE."""

    def f(W1, b1, W2, b2):
        x = const(np.linspace(-1, 1, 12).reshape(4, 3))
        z = (x @ W1 + b1).tanh() @ W2 + b2
        y = const(np.array([1.0, 0.0, 1.0, 0.0]))
        z = z.reshape(-1)
        return (z.relu() - z * y + ((z.abs() * -1.0).exp() + 1.0).log()).mean()

    check(f, (3, 5), (5,), (5, 1), (1,))


def test_shared_node_gradient_accumulates():
    """A node used twice must accumulate both gradient paths."""

    def f(a):
        h = a.tanh()
        return (h * h).sum() + h.sum()

    check(f, (3, 3))


def test_leaf_reuse_accumulates():
    def f(a):
        return (a @ a.T).sum()

    check(f, (3, 3))


def test_backward_requires_scalar():
    a = param(np.ones((2, 2)))
    with pytest.raises(AssertionError):
        (a + 1).backward()


def test_const_gets_no_grad():
    c = const(np.ones(3))
    p = param(np.ones(3))
    (c * p).sum().backward()
    assert c.grad is None
    np.testing.assert_allclose(p.grad, np.ones(3))


def test_grad_accumulates_across_backwards():
    p = param(np.ones(3))
    p.pow(2).sum().backward()
    g1 = p.grad.copy()
    p.pow(2).sum().backward()
    np.testing.assert_allclose(p.grad, 2 * g1)


def test_pow2_is_exactly_x_times_x():
    """pow(2) is bit for bit ``x * x``, and its gradient ``g * 2 * x``,
    over negatives, tiny and large magnitudes."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 192)) * np.logspace(-150, 150, 192)
    g = rng.standard_normal(x.shape)
    t = param(x)
    y = t.pow(2)
    (y * const(g)).sum().backward()
    assert np.array_equal(y.data, x * x)
    assert np.array_equal(t.grad, g * 2 * x)


def test_backward_frees_the_graph_without_the_gc():
    """Once the loss is dropped after backward(), reference counting
    frees the whole graph: no cycle is left for the collector."""
    rng = np.random.default_rng(0)
    leaves = [param(rng.standard_normal((8, 6))) for _ in range(4)]
    gc.disable()
    try:
        gc.collect()
        loss = contrastive_loss(*leaves, tau=0.5)
        loss.backward()
        out = weakref.ref(loss.data)
        del loss
        assert out() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert all(p.grad is not None for p in leaves)


def test_logsumexp_matches_numpy():
    x = np.random.default_rng(0).standard_normal((4, 6)) * 30  # large values
    got = const(x).logsumexp(axis=1).data
    m = x.max(axis=1, keepdims=True)
    want = (np.log(np.exp(x - m).sum(axis=1, keepdims=True)) + m).ravel()
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_logsumexp_no_overflow():
    x = const(np.array([[1000.0, 1000.0, 999.0]]))
    out = x.logsumexp(axis=1).data
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, 1000.0 + np.log(2 + np.e ** -1), rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(2, 5),
    st.integers(0, 10_000),
)
def test_random_composite_graph_gradient(n, m, seed):
    """Hypothesis: random two-layer graphs have correct gradients."""

    def f(A, B):
        x = const(np.linspace(-0.8, 0.9, n * m).reshape(n, m))
        h = (x @ A).tanh()
        return ((h @ B).tanh().pow(2) + 0.3).log().mean()

    check(f, (m, 3), (3, 2), seed=seed)



def _mixed_graph(x, c, w, b, v):
    """A matcher-like graph: constant inputs ``x``, ``c`` meet parameters
    through ``@``, ``+`` and ``*`` on both sides."""
    h = (x @ w + b).tanh()
    return ((h * c + c * h) @ v + x @ (w @ v) + b @ v).pow(2).mean()


def test_constant_inputs_leave_the_param_gradients_bit_identical():
    """``@``, ``*`` and ``+`` skip the gradient of a ``const`` parent; the
    parameters' gradients equal, bit for bit, those of the same graph
    with every input a ``param``, where every term is computed."""
    rng = np.random.default_rng(0)
    x, c = rng.standard_normal((6, 4)), rng.standard_normal((6, 5))
    w, b, v = rng.standard_normal((4, 5)), rng.standard_normal((1, 5)), rng.standard_normal((5, 1))
    mixed = [const(x), const(c), param(w), param(b), param(v)]
    full = [param(a) for a in (x, c, w, b, v)]
    _mixed_graph(*mixed).backward()
    _mixed_graph(*full).backward()
    assert mixed[0].grad is None and mixed[1].grad is None
    for got, want in zip(mixed[2:], full[2:]):
        assert np.array_equal(got.grad, want.grad)


@pytest.mark.parametrize("op", [operator.matmul, operator.mul, operator.add])
def test_binary_ops_skip_a_const_parents_gradient(op):
    a, p = const(np.ones((3, 3))), param(np.ones((3, 3)))
    for left, right in ((a, p), (p, a)):
        out = op(left, right)
        grads = out._backward(np.ones(out.shape))
        assert [g is None for g in grads] == [left is a, right is a]
