"""Tiny reverse-mode automatic differentiation over numpy arrays.

Implements exactly the ops DIAL's models need (matmul, broadcasted
arithmetic, tanh/relu/exp/log/sqrt, reductions, concat) with a
topological-order backward pass. Gradients are accumulated into
``Tensor.grad`` for leaves created with ``param``.

Broadcasting is handled by summing the upstream gradient over the
broadcast dimensions (``_unbroadcast``), so row/column-vector biases and
pairwise-distance expansions "just work".

The binary ops that carry a model's inputs (``+``, ``*``, ``@``) leave
the gradient of a parent that needs none as ``None`` rather than
computing it: ``er @ A`` with a ``const`` ``er`` never forms ``g @ A.T``.
"""
from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading dims that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dims that were size-1 in the original.
    for ax, s in enumerate(shape):
        if s == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the autograd graph wrapping a float64 numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")
    __array_priority__ = 100  # make np_array * Tensor dispatch to us

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    # -- graph plumbing ----------------------------------------------------
    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def _make(self, data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        o = self._lift(other)

        def bwd(g):
            return (
                _unbroadcast(g, self.shape) if self.requires_grad else None,
                _unbroadcast(g, o.shape) if o.requires_grad else None,
            )

        return self._make(self.data + o.data, (self, o), bwd)

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        o = self._lift(other)

        def bwd(g):
            return (
                _unbroadcast(g * o.data, self.shape) if self.requires_grad else None,
                _unbroadcast(g * self.data, o.shape) if o.requires_grad else None,
            )

        return self._make(self.data * o.data, (self, o), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)

        def bwd(g):
            return (
                _unbroadcast(g / o.data, self.shape),
                _unbroadcast(-g * self.data / (o.data ** 2), o.shape),
            )

        return self._make(self.data / o.data, (self, o), bwd)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __matmul__(self, other):
        o = self._lift(other)

        def bwd(g):
            return (
                g @ o.data.T if self.requires_grad else None,
                self.data.T @ g if o.requires_grad else None,
            )

        return self._make(self.data @ o.data, (self, o), bwd)

    def pow(self, p: float):
        """``x ** p``. ndarray's ``**`` squares for ``p = 2`` and copies for
        ``p = 1``, so ``pow(2)`` is exactly ``x * x`` and its gradient
        exactly ``g * 2 * x``; ``np.power(x, 2.0)`` is far slower and can
        differ from ``x * x`` in the last bit. Other exponents go through
        ``np.power``."""
        def bwd(g):
            return (g * p * self.data ** (p - 1),)

        return self._make(self.data ** p, (self,), bwd)

    # -- nonlinearities ----------------------------------------------------
    def tanh(self):
        t = np.tanh(self.data)
        return self._make(t, (self,), lambda g: (g * (1 - t * t),))

    def relu(self):
        m = self.data > 0
        return self._make(self.data * m, (self,), lambda g: (g * m,))

    def abs(self):
        s = np.sign(self.data)
        return self._make(np.abs(self.data), (self,), lambda g: (g * s,))

    def exp(self):
        e = np.exp(self.data)
        return self._make(e, (self,), lambda g: (g * e,))

    def log(self):
        return self._make(np.log(self.data), (self,), lambda g: (g / self.data,))

    def sqrt(self):
        r = np.sqrt(self.data)
        return self._make(r, (self,), lambda g: (g * 0.5 / r,))

    # -- reductions / shaping ---------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        def bwd(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), bwd)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    @property
    def T(self):
        return self._make(self.data.T, (self,), lambda g: (g.T,))

    def reshape(self, *shape):
        def bwd(g):
            return (g.reshape(self.shape),)

        return self._make(self.data.reshape(*shape), (self,), bwd)

    def logsumexp(self, axis=-1, keepdims: bool = False):
        """Numerically-stable log-sum-exp (max is treated as constant)."""
        m = np.max(self.data, axis=axis, keepdims=True)
        shifted = self - Tensor(m)
        out = shifted.exp().sum(axis=axis, keepdims=True).log() + Tensor(m)
        return out if keepdims else out.reshape(*np.squeeze(out.data, axis=axis).shape)

    @staticmethod
    def concat(tensors: list, axis: int = -1) -> "Tensor":
        tensors = [Tensor._lift(t) for t in tensors]
        datas = [t.data for t in tensors]
        sizes = [d.shape[axis] for d in datas]
        offsets = np.cumsum([0] + sizes)

        def bwd(g):
            slicer = [slice(None)] * g.ndim
            grads = []
            for i in range(len(datas)):
                slicer[axis] = slice(offsets[i], offsets[i + 1])
                grads.append(g[tuple(slicer)])
            return tuple(grads)

        out = Tensor(np.concatenate(datas, axis=axis))
        if any(t.requires_grad for t in tensors):
            out.requires_grad = True
            out._parents = tuple(tensors)
            out._backward = bwd
        return out

    # -- backward ----------------------------------------------------------
    def backward(self):
        """Accumulate d(self)/d(leaf) into every ``param`` leaf's ``grad``.

        Nothing of the pass outlives it: ``visit`` refers to itself, so it
        is deleted once the sort is done, and each step's graph is freed
        by reference counting instead of waiting for the cyclic GC.
        """
        assert self.data.size == 1, "backward() requires a scalar loss"
        topo, seen = [], set()

        def visit(t: Tensor):
            if id(t) in seen or not t.requires_grad:
                return
            seen.add(id(t))
            for p in t._parents:
                visit(p)
            topo.append(t)

        visit(self)
        del visit  # break the closure's self-reference
        grads = {id(self): np.ones_like(self.data)}
        for t in reversed(topo):
            g = grads.pop(id(t), None)
            if g is None:
                continue
            if t._backward is None:  # leaf
                t.grad = g if t.grad is None else t.grad + g
                continue
            for p, pg in zip(t._parents, t._backward(g)):
                if pg is None or not p.requires_grad:
                    continue
                if p._backward is None:  # leaf param: accumulate directly
                    p.grad = pg if p.grad is None else p.grad + pg
                elif id(p) in grads:
                    grads[id(p)] = grads[id(p)] + pg
                else:
                    grads[id(p)] = pg

    def item(self) -> float:
        return float(self.data)


def param(data) -> Tensor:
    """A trainable leaf tensor (gradient accumulated on backward)."""
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def const(data) -> Tensor:
    """A non-trainable tensor (inputs, labels, frozen embeddings)."""
    return Tensor(data)
