"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery for an MLP policy with categorical heads and the
clipped-surrogate objective: matmul, broadcasting add, tanh, exp,
log-softmax, gather, clip, elementwise min, and reductions. Arrays are
float64 throughout so gradients can be checked against central finite
differences tightly.

Training does not run this engine: ``ppo.ppo_loss`` computes the same
gradient in closed form, bit for bit, and the tests compare the two.
"""

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A node in the computation graph wrapping a float64 ndarray."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def _child(self, data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self) -> None:
        """Backpropagate from a scalar output."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen = set()

        def visit(node: Tensor):
            if id(node) in seen or not node.requires_grad:
                return
            seen.add(id(node))
            for p in node._parents:
                visit(p)
            topo.append(node)

        visit(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # ------------------------------------------------------- basic arithmetic

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))

        return self._child(self.data + other.data, (self, other), backward)

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g, other.data.shape))

        return self._child(self.data - other.data, (self, other), backward)

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return self._child(self.data * other.data, (self, other), backward)

    def __neg__(self):
        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)

        return self._child(-self.data, (self,), backward)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return Tensor(other) - self

    # --------------------------------------------------------- matrix algebra

    def matmul(self, other: "Tensor") -> "Tensor":
        def backward(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ g)

        return self._child(self.data @ other.data, (self, other), backward)

    def __matmul__(self, other):
        return self.matmul(other)

    # ------------------------------------------------------------- nonlinear

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * (1.0 - out_data ** 2))

        return self._child(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * out_data)

        return self._child(out_data, (self,), backward)

    def square(self) -> "Tensor":
        def backward(g):
            if self.requires_grad:
                self._accumulate(g * 2.0 * self.data)

        return self._child(self.data ** 2, (self,), backward)

    def log_softmax(self) -> "Tensor":
        """Row-wise log softmax over the last axis, numerically stabilized."""
        shifted = self.data - self.data.max(axis=-1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        out_data = shifted - log_z
        probs = np.exp(out_data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g - probs * g.sum(axis=-1, keepdims=True))

        return self._child(out_data, (self,), backward)

    # ------------------------------------------------------ selection / clip

    def take_along_rows(self, indices: np.ndarray) -> "Tensor":
        """Pick one column per row: out[i] = self[i, indices[i]]."""
        idx = np.asarray(indices, dtype=int)
        rows = np.arange(self.data.shape[0])

        def backward(g):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, (rows, idx), g)
                self._accumulate(full)

        return self._child(self.data[rows, idx], (self,), backward)

    def clamp(self, lo: float, hi: float) -> "Tensor":
        inside = (self.data >= lo) & (self.data <= hi)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * inside)

        return self._child(np.clip(self.data, lo, hi), (self,), backward)

    def minimum(self, other: "Tensor") -> "Tensor":
        take_self = self.data <= other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * take_self, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * ~take_self, other.data.shape))

        return self._child(np.minimum(self.data, other.data), (self, other), backward)

    def maximum(self, other: "Tensor") -> "Tensor":
        take_self = self.data >= other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * take_self, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * ~take_self, other.data.shape))

        return self._child(np.maximum(self.data, other.data), (self, other), backward)

    # ------------------------------------------------------------ reductions

    def sum(self, axis=None) -> "Tensor":
        def backward(g):
            if self.requires_grad:
                if axis is None:
                    self._accumulate(np.full_like(self.data, float(g)))
                else:
                    self._accumulate(np.broadcast_to(
                        np.expand_dims(g, axis), self.data.shape).copy())

        return self._child(self.data.sum(axis=axis), (self,), backward)

    def mean(self) -> "Tensor":
        n = self.data.size

        def backward(g):
            if self.requires_grad:
                self._accumulate(np.full_like(self.data, float(g) / n))

        return self._child(self.data.mean(), (self,), backward)
