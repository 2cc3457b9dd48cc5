"""The ``Tensor`` class: a numpy array with reverse-mode autodiff.

The design follows the classic define-by-run pattern: every operation on
``Tensor`` objects records its inputs and a closure that propagates the
output gradient to the input gradients.  Calling :meth:`Tensor.backward`
on a scalar output walks the recorded graph in reverse topological order.

Two engine-level properties keep the hot loop lean:

* **Leaf-only gradient accumulation.**  ``.grad`` is materialised only
  on *leaves* (tensors with no recorded backward closure -- parameters
  and user inputs).  Intermediates pass their gradients through a
  scratch dict without ever copying into ``.grad``; call
  :meth:`Tensor.retain_grad` on an intermediate when a diagnostic needs
  its gradient.
* **Gradient buffer ownership.**  Backward closures annotate each
  emitted gradient with an ownership flag: freshly allocated arrays are
  handed over without the defensive copy the engine otherwise makes on
  first write, while views (reshapes, concat slices, pass-through
  gradients) keep the copy-on-write behaviour.

Broadcasting is fully supported; gradients flowing back through a
broadcast are summed over the broadcast axes (see :func:`unbroadcast`).
Embedding-style gather ops may emit
:class:`~repro.autograd.sparse.SparseRowGrad` objects instead of dense
arrays; the engine merges sparse and dense contributions transparently
and a leaf's ``.grad`` is then sparse (optimizers dispatch on the type).
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd import planmode as _planmode
from repro.autograd.sparse import SparseRowGrad
from repro.perf.profiler import active as _profiler_active

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording.

    Used during evaluation/inference so that forward passes do not build
    (and retain) a backward graph.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def grad_enabled() -> bool:
    """Return whether graph recording is currently enabled."""
    return _GRAD_ENABLED


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after a broadcast.

    numpy broadcasting may (a) prepend dimensions and (b) stretch
    singleton dimensions.  The gradient of a broadcast is the sum over
    every stretched or prepended axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched singleton axes.
    axes = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array that records operations for reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to a numpy array.  Integer arrays are kept
        as-is (useful for indices); everything else is converted to
        ``float64`` by default.
    requires_grad:
        Whether gradients should be accumulated for this tensor.
    name:
        Optional human-readable name used in error messages.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_retains_grad",
        "_logits",
        "name",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
        dtype: Optional[np.dtype] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data)
        if dtype is not None:
            array = array.astype(dtype)
        elif array.dtype != np.float64 and not np.issubdtype(
            array.dtype, np.integer
        ):
            # float64 and integer dtypes pass through; everything else
            # (float32, bool, object...) is promoted to float64.
            array = array.astype(np.float64)
        self.data: np.ndarray = array
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], Iterable]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self._retains_grad: bool = False
        self._logits: Optional["Tensor"] = None
        self.name = name
        if self.requires_grad and np.issubdtype(array.dtype, np.integer):
            raise TypeError("integer tensors cannot require gradients")

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad}{label})\n{self.data!r}"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_item()

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], Iterable],
    ) -> "Tensor":
        """Create an output tensor, wiring the backward closure if needed.

        Fast path used by every op: ``data`` is trusted to already be a
        numpy array of the right dtype, skipping the conversion and
        dtype-sniffing work of ``__init__``.  Only parents that require
        gradients are recorded -- constants never propagate, so keeping
        them out of the graph shrinks the backward traversal.
        """
        if not isinstance(data, np.ndarray):
            data = np.asarray(data)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._retains_grad = False
        out._logits = None
        out.name = None
        if _GRAD_ENABLED:
            grad_parents = tuple(p for p in parents if p.requires_grad)
            if grad_parents:
                out.requires_grad = True
                out._parents = grad_parents
                out._backward = backward
                return out
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        return out

    def _accumulate(self, grad, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        ``owned=True`` asserts the caller hands over a freshly allocated
        buffer that nothing else references, letting the first write
        adopt it instead of copying.  ``grad`` may be a dense array or a
        :class:`SparseRowGrad`; mixed accumulation densifies.
        """
        if not self.requires_grad:
            return
        if isinstance(grad, SparseRowGrad):
            if self.grad is None:
                self.grad = grad if owned else SparseRowGrad(
                    grad.indices, grad.values.copy(), grad.shape
                )
            elif isinstance(self.grad, SparseRowGrad):
                self.grad = self.grad.merge(grad)
            else:
                grad.add_to(self.grad)
            return
        if self.grad is None:
            if owned and grad.dtype == self.data.dtype:
                self.grad = grad
            else:
                self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        elif isinstance(self.grad, SparseRowGrad):
            dense = self.grad.to_dense()
            dense += grad
            self.grad = dense
        else:
            self.grad += grad

    def retain_grad(self) -> "Tensor":
        """Request ``.grad`` on this intermediate during backward.

        Leaves always receive ``.grad``; intermediates are skipped by
        default (their gradients only transit the scratch space of the
        backward pass).  Diagnostics that need an intermediate gradient
        opt in with this method.  Returns ``self`` for chaining.
        """
        self._retains_grad = True
        return self

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (the usual convention: the tensor must
        then be a scalar loss, otherwise the implicit seed of ones is
        almost never what the caller wants, so we require scalars).

        Gradients are accumulated into ``.grad`` only on leaves (and on
        intermediates that called :meth:`retain_grad`); everything else
        flows through temporary buffers that are freed as the walk
        proceeds.
        """
        seed_owned = False
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
            seed_owned = True
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape "
                    f"{self.shape}"
                )

        profiler = _profiler_active()
        started = time.perf_counter() if profiler is not None else 0.0

        topo = _topological_order(self)
        # id(node) -> [grad, owned]; popped as each node is visited, so
        # scratch buffers die as soon as their consumers have run.
        grads = {id(self): [grad, seed_owned]}
        if profiler is None:
            for node in topo:
                entry = grads.pop(id(node), None)
                if entry is None:
                    continue
                node_grad, node_owned = entry
                backward_fn = node._backward
                if backward_fn is None:
                    node._accumulate(node_grad, owned=node_owned)
                    continue
                if node._retains_grad:
                    # Copy: the buffer is still consumed by the closure below.
                    node._accumulate(node_grad, owned=False)
                for item in backward_fn(node_grad):
                    if len(item) == 3:
                        parent, pgrad, powned = item
                    else:
                        parent, pgrad = item
                        powned = False
                    if not parent.requires_grad or pgrad is None:
                        continue
                    key = id(parent)
                    existing = grads.get(key)
                    if existing is None:
                        grads[key] = [pgrad, powned]
                    else:
                        _merge_grad(existing, pgrad)
            return

        # Profiled variant: identical semantics, plus per-kernel wall
        # time and bytes of freshly allocated (owned) gradient buffers
        # recorded as ``backward.<op>`` pseudo-ops.
        total_bytes = 0
        for node in topo:
            entry = grads.pop(id(node), None)
            if entry is None:
                continue
            node_grad, node_owned = entry
            backward_fn = node._backward
            if backward_fn is None:
                node._accumulate(node_grad, owned=node_owned)
                continue
            if node._retains_grad:
                node._accumulate(node_grad, owned=False)
            node_started = time.perf_counter()
            owned_bytes = 0
            for item in backward_fn(node_grad):
                if len(item) == 3:
                    parent, pgrad, powned = item
                else:
                    parent, pgrad = item
                    powned = False
                if not parent.requires_grad or pgrad is None:
                    continue
                if powned:
                    owned_bytes += _grad_nbytes(pgrad)
                key = id(parent)
                existing = grads.get(key)
                if existing is None:
                    grads[key] = [pgrad, powned]
                else:
                    _merge_grad(existing, pgrad)
            total_bytes += owned_bytes
            profiler.record(
                "backward." + _kernel_label(backward_fn),
                time.perf_counter() - node_started,
                owned_bytes,
            )
        profiler.record("backward", time.perf_counter() - started, total_bytes)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Arithmetic (broadcast-aware)
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        if _planmode._REPLAY is not None:
            return _planmode._REPLAY.run("add", (self, other))
        out_data = self.data + other.data

        def backward(grad: np.ndarray, a=self, b=other) -> Iterable:
            entries = []
            if a.requires_grad:
                ga = unbroadcast(grad, a.data.shape)
                entries.append((a, ga, ga is not grad))
            if b.requires_grad:
                gb = unbroadcast(grad, b.data.shape)
                entries.append((b, gb, gb is not grad))
            return entries

        out = Tensor._make(out_data, (self, other), backward)
        if _planmode._TRACER is not None:
            _planmode._TRACER.record("add", out, (self, other))
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        if _planmode._REPLAY is not None:
            return _planmode._REPLAY.run("neg", (self,))

        def backward(grad: np.ndarray, a=self) -> Iterable:
            return ((a, -grad, True),)

        out = Tensor._make(-self.data, (self,), backward)
        if _planmode._TRACER is not None:
            _planmode._TRACER.record("neg", out, (self,))
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-_as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        if _planmode._REPLAY is not None:
            return _planmode._REPLAY.run("mul", (self, other))
        out_data = self.data * other.data

        def backward(grad: np.ndarray, a=self, b=other) -> Iterable:
            entries = []
            if a.requires_grad:
                entries.append((a, unbroadcast(grad * b.data, a.data.shape), True))
            if b.requires_grad:
                entries.append((b, unbroadcast(grad * a.data, b.data.shape), True))
            return entries

        out = Tensor._make(out_data, (self, other), backward)
        if _planmode._TRACER is not None:
            _planmode._TRACER.record("mul", out, (self, other))
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        if _planmode._REPLAY is not None:
            return _planmode._REPLAY.run("div", (self, other))
        out_data = self.data / other.data

        def backward(grad: np.ndarray, a=self, b=other) -> Iterable:
            entries = []
            if a.requires_grad:
                entries.append((a, unbroadcast(grad / b.data, a.data.shape), True))
            if b.requires_grad:
                entries.append(
                    (b, unbroadcast(-grad * a.data / (b.data**2), b.data.shape), True)
                )
            return entries

        out = Tensor._make(out_data, (self, other), backward)
        if _planmode._TRACER is not None:
            _planmode._TRACER.record("div", out, (self, other))
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        if _planmode._REPLAY is not None:
            return _planmode._REPLAY.run("pow", (self,), (exponent,))
        out_data = self.data**exponent

        def backward(grad: np.ndarray, a=self, n=exponent) -> Iterable:
            return ((a, grad * n * a.data ** (n - 1), True),)

        out = Tensor._make(out_data, (self,), backward)
        if _planmode._TRACER is not None:
            _planmode._TRACER.record("pow", out, (self,), (exponent,))
        return out

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        if _planmode._REPLAY is not None:
            return _planmode._REPLAY.run("matmul", (self, other))
        out_data = self.data @ other.data

        def backward(grad: np.ndarray, a=self, b=other) -> Iterable:
            entries = []
            if a.ndim == 2 and b.ndim == 2:
                if a.requires_grad:
                    entries.append((a, grad @ b.data.T, True))
                if b.requires_grad:
                    entries.append((b, a.data.T @ grad, True))
                return entries
            # General case via swapaxes; covers batched matmul.
            if a.requires_grad:
                grad_a = grad @ np.swapaxes(b.data, -1, -2)
                entries.append((a, unbroadcast(grad_a, a.data.shape), True))
            if b.requires_grad:
                grad_b = np.swapaxes(a.data, -1, -2) @ grad
                entries.append((b, unbroadcast(grad_b, b.data.shape), True))
            return entries

        out = Tensor._make(out_data, (self, other), backward)
        if _planmode._TRACER is not None:
            _planmode._TRACER.record("matmul", out, (self, other))
        return out

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        if _planmode._REPLAY is not None:
            return _planmode._REPLAY.run("reshape", (self,), (tuple(shape),))
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray, a=self) -> Iterable:
            # Usually a view of the incoming gradient: not owned.
            return ((a, grad.reshape(a.data.shape)),)

        out = Tensor._make(out_data, (self,), backward)
        if _planmode._TRACER is not None:
            _planmode._TRACER.record("reshape", out, (self,), (tuple(shape),))
        return out

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else tuple(reversed(range(self.ndim)))
        inverse = tuple(int(i) for i in np.argsort(axes_tuple))
        if _planmode._REPLAY is not None:
            return _planmode._REPLAY.run(
                "transpose", (self,), (axes_tuple, inverse)
            )
        out_data = self.data.transpose(axes_tuple)

        def backward(grad: np.ndarray, a=self, inv=inverse) -> Iterable:
            return ((a, grad.transpose(inv)),)

        out = Tensor._make(out_data, (self,), backward)
        if _planmode._TRACER is not None:
            _planmode._TRACER.record(
                "transpose", out, (self,), (axes_tuple, inverse)
            )
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        if _planmode._REPLAY is not None:
            return _planmode._REPLAY.run("getitem", (self,))
        out_data = self.data[index]

        def backward(grad: np.ndarray, a=self, idx=index) -> Iterable:
            full = np.zeros_like(a.data)
            np.add.at(full, idx, grad)
            return ((a, full, True),)

        out = Tensor._make(out_data, (self,), backward)
        if _planmode._TRACER is not None:
            # The plan compiler rejects this op (arbitrary fancy
            # indexing is not lowered); the frozen inference program
            # replays the recorded index.
            _planmode._TRACER.record("getitem", out, (self,), (index,))
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        if _planmode._REPLAY is not None:
            return _planmode._REPLAY.run("sum", (self,), (axis, keepdims))
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray, a=self, ax=axis, kd=keepdims) -> Iterable:
            g = grad
            if ax is not None and not kd:
                g = np.expand_dims(g, ax)
            # Read-only broadcast view; the ownership protocol keeps the
            # engine from ever writing into it.
            return ((a, np.broadcast_to(g, a.data.shape)),)

        out = Tensor._make(out_data, (self,), backward)
        if _planmode._TRACER is not None:
            _planmode._TRACER.record("sum", out, (self,), (axis, keepdims))
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # Comparison helpers return plain numpy arrays (no gradients flow
    # through comparisons).
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)


def _raise_item() -> float:
    raise ValueError("item() only works on single-element tensors")


def _as_tensor(value: ArrayLike) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _as_array(value: ArrayLike) -> np.ndarray:
    return value.data if isinstance(value, Tensor) else np.asarray(value)


_KERNEL_LABELS: dict = {}


def _kernel_label(fn: Callable) -> str:
    """Human-readable op name for a backward closure, cached by code object.

    ``Tensor.__add__.<locals>.backward`` -> ``add``;
    ``relu.<locals>.backward`` -> ``relu``.
    """
    code = fn.__code__
    label = _KERNEL_LABELS.get(code)
    if label is None:
        label = getattr(fn, "__qualname__", "op").split(".<locals>")[0]
        if label.startswith("Tensor."):
            label = label[len("Tensor."):]
        label = label.strip("_") or "op"
        _KERNEL_LABELS[code] = label
    return label


def _grad_nbytes(grad) -> int:
    """Bytes of a gradient buffer (dense array or SparseRowGrad)."""
    nbytes = getattr(grad, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    return int(grad.values.nbytes) + int(grad.indices.nbytes)


def _merge_grad(entry: list, new) -> None:
    """Sum ``new`` into a scratch-space gradient ``[grad, owned]`` entry."""
    grad, owned = entry
    new_sparse = isinstance(new, SparseRowGrad)
    if isinstance(grad, SparseRowGrad):
        if new_sparse:
            entry[0] = grad.merge(new)
        else:
            dense = np.array(new, dtype=new.dtype, copy=True)
            grad.add_to(dense)
            entry[0] = dense
        entry[1] = True
        return
    if new_sparse:
        if not owned:
            grad = np.array(grad, copy=True)
            entry[0] = grad
        new.add_to(grad)
        entry[1] = True
        return
    if owned:
        grad += new
    else:
        entry[0] = grad + new
        entry[1] = True


def _topological_order(root: Tensor) -> List[Tensor]:
    """Return tensors reachable from ``root`` in reverse topological order.

    Iterative DFS (recursion would overflow on deep MLP graphs).
    """
    order: List[Tensor] = []
    visited = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def tensor(
    data: ArrayLike, requires_grad: bool = False, name: Optional[str] = None
) -> Tensor:
    """Convenience constructor mirroring ``numpy.array``."""
    return Tensor(data, requires_grad=requires_grad, name=name)
