"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the :mod:`repro.nn` substrate.  The paper's
reference implementation uses PyTorch; this reproduction runs in an offline
environment without PyTorch, so a small but complete autograd engine is
provided instead.  The engine supports every operation required by the Saga
models (transformer encoder, GRU classifier, reconstruction decoder) and the
baselines (CL-HAR contrastive projector, TPN multi-head transform classifier).

Design notes
------------
* A :class:`Tensor` wraps a ``numpy.ndarray`` (``float64`` by default) and
  records the operations that produced it.  Calling :meth:`Tensor.backward`
  performs a topological sort of the recorded graph and accumulates gradients
  into ``Tensor.grad`` for every tensor with ``requires_grad=True``.
* Broadcasting follows numpy semantics; gradients of broadcast operands are
  reduced back to the operand shape by :func:`unbroadcast`.
* The engine is intentionally eager and define-by-run, mirroring PyTorch, so
  the model code in :mod:`repro.models` reads almost identically to the
  paper's reference PyTorch code.
* Every op has two exits: the graph-recording path (grad mode on and at least
  one operand requires grad) builds ``_prev``/``_op`` metadata and a backward
  closure; the detached fast path builds none of that — no parent tuple, no
  op string, no closure, and no backward-only precomputation (``np.sign`` for
  ``abs``, the inverse permutation for ``transpose``, the pass-through mask
  for ``clip``).  The fast path is where :func:`no_grad` inference runs and
  where the :mod:`repro.nn.jit` tracer hooks in: when a trace session is
  active in the current thread, each detached op is recorded onto its tape.
* Ownership: a backward closure receives its output's gradient as an argument
  (:meth:`Tensor.backward` calls ``node._backward(node.grad)`` for every node
  that received a gradient) and references only the op's inputs and the
  arrays its gradient needs, never the output tensor.  A node therefore
  references only its inputs, so the recorded graph is a DAG owned by its
  root and lives exactly as long as the root: reference counting frees every
  activation and intermediate gradient as soon as the caller drops the root
  (the loss), without Python's cyclic collector.  While the root is still
  referenced the graph stays whole, so calling ``backward`` twice accumulates
  as before.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

DTypeLike = Union[str, type, np.dtype]

_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _validate_dtype(dtype: DTypeLike) -> np.dtype:
    """Normalise ``dtype`` to a supported floating :class:`numpy.dtype`."""
    resolved = np.dtype(dtype)
    if resolved not in _SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported tensor dtype {resolved}; choose one of "
            f"{[str(d) for d in _SUPPORTED_DTYPES]}"
        )
    return resolved


# The process-wide precision policy.  ``REPRO_DTYPE`` selects the policy at
# import time (the CI float32 leg runs the suite under REPRO_DTYPE=float32);
# training keeps the float64 default so figure numerics and the experiments
# cache are byte-identical to earlier versions.
_DEFAULT_DTYPE = _validate_dtype(os.environ.get("REPRO_DTYPE", "float64"))


class _GradMode(threading.local):
    """Per-thread flag controlling whether ops record the autograd graph."""

    enabled: bool = True


_grad_mode = _GradMode()


class _TraceState(threading.local):
    """Per-thread handle to the active :mod:`repro.nn.jit` trace session.

    ``None`` in normal operation; set by the jit tracer for the duration of a
    trace so that the detached op fast path records each primitive onto the
    tape.  Thread-local, so a worker thread can trace while other threads
    train or serve eagerly.
    """

    session = None


_trace_state = _TraceState()


def is_grad_enabled() -> bool:
    """True when operations record the autograd graph in the current thread."""
    return _grad_mode.enabled


def set_grad_enabled(mode: bool) -> bool:
    """Set graph recording on/off for the current thread; returns the previous mode."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = bool(mode)
    return previous


class _GradContext:
    """Base for :class:`no_grad` / :class:`enable_grad` — context manager and decorator."""

    _mode: bool = True

    def __init__(self) -> None:
        self._previous: Optional[bool] = None

    def __enter__(self) -> "_GradContext":
        self._previous = set_grad_enabled(self._mode)
        return self

    def __exit__(self, *exc_info) -> None:
        set_grad_enabled(True if self._previous is None else self._previous)

    def __call__(self, func: Callable) -> Callable:
        import functools

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with type(self)():
                return func(*args, **kwargs)

        return wrapper


class no_grad(_GradContext):
    """Disable graph recording: the inference fast path.

    Inside the context (or a decorated function) every operation produces a
    detached tensor — no backward closures are built and no parent references
    are kept — so forwards allocate less, run faster, and never retain the
    graph.  The flag is thread-local, making the context safe to use in the
    serving worker threads while another thread trains.
    """

    _mode = False


class enable_grad(_GradContext):
    """Re-enable graph recording inside an enclosing :class:`no_grad` block."""

    _mode = True


def set_default_dtype(dtype: DTypeLike) -> np.dtype:
    """Set the floating dtype used when constructing tensors from python
    scalars, lists and integer arrays, and by every parameter initialiser.

    Accepts ``"float32"``/``"float64"`` (or the numpy equivalents) and returns
    the previous default so callers can restore it.  Arrays passed in as
    ``numpy.ndarray`` keep their own dtype — the policy governs construction,
    and the ops preserve operand dtype from there.
    """
    global _DEFAULT_DTYPE
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = _validate_dtype(dtype)
    return previous


def get_default_dtype() -> np.dtype:
    """Return the current default floating dtype for new tensors."""
    return np.dtype(_DEFAULT_DTYPE)


class default_dtype:
    """Context manager scoping :func:`set_default_dtype` to a block.

    >>> with default_dtype("float32"):
    ...     model = SagaBackbone(config, rng=rng)  # float32 parameters
    """

    def __init__(self, dtype: DTypeLike) -> None:
        self._dtype = _validate_dtype(dtype)
        self._previous: Optional[np.dtype] = None

    def __enter__(self) -> np.dtype:
        self._previous = set_default_dtype(self._dtype)
        return self._dtype

    def __exit__(self, *exc_info) -> None:
        if self._previous is not None:
            set_default_dtype(self._previous)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    When an operand of shape ``shape`` was broadcast to the shape of ``grad``
    during the forward pass, the gradient flowing back must be summed over the
    broadcast dimensions.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over dimensions that were size 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype: Optional[np.dtype] = None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value, dtype=dtype if dtype is not None else None)
    if dtype is None:
        if arr.dtype.kind in "iub":
            arr = arr.astype(_DEFAULT_DTYPE)
        elif arr.dtype.kind == "f" and not isinstance(value, (np.ndarray, np.generic)):
            # Python floats / float lists adopt the policy dtype; numpy arrays
            # and numpy scalars keep whatever dtype the caller chose (reduction
            # ops like ndarray.sum() hand back np.float32/64 scalars).
            arr = arr.astype(_DEFAULT_DTYPE, copy=False)
    return arr


def _noop_backward(out_grad: Optional[np.ndarray] = None) -> None:
    return None


def ensure_tensor(value: ArrayLike) -> "Tensor":
    """Coerce ``value`` into a :class:`Tensor` (no copy if already a tensor)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _coerce_operand(value: ArrayLike, dtype: np.dtype) -> "Tensor":
    """Coerce the second operand of a binary op, preserving the first's dtype.

    Python scalars (and numpy scalar types) adopt ``dtype`` so that constants
    like ``x * 0.5`` or ``1.0 - x`` never promote a float32 operand to
    float64: under NEP 50 a wrapped scalar becomes a 0-d float64 *array*,
    which numpy treats as a strong type.  Tensors and explicit numpy arrays
    keep their own dtype (mixed-array arithmetic promotes as numpy does).
    """
    if isinstance(value, Tensor):
        return value
    if isinstance(value, (bool, int, float, np.number)):
        return Tensor(np.asarray(value, dtype=dtype))
    return Tensor(value)


def _detached(out_data: np.ndarray, op: str, inputs: Tuple["Tensor", ...], attrs=None) -> "Tensor":
    """Finish an op on the detached fast path (no grad needed, or no_grad mode).

    No parent tuple, op string or backward closure is attached; when the
    current thread has an active jit trace session, the op is recorded onto
    its tape instead (the tape is the compiled executor's program).
    """
    out = Tensor(out_data)
    session = _trace_state.session
    if session is not None:
        session.record(out, op, inputs, attrs)
    return out


class Tensor:
    """A multi-dimensional array with reverse-mode automatic differentiation."""

    __slots__ = (
        "data", "grad", "requires_grad", "_backward", "_prev", "_op", "name", "_trace_id",
        "__weakref__",
    )
    __array_priority__ = 200  # ensure numpy defers to Tensor's operators

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _prev: Iterable["Tensor"] = (),
        _op: str = "",
        name: Optional[str] = None,
    ) -> None:
        self.data: np.ndarray = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        if _prev and not _grad_mode.enabled:
            # Inference fast path: op results created under no_grad() are
            # detached — no parent references, no gradient requirement.
            requires_grad = False
            _prev = ()
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] = _noop_backward
        self._prev: Tuple[Tensor, ...] = tuple(_prev)
        self._op: str = _op
        self.name = name

    # ------------------------------------------------------------------
    # Basic properties
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

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_fn = f", op={self._op!r}" if self._op else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{grad_fn})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        out = Tensor(self.data, requires_grad=False)
        session = _trace_state.session
        if session is not None:
            # On a tape, detaching is the identity: the replayed value must
            # still flow from the producing op, not freeze into a constant.
            session.record(out, "alias", (self,), None)
        return out

    def astype(self, dtype: DTypeLike) -> "Tensor":
        """Cast to ``dtype`` as a differentiable op (gradient casts back).

        Returns ``self`` unchanged when the dtype already matches, so the cast
        is free on the homogeneous fast path.
        """
        dtype = np.dtype(dtype)
        if self.data.dtype == dtype:
            return self
        if _grad_mode.enabled and self.requires_grad:
            out = Tensor(
                self.data.astype(dtype),
                requires_grad=True,
                _prev=(self,),
                _op="astype",
            )

            def _backward(out_grad: np.ndarray) -> None:
                self._accumulate_grad(out_grad)

            out._backward = _backward
            return out
        return _detached(self.data.astype(dtype), "astype", (self,), {"dtype": str(dtype)})

    def copy(self) -> "Tensor":
        """Return a detached deep copy of this tensor."""
        out = Tensor(self.data.copy(), requires_grad=False)
        session = _trace_state.session
        if session is not None:
            session.record(out, "copy", (self,), None)
        return out

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph management
    # ------------------------------------------------------------------
    def _accumulate_grad(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.  If
            omitted, this tensor must be a scalar and the seed gradient is 1.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar tensor; "
                    f"got shape {self.shape}"
                )
            seed = np.ones_like(self.data)
        else:
            seed = _as_array(grad).astype(self.data.dtype, copy=False)
            if seed.shape != self.data.shape:
                seed = np.broadcast_to(seed, self.data.shape).copy()

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = seed if self.grad is None else self.grad + seed
        for node in reversed(topo):
            if node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = _coerce_operand(other, self.data.dtype)
        if _grad_mode.enabled and (self.requires_grad or other.requires_grad):
            out = Tensor(
                self.data + other.data,
                requires_grad=True,
                _prev=(self, other),
                _op="add",
            )

            def _backward(out_grad: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate_grad(unbroadcast(out_grad, self.shape))
                if other.requires_grad:
                    other._accumulate_grad(unbroadcast(out_grad, other.shape))

            out._backward = _backward
            return out
        return _detached(self.data + other.data, "add", (self, other))

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-_coerce_operand(other, self.data.dtype))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _coerce_operand(other, self.data.dtype) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = _coerce_operand(other, self.data.dtype)
        if _grad_mode.enabled and (self.requires_grad or other.requires_grad):
            out = Tensor(
                self.data * other.data,
                requires_grad=True,
                _prev=(self, other),
                _op="mul",
            )

            def _backward(out_grad: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate_grad(unbroadcast(out_grad * other.data, self.shape))
                if other.requires_grad:
                    other._accumulate_grad(unbroadcast(out_grad * self.data, other.shape))

            out._backward = _backward
            return out
        return _detached(self.data * other.data, "mul", (self, other))

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = _coerce_operand(other, self.data.dtype)
        return self * other ** -1.0

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _coerce_operand(other, self.data.dtype) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        if _grad_mode.enabled and self.requires_grad:
            out = Tensor(
                self.data ** exponent,
                requires_grad=True,
                _prev=(self,),
                _op="pow",
            )

            def _backward(out_grad: np.ndarray) -> None:
                self._accumulate_grad(out_grad * exponent * self.data ** (exponent - 1))

            out._backward = _backward
            return out
        return _detached(self.data ** exponent, "pow", (self,), {"exponent": float(exponent)})

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product following numpy ``@`` semantics (with batching)."""
        other = ensure_tensor(other)
        if _grad_mode.enabled and (self.requires_grad or other.requires_grad):
            out = Tensor(
                self.data @ other.data,
                requires_grad=True,
                _prev=(self, other),
                _op="matmul",
            )

            def _backward(out_grad: np.ndarray) -> None:
                a, b = self.data, other.data
                if self.requires_grad:
                    if b.ndim == 1:
                        grad_a = np.expand_dims(out_grad, -1) * b
                    elif a.ndim == 1:
                        grad_a = out_grad @ np.swapaxes(b, -1, -2)
                    else:
                        grad_a = out_grad @ np.swapaxes(b, -1, -2)
                    self._accumulate_grad(unbroadcast(grad_a, self.shape))
                if other.requires_grad:
                    if a.ndim == 1:
                        grad_b = np.expand_dims(a, -1) * out_grad
                    elif b.ndim == 1:
                        grad_b = np.swapaxes(a, -1, -2) @ out_grad if out_grad.ndim > 1 else a.T @ out_grad
                    else:
                        grad_b = np.swapaxes(a, -1, -2) @ out_grad
                    other._accumulate_grad(unbroadcast(grad_b, other.shape))

            out._backward = _backward
            return out
        return _detached(self.data @ other.data, "matmul", (self, other))

    # ------------------------------------------------------------------
    # Elementwise non-linearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        if _grad_mode.enabled and self.requires_grad:
            out = Tensor(out_data, requires_grad=True, _prev=(self,), _op="exp")

            def _backward(out_grad: np.ndarray) -> None:
                self._accumulate_grad(out_grad * out_data)

            out._backward = _backward
            return out
        return _detached(out_data, "exp", (self,))

    def log(self) -> "Tensor":
        out_data = np.log(self.data)
        if _grad_mode.enabled and self.requires_grad:
            out = Tensor(out_data, requires_grad=True, _prev=(self,), _op="log")

            def _backward(out_grad: np.ndarray) -> None:
                self._accumulate_grad(out_grad / self.data)

            out._backward = _backward
            return out
        return _detached(out_data, "log", (self,))

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        if _grad_mode.enabled and self.requires_grad:
            out = Tensor(out_data, requires_grad=True, _prev=(self,), _op="tanh")

            def _backward(out_grad: np.ndarray) -> None:
                self._accumulate_grad(out_grad * (1.0 - out_data ** 2))

            out._backward = _backward
            return out
        return _detached(out_data, "tanh", (self,))

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        if _grad_mode.enabled and self.requires_grad:
            out = Tensor(out_data, requires_grad=True, _prev=(self,), _op="sigmoid")

            def _backward(out_grad: np.ndarray) -> None:
                self._accumulate_grad(out_grad * out_data * (1.0 - out_data))

            out._backward = _backward
            return out
        return _detached(out_data, "sigmoid", (self,))

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask
        if _grad_mode.enabled and self.requires_grad:
            out = Tensor(out_data, requires_grad=True, _prev=(self,), _op="relu")

            def _backward(out_grad: np.ndarray) -> None:
                self._accumulate_grad(out_grad * mask)

            out._backward = _backward
            return out
        return _detached(out_data, "relu", (self,))

    def gelu(self) -> "Tensor":
        """Gaussian Error Linear Unit (tanh approximation, as used by BERT)."""
        x = self.data
        # float(): an np.float64 scalar is a *strong* type under NEP 50 and
        # would promote a float32 forward; a python float stays weak.
        c = float(np.sqrt(2.0 / np.pi))
        inner = c * (x + 0.044715 * x ** 3)
        tanh_inner = np.tanh(inner)
        out_data = 0.5 * x * (1.0 + tanh_inner)
        if _grad_mode.enabled and self.requires_grad:
            out = Tensor(out_data, requires_grad=True, _prev=(self,), _op="gelu")

            def _backward(out_grad: np.ndarray) -> None:
                sech2 = 1.0 - tanh_inner ** 2
                d_inner = c * (1.0 + 3 * 0.044715 * x ** 2)
                grad = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
                self._accumulate_grad(out_grad * grad)

            out._backward = _backward
            return out
        return _detached(out_data, "gelu", (self,))

    def abs(self) -> "Tensor":
        if _grad_mode.enabled and self.requires_grad:
            sign = np.sign(self.data)
            out = Tensor(np.abs(self.data), requires_grad=True, _prev=(self,), _op="abs")

            def _backward(out_grad: np.ndarray) -> None:
                self._accumulate_grad(out_grad * sign)

            out._backward = _backward
            return out
        return _detached(np.abs(self.data), "abs", (self,))

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values into ``[low, high]`` (gradient is passed only inside the range)."""
        clipped = np.clip(self.data, low, high)
        if _grad_mode.enabled and self.requires_grad:
            mask = (self.data >= low) & (self.data <= high)
            out = Tensor(clipped, requires_grad=True, _prev=(self,), _op="clip")

            def _backward(out_grad: np.ndarray) -> None:
                self._accumulate_grad(out_grad * mask)

            out._backward = _backward
            return out
        return _detached(clipped, "clip", (self,), {"low": low, "high": high})

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if _grad_mode.enabled and self.requires_grad:
            out = Tensor(out_data, requires_grad=True, _prev=(self,), _op="sum")

            def _backward(out_grad: np.ndarray) -> None:
                grad = out_grad
                if axis is not None and not keepdims:
                    axes = (axis,) if isinstance(axis, int) else tuple(axis)
                    axes = tuple(a % self.data.ndim for a in axes)
                    for a in sorted(axes):
                        grad = np.expand_dims(grad, a)
                self._accumulate_grad(np.broadcast_to(grad, self.shape).copy())

            out._backward = _backward
            return out
        return _detached(out_data, "sum", (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        if _grad_mode.enabled and self.requires_grad:
            out = Tensor(out_data, requires_grad=True, _prev=(self,), _op="max")
            if axis is None:
                mask = (self.data == self.data.max()).astype(self.data.dtype)
            else:
                mask = (self.data == self.data.max(axis=axis, keepdims=True)).astype(self.data.dtype)
            mask = mask / np.maximum(
                mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum(), 1.0
            )

            def _backward(out_grad: np.ndarray) -> None:
                grad = out_grad
                if axis is not None and not keepdims:
                    grad = np.expand_dims(grad, axis)
                self._accumulate_grad(mask * grad)

            out._backward = _backward
            return out
        return _detached(out_data, "max", (self,), {"axis": axis, "keepdims": keepdims})

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.shape
        out_data = self.data.reshape(shape)
        if _grad_mode.enabled and self.requires_grad:
            out = Tensor(out_data, requires_grad=True, _prev=(self,), _op="reshape")

            def _backward(out_grad: np.ndarray) -> None:
                self._accumulate_grad(out_grad.reshape(original_shape))

            out._backward = _backward
            return out
        # Record the *resolved* shape (any -1 already expanded by numpy).
        return _detached(out_data, "reshape", (self,), {"shape": out_data.shape})

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        out_data = self.data.transpose(axes)
        if _grad_mode.enabled and self.requires_grad:
            out = Tensor(out_data, requires_grad=True, _prev=(self,), _op="transpose")
            inverse = np.argsort(axes)

            def _backward(out_grad: np.ndarray) -> None:
                self._accumulate_grad(out_grad.transpose(inverse))

            out._backward = _backward
            return out
        return _detached(out_data, "transpose", (self,), {"axes": tuple(axes)})

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        if _grad_mode.enabled and self.requires_grad:
            out = Tensor(out_data, requires_grad=True, _prev=(self,), _op="getitem")

            def _backward(out_grad: np.ndarray) -> None:
                grad = np.zeros_like(self.data)
                np.add.at(grad, index, out_grad)
                self._accumulate_grad(grad)

            out._backward = _backward
            return out
        return _detached(out_data, "getitem", (self,), {"index": index})

    def expand_dims(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis)
        if _grad_mode.enabled and self.requires_grad:
            out = Tensor(out_data, requires_grad=True, _prev=(self,), _op="expand_dims")

            def _backward(out_grad: np.ndarray) -> None:
                self._accumulate_grad(np.squeeze(out_grad, axis=axis))

            out._backward = _backward
            return out
        return _detached(out_data, "expand_dims", (self,), {"axis": axis})

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        original_shape = self.shape
        out_data = np.squeeze(self.data, axis=axis) if axis is not None else np.squeeze(self.data)
        if _grad_mode.enabled and self.requires_grad:
            out = Tensor(out_data, requires_grad=True, _prev=(self,), _op="squeeze")

            def _backward(out_grad: np.ndarray) -> None:
                self._accumulate_grad(out_grad.reshape(original_shape))

            out._backward = _backward
            return out
        return _detached(out_data, "squeeze", (self,), {"axis": axis})

    # ------------------------------------------------------------------
    # Comparison helpers (return plain numpy arrays, no gradient)
    # ------------------------------------------------------------------
    def argmax(self, axis: Optional[int] = None) -> np.ndarray:
        return self.data.argmax(axis=axis)

    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)


# ----------------------------------------------------------------------
# Free functions that combine several tensors
# ----------------------------------------------------------------------
def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate a sequence of tensors along ``axis`` with gradient support."""
    tensors = [ensure_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    if _grad_mode.enabled and any(t.requires_grad for t in tensors):
        out = Tensor(data, requires_grad=True, _prev=tuple(tensors), _op="concatenate")
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def _backward(out_grad: np.ndarray) -> None:
            for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:]):
                if not tensor.requires_grad:
                    continue
                slicer = [slice(None)] * out_grad.ndim
                slicer[axis] = slice(start, end)
                tensor._accumulate_grad(out_grad[tuple(slicer)])

        out._backward = _backward
        return out
    return _detached(data, "concatenate", tuple(tensors), {"axis": axis})


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [ensure_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    if _grad_mode.enabled and any(t.requires_grad for t in tensors):
        out = Tensor(data, requires_grad=True, _prev=tuple(tensors), _op="stack")

        def _backward(out_grad: np.ndarray) -> None:
            grads = np.split(out_grad, len(tensors), axis=axis)
            for tensor, grad in zip(tensors, grads):
                if tensor.requires_grad:
                    tensor._accumulate_grad(np.squeeze(grad, axis=axis))

        out._backward = _backward
        return out
    return _detached(data, "stack", tuple(tensors), {"axis": axis})


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise selection: ``condition ? a : b`` with gradient support."""
    if isinstance(a, Tensor):
        a, b = a, _coerce_operand(b, a.data.dtype)
    elif isinstance(b, Tensor):
        a = _coerce_operand(a, b.data.dtype)
    else:
        a, b = ensure_tensor(a), ensure_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)
    if _grad_mode.enabled and (a.requires_grad or b.requires_grad):
        out = Tensor(out_data, requires_grad=True, _prev=(a, b), _op="where")

        def _backward(out_grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate_grad(unbroadcast(out_grad * cond, a.shape))
            if b.requires_grad:
                b._accumulate_grad(unbroadcast(out_grad * (~cond), b.shape))

        out._backward = _backward
        return out
    return _detached(out_data, "where", (a, b), {"condition": cond})


def no_grad_tensor(data: ArrayLike) -> Tensor:
    """Construct a tensor that never requires gradient (convenience helper)."""
    return Tensor(data, requires_grad=False)
