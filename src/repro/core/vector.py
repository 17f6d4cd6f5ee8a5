"""The machine-owned ``Vector``: the paper's unit of parallel data.

All algorithm data lives in vectors (one-dimensional arrays) in the shared
memory, with one (virtual) processor per element (Section 2.1).  A
:class:`Vector` couples a NumPy array to the :class:`~repro.machine.Machine`
it lives on; every operation *charges* the machine the program steps the
operation would cost on that model and *computes* the result through the
machine's execution backend (:mod:`repro.backends`) via the single
dispatch point :meth:`repro.machine.Machine.execute`.

Vectors are immutable: operations return new vectors, and the underlying
buffer is marked read-only, so accidental aliasing cannot corrupt step
accounting or results.

Every elementwise operation goes through one seam,
:meth:`Vector._elementwise`: it charges one program step and then either
executes eagerly or, on a machine whose backend fuses (``blocked`` and
``native``; see :class:`~repro.machine.Machine` and ``docs/fusion.md``),
defers the computation into a small expression DAG
(:class:`~repro.core.lazy.LazyNode`) — charged in exactly eager order, so
step counts are bit-identical either way.  Any observable boundary (``.data``,
``to_array``, a scan, a permute, a reduction, ``repr``, single-cell reads)
*forces* the pending chain: the DAG is compiled to one
:class:`~repro.backends.plan.FusedPlan` and executed by the backend as a
single ``fused_pipeline`` primitive.  ``len()`` and ``.dtype`` never
force — shape and type are known at build time.
"""
from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from ..machine.model import CapabilityError, Machine
from .lazy import LazyNode, compile_plan

__all__ = ["Vector"]

Scalar = Union[int, float, bool, np.integer, np.floating, np.bool_]


class Vector:
    """A one-dimensional parallel vector owned by a machine.

    Parameters
    ----------
    machine:
        The machine charged for operations on this vector.
    data:
        Any 1-D array-like.  The public constructor always copies, so a
        caller's array can never be aliased by an immutable vector.
        Arrays freshly produced by an execution backend are adopted
        in place — no copy — through the internal :meth:`_adopt` path,
        which every primitive uses for its result.
    """

    __slots__ = ("machine", "_storage", "_expr")

    def __init__(self, machine: Machine, data) -> None:
        arr = np.array(data, copy=True)
        if arr.ndim != 1:
            raise ValueError(f"Vector must be 1-D, got shape {arr.shape}")
        arr.setflags(write=False)
        self.machine = machine
        self._storage = arr
        self._expr = None

    @classmethod
    def _adopt(cls, machine: Machine, arr: np.ndarray) -> "Vector":
        """Internal no-copy constructor: wrap an array the caller owns —
        one freshly allocated by a backend, or a view of an already
        immutable buffer — saving one allocation per primitive.  Never
        pass an array someone else may still write through."""
        if arr.ndim != 1:
            raise ValueError(f"Vector must be 1-D, got shape {arr.shape}")
        arr.setflags(write=False)
        self = object.__new__(cls)
        self.machine = machine
        self._storage = arr
        self._expr = None
        return self

    @classmethod
    def _defer(cls, machine: Machine, node: LazyNode) -> "Vector":
        """Internal lazy constructor: wrap a pending expression node whose
        value materializes on first observation (see :attr:`_data`)."""
        self = object.__new__(cls)
        self.machine = machine
        self._storage = None
        self._expr = node
        return self

    # ------------------------------------------------------------------ #
    # Introspection (free: no machine steps)
    # ------------------------------------------------------------------ #

    @property
    def _data(self) -> np.ndarray:
        """The underlying array, **forcing** any pending lazy expression.

        Every observable boundary reads through here: the pending DAG is
        compiled into one :class:`~repro.backends.plan.FusedPlan` and
        executed by the backend as a single ``fused_pipeline`` primitive.
        No steps are charged — the machine was charged op by op when the
        expression was built.  Forcing is idempotent (the node caches its
        result)."""
        node = self._expr
        if node is not None:
            if node.result is None:
                plan = compile_plan(node)
                out = self.machine.execute_fused(plan)
                out.setflags(write=False)
                node.result = out
            self._storage = node.result
            self._expr = None
        return self._storage

    def _operand(self):
        """This vector as a lazy-DAG operand: its pending node while
        deferred, its materialized array otherwise."""
        return self._expr if self._expr is not None else self._storage

    def _pending_node(self) -> Optional[LazyNode]:
        """The pending expression node, or ``None`` once materialized
        (used by scans to fuse a terminal onto the chain)."""
        node = self._expr
        return node if node is not None and node.result is None else None

    @property
    def data(self) -> np.ndarray:
        """The read-only underlying array (no copy; forces)."""
        return self._data

    @property
    def dtype(self) -> np.dtype:
        """Element dtype (known at build time; never forces)."""
        if self._expr is not None:
            return self._expr.dtype
        return self._storage.dtype

    def __len__(self) -> int:
        if self._expr is not None:
            return self._expr.n
        return len(self._storage)

    def to_array(self) -> np.ndarray:
        """A mutable copy of the contents."""
        return self._data.copy()

    def to_list(self) -> list:
        return self._data.tolist()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Vector({self._data.tolist()!r})"

    def __eq__(self, other) -> "Vector":  # type: ignore[override]
        return self._elementwise(np.equal, self, other)

    def __ne__(self, other) -> "Vector":  # type: ignore[override]
        return self._elementwise(np.not_equal, self, other)

    def __hash__(self):  # vectors are containers, not keys
        raise TypeError("Vector is unhashable")

    def _wrap(self, arr: np.ndarray) -> "Vector":
        return Vector._adopt(self.machine, arr)

    def _check_same_machine(self, other: "Vector") -> None:
        if other.machine is not self.machine:
            raise ValueError("vectors live on different machines")
        if len(other) != len(self):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")

    # ------------------------------------------------------------------ #
    # Elementwise operations (one program step each)
    # ------------------------------------------------------------------ #

    def _elementwise(self, func: Callable, *operands) -> "Vector":
        """The one elementwise seam: ``func`` over ``operands`` in call
        order — ``self`` among them, other Vectors, arrays, scalars; a
        reflected operator (``3 - v``) passes its scalar first.

        Checks that every Vector operand shares this machine and length,
        charges one elementwise step, then either runs ``func`` through
        :meth:`Machine.execute` or — on an engine that fuses — defers it
        as one :class:`~repro.core.lazy.LazyNode`.  A deferred node's
        non-Vector array operands are snapshotted as frozen length-``n``
        copies (broadcast as NumPy would eagerly), so neither a later
        write through the caller's buffer nor a list or length-1 operand
        can make the deferred value differ from the eager one."""
        machine = self.machine
        eager = not machine.fusion_enabled
        args = []
        for a in operands:
            if isinstance(a, Vector):
                if a is not self:
                    self._check_same_machine(a)
                a = a._data if eager else a._operand()
            args.append(a)
        n = len(self)
        machine.charge_elementwise(n)
        if eager:
            if len(args) == 2:
                # the common arity goes positionally: CPython 3.11 does
                # not inline a star-call, a cost small vectors notice
                out = machine.execute("elementwise", func, args[0], args[1],
                                      inject="elementwise")
            else:
                out = machine.execute("elementwise", func, *args,
                                      inject="elementwise")
            return Vector._adopt(machine, out)
        for i, a in enumerate(operands):
            if not isinstance(a, Vector):
                args[i] = _frozen(a, n)
        return Vector._defer(machine, LazyNode(func, tuple(args), n))

    def __add__(self, other) -> "Vector":
        return self._elementwise(np.add, self, other)

    def __radd__(self, other) -> "Vector":
        return self._elementwise(np.add, other, self)

    def __sub__(self, other) -> "Vector":
        return self._elementwise(np.subtract, self, other)

    def __rsub__(self, other) -> "Vector":
        return self._elementwise(np.subtract, other, self)

    def __mul__(self, other) -> "Vector":
        return self._elementwise(np.multiply, self, other)

    def __rmul__(self, other) -> "Vector":
        return self._elementwise(np.multiply, other, self)

    def __truediv__(self, other) -> "Vector":
        return self._elementwise(np.true_divide, self, other)

    def __rtruediv__(self, other) -> "Vector":
        return self._elementwise(np.true_divide, other, self)

    def __floordiv__(self, other) -> "Vector":
        return self._elementwise(np.floor_divide, self, other)

    def __rfloordiv__(self, other) -> "Vector":
        return self._elementwise(np.floor_divide, other, self)

    def __mod__(self, other) -> "Vector":
        return self._elementwise(np.mod, self, other)

    def __rmod__(self, other) -> "Vector":
        return self._elementwise(np.mod, other, self)

    def __neg__(self) -> "Vector":
        return self._elementwise(np.negative, self)

    def __abs__(self) -> "Vector":
        return self._elementwise(np.abs, self)

    def __lt__(self, other) -> "Vector":
        return self._elementwise(np.less, self, other)

    def __le__(self, other) -> "Vector":
        return self._elementwise(np.less_equal, self, other)

    def __gt__(self, other) -> "Vector":
        return self._elementwise(np.greater, self, other)

    def __ge__(self, other) -> "Vector":
        return self._elementwise(np.greater_equal, self, other)

    def __and__(self, other) -> "Vector":
        if self.dtype == np.bool_:
            return self._elementwise(np.logical_and, self, other)
        return self._elementwise(np.bitwise_and, self, other)

    def __or__(self, other) -> "Vector":
        if self.dtype == np.bool_:
            return self._elementwise(np.logical_or, self, other)
        return self._elementwise(np.bitwise_or, self, other)

    def __xor__(self, other) -> "Vector":
        if self.dtype == np.bool_:
            return self._elementwise(np.logical_xor, self, other)
        return self._elementwise(np.bitwise_xor, self, other)

    def __invert__(self) -> "Vector":
        if self.dtype == np.bool_:
            return self._elementwise(np.logical_not, self)
        return self._elementwise(np.bitwise_not, self)

    def __rshift__(self, other) -> "Vector":
        return self._elementwise(np.right_shift, self, other)

    def __lshift__(self, other) -> "Vector":
        return self._elementwise(np.left_shift, self, other)

    def minimum(self, other) -> "Vector":
        """Elementwise minimum with a vector or scalar."""
        return self._elementwise(np.minimum, self, other)

    def maximum(self, other) -> "Vector":
        """Elementwise maximum with a vector or scalar."""
        return self._elementwise(np.maximum, self, other)

    def bit(self, i: int) -> "Vector":
        """The paper's ``A<i>``: extract bit ``i`` of each element as a flag."""
        return self._elementwise(lambda a: ((a >> i) & 1).astype(bool),
                                 self)

    def astype(self, dtype) -> "Vector":
        """Convert element type (e.g. flags to 0/1 integers); one step."""
        return self._elementwise(lambda a: a.astype(dtype), self)

    def where(self, if_true: Union["Vector", Scalar], if_false: Union["Vector", Scalar]) -> "Vector":
        """``if self then if_true else if_false`` elementwise; ``self`` must
        be a flag vector.  One program step."""
        if self.dtype != np.bool_:
            raise TypeError("where() requires a boolean flag vector")
        return self._elementwise(np.where, self, if_true, if_false)

    # ------------------------------------------------------------------ #
    # Communication operations
    # ------------------------------------------------------------------ #

    def permute(self, index: "Vector", *, length: Optional[int] = None,
                default: Scalar = 0) -> "Vector":
        """``permute(A, I)``: write each element to position ``index[i]``.

        Indices must be unique (an exclusive write; Section 2.1).  The
        destination may be longer than the source (``length``), in which case
        unwritten cells hold ``default``.  One program step.
        """
        self._check_same_machine(index)
        idx = index._data
        n_out = length if length is not None else len(self)
        if len(idx) and (idx.min() < 0 or idx.max() >= n_out):
            raise IndexError(
                f"permute index out of range [0, {n_out}): "
                f"[{idx.min() if len(idx) else ''}, {idx.max() if len(idx) else ''}]"
            )
        if len(np.unique(idx)) != len(idx):
            raise CapabilityError(
                "permute requires unique indices (exclusive write); use "
                "combine_write for colliding destinations"
            )
        self.machine.charge_permute(max(len(self), n_out))
        out = self.machine.execute("permute", self._data, idx, n_out, default,
                                   inject="permute")
        return self._wrap(out)

    def gather(self, index: "Vector") -> "Vector":
        """``A[I]``: each processor reads the cell named by its index.

        Duplicate indices are a concurrent read — illegal on EREW and scan
        machines (a :class:`CapabilityError`).  One program step.
        """
        self._check_same_machine_any_length(index)
        idx = index._data
        if len(idx) and (idx.min() < 0 or idx.max() >= len(self)):
            raise IndexError("gather index out of range")
        unique = len(np.unique(idx)) == len(idx)
        self.machine.charge_gather(max(len(self), len(idx)), unique=unique)
        return self._wrap(self.machine.execute("gather", self._data, idx))

    def _check_same_machine_any_length(self, other: "Vector") -> None:
        if other.machine is not self.machine:
            raise ValueError("vectors live on different machines")

    def combine_write(self, index: "Vector", *, length: int, op: str = "min",
                      default: Scalar = 0) -> "Vector":
        """Scatter with colliding destinations, combining with ``op``.

        ``op`` is ``"min"``, ``"max"``, ``"sum"`` or ``"any"`` (the paper's
        "one of the values gets written").  This is the extended-CRCW write;
        on other models it raises unless the machine was created with
        ``allow_concurrent_write=True``.  One program step.
        """
        self._check_same_machine_any_length(index)
        idx = index._data
        if len(idx) != len(self):
            raise ValueError("index vector must match data vector length")
        if len(idx) and (idx.min() < 0 or idx.max() >= length):
            raise IndexError("combine_write index out of range")
        self.machine.charge_combine_write(max(len(self), length))
        out = self.machine.execute("combine_write", self._data, idx, length,
                                   op, default)
        return self._wrap(out)

    def reverse(self) -> "Vector":
        """Read the vector in reverse processor order (used for backward
        scans, Section 3.4).  One permutation step."""
        self.machine.charge_permute(len(self))
        return self._wrap(self.machine.execute("reverse", self._data))

    def shift(self, k: int, fill: Scalar = 0) -> "Vector":
        """Shift the vector ``k`` places toward higher indices (``k < 0``
        shifts down); vacated cells hold ``fill``.

        A shift is each processor sending its value to a fixed neighbor —
        one permutation step.  This is the "look at the previous element"
        idiom of the paper's quicksort sortedness check and segment-flag
        insertion.
        """
        self.machine.charge_permute(len(self))
        return self._wrap(self.machine.execute("shift", self._data, k, fill))

    # ------------------------------------------------------------------ #
    # Single-cell access (one memory reference)
    # ------------------------------------------------------------------ #

    def get(self, i: int):
        """Read one cell (a single memory reference; one step)."""
        self.machine.counter.charge("memory", 1)
        return self._data[int(i)].item()

    def first(self):
        """Read the first element (one memory reference)."""
        return self.get(0)

    def last(self):
        """Read the last element (one memory reference)."""
        return self.get(len(self) - 1)


def _frozen(operand, n: int):
    """A non-Vector operand of a deferred node: a scalar as is, any other
    array-like as a frozen length-``n`` copy, broadcast as NumPy would
    broadcast it eagerly."""
    if not isinstance(operand, np.ndarray) and np.ndim(operand) == 0:
        return operand
    arr = np.array(np.broadcast_to(operand, (n,)))
    arr.setflags(write=False)
    return arr
