"""The carry table: every carry-bearing primitive, written down once.

The paper's long-vector simulation (Figure 10) is a single algorithm:
scan each block locally, combine the block carries, then fold each
block's incoming carry back in.  This module holds that algebra for the
five carry-bearing primitives — ``plus_scan``, ``max_scan``, the
segmented ``seg_plus`` and ``seg_extreme`` scans, and ``reduce`` — as one
:class:`CarryOp` each, with four parts:

* ``local(values, flags, out) -> carry`` — the block's own scan, written
  into the ``out`` slice the caller provides (``local`` allocates no
  output of its own), returning the block's carry-out;
* ``combine(a, b)`` — the associative carry monoid (``a`` precedes ``b``);
* ``identity`` — that monoid's two-sided identity;
* ``apply(out, flags, carry)`` — fold an incoming carry into a block that
  ``local`` wrote; ``is_noop(carry, flags)`` says when that would change
  nothing, so a schedule may skip it.

Three schedules run the same table:

* :func:`fold` — the sequential left-to-right fold of the blocked backend
  and of the native backend without Numba, which is also how both run a
  fused elementwise chain ending in a scan (:func:`run_plan`);
* the native backend's compiled two-phase sweep — upsweep kernels make
  the block carries, :func:`exclusive` scans them on the host through
  ``combine``, downsweep kernels seed every block with its carry-in;
* the cluster (:mod:`repro.cluster`) — workers run ``local`` and ``apply``
  on shared-memory shards, and the supervisor combines the shard carries
  with Träff's round-efficient exclusive exchange.

So every schedule shares one set of conventions.  Integer carries wrap
modulo ``2**width``.  Extreme carries order NaN exactly as the in-block
code does: ``np.maximum`` (NaN absorbs) for max, and ``np.fmin`` (NaN as a
largest value, like the in-block packed key and doubling scan) for
segmented min — see ``docs/verification.md``.  Segmented carries are
``(value, has_head)`` pairs whose combine is "a head resets the carry".
Integer and boolean results are therefore bit-identical to one
whole-vector pass; float ``+``-carries re-associate, exactly as a real
blocked machine's would.  Blocks are never empty.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .numpy_backend import _REDUCERS, _exclusive_cumsum, _seg_running_extreme

__all__ = ["CarryOp", "MaxScan", "PRIMITIVES", "PlusScan", "Reduce",
           "SegExtreme", "SegPlus", "TABLE", "blocks", "carry_op",
           "exclusive", "fold", "run_plan"]


def _add(a, b, dtype):
    with np.errstate(over="ignore"):  # modular carries wrap by design
        return np.add(a, b, dtype=dtype)


def _leading_run(flags: np.ndarray) -> int:
    """Length of the block's leading run: the elements before its first
    segment head, which continue a segment opened in an earlier block."""
    first = int(np.argmax(flags))
    return first if flags[first] else len(flags)


class CarryOp:
    """One carry-bearing primitive (see the module docstring).

    ``identity`` is the *scan's* identity (``max_scan`` and the segmented
    extreme scans fill with it), kept as :attr:`fill`; the carry monoid's
    own identity is :attr:`identity`.  ``reduce_op`` names a reduction.
    """

    name = ""

    def __init__(self, dtype, identity=None, *, is_max: bool = False,
                 reduce_op: Optional[str] = None) -> None:
        self.dtype = np.dtype(dtype)
        self.fill = (None if identity is None
                     else np.asarray(identity, dtype=self.dtype)[()])
        self.is_max = is_max
        self.reduce_op = reduce_op
        self.identity = self._identity()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.dtype}, fill={self.fill!r})"


class PlusScan(CarryOp):
    """Exclusive ``+``-scan; the carry is the block sum."""

    name = "plus_scan"

    def _identity(self):
        return self.dtype.type(0)

    def local(self, values, flags, out):
        out[0] = 0
        with np.errstate(over="ignore"):
            np.cumsum(values[:-1], out=out[1:])
        return _add(out[-1], values[-1], self.dtype)

    def combine(self, a, b):
        return _add(a, b, self.dtype)

    def apply(self, out, flags, carry) -> None:
        with np.errstate(over="ignore"):
            out += carry

    def is_noop(self, carry, flags) -> bool:
        return bool(carry == 0)


class MaxScan(CarryOp):
    """Exclusive max-scan clamped to the scan identity; the carry is the
    block max folded with it, so the chain starts at the identity."""

    name = "max_scan"

    def _identity(self):
        return self.fill

    def local(self, values, flags, out):
        out[0] = self.fill
        np.maximum.accumulate(values[:-1], out=out[1:])
        np.maximum(out[1:], self.fill, out=out[1:])
        # np.maximum, not Python max: the carry must propagate NaN exactly
        # as the in-block accumulate does
        return np.maximum(out[-1], values[-1])

    def combine(self, a, b):
        return np.maximum(a, b)

    def apply(self, out, flags, carry) -> None:
        np.maximum(out, carry, out=out)

    def is_noop(self, carry, flags) -> bool:
        return bool(carry == self.fill)  # NaN compares False: apply it


class SegPlus(CarryOp):
    """Segmented exclusive ``+``-scan; the carry is ``(sum since the
    block's last head — the whole block when it has none, has_head)``."""

    name = "seg_plus"

    def _identity(self):
        return (self.dtype.type(0), False)

    def local(self, values, flags, out):
        with np.errstate(over="ignore"):
            ex = _exclusive_cumsum(values)
            heads = np.flatnonzero(flags)
            # offsets[i]: what local segment i subtracts from the block's
            # exclusive sums; the leading run subtracts nothing (its
            # incoming carry arrives through apply)
            offsets = np.empty(len(heads) + 1, dtype=self.dtype)
            offsets[0] = 0
            offsets[1:] = ex[heads]
            np.subtract(ex, offsets[np.cumsum(flags)], out=out)
            tail = values[heads[-1]:] if len(heads) else values
            return (tail.sum(dtype=self.dtype), bool(len(heads)))

    def combine(self, a, b):
        if b[1]:
            return b
        return (_add(a[0], b[0], self.dtype), a[1])

    def apply(self, out, flags, carry) -> None:
        run = _leading_run(flags)
        with np.errstate(over="ignore"):
            out[:run] += carry[0]

    def is_noop(self, carry, flags) -> bool:
        return bool(flags[0]) or bool(carry[0] == 0)


class SegExtreme(CarryOp):
    """Segmented exclusive max- or min-scan; the carry is ``(extreme since
    the block's last head, has_head)``, with ``None`` for "nothing scanned
    yet" (the monoid identity)."""

    name = "seg_extreme"

    def _identity(self):
        return (None, False)

    def _extreme(self, a, b, out=None):
        return (np.maximum if self.is_max else np.fmin)(a, b, out=out)

    def local(self, values, flags, out):
        heads = flags
        if not flags[0]:
            # _seg_running_extreme needs a head at position 0; opening the
            # leading run as its own segment shifts every relative
            # segment id by one without moving any boundary
            heads = flags.copy()
            heads[0] = True
        _seg_running_extreme(values, heads, self.fill, is_max=self.is_max,
                             out=out)
        last = np.flatnonzero(flags)
        tail = values[last[-1]:] if len(last) else values
        extreme = tail.max() if self.is_max else np.fmin.reduce(tail)
        return (extreme, bool(len(last)))

    def combine(self, a, b):
        if b[1] or a[0] is None:
            return b
        if b[0] is None:
            return a
        return (self._extreme(a[0], b[0]), a[1])

    def apply(self, out, flags, carry) -> None:
        """The leading run's first element has no in-block prefix, so it
        takes the carry alone (the identity fill must not clamp it)."""
        if self.is_noop(carry, flags):
            return
        run = out[:_leading_run(flags)]
        self._extreme(run, carry[0], out=run)
        out[0] = carry[0]

    def is_noop(self, carry, flags) -> bool:
        return carry[0] is None or bool(flags[0])


#: the ufunc that combines two partials of each reduction
_REDUCE_UFUNCS = {"sum": np.add, "max": np.maximum, "min": np.minimum,
                  "any": np.logical_or, "all": np.logical_and}


class Reduce(CarryOp):
    """A reduction: the carry is the block's partial, nothing is applied
    back.  Partials combine through the reduction's own binary ufunc, so
    they keep the dtype ``np.sum`` & co. give a whole vector (``sum`` of
    ``uint8`` is ``uint64``, of nothing a typed zero).  ``max``/``min``
    have no typed identity; ``None`` stands for "nothing reduced yet"."""

    name = "reduce"

    def _identity(self):
        if self.reduce_op in ("max", "min"):
            return None
        return _REDUCERS[self.reduce_op](np.empty(0, dtype=self.dtype))

    def local(self, values, flags, out):
        return _REDUCERS[self.reduce_op](values)

    def combine(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        with np.errstate(over="ignore"):
            return _REDUCE_UFUNCS[self.reduce_op](a, b)

    def apply(self, out, flags, carry) -> None:
        pass

    def is_noop(self, carry, flags) -> bool:
        return True


#: the carry table, by primitive name
TABLE = {op.name: op for op in (PlusScan, MaxScan, SegPlus, SegExtreme,
                                Reduce)}

#: the :class:`~repro.backends.Backend` methods the table serves
PRIMITIVES = frozenset(("plus_scan", "max_scan", "seg_plus_scan",
                        "seg_extreme_scan", "reduce"))


def carry_op(name: str, dtype, identity=None, *, is_max: bool = False,
             reduce_op: Optional[str] = None) -> CarryOp:
    """The table entry for primitive ``name`` over ``dtype``."""
    try:
        cls = TABLE[name]
    except KeyError:
        raise ValueError(f"unknown carry op {name!r}; "
                         f"expected one of {sorted(TABLE)}") from None
    return cls(dtype, identity, is_max=is_max, reduce_op=reduce_op)


def blocks(n: int, step: int) -> Iterator[tuple[int, int]]:
    """The ``(start, stop)`` bounds of ``n`` rows cut into ``step``-sized
    blocks (the last one shorter)."""
    for s in range(0, n, step):
        yield s, min(s + step, n)


def fold(op: CarryOp, bounds: Iterable, rows: Callable, flags=None,
         out=None):
    """The sequential schedule: for each block ``(s, e)`` of ``bounds`` in
    order, ``local``, then ``apply`` of the carry so far, then ``combine``.

    ``rows(s, e)`` supplies the input rows ``[s, e)`` — a slice of an
    array, or a fused chain evaluated on just those rows.  Returns the
    total carry (the reduction's value, for ``reduce``).
    """
    carry = op.identity
    for s, e in bounds:
        f = None if flags is None else flags[s:e]
        o = None if out is None else out[s:e]
        block = op.local(rows(s, e), f, o)
        if not op.is_noop(carry, f):
            op.apply(o, f, carry)
        carry = op.combine(carry, block)
    return carry


def run_plan(plan, bounds: Iterable) -> np.ndarray:
    """Evaluate a :class:`~repro.backends.plan.FusedPlan` block by block.

    Each block ``(s, e)`` of ``bounds`` evaluates the whole chain on its
    own rows (:meth:`FusedPlan.rows`), so chain temporaries stay
    block-sized at any vector length.  Without a terminal scan the blocks
    fill the output in order; with one, they feed the scan's :func:`fold`
    directly, so ``plus_scan(a*b + c)`` makes one pass over each block.
    The fold is the eager scans' own, so the result is bit-identical to
    evaluating the chain and then scanning it over the same blocks.
    """
    out = np.empty(plan.n, dtype=plan.root_dtype)
    if plan.terminal is None:
        for s, e in bounds:
            out[s:e] = plan.rows(s, e)
    else:
        fold(carry_op(plan.terminal, out.dtype, *plan.terminal_args),
             bounds, plan.rows, out=out)
    return out


def exclusive(op: CarryOp, carries) -> tuple:
    """The exclusive scan of a sequence of block carries through
    ``combine``: ``(carry-in of each block, total)``."""
    ins = []
    acc = op.identity
    for c in carries:
        ins.append(acc)
        acc = op.combine(acc, c)
    return ins, acc
