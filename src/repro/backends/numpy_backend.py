"""The default backend: one vectorized NumPy expression per primitive.

This is the execution substrate the repository has always used, factored
out of :mod:`repro.core` verbatim — results and (since backends charge
nothing) step counts are bit-identical to the pre-backend code.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .base import Backend

__all__ = ["NumPyBackend"]


def _seg_ids(sf: np.ndarray) -> np.ndarray:
    """0-based segment number of each element (inclusive +-scan of flags,
    -1), as int64 in one allocation (``np.cumsum(sf, dtype=np.int64)``
    would first cast the flags into a second int64 array)."""
    ids = sf.astype(np.int64)
    np.cumsum(ids, out=ids)
    ids -= 1
    return ids


def _exclusive_cumsum(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums **in the input's dtype** (narrow ints wrap).

    ``np.concatenate(([0], cumsum))`` would be wrong here: ``np.cumsum``
    promotes unsigned inputs to uint64, concatenating that with the int64
    ``[0]`` promotes everything to float64, and a float -> unsigned cast of
    an out-of-range value is undefined behavior (it yields 0 on x86).
    Building the array in the cumsum's own dtype keeps every cast
    integer-to-integer, which wraps modulo ``2**width`` as documented.
    """
    cs = np.cumsum(values)
    ex = np.empty(len(values), dtype=cs.dtype)
    ex[0] = 0
    ex[1:] = cs[:-1]
    return ex.astype(values.dtype, copy=False)


#: the packed key ``seg_id * R + offset`` must stay clear of int64's sign
#: bit, with a bit to spare: Figure 16's form runs only while
#: ``segments * R`` is below this
_PACK_LIMIT = 1 << 62


def _seg_running_extreme(v: np.ndarray, sf: np.ndarray, identity, *,
                         is_max: bool, out=None) -> np.ndarray:
    """Exclusive per-segment running max (or min), written into ``out``
    when given.  ``sf[0]`` must be set (every segmented entry point
    checks it).

    Integer and boolean lanes take the Figure 16 method: the segment
    number goes in the bits above each value's offset in ``[lo, hi]`` and
    one unsegmented running max does the whole scan (:func:`_packed`).
    Floats, and integers whose packed key would not fit in 63 bits, take
    a segmented Hillis-Steele doubling scan instead (:func:`_doubling`).

    Both forms order NaN the same way: max absorbs it (``np.maximum``),
    min orders it as the largest value (``np.fmin``), so a segment's
    running min is NaN only while every element so far is NaN.  Heads
    get ``identity``, written last: the scan itself never combines with
    it, so it clamps nothing and cannot turn a NaN prefix into
    ``fmin(identity, nan)``."""
    n = len(v)
    if n == 0:
        return v.copy() if out is None else out
    if out is None:
        out = np.empty_like(v)
    if not (v.dtype.kind in "biu" and _packed(v, sf, is_max, out)):
        _doubling(v, sf, is_max, out)
    out[sf] = np.asarray(identity, dtype=v.dtype)
    return out


def _packed(v: np.ndarray, sf: np.ndarray, is_max: bool,
            out: np.ndarray) -> bool:
    """Figure 16 on integer lanes: key ``seg_id * R + (v - lo)`` for max,
    ``seg_id * R + (hi - v)`` for min, with ``R = hi - lo + 1``.  Keys
    grow with the segment number, so one inclusive running max of the
    keys stays inside each element's own segment; subtracting
    ``seg_id * R`` back out leaves the offset of the segment's extreme
    so far.  Element ``i`` then takes element ``i - 1``'s inclusive
    result (heads are overwritten by the caller).  Returns ``False``,
    having written nothing, when ``segments * R`` reaches
    :data:`_PACK_LIMIT`."""
    lo, hi = int(v.min()), int(v.max())
    span = hi - lo + 1
    if int(np.count_nonzero(sf)) * span >= _PACK_LIMIT:
        return False
    # unsigned lanes subtract in uint64, so values >= 2**63 never pass
    # through an int64 cast; every offset is below 2**62, where the two
    # words share their bits
    wide = np.dtype(np.uint64 if v.dtype.kind == "u" else np.int64)
    key = v.astype(wide)
    if is_max:
        np.subtract(key, wide.type(lo), out=key)
    else:
        np.subtract(wide.type(hi), key, out=key)
    key = key.view(np.int64)
    base = _seg_ids(sf)
    base *= span
    key += base
    np.maximum.accumulate(key, out=key)
    key -= base
    offsets = key[:-1].view(wide)
    if is_max:
        np.add(offsets, wide.type(lo), out=out[1:], casting="unsafe")
    else:
        np.subtract(wide.type(hi), offsets, out=out[1:], casting="unsafe")
    return True


def _doubling(v: np.ndarray, sf: np.ndarray, is_max: bool,
              out: np.ndarray) -> None:
    """Segmented Hillis-Steele scan: the inclusive extreme of ``v[:-1]``
    built in ``out[1:]`` by ``ceil(lg L)`` doubling passes, ``L`` the
    longest segment.  Pass ``k`` combines each element with the one
    ``k`` back only where that source lies in the element's own segment
    (its distance to the segment head is at least ``k``)."""
    n = len(v)
    dist = np.arange(n - 1, dtype=np.int64)
    head = np.where(sf[:-1], dist, 0)
    np.maximum.accumulate(head, out=head)
    dist -= head
    del head
    x = out[1:]
    x[...] = v[:-1]
    extreme = np.maximum if is_max else np.fmin
    longest = int(dist.max()) + 1 if n > 1 else 0
    k = 1
    while k < longest:
        extreme(x[:-k], x[k:], out=x[k:], where=dist[k:] >= k)
        k *= 2


_REDUCERS = {"sum": np.sum, "max": np.max, "min": np.min,
             "any": np.any, "all": np.all}

_SEG_REDUCERS = {"sum": np.add, "max": np.maximum, "min": np.minimum,
                 "or": np.logical_or, "and": np.logical_and}


class NumPyBackend(Backend):
    """Whole-vector execution; every primitive is one NumPy expression."""

    name = "numpy"

    def temp_bytes(self, op: str, out_bytes: int, itemsize: int = 8) -> int:
        """Whole-vector temporaries: every NumPy expression materializes
        intermediates the size of the result (the base estimate).  The
        segmented extreme scan holds two int64 words per element whatever
        the lane width: the packed key and the segment base, or the
        doubling scan's head distance while the heads are found.  Its
        passes then hold the distance, a one-byte mask and NumPy's copy
        of the overlapping operand, one lane wide."""
        if op == "seg_extreme_scan":
            return out_bytes // itemsize * max(16, 9 + itemsize)
        return super().temp_bytes(op, out_bytes, itemsize)

    # -------------------------- elementwise --------------------------- #

    def elementwise(self, fn: Callable, *operands) -> np.ndarray:
        return fn(*operands)

    def adjacent_ne(self, values: np.ndarray) -> np.ndarray:
        changed = np.empty(len(values), dtype=bool)
        if len(values):
            changed[0] = True
            changed[1:] = values[1:] != values[:-1]
        return changed

    # ----------------------------- scans ------------------------------ #

    def plus_scan(self, values: np.ndarray) -> np.ndarray:
        out = np.empty_like(values)
        if len(values):
            out[0] = 0
            np.cumsum(values[:-1], out=out[1:])
        return out

    def max_scan(self, values: np.ndarray, identity) -> np.ndarray:
        out = np.empty_like(values)
        if len(values):
            out[0] = identity
            np.maximum.accumulate(values[:-1], out=out[1:])
            np.maximum(out[1:], identity, out=out[1:])
        return out

    # ------------------------- communication -------------------------- #

    def permute(self, values: np.ndarray, index: np.ndarray, length: int,
                default) -> np.ndarray:
        out = np.full(length, default, dtype=values.dtype)
        out[index] = values
        return out

    def gather(self, values: np.ndarray, index: np.ndarray) -> np.ndarray:
        return values[index]

    def combine_write(self, values: np.ndarray, index: np.ndarray,
                      length: int, op: str, default) -> np.ndarray:
        if op == "min" or op == "max":
            # start every cell at the op's identity, reduce, then restore
            # the default where nothing was written
            ufunc = np.minimum if op == "min" else np.maximum
            if np.issubdtype(values.dtype, np.integer):
                info = np.iinfo(values.dtype)
                start = info.max if op == "min" else info.min
            else:
                start = np.inf if op == "min" else -np.inf
            out = np.full(length, start, dtype=values.dtype)
            ufunc.at(out, index, values)
            untouched = np.ones(length, dtype=bool)
            untouched[index] = False
            out[untouched] = np.asarray(default, dtype=values.dtype)
        elif op == "sum":
            out = np.zeros(length, dtype=values.dtype)
            np.add.at(out, index, values)
        elif op == "any":
            out = np.full(length, default, dtype=values.dtype)
            out[index] = values  # last writer wins: an arbitrary-winner write
        else:
            raise ValueError(f"unknown combine op {op!r}")
        return out

    def pack(self, values: np.ndarray, flags: np.ndarray,
             index: np.ndarray, count: int) -> np.ndarray:
        out = np.empty(count, dtype=values.dtype)
        out[index[flags]] = values[flags]
        return out

    def shift(self, values: np.ndarray, k: int, fill) -> np.ndarray:
        n = len(values)
        out = np.full(n, fill, dtype=values.dtype)
        if k >= 0:
            if k < n:
                out[k:] = values[: n - k]
        else:
            if -k < n:
                out[: n + k] = values[-k:]
        return out

    def reverse(self, values: np.ndarray) -> np.ndarray:
        return values[::-1]

    # ------------------------ broadcast / reduce ----------------------- #

    def full(self, length: int, value, dtype) -> np.ndarray:
        return np.full(length, value, dtype=dtype)

    def reduce(self, values: np.ndarray, op: str):
        return _REDUCERS[op](values)

    # ---------------------------- segmented ---------------------------- #

    def segment_ids(self, seg_flags: np.ndarray) -> np.ndarray:
        return _seg_ids(seg_flags)

    def seg_plus_scan(self, values: np.ndarray,
                      seg_flags: np.ndarray) -> np.ndarray:
        if len(values) == 0:
            return values.copy()
        ex = _exclusive_cumsum(values)
        s = _seg_ids(seg_flags)
        head_offsets = ex[np.flatnonzero(seg_flags)]
        return ex - head_offsets[s]

    def seg_extreme_scan(self, values: np.ndarray, seg_flags: np.ndarray,
                         identity, *, is_max: bool) -> np.ndarray:
        return _seg_running_extreme(values, seg_flags, identity, is_max=is_max)

    def seg_copy(self, values: np.ndarray,
                 seg_flags: np.ndarray) -> np.ndarray:
        if len(values) == 0:
            return values.copy()
        s = _seg_ids(seg_flags)
        return values[np.flatnonzero(seg_flags)][s]

    def seg_back_copy(self, values: np.ndarray,
                      seg_flags: np.ndarray) -> np.ndarray:
        if len(values) == 0:
            return values.copy()
        s = _seg_ids(seg_flags)
        heads = np.flatnonzero(seg_flags)
        tails = np.append(heads[1:], len(values)) - 1
        return values[tails][s]

    def seg_distribute(self, values: np.ndarray, seg_flags: np.ndarray,
                       op: str) -> np.ndarray:
        if len(values) == 0:
            return values.copy()
        heads = np.flatnonzero(seg_flags)
        s = _seg_ids(seg_flags)
        per_segment = _SEG_REDUCERS[op].reduceat(values, heads)
        return per_segment[s].astype(values.dtype, copy=False)
