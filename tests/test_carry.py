"""The carry table's laws (repro.backends.carry).

Every schedule — blocked's sequential fold, native's two-phase sweep, the
cluster's sharded exchange — is only correct if each table entry is a
monoid whose fold over *any* block split reproduces the whole-vector
answer.  Hypothesis draws vectors at the dtype boundaries where carry
bugs live (uint8/int8 wraparound, int64 overflow, floats with NaN, ±inf
and signed zeros, including the seg-min ``np.fmin`` NaN ordering) and
arbitrary split points, then checks:

* ``combine`` is associative on real block carries;
* ``identity`` is a two-sided identity for them;
* :func:`fold` over the split equals the numpy engine — bit-exact for
  integers; ``array_equal(equal_nan=True)`` for floats, which is the
  verifier's own contract (NaN in the same slot, ±0 equal).

Float ``+`` values are small dyadic numbers, so every partial sum is
exact and re-association cannot round; ``seg_plus`` floats also stay
finite, since its subtract-offset construction turns ``inf - inf`` into
NaN at engine-specific places.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import NumPyBackend
from repro.backends.carry import (TABLE, MaxScan, PlusScan, Reduce,
                                  SegExtreme, SegPlus, blocks, carry_op, fold)

_NP = NumPyBackend()

INT_DTYPES = ["uint8", "int8", "int64"]
DYADIC = [0.0, -0.0, 1.0, -1.5, 2.5, 0.25]
SPECIALS = [np.nan, np.inf, -np.inf]


def _elements(dtype, specials=True):
    if dtype == "float64":
        return st.sampled_from(DYADIC + (SPECIALS if specials else []))
    info = np.iinfo(dtype)
    return st.one_of(st.integers(info.min, info.max),
                     st.sampled_from([info.min, info.max, 0, 1]))


def _same(a, b) -> bool:
    """Carry / result equality: tuples and ``None`` structurally, arrays
    and scalars by dtype and value, NaN equal to NaN, ±0 equal."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return (isinstance(a, tuple) and isinstance(b, tuple)
                and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=a.dtype.kind == "f"))


@st.composite
def cases(draw):
    """``(op, values, flags, bounds, expected result)`` for one entry."""
    name = draw(st.sampled_from(sorted(TABLE)))
    dtype = draw(st.sampled_from(INT_DTYPES + ["float64"]))
    values = np.array(draw(st.lists(
        _elements(dtype, specials=name != "seg_plus"),
        min_size=1, max_size=40)), dtype=dtype)
    n = len(values)
    # sparse heads, so open segments span several blocks
    flags = np.zeros(n, dtype=bool)
    flags[list(draw(st.sets(st.integers(0, n - 1), max_size=4)))] = True
    flags[0] = True  # the machine always materializes a head at 0
    cuts = sorted(draw(st.sets(st.integers(1, max(1, n - 1)), max_size=6))
                  - {n})
    edges = [0] + cuts + [n]
    bounds = list(zip(edges[:-1], edges[1:]))
    with np.errstate(all="ignore"):
        if name == "plus_scan":
            op, want = PlusScan(dtype), _NP.plus_scan(values)
        elif name == "seg_plus":
            op, want = SegPlus(dtype), _NP.seg_plus_scan(values, flags)
        elif name == "max_scan":
            ident = draw(st.sampled_from(
                [-np.inf, 0.0] if dtype == "float64"
                else [np.iinfo(dtype).min, 0]))
            op, want = MaxScan(dtype, ident), _NP.max_scan(values, ident)
        elif name == "seg_extreme":
            is_max = draw(st.booleans())
            ident = draw(st.sampled_from(
                [-np.inf if is_max else np.inf, 0.0] if dtype == "float64"
                else [0, np.iinfo(dtype).min if is_max
                      else np.iinfo(dtype).max]))
            op = SegExtreme(dtype, ident, is_max=is_max)
            want = _NP.seg_extreme_scan(values, flags, ident, is_max=is_max)
        else:
            reduce_op = draw(st.sampled_from(["sum", "max", "min", "any",
                                              "all"]))
            op = Reduce(dtype, reduce_op=reduce_op)
            want = _NP.reduce(values, reduce_op)
    return op, values, flags, bounds, want


def _block_carries(op, values, flags, bounds):
    out = np.empty_like(values)
    with np.errstate(all="ignore"):
        return [op.local(values[s:e], flags[s:e], out[s:e])
                for s, e in bounds]


@given(cases())
@settings(max_examples=300, deadline=None)
def test_combine_is_associative(case):
    op, values, flags, bounds, _ = case
    carries = _block_carries(op, values, flags, bounds)
    with np.errstate(all="ignore"):
        for a, b, c in itertools.product(carries, repeat=3):
            left = op.combine(op.combine(a, b), c)
            right = op.combine(a, op.combine(b, c))
            assert _same(left, right), (op, a, b, c)


@given(cases())
@settings(max_examples=300, deadline=None)
def test_identity_is_two_sided(case):
    op, values, flags, bounds, _ = case
    with np.errstate(all="ignore"):
        for c in _block_carries(op, values, flags, bounds):
            assert _same(op.combine(op.identity, c), c), (op, c)
            assert _same(op.combine(c, op.identity), c), (op, c)


@given(cases())
@settings(max_examples=300, deadline=None)
def test_fold_over_any_split_matches_numpy_engine(case):
    op, values, flags, bounds, want = case
    out = None if isinstance(op, Reduce) else np.empty_like(values)
    with np.errstate(all="ignore"):
        total = fold(op, bounds, lambda s, e: values[s:e], flags, out)
        # the split never changes the total carry either
        whole = fold(op, [(0, len(values))], lambda s, e: values[s:e],
                     flags, None if out is None else np.empty_like(values))
    assert _same(total, whole), (op, bounds)
    got = total if out is None else out
    assert _same(got, want), (op, bounds, got, want)


def test_seg_min_carry_orders_nan_largest():
    """A NaN inside the open segment must not swallow the running min at
    a block boundary: the carry combines with np.fmin, like the rank
    encoding inside a block."""
    values = np.array([0.0] * 6 + [np.nan, 1.0])
    flags = np.array([True] + [False] * 7)
    op = SegExtreme(values.dtype, np.inf, is_max=False)
    want = _NP.seg_extreme_scan(values, flags, np.inf, is_max=False)
    assert want[7] == 0.0
    for step in range(1, len(values) + 1):
        out = np.empty_like(values)
        fold(op, blocks(len(values), step), lambda s, e: values[s:e], flags,
             out)
        assert np.array_equal(out, want, equal_nan=True), step


def test_table_lookup():
    assert carry_op("seg_extreme", "int8", 0, is_max=True).is_max
    with pytest.raises(ValueError, match="unknown carry op"):
        carry_op("nope", "int8")
