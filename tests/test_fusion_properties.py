"""Property-based engine-vs-eager-numpy differential suite.

For arbitrary generated vectors and operator chains, every engine —
lazy (``blocked``, ``native``) or eager (``numpy``, ``reference``,
``distributed``) — must be indistinguishable from an eager ``numpy``
machine: bit-identical results (dtype included) **and** bit-identical
step charges.  This is the property fusion hangs on — the lazy DAG is an
execution strategy, never an observable.
"""
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine
from repro.core import scans

BACKENDS = ("numpy", "blocked", "blocked:7", "reference", "native",
            "native:0:7")

ints = st.lists(st.integers(-10**6, 10**6), max_size=120)
small_ints = st.lists(st.integers(-100, 100), max_size=60)
floats = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    max_size=120)

DTYPES = (np.int8, np.int16, np.uint8, np.uint32, np.int64, np.float64)


def _pair(backend, xs, dtype=None):
    """Two fresh machines, one on ``backend`` and one eager ``numpy``,
    plus the shared input array."""
    arr = np.asarray(xs, dtype=dtype)
    return (Machine("scan", backend=backend),
            Machine("scan", backend="numpy"), arr)


def _assert_same(snap, snap_eager, out, out_eager, equal_nan=False):
    assert out.dtype == out_eager.dtype
    assert np.array_equal(out, out_eager, equal_nan=equal_nan)
    assert snap.steps == snap_eager.steps
    assert snap.ops == snap_eager.ops
    assert snap.by_kind == snap_eager.by_kind


def _differential(backend, xs, chain, dtype=None):
    mf, me, arr = _pair(backend, xs, dtype)
    out_f = chain(mf, mf.vector(arr))
    out_e = chain(me, me.vector(arr))
    _assert_same(mf.snapshot(), me.snapshot(), out_f.data, out_e.data)


def _same_or_same_error(mf, me, arr, op):
    """``op`` on an engine machine and on an eager numpy machine: the same
    dtype, values (NaN equal) and charges — or, where NumPy rejects the
    operand dtype (``-`` on bool, shifts on float), the same exception
    type after the same charges."""
    try:
        out_e = op(me.vector(arr)).data
    except TypeError as exc:
        with pytest.raises(type(exc)):
            op(mf.vector(arr)).data
        snap, snap_e = mf.snapshot(), me.snapshot()
        assert snap.steps == snap_e.steps
        assert snap.ops == snap_e.ops
        assert snap.by_kind == snap_e.by_kind
        return
    out_f = op(mf.vector(arr)).data
    _assert_same(mf.snapshot(), me.snapshot(), out_f, out_e,
                 equal_nan=out_e.dtype.kind == "f")


# every Vector elementwise operator: the forward form with a scalar and
# with a vector, and the reflected form where Python dispatches one
_BINARY = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "truediv": operator.truediv, "floordiv": operator.floordiv,
    "mod": operator.mod, "lt": operator.lt, "le": operator.le,
    "gt": operator.gt, "ge": operator.ge, "eq": operator.eq,
    "ne": operator.ne, "and": operator.and_, "or": operator.or_,
    "xor": operator.xor, "lshift": operator.lshift,
    "rshift": operator.rshift,
    "minimum": lambda a, b: a.minimum(b),
    "maximum": lambda a, b: a.maximum(b),
}
_REFLECTED = ("add", "sub", "mul", "truediv", "floordiv", "mod",
              "lt", "le", "gt", "ge", "eq", "ne")
OPERATORS = {
    **{f"{name} v,3": (lambda f: lambda v: f(v, 3))(f)
       for name, f in _BINARY.items()},
    **{f"{name} v,v": (lambda f: lambda v: f(v, v))(f)
       for name, f in _BINARY.items()},
    **{f"{name} 3,v": (lambda f: lambda v: f(3, v))(_BINARY[name])
       for name in _REFLECTED},
    "neg": operator.neg, "abs": abs, "invert": operator.invert,
    "bit 0": lambda v: v.bit(0), "bit 3": lambda v: v.bit(3),
    "astype int8": lambda v: v.astype(np.int8),
    "astype float64": lambda v: v.astype(np.float64),
    "astype bool": lambda v: v.astype(bool),
    "where v,0": lambda v: (v > 0).where(v, 0),
    "where 1.5,v": lambda v: (v != 1).where(1.5, v),
    "where v,v*2": lambda v: (v > 1).where(v, v * 2),
    "where on data": lambda v: v.where(1, 0),
}
OPERAND_DTYPES = (np.int8, np.uint8, np.int64, np.float64, np.bool_)


class TestElementwiseChains:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(ints)
    @settings(max_examples=25, deadline=None)
    def test_arithmetic_chain(self, backend, xs):
        _differential(backend, xs,
                      lambda m, v: (v * 3 + 7) - (v // 2),
                      dtype=np.int64)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(ints)
    @settings(max_examples=25, deadline=None)
    def test_reflected_chain(self, backend, xs):
        _differential(backend, xs,
                      lambda m, v: (1000 - v) + (3 * v) - (7 % (v | 1)),
                      dtype=np.int64)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(floats)
    @settings(max_examples=25, deadline=None)
    def test_float_division_chain(self, backend, xs):
        _differential(backend, xs,
                      lambda m, v: 1.0 / (v * v + 1.0) + v,
                      dtype=np.float64)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(ints)
    @settings(max_examples=25, deadline=None)
    def test_bool_coercion_chain(self, backend, xs):
        # comparisons produce bool vectors; & and | stay bool; where
        # re-enters the numeric domain
        _differential(backend, xs,
                      lambda m, v: ((v > 0) & (v % 3 != 1)).where(v, -v),
                      dtype=np.int64)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(small_ints, st.sampled_from(DTYPES), st.sampled_from(DTYPES))
    @settings(max_examples=25, deadline=None)
    def test_mixed_dtype_chain(self, backend, xs, dt_a, dt_b):
        """Chains that cross dtype boundaries mid-stream promote the same
        way deferred as eager (NumPy promotion probed on empty slices)."""
        mf, me, arr = _pair(backend, xs, np.int64)
        def chain(m, v):
            return (v.astype(dt_a) + 1).astype(dt_b) * 2 - v.astype(dt_b)
        out_f = chain(mf, mf.vector(arr))
        out_e = chain(me, me.vector(arr))
        _assert_same(mf.snapshot(), me.snapshot(), out_f.data, out_e.data)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_vector_chain(self, backend):
        _differential(backend, [],
                      lambda m, v: ((v + 1) * 2 > 0).where(v, v - 1),
                      dtype=np.int64)


class TestOperatorTable:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("op", OPERATORS)
    @given(st.lists(st.integers(-130, 130), min_size=1, max_size=40))
    @settings(max_examples=4, deadline=None)
    def test_operator_matches_eager_numpy(self, backend, op, xs):
        """Each elementwise operator alone, over narrow, wide, float and
        bool operands and the empty vector: dtype, values and charges
        equal eager numpy's (comparisons and logical ops stay bool with
        no cast of their own).  One machine pair serves every operand, so
        each check compares the charges accumulated so far."""
        mf = Machine("scan", backend=backend)
        me = Machine("scan", backend="numpy")
        for dtype in OPERAND_DTYPES:
            for data in (xs, []):
                arr = np.asarray(data, dtype=np.int64).astype(dtype)
                with np.errstate(all="ignore"):
                    _same_or_same_error(mf, me, arr, OPERATORS[op])


class TestTerminalScans:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(ints)
    @settings(max_examples=25, deadline=None)
    def test_plus_scan_of_chain(self, backend, xs):
        _differential(backend, xs,
                      lambda m, v: scans.plus_scan(v * 2 - 1),
                      dtype=np.int64)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(ints)
    @settings(max_examples=25, deadline=None)
    def test_max_scan_of_chain(self, backend, xs):
        _differential(backend, xs,
                      lambda m, v: scans.max_scan((v | 1) * v),
                      dtype=np.int64)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(ints)
    @settings(max_examples=25, deadline=None)
    def test_bool_plus_scan_widens(self, backend, xs):
        # plus_scan over a pending bool chain must widen to int64
        # exactly as the eager path does
        _differential(backend, xs,
                      lambda m, v: scans.plus_scan(v != 0),
                      dtype=np.int64)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_terminal(self, backend):
        _differential(backend, [],
                      lambda m, v: scans.plus_scan(v + 1),
                      dtype=np.int64)


class TestDistributedBackend:
    """The sharded backend is slow to spin up, so it gets a smaller
    example budget but the same contract."""

    @given(small_ints)
    @settings(max_examples=5, deadline=None)
    def test_chain_and_scan(self, xs):
        _differential("distributed:2:1", xs,
                      lambda m, v: scans.plus_scan((v * v + 1) - (v // 2)),
                      dtype=np.int64)

    @given(small_ints)
    @settings(max_examples=5, deadline=None)
    def test_bool_chain(self, xs):
        _differential("distributed:2:1", xs,
                      lambda m, v: ((v > 0) & (v != 7)).where(v, 0),
                      dtype=np.int64)
