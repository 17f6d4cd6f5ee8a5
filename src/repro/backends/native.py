"""The native backend: two-phase Blelloch scans over preallocated buffers.

The paper's work-efficient circuit (Section 1.3) computes a scan in two
sweeps over a balanced tree; on a multicore CPU the tree degenerates into
the classic block decomposition — the same schedule GPU scan kernels
(``blellochScan`` et al.) and LightScan use to saturate memory bandwidth:

* **upsweep** — each block of ``block`` elements is reduced independently
  (in parallel) to one partial: the block sum, block extreme, or, for the
  segmented variants, the paper's Section 4 *flag-carrying operator* pair
  ``(value since the block's last segment head, has_head)``;
* a tiny **host-side scan of the partials** turns them into per-block
  carry-ins (this is the top of the tree: ``n / block`` elements), run
  through the carry table's ``combine`` (:mod:`repro.backends.carry`);
* **downsweep** — each block independently materializes its slice of the
  exclusive scan from its carry-in, again in parallel.

Both sweeps are written once, as plain-Python kernels over preallocated
buffers (``_*_py`` below), and compiled with Numba's
``@njit(parallel=True, cache=True)`` when Numba is importable.  Without
Numba the backend runs the carry table's sequential schedule
(:func:`repro.backends.carry.fold`) over the same blocks — the blocked
backend's code path, NumPy expressions per block — instead of refusing to
load.  The kernel arithmetic stays testable there: a backend whose
``compiled`` is set to ``True`` runs the ``_K_*`` kernels, which are then
the plain-Python sources.

Conformance: integer and boolean results are bit-identical to every
other backend (modular addition and max/min are associative); float
``+``-scans may re-associate across blocks exactly as the blocked and
distributed engines' carries do (the verifier's documented additive
tolerance); ``max``-family scans are exact because ``np.maximum`` and the
kernels' ``v > acc or v != v`` comparison both implement the same
NaN-absorbing total order.  The segmented *min* kernels order NaN as a
largest value (``np.fmin`` semantics) — the same documented rank-encoding
convention as the numpy engine, see ``docs/verification.md``.

Everything else — communication, broadcast, the table-driven segmented
ops — inherits :class:`NumPyBackend` unchanged: the paper's argument is
about the scans, and that is where the parallel schedule pays.
Elementwise chains defer on this engine (``fuses``) and run block by
block through the executor it shares with the blocked backend
(:func:`repro.backends.carry.run_plan`).

Selection: ``Machine(backend="native")``, ``native:<threads>``,
``native:<threads>:<block>`` (``threads=0`` means Numba's default), or
``REPRO_BACKEND=native``.  Observability: ``backend.native.ops`` counts
primitives like every backend; ``native.kernel_launches`` counts compiled
two-phase executions, ``native.fallback_ops`` the sequential-fold ones,
and the ``native.threads`` gauge reports the configured thread count.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .carry import (CarryOp, MaxScan, PlusScan, SegExtreme, SegPlus,
                    blocks, exclusive, fold, run_plan)
from .numpy_backend import NumPyBackend

__all__ = ["NativeBackend", "HAVE_NUMBA"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
    from numba import njit as _njit, prange

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False
    _numba = None
    prange = range

    def _njit(*args, **kwargs):
        """No-op decorator: kernels stay callable as plain Python."""
        if args and callable(args[0]) and not kwargs:
            return args[0]

        def wrap(fn):
            return fn
        return wrap

#: default elements per block (a few hundred KB of int64 per temporary,
#: matching the blocked backend's chunk)
DEFAULT_BLOCK = 65536


def _nblocks(n: int, block: int) -> int:
    return (n + block - 1) // block


# --------------------------------------------------------------------- #
# Kernels.  One definition each, written in the subset of Python that
# Numba compiles; the ``_K_*`` names below are the (maybe-)jitted forms.
# All of them take preallocated output buffers and never allocate.
# --------------------------------------------------------------------- #

def _plus_upsweep_py(values, sums, block, zero):
    nb = sums.shape[0]
    for b in prange(nb):
        s = b * block
        e = min(s + block, values.shape[0])
        acc = zero
        for i in range(s, e):
            acc = acc + values[i]
        sums[b] = acc


def _plus_downsweep_py(values, out, offsets, block):
    nb = offsets.shape[0]
    for b in prange(nb):
        s = b * block
        e = min(s + block, values.shape[0])
        acc = offsets[b]
        for i in range(s, e):
            out[i] = acc
            acc = acc + values[i]


def _max_upsweep_py(values, sums, block):
    nb = sums.shape[0]
    for b in prange(nb):
        s = b * block
        e = min(s + block, values.shape[0])
        acc = values[s]
        for i in range(s + 1, e):
            v = values[i]
            if v > acc or v != v:  # NaN absorbs, like np.maximum
                acc = v
        sums[b] = acc


def _max_downsweep_py(values, out, offsets, block):
    nb = offsets.shape[0]
    for b in prange(nb):
        s = b * block
        e = min(s + block, values.shape[0])
        acc = offsets[b]
        for i in range(s, e):
            out[i] = acc
            v = values[i]
            if v > acc or v != v:
                acc = v


def _seg_plus_upsweep_py(values, flags, sums, has, block, zero):
    nb = sums.shape[0]
    for b in prange(nb):
        s = b * block
        e = min(s + block, values.shape[0])
        acc = zero
        seen = False
        for i in range(s, e):
            if flags[i]:
                acc = zero
                seen = True
            acc = acc + values[i]
        sums[b] = acc
        has[b] = seen


def _seg_plus_downsweep_py(values, flags, out, carries, block, zero):
    nb = carries.shape[0]
    for b in prange(nb):
        s = b * block
        e = min(s + block, values.shape[0])
        acc = carries[b]
        for i in range(s, e):
            if flags[i]:
                acc = zero
            out[i] = acc
            acc = acc + values[i]


def _seg_ext_upsweep_py(values, flags, exts, has, block, is_max):
    nb = exts.shape[0]
    for b in prange(nb):
        s = b * block
        e = min(s + block, values.shape[0])
        acc = values[s]
        seen = flags[s]
        for i in range(s + 1, e):
            v = values[i]
            if flags[i]:
                acc = v
                seen = True
            elif is_max:
                if v > acc or v != v:
                    acc = v
            else:
                # NaN orders as a largest value: it never wins a min
                # unless it is all the segment has seen
                if v < acc or acc != acc:
                    acc = v
        exts[b] = acc
        has[b] = seen


def _seg_ext_downsweep_py(values, flags, out, carries, have, block, ident,
                          is_max):
    nb = carries.shape[0]
    for b in prange(nb):
        s = b * block
        e = min(s + block, values.shape[0])
        acc = carries[b]
        fresh = not have[b]
        for i in range(s, e):
            v = values[i]
            if flags[i]:
                out[i] = ident
                acc = v
                fresh = False
            else:
                out[i] = ident if fresh else acc
                if fresh:
                    acc = v
                    fresh = False
                elif is_max:
                    if v > acc or v != v:
                        acc = v
                else:
                    if v < acc or acc != acc:
                        acc = v


_JIT = dict(parallel=True, cache=True, nogil=True)
_K_PLUS_UP = _njit(**_JIT)(_plus_upsweep_py)
_K_PLUS_DOWN = _njit(**_JIT)(_plus_downsweep_py)
_K_MAX_UP = _njit(**_JIT)(_max_upsweep_py)
_K_MAX_DOWN = _njit(**_JIT)(_max_downsweep_py)
_K_SEG_PLUS_UP = _njit(**_JIT)(_seg_plus_upsweep_py)
_K_SEG_PLUS_DOWN = _njit(**_JIT)(_seg_plus_downsweep_py)
_K_SEG_EXT_UP = _njit(**_JIT)(_seg_ext_upsweep_py)
_K_SEG_EXT_DOWN = _njit(**_JIT)(_seg_ext_downsweep_py)


class NativeBackend(NumPyBackend):
    """Two-phase block-parallel scans; everything else rides NumPy."""

    name = "native"
    spec_syntax = "native[:<threads>[:<block>]]"
    fuses = True

    @classmethod
    def from_spec(cls, arg: str) -> "NativeBackend":
        if not arg:
            return cls()
        parts = arg.split(":")
        if len(parts) > 2:
            raise ValueError(
                f"backend 'native' takes at most two arguments "
                f"({cls.spec_syntax}), got {arg!r}")
        try:
            numbers = [int(p) for p in parts]
        except ValueError:
            raise ValueError(
                f"backend 'native' takes integer arguments "
                f"({cls.spec_syntax}), got {arg!r}") from None
        kwargs = {"threads": numbers[0]}
        if len(numbers) == 2:
            kwargs["block"] = numbers[1]
        return cls(**kwargs)

    def __init__(self, threads: int = 0, block: int = DEFAULT_BLOCK) -> None:
        if threads < 0:
            raise ValueError(f"threads must be >= 0 (0 = auto), got {threads}")
        if block < 1:
            raise ValueError(f"block size must be >= 1, got {block}")
        self.threads = int(threads)
        self.block = int(block)
        self._fused_temp = 0
        #: whether the two-phase kernels run (vs the sequential fold)
        self.compiled = HAVE_NUMBA
        if self.compiled and self.threads:
            _numba.set_num_threads(
                min(self.threads, _numba.config.NUMBA_NUM_THREADS))
        from ..observe.metrics import registry

        self._launches = registry.counter("native.kernel_launches")
        self._fallbacks = registry.counter("native.fallback_ops")
        registry.gauge("native.threads").set(
            self.threads if self.threads else
            (_numba.get_num_threads() if self.compiled else 1))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "numba" if self.compiled else "fold"
        return (f"NativeBackend(threads={self.threads}, block={self.block}, "
                f"mode={mode})")

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    def _engaged(self, values: np.ndarray) -> bool:
        """Whether the block schedule runs (vs inheriting NumPy).

        Booleans delegate: NumPy's accumulate semantics on bool lanes are
        the contract, and the machine widens bools before ``plus_scan``
        anyway.  Length < 2 is a base case with nothing to sweep.
        """
        return len(values) >= 2 and values.dtype.kind != "b"

    def temp_bytes(self, op: str, out_bytes: int) -> int:
        """Block-schedule working storage: the per-block partials (one word
        per block) plus block-bounded temporaries — on the fold path the
        rank-encoding segmented extreme holds about three of them."""
        if op == "fused_pipeline":
            return self._fused_temp
        per_block = min(out_bytes, self.block * 8)
        partials = 2 * max(1, out_bytes // max(1, self.block * 8)) * 8
        if op == "seg_extreme_scan" and not self.compiled:
            per_block *= 3
        return per_block + partials

    def scan_into(self, op: CarryOp, values: np.ndarray, flags, out):
        """Scan ``values`` into ``out`` with carry op ``op``; returns the
        total carry.  Two-phase kernels when compiled, else the table's
        sequential fold over this backend's blocks."""
        if not self.compiled:
            self._fallbacks.inc()
            return fold(op, blocks(len(values), self.block),
                        lambda s, e: values[s:e], flags, out)
        self._launches.inc()
        block = self.block
        nb = _nblocks(len(values), block)
        dt = values.dtype
        parts = np.empty(nb, dtype=dt)
        has = np.zeros(nb, dtype=bool)
        zero = dt.type(0)
        with np.errstate(over="ignore"):  # modular carries wrap by design
            if op.name == "plus_scan":
                _K_PLUS_UP(values, parts, block, zero)
            elif op.name == "max_scan":
                _K_MAX_UP(values, parts, block)
            elif op.name == "seg_plus":
                _K_SEG_PLUS_UP(values, flags, parts, has, block, zero)
            else:
                _K_SEG_EXT_UP(values, flags, parts, has, block, op.is_max)
            # the top of the tree: one carry per block, scanned on the host
            if flags is None:
                ins, total = exclusive(op, parts)
                carries = np.array(ins, dtype=dt)
            else:
                ins, total = exclusive(op, zip(parts, has))
                carries = np.array([zero if c is None else c
                                    for c, _ in ins], dtype=dt)
            if op.name == "plus_scan":
                _K_PLUS_DOWN(values, out, carries, block)
            elif op.name == "max_scan":
                _K_MAX_DOWN(values, out, carries, block)
            elif op.name == "seg_plus":
                _K_SEG_PLUS_DOWN(values, flags, out, carries, block, zero)
            else:
                have = np.array([c is not None for c, _ in ins], dtype=bool)
                _K_SEG_EXT_DOWN(values, flags, out, carries, have, block,
                                op.fill, op.is_max)
        return total

    def _scan(self, op: CarryOp, values: np.ndarray, flags=None):
        out = np.empty_like(values)
        self.scan_into(op, values, flags, out)
        return out

    # ------------------------------------------------------------------ #
    # Scans (the segmented ones carry the Section 4 flag-carrying
    # operator, fused into a single per-block pass on each sweep)
    # ------------------------------------------------------------------ #

    def plus_scan(self, values: np.ndarray) -> np.ndarray:
        if not self._engaged(values):
            return super().plus_scan(values)
        return self._scan(PlusScan(values.dtype), values)

    def max_scan(self, values: np.ndarray, identity) -> np.ndarray:
        if not self._engaged(values):
            return super().max_scan(values, identity)
        return self._scan(MaxScan(values.dtype, identity), values)

    def seg_plus_scan(self, values: np.ndarray,
                      seg_flags: np.ndarray) -> np.ndarray:
        if not self._engaged(values):
            return super().seg_plus_scan(values, seg_flags)
        return self._scan(SegPlus(values.dtype), values, seg_flags)

    def seg_extreme_scan(self, values: np.ndarray, seg_flags: np.ndarray,
                         identity, *, is_max: bool) -> np.ndarray:
        if not self._engaged(values):
            return super().seg_extreme_scan(values, seg_flags, identity,
                                            is_max=is_max)
        return self._scan(SegExtreme(values.dtype, identity, is_max=is_max),
                          values, seg_flags)

    # ------------------------------------------------------------------ #
    # Fused pipelines: the shared block executor, or, when compiled and
    # ending in a scan, the chain materialized block by block and then
    # swept by the two-phase kernels
    # ------------------------------------------------------------------ #

    def fused_pipeline(self, plan) -> np.ndarray:
        """Evaluate the chain block by block (block-bounded chain
        temporaries, :func:`repro.backends.carry.run_plan`).

        Without Numba, or without a terminal scan, the executor does it
        all — a terminal scan is the same carry fold the eager scans run
        here.  Compiled, the executor materializes the chain's root and
        the terminal scan then runs as the ordinary two-phase sweep over
        it, so fused results are bit-identical to eager native execution.
        """
        spans = blocks(plan.n, self.block)
        self._fused_temp = plan.block_temp_bytes(self.block)
        if plan.terminal is None:
            return run_plan(plan, spans)
        if not self.compiled:
            self._fallbacks.inc()
            return run_plan(plan, spans)
        root = run_plan(replace(plan, terminal=None), spans)
        # plus the materialized scan input and the per-block partials
        partials = 2 * _nblocks(plan.n, self.block) * root.itemsize
        self._fused_temp += root.nbytes + partials
        return getattr(self, plan.terminal)(root, *plan.terminal_args)
