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
``@njit(parallel=True, cache=True)`` when Numba is importable.
:class:`NativeBackend` is :class:`~repro.backends.BlockedBackend` plus
those kernels: they replace its :meth:`~BlockedBackend.scan_into` hook
for the four scans, and everything the kernels do not cover — reductions,
boolean lanes, vectors shorter than two, and every scan when Numba is
absent — falls through to the blocked backend's sequential carry fold
(:func:`repro.backends.carry.fold`) over the same blocks.  Without Numba,
``native`` therefore *is* ``blocked``.  The kernel arithmetic stays
testable there: a backend whose ``compiled`` is set to ``True`` runs the
``_K_*`` kernels, which are then the plain-Python sources.

Conformance: integer and boolean results are bit-identical to every
other backend (modular addition and max/min are associative); float
``+``-scans and sums may re-associate across blocks exactly as the
blocked and distributed engines' carries do (the verifier's documented additive
tolerance); ``max``-family scans are exact because ``np.maximum`` and the
kernels' ``v > acc or v != v`` comparison both implement the same
NaN-absorbing total order.  The segmented *min* kernels order NaN as a
largest value (``np.fmin`` semantics) — the same documented convention
as the numpy engine's segmented extreme scan, see ``docs/verification.md``.

Everything else — communication, broadcast, the table-driven segmented
ops — is NumPy's, inherited through the blocked backend: the paper's
argument is about the scans, and that is where the parallel schedule
pays.  Elementwise chains defer on this engine (``fuses``) and run block
by block through the blocked backend's executor
(:func:`repro.backends.carry.run_plan`); compiled, a chain ending in a
scan is materialized that way and then swept by the kernels.

Selection: ``Machine(backend="native")``, ``native:<threads>``,
``native:<threads>:<block>`` (``threads=0`` means Numba's default; the
default block is the blocked backend's chunk), or
``REPRO_BACKEND=native``.  Observability: ``backend.native.ops`` counts
primitives like every backend; ``native.kernel_launches`` counts compiled
two-phase executions, ``native.fallback_ops`` the sequential-fold ones,
and the ``native.threads`` gauge reports the configured thread count.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .blocked import DEFAULT_CHUNK, BlockedBackend
from .carry import CarryOp, exclusive

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


class NativeBackend(BlockedBackend):
    """The blocked backend with the carry scans swept by two-phase
    kernels when compiled."""

    name = "native"
    spec_syntax = "native[:<threads>[:<block>]]"
    spec_args = ("threads", "block")

    def __init__(self, threads: int = 0, block: int = DEFAULT_CHUNK) -> None:
        if threads < 0:
            raise ValueError(f"threads must be >= 0 (0 = auto), got {threads}")
        super().__init__(chunk=block)
        self.threads = int(threads)
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

    @property
    def block(self) -> int:
        """Elements per block (the blocked backend's ``chunk``)."""
        return self.chunk

    def scan_into(self, op: CarryOp, values: np.ndarray, flags, out):
        """The two-phase kernels when compiled.  Reductions, booleans
        (NumPy's accumulate semantics on bool lanes are the contract) and
        vectors shorter than two (nothing to sweep) take the inherited
        sequential fold, as does everything when not compiled."""
        if (not self.compiled or op.name == "reduce" or len(values) < 2
                or values.dtype.kind == "b"):
            self._fallbacks.inc()
            return super().scan_into(op, values, flags, out)
        self._launches.inc()
        block = self.block
        nb = -(-len(values) // block)
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

    def fused_pipeline(self, plan) -> np.ndarray:
        """Compiled and ending in a scan, the shared block executor
        materializes the chain's root and the terminal scan then runs as
        the ordinary two-phase sweep over it, so fused results are
        bit-identical to eager native execution.  Otherwise the executor
        does it all, as on the blocked backend."""
        if plan.terminal is None or not self.compiled:
            return super().fused_pipeline(plan)
        root = super().fused_pipeline(replace(plan, terminal=None))
        # plus the materialized scan input and the per-block partials
        partials = 2 * -(-plan.n // self.block) * root.itemsize
        self._fused_temp += root.nbytes + partials
        return getattr(self, plan.terminal)(root, *plan.terminal_args)
