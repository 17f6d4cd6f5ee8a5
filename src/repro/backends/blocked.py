"""Chunked execution with carry propagation: Figure 10, performed for real.

The paper simulates a long vector on ``p`` physical processors by giving
each processor a contiguous block and sweeping: serial scan within each
block, one cross-block scan of the partial results, then add the block
offset back in.  :class:`BlockedBackend` executes that schedule literally
for the five carry-bearing primitives (the scans, their segmented forms
and ``reduce``): one hook, :meth:`BlockedBackend.scan_into`, runs the
carry table's sequential schedule (:func:`repro.backends.carry.fold`) —
``local`` scans each chunk into its slice of the output, ``apply`` folds
in the carry so far, ``combine`` extends it — so their temporaries are
bounded by the chunk size.  Output buffers are still materialized in
full, as they are the operation's result.

For integer and boolean vectors every result is therefore bit-identical
to :class:`~repro.backends.NumPyBackend` (integer addition is associative
modulo 2^64, max/min are exactly associative).  Float ``+``-scans and
sums may round differently from the whole-vector NumPy expression,
exactly as a real blocked machine would.

Elementwise chains defer on this engine (``fuses``): a chain ending in a
scan is evaluated chunk by chunk straight into that scan's fold
(:func:`repro.backends.carry.run_plan`), so no chain intermediate is ever
longer than a chunk.

Every other primitive — communication, broadcast, the table-driven
segmented ops — is inherited from :class:`NumPyBackend` unchanged: their
output is full-length anyway, so walking it in chunks bounds nothing.
"""
from __future__ import annotations

import numpy as np

from .carry import (PRIMITIVES, CarryOp, MaxScan, PlusScan, Reduce,
                    SegExtreme, SegPlus, blocks, fold, run_plan)
from .numpy_backend import NumPyBackend

__all__ = ["BlockedBackend"]

#: default elements per chunk (a few hundred KB of int64 per temporary)
DEFAULT_CHUNK = 65536


class BlockedBackend(NumPyBackend):
    """Fixed-size-chunk carry scans; everything else rides NumPy."""

    name = "blocked"
    spec_syntax = "blocked[:<chunk>]"
    spec_args = ("chunk",)
    fuses = True

    def __init__(self, chunk: int = DEFAULT_CHUNK) -> None:
        if chunk < 1:
            raise ValueError(f"chunk (block size) must be >= 1, got {chunk}")
        self.chunk = int(chunk)
        self._fused_temp = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockedBackend(chunk={self.chunk})"

    def temp_bytes(self, op: str, out_bytes: int, itemsize: int = 8) -> int:
        """Chunk-bounded temporaries for the carry primitives: NumPy's
        estimate for one chunk — one chunk of the lane, or 16 to 17 bytes
        per element for the segmented extreme — regardless of vector
        length: the figure a profiler should see drop when switching a
        long-vector run from ``numpy`` to ``blocked``.  Fused pipelines
        report their chain's chunk-bounded footprint; every other op is
        NumPy's, and so is its estimate."""
        if op == "fused_pipeline":
            return self._fused_temp
        if op in PRIMITIVES:
            out_bytes = min(out_bytes, self.chunk * itemsize)
        return super().temp_bytes(op, out_bytes, itemsize)

    # ------------------------ the block schedule ----------------------- #

    def scan_into(self, op: CarryOp, values: np.ndarray, flags, out):
        """Scan ``values`` into ``out`` with carry op ``op`` (``out`` is
        ``None`` for a reduction), one chunk at a time; returns the total
        carry."""
        return fold(op, blocks(len(values), self.chunk),
                    lambda s, e: values[s:e], flags, out)

    def _scan(self, op: CarryOp, values: np.ndarray, flags=None):
        out = np.empty_like(values)
        self.scan_into(op, values, flags, out)
        return out

    def plus_scan(self, values: np.ndarray) -> np.ndarray:
        return self._scan(PlusScan(values.dtype), values)

    def max_scan(self, values: np.ndarray, identity) -> np.ndarray:
        return self._scan(MaxScan(values.dtype, identity), values)

    def seg_plus_scan(self, values: np.ndarray,
                      seg_flags: np.ndarray) -> np.ndarray:
        return self._scan(SegPlus(values.dtype), values, seg_flags)

    def seg_extreme_scan(self, values: np.ndarray, seg_flags: np.ndarray,
                         identity, *, is_max: bool) -> np.ndarray:
        return self._scan(SegExtreme(values.dtype, identity, is_max=is_max),
                          values, seg_flags)

    def reduce(self, values: np.ndarray, op: str):
        total = self.scan_into(Reduce(values.dtype, reduce_op=op), values,
                               None, None)
        # max/min of nothing has no identity: raise numpy's own error
        return super().reduce(values, op) if total is None else total

    def fused_pipeline(self, plan) -> np.ndarray:
        """Run the chain chunk by chunk through the shared block executor
        (:func:`repro.backends.carry.run_plan`): a fused
        ``plus_scan(a*b + c)`` makes one pass over each chunk with only
        chunk-sized temporaries."""
        self._fused_temp = plan.block_temp_bytes(self.chunk)
        return run_plan(plan, blocks(plan.n, self.chunk))
