"""Shard-level glue: reply checksums and the route into compiled kernels.

A distributed scan is the paper's Figure 10 schedule lifted onto OS
processes, and its math is the carry table's
(:mod:`repro.backends.carry`): each worker runs an op's ``local`` over its
contiguous shard, the shard carries are combined by a round-efficient
exclusive exchange (:mod:`repro.cluster.exchange`), and a second pass runs
``apply`` to fold each shard's incoming carry back in.  The worker
processes (:mod:`repro.cluster.worker`) and the supervisor's degraded
host-side path (:mod:`repro.cluster.pool`) both call that table through
:func:`local` here — whoever ends up computing a shard, the math is the
same function, so recovery can never change a result.

Checksums (:func:`shard_checksum`) cover a shard's output bytes *and* its
carry payload, so a worker that corrupts either — in shared memory after
the fact, or on the reply wire — is caught by the supervisor recomputing
the checksum on its own view of the data.
"""
from __future__ import annotations

import functools
import zlib

import numpy as np

from ..backends.native import HAVE_NUMBA, NativeBackend

__all__ = ["carry_bytes", "local", "shard_checksum"]

# --------------------------------------------------------------------- #
# Checksums: what a corrupted shard reply is detected against
# --------------------------------------------------------------------- #

def carry_bytes(carry) -> bytes:
    """A canonical byte encoding of a shard's carry payload.

    Covers every carry shape the protocol ships: ``None`` (no carry),
    a NumPy scalar, or a ``(value, has_head)`` segmented pair whose value
    may itself be ``None``.  Both sides — worker checksum and supervisor
    re-checksum — encode through this one function.
    """
    if carry is None:
        return b"\x00none"
    if isinstance(carry, tuple):
        value, has_head = carry
        return (b"\x01pair" + carry_bytes(value)
                + (b"\x01" if has_head else b"\x00"))
    return b"\x02" + np.asarray(carry).tobytes()


def shard_checksum(out_slice, carry) -> int:
    """CRC32 over a shard's written output bytes plus its carry payload."""
    payload = b"" if out_slice is None else np.ascontiguousarray(out_slice).tobytes()
    return zlib.crc32(payload + carry_bytes(carry))


# --------------------------------------------------------------------- #
# A shard's local scan routes through the native backend's compiled
# two-phase kernels exactly when Numba is importable, putting Numba's
# parallel kernels under every worker process.  Only where that stays
# bit-identical: integer +-scans (associative mod 2**width) and max-scans
# (exact for floats too: NaN absorbs either way).  Float +-shards keep the
# serial path so solo float requests never re-associate locally.
# --------------------------------------------------------------------- #

#: smallest shard worth the two-phase schedule (and any JIT warm-up)
_NATIVE_SHARD_MIN = 65536
#: dtype kinds each op may route through the compiled kernels
_NATIVE_KINDS = {"plus_scan": "iu", "max_scan": "iuf"}


@functools.lru_cache(maxsize=None)
def _shard_native() -> NativeBackend:
    return NativeBackend()


def local(op, values: np.ndarray, flags, out):
    """``op.local`` on one shard (see the section comment above)."""
    if (HAVE_NUMBA and len(values) >= _NATIVE_SHARD_MIN
            and values.dtype.kind in _NATIVE_KINDS.get(op.name, "")):
        return _shard_native().scan_into(op, values, flags, out)
    return op.local(values, flags, out)
