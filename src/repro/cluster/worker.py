"""The worker process: attach, compute one shard, reply, repeat.

Each worker is a daemonized child running :func:`worker_main` over one
duplex pipe.  Commands are small picklable dicts; array payloads never
cross the pipe — they live in :mod:`multiprocessing.shared_memory`
segments the command names, which the worker attaches to per op and
detaches from before replying.  The compute itself is a straight call into
the carry table (:mod:`repro.backends.carry`, via
:func:`repro.cluster.shardops.local`) on the shared-memory slices — the
same code the supervisor runs for degraded host-side shards.

Protocol (one reply per command, matched by ``seq``):

* ``{"cmd": "ping"}`` — liveness probe, answered immediately.
* ``{"cmd": "exit"}`` — clean shutdown.
* ``{"cmd": "op", ...}`` — compute one shard phase; reply carries the
  shard's carry payload and a CRC32 checksum over the bytes the worker
  wrote plus the carry it is about to ship, so the supervisor can detect
  a corrupted reply by recomputing the checksum on its own view.

A command may embed a chaos directive (see :mod:`repro.cluster.chaos`);
the worker executes it on itself — ``os._exit`` for a kill, a sleep past
the deadline for a hang, flipping real bits *after* the checksum for a
corruption — so the supervisor always observes a genuine failure, never a
simulated one.

Hygiene notes: the worker drops its NumPy views before closing each
segment (a live view makes ``close()`` raise ``BufferError``) and exits
on a dead pipe so a crashed supervisor never leaves zombies behind; the
supervisor alone unlinks segments (workers are forked, so attach-time
re-registration with the shared resource tracker is a harmless no-op).
"""
from __future__ import annotations

import os
import signal
import time
from multiprocessing import shared_memory

import numpy as np

from ..backends.carry import carry_op
from . import shardops

__all__ = ["worker_main"]


def _attach(name: str) -> shared_memory.SharedMemory:
    # Attaching re-registers the name with the resource tracker, but the
    # pool forks its workers, so they share the supervisor's tracker
    # process and its set-based cache: the re-register is a no-op and the
    # supervisor's unlink-time unregister removes the name exactly once.
    # (Do NOT unregister here — that empties the cache early and makes the
    # supervisor's own unregister scream KeyError into stderr.)
    return shared_memory.SharedMemory(name=name)


def _view(shm, dtype, n, start, stop) -> np.ndarray:
    return np.ndarray(n, dtype=dtype, buffer=shm.buf)[start:stop]


def _compute(cmd, values, flags, out):
    """Run one shard phase in place on the shared-memory slices; returns
    the carry payload (phase 1) or ``None`` (phase 2)."""
    op = carry_op(cmd["op"], cmd["dtype"], cmd["identity"],
                  is_max=cmd["is_max"], reduce_op=cmd["reduce_op"])
    if cmd["phase"] == 1 or cmd["mode"] == "recompute":
        carry = shardops.local(op, values, flags, out)
        if cmd["phase"] == 1:
            return carry
    op.apply(out, flags, cmd["carry"])
    return None


def _run_op(cmd) -> dict:
    chaos = cmd.get("chaos")
    if chaos is not None and chaos[0] == "kill":
        os._exit(117)  # a real SIGKILL-grade death: no cleanup, no reply
    if chaos is not None and chaos[0] == "hang":
        time.sleep(chaos[1])

    segments = []
    try:
        values = flags = out = None
        n, start, stop = cmd["n"], cmd["start"], cmd["stop"]
        if cmd["values"] is not None:
            shm = _attach(cmd["values"])
            segments.append(shm)
            values = _view(shm, cmd["dtype"], n, start, stop)
        if cmd["flags"] is not None:
            shm = _attach(cmd["flags"])
            segments.append(shm)
            flags = _view(shm, cmd["flags_dtype"], n, start, stop)
        if cmd["out"] is not None:
            shm = _attach(cmd["out"])
            segments.append(shm)
            out = _view(shm, cmd["dtype"], n, start, stop)

        with np.errstate(all="ignore"):
            carry = _compute(cmd, values, flags, out)
        checksum = shardops.shard_checksum(out, carry)

        if chaos is not None and chaos[0] == "corrupt":
            if out is not None and len(out):
                # flip a real bit in shared memory *after* checksumming it
                raw = np.ndarray(out.nbytes, dtype=np.uint8,
                                 buffer=out.data.cast("B"))
                raw[0] ^= 0x01
                del raw
            else:
                checksum ^= 0xDEAD  # no output bytes: corrupt the reply itself

        return {"ok": True, "seq": cmd["seq"], "carry": carry,
                "checksum": checksum}
    except Exception as exc:  # an exception in a worker is a crash reply
        return {"ok": False, "seq": cmd["seq"],
                "error": f"{type(exc).__name__}: {exc}"}
    finally:
        del values, flags, out  # views pin the buffer; close() needs it free
        for shm in segments:
            try:
                shm.close()
            except BufferError:
                pass


def worker_main(conn, supervisor_conn=None) -> None:
    """The child-process command loop (runs until ``exit`` or host death)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # teardown is the host's job
    if supervisor_conn is not None:
        # Forking copied the supervisor's end of our own pipe into this
        # process; holding it would keep the pipe alive after the
        # supervisor dies, so recv() below would never see EOF and a
        # SIGKILLed host would strand its workers forever.
        supervisor_conn.close()
    while True:
        try:
            cmd = conn.recv()
        except (EOFError, OSError):
            break  # supervisor is gone; don't linger as a zombie
        kind = cmd.get("cmd")
        if kind == "exit":
            break
        if kind == "ping":
            reply = {"ok": True, "seq": cmd.get("seq"), "pong": True,
                     "pid": os.getpid()}
        else:
            reply = _run_op(cmd)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()
