"""Helpers shared by the benchmark's workloads.

Everything here is independent of the ``repro`` package: statistics,
metric-name rules, the raw-NumPy reference kernels every output is
checked against, host facts and the environment pinning that every
benchmark process (and the server child) runs under.
"""
from __future__ import annotations

import hashlib
import math
import os
import pathlib
import platform
import re
import resource
import subprocess
import sys
import time

import numpy as np

#: the repository checkout the benchmark runs from (parent of perfbench/)
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: environment variables that silently change what the program runs
PINNED_ENV = ("REPRO_BACKEND", "REPRO_FUSION", "REPRO_NATIVE_PURE",
              "REPRO_SHARD_NATIVE", "REPRO_BASELINE_DIR")

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


# --------------------------------------------------------------------- #
# Environment
# --------------------------------------------------------------------- #

def pinned_env() -> dict:
    """This process's environment minus :data:`PINNED_ENV`, with
    ``src/`` on ``PYTHONPATH`` — the environment for every child."""
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def pin_environment() -> None:
    """Clear :data:`PINNED_ENV` in this process and import from ``src/``."""
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def require_source() -> None:
    """Exit non-zero when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC}\n")
        sys.exit(2)


def _cache_size(level: int) -> str:
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (int((index / "level").read_text()) == level
                    and (index / "type").read_text().strip() != "Instruction"):
                return (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    return "unknown"


def host_facts() -> dict:
    """What a number depends on beyond the code: recorded with every
    result so figures from different hosts are never compared silently."""
    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    try:
        # the ceiling keeps git from reporting an enclosing repository
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": have_numba,
        "commit": commit,
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Another live process's peak resident set (``VmHWM``) in MiB."""
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# --------------------------------------------------------------------- #
# Host-speed calibration
# --------------------------------------------------------------------- #

class Calibration:
    """A fixed reference kernel timed beside every sample.

    The shared host's speed drifts by well over a factor of 1.5 within a
    minute (neighbours' load, not this program), which no amount of
    repetition inside one run averages away.  A sample timed between two
    probes of a kernel that never changes is rescaled to the host speed
    at which the kernel takes ``ref_s``: ``value * ref_s / probe``, where
    ``probe`` is the median of the probes around it (the mean of two).  ``kind`` picks a kernel
    like the measured work: ``interp`` is interpreter-bound Python with
    small NumPy calls, ``stream`` streams and sorts arrays far larger
    than the caches.
    """

    def __init__(self, kind: str, ref_s: float) -> None:
        self.kind = kind
        self.ref_s = ref_s
        rng = np.random.default_rng(12345)
        if kind == "interp":
            self._a = np.arange(4096)
        elif kind == "stream":
            self._big = rng.integers(0, 1 << 20, 1 << 21)
            self._small = rng.integers(0, 1 << 20, 1 << 17)
        else:
            raise ValueError(f"unknown calibration kernel {kind!r}")
        self.probes: list = []

    def probe(self, repeat: int = 1) -> float:
        """Time the kernel ``repeat`` times and keep the fastest (a short
        kernel's slow readings are interference, not host speed); the
        result is also appended to :attr:`probes`."""
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            if self.kind == "interp":
                s = 0
                for i in range(20000):
                    s += i * i
                a = self._a
                for _ in range(300):
                    np.cumsum(a[:1024])
                    a[:512] + 1
            else:
                np.cumsum(self._big)
                np.argsort(self._small, kind="stable")
                np.maximum.accumulate(self._big)
            best = min(best, time.perf_counter() - t0)
        self.probes.append(best)
        return best

    def scale(self, *probes: float) -> float:
        """Factor turning a time measured among ``probes`` (typically the
        two bracketing it) into reference-speed time; divide a rate by
        it.  The probes are summarized by their median."""
        return self.ref_s / float(np.median(probes))


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #

def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not len(values):
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def tail_percentile(n: int):
    """The highest of :data:`TAIL_PERCENTILES` with at least ten of ``n``
    samples beyond it, or ``None`` when even the median has fewer."""
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            return q
    return None


def tail(values) -> tuple:
    """``(label, value)`` of the tail: the rule's percentile, or the
    maximum when fewer than 20 samples exist."""
    q = tail_percentile(len(values))
    if q is None:
        return "max", float(max(values))
    return f"p{q:g}", percentile(values, q)


def geomean(values) -> float:
    vals = [float(v) for v in values]
    if not vals or min(vals) <= 0:
        raise ValueError(f"geometric mean needs positive values: {vals}")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def check_metric_name(name: str) -> str:
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


# --------------------------------------------------------------------- #
# Raw-NumPy references (independent of the program under test)
# --------------------------------------------------------------------- #

INT64_MIN = np.iinfo(np.int64).min


def ref_plus_scan(v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    np.cumsum(v[:-1], out=out[1:])
    return out


def ref_max_scan(v: np.ndarray, identity) -> np.ndarray:
    """Exclusive running max; NaN absorbs, outputs clamp to ``identity``."""
    out = np.full_like(v, identity)
    if len(v) > 1:
        np.maximum(np.maximum.accumulate(v[:-1]), identity, out=out[1:])
    return out


def ref_seg_plus_scan(v: np.ndarray, flags: np.ndarray) -> np.ndarray:
    ex = ref_plus_scan(v)
    seg = np.cumsum(flags) - 1
    return ex - ex[np.flatnonzero(flags)][seg]


def ref_seg_max_scan(v: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Exclusive per-segment running max of small non-negative int64
    values (identity ``INT64_MIN`` at heads) via segment-major keys."""
    if len(v) and (v.min() < 0 or v.max() >= 1 << 31):
        raise ValueError("ref_seg_max_scan needs values in [0, 2**31)")
    seg = np.cumsum(flags) - 1
    key = (seg << 31) | v
    run = np.maximum.accumulate(key)
    out = np.full_like(v, INT64_MIN)
    same = ~flags[1:]
    out[1:][same] = run[:-1][same] & ((1 << 31) - 1)
    return out


def bit_equal(a, b) -> bool:
    """Same dtype, shape and bytes (NaN payloads included)."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def digest(a) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(str(a.dtype).encode() + a.tobytes()).hexdigest()
