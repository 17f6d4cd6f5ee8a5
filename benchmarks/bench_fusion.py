"""Fused scan pipelines on the engines that fuse: wall time and peak memory.

Only the block-wise engines, ``blocked`` and ``native``, defer elementwise
chains (``Backend.fuses``; see ``docs/fusion.md``).  This file measures
what that buys on the workload the design targets: a four-op elementwise
chain ending in a ``plus_scan``.  Both modes run on the backend alone, so
the Vector front end is off the clock:

* eager — the backend's own ``elementwise`` for each op, then its
  ``plus_scan`` over the materialized chain;
* fused — ``backend.fused_pipeline`` on the compiled plan, which runs the
  chain block by block straight into the scan's carry fold.

Results must be bit-identical; fused must peak at under half the eager
memory.
"""
import time
import tracemalloc

import numpy as np

from repro import Machine
from repro.backends import BlockedBackend, NativeBackend
from repro.core.lazy import compile_plan

from _common import fmt_row, write_report

_report_lines: dict[str, list[str]] = {}

N = 1 << 20
CHUNK = 4_096
BACKENDS = {"blocked": lambda: BlockedBackend(chunk=CHUNK),
            "native": lambda: NativeBackend(block=CHUNK)}


def _publish(section: str, lines: list[str]) -> None:
    _report_lines[section] = lines
    flat = []
    for ls in _report_lines.values():
        flat.extend(ls + [""])
    write_report("fusion", flat[:-1])


def _eager(backend, data: np.ndarray) -> np.ndarray:
    """``plus_scan((data*3 + 1) - data//7)``, one backend op at a time."""
    a = backend.elementwise(np.multiply, data, 3)
    a = backend.elementwise(np.add, a, 1)
    b = backend.elementwise(np.floor_divide, data, 7)
    return backend.plus_scan(backend.elementwise(np.subtract, a, b))


def _plan(backend, data: np.ndarray):
    """The same chain as one compiled plan with a terminal ``plus_scan``."""
    v = Machine("scan", backend=backend).vector(data)
    chain = (v * 3 + 1) - (v // 7)
    return compile_plan(chain._pending_node(), terminal="plus_scan")


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_wallclock_fused_vs_eager(benchmark):
    rng = np.random.default_rng(0)
    data = rng.integers(-10**6, 10**6, N)

    widths = [9, 12, 12, 8]
    lines = [f"Wall-clock, elementwise chain + plus_scan "
             f"(n={N:,}, chunk={CHUNK:,}, best of 5)",
             fmt_row(["backend", "eager (ms)", "fused (ms)", "ratio"],
                     widths)]
    for name, make in BACKENDS.items():
        backend = make()
        plan = _plan(backend, data)
        assert np.array_equal(_eager(backend, data),
                              backend.fused_pipeline(plan))
        t_e = _best_of(lambda: _eager(backend, data))
        t_f = _best_of(lambda: backend.fused_pipeline(plan))
        lines.append(fmt_row([name, f"{t_e * 1e3:.3f}",
                              f"{t_f * 1e3:.3f}", f"{t_f / t_e:.2f}x"],
                             widths))
    _publish("wallclock", lines)
    blocked = BACKENDS["blocked"]()
    plan = _plan(blocked, data)
    benchmark(lambda: blocked.fused_pipeline(plan))


def test_peak_memory_fused_vs_eager():
    data = np.arange(N)
    peaks = {}
    for name, make in BACKENDS.items():
        backend = make()
        plan = _plan(backend, data)
        for mode, run in (("eager", lambda: _eager(backend, data)),
                          ("fused", lambda: backend.fused_pipeline(plan))):
            tracemalloc.start()
            out = run()
            _, peaks[name, mode] = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert len(out) == N

    widths = [9, 8, 14, 18]
    lines = [f"Peak memory incl. output, elementwise chain + plus_scan "
             f"(n={N:,}, chunk={CHUNK:,})",
             fmt_row(["backend", "mode", "peak (bytes)", "bytes / element"],
                     widths)]
    for (name, mode), peak in peaks.items():
        lines.append(fmt_row([name, mode, peak, f"{peak / N:.1f}"], widths))
    for name in BACKENDS:
        r = peaks[name, "eager"] / peaks[name, "fused"]
        lines.append(f"{name}: fused peaks at 1/{r:.2f} of eager "
                     f"({r:.2f}x reduction)")
    _publish("memory", lines)

    # the acceptance bar: fusion must at least halve peak memory
    for name in BACKENDS:
        assert peaks[name, "eager"] >= 2 * peaks[name, "fused"], name
