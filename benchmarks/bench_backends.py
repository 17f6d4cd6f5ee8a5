"""Execution backends: what does the dispatch layer cost, and when does
chunking win?

Not a paper table — the harness's own health check for the backend split
(`repro.backends`).  Three claims, measured:

1. **Dispatch is free where it matters** — the NumPy and Blocked backends
   produce bit-identical results and *identical step charges* across
   sizes; wall-clock stays within a small constant factor of the plain
   NumPy backend even at blocked's worst case (tiny chunks).
2. **Chunking bounds temporaries** — a compound elementwise expression
   that materializes three whole-vector float64 temporaries on the NumPy
   backend peaks at a fraction of that memory when the Blocked backend
   streams it chunk by chunk: the size regime where Blocked *wins*.
3. **Carries are real** — Blocked completes a +-scan on a vector hundreds
   of chunks long (including sums that wrap int64 many times over) and
   matches whole-vector ``np.cumsum`` exactly.
"""
import time
import tracemalloc

import numpy as np

from repro import Machine
from repro.backends import BlockedBackend
from repro.core import scans

from _common import fmt_row, write_report

_report_lines: dict[str, list[str]] = {}


def _publish(section: str, lines: list[str]) -> None:
    """Accumulate sections and rewrite the single results file; sections
    arrive in test order, so the file is complete after the last test."""
    _report_lines[section] = lines
    flat = []
    for ls in _report_lines.values():
        flat.extend(ls + [""])
    write_report("backends", flat[:-1])


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _scan_pipeline(m, data):
    """A small but representative workload: elementwise, scan, permute."""
    v = m.vector(data)
    s = scans.plus_scan(v * 3 + 1)
    return s.reverse()


def test_wallclock_across_sizes(benchmark):
    rng = np.random.default_rng(0)
    widths = [9, 12, 14, 14, 9]
    lines = ["Wall-clock: NumPy vs Blocked backend "
             "(elementwise + scan + permute pipeline, best of 5)",
             fmt_row(["n", "numpy (ms)", "blocked (ms)", "ratio"], widths)]

    m_np = Machine("scan")
    ratios = []
    for n in (1 << 12, 1 << 16, 1 << 20):
        data = rng.integers(-10**6, 10**6, n)
        m_bl = Machine("scan", backend="blocked")  # default 64k chunks
        out_np = _scan_pipeline(m_np, data)
        out_bl = _scan_pipeline(m_bl, data)
        assert np.array_equal(out_np.data, out_bl.data)

        t_np = _best_of(lambda: _scan_pipeline(m_np, data))
        t_bl = _best_of(lambda: _scan_pipeline(m_bl, data))
        ratios.append(t_bl / t_np)
        lines.append(fmt_row([n, f"{t_np * 1e3:.3f}", f"{t_bl * 1e3:.3f}",
                              f"{t_bl / t_np:.2f}x"], widths))

    # step charges come from the cost model, not the backend: after
    # identical programs both machines have charged identical steps
    steps_np, steps_bl = Machine("scan"), Machine("scan", backend="blocked")
    _scan_pipeline(steps_np, np.arange(1 << 16))
    _scan_pipeline(steps_bl, np.arange(1 << 16))
    assert steps_np.steps == steps_bl.steps
    lines.append(f"step charges identical: {steps_np.steps} steps each "
                 f"at n={1 << 16}")
    _publish("wallclock", lines)

    benchmark(lambda: _scan_pipeline(m_np, np.arange(1 << 16)))

    # chunked dispatch costs a constant factor, not an asymptotic one
    assert all(r < 50 for r in ratios)


def test_memory_blocked_wins():
    n, chunk = 400_000, 4_096
    data = np.arange(n)
    # three whole-vector float64 temporaries (sin, cos, exp) on the NumPy
    # backend; the Blocked backend holds them one 4k-element chunk at a
    # time and only the bool result (1 byte/element) spans the vector
    fn = lambda a: (np.sin(a) + np.cos(a) * np.exp(-a * 1e-9)) > 0.5

    peaks = {}
    for name, machine in (
        ("numpy", Machine("scan")),
        ("blocked", Machine("scan", backend=BlockedBackend(chunk=chunk))),
    ):
        v = machine.vector(data)
        tracemalloc.start()
        # .data forces the blocked backend's deferred map, so both
        # machines compute inside the window
        out = v._elementwise(fn, v).data
        _, peaks[name] = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(out) == n

    widths = [9, 14, 18]
    lines = [f"Peak temporary memory, compound elementwise map "
             f"(n={n:,}, chunk={chunk:,})",
             fmt_row(["backend", "peak (bytes)", "bytes / element"], widths),
             fmt_row(["numpy", peaks["numpy"],
                      f"{peaks['numpy'] / n:.1f}"], widths),
             fmt_row(["blocked", peaks["blocked"],
                      f"{peaks['blocked'] / n:.1f}"], widths),
             f"blocked peaks at {peaks['blocked'] / peaks['numpy']:.2f}x "
             f"the numpy backend's memory: the regime where Blocked wins"]
    _publish("memory", lines)

    assert peaks["blocked"] < peaks["numpy"] / 2


def test_blocked_carries_long_vector(benchmark):
    n, chunk = 1 << 20, 4_096  # 256 chunks of carry propagation
    rng = np.random.default_rng(1)
    data = rng.integers(-10**9, 10**9, n)
    m = Machine("scan", backend=BlockedBackend(chunk=chunk))

    out = benchmark(lambda: scans.plus_scan(m.vector(data)))
    expected = np.concatenate(([0], np.cumsum(data)[:-1]))
    assert np.array_equal(out.data, expected)

    # carries are modular too: sums that wrap int64 many times still match
    wrap = np.full(10_000, np.iinfo(np.int64).max // 3)
    out_wrap = scans.plus_scan(m.vector(wrap))
    exp_wrap = np.concatenate(([0], np.cumsum(wrap)[:-1]))
    assert np.array_equal(out_wrap.data, exp_wrap)

    # and the scan model still charges unit steps through the chunk loop
    m2 = Machine("scan", backend=BlockedBackend(chunk=chunk))
    scans.plus_scan(m2.vector(data))
    assert m2.steps == 1

    lines = [f"Blocked +-scan, n={n:,} across {n // chunk} chunks of "
             f"{chunk:,}: matches np.cumsum exactly",
             f"int64-wraparound carries (10,000 x maxint/3): exact",
             f"scan-model charge through the chunk loop: 1 step"]
    _publish("carries", lines)
