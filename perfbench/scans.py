"""The ``scans`` workload: a fixed large-vector op mix on every engine.

Closed loop, one caller.  Each engine runs in its own process so one
engine's peak memory cannot mask another's; the engines run one after
another so they never share the two CPUs.  A child generates the inputs
from the seed, sets up its machine (for ``distributed`` also the worker
pool), runs one untimed warm-up mix, then timed mixes until its time is
up (at least one).  It hashes every output, and after timing compares each op against a
raw-NumPy reference; the parent then demands that every engine's hashes
equal the numpy engine's.

Run a child directly with ``python3 perfbench/scans.py --engine numpy
--seed 0 --seconds 5 --cal-ref 0.029 [--trace]``; it prints one JSON line.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import numpy as np

import common

ENGINES = ("numpy", "blocked", "native", "distributed:2")
N = 1 << 22
NAN_SHARE = 1e-3
SHORT_SEGMENT, LONG_SEGMENT = 8, 4096
VALUE_RANGE = 1 << 20
#: the mix, in order: (label, OpEvent op it dispatches, bytes it reads:
#: int64 or float64 values, plus one byte per flag for segmented ops)
MIX = (
    ("plus_scan", "plus_scan", 8 * N),
    ("max_scan_f64_nan", "max_scan", 8 * N),
    ("seg_plus_scan_short", "seg_plus_scan", 9 * N),
    ("seg_plus_scan_long", "seg_plus_scan", 9 * N),
    ("seg_max_scan_short", "seg_extreme_scan", 9 * N),
    ("seg_max_scan_long", "seg_extreme_scan", 9 * N),
    ("plus_reduce", "reduce", 8 * N),
    ("chain_plus_scan", "fused_pipeline", 8 * N),
)
EVENT_OPS = tuple(dict.fromkeys(op for _, op, _ in MIX))
#: bytes one mix reads and writes, from the array sizes alone
MIX_BYTES = sum(b for _, _, b in MIX) + 8 * N * (len(MIX) - 1) + 8


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    ints = rng.integers(0, VALUE_RANGE, N, dtype=np.int64)
    floats = rng.standard_normal(N)
    floats[rng.random(N) < NAN_SHARE] = np.nan

    def flags(mean: int) -> np.ndarray:
        f = rng.random(N) < 1.0 / mean
        f[0] = True
        return f

    return {"ints": ints, "floats": floats,
            "short": flags(SHORT_SEGMENT), "long": flags(LONG_SEGMENT)}


def references(x: dict):
    """Yield ``(label, raw-NumPy result)`` for the mix, one at a time."""
    ints = x["ints"]
    yield "plus_scan", common.ref_plus_scan(ints)
    yield "max_scan_f64_nan", common.ref_max_scan(x["floats"], -np.inf)
    yield "seg_plus_scan_short", common.ref_seg_plus_scan(ints, x["short"])
    yield "seg_plus_scan_long", common.ref_seg_plus_scan(ints, x["long"])
    yield "seg_max_scan_short", common.ref_seg_max_scan(ints, x["short"])
    yield "seg_max_scan_long", common.ref_seg_max_scan(ints, x["long"])
    yield "plus_reduce", np.int64(ints.sum())
    yield "chain_plus_scan", common.ref_plus_scan(((ints * 3) + 1) ^ 0x55)


def mix(m, x: dict):
    """Yield ``(label, thunk)``: each thunk runs one op on machine ``m``."""
    from repro.core import scans, segmented

    vi, vf = m.vector(x["ints"]), m.vector(x["floats"])
    short, long_ = m.flags(x["short"]), m.flags(x["long"])
    return (
        ("plus_scan", lambda: scans.plus_scan(vi).data),
        ("max_scan_f64_nan", lambda: scans.max_scan(vf).data),
        ("seg_plus_scan_short",
         lambda: segmented.seg_plus_scan(vi, short).data),
        ("seg_plus_scan_long",
         lambda: segmented.seg_plus_scan(vi, long_).data),
        ("seg_max_scan_short",
         lambda: segmented.seg_max_scan(vi, short).data),
        ("seg_max_scan_long",
         lambda: segmented.seg_max_scan(vi, long_).data),
        ("plus_reduce", lambda: np.int64(scans.plus_reduce(vi))),
        ("chain_plus_scan",
         lambda: scans.plus_scan(((vi * 3) + 1) ^ 0x55).data),
    )


# --------------------------------------------------------------------- #
# The child: one engine
# --------------------------------------------------------------------- #

def run_engine(engine: str, seed: int, seconds: float, traced: bool,
               cal_ref_s: float) -> dict:
    x = make_inputs(seed)
    cal = common.Calibration("stream", cal_ref_s)
    t0 = time.perf_counter()
    from repro.cluster.pool import shutdown_all_pools
    from repro.machine import Machine
    from repro.observe.metrics import registry

    m = Machine("scan", backend=engine)
    t_pool = time.perf_counter()
    if engine.startswith("distributed"):
        m.backend.pool  # spawns the workers
    pool_spawn_ms = (time.perf_counter() - t_pool) * 1e3
    setup_s = time.perf_counter() - t0
    try:
        events: list = []
        if traced:
            m.backend.observers.append(events.append)
        ops = mix(m, x)
        digests: dict = {}
        failures: list = []

        def one_mix() -> tuple:
            per_op = {}
            for label, thunk in ops:
                t = time.perf_counter()
                out = thunk()
                per_op[label] = time.perf_counter() - t
                # hashing stays off the clock
                d = common.digest(out)
                del out
                if digests.setdefault(label, d) != d:
                    failures.append(f"{label}: output changed between mixes")
            return sum(per_op.values()), per_op

        # the warm-up mix (page faults, lazy imports, the pool's first
        # touch) is untimed but spends the engine's time like the rest
        t_end = time.perf_counter() + seconds
        one_mix()
        mixes, scaled, per_op_s = [], [], []
        before = registry.snapshot()
        events.clear()
        probe = cal.probe()
        while not mixes or time.perf_counter() < t_end:
            wall, per_op = one_mix()
            after_probe = cal.probe()
            mixes.append(wall * 1e3)
            scaled.append(wall * 1e3 * cal.scale(probe, after_probe))
            per_op_s.append(per_op)
            probe = after_probe
        after = registry.snapshot()
        peak_mb = common.peak_rss_mb()
        ledger = (m.backend.ledger if engine.startswith("distributed")
                  else None)

        raw_numpy_s = 0.0
        refs = references(x)
        for label, _, _ in MIX:
            t = time.perf_counter()
            ref_label, ref = next(refs)
            raw_numpy_s += time.perf_counter() - t
            if ref_label != label or common.digest(ref) != digests[label]:
                failures.append(f"{label}: differs from raw NumPy")
            del ref
        result = {
            "engine": engine,
            "setup_s": setup_s,
            "pool_spawn_ms": pool_spawn_ms,
            "mix_ms": mixes,
            "scaled_mix_ms": scaled,
            "mixes_per_s": 1e3 * len(scaled) / sum(scaled),
            "op_ms": {label: 1e3 * float(np.median([p[label] for p in per_op_s]))
                      for label, _, _ in MIX},
            "peak_mb": peak_mb,
            "digests": digests,
            "failures": failures,
            "attempted": len(MIX) * (len(mixes) + 1),
            "raw_numpy_ms": raw_numpy_s * 1e3,
        }
        if traced:
            result["trace"] = _trace_figures(events, len(mixes), mixes,
                                             before, after, ledger)
        return result
    finally:
        shutdown_all_pools()


def _delta(before: dict, after: dict, name: str, key: str = "value"):
    return after.get(name, {}).get(key, 0) - before.get(name, {}).get(key, 0)


def _trace_figures(events, n_mixes, mixes, before, after, ledger) -> dict:
    kernel_s = sum(e.seconds for e in events)
    by_op = {op: sum(e.seconds for e in events if e.op == op) / n_mixes
             for op in EVENT_OPS}
    out = {
        "op_ms": {op: s * 1e3 for op, s in by_op.items()},
        "kernel_ms": kernel_s * 1e3 / n_mixes,
        "self_ms": float(np.mean(mixes)) - kernel_s * 1e3 / n_mixes,
        "temp_mb": max(e.temp_bytes for e in events) / 2**20,
        "gbs_computed": MIX_BYTES * n_mixes / kernel_s / 1e9,
        "ops": len(events) / n_mixes,
        "fused_pipelines": _delta(before, after, "fusion.pipelines") / n_mixes,
        "carry_rounds": _delta(before, after, "cluster.carry_rounds",
                               "total") / n_mixes,
    }
    if ledger is not None:
        out.update(failures=ledger.failures, retries=ledger.retries,
                   degraded_shards=ledger.degraded_shards,
                   reconciles=ledger.reconciles())
    return out


# --------------------------------------------------------------------- #
# The parent: every engine, each in its own process
# --------------------------------------------------------------------- #

def run_all(seed: int, seconds: float, traced: bool, cal_ref_s: float) -> dict:
    per_engine = {}
    for engine in ENGINES:
        cmd = [sys.executable, str(common.ROOT / "perfbench" / "scans.py"),
               "--engine", engine, "--seed", str(seed),
               "--seconds", repr(seconds / len(ENGINES)),
               "--cal-ref", repr(cal_ref_s)]
        if traced:
            cmd.append("--trace")
        proc = subprocess.run(cmd, cwd=common.ROOT, env=common.pinned_env(),
                              capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"scans child {engine} failed:\n{proc.stderr}")
        per_engine[engine] = json.loads(proc.stdout.strip().splitlines()[-1])
    base = per_engine["numpy"]["digests"]
    for engine, res in per_engine.items():
        for label, d in res["digests"].items():
            if d != base[label]:
                res["failures"].append(f"{label}: differs from numpy engine")
    return per_engine


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--engine", required=True, choices=ENGINES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--cal-ref", type=float, required=True,
                    help="reference seconds of the stream calibration kernel")
    args = ap.parse_args()
    common.pin_environment()
    print(json.dumps(run_engine(args.engine, args.seed, args.seconds,
                                args.trace, args.cal_ref)))


if __name__ == "__main__":
    main()
