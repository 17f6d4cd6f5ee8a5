"""The ``algorithms`` workload: back-to-back passes over the golden workloads.

Closed loop, one caller.  A pass runs every workload in
``repro.observe.profiles.WORKLOADS`` once at its baseline size, each on a
fresh ``Machine("scan")`` on the default engine.  Untraced passes cycle
through :data:`INPUT_SETS` input seeds derived from the run's seed (the
first is the run's seed itself), so one unlucky input draw cannot set a
run's figures.  Every workload asserts its own answer; every pass must
charge the same steps as the last pass on the same inputs, and at seed 0
those charges must equal the committed golden baselines exactly.
"""
from __future__ import annotations

import time

import numpy as np

import common

#: input seeds one untraced run cycles through
INPUT_SETS = 4
#: passes a run makes even past its time, so the tail stays at p90
MIN_PASSES = 100


def input_seeds(seed: int, count: int) -> list:
    return [seed + k * 100003 for k in range(count)]


class Runner:
    """Runs passes; counts attempted and failed workload runs."""

    def __init__(self, seeds: list) -> None:
        from repro.machine import Machine
        from repro.observe.baselines import load_baselines
        from repro.observe.profiles import WORKLOADS

        self.Machine = Machine
        self.workloads = WORKLOADS
        self.seeds = seeds
        self.passes = 0
        #: (input seed, workload) -> (steps, ops, by_kind)
        self.expected: dict = {}
        if 0 in seeds:
            golden = load_baselines(common.ROOT / "baselines")
            missing = set(WORKLOADS) - set(golden)
            if missing:
                raise RuntimeError(f"no golden baseline for {sorted(missing)}")
            self.expected = {(0, name): (b["steps"], b["ops"], b["by_kind"])
                             for name, b in golden.items()}
        self.attempted = 0
        self.failures: list = []

    def _one(self, name: str, seed: int, events) -> tuple:
        w = self.workloads[name]
        t0 = time.perf_counter()
        m = self.Machine("scan", seed=seed, **w.machine_kwargs)
        if events is not None:
            m.backend.observers.append(events.append)
        try:
            w.run(m, w.default_n, np.random.default_rng(seed))
            ok = True
        except AssertionError:
            ok = False
        return time.perf_counter() - t0, m, ok

    def run_pass(self, traced: bool = False) -> tuple:
        """One pass: ``(seconds, {name: seconds}, {name: machine},
        {name: [OpEvent]})``; the event lists stay empty unless
        ``traced``."""
        seed = self.seeds[self.passes % len(self.seeds)]
        self.passes += 1
        times, machines, events = {}, {}, {}
        t0 = time.perf_counter()
        for name in self.workloads:
            events[name] = [] if traced else None
            times[name], machines[name], ok = self._one(name, seed,
                                                        events[name])
            snap = machines[name].snapshot()
            charges = (snap.steps, snap.ops, dict(sorted(snap.by_kind.items())))
            expected = self.expected.setdefault((seed, name), charges)
            self.attempted += 1
            if not ok:
                self.failures.append(f"{name} (seed {seed}): answer "
                                     f"assertion failed")
            elif charges != expected:
                self.failures.append(f"{name} (seed {seed}): charges "
                                     f"{charges} != expected {expected}")
        return time.perf_counter() - t0, times, machines, events


def measure(seeds: list, seconds: float, cal: common.Calibration,
            min_passes: int = MIN_PASSES) -> dict:
    """Untraced passes for ``seconds`` (and at least ``min_passes``)
    after a warm-up pass per input set, each pass between two
    calibration probes."""
    runner = Runner(seeds)
    for _ in seeds:
        runner.run_pass()
    walls, scaled = [], []
    t_end = time.perf_counter() + seconds
    before = cal.probe()
    while time.perf_counter() < t_end or len(walls) < min_passes:
        wall = runner.run_pass()[0] * 1e3
        after = cal.probe()
        walls.append(wall)
        scaled.append(wall * cal.scale(before, after))
        before = after
    tail_label, tail_ms = common.tail(scaled)
    return {
        "pass_ms": walls,
        "raw_p50_ms": common.percentile(walls, 50),
        "raw_p90_ms": common.percentile(walls, 90),
        "p50_ms": common.percentile(scaled, 50),
        "tail_label": tail_label,
        "tail_ms": tail_ms,
        "passes_per_s": 1e3 * len(scaled) / sum(scaled),
        "peak_mb": common.peak_rss_mb(),
        "attempted": runner.attempted,
        "failures": runner.failures,
    }


def trace(seed: int, seconds: float, cal: common.Calibration) -> dict:
    """Per-layer figures from passes on the run's own seed with a backend
    observer on every machine, after untraced passes over the same time
    for the tracing overhead."""
    from repro.observe.metrics import registry

    untraced = measure([seed], seconds / 2, cal, min_passes=2)
    runner = Runner([seed])
    runner.run_pass(traced=True)
    passes = []
    t_end = time.perf_counter() + seconds / 2
    probe = cal.probe()
    while time.perf_counter() < t_end or len(passes) < 2:
        before = registry.snapshot()
        wall, times, machines, events = runner.run_pass(traced=True)
        after = registry.snapshot()
        after_probe = cal.probe()
        scale = cal.scale(probe, after_probe)
        probe = after_probe
        kernel = {n: sum(e.seconds for e in ev) for n, ev in events.items()}
        passes.append({
            "wall": wall,
            "scaled": wall * scale,
            "times": times,
            "kernel": kernel,
            "backend_ops": {n: len(ev) for n, ev in events.items()},
            "steps": sum(m.steps for m in machines.values()),
            "machine_ops": sum(m.snapshot().ops for m in machines.values()),
            "fused": (after["fusion.pipelines"]["value"]
                      - before.get("fusion.pipelines", {}).get("value", 0)),
        })
    # the pass with the median wall time, so its parts stay consistent
    med = sorted(passes, key=lambda p: p["wall"])[(len(passes) - 1) // 2]
    names = list(runner.workloads)
    wall_ms = med["wall"] * 1e3
    algo_ms = {n: med["times"][n] * 1e3 for n in names}
    kernel_ms = sum(med["kernel"].values()) * 1e3
    self_ms = sum(algo_ms.values()) - kernel_ms
    ops = sum(med["backend_ops"].values())
    # the parts are timed inside each workload; the pass around the loop
    reconcile = {
        "pass_ms": wall_ms,
        "core_plus_kernel_ms": self_ms + kernel_ms,
        "algorithms_sum_ms": sum(algo_ms.values()),
    }
    reconcile["ok"] = all(abs(v - wall_ms) <= 0.02 * wall_ms
                          for k, v in reconcile.items() if k != "pass_ms")
    metrics = {
        "core.self_ms": (self_ms, "ms"),
        "core.us_per_op": (self_ms * 1e3 / max(ops, 1), "us"),
        "core.fused_pipelines": (med["fused"], "count"),
        "machine.steps": (med["steps"], "count"),
        "machine.ops": (med["machine_ops"], "count"),
        "backends.kernel_ms": (kernel_ms, "ms"),
        "backends.kernel_share": (kernel_ms / wall_ms, "ratio"),
        "backends.ops": (ops, "count"),
        "observe.trace_overhead_pct": (
            100.0 * (1e3 * float(np.median([p["scaled"] for p in passes]))
                     - untraced["p50_ms"])
            / untraced["p50_ms"], "%"),
    }
    for n in names:
        metrics[f"algorithms.{n}.ms"] = (algo_ms[n], "ms")
        metrics[f"algorithms.{n}.backend_ops"] = (med["backend_ops"][n],
                                                   "count")
    return {
        "metrics": metrics,
        "samples": len(passes),
        "reconcile": reconcile,
        "attempted": untraced["attempted"] + runner.attempted,
        "failures": untraced["failures"] + runner.failures,
    }
