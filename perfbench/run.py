"""The repository benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload algorithms|scans|serve \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the named workload untraced and prints its
end-to-end metrics.  ``--trace 1`` is the traced per-layer run: each
layer is reached on a different workload, so it traces all three (with
``S`` split between them) and prints every per-layer metric, whichever
workload is named.  Lines before the last are report lines, one JSON
object each, with the figures by their workload-specific names, units
and sample counts; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when any output was wrong.

Every process the benchmark starts imports the program from ``src/``
with ``REPRO_BACKEND``, ``REPRO_FUSION``, ``REPRO_NATIVE_PURE``,
``REPRO_SHARD_NATIVE`` and ``REPRO_BASELINE_DIR`` cleared.  Frozen
settings (serve rates, the p99 limit) and the layer predictions live in
``perfbench/spec.json``.
"""
from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time

import common

WORKLOADS = ("algorithms", "scans", "serve")

END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "goodput_per_s": "1/s",
    "peak_mb": "MB",
}


def engine_label(engine: str) -> str:
    return engine.split(":")[0]


def per_layer_units() -> dict:
    """Every per-layer metric the traced run prints, with its unit."""
    from repro.observe.profiles import WORKLOADS as ALGORITHMS
    from scans import ENGINES, EVENT_OPS

    units = {
        "core.self_ms": "ms", "core.us_per_op": "us",
        "core.fused_pipelines": "count",
        "machine.steps": "count", "machine.ops": "count",
    }
    for name in ALGORITHMS:
        units[f"algorithms.{name}.ms"] = "ms"
        units[f"algorithms.{name}.backend_ops"] = "count"
    units.update({"backends.kernel_ms": "ms", "backends.kernel_share": "ratio",
                  "backends.ops": "count"})
    for engine in map(engine_label, ENGINES):
        for op in EVENT_OPS:
            units[f"backends.{engine}.{op}_ms"] = "ms"
        units[f"backends.{engine}.temp_mb"] = "MB"
        units[f"backends.{engine}.gbs_computed"] = "GB/s"
    units["scans.raw_numpy_ms"] = "ms"
    units.update({"cluster.pool_spawn_ms": "ms", "cluster.failures": "count",
                  "cluster.retries": "count",
                  "cluster.degraded_shards": "count",
                  "cluster.carry_rounds": "count"})
    for rate in ("light", "heavy"):
        units.update({
            f"serve.server_p50_ms.{rate}": "ms",
            f"serve.server_p99_ms.{rate}": "ms",
            f"serve.occupancy.{rate}": "count",
            f"serve.cache_hit_ratio.{rate}": "ratio",
            f"serve.steps_per_request.{rate}": "count",
            f"serve.errors.{rate}": "count",
            f"serve.gen_late_p99_ms.{rate}": "ms",
        })
    units["serve.codec_us_per_req"] = "us"
    units["serve.execute_us_per_req"] = "us"
    units["observe.trace_overhead_pct"] = "%"
    return units


# --------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------- #

def report(name: str, value, unit: str, n: int, **extra) -> None:
    """One report line: a figure by its workload-specific name."""
    print(json.dumps({"report": common.check_metric_name(name),
                      "value": value, "unit": unit, "n": n, **extra}))


def setup_probes(kind: str, count: int, cal: common.Calibration) -> list:
    """``(measured, reference-speed)`` seconds from process start to
    ``ready`` for ``count`` probes, each between two calibration probes."""
    out = []
    for _ in range(count):
        before = cal.probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(common.ROOT / "perfbench" / "probe.py"), kind],
            cwd=common.ROOT, env=common.pinned_env(),
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe {kind} failed")
        out.append((seconds, seconds * cal.scale(before, cal.probe())))
    return out


def report_setup(setups: list) -> float:
    """Report measured and reference-speed set-up; returns the latter."""
    n = len(setups)
    report("setup_s.measured", statistics.median(s for s, _ in setups), "s", n)
    return statistics.median(r for _, r in setups)


# --------------------------------------------------------------------- #
# Workloads (untraced)
# --------------------------------------------------------------------- #

def run_algorithms(seed: int, seconds: float, spec: dict) -> tuple:
    import algorithms

    cal = common.Calibration("interp", spec["calibration"]["interp_ref_s"])
    r = algorithms.measure(
        algorithms.input_seeds(seed, algorithms.INPUT_SETS), seconds, cal)
    setups = setup_probes("algorithms", spec["setup_samples"], cal)
    n = len(r["pass_ms"])
    report("algo_pass_ms.p50", r["raw_p50_ms"], "ms", n)
    report("algo_pass_ms.p90", r["raw_p90_ms"], "ms", n)
    report("calibration.interp_ms", statistics.median(cal.probes) * 1e3, "ms",
           len(cal.probes), ref_ms=cal.ref_s * 1e3)
    metrics = {
        "setup_s": report_setup(setups),
        "p50_ms": r["p50_ms"],
        "tail_ms": r["tail_ms"],
        "goodput_per_s": r["passes_per_s"],
        "peak_mb": r["peak_mb"],
    }
    return (metrics, len(setups), r["attempted"], len(r["failures"]),
            r["failures"])


def run_scans(seed: int, seconds: float, spec: dict) -> tuple:
    import scans

    cal_ref = spec["calibration"]
    per_engine = scans.run_all(seed, seconds, False, cal_ref["stream_ref_s"])
    cal = common.Calibration("interp", cal_ref["interp_ref_s"])
    setups = setup_probes("scans", spec["setup_samples"], cal)
    host = common.host_facts()
    report("scans.array_mib", scans.N * 8 / 2**20, "MiB", 1,
           host_l2=host["l2"], host_l3=host["l3"])
    attempted, failures = 0, []
    mids, tails, rates, peaks = [], [], [], []
    for engine, res in per_engine.items():
        label = engine_label(engine)
        n = len(res["mix_ms"])
        melem = len(scans.MIX) * scans.N * 1e-3 * n / sum(res["mix_ms"])
        report(f"scan_melem_s.{label}", melem, "Melem/s", n)
        if label != "distributed":
            report(f"scan_peak_mb.{label}", res["peak_mb"], "MB", 1)
            peaks.append(res["peak_mb"])
        for op, ms in res["op_ms"].items():
            report(f"scans.{label}.{op}_ms", ms, "ms", n)
        mids.append(statistics.median(res["scaled_mix_ms"]))
        tails.append(common.tail(res["scaled_mix_ms"])[1])
        rates.append(res["mixes_per_s"])
        attempted += res["attempted"]
        failures += [f"{engine}: {f}" for f in res["failures"]]
    metrics = {
        "setup_s": report_setup(setups),
        "p50_ms": common.geomean(mids),
        "tail_ms": common.geomean(tails),
        "goodput_per_s": common.geomean(rates),
        "peak_mb": common.geomean(peaks),
    }
    return metrics, len(setups), attempted, len(failures), failures


def run_serve(seed: int, seconds: float, spec: dict) -> tuple:
    import serve

    sv = spec["serve"]
    r = serve.measure(seed, seconds, sv, spec["calibration"]["interp_ref_s"])
    light, heavy = r["light"], r["heavy"]
    for name, s in (("light", light), ("heavy", heavy)):
        report(f"serve.p50_ms.{name}", s["p50_ms"], "ms", s["answered_ok"])
        report(f"serve.p99_ms.{name}", s["tail_ms"], "ms", s["answered_ok"],
               tail_rule=s["tail_label"])
        report(f"serve.gen_late_p99_ms.{name}", s["gen_late_ms"], "ms",
               s["n"], tail_rule=s["gen_late_label"])
    tail = r["heavy_chunk_tail"]
    report("serve.heavy_chunk_tail_ms", tail["measured"], "ms",
           tail["chunks"], tail_rule=tail["rule"],
           reference_speed_value=tail["scaled"])
    ladder = r["ladder"]
    report("serve.goodput_rps", ladder["goodput_rps"], "1/s",
           len(ladder["steps"]), p99_limit_ms=sv["p99_limit_ms"],
           steps=[[round(s["rate"], 1), s["ok"], round(s["tail_ms"], 2),
                   s["refused"]] for s in ladder["steps"]])
    metrics = {
        "setup_s": report_setup(r["setups"]),
        "p50_ms": light["p50_ms"],
        "tail_ms": tail["scaled"],
        "goodput_per_s": ladder["goodput_scaled"],
        "peak_mb": r["peak_mb"],
    }
    return metrics, len(r["setups"]), r["attempted"], r["failed"], r["failures"]


# --------------------------------------------------------------------- #
# The traced per-layer run
# --------------------------------------------------------------------- #

def run_trace(seed: int, seconds: float, spec: dict) -> tuple:
    import algorithms
    import scans
    import serve

    out: dict = {}
    failures: list = []

    cal_ref = spec["calibration"]
    a = algorithms.trace(seed, seconds / 2, common.Calibration(
        "interp", cal_ref["interp_ref_s"]))
    out.update({k: v for k, (v, _) in a["metrics"].items()})
    attempted = a["attempted"]
    failures += a["failures"]
    rec = a["reconcile"]
    report("algorithms.reconcile", rec["ok"], "bool", a["samples"], **rec)
    if not rec["ok"]:
        failures.append(f"algorithms: trace does not reconcile: {rec}")
    if seed == 0:
        golden = sum(b["steps"] for b in _baselines().values())
        report("machine.steps_vs_golden", out["machine.steps"] == golden,
               "bool", 1, golden=golden)
        if out["machine.steps"] != golden:
            failures.append(f"algorithms: {out['machine.steps']} steps per "
                            f"pass, golden baselines sum to {golden}")
    failed = len(failures)

    per_engine = scans.run_all(seed, seconds / 2, True,
                               cal_ref["stream_ref_s"])
    for engine, res in per_engine.items():
        label = engine_label(engine)
        t = res["trace"]
        for op, ms in t["op_ms"].items():
            out[f"backends.{label}.{op}_ms"] = ms
        out[f"backends.{label}.temp_mb"] = t["temp_mb"]
        out[f"backends.{label}.gbs_computed"] = t["gbs_computed"]
        report(f"scans.{label}.core_self_ms", t["self_ms"], "ms",
               len(res["mix_ms"]), kernel_ms=t["kernel_ms"], ops=t["ops"],
               fused_pipelines=t["fused_pipelines"])
        attempted += res["attempted"]
        failures += [f"{engine}: {f}" for f in res["failures"]]
        failed += len(res["failures"])
    out["scans.raw_numpy_ms"] = per_engine["numpy"]["raw_numpy_ms"]
    dist = per_engine["distributed:2"]
    out["cluster.pool_spawn_ms"] = dist["pool_spawn_ms"]
    for key in ("failures", "retries", "degraded_shards", "carry_rounds"):
        out[f"cluster.{key}"] = dist["trace"][key]
    if dist["trace"]["failures"] or not dist["trace"]["reconciles"]:
        failures.append("distributed: cluster ledger recorded failures")
        failed += 1

    s = serve.trace(seed, seconds, spec["serve"])
    for rate in ("light", "heavy"):
        f = s["figures"][rate]
        for key in ("server_p50_ms", "server_p99_ms", "occupancy",
                    "cache_hit_ratio", "steps_per_request", "errors",
                    "gen_late_p99_ms"):
            out[f"serve.{key}.{rate}"] = f[key]
        report(f"serve.client_vs_server.{rate}", f["client_p50_ms"], "ms", 1,
               client_p99_ms=f["client_p99_ms"],
               server_p50_ms=f["server_p50_ms"],
               server_p99_ms=f["server_p99_ms"])
    out["serve.codec_us_per_req"] = s["figures"]["offline"]["codec_us_per_req"]
    out["serve.execute_us_per_req"] = \
        s["figures"]["offline"]["execute_us_per_req"]
    attempted += s["attempted"]
    failures += s["failures"]
    failed += s["failed"]

    units = per_layer_units()
    missing = set(units) - set(out)
    if missing:
        raise RuntimeError(f"traced run is missing {sorted(missing)}")
    return ({name: out[name] for name in units}, units, attempted, failed,
            failures)


def _baselines() -> dict:
    from repro.observe.baselines import load_baselines

    return load_baselines(common.ROOT / "baselines")


# --------------------------------------------------------------------- #

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a launcher may start us with SIGINT ignored, which every child would
    # inherit; the server child shuts down cleanly only on SIGINT
    signal.signal(signal.SIGINT, signal.default_int_handler)
    common.require_source()
    common.pin_environment()
    spec = json.loads((common.ROOT / "perfbench" / "spec.json").read_text())
    print(json.dumps({"host": common.host_facts(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace}))

    if args.trace:
        values, units, attempted, failed, failures = run_trace(
            args.seed, args.seconds, spec)
    else:
        runner = {"algorithms": run_algorithms, "scans": run_scans,
                  "serve": run_serve}[args.workload]
        values, setups, attempted, failed, failures = runner(
            args.seed, args.seconds, spec)
        units = END_TO_END
        report("setup_s", values["setup_s"], "s", setups)
    report("fail_ratio", failed / max(attempted, 1), "ratio", attempted)
    for f in failures:
        print(json.dumps({"failure": f}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
