#!/usr/bin/env python
"""A/B the repository benchmark: a parent revision against the working tree.

Run from the repository root::

    python tools/perf_ab.py --parent HEAD~1 --pairs 10 --workload scans

Every run lasts ``BENCHMARK.json``'s ``run_seconds`` on both sides, and
at least ``MIN_PAIRS`` (ten) pairs are run.  The parent revision is
exported into a temporary directory (``git archive``, so nothing is
registered in ``.git`` and an interrupted run leaves at most that
directory).  Each pair runs ``perfbench/run.py
--trace 0`` once on the parent and once on the working tree, in
alternating order (parent first on even pairs, change first on odd ones)
so a host that drifts during the session favours neither side.  The
result goes to ``BENCH_<workload>.json``: for every end-to-end metric of
``BENCHMARK.json``, both medians, the parent's quartiles and IQR, how
many pairs the change won, whether that makes a gain (the change wins at
least nine pairs in ten and its median beats the parent's by more than
the parent's IQR), and pass/fail against the metric's bound; plus
both commits, the host facts, any calibration figures and every run.

Exit status is 0 when every run was correct and no metric is worse than
its bound, 1 otherwise.  Every benchmark process runs in its own process
group, which is killed (SIGINT, then SIGKILL) if anything is left of it
once the run ends or the tool is interrupted.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("algorithms", "scans")
SEED = 0
MIN_PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: pathlib.Path) -> None:
    """Write the tree of ``rev`` into ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def _kill_group(pgid: int, grace: float = 10.0) -> None:
    """End whatever is left of a process group: SIGINT first (the serve
    child shuts down cleanly only on SIGINT), SIGKILL after ``grace``
    seconds, then wait up to ``grace`` more for the group to empty."""
    for sig in (signal.SIGINT, signal.SIGKILL):
        deadline = time.monotonic() + grace
        try:
            os.killpg(pgid, sig)
            while time.monotonic() < deadline:
                time.sleep(0.1)
                os.killpg(pgid, 0)
        except ProcessLookupError:
            return


def run_bench(tree: pathlib.Path, workload: str, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run in ``tree``: its result line,
    the host line and any calibration report lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=seconds * 10 + 600)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        _kill_group(proc.pid)
    lines = [json.loads(line) for line in stdout.splitlines()
             if line.startswith("{")]
    if not lines or "metrics" not in lines[-1]:
        raise RuntimeError(f"no result from {tree} (exit {proc.returncode}):"
                           f"\n{stderr[-2000:]}")
    result = lines[-1]
    return {
        "host": lines[0].get("host", {}),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "calibration": {line["report"]: line["value"] for line in lines
                        if str(line.get("report", "")).startswith(
                            "calibration.")},
    }


def summarize(metric: dict, parent: list, change: list) -> dict:
    """Medians, the parent's spread, the gain verdict and the bound
    verdict for one metric."""
    lower = metric["better"] == "lower"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    worse = (c_med - p_med) if lower else (p_med - c_med)
    better_pairs = sum((c < p) if lower else (c > p)
                       for p, c in zip(parent, change))
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent_median": p_med,
        "change_median": c_med,
        "change_over_parent": c_med / p_med if p_med else None,
        "parent_q1": q1,
        "parent_q3": q3,
        "parent_iqr": q3 - q1,
        "pairs_better": better_pairs,
        "gain": (10 * better_pairs >= 9 * len(parent)
                 and -worse > q3 - q1),
        "pass": worse <= metric["bound"] * abs(p_med),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="revision to compare to")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    args = ap.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be at least {MIN_PAIRS}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = ROOT / f"BENCH_{args.workload}.json"
    parent_commit = git("rev-parse", f"{args.parent}^{{commit}}")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    change = {"commit": git("rev-parse", "HEAD"), "dirty": bool(dirty)}

    runs = []
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="perf_ab-"))
    try:
        export(parent_commit, tmp)
        trees = {"parent": tmp, "change": ROOT}
        for pair in range(args.pairs):
            order = ("parent", "change")
            for side in order if pair % 2 == 0 else order[::-1]:
                run = run_bench(trees[side], args.workload, seconds)
                runs.append({"pair": pair, "side": side, **run})
                print(f"pair {pair} {side}: correct={run['correct']} "
                      + " ".join(f"{k}={v:.4g}"
                                 for k, v in run["metrics"].items()),
                      flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    def side_values(side, key, field="metrics"):
        return [r[field][key] for r in sorted(runs, key=lambda r: r["pair"])
                if r["side"] == side and key in r[field]]

    metrics = {m["name"]: summarize(m, side_values("parent", m["name"]),
                                    side_values("change", m["name"]))
               for m in bench["end_to_end"]}
    calibration = {
        name: {f"{side}_median": statistics.median(
            side_values(side, name, "calibration"))
            for side in ("parent", "change")}
        for name in runs[0]["calibration"]}
    failed_share = {
        side: (sum(r["failed"] for r in runs if r["side"] == side)
               / sum(r["attempted"] for r in runs if r["side"] == side))
        for side in ("parent", "change")}
    correct = all(r["correct"] for r in runs)
    passed = (correct and all(m["pass"] for m in metrics.values())
              and failed_share["change"] <= failed_share["parent"])
    report = {
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": seconds,
        "seed": SEED,
        # the change runs in a git checkout, so its host facts name a commit
        "host": next(r["host"] for r in runs if r["side"] == "change"),
        "parent": {"rev": args.parent, "commit": parent_commit},
        "change": change,
        "correct": correct,
        "failed_share": failed_share,
        "pass": passed,
        "metrics": metrics,
        "calibration": calibration,
        "runs": runs,
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    for name, m in metrics.items():
        print(f"{name}: {m['parent_median']:.4g} -> {m['change_median']:.4g} "
              f"{m['unit']} (parent IQR {m['parent_iqr']:.3g}, better in "
              f"{m['pairs_better']}/{args.pairs}"
              f"{', a gain' if m['gain'] else ''}) "
              f"{'pass' if m['pass'] else 'FAIL'}")
    print(f"wrote {out}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
